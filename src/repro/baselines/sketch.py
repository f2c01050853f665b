"""A Sketch-like baseline (§6).

Sketch is closed-source C++ (SAT-based); what the paper's comparison
isolates is the *search regime*: a domain-agnostic solver that (a) sees
all examples at once (no TDS iteration, no contexts/subexpressions from
a previous program) and (b) is guided only by types, not by the DSL
grammar. That regime is exactly our engine with the §6.3 ablations
applied simultaneously, so the baseline runs DBS once, from the trivial
context, over type-directed enumeration.

The paper reports Sketch finished none of the benchmarks within 10
minutes; this baseline reproduces the blow-up at proportionally smaller
budgets (see EXPERIMENTS.md).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional, Sequence

from ..core.budget import Budget
from ..core.dbs import DbsOptions, dbs
from ..core.dsl import Dsl, Example, Signature
from ..core.expr import Expr


@dataclass
class SketchResult:
    program: Optional[Expr]
    elapsed: float
    expressions: int

    @property
    def solved(self) -> bool:
        return self.program is not None


def sketch_synthesize(
    signature: Signature,
    examples: Sequence[Example],
    dsl: Dsl,
    budget: Optional[Budget] = None,
) -> SketchResult:
    """One-shot, type-directed, whole-example-set synthesis."""
    start = time.monotonic()
    options = DbsOptions(
        use_dsl=False,           # types only, no grammar guidance
        enable_loops=False,      # no expert loop strategies
        enable_conditionals=True,  # Sketch does explore branching
        semantic_dedup=True,     # SAT solvers also dedup; keep it fair
    )
    result = dbs(
        contexts=[],             # trivial context only
        examples=list(examples),
        seeds=[],
        dsl=dsl,
        signature=signature,
        max_branches=3,
        budget=budget or Budget(max_seconds=30.0, max_expressions=300_000),
        options=options,
    )
    return SketchResult(
        program=result.program,
        elapsed=time.monotonic() - start,
        expressions=result.stats.expressions,
    )
