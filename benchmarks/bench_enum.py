"""Enumeration-engine microbenchmark: batched value-vector candidate
generation vs. the classic per-expression pipeline, the reference the
engine keeps for differential tests (reached through the same seam as
``tests/test_enum_batched.enum_path``; see :func:`_enum_path`).

Run directly (writes ``BENCH_enum.json`` at the repo root, which
docs/performance.md and EXPERIMENTS.md reference)::

    PYTHONPATH=src python benchmarks/bench_enum.py

Two sections:

* ``enum_engine`` — candidates/sec through ``Enumerator.advance`` in
  both modes over a lambda-free string+int DSL whose fourth generation
  is budget-truncated to a fixed ~60k-candidate window, like the inner
  generations of a real search. Every candidate is charged to the
  budget identically in both modes, so ``budget.expressions / elapsed``
  is the same unit on both sides. Fresh pools per rep; best rep wins.
* ``e2e_strings`` — summed wall-clock for a slice of the E1 strings
  suite end to end in each mode, same budget, modes interleaved per
  rep, best of ``E2E_REPS`` after a discarded warm-up. Real tasks are
  dominated by testing, sampled signatures, and lambda-bearing
  productions the batched path falls back on, so the end-to-end edge
  is far smaller than the enumeration-kernel speedup.
"""

from __future__ import annotations

import contextlib
import json
import os
import sys
from time import perf_counter

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if not os.environ.get("PYTHONPATH") or "repro" not in sys.modules:
    sys.path.insert(0, os.path.join(_ROOT, "src"))

REPS = 3  # per mode; best rep wins (cancels scheduler noise)
# Generation 4 of the micro DSL holds >1M combinations; the expression
# budget truncates it so a rep measures a ~60k-candidate window. Both
# modes charge the budget per candidate in the same order, so they
# measure the identical candidate stream (asserted below).
GENERATIONS = 4
MICRO_BUDGET = 60_000
E2E_REPS = 2
# A slice of the E1 strings suite (solved well inside the budget by
# both modes); summed wall-clock damps per-task scheduler noise that
# would swamp any single benchmark's timing on a small host.
E2E_BENCHES = ["initials", "extract-domain", "date-reorder", "abbrev-dotted"]


@contextlib.contextmanager
def _enum_path(mode):
    """Run the block on one enumeration path: ``"batched"`` is the
    engine as it ships; ``"classic"`` makes no production batchable and
    signs free-variable candidates per candidate instead of on the
    memoized grids. Both class attributes are restored after."""
    if mode == "batched":
        yield
        return
    from repro.core.engine import Enumerator, PoolStore

    batchable = Enumerator._batchable
    sampled = PoolStore._sampled_signature_fast
    Enumerator._batchable = lambda self, prod: False
    PoolStore._sampled_signature_fast = PoolStore._sampled_signature
    try:
        yield
    finally:
        Enumerator._batchable = batchable
        PoolStore._sampled_signature_fast = sampled


def _micro_dsl():
    """Lambda-free strings+ints: every production takes the batched
    path, and the value space is small enough that later generations are
    dominated by observational duplicates — the case batching wins."""
    from repro.core.dsl import DslBuilder
    from repro.core.types import INT, STRING

    b = DslBuilder("enum-micro", start="s")
    b.nt("s", STRING).nt("n", INT)
    b.fn("s", "Concat", ["s", "s"], lambda a, c: a + c)
    b.fn("s", "Left", ["s", "n"], lambda v, n: v[:n])
    b.fn("s", "Right", ["s", "n"], lambda v, n: v[-n:] if n else "")
    b.fn("s", "Upper", ["s"], str.upper)
    b.fn("n", "Add", ["n", "n"], lambda a, c: a + c)
    b.fn("n", "Len", ["s"], len)
    b.param("s")
    b.param("n")
    b.constants_from(lambda examples: {"s": ["-", "."], "n": [1, 2]})
    return b.build()


def _micro_examples():
    from repro.core.dsl import Example

    return [
        Example(("alpha.beta", 3), "ALP"),
        Example(("x.y", 1), "X"),
        Example(("hello.world", 5), "HELLO"),
    ]


def _cands_per_sec(mode):
    from repro.core.budget import Budget
    from repro.core.dbs import DbsStats
    from repro.core.dsl import Signature
    from repro.core.engine import Enumerator, PoolStore
    from repro.core.types import INT, STRING

    signature = Signature("f", (("s", STRING), ("n", INT)), STRING)
    dsl = _micro_dsl()
    examples = _micro_examples()
    best = 0.0
    candidates = 0
    for _ in range(REPS):
        budget = Budget(max_seconds=600.0, max_expressions=MICRO_BUDGET)
        pool = PoolStore(
            dsl,
            signature,
            list(examples),
            budget=budget,
            metrics=DbsStats().registry,
        )
        enumerator = Enumerator(pool)
        with _enum_path(mode):
            enumerator.seed([])
            start = perf_counter()
            for _ in range(GENERATIONS):
                enumerator.advance()
            elapsed = perf_counter() - start
        candidates = budget.expressions
        rate = candidates / elapsed
        if rate > best:
            best = rate
    return best, candidates


def bench_enum_engine():
    classic, cands = _cands_per_sec("classic")
    print(f"  classic: {classic:9.0f} cands/s  ({cands} candidates)")
    batched, cands_b = _cands_per_sec("batched")
    print(f"  batched: {batched:9.0f} cands/s  ({cands_b} candidates)")
    assert cands == cands_b, "modes enumerated different candidate counts"
    return {
        "generations": GENERATIONS,
        "candidates": cands,
        "classic_ops_per_sec": round(classic, 1),
        "batched_ops_per_sec": round(batched, 1),
        "speedup": round(batched / classic, 2),
    }


def bench_e2e_strings():
    import gc

    from repro.core.budget import Budget
    from repro.suites import ALL_SUITES

    benchmarks = [
        next(b for b in ALL_SUITES["strings"] if b.name == name)
        for name in E2E_BENCHES
    ]
    budget = lambda: Budget(max_seconds=60, max_expressions=250_000)
    best = {"classic": float("inf"), "batched": float("inf")}
    # Interleave the modes so both sample the same allocator/GC state;
    # a warm-up rep (discarded) pays one-time imports and compilation.
    for rep in range(E2E_REPS + 1):
        for mode in ("classic", "batched"):
            gc.collect()
            with _enum_path(mode):
                start = perf_counter()
                for benchmark in benchmarks:
                    result = benchmark.run(budget_factory=budget)
                    assert result.success, (
                        f"{benchmark.name} failed in {mode} mode"
                    )
                elapsed = perf_counter() - start
            if rep:
                best[mode] = min(best[mode], elapsed)
    classic, batched = best["classic"], best["batched"]
    print(f"  classic: {classic:.2f}s")
    print(f"  batched: {batched:.2f}s")
    return {
        "benchmarks": E2E_BENCHES,
        "classic_seconds": round(classic, 3),
        "batched_seconds": round(batched, 3),
        "speedup": round(classic / batched, 2),
    }


def main():
    print("enum engine (batched vs classic candidates/sec):")
    enum_engine = bench_enum_engine()
    print(f"e2e strings ({len(E2E_BENCHES)} E1 benchmarks):")
    e2e = bench_e2e_strings()
    payload = {
        "enum_engine": enum_engine,
        "e2e_strings": e2e,
        "host": {
            "cpus": os.cpu_count(),
            "python": sys.version.split()[0],
        },
    }
    out = os.path.join(_ROOT, "BENCH_enum.json")
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
