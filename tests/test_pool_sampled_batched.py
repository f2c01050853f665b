"""Differential tests for batched sampled signatures.

In batched enumeration mode ``PoolStore`` fingerprints free-variable
candidates from identity-memoized sampled-environment grids
(``_sampled_signature_fast``) instead of re-evaluating the whole tree
once per ``(example, binding)`` cell per candidate. The fast path must
be observationally identical to the per-candidate reference
(``_sampled_signature``): the same admissions in the same order, the
same shadow buckets, and the same dedup/rejection counters.

Two comparisons, on the real strings and pexfun domains:

* fast grids vs the per-candidate reference *within* batched mode —
  everything must match byte for byte, counters included, because only
  the signature computation differs;
* batched vs classic enumeration — entries and shadows must match
  (the identical-candidate-stream invariant of ``test_enum_batched``);
  dedup *counters* legitimately differ across modes because the batched
  pipeline dedups value vectors before materializing expressions.
"""

import pytest

from repro.core.budget import Budget
from repro.core.dbs import DbsStats
from repro.core.dsl import Example, Signature
from repro.core.engine import Enumerator, PoolStore
from repro.core.types import STRING
from repro.domains.registry import get_domain
from tests.test_enum_batched import enum_path

STRINGS_SIG = Signature("f", (("v", STRING),), STRING)
STRINGS_EXAMPLES = [
    Example(("John Smith",), "J.S."),
    Example(("Jane Doe",), "J.D."),
]


def _pexfun_case():
    from repro.pex import PUZZLES

    puzzle = next(p for p in PUZZLES if p.name == "max-of-two")
    examples = [
        Example(args, puzzle.reference(*args)) for args in puzzle.seeds
    ]
    return puzzle.signature, examples


def _domain_case(name):
    if name == "strings":
        return get_domain("strings").dsl(), STRINGS_SIG, STRINGS_EXAMPLES
    signature, examples = _pexfun_case()
    return get_domain("pexfun").dsl(), signature, examples


def _run(name, mode, advances=3, max_expressions=20_000):
    dsl, signature, examples = _domain_case(name)
    stats = DbsStats()
    pool = PoolStore(
        dsl,
        signature,
        list(examples),
        budget=Budget(max_seconds=120.0, max_expressions=max_expressions),
        metrics=stats.registry,
    )
    enumerator = Enumerator(pool)
    with enum_path(mode):
        enumerator.seed([])
        for _ in range(advances):
            enumerator.advance()
    return pool, stats


def _pool_state(pool):
    """Everything observable about a pool: ordered entries per nt with
    generation + vector, plus the shadow buckets."""
    entries = {
        nt: [
            (str(e.expr), e.generation, e.values)
            for e in pool.iter_entries(nt)
        ]
        for nt in sorted(pool._entries)
    }
    shadows = {
        nt: [(str(e.expr), e.values) for e in bucket]
        for nt, bucket in sorted(pool._shadows.items())
        if bucket
    }
    return entries, shadows


def _counters(stats):
    """All run counters except wall-clock gauges."""
    return {
        name: value
        for name, value in stats.registry.snapshot_flat().items()
        if "seconds" not in name and "elapsed" not in name
    }


@pytest.mark.parametrize("name", ["strings", "pexfun"])
def test_fast_sampled_signatures_match_reference(name, monkeypatch):
    """Within batched mode, grids vs per-candidate signatures: only the
    fingerprint computation differs, so pool state *and* every counter
    must be byte-identical."""
    fast_pool, fast_stats = _run(name, "batched")
    monkeypatch.setattr(
        PoolStore,
        "_sampled_signature_fast",
        lambda self, expr, adapter: self._sampled_signature(expr, adapter),
    )
    ref_pool, ref_stats = _run(name, "batched")
    assert _pool_state(fast_pool) == _pool_state(ref_pool)
    assert _counters(fast_stats) == _counters(ref_stats)


@pytest.mark.parametrize("name", ["strings", "pexfun"])
def test_enum_modes_agree_on_pool_state(name):
    """Classic vs batched enumeration on the real domains: the modes
    must admit the same entries and shadow the same losers (dedup
    counters differ across modes by design — the batched pipeline
    rejects value vectors before materialization)."""
    batched_pool, _ = _run(name, "batched")
    classic_pool, _ = _run(name, "classic")
    assert _pool_state(batched_pool) == _pool_state(classic_pool)
