"""Differential tests for batched sampled signatures.

In batched enumeration mode ``PoolStore`` fingerprints free-variable
candidates from identity-memoized sampled-environment grids
(``_sampled_signature_fast``) instead of re-evaluating the whole tree
once per ``(example, binding)`` cell per candidate. The fast path must
be observationally identical to the per-candidate reference
(``_sampled_signature``): the same admissions in the same order, the
same shadow buckets, and the same dedup/rejection counters.

Each run advances a few generations, then takes the warm path a
session takes between TDS iterations: ``extend_examples`` by one
example, ``reorder_examples``, and one more advance. Extension re-keys
sampled entries on the path that admitted them (the grids in batched
mode), so the comparisons cover it too.

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
STRINGS_EXTRA = Example(("Ada Lovelace",), "A.L.")


def _pexfun_case():
    from repro.pex import PUZZLES

    puzzle = next(p for p in PUZZLES if p.name == "max-of-two")
    examples = [
        Example(args, puzzle.reference(*args)) for args in puzzle.seeds
    ]
    extra = Example((7, -3), puzzle.reference(7, -3))
    return puzzle.signature, examples, extra


def _domain_case(name):
    if name == "strings":
        dsl = get_domain("strings").dsl()
        return dsl, STRINGS_SIG, STRINGS_EXAMPLES, STRINGS_EXTRA
    signature, examples, extra = _pexfun_case()
    return get_domain("pexfun").dsl(), signature, examples, extra


def _run(name, mode, advances=2, max_expressions=20_000):
    """Advance, extend by one example, reverse the example order, and
    advance once more; returns the pool, its stats, and the pool state
    after each of those four stages."""
    dsl, signature, examples, extra = _domain_case(name)
    stats = DbsStats()
    pool = PoolStore(
        dsl,
        signature,
        list(examples),
        budget=Budget(max_seconds=120.0, max_expressions=max_expressions),
        metrics=stats.registry,
    )
    enumerator = Enumerator(pool)
    stages = []
    with enum_path(mode):
        enumerator.seed([])
        for _ in range(advances):
            enumerator.advance()
        stages.append(_pool_state(pool))
        # A fresh budget for the warm steps, as a session binds one per run.
        pool.bind(
            stats.registry,
            Budget(max_seconds=120.0, max_expressions=max_expressions),
        )
        pool.extend_examples([extra])
        if name == "strings":
            # The extension re-keyed sampled (free-variable) entries.
            # The pexfun pool holds none: its loop bodies come from the
            # loop strategies, not from enumeration.
            assert any(
                e.values is None and e.sig is not None
                for entries in pool._entries.values()
                for e in entries
            )
        stages.append(_pool_state(pool))
        pool.reorder_examples(list(reversed(range(len(pool.examples)))))
        stages.append(_pool_state(pool))
        enumerator.advance()
        stages.append(_pool_state(pool))
    return pool, stats, stages


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
    _, fast_stats, fast_stages = _run(name, "batched")
    monkeypatch.setattr(
        PoolStore,
        "_sampled_signature_fast",
        lambda self, expr, adapter: self._sampled_signature(expr, adapter),
    )
    _, ref_stats, ref_stages = _run(name, "batched")
    assert fast_stages == ref_stages
    assert _counters(fast_stats) == _counters(ref_stats)


@pytest.mark.parametrize("name", ["strings", "pexfun"])
def test_enum_modes_agree_on_pool_state(name):
    """Classic vs batched enumeration on the real domains: the modes
    must admit the same entries and shadow the same losers (dedup
    counters differ across modes by design — the batched pipeline
    rejects value vectors before materialization)."""
    _, _, batched_stages = _run(name, "batched")
    _, _, classic_stages = _run(name, "classic")
    assert batched_stages == classic_stages


def test_refresh_lasy_ignores_the_pools_own_name():
    """The LaSy runner rebinds the synthesized function's own name on
    every run; no pooled expression calls it (self-calls are Recurse
    nodes), so nothing is refreshed and the grids survive."""
    pool, _, _ = _run("strings", "batched", advances=1)
    grids = pool._grid_cache
    assert grids
    pool.lasy_fns[pool.signature.name] = lambda v: v
    assert pool.refresh_lasy() == 0
    assert pool._grid_cache is grids
    # A second rebinding is still noticed, and still ignored.
    pool.lasy_fns[pool.signature.name] = lambda v: v
    assert pool.refresh_lasy() == 0
    assert pool._grid_cache is grids
