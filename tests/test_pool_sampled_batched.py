"""Differential tests for batched sampled signatures.

``PoolStore`` fingerprints free-variable candidates from
identity-memoized sampled-environment grids
(``_sampled_signature_fast``) instead of re-evaluating the whole tree
once per ``(example, binding)`` cell per candidate. The fast path must
be observationally identical to the per-candidate reference
(``_sampled_signature``): the same admissions in the same order, the
same shadow buckets, and the same dedup/rejection counters.

Each run advances a few generations, then takes the warm path a
session takes between TDS iterations: ``extend_examples`` by one
example, ``reorder_examples``, and one more advance. Extension re-keys
sampled entries on the grids too, so the comparisons cover it.

Two comparisons, on the real strings and pexfun domains:

* fast grids vs the per-candidate reference *within* the batched path —
  everything must match byte for byte, counters included, because only
  the signature computation differs;
* batched vs classic enumeration — entries and shadows must match
  (the identical-candidate-stream invariant of ``test_enum_batched``);
  dedup *counters* legitimately differ across modes because the batched
  pipeline dedups value vectors before materializing expressions.

A free-variable call whose root no rewrite rule can match is signed
before it is built (``PoolStore.combo_grid`` and ``offer_combo``). On
the strings case, that path is held to the build-then-offer path it
replaces (``combo_grid`` declining): the same pools, seen-sets and
counters, but for the expressions it no longer materializes; also
across a budget-truncated generation and its warm redo. And a semantic
loser on that path is never built at all.
"""

import pytest

from repro.core.budget import Budget
from repro.core.dbs import DbsStats
from repro.core.dsl import Example, Signature
from repro.core.engine import Enumerator, PoolStore
from repro.core.expr import Call, Lambda
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
    """On the batched path, grids vs per-candidate signatures: only the
    fingerprint computation differs, so pool state *and* every counter
    must be byte-identical. The reference signs both the built
    candidates and the unbuilt combos of ``offer_combo`` per candidate,
    on the built call."""
    _, fast_stats, fast_stages = _run(name, "batched")
    monkeypatch.setattr(
        PoolStore,
        "_sampled_signature_fast",
        lambda self, expr, adapter: self._sampled_signature(expr, adapter),
    )

    def per_candidate(self, nt, func, children, cells, var_types, bindings):
        adapter = self.dsl.signature_adapters.get(nt)
        return self._sampled_signature(Call(func, children, nt), adapter)

    monkeypatch.setattr(PoolStore, "_combo_signature", per_candidate)
    _, ref_stats, ref_stages = _run(name, "batched")
    assert fast_stages == ref_stages
    assert _counters(fast_stats) == _counters(ref_stats)


def _decline_unbuilt(monkeypatch):
    """Make every free-variable combo take build-then-offer."""
    monkeypatch.setattr(
        PoolStore, "combo_grid", lambda self, children, var_set: None
    )


def _split_materialized(stats):
    counters = _counters(stats)
    return counters, counters.pop("enum.lazy_materialized")


def test_unbuilt_combos_match_build_then_offer(monkeypatch):
    """Signing free-variable combos before building them changes no pool
    state and no counter after any stage, except how many expressions
    were materialized: fewer, because losers are never built."""
    pool, stats, stages = _run("strings", "batched")
    seen = pool._seen_syntactic
    _decline_unbuilt(monkeypatch)
    ref_pool, ref_stats, ref_stages = _run("strings", "batched")
    assert stages == ref_stages
    assert seen == ref_pool._seen_syntactic
    counters, built = _split_materialized(stats)
    ref_counters, ref_built = _split_materialized(ref_stats)
    assert counters == ref_counters
    assert built < ref_built


def _truncated_redo():
    """A generation cut short by the expression budget, then the warm
    path a session takes: bind a fresh budget (which arms the redo),
    extend the examples, re-seed, and advance. Returns the pool state
    and seen-set after the cut and after the redo, and the stats."""
    dsl, signature, examples, extra = _domain_case("strings")
    stats = DbsStats()
    pool = PoolStore(
        dsl,
        signature,
        list(examples),
        budget=Budget(max_seconds=120.0, max_expressions=3_000),
        metrics=stats.registry,
    )
    enumerator = Enumerator(pool)
    states = []
    with enum_path("batched"):
        enumerator.seed([])
        while not pool.exhausted:
            enumerator.advance()
        assert pool.incomplete_generation
        states.append((_pool_state(pool), set(pool._seen_syntactic)))
        pool.bind(
            stats.registry, Budget(max_seconds=120.0, max_expressions=20_000)
        )
        pool.extend_examples([extra])
        enumerator.seed([])
        enumerator.advance()
        assert pool.last_generation_redone
        states.append((_pool_state(pool), set(pool._seen_syntactic)))
    return states, stats


def test_truncated_generation_redo_blocks_the_same_losers(monkeypatch):
    """The redo of a budget-truncated generation re-offers its combos
    over the extended examples. Free-variable losers of the cut
    generation must stay blocked by their recorded syntactic keys,
    exactly as the hash-consed losers of build-then-offer are: a loser
    whose key were missing could now win on the new example."""
    states, stats = _truncated_redo()
    _decline_unbuilt(monkeypatch)
    ref_states, ref_stats = _truncated_redo()
    assert states == ref_states
    counters, built = _split_materialized(stats)
    ref_counters, ref_built = _split_materialized(ref_stats)
    assert counters == ref_counters
    assert built < ref_built


def _advance_recording_calls(mode, monkeypatch):
    """Advance a strings pool once, then once more while recording every
    ``Call`` constructed; returns the pool and the recorded calls."""
    dsl, signature, examples, _ = _domain_case("strings")
    pool = PoolStore(
        dsl,
        signature,
        list(examples),
        budget=Budget(max_seconds=120.0, max_expressions=20_000),
    )
    enumerator = Enumerator(pool)
    built = []
    original = Call.__post_init__

    def recording(self):
        original(self)
        built.append(self)

    with enum_path(mode):
        enumerator.seed([])
        enumerator.advance()
        with monkeypatch.context() as patch:
            patch.setattr(Call, "__post_init__", recording)
            enumerator.advance()
    return pool, built


def _unadmitted_unbuilt_kind(pool, built):
    """Calls built during the advance that the values-first path covers
    (an eager component over no lambda, free variables, no recursion, a
    root no rewrite rule matches) but that did not enter the pool."""
    # Every strings rule is rooted at a named function.
    rooted = {rule.lhs.func_name for rule in pool.dsl.rewrites}
    admitted = {
        id(entry.expr)
        for entries in pool._entries.values()
        for entry in entries
    }
    return [
        call
        for call in built
        if call.free_var_set
        and not call.has_recurse
        and not call.func.lazy
        and not any(isinstance(arg, Lambda) for arg in call.args)
        and call.func.name not in rooted
        and id(call) not in admitted
    ]


def test_semantic_losers_are_never_built(monkeypatch):
    """Classic enumeration builds every free-variable candidate, and many
    of them lose semantic dedup. Batched enumeration over the same
    generation builds only the ones it admits."""
    classic_pool, classic_built = _advance_recording_calls(
        "classic", monkeypatch
    )
    assert _unadmitted_unbuilt_kind(classic_pool, classic_built)
    pool, built = _advance_recording_calls("batched", monkeypatch)
    assert any(call.free_var_set for call in built)
    assert _unadmitted_unbuilt_kind(pool, built) == []


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
