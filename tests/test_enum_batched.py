"""Differential tests for batched value-vector enumeration.

The enumerator computes each candidate's value vector straight from its
children's cached vectors and dedups on the interned signature before
any expression is materialized (the ``batched`` path); ``classic`` is
the per-expression reference pipeline, reached through the
:func:`enum_path` test seam. The two paths must be observationally
identical: the same pool entries in the same order with the same
vectors, the same shadows, and — end to end, across all four paper
domains — the same synthesized programs.
"""

import contextlib

import pytest

from repro.core.budget import Budget
from repro.core.dbs import DbsStats
from repro.core.dsl import DslBuilder, Example, Signature
from repro.core.engine import Enumerator, PoolStore
from repro.core.engine import pool as pool_mod
from repro.core.expr import Call, Param
from repro.core.types import INT, STRING
from repro.domains.registry import get_domain

SIG = Signature("f", (("x", INT),), INT)


@contextlib.contextmanager
def enum_path(mode):
    """Run the block on one enumeration path. ``"batched"`` is the
    engine as it ships; ``"classic"`` forces the per-candidate reference
    onto every production (no production is batchable) and signs every
    free-variable candidate per candidate instead of on the grids. Both
    class attributes are restored after the block."""
    if mode == "batched":
        yield
        return
    assert mode == "classic", mode
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Enumerator, "_batchable", lambda self, prod: False)
        patch.setattr(
            PoolStore, "_sampled_signature_fast", PoolStore._sampled_signature
        )
        yield


def _neg(v):
    return -v


def _add(a, c):
    return a + c


def _mul(a, c):
    return a * c


def _repeat(s, n):
    return s * n


def tiny_dsl():
    b = DslBuilder("tiny", start="e")
    b.nt("e", INT)
    b.fn("e", "Neg", ["e"], _neg)
    b.fn("e", "Add", ["e", "e"], _add)
    b.fn("e", "Mul", ["e", "e"], _mul)
    b.param("e")
    b.constant("e")
    b.constants_from(lambda examples: {"e": [0, 1, 2]})
    return b.build()


def mixed_dsl():
    """Two nonterminals and a value-size-sensitive component, so the
    differential also covers cross-nt slots and ERROR columns."""
    b = DslBuilder("mixed", start="s")
    b.nt("s", STRING).nt("n", INT)
    b.fn("s", "Concat", ["s", "s"], lambda a, c: a + c)
    b.fn("s", "Repeat", ["s", "n"], _repeat)
    b.fn("n", "Add", ["n", "n"], _add)
    b.fn("n", "Len", ["s"], len)
    b.param("s")
    b.param("n")
    b.constants_from(lambda examples: {"s": ["-"], "n": [2]})
    return b.build()


def make_pool(dsl, signature, examples, max_expressions=10**7):
    stats = DbsStats()
    budget = Budget(max_seconds=60.0, max_expressions=max_expressions)
    pool = PoolStore(
        dsl,
        signature,
        list(examples),
        budget=budget,
        metrics=stats.registry,
    )
    return pool, stats


def pool_state(pool):
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


def run_generations(dsl, signature, examples, mode, advances=2, extend=None):
    pool, _ = make_pool(dsl, signature, examples)
    enumerator = Enumerator(pool)
    with enum_path(mode):
        enumerator.seed([])
        for _ in range(advances):
            enumerator.advance()
        if extend is not None:
            pool.extend_examples([extend])
            enumerator.seed([])
            enumerator.advance()
    return pool


class TestPoolDifferential:
    @pytest.mark.parametrize("extend", [None, Example((5,), 0)])
    def test_tiny_dsl_same_pool(self, extend):
        examples = [Example((1,), 0), Example((3,), 0)]
        batched = run_generations(
            tiny_dsl(), SIG, examples, "batched", extend=extend
        )
        classic = run_generations(
            tiny_dsl(), SIG, examples, "classic", extend=extend
        )
        assert pool_state(batched) == pool_state(classic)
        assert batched.generation == classic.generation

    def test_mixed_dsl_same_pool(self):
        signature = Signature("f", (("s", STRING), ("n", INT)), STRING)
        examples = [Example(("ab", 2), "abab"), Example(("x", 3), "xxx")]
        batched = run_generations(mixed_dsl(), signature, examples, "batched")
        classic = run_generations(mixed_dsl(), signature, examples, "classic")
        assert pool_state(batched) == pool_state(classic)

    def test_budget_death_matches(self):
        # Both modes must charge the budget per candidate combination in
        # the same order, so a budget that dies mid-generation leaves
        # identical partial pools.
        examples = [Example((1,), 0), Example((3,), 0)]
        pools = []
        for mode in ("batched", "classic"):
            pool, _ = make_pool(
                tiny_dsl(), SIG, examples, max_expressions=120
            )
            enumerator = Enumerator(pool)
            with enum_path(mode):
                enumerator.seed([])
                enumerator.advance()
                enumerator.advance()
            assert pool.exhausted
            pools.append(pool)
        assert pool_state(pools[0]) == pool_state(pools[1])


def _truncated_redo_state(mode):
    """The tiny DSL's generation 3 cut short by the expression budget,
    then the warm path a session takes: bind a fresh budget (which arms
    the redo), extend by two examples, re-seed and advance. The redo
    leaves more semantic losers than the default shadow cap holds.
    Returns the pool state and the syntactic seen-set after the redo."""
    pool, stats = make_pool(
        tiny_dsl(), SIG, [Example((1,), 0), Example((3,), 0)], max_expressions=400
    )
    enumerator = Enumerator(pool)
    with enum_path(mode):
        enumerator.seed([])
        while not pool.exhausted:
            enumerator.advance()
        assert pool.incomplete_generation and pool.generation == 3
        pool.bind(stats.registry, Budget(max_seconds=60.0, max_expressions=10**7))
        pool.extend_examples([Example((5,), 0), Example((-2,), 0)])
        enumerator.seed([])
        enumerator.advance()
        assert pool.last_generation_redone
    return pool_state(pool), set(pool._seen_syntactic)


@pytest.mark.parametrize("shadow_cap", [1, 2, 4, pool_mod._MAX_SHADOW_ENTRIES])
def test_truncated_redo_blocks_every_semantic_loser(shadow_cap, monkeypatch):
    """A batched semantic loser's syntactic key is recorded whether or
    not its shadow bucket has room, as ``offer()`` records every
    loser's. Otherwise the redo of a truncated generation, over the
    extended examples, could admit a loser that the reference path
    keeps out with its key."""
    monkeypatch.setattr(pool_mod, "_MAX_SHADOW_ENTRIES", shadow_cap)
    assert _truncated_redo_state("batched") == _truncated_redo_state("classic")


DOMAIN_CASES = [
    ("strings", "extract-domain"),
    ("tables", "transpose"),
    ("xml", "add-classes"),
]


@pytest.mark.parametrize("suite_name, bench_name", DOMAIN_CASES)
def test_suite_benchmarks_batched_matches_classic(suite_name, bench_name):
    from repro.suites import ALL_SUITES

    benchmark = next(
        b for b in ALL_SUITES[suite_name] if b.name == bench_name
    )
    budget = lambda: Budget(max_seconds=20, max_expressions=250_000)
    with enum_path("batched"):
        batched = benchmark.run(budget_factory=budget)
    with enum_path("classic"):
        classic = benchmark.run(budget_factory=budget)
    assert batched.success and classic.success
    assert str(batched.program) == str(classic.program)


def test_pexfun_puzzle_batched_matches_classic():
    from repro.pex import PUZZLES, play

    puzzle = next(p for p in PUZZLES if p.name == "max-of-two")
    budget = lambda: Budget(max_seconds=8, max_expressions=80_000)
    with enum_path("batched"):
        batched = play(puzzle, budget_factory=budget)
    with enum_path("classic"):
        classic = play(puzzle, budget_factory=budget)
    assert batched.solved and classic.solved
    assert str(batched.program) == str(classic.program)


# -- the test seam -----------------------------------------------------


def test_classic_path_neither_batches_nor_fills_grids():
    """``enum_path`` patches class attributes by name; if production code
    stopped consulting them, every differential in this suite would
    compare the batched path with itself and still pass. One strings
    advance on each path: the reference batches no candidate and signs
    nothing on the grids, the batched path does both."""
    signature = Signature("f", (("v", STRING),), STRING)
    examples = [Example(("John Smith",), "J.S."), Example(("Jane Doe",), "J.D.")]
    outcome = {}
    for mode in ("classic", "batched"):
        pool, stats = make_pool(get_domain("strings").dsl(), signature, examples)
        enumerator = Enumerator(pool)
        with enum_path(mode):
            enumerator.seed([])
            before = stats.registry.value("enum.batched")
            enumerator.advance()
        batched = stats.registry.value("enum.batched") - before
        outcome[mode] = (batched, len(pool._grid_cache))
    assert outcome["classic"] == (0, 0)
    batched, grids = outcome["batched"]
    assert batched > 0 and grids > 0


# -- extend/revival memoization (the satellite fixes) ------------------


def test_same_pass_shadow_not_double_widened():
    """An entry demoted to the shadow list *during* an extension pass is
    already widened and stamped with the current epoch; the revival
    sweep at the end of the same pass must not widen it again (it used
    to, corrupting the vector with duplicate columns)."""
    dsl = tiny_dsl()
    fns = {f.name: f for f in dsl.functions()}
    pool, _ = make_pool(dsl, SIG, [Example((0,), 0)])
    x = Param("x", INT, "e")
    neg_x = Call(fns["Neg"], (x,), "e")
    assert pool.offer(x) is not None
    assert pool.offer(neg_x) is None  # Neg(x) == x on input 0: shadowed

    # Reproduce the extension pass's state just before _revive_shadows
    # for a same-pass demotion: examples appended, epoch bumped, intern
    # table swapped, survivor and shadow both widened and stamped.
    appended = [Example((3,), 0)]
    pool.examples.extend(appended)
    pool.example_epoch += 1
    pool._sig_intern = {}
    survivor = next(iter(pool.iter_entries("e")))
    survivor.values = (0, 3)
    survivor.epoch = pool.example_epoch
    pool._widen_sig(survivor, "e", (3,), appended)
    pool._seen_semantic["e"] = {survivor.sig}
    shadow = pool._shadows["e"][0]
    shadow.values = (0, -3)
    shadow.epoch = pool.example_epoch
    pool._widen_sig(shadow, "e", (-3,), appended)

    revived = pool._revive_shadows(appended, {})
    assert revived == 1
    entry = next(e for e in pool.iter_entries("e") if e.expr is neg_x)
    # The guard: still one column per example, not three.
    assert entry.values == (0, -3)


def test_preexisting_shadow_still_widened_on_extend():
    dsl = tiny_dsl()
    fns = {f.name: f for f in dsl.functions()}
    pool, _ = make_pool(dsl, SIG, [Example((0,), 0)])
    x = Param("x", INT, "e")
    neg_x = Call(fns["Neg"], (x,), "e")
    pool.offer(x)
    pool.offer(neg_x)
    report = pool.extend_examples([Example((3,), 0)])
    assert report["revived"] == 1
    entry = next(e for e in pool.iter_entries("e") if e.expr is neg_x)
    assert entry.values == (0, -3)
    assert entry.epoch == pool.example_epoch
    assert len(entry.values) == len(pool.examples)


def test_extension_stamps_epoch_and_interns_sigs():
    pool = run_generations(
        tiny_dsl(),
        SIG,
        [Example((1,), 0), Example((3,), 0)],
        "batched",
        extend=Example((5,), 0),
    )
    interned = pool._sig_intern
    for nt in pool._entries:
        for entry in pool.iter_entries(nt):
            if entry.values is not None:
                assert len(entry.values) == len(pool.examples)
                assert entry.epoch == pool.example_epoch
                if entry.sig is not None:
                    # Live interned ids all resolve through the current
                    # (post-swap) table.
                    assert entry.sig in interned.values()


# -- the new counters, end to end --------------------------------------


@pytest.mark.trace_smoke
def test_batched_counters_reach_trace_report(tmp_path):
    from repro.core.tds import TdsSession
    from repro.obs import JsonlTracer, report_from_file, tracing

    path = str(tmp_path / "batched.jsonl")
    tracer = JsonlTracer(path)
    session = TdsSession(
        SIG,
        tiny_dsl(),
        budget_factory=lambda: Budget(
            max_seconds=15.0, max_expressions=40_000
        ),
    )
    with tracing(tracer), enum_path("batched"):
        session.add_example(Example((3,), 7))
        session.add_example(Example((5,), 11))
    tracer.flush()
    assert session.satisfies_all()

    report = report_from_file(path)
    assert report.counters.get("enum.batched", 0) > 0
    assert report.counters.get("enum.lazy_materialized", 0) > 0
    assert report.counters.get("enum.sig_interned", 0) > 0
    # Batched productions report under their own phase, with per-
    # production rows intact.
    assert any(row.phase == "enum" for row in report.phases)
    assert any("<-" in row.production for row in report.productions)
