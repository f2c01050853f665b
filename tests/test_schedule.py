"""Differential and unit tests for example scheduling (engine.schedule).

The correctness bar is strict: with no timeout signal, an ``adaptive``
run must synthesize *byte-identical* final programs to ``fifo`` —
across all four paper domains, on both enumeration paths (batched and
the per-candidate reference, see ``test_enum_batched.enum_path``), cold
(pool rebuilt per DBS call) and warm (persistent engine).

Also covered here: the session-identity rules for ``TdsOptions.schedule``
(None ≡ "fifo" ≡ the ``REPRO_TDS_SCHEDULE`` env value), SessionCache
prefix-key compatibility when a scheduler is active, and the
cost-aware SessionCache eviction order (cheapest-to-rebuild first,
LRU among ties).
"""

import pytest

from repro.core.budget import Budget
from repro.core.dsl import DslBuilder, Example, Signature
from repro.core.engine.cache import SessionCache
from repro.core.engine.keys import options_fingerprint
from repro.core.engine.schedule import (
    C_DEFERRED,
    C_RETRIED,
    SCHEDULERS,
    AdaptiveScheduler,
    FifoScheduler,
    resolve_schedule,
)
from repro.core.tds import TdsOptions, TdsSession
from repro.core.types import BOOL, INT
from tests.test_enum_batched import enum_path

DOMAIN_CASES = [
    ("strings", "extract-domain"),
    ("tables", "transpose"),
    ("xml", "add-classes"),
]
MODES = ["batched", "classic"]


def _options(schedule, warm=True):
    return TdsOptions(schedule=schedule, reuse_pool=warm)


def _budget():
    return Budget(max_seconds=20, max_expressions=250_000)


def _programs(result):
    """The per-function final programs of a LaSy run, stringified."""
    return {
        name: str(fn_result.program)
        for name, fn_result in result.results.items()
    }


# -- registry and name resolution --------------------------------------


def test_registry_ships_two_schedulers():
    assert sorted(SCHEDULERS) == ["adaptive", "fifo"]
    assert isinstance(SCHEDULERS["fifo"](), FifoScheduler)
    assert isinstance(SCHEDULERS["adaptive"](), AdaptiveScheduler)
    with pytest.raises(KeyError):
        SCHEDULERS["nope"]


def test_resolve_schedule_env_fallback(monkeypatch):
    monkeypatch.delenv("REPRO_TDS_SCHEDULE", raising=False)
    assert resolve_schedule(None) == "fifo"
    assert resolve_schedule("adaptive") == "adaptive"
    monkeypatch.setenv("REPRO_TDS_SCHEDULE", "adaptive")
    assert resolve_schedule(None) == "adaptive"
    # An explicit option always beats the environment.
    assert resolve_schedule("fifo") == "fifo"
    # An unregistered environment value falls back to fifo instead of
    # failing the first feed() with a KeyError.
    for bogus in ("bogus", "representative"):
        monkeypatch.setenv("REPRO_TDS_SCHEDULE", bogus)
        assert resolve_schedule(None) == "fifo"
        session = _max_session(None)
        assert session.feed(Example((4, 1), 4)).action == "synthesized"


def test_schedule_in_session_identity(monkeypatch):
    monkeypatch.delenv("REPRO_TDS_SCHEDULE", raising=False)
    default = options_fingerprint(TdsOptions())
    fifo = options_fingerprint(TdsOptions(schedule="fifo"))
    adaptive = options_fingerprint(TdsOptions(schedule="adaptive"))
    assert default == fifo
    assert adaptive != fifo
    # None resolves through the env switch, so a cached session's key
    # matches whether the scheduler came via option or environment.
    monkeypatch.setenv("REPRO_TDS_SCHEDULE", "adaptive")
    assert options_fingerprint(TdsOptions()) == adaptive


# -- byte-identical differential: adaptive vs fifo ---------------------


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("warm", [True, False], ids=["warm", "cold"])
@pytest.mark.parametrize("suite_name, bench_name", DOMAIN_CASES)
def test_adaptive_matches_fifo(suite_name, bench_name, mode, warm):
    from repro.suites import ALL_SUITES

    benchmark = next(
        b for b in ALL_SUITES[suite_name] if b.name == bench_name
    )
    with enum_path(mode):
        fifo = benchmark.run(
            budget_factory=_budget, options=_options("fifo", warm)
        )
        adaptive = benchmark.run(
            budget_factory=_budget, options=_options("adaptive", warm)
        )
    assert fifo.success and adaptive.success
    assert _programs(fifo) == _programs(adaptive)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("warm", [True, False], ids=["warm", "cold"])
def test_adaptive_matches_fifo_pexfun(mode, warm):
    from repro.pex import PUZZLES, play

    puzzle = next(p for p in PUZZLES if p.name == "max-of-two")
    budget = lambda: Budget(max_seconds=8, max_expressions=80_000)
    with enum_path(mode):
        fifo = play(
            puzzle, budget_factory=budget, options=_options("fifo", warm)
        )
        adaptive = play(
            puzzle,
            budget_factory=budget,
            options=_options("adaptive", warm),
        )
    assert fifo.solved and adaptive.solved
    assert str(fifo.program) == str(adaptive.program)


# -- scheduler-session fixtures ----------------------------------------


def _max_dsl():
    b = DslBuilder("schedmax", start="P")
    b.nt("P", INT).nt("e", INT).nt("b", BOOL)
    b.conditional("P", guard_nt="b", branch_nt="e")
    b.fn("e", "Add", ["e", "e"], lambda a, c: a + c)
    b.fn("b", "Lt", ["e", "e"], lambda a, c: a < c)
    b.param("e")
    b.constant("e")
    b.constants_from(lambda examples: {"e": [0, 1]})
    return b.build()


MAX_SIG = Signature("f", (("x", INT), ("y", INT)), INT)


def _max_session(schedule, timeout_s=None):
    return TdsSession(
        MAX_SIG,
        _max_dsl(),
        budget_factory=lambda: Budget(max_seconds=10, max_expressions=60_000),
        options=TdsOptions(schedule=schedule, timeout_s=timeout_s),
    )


# -- adaptive: deferral, retry, ordering, deadlines --------------------


class _FakeTimeout:
    reason = "deadline"


class _FakeStats:
    elapsed = 0.25
    expressions = 0
    programs_tested = 0


class _FakeDbsResult:
    program = None
    stats = _FakeStats()
    timeout = _FakeTimeout()


def test_adaptive_defers_timed_out_example_and_retries():
    session = _max_session("adaptive")
    examples = [
        Example((1, 1), 1),
        Example((5, 2), 5),
        Example((2, 7), 7),
    ]
    for example in examples:
        assert session.feed(example).action == "queued"
    # Make the *first* admission time out; the scheduler must push its
    # retry behind the rest of the queue instead of burning the wall on
    # it immediately.
    real_dbs = session._dbs_step
    calls = {"n": 0}

    def flaky_dbs(prefix, iteration_cap_s=None):
        calls["n"] += 1
        if calls["n"] == 1:
            return _FakeDbsResult()
        return real_dbs(prefix, iteration_cap_s=iteration_cap_s)

    session._dbs_step = flaky_dbs
    before = (C_DEFERRED.value, C_RETRIED.value)
    result = session.finalize()
    assert result.success
    assert C_DEFERRED.value - before[0] == 1
    assert C_RETRIED.value - before[1] == 1
    assert session._deferred == []
    # The injected timeout marked its example hard; a later queue must
    # order that fingerprint last.
    fp = session._example_fingerprint(0)
    assert fp in session._hard_fingerprints
    timeouts = [s for s in session.steps if s.action == "timeout"]
    assert timeouts and timeouts[0].example_index == 0


def test_adaptive_order_is_arrival_without_signal():
    session = _max_session("adaptive")
    for example in [Example((1, 1), 1), Example((5, 2), 5)]:
        session.feed(example)
    scheduler = session._scheduler()
    assert scheduler.order(session, list(session._pending)) == [0, 1]


def test_adaptive_order_puts_hard_and_expensive_last():
    session = _max_session("adaptive")
    for example in [
        Example((1, 1), 1),
        Example((5, 2), 5),
        Example((2, 7), 7),
    ]:
        session.feed(example)
    scheduler = session._scheduler()
    session._example_costs[session._example_fingerprint(0)] = 3.0
    assert scheduler.order(session, [0, 1, 2]) == [1, 2, 0]
    session._hard_fingerprints.add(session._example_fingerprint(1))
    assert scheduler.order(session, [0, 1, 2]) == [2, 0, 1]


def test_adaptive_iteration_deadline_needs_session_wall():
    unwalled = _max_session("adaptive")
    scheduler = AdaptiveScheduler()
    # No timeout_s: capping would change plain budgeted runs.
    assert scheduler.iteration_deadline(unwalled, 0, 2) is None

    walled = _max_session("adaptive", timeout_s=10.0)
    cap = scheduler.iteration_deadline(walled, 0, 2)
    assert cap is not None
    assert scheduler.min_slice_s <= cap <= 10.0
    # The share escalates with consecutive failures...
    walled.failures_in_a_row = 1
    assert scheduler.iteration_deadline(walled, 0, 2) > cap * 1.5
    # ...and the last pending admission gets everything.
    assert scheduler.iteration_deadline(walled, 0, 0) is None


# -- SessionCache: prefix keys under scheduling, cost-aware eviction ---


SOURCE = """
language pexfun;
function int Pick(int x, int y);
require Pick(1, 1) == 1;
require Pick(5, 2) == 5;
require Pick(2, 7) == 7;
"""

EXTENDED = SOURCE + "require Pick(0, 3) == 3;\n"


def test_session_cache_prefix_hit_under_adaptive():
    from repro.lasy.parser import parse_lasy
    from repro.lasy.runner import run_lasy

    budget = lambda: Budget(max_seconds=10, max_expressions=80_000)
    options = TdsOptions(schedule="adaptive")
    with SessionCache(capacity=4) as cache:
        cold = run_lasy(
            parse_lasy(SOURCE),
            budget_factory=budget,
            options=options,
            session_cache=cache,
        )
        assert cold.success
        assert cold.cache_info["Pick"] == {
            "hit": False,
            "reused_examples": 0,
        }
        warm = run_lasy(
            parse_lasy(EXTENDED),
            budget_factory=budget,
            options=options,
            session_cache=cache,
        )
        assert warm.success
        assert warm.cache_info["Pick"]["hit"]
        # Adaptive admitted in arrival order (no timeout signal), so
        # the released prefix key matches the extended request exactly.
        assert warm.cache_info["Pick"]["reused_examples"] == 3


def test_session_cache_keys_schedulers_apart():
    from repro.lasy.parser import parse_lasy
    from repro.lasy.runner import run_lasy

    budget = lambda: Budget(max_seconds=10, max_expressions=80_000)
    with SessionCache(capacity=4) as cache:
        run_lasy(
            parse_lasy(SOURCE),
            budget_factory=budget,
            options=TdsOptions(schedule="fifo"),
            session_cache=cache,
        )
        other = run_lasy(
            parse_lasy(SOURCE),
            budget_factory=budget,
            options=TdsOptions(schedule="adaptive"),
            session_cache=cache,
        )
        # A different scheduler is a different constraint-set policy:
        # it must never check out another scheduler's session.
        assert not other.cache_info["Pick"]["hit"]


class _StubKey:
    def __init__(self, tag):
        self.tag = tag
        self.examples = ()

    def base(self):
        return "stub-base"

    def __hash__(self):
        return hash(self.tag)

    def __eq__(self, other):
        return isinstance(other, _StubKey) and self.tag == other.tag

    def __repr__(self):
        return f"_StubKey({self.tag!r})"


class _StubSession:
    def __init__(self, tag, cost):
        self._key = _StubKey(tag)
        self.rebuild_cost_s = cost
        self.suspended = False

    def suspend(self):
        self.suspended = True

    def session_key(self):
        return self._key


def test_cache_evicts_cheapest_to_rebuild():
    cache = SessionCache(capacity=2)
    cache.release(_StubSession("a", 5.0))
    cache.release(_StubSession("b", 0.1))
    cache.release(_StubSession("c", 3.0))
    assert [k.tag for k in cache.keys()] == ["a", "c"]
    assert cache.stats()["evicted"] == 1


def test_cache_eviction_falls_back_to_lru_on_ties():
    cache = SessionCache(capacity=2)
    for tag in ("a", "b", "c"):
        cache.release(_StubSession(tag, 0.0))
    # No cost signal: plain LRU, oldest out first.
    assert [k.tag for k in cache.keys()] == ["b", "c"]


def test_cache_cheap_newcomer_cannot_displace_expensive_entries():
    cache = SessionCache(capacity=2)
    cache.release(_StubSession("a", 5.0))
    cache.release(_StubSession("b", 3.0))
    cache.release(_StubSession("c", 0.01))
    assert [k.tag for k in cache.keys()] == ["a", "b"]


def test_cache_acquire_clears_cost_bookkeeping():
    cache = SessionCache(capacity=2)
    cache.release(_StubSession("a", 5.0))
    session, matched = cache.acquire(_StubKey("x"), [])
    assert session is not None and matched == 0
    assert len(cache) == 0
    assert cache._costs == {}
    cache.release(session)
    cache.clear()
    assert cache._costs == {}
