"""Deadline/cancellation layer: hard wall-clock truncation with a
structured SynthesisTimeout, warm resume after truncation, and the
truncated-then-resumed == unbudgeted differential across all four
domains."""

import gc
import time

import pytest

from repro.core.budget import (
    Budget,
    BudgetExhausted,
    Cancelled,
    CancelToken,
    Deadline,
    DeadlineExceeded,
)
from repro.core.dbs import DbsOptions, SynthesisTimeout, dbs
from repro.core.dsl import Example, Signature
from repro.core.tds import TdsOptions, TdsSession
from repro.core.types import INT
from repro.domains.registry import get_domain
from repro.lasy import resume_lasy, synthesize
from repro.suites import ALL_SUITES


# -- units: CancelToken / Deadline / Budget ---------------------------


class TestCancelToken:
    def test_cancel_sets_reason_and_flag(self):
        token = CancelToken()
        assert not token.cancelled
        token.cancel("shutdown requested")
        assert token.cancelled
        assert token.reason == "shutdown requested"

    def test_check_raises_cancelled(self):
        token = CancelToken()
        token.check()  # not cancelled: no-op
        token.cancel("stop")
        with pytest.raises(Cancelled):
            token.check()


class TestDeadline:
    def test_after_expires(self):
        deadline = Deadline.after(0.01)
        assert not deadline.expired()
        assert deadline.remaining() > 0
        time.sleep(0.02)
        assert deadline.expired()
        assert deadline.why_expired() == "deadline"
        with pytest.raises(DeadlineExceeded):
            deadline.check()

    def test_unbounded_with_token(self):
        token = CancelToken()
        deadline = Deadline.after(None, token=token)
        assert not deadline.expired()
        assert deadline.remaining() is None
        token.cancel("user abort")
        assert deadline.expired()
        assert "user abort" in deadline.why_expired()
        with pytest.raises(Cancelled):
            deadline.check()

    def test_earliest_merges(self):
        a = Deadline.after(100.0)
        b = Deadline.after(0.01)
        merged = Deadline.earliest(a, b)
        assert merged.remaining() <= 0.01 + 0.001
        assert Deadline.earliest(a, None) is a
        assert Deadline.earliest(None, b) is b

    def test_budget_add_deadline_trips_hard(self):
        budget = Budget(max_seconds=100.0, max_expressions=10**9)
        budget.add_deadline(Deadline.after(0.01))
        budget.check()  # within the wall
        time.sleep(0.02)
        with pytest.raises(DeadlineExceeded):
            budget.check()
        assert budget.exhausted_reason == "deadline"
        assert budget.hard_expired()

    def test_budget_soft_reason_recorded(self):
        budget = Budget(max_seconds=100.0, max_expressions=2)
        budget.expressions = 5
        with pytest.raises(BudgetExhausted):
            budget.check()
        assert budget.exhausted_reason == "expressions"
        assert not budget.hard_expired()

    def test_spawned_budget_sees_the_parents_cancel_token(self):
        # Loop bodies run on spawned budgets; cancelling the request's
        # token must stop them too.
        token = CancelToken()
        budget = Budget(max_seconds=100.0)
        budget.add_deadline(Deadline.after(None, token=token))
        child = budget.spawn(0.35)
        child.check_deadline()
        token.cancel("client gone")
        with pytest.raises(Cancelled):
            child.check_deadline()
        assert child.exhausted_reason == "client gone"


# -- the DbsOptions.timeout_s acceptance pin --------------------------


def _adversarial_search(timeout_s, budget=None, options=None):
    """Unsatisfiable examples over the full pexfun grammar: the search
    can only end when something truncates it."""
    dsl = get_domain("pexfun").dsl()
    sig = Signature("f", (("x", INT),), INT)
    examples = [Example((1,), 2), Example((1,), 3)]
    budget = budget or Budget(max_seconds=300.0, max_expressions=10**9)
    options = options or DbsOptions(timeout_s=timeout_s)
    return dbs([], examples, [], dsl, sig, budget=budget, options=options)


class TestDbsTimeout:
    def test_hard_deadline_truncates_within_2x_budget(self):
        # Settle the garbage earlier tests leave alive first: a
        # generation-2 collection over it takes about as long as the
        # 0.05 s search and, landing inside it, would be charged to the
        # deadline layer.
        gc.collect()
        start = time.monotonic()
        result = _adversarial_search(timeout_s=0.05)
        elapsed = time.monotonic() - start
        assert result.timed_out
        assert isinstance(result.timeout, SynthesisTimeout)
        assert result.timeout.reason == "deadline"
        assert result.timeout.budget_seconds == 0.05
        assert elapsed <= 0.10, f"deadline overshoot: {elapsed:.3f}s"

    def test_timeout_preserves_partial_pool(self):
        result = _adversarial_search(timeout_s=0.05)
        assert result.timeout.pool_entries > 0
        assert result.timeout.expressions > 0

    def test_timeout_counter_recorded(self):
        result = _adversarial_search(timeout_s=0.05)
        registry = result.stats.registry
        assert registry.value("dbs.timeout") == 1

    def test_soft_budget_reason_survives(self):
        budget = Budget(max_seconds=300.0, max_expressions=500)
        result = _adversarial_search(
            timeout_s=None, budget=budget, options=DbsOptions()
        )
        assert result.timed_out
        assert result.timeout.reason == "expressions"

    def test_pre_cancelled_token_truncates_immediately(self):
        token = CancelToken()
        token.cancel("external stop")
        budget = Budget(max_seconds=300.0, max_expressions=10**9)
        budget.add_deadline(Deadline.after(None, token=token))
        start = time.monotonic()
        result = _adversarial_search(
            timeout_s=None, budget=budget, options=DbsOptions()
        )
        assert time.monotonic() - start < 1.0
        assert result.timed_out
        assert "external stop" in result.timeout.reason


# -- TDS-level wall + warm resume -------------------------------------


class TestTdsTimeout:
    def _unsat_session(self, timeout_s):
        dsl = get_domain("pexfun").dsl()
        sig = Signature("f", (("x", INT),), INT)
        return TdsSession(
            sig,
            dsl,
            budget_factory=lambda: Budget(
                max_seconds=300.0, max_expressions=10**9
            ),
            options=TdsOptions(timeout_s=timeout_s),
        )

    def test_sequence_wall_truncates_steps(self):
        session = self._unsat_session(timeout_s=0.05)
        session.add_example(Example((1,), 2))
        step = session.add_example(Example((1,), 3))
        assert step.action == "timeout"
        assert step.timeout_reason == "deadline"
        result = session.finalize()
        assert not result.success

    def test_resume_after_truncation_solves(self):
        dsl = get_domain("pexfun").dsl()
        sig = Signature("f", (("x", INT),), INT)
        options = TdsOptions(timeout_s=0.002)
        session = TdsSession(
            sig,
            dsl,
            budget_factory=lambda: Budget(
                max_seconds=20.0, max_expressions=200_000
            ),
            options=options,
        )
        examples = [Example((1,), 4), Example((2,), 7), Example((5,), 16)]
        for example in examples:
            session.add_example(example)
        truncated = session.finalize()
        resumed = session.resume(timeout_s=0)
        # resume re-arms this session only: the caller's options (shared
        # by every session of a run) keep their wall.
        assert options.timeout_s == 0.002
        assert resumed.success
        fn = session.current_function()
        for example in examples:
            assert fn(*example.args) == example.output
        # The truncated attempt must not have been a success already —
        # otherwise this test stopped exercising resume.
        assert not truncated.success or resumed.success

    def test_redone_generation_adding_nothing_is_not_exhaustion(self):
        """A truncation landing *after* the last admittable combination
        of a generation makes the warm redo add zero entries; the next
        run must press on to the following generation instead of
        reporting search_exhausted (the resume-flakiness bug)."""
        from repro.core.dbs import DbsStats
        from repro.core.engine import Enumerator, PoolStore
        from repro.core.types import STRING

        dsl = get_domain("strings").dsl()
        sig = Signature("f", (("v", STRING),), STRING)
        examples = [Example(("ab cd",), "ab")]
        stats = DbsStats()
        pool = PoolStore(
            dsl,
            sig,
            examples,
            budget=Budget(max_seconds=30.0, max_expressions=100_000),
            metrics=stats.registry,
        )
        enumerator = Enumerator(pool)
        enumerator.seed([])
        first = enumerator.advance()
        assert first  # generation 1 ran to completion
        # Simulate a deadline that struck after every combination of
        # generation 1 had been offered but before the generator could
        # mark the generation complete.
        pool.incomplete_generation = True
        pool.bind(stats.registry, Budget(max_seconds=30.0))
        assert pool.pending_redo
        redo = enumerator.advance()
        assert redo == []  # every re-offered combo dedups away
        assert pool.last_generation_redone
        # The zero-add redo is inconclusive: the next generation must
        # still produce fresh expressions (and clear the redo marker).
        fresh = enumerator.advance()
        assert fresh
        assert not pool.last_generation_redone


# -- differential: truncated+resumed == unbudgeted, all four domains --

STRINGS_SRC = """
language strings;
function string F(string s);
require F("http://www.bing.com/search") == "bing.com";
require F("https://mail.google.com/mail") == "mail.google.com";
"""

PEXFUN_SRC = """
language pexfun;
function int Max2(int x, int y);
require Max2(1, 2) == 2;
require Max2(7, 3) == 7;
require Max2(4, 4) == 4;
"""


def _suite_source(suite_name, bench_name):
    bench = next(
        b for b in ALL_SUITES[suite_name] if b.name == bench_name
    )
    return bench.source


def _fast_budget():
    return Budget(max_seconds=20.0, max_expressions=250_000)


@pytest.mark.parametrize(
    "source_fn",
    [
        lambda: STRINGS_SRC,
        lambda: _suite_source("tables", "transpose"),
        lambda: _suite_source("xml", "add-classes"),
        lambda: PEXFUN_SRC,
    ],
    ids=["strings", "tables", "xml", "pexfun"],
)
def test_truncated_then_resumed_matches_unbudgeted(source_fn):
    source = source_fn()
    baseline = synthesize(source, budget_factory=_fast_budget)
    truncated = synthesize(
        source,
        budget_factory=_fast_budget,
        options=TdsOptions(timeout_s=0.02),
    )
    resumed = resume_lasy(truncated, timeout_s=0)
    assert resumed.success == baseline.success
    for name, fn in baseline.functions.items():
        assert name in resumed.functions
