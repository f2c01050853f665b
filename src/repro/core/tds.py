"""Test-driven synthesis — Algorithm 1.

TDS consumes the examples *in order*, maintaining a program ``P_i`` that
satisfies the first ``i`` examples. For each new example it hands DBS:

* the contexts of ``P_i`` (one hole per removable subexpression, plus
  per-branch contexts, plus the trivial context ``•``) — unless the
  failing example provably never reaches a branch, in which case that
  branch's body contexts are pruned;
* the subexpressions of ``P_i`` as extra components (so "the effort to
  build it in previous iterations will not be wasted" — and, crucially,
  components of *earlier* programs that no longer appear are forgotten);
* a branch budget ``num_branch(P_i) + failuresInARow`` — new conditionals
  are allowed only after failures, to avoid overfitting a branch per
  example.

On DBS timeout the previous program is kept and the failure counter
rises; the next iteration retries with one more example and a bigger
branch budget. Synthesis fails overall if the final program does not
satisfy every example.

:class:`TdsSession` exposes the loop one example at a time — "in an
interactive setting the user could look at P_{i+1} or its output when
choosing S_{i+1}" (§4.1). The LaSy runner interleaves sessions for
multiple functions and the Pex4Fun game feeds counterexamples as they
are discovered; :func:`tds` is the batch wrapper.
"""

from __future__ import annotations

import pickle
import time
from dataclasses import dataclass, field, replace
from typing import Callable, List, Mapping, MutableMapping, Optional, Sequence

from ..obs.trace import get_tracer
from .budget import Budget, CancelToken, Deadline, default_budget
from .contexts import contexts_of, prune_contexts, subexpressions_of, trivial_context
from .dbs import DbsOptions, DbsResult, dbs
from .dsl import Dsl, Example, Signature
from .engine.testing import EVALUATION_FUEL, MAX_RECURSION_DEPTH
from .evaluator import EvaluationError, run_program
from .expr import Expr, count_branches
from .program import SynthesizedFunction
from .values import ERROR, structurally_equal


@dataclass
class TdsOptions:
    """TDS feature switches; §6.3 ablates contexts and subexpressions."""

    use_contexts: bool = True
    use_subexpressions: bool = True
    # Angelic context pruning (§7 related work; see repro.core.angelic).
    angelic_pruning: bool = False
    # Carry one component pool across the whole example sequence: each
    # iteration's DBS extends the previous pool by the newly appended
    # example (widening cached value vectors, re-running semantic dedup)
    # instead of rebuilding it from scratch. Off = pre-engine behavior.
    reuse_pool: bool = True
    # Hard wall-clock deadline (seconds) over the *whole* example
    # sequence. Armed when the first example arrives; once it expires,
    # every remaining DBS call truncates immediately with a
    # SynthesisTimeout and finalize() skips its retries. Composes with
    # DbsOptions.timeout_s (per DBS call); the tighter wall wins.
    timeout_s: Optional[float] = None
    # Example scheduler (engine.schedule): which queued example a batch
    # run admits next and under what per-iteration deadline. None
    # defers to REPRO_TDS_SCHEDULE, default "fifo" (caller order,
    # byte-identical to the historical behavior). Part of the session's
    # identity: a cached session is only reused by requests running the
    # same schedule.
    schedule: Optional[str] = None
    dbs: DbsOptions = field(default_factory=DbsOptions)


@dataclass
class TdsStep:
    """One iteration's record; Fig. 10 aggregates the DBS timings.

    ``action`` is ``'satisfied' | 'synthesized' | 'timeout'`` for the
    Algorithm-1 outcomes, plus the scheduling outcome ``'queued'`` (a
    non-FIFO scheduler buffered the example for later admission)."""

    example_index: int
    action: str
    dbs_time: float = 0.0
    expressions: int = 0
    programs_tested: int = 0
    branch_budget: int = 1
    # Why the DBS call truncated, when it did (SynthesisTimeout.reason).
    timeout_reason: Optional[str] = None


@dataclass
class TdsResult:
    program: Optional[Expr]
    success: bool
    steps: List[TdsStep]
    elapsed: float
    signature: Signature

    def function(
        self, lasy_fns: Optional[Mapping] = None
    ) -> SynthesizedFunction:
        if self.program is None:
            raise ValueError("synthesis failed; no program to wrap")
        return SynthesizedFunction(
            self.signature, self.program, lasy_fns or {}
        )

    @property
    def dbs_times(self) -> List[float]:
        return [
            s.dbs_time
            for s in self.steps
            if s.action not in ("satisfied", "queued")
        ]


BudgetFactory = Callable[[], Budget]


class TdsSession:
    """Algorithm 1, driven one example at a time."""

    def __init__(
        self,
        signature: Signature,
        dsl: Dsl,
        budget_factory: Optional[BudgetFactory] = None,
        lasy_fns: Optional[MutableMapping] = None,
        lasy_signatures: Optional[Mapping[str, Signature]] = None,
        options: Optional[TdsOptions] = None,
        cancel: Optional[CancelToken] = None,
    ):
        self.signature = signature
        self.dsl = dsl
        self.budget_factory = budget_factory or default_budget
        # Deliberately *not* copied: the LaSy runner mutates this mapping
        # as other functions are (re)synthesized.
        self.lasy_fns = lasy_fns if lasy_fns is not None else {}
        self.lasy_signatures = dict(lasy_signatures or {})
        self.options = options or TdsOptions()
        # Cooperative cancellation: a driver cancels this token and the
        # session's current (and any future) DBS call truncates with a
        # SynthesisTimeout at its next cooperative check.
        self.cancel = cancel

        self.program: Optional[Expr] = None  # P_0 = ⊥
        self.failures_in_a_row = 0
        self.examples: List[Example] = []
        self.steps: List[TdsStep] = []
        # Example scheduling (engine.schedule). ``examples`` keeps every
        # fed example in *arrival* order — that is the session's public
        # identity (session_key, satisfies_all). The index lists below
        # track what the scheduler did with them: ``_admitted`` is the
        # DBS constraint set in admission order (== arrival order under
        # fifo), ``_pending`` the queued-not-yet-admitted indices. The
        # fingerprint-keyed observations (``_example_costs``,
        # ``_hard_fingerprints``) survive suspension so a cached
        # session's adaptive ordering remembers which example hurt.
        self._pending: List[int] = []
        self._admitted: List[int] = []
        self._deferred: List[int] = []
        self._hard_fingerprints: set = set()
        self._example_costs: dict = {}
        self._fps: dict = {}
        self._sched = None
        # Lifetime DBS seconds — the cache's rebuild-cost estimate (a
        # session that took 5s of search to build is worth keeping over
        # one that rebuilds in 50ms).
        self.total_dbs_seconds: float = 0.0
        self._started = time.monotonic()
        # The session-wide hard deadline (TdsOptions.timeout_s); armed
        # lazily by the first DBS call so transported sessions re-arm on
        # their own monotonic clock.
        self._deadline: Optional[Deadline] = None
        self._deadline_armed = False
        # The persistent synthesis engine (pool + enumerator) shared by
        # every DBS call of this session; built lazily on first use.
        self._engine: Optional["SynthesisSession"] = None

    # -- the TDS loop body -------------------------------------------------

    def add_example(self, example: Example) -> TdsStep:
        """Consume the next example (one iteration of Algorithm 1).

        Always admits immediately — "in an interactive setting the user
        could look at P_{i+1} ... when choosing S_{i+1}" needs the
        iteration to happen now. Batch drivers should prefer
        :meth:`feed`, which lets a non-FIFO scheduler queue the example
        and pick the admission order itself."""
        index = len(self.examples)
        self.examples.append(example)
        return self._admit(index)

    def feed(self, example: Example) -> TdsStep:
        """Hand the session the next example, letting the configured
        scheduler decide *when* to admit it. Under ``fifo`` this is
        exactly :meth:`add_example`; queueing schedulers return a
        ``'queued'`` step and run the iteration during :meth:`drain` /
        :meth:`finalize`."""
        if self._scheduler().immediate:
            return self.add_example(example)
        index = len(self.examples)
        self.examples.append(example)
        self._pending.append(index)
        return TdsStep(index, "queued")

    def drain(self) -> List[TdsStep]:
        """Admit every queued example in scheduler order."""
        scheduler = self._scheduler()
        steps: List[TdsStep] = []
        tracer = get_tracer()
        while self._pending:
            # The scheduling decision itself runs under its own span so
            # the trace report can attribute its cost to the
            # ``schedule`` phase.
            with tracer.span(
                "tds.schedule",
                scheduler=scheduler.name,
                pending=len(self._pending),
                function=self.signature.name,
            ) as span:
                index = scheduler.order(self, self._pending)[0]
                self._pending.remove(index)
                span.set(index=index)
            steps.append(self._admit(index))
        return steps

    def _admit(self, index: int) -> TdsStep:
        """One iteration of Algorithm 1 over the admitted prefix."""
        example = self.examples[index]
        scheduler = self._scheduler()
        self._admitted.append(index)
        with get_tracer().span(
            "tds.example", index=index, function=self.signature.name
        ) as span:
            if self.program is not None and self._satisfies(
                self.program, example
            ):
                step = TdsStep(index, "satisfied")
                self.failures_in_a_row = 0
                self.steps.append(step)
                span.set(action="satisfied")
                scheduler.observe(self, index, step)
                return step
            if self._truncated():
                # The whole-sequence wall already passed: don't touch
                # the engine, record the truncation and move on.
                reason = self._deadline.why_expired() or "deadline"
                self.failures_in_a_row += 1
                step = TdsStep(index, "timeout", timeout_reason=reason)
                self.steps.append(step)
                span.set(action="timeout", timeout_reason=reason)
                scheduler.observe(self, index, step)
                return step
            cap_s = scheduler.iteration_deadline(
                self, index, len(self._pending)
            )
            result = self._dbs_step(
                self._admitted_examples(), iteration_cap_s=cap_s
            )
            branch_budget = (
                count_branches(self.program) + self.failures_in_a_row
            )
            if result.program is not None:
                self.program = result.program
                self.failures_in_a_row = 0
                action = "synthesized"
            else:
                self.failures_in_a_row += 1
                action = "timeout"
            step = TdsStep(
                index,
                action,
                dbs_time=result.stats.elapsed,
                expressions=result.stats.expressions,
                programs_tested=result.stats.programs_tested,
                branch_budget=branch_budget,
                timeout_reason=(
                    result.timeout.reason if result.timeout else None
                ),
            )
            self.steps.append(step)
            self.total_dbs_seconds += step.dbs_time
            span.set(
                action=action,
                dbs_seconds=round(step.dbs_time, 6),
                expressions=step.expressions,
                branch_budget=branch_budget,
            )
            if step.timeout_reason is not None:
                span.set(timeout_reason=step.timeout_reason)
            scheduler.observe(self, index, step)
            return step

    def finalize(self) -> TdsResult:
        """Trailing-failure recovery and the final all-examples check.

        The main loop retries a failed example implicitly when later
        examples arrive; the last examples get the same second chance
        here (one extra DBS call with the grown branch budget). Queued
        examples are drained first, and the scheduler's own wrap-up
        (deferred-timeout retries) runs before the generic retry."""
        if self._pending:
            self.drain()
        self._scheduler().wrapup(self)
        if (
            self.failures_in_a_row > 0
            and not self._truncated()
            and not self.satisfies_all()
        ):
            self._retry_step(len(self.examples) - 1)
        return TdsResult(
            program=self.program,
            success=self.satisfies_all(),
            steps=self.steps,
            elapsed=time.monotonic() - self._started,
            signature=self.signature,
        )

    def _retry_step(self, index: int) -> TdsStep:
        """One uncapped retry DBS over the full admitted prefix."""
        with get_tracer().span(
            "tds.retry", index=index, function=self.signature.name
        ) as span:
            result = self._dbs_step(self._admitted_examples())
            if result.program is not None:
                self.program = result.program
                self.failures_in_a_row = 0
                action = "synthesized"
            else:
                self.failures_in_a_row += 1
                action = "timeout"
            span.set(
                action=action,
                dbs_seconds=round(result.stats.elapsed, 6),
            )
            step = TdsStep(
                index,
                action,
                dbs_time=result.stats.elapsed,
                expressions=result.stats.expressions,
                programs_tested=result.stats.programs_tested,
                timeout_reason=(
                    result.timeout.reason if result.timeout else None
                ),
            )
            self.steps.append(step)
            self.total_dbs_seconds += step.dbs_time
            return step

    # -- helpers -------------------------------------------------------------

    def _scheduler(self):
        """The configured ExampleScheduler, re-resolved when the name
        changes (a cache checkout can swap ``options``)."""
        from .engine.schedule import SCHEDULERS, resolve_schedule

        name = resolve_schedule(self.options.schedule)
        if self._sched is None or self._sched.name != name:
            self._sched = SCHEDULERS[name]()
        return self._sched

    def _admitted_examples(self) -> List[Example]:
        """The DBS constraint set, in admission order — the example
        list every engine run sees, so the warm pool's columns follow
        admission order and prefix extension stays exact even when the
        scheduler deviated from arrival order."""
        return [self.examples[i] for i in self._admitted]

    def _example_fingerprint(self, index: int) -> str:
        """Content fingerprint of one arrival (memoized) — the key the
        adaptive scheduler's cost/hardness observations live under, so
        they survive suspension and match across requests."""
        fp = self._fps.get(index)
        if fp is None:
            from .engine.keys import example_fingerprints

            fp = example_fingerprints([self.examples[index]])[0]
            self._fps[index] = fp
        return fp

    @property
    def rebuild_cost_s(self) -> float:
        """Estimated cost (seconds) of rebuilding this session's warm
        state from cold — the lifetime sum of its DBS step times. The
        SessionCache evicts the cheapest-to-rebuild session first."""
        return self.total_dbs_seconds

    def satisfies_all(self) -> bool:
        if self.program is None:
            return not self.examples
        return all(self._satisfies(self.program, e) for e in self.examples)

    def current_function(self) -> Optional[SynthesizedFunction]:
        if self.program is None:
            return None
        return SynthesizedFunction(
            self.signature, self.program, self.lasy_fns
        )

    def _satisfies(self, program: Expr, example: Example) -> bool:
        try:
            value = run_program(
                program,
                self.signature.param_names,
                example.args,
                lasy_fns=self.lasy_fns,
                fuel=EVALUATION_FUEL,
                max_depth=MAX_RECURSION_DEPTH,
            )
        except EvaluationError:
            return False
        return value is not ERROR and structurally_equal(value, example.output)

    def _dbs_step(
        self,
        prefix: Sequence[Example],
        iteration_cap_s: Optional[float] = None,
    ) -> DbsResult:
        program = self.program
        options = self.options
        if program is None or not options.use_contexts:
            contexts = [trivial_context(self.dsl)]
        else:
            contexts = contexts_of(program, self.dsl)
            failing = [
                e for e in prefix if not self._satisfies(program, e)
            ]
            contexts = prune_contexts(
                contexts, program, self.signature, failing
            )
            if options.angelic_pruning:
                from .angelic import angelic_prune

                contexts = angelic_prune(
                    contexts,
                    self.signature,
                    failing,
                    prefix,
                    lasy_fns=self.lasy_fns,
                )
        if program is None or not options.use_subexpressions:
            seeds: List[Expr] = []
        else:
            seeds = subexpressions_of(program)
        max_branches = count_branches(program) + self.failures_in_a_row
        budget = self.budget_factory()
        budget.add_deadline(self._session_deadline())
        if iteration_cap_s is not None:
            # The scheduler's per-iteration wall: composes with the
            # session deadline and the per-DBS budget, tighter wins.
            budget.add_deadline(Deadline.after(iteration_cap_s))
        return dbs(
            contexts=contexts,
            examples=prefix,
            seeds=seeds,
            dsl=self.dsl,
            signature=self.signature,
            max_branches=max_branches,
            budget=budget,
            lasy_fns=self.lasy_fns,
            lasy_signatures=self.lasy_signatures,
            options=options.dbs,
            previous_program=program,
            session=self._engine_session(),
        )

    def _session_deadline(self) -> Optional[Deadline]:
        """The whole-sequence hard wall (TdsOptions.timeout_s) plus the
        session's cancel token, armed by the first DBS call."""
        if not self._deadline_armed:
            self._deadline_armed = True
            seconds = self.options.timeout_s or None
            if seconds is not None or self.cancel is not None:
                self._deadline = Deadline.after(seconds, token=self.cancel)
        return self._deadline

    def _truncated(self) -> bool:
        """True once the session-wide deadline expired (or the session
        was cancelled) — further DBS calls would truncate immediately."""
        deadline = self._session_deadline()
        return deadline is not None and deadline.expired()

    def resume(
        self,
        budget_factory: Optional[BudgetFactory] = None,
        timeout_s: Optional[float] = None,
    ) -> TdsResult:
        """Continue a deadline-truncated session under a new budget.

        The partial component pool built before truncation is still in
        the session's engine, so the re-run DBS calls start warm (see
        docs/robustness.md). ``budget_factory`` replaces the per-DBS
        budget; ``timeout_s`` re-arms the whole-sequence wall (pass
        ``0`` to lift it). Returns the usual :meth:`finalize` result.
        """
        if budget_factory is not None:
            self.budget_factory = budget_factory
        if timeout_s is not None:
            self._set_timeout(timeout_s)
            self._deadline = None
            self._deadline_armed = False
        if not self.satisfies_all():
            self.failures_in_a_row = max(1, self.failures_in_a_row)
        return self.finalize()

    def _engine_session(self) -> Optional["SynthesisSession"]:
        """The session's persistent engine (None when pool reuse is off).

        All iterations share it, so iteration ``i+1``'s DBS starts from
        iteration ``i``'s expression pool, extended by the new example."""
        if not self.options.reuse_pool:
            return None
        if self._engine is None:
            from .engine.session import SynthesisSession

            self._engine = SynthesisSession(
                self.dsl,
                self.signature,
                lasy_fns=self.lasy_fns,
                lasy_signatures=self.lasy_signatures,
            )
        return self._engine

    # -- cache / transport lifecycle --------------------------------------

    def session_key(self) -> "SessionKey":
        """This session's explicit identity (see ``engine.keys``): what
        a :class:`~.engine.cache.SessionCache` stores it under. Includes
        the fingerprint of every example consumed so far — the cache
        serves a later request warm exactly when that request's examples
        extend this prefix."""
        from .engine.keys import session_key_for

        return session_key_for(
            getattr(self.dsl, "name", type(self.dsl).__name__),
            self.signature,
            lasy_fns=self.lasy_fns,
            lasy_names=self.lasy_signatures,
            options=self.options,
            examples=self.examples,
        )

    def rebind_lasy(
        self,
        lasy_fns: MutableMapping,
        lasy_signatures: Optional[Mapping[str, Signature]] = None,
    ) -> None:
        """Attach the session (and its warm engine) to a new run's shared
        LaSy mapping. Each ``run_lasy`` builds a fresh ``lasy_fns`` dict,
        so a cached session must re-point every layer at it; the pool's
        identity snapshot of the old mapping is cleared so the next
        warm run re-checks cached vectors against the new definitions
        (content-equal functions leave the vectors valid, changed ones
        get refreshed by ``refresh_lasy``)."""
        self.lasy_fns = lasy_fns if lasy_fns is not None else {}
        if lasy_signatures is not None:
            self.lasy_signatures = dict(lasy_signatures)
        engine = self._engine
        if engine is not None:
            engine.lasy_fns = self.lasy_fns
            if lasy_signatures is not None:
                engine.lasy_signatures = dict(lasy_signatures)
            if engine.pool is not None:
                engine.pool.lasy_fns = self.lasy_fns
                if lasy_signatures is not None:
                    engine.pool.lasy_signatures = dict(lasy_signatures)
                engine.pool._lasy_versions = {}

    def suspend(self) -> None:
        """Detach per-request references so the session can sit in a
        cache between requests: the cancel token and deadline belong to
        the finished request, and the engine drops its run bindings
        (tracer, stats registry, budget) while keeping the warm pool."""
        self.cancel = None
        self._deadline = None
        self._deadline_armed = False
        self._sched = None
        if self._engine is not None:
            self._engine.suspend()

    def reset_clock(
        self,
        cancel: Optional[CancelToken] = None,
        timeout_s: Optional[float] = None,
    ) -> None:
        """Start a new request on a warm session: re-arm the
        whole-sequence wall (``None`` keeps the configured one, ``0``
        lifts it) and swap the cancel token. The elapsed clock restarts
        so ``finalize().elapsed`` measures this request, not the cached
        session's lifetime."""
        if timeout_s is not None:
            self._set_timeout(timeout_s)
        self.cancel = cancel
        self._deadline = None
        self._deadline_armed = False
        self._started = time.monotonic()

    def _set_timeout(self, timeout_s: float) -> None:
        # Rebind, never mutate: every session of a run, and the caller,
        # share one TdsOptions object.
        self.options = replace(self.options, timeout_s=timeout_s or None)

    # -- pickling (the parallel runner and the session cache's journal
    #    ship sessions) ---------------------------------------------------

    def __reduce__(self):
        # The transport state is pickled here, in one pass, and the
        # enclosing pickle stores the blob. Deadlines (monotonic clock)
        # and cancel tokens (locks) cannot cross a process boundary: the
        # transported session re-arms a fresh timeout_s wall on first
        # use. The warm engine (pool + enumerator) travels — its own
        # __getstate__ drops the per-run bindings and identity caches —
        # unless something in it resists pickling (e.g. a DSL built over
        # lambdas): only when the pass raises is the state pickled again
        # without it, and the transported session degrades to a cold
        # rebuild instead of failing the whole dump.
        state = self.__dict__.copy()
        state["_deadline"] = None
        state["_deadline_armed"] = False
        state["cancel"] = None
        state["_sched"] = None  # recreated from options on first use
        # The session cache's journal stamp names a record in one
        # process's journal (engine.cache.STAMP); it never travels.
        state.pop("_journal_stamp", None)
        # Budget factories are often closures (CLI flags, test lambdas);
        # a cache checkout installs the new request's factory anyway, so
        # an unpicklable one degrades to the default rather than failing
        # the dump.
        try:
            pickle.dumps(state.get("budget_factory"))
        except Exception:
            state["budget_factory"] = default_budget
        try:
            blob = pickle.dumps(state)
        except Exception:
            if state.get("_engine") is None:
                raise
            state["_engine"] = None
            blob = pickle.dumps(state)
        return _load_session, (type(self), blob)

    def __setstate__(self, state) -> None:
        self.__dict__.update(state)
        # Re-establish the shared-mapping invariant: session, engine,
        # and pool must alias one lasy_fns dict (pickle preserves the
        # sharing within one dump; this guards hand-built states).
        engine = self._engine
        if engine is not None:
            engine.lasy_fns = self.lasy_fns
            if engine.pool is not None:
                engine.pool.lasy_fns = self.lasy_fns


def _load_session(kind: type, blob: bytes) -> TdsSession:
    """Unpickle a :class:`TdsSession` (or subclass) from its
    ``__reduce__`` blob."""
    session = kind.__new__(kind)
    session.__setstate__(pickle.loads(blob))
    return session


def tds(
    signature: Signature,
    examples: Sequence[Example],
    dsl: Dsl,
    budget_factory: Optional[BudgetFactory] = None,
    lasy_fns: Optional[MutableMapping] = None,
    lasy_signatures: Optional[Mapping[str, Signature]] = None,
    options: Optional[TdsOptions] = None,
    *,
    session_cache=None,
    cancel: Optional[CancelToken] = None,
) -> TdsResult:
    """Algorithm 1 over a complete example sequence (batch wrapper around
    :class:`TdsSession`).

    With a ``session_cache`` (an ``engine.cache.SessionCache``), a warm
    session holding a prefix of ``examples`` under the same identity key
    is checked out and only the remaining examples are consumed; the
    session is released back afterwards."""
    shared = lasy_fns if lasy_fns is not None else {}
    session: Optional[TdsSession] = None
    matched = 0
    if session_cache is not None:
        from .engine.keys import session_key_for

        base_key = session_key_for(
            getattr(dsl, "name", type(dsl).__name__),
            signature,
            lasy_fns=shared,
            lasy_names=lasy_signatures or {},
            options=options if options is not None else TdsOptions(),
        )
        session, matched = session_cache.acquire(base_key, examples)
        if session is not None:
            session.rebind_lasy(shared, lasy_signatures)
            session.budget_factory = budget_factory or default_budget
            session.options = options if options is not None else TdsOptions()
            session.reset_clock(cancel=cancel)
            if not session.satisfies_all():
                session.failures_in_a_row = max(1, session.failures_in_a_row)
    if session is None:
        session = TdsSession(
            signature,
            dsl,
            budget_factory=budget_factory,
            lasy_fns=shared,
            lasy_signatures=lasy_signatures,
            options=options,
            cancel=cancel,
        )
    for example in list(examples)[matched:]:
        session.feed(example)
    result = session.finalize()
    if session_cache is not None:
        session_cache.release(session)
    return result
