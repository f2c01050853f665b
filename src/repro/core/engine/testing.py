"""Candidate testing against the example suite (testing layer).

:class:`Tester` evaluates candidate programs, computing the paper's
T(p) sets (§5.2) and guard B(g) sets, with the angelic-recursion oracle
for branch bodies of recursive programs.

A recursive candidate is run once per example, angelically first. Both
evaluators consult the oracle exactly where real self-recursion would
start (``Recurse`` nodes, after the arguments are evaluated), so fuel,
depth and errors are identical up to that point: a run that never calls
the oracle *is* the real run. Only examples whose angelic run called the
oracle are run a second time without it.

Each distinct program is tested once per run. :meth:`Tester.passed_set`
keeps its (T(p), angelic T(p)) pair, keyed by the program (``Expr``
equality is structural), and a repeat, like the
:meth:`Tester.angelic_passed_set` call that follows, is answered from
it, charged like a run. The examples, the oracle's table and previous
program, the LaSy functions, fuel and depth are all fixed for one
``Tester``, and evaluation is deterministic.

Across the runs of one session, a recursive candidate's per-example
verdicts are kept in the session's :class:`SessionVerdicts`. The real
verdict is reused as it is; the angelic one only while the run's oracle
answers every argument that verdict's run asked it the same way
(:meth:`Tester._answers_hold`), so the angelic run would repeat exactly.
Answers are counted as ``dbs.test.memo_hits``, and angelic entries run
again as ``dbs.test.memo_stale``.

A candidate whose outputs the pool already holds is not run at all:
:meth:`Tester.passed_set` and :meth:`Tester.guard_sets` take its value
vector (:meth:`~.pool.PoolStore.vector_of`, one cell per example, each
what ``run_program`` would return) and read the verdicts from it,
charged like a run and counted as ``dbs.test.from_vector``.
"""

from __future__ import annotations

from time import perf_counter
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from ..budget import Budget, BudgetExhausted
from ..dsl import Example, Signature
from ..evaluator import EvaluationError, run_program
from ..expr import Expr, is_recursive
from ..values import ERROR, freeze, strict_key, structurally_equal

# Metric names shared with DbsStats (kept as literals to avoid a
# circular import with repro.core.dbs).
PROGRAMS_TESTED = "dbs.programs_tested"

# Fuel and recursion depth of one candidate run on one example. The
# vector reads above rest on this fuel being far above what a pooled
# straight-line tree can spend (at most its size, 60 nodes).
EVALUATION_FUEL = 60_000
MAX_RECURSION_DEPTH = 40

# Bound of a session's verdict memo (SessionVerdicts.entries), about
# 24 MB at word wrap's ~240 bytes an entry; cleared wholesale when full,
# like the pool's grid cache.
_VERDICT_MEMO_LIMIT = 100_000

# The example table's answer to an oracle argument it does not hold.
_NOT_IN_TABLE = object()


def _same_types(left: Any, right: Any) -> bool:
    """Whether two ``==``-equal frozen values also agree in type
    throughout: dict keys (and ``==``) conflate 1, 1.0 and True."""
    if type(left) is not type(right):
        return False
    if type(left) is tuple:
        return all(map(_same_types, left, right))
    return True


class SessionVerdicts:
    """The per-example verdicts of recursive candidates, kept across the
    runs of one :class:`~.session.SynthesisSession`.

    ``entries`` maps (program, example id) to (real verdict, angelic
    verdict, what the angelic run asked the oracle, the run's previous
    program). What it asked is a tuple of (argument, the table's answer
    or ``_NOT_IN_TABLE``). Example ids are small ints given out per
    :func:`~repro.core.values.strict_key` of the example's arguments
    and output, which keeps ``(1,)`` and ``(True,)`` apart."""

    __slots__ = ("entries", "_ids")

    def __init__(self) -> None:
        self.entries: Dict[Tuple[Expr, int], Tuple] = {}
        self._ids: Dict[Tuple, int] = {}

    def example_ids(
        self, examples: Sequence[Example]
    ) -> Optional[Tuple[int, ...]]:
        """The ids of ``examples``, or None when one cannot be keyed
        (there is no ``repr`` fallback, as session keys have: a ``repr``
        need not tell two values apart)."""
        ids = self._ids
        try:
            return tuple(
                ids.setdefault(
                    tuple(map(strict_key, (*example.args, example.output))),
                    len(ids),
                )
                for example in examples
            )
        except TypeError:
            return None


class Tester:
    """Evaluates candidate programs against the examples."""

    def __init__(
        self,
        signature: Signature,
        examples: Sequence[Example],
        lasy_fns: Mapping,
        stats,
        budget: Budget,
        previous_program: Optional[Expr] = None,
        verdicts: Optional[SessionVerdicts] = None,
    ):
        self.signature = signature
        self.examples = list(examples)
        self.lasy_fns = lasy_fns
        self.stats = stats
        self.budget = budget
        self.previous_program = previous_program
        # Signature.param_names builds a new tuple on every access.
        self._param_names = signature.param_names
        self._tested = stats.registry.counter(PROGRAMS_TESTED)
        self._guard_records = stats.registry.counter(
            "dbs.cond.guards_recorded"
        )
        self._program_records = stats.registry.counter(
            "dbs.cond.programs_recorded"
        )
        self._real_reruns = stats.registry.counter("dbs.test.real_reruns")
        self._from_vector = stats.registry.counter("dbs.test.from_vector")
        self._memo_hits = stats.registry.counter("dbs.test.oracle_memo_hits")
        self._session_hits = stats.registry.counter("dbs.test.memo_hits")
        self._session_stale = stats.registry.counter("dbs.test.memo_stale")
        # The angelic oracle and its example table, built on first use,
        # and the (argument, table answer) pairs the oracle was asked
        # during the current run (a run that asked reached a recursive
        # call).
        self._oracle = None
        self._table: Dict[Tuple, Any] = {}
        self._asked: List[Tuple[Tuple, Any]] = []
        # program -> (T(p), angelic T(p)), one pair per distinct program.
        self._verdicts: Dict[Expr, Tuple[frozenset, frozenset]] = {}
        # The session's memo of recursive candidates and the examples'
        # ids in it; both None when the session keeps no memo.
        ids = (
            verdicts.example_ids(self.examples)
            if verdicts is not None
            else None
        )
        self._ids = ids
        self._session = verdicts.entries if ids is not None else None
        # Per-TDS-example cost attribution (report-trace --hotspots):
        # which example index the evaluation time and the candidate
        # rejections go to. Detailed runs only — the off path pays one
        # bool test per example evaluation and registers nothing.
        self._detailed = stats.registry.detailed
        if self._detailed:
            self._ex_seconds = stats.registry.histogram(
                "prof.example.seconds"
            )
            self._ex_evals = stats.registry.counter("prof.example.evals")
            self._ex_rejections = stats.registry.counter(
                "prof.example.rejections"
            )
        # Once the generation budget is exhausted we still want to test
        # whatever the pool already built (the partial last generation);
        # the grace counter bounds that final sweep.
        self._grace = 8_000

    def _charge(self) -> None:
        self._tested.value += 1
        try:
            self.budget.charge_program()
        except BudgetExhausted:
            # The grace window only outlives *soft* budgets; the hard
            # deadline (DbsOptions.timeout_s, cancellation) truncates
            # the sweep immediately.
            self.budget.check_deadline()
            self._grace -= 1
            if self._grace < 0:
                raise

    def _run_attributed(self, program: Expr, index: int, example: Example):
        start = perf_counter()
        value = self._run(program, example)
        self._ex_seconds.observe(perf_counter() - start, index=index)
        self._ex_evals.inc(1, index=index)
        return value

    def passed_set(
        self, program: Expr, values: Optional[Tuple[Any, ...]] = None
    ) -> frozenset:
        """T(p): indices of examples the program handles.

        Given the program's value vector ``values``, T(p) is read from
        it without running anything. Otherwise the program's verdicts
        are computed once per run (see :meth:`_test`) and kept for its
        repeats and for :meth:`angelic_passed_set`."""
        self._charge()
        if values is not None:
            self._from_vector.value += 1
            return frozenset(
                index
                for index, (value, example) in enumerate(
                    zip(values, self.examples)
                )
                if value is not ERROR
                and structurally_equal(value, example.output)
            )
        return self._verdicts_of(program)[0]

    def angelic_passed_set(self, program: Expr) -> frozenset:
        """T(p) with recursive calls answered angelically: from the
        example table first (the examples are ground truth for the
        function being synthesized), then by running the previous
        program. A recursive branch body without its base case diverges
        under true self-recursion; this lets the conditional strategy
        still observe which examples the branch would handle."""
        if not is_recursive(program):
            return frozenset()
        self._charge()
        return self._verdicts_of(program)[1]

    def _verdicts_of(self, program: Expr) -> Tuple[frozenset, frozenset]:
        kept = self._verdicts.get(program)
        if kept is None:
            kept = self._verdicts[program] = self._test(program)
        return kept

    def _test(self, program: Expr) -> Tuple[frozenset, frozenset]:
        """(T(p), angelic T(p)) of ``program`` on every example; the
        angelic set is empty for a non-recursive program.

        A recursive program runs angelically first, and for real only
        where the angelic run called the oracle. With a session memo,
        an example whose entry still holds is answered from it, and a
        stale entry re-runs angelically only (its real verdict holds)."""
        recursive = is_recursive(program)
        oracle = self._recursion_oracle() if recursive else None
        memo = self._session if recursive else None
        ids = self._ids
        asked = self._asked
        passed = set()
        angelic = set()
        detailed = self._detailed
        for index, example in enumerate(self.examples):
            entry = None
            if memo is not None:
                key = (program, ids[index])
                entry = memo.get(key)
                if entry is not None:
                    if self._answers_hold(entry[2], entry[3]):
                        self._session_hits.value += 1
                        if entry[0]:
                            passed.add(index)
                        if entry[1]:
                            angelic.add(index)
                        continue
                    self._session_stale.value += 1
            if detailed:
                start = perf_counter()
            if oracle is None:
                ok = self._handles(self._run(program, example), example)
            else:
                asked.clear()
                angelic_ok = self._handles(
                    self._run(program, example, oracle), example
                )
                if angelic_ok:
                    angelic.add(index)
                if not asked:
                    ok = angelic_ok
                elif entry is not None:
                    ok = entry[0]
                else:
                    self._real_reruns.value += 1
                    ok = self._handles(self._run(program, example), example)
                if memo is not None:
                    if len(memo) >= _VERDICT_MEMO_LIMIT:
                        memo.clear()
                    memo[key] = (
                        ok, angelic_ok, tuple(asked), self.previous_program
                    )
            if detailed:
                self._ex_seconds.observe(perf_counter() - start, index=index)
                self._ex_evals.inc(1, index=index)
            if ok:
                passed.add(index)
        return frozenset(passed), frozenset(angelic)

    def _answers_hold(self, asked: Tuple, previous: Optional[Expr]) -> bool:
        """Whether this run's oracle answers every argument of ``asked``
        as the run that recorded them was answered: from the example
        table with a structurally equal output, or, for an argument the
        table does not hold, by the same previous program. Each answer
        is what the run continues with, so equal answers repeat the
        run."""
        table = self._table
        current = self.previous_program
        for args, answer in asked:
            now = table.get(args, _NOT_IN_TABLE)
            if now is _NOT_IN_TABLE:
                if answer is not _NOT_IN_TABLE or not (
                    previous is current or previous == current
                ):
                    return False
            elif answer is _NOT_IN_TABLE or not (
                answer is now or structurally_equal(answer, now)
            ):
                return False
        return True

    @staticmethod
    def _handles(value: Any, example: Example) -> bool:
        return value is not ERROR and structurally_equal(value, example.output)

    def _recursion_oracle(self):
        """The angelic oracle, built once per Tester. Answers come from
        the example table, else from running the previous program; those
        runs are memoized for the Tester's lifetime, values and
        :class:`EvaluationError` alike (the previous program is fixed
        and every run gets fresh fuel, so an answer never changes).
        Every argument asked is recorded in ``_asked`` with the table's
        answer."""
        if self._oracle is not None:
            return self._oracle
        table = self._table = {
            freeze(example.args): freeze(example.output)
            for example in self.examples
        }
        previous = self.previous_program
        names = self._param_names
        lasy_fns = self.lasy_fns
        memo_hits = self._memo_hits
        asked = self._asked
        # args -> (args, raised, value or error args).
        memo: Dict[Tuple, Tuple[Tuple, bool, Any]] = {}

        def oracle(args):
            answer = table.get(args, _NOT_IN_TABLE)
            asked.append((args, answer))
            if answer is not _NOT_IN_TABLE:
                return answer
            if previous is None:
                raise EvaluationError(
                    "angelic recursion: input not in example table"
                )
            hit = memo.get(args)
            if hit is not None and _same_types(hit[0], args):
                memo_hits.value += 1
                if hit[1]:
                    raise EvaluationError(*hit[2])
                return hit[2]
            try:
                value = run_program(
                    previous,
                    names,
                    args,
                    lasy_fns=lasy_fns,
                    fuel=EVALUATION_FUEL,
                    max_depth=MAX_RECURSION_DEPTH,
                )
            except EvaluationError as exc:
                if hit is None:
                    memo[args] = (args, True, exc.args)
                raise
            if hit is None:
                memo[args] = (args, False, value)
            return value

        self._oracle = oracle
        return oracle

    def passes_all(self, program: Expr) -> bool:
        self._charge()
        detailed = self._detailed
        for index, example in enumerate(self.examples):
            if detailed:
                value = self._run_attributed(program, index, example)
            else:
                value = self._run(program, example)
            if value is ERROR or not structurally_equal(value, example.output):
                if detailed:
                    # The first failing index: which example does the
                    # rejecting (the example-ordering signal).
                    self._ex_rejections.inc(1, index=index)
                return False
        return True

    def _run(self, program: Expr, example: Example, recursion_oracle=None):
        try:
            return run_program(
                program,
                self._param_names,
                example.args,
                lasy_fns=self.lasy_fns,
                fuel=EVALUATION_FUEL,
                max_depth=MAX_RECURSION_DEPTH,
                recursion_oracle=recursion_oracle,
            )
        except EvaluationError:
            return ERROR

    def guard_sets(
        self, guard: Expr, values: Optional[Tuple[Any, ...]] = None
    ) -> Tuple[frozenset, frozenset]:
        """(B(g), error set) for a boolean expression, read from its
        value vector ``values`` when given."""
        true_set = set()
        errors = set()
        if values is not None:
            self._from_vector.value += 1
        else:
            values = [self._run(guard, example) for example in self.examples]
        for index, value in enumerate(values):
            if value is ERROR:
                errors.add(index)
            elif value is True:
                true_set.add(index)
        return frozenset(true_set), frozenset(errors)
