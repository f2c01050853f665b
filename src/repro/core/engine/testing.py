"""Candidate testing against the example suite (testing layer).

:class:`Tester` evaluates candidate programs, computing the paper's
T(p) sets (§5.2) and guard B(g) sets, with the angelic-recursion oracle
for branch bodies of recursive programs.

A recursive candidate is run once per example, angelically first. Both
evaluators consult the oracle exactly where real self-recursion would
start (``Recurse`` nodes, after the arguments are evaluated), so fuel,
depth and errors are identical up to that point: a run that never calls
the oracle *is* the real run. Only examples whose angelic run called the
oracle are run a second time without it. :meth:`Tester.passed_set`
keeps the angelic verdicts for the :meth:`Tester.angelic_passed_set`
call that follows on the same program.

A candidate whose outputs the pool already holds is not run at all:
:meth:`Tester.passed_set` and :meth:`Tester.guard_sets` take its value
vector (:meth:`~.pool.PoolStore.vector_of`, one cell per example, each
what ``run_program`` would return) and read the verdicts from it,
charged like a run and counted as ``dbs.test.from_vector``.
"""

from __future__ import annotations

from time import perf_counter
from typing import Any, Dict, Mapping, Optional, Sequence, Tuple

from ..budget import Budget, BudgetExhausted
from ..dsl import Example, Signature
from ..evaluator import EvaluationError, run_program
from ..expr import Expr, is_recursive
from ..values import ERROR, freeze, structurally_equal

# Metric names shared with DbsStats (kept as literals to avoid a
# circular import with repro.core.dbs).
PROGRAMS_TESTED = "dbs.programs_tested"

# Fuel and recursion depth of one candidate run on one example. The
# vector reads above rest on this fuel being far above what a pooled
# straight-line tree can spend (at most its size, 60 nodes).
EVALUATION_FUEL = 60_000
MAX_RECURSION_DEPTH = 40


def _same_types(left: Any, right: Any) -> bool:
    """Whether two ``==``-equal frozen values also agree in type
    throughout: dict keys (and ``==``) conflate 1, 1.0 and True."""
    if type(left) is not type(right):
        return False
    if type(left) is tuple:
        return all(map(_same_types, left, right))
    return True


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
        # The angelic oracle, built on first use, and how many times it
        # has been asked (a run that asked it reached a recursive call);
        # a one-item list, so the oracle need not hold the Tester.
        self._oracle = None
        self._oracle_calls = [0]
        # (program, angelic T(p)) of the last recursive passed_set.
        self._angelic: Optional[Tuple[Expr, frozenset]] = None
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
        it without running anything. A recursive program runs
        angelically first on each example, and for real only where the
        angelic run called the oracle; the angelic T(p) is kept for
        :meth:`angelic_passed_set`."""
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
        oracle = self._recursion_oracle() if is_recursive(program) else None
        passed = set()
        angelic = set()
        asked = self._oracle_calls
        detailed = self._detailed
        for index, example in enumerate(self.examples):
            if detailed:
                start = perf_counter()
            calls = asked[0]
            value = self._run(program, example, oracle)
            ok = value is not ERROR and structurally_equal(
                value, example.output
            )
            if oracle is not None:
                if ok:
                    angelic.add(index)
                if asked[0] != calls:
                    self._real_reruns.value += 1
                    value = self._run(program, example)
                    ok = value is not ERROR and structurally_equal(
                        value, example.output
                    )
            if detailed:
                self._ex_seconds.observe(perf_counter() - start, index=index)
                self._ex_evals.inc(1, index=index)
            if ok:
                passed.add(index)
        if oracle is not None:
            self._angelic = (program, frozenset(angelic))
        return frozenset(passed)

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
        kept = self._angelic
        if kept is not None and kept[0] is program:
            return kept[1]
        oracle = self._recursion_oracle()
        passed = set()
        for index, example in enumerate(self.examples):
            value = self._run(program, example, oracle)
            if value is not ERROR and structurally_equal(value, example.output):
                passed.add(index)
        return frozenset(passed)

    def _recursion_oracle(self):
        """The angelic oracle, built once per Tester. Answers come from
        the example table, else from running the previous program; those
        runs are memoized for the Tester's lifetime, values and
        :class:`EvaluationError` alike (the previous program is fixed
        and every run gets fresh fuel, so an answer never changes)."""
        if self._oracle is not None:
            return self._oracle
        table = {
            freeze(example.args): freeze(example.output)
            for example in self.examples
        }
        previous = self.previous_program
        names = self._param_names
        lasy_fns = self.lasy_fns
        memo_hits = self._memo_hits
        asked = self._oracle_calls
        # args -> (args, raised, value or error args).
        memo: Dict[Tuple, Tuple[Tuple, bool, Any]] = {}

        def oracle(args):
            asked[0] += 1
            if args in table:
                return table[args]
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
