"""The single-pass tester against the two-pass reference.

``Tester.passed_set`` runs a recursive candidate once per example,
angelically first, and re-runs for real only the examples whose angelic
run called the recursion oracle; ``angelic_passed_set`` then answers
from the verdicts that pass kept, as does a repeat of the same program.
The reference below is the two-pass formulation: every example run for
real, then every example run again under a fresh, unmemoized oracle.
Both must give the same T(p) sets for every program the DBS loop plugs,
on both evaluators, and so must the warm sessions' testers, which take
recursive candidates' verdicts from earlier runs.
"""

from typing import Dict, List, Tuple

import pytest

from repro.core.budget import Budget
from repro.core.dbs import DbsOptions, DbsStats
from repro.core.dsl import Example, Signature
from repro.core.engine import testing
from repro.core.evaluator import EvaluationError, run_program, set_eval_mode
from repro.core.expr import Call, Const, Expr, Function, Param, Recurse, is_recursive
from repro.core.tds import TdsOptions, tds
from repro.core.types import INT, STRING
from repro.core.values import ERROR, freeze, structurally_equal
from repro.domains.registry import get_domain

WORDWRAP = Signature("WordWrap", (("text", STRING), ("length", INT)), STRING)
# The first four examples of the Fig. 1 sequence.
WORDWRAP_EXAMPLES = [
    Example(("Word", 4), "Word"),
    Example(("Extremely longWords", 14), "Extremely\nlongWords"),
    Example(("How are", 76), "How are"),
    Example(("How are you?", 9), "How are\nyou?"),
]


def _synthesize_cases():
    tds(
        WORDWRAP,
        WORDWRAP_EXAMPLES,
        get_domain("strings").dsl(),
        budget_factory=lambda: Budget(max_seconds=60, max_expressions=10_000),
    )
    for name in ("factorial", "sum-to-n"):
        _recursive_puzzle(name)


def _recursive_puzzle(name):
    """TDS over a pexfun puzzle's seed examples. With loop strategies
    off, DBS reaches for recursion instead of for(i=1..n, ...), so the
    pool plugs recursive candidates."""
    from repro.pex import PUZZLES

    puzzle = next(p for p in PUZZLES if p.name == name)
    return tds(
        puzzle.signature,
        [Example(a, puzzle.reference(*a)) for a in puzzle.seeds],
        get_domain("pexfun").dsl(),
        budget_factory=lambda: Budget(max_seconds=60, max_expressions=2_000),
        options=TdsOptions(dbs=DbsOptions(enable_loops=False)),
    )


Answer = Tuple[str, Expr, frozenset]


@pytest.fixture(scope="module")
def answered() -> List[Tuple[testing.Tester, List[Answer]]]:
    """Every (run's tester, the ``("passed" | "angelic", program,
    verdict)`` calls it answered, in order) of the cases."""
    seen: Dict[int, Tuple[testing.Tester, List[Answer]]] = {}
    passed_set = testing.Tester.passed_set
    angelic_passed_set = testing.Tester.angelic_passed_set

    def record_passed(self, program, values=None):
        verdict = passed_set(self, program, values)
        seen.setdefault(id(self), (self, []))[1].append(
            ("passed", program, verdict)
        )
        return verdict

    def record_angelic(self, program):
        verdict = angelic_passed_set(self, program)
        seen.setdefault(id(self), (self, []))[1].append(
            ("angelic", program, verdict)
        )
        return verdict

    testing.Tester.passed_set = record_passed
    testing.Tester.angelic_passed_set = record_angelic
    try:
        _synthesize_cases()
    finally:
        testing.Tester.passed_set = passed_set
        testing.Tester.angelic_passed_set = angelic_passed_set
    return list(seen.values())


@pytest.fixture(scope="module")
def plugged(answered) -> List[Tuple[testing.Tester, List[Expr]]]:
    """Every (run's tester, programs it was asked T(p) of) of the cases."""
    return [
        (tester, [program for kind, program, _ in calls if kind == "passed"])
        for tester, calls in answered
    ]


def _fresh_tester(original: testing.Tester) -> testing.Tester:
    return testing.Tester(
        original.signature,
        original.examples,
        original.lasy_fns,
        DbsStats(),
        Budget(),
        previous_program=original.previous_program,
    )


def _reference(tester: testing.Tester, program: Expr):
    """``(T(p), angelic T(p), examples whose angelic run called the
    oracle)`` by the two-pass loops, with a fresh oracle."""
    names = tester.signature.param_names

    def run(example, oracle=None):
        try:
            return run_program(
                program,
                names,
                example.args,
                lasy_fns=tester.lasy_fns,
                fuel=testing.EVALUATION_FUEL,
                max_depth=testing.MAX_RECURSION_DEPTH,
                recursion_oracle=oracle,
            )
        except EvaluationError:
            return ERROR

    def handles(value, example):
        return value is not ERROR and structurally_equal(value, example.output)

    examples = tester.examples
    passed = frozenset(
        i for i, e in enumerate(examples) if handles(run(e), e)
    )
    if not is_recursive(program):
        return passed, frozenset(), 0
    table = {freeze(e.args): freeze(e.output) for e in examples}
    previous = tester.previous_program
    asked = []

    def oracle(args):
        asked.append(args)
        if args in table:
            return table[args]
        if previous is not None:
            return run_program(
                previous,
                names,
                args,
                lasy_fns=tester.lasy_fns,
                fuel=testing.EVALUATION_FUEL,
                max_depth=testing.MAX_RECURSION_DEPTH,
            )
        raise EvaluationError("angelic recursion: input not in example table")

    angelic = set()
    reached = 0
    for i, example in enumerate(examples):
        before = len(asked)
        if handles(run(example, oracle), example):
            angelic.add(i)
        reached += len(asked) != before
    return passed, frozenset(angelic), reached


@pytest.mark.parametrize("mode", ["compiled", "interp"])
def test_single_pass_matches_two_pass_reference(plugged, mode, monkeypatch):
    candidate_runs: List[Tuple[Expr, object]] = []
    real_run = testing.run_program

    def counting(program, names, args, **kwargs):
        candidate_runs.append((program, args))
        return real_run(program, names, args, **kwargs)

    monkeypatch.setattr(testing, "run_program", counting)
    previous_mode = set_eval_mode(mode)
    recursive = partial = repeats = 0
    try:
        for original, programs in plugged:
            tester = _fresh_tester(original)
            n = len(tester.examples)
            # The candidate's own runs take the example's args object;
            # the oracle's runs of the previous program build new ones.
            example_args = {id(e.args) for e in tester.examples}
            reruns = tester._real_reruns
            tested = set()
            for program in programs:
                want_passed, want_angelic, reached = _reference(original, program)
                del candidate_runs[:]
                before = reruns.value
                assert tester.passed_set(program) == want_passed, str(program)
                assert tester.angelic_passed_set(program) == want_angelic, str(program)
                if program in tested:
                    # A repeat in the same Tester is answered from the
                    # verdicts its first test kept: it runs nothing.
                    repeats += 1
                    assert not candidate_runs, str(program)
                    assert reruns.value == before
                    continue
                tested.add(program)
                runs = sum(
                    1
                    for p, args in candidate_runs
                    if p is program and id(args) in example_args
                )
                # One run per example, plus a real re-run exactly where
                # the angelic run reached a recursive call (the
                # two-pass formulation makes 2n).
                assert runs == n + reached, str(program)
                assert reruns.value - before == reached
                if is_recursive(program):
                    recursive += 1
                    partial += reached < n
    finally:
        set_eval_mode(previous_mode)
    # The corpus holds recursive candidates, some of which settle an
    # example without reaching their recursive call, and programs that
    # one run plugs more than once.
    assert recursive > 100
    assert partial > 0
    assert repeats > 0


def test_warm_session_verdicts_match_the_reference(answered):
    """Every verdict the cases' warm sessions answered, across runs and
    from their memos included, is the two-pass reference's."""
    hits = stale = 0
    for tester, calls in answered:
        for kind, program, verdict in calls:
            want_passed, want_angelic, _ = _reference(tester, program)
            want = want_passed if kind == "passed" else want_angelic
            assert verdict == want, (kind, str(program))
        hits += tester._session_hits.value
        stale += tester._session_stale.value
    # The sessions answered examples from verdicts of earlier runs, and
    # re-ran angelic verdicts whose oracle answers had changed.
    assert hits > 0
    assert stale > 0


# -- the oracle memo ----------------------------------------------------

ADD = Function("Add", (INT, INT), INT, lambda a, b: a + b)
SUB = Function("Sub", (INT, INT), INT, lambda a, b: a - b)
DIV = Function("Div", (INT, INT), INT, lambda a, b: a // b)
SIG = Signature("P", (("n", INT),), INT)


def _n():
    return Param("n", INT, "e")


def _one():
    return Const(1, INT, "e")


def _candidate():
    """n + P(n - 1): reaches the oracle on every example."""
    return Call(ADD, (_n(), Recurse((Call(SUB, (_n(), _one()), "e"),), "e")), "e")


def _crashing_previous():
    """1 // (n - n): raises EvaluationError on every input."""
    return Call(DIV, (_one(), Call(SUB, (_n(), _n()), "e")), "e")


def _memo_tester(previous):
    # P(2) is not in the example table, so the oracle asks `previous`.
    return testing.Tester(
        SIG,
        [Example((3,), 6)],
        {},
        DbsStats(),
        Budget(),
        previous_program=previous,
    )


def test_oracle_memoizes_errors_per_tester(monkeypatch):
    previous = _crashing_previous()
    previous_runs = []
    real_run = testing.run_program

    def counting(program, names, args, **kwargs):
        if program is previous:
            previous_runs.append(args)
        return real_run(program, names, args, **kwargs)

    monkeypatch.setattr(testing, "run_program", counting)
    tester = _memo_tester(previous)
    oracle = tester._recursion_oracle()
    for _ in range(3):
        with pytest.raises(EvaluationError):
            oracle((2,))
    assert tester._recursion_oracle() is oracle
    # A candidate asks the same sub-input; its angelic T(p), and a
    # structurally equal candidate's, come from the verdicts its
    # passed_set kept, without asking again.
    candidate = _candidate()
    assert tester.passed_set(candidate) == frozenset()
    assert tester.angelic_passed_set(candidate) == frozenset()
    assert tester.angelic_passed_set(_candidate()) == frozenset()
    assert len(previous_runs) == 1
    assert tester._memo_hits.value == 3

    # A new Tester does not see the old memo.
    fresh = _memo_tester(previous)
    with pytest.raises(EvaluationError):
        fresh._recursion_oracle()((2,))
    assert len(previous_runs) == 2
    assert fresh._memo_hits.value == 0


def test_oracle_memo_keeps_types_apart():
    """Dict keys conflate 1 and True; the memo must not."""
    identity = Function("Id", (INT,), INT, lambda a: a)
    previous = Call(identity, (_n(),), "e")
    tester = _memo_tester(previous)
    oracle = tester._recursion_oracle()
    assert oracle((1,)) == 1
    value = oracle((True,))
    assert value is True
    assert tester._memo_hits.value == 0
    assert oracle((1,)) == 1
    assert tester._memo_hits.value == 1
    assert not testing._same_types(((1, 2),), ((True, 2),))
    assert testing._same_types(((1, "a"),), ((1, "a"),))


@pytest.mark.trace_smoke
def test_tester_counters_reach_the_trace(tmp_path):
    from repro.obs import JsonlTracer, report_from_file, tracing

    path = str(tmp_path / "factorial.jsonl")
    tracer = JsonlTracer(path)
    with tracing(tracer):
        _recursive_puzzle("factorial")
    tracer.flush()
    counters = report_from_file(path).counters
    assert counters.get("dbs.test.real_reruns", 0) > 0
    assert counters.get("dbs.test.oracle_memo_hits", 0) > 0


@pytest.mark.trace_smoke
def test_session_memo_counters_reach_the_trace(tmp_path):
    from repro.obs import JsonlTracer, report_from_file, tracing

    path = str(tmp_path / "sum-to-n.jsonl")
    tracer = JsonlTracer(path)
    with tracing(tracer):
        _recursive_puzzle("sum-to-n")
    tracer.flush()
    counters = report_from_file(path).counters
    assert counters.get("dbs.test.memo_hits", 0) > 0
    assert counters.get("dbs.test.memo_stale", 0) > 0
