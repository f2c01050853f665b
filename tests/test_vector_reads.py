"""The value vector as the one source of a closed candidate's canonical
form and test verdict.

Three exactness arguments, each pinned here:

* **Folding from the vector.** The batched enumerator folds a call over
  constant children to the constant its value vector holds
  (``rewrite.fold_value``), where the rewriter folds it by applying the
  component (``Rewriter._fold_constants``). Over every call production
  with constant children in all four DSLs, and a DSL whose components
  raise, overflow, or return unhashable or callable values, the two
  folds and the interpreter agree.
* **Verdicts from the vector.** ``SynthesisSession.test_batch`` reads
  T(p) and B(g) of a pooled straight-line candidate from its vector
  instead of running it. A hook re-runs every such verdict through
  ``run_program`` over a pexfun game and three suite benchmarks.
* **The rewriter's early return.** ``canonicalize_root`` returns a root
  no rule or fold can touch before its memo; a rule-rooted call must
  never take that exit.
"""

import itertools

import pytest

from repro.core.budget import Budget
from repro.core.compile import compile_batch
from repro.core.dbs import DbsOptions
from repro.core.dsl import DslBuilder, Example, NtRef, Signature
from repro.core.engine import session as session_mod
from repro.core.engine import testing
from repro.core.evaluator import Env, EvaluationError, evaluate
from repro.core.expr import Call, Const, Param
from repro.core.rewrite import Rewriter, _foldable_value, fold_value
from repro.core.tds import TdsOptions, TdsSession
from repro.core.types import INT, STRING
from repro.core.values import ERROR, structurally_equal
from repro.domains.registry import get_domain
from repro.lasy.parser import parse_lasy
from repro.lasy.runner import _coerce_example
from repro.suites import ALL_SUITES

SUITE_CASES = [
    ("strings", "extract-domain"),
    ("tables", "transpose"),
    ("xml", "add-classes"),
]


def _suite_examples(suite, name):
    """The DSL and coerced examples of a suite benchmark's first
    function."""
    bench = next(b for b in ALL_SUITES[suite] if b.name == name)
    program = parse_lasy(bench.source)
    domain = get_domain(program.language)
    signatures = {d.name: d.signature for d in program.declarations}
    first = program.examples[0].func_name
    examples = [
        _coerce_example(domain, signatures[stmt.func_name], stmt)
        for stmt in program.examples
        if stmt.func_name == first
    ]
    return domain.dsl(), examples


def _pexfun_examples():
    from repro.pex import PUZZLES

    examples = []
    for name in ("max-of-two", "shout", "sum-array", "digits-of"):
        puzzle = next(p for p in PUZZLES if p.name == name)
        examples += [Example(a, puzzle.reference(*a)) for a in puzzle.seeds]
    return get_domain("pexfun").dsl(), examples


def _reference_fold(call):
    """The fold the tree interpreter defines: evaluate the call, and
    keep the call when that raises or the value is not plain data."""
    try:
        value = evaluate(call, Env(params={}))
    except EvaluationError:
        return call
    if not _foldable_value(value):
        return call
    return Const(value, call.func.return_type, call.nt)


def _same(left, right):
    return type(left) is type(right) and left == right


def _check_folds(dsl, constants, combos_per_production=150):
    """Every eager call production whose slots all have constants: the
    vector fold, the rewriter's fold and the interpreter's fold of each
    constant combo (up to ``combos_per_production``) agree, and so does
    ``canonicalize_root`` for a fixed root. Returns (combos checked,
    combos that do not fold)."""
    rewriter = Rewriter(dsl)
    checked = unfolded = 0
    for prod in dsl.productions:
        func = prod.func
        if prod.kind != "call" or func is None or func.lazy or not prod.args:
            continue
        if not all(isinstance(a, NtRef) for a in prod.args):
            continue
        slots = [
            [
                Const(value, dsl.type_of(nt), nt)
                for nt in dsl.expansion(arg.nt)
                for value in constants.get(nt, ())
            ]
            for arg in prod.args
        ]
        batch_fn = compile_batch(func)
        fixed = rewriter.fixed_root(func)
        for children in itertools.islice(
            itertools.product(*slots), combos_per_production
        ):
            call = Call(func, children, prod.nt)
            # Constant children's vectors, over two examples.
            values = batch_fn(*[(c.value, c.value) for c in children])
            folded = fold_value(func, values, prod.nt)
            from_vector = call if folded is None else folded
            want = _reference_fold(call)
            assert _same(from_vector, want), (str(call), values)
            assert _same(rewriter._fold_constants(call), want), str(call)
            if fixed:
                assert _same(rewriter.canonicalize_root(call), want), str(call)
            checked += 1
            unfolded += folded is None
    return checked, unfolded


@pytest.mark.parametrize("case", ["pexfun"] + [s for s, _ in SUITE_CASES])
def test_vector_fold_matches_rewriter_and_interpreter(case):
    if case == "pexfun":
        dsl, examples = _pexfun_examples()
    else:
        dsl, examples = _suite_examples(case, dict(SUITE_CASES)[case])
    checked, _ = _check_folds(dsl, dsl.constants_for(examples))
    assert checked >= 50


def _raise(a):
    raise ValueError(a)


def edge_dsl():
    """Components whose constant calls raise, overflow the value-size
    check, or return an unhashable or a callable value."""
    b = DslBuilder("edges", start="e")
    b.nt("e", INT).nt("s", STRING)
    b.fn("e", "Raise", ["e"], _raise)
    b.fn("e", "Div", ["e", "e"], lambda a, c: a // c)
    b.fn("e", "Huge", ["e"], lambda a: 2 ** (600 + a))
    b.fn("e", "Set", ["e"], lambda a: {a})
    b.fn("e", "Closure", ["e"], lambda a: (lambda: a))
    b.fn("e", "Pair", ["e", "e"], lambda a, c: [a, [c]])
    b.fn("s", "Long", ["s", "e"], lambda s, n: s * (n * 600_000))
    b.fn("s", "Three", ["s", "e", "e"], lambda s, a, c: s[a:c])
    b.constant("e").constant("s")
    b.constants_from(lambda examples: {"e": [0, 1, 3], "s": ["ab"]})
    return b.build()


def test_vector_fold_keeps_errors_and_unfoldable_values():
    dsl = edge_dsl()
    checked, unfolded = _check_folds(dsl, dsl.constants_for([]))
    # Raise (3), Div by zero (3), Huge (3), Set (3), Closure (3) and
    # Long's oversize strings (2) stay calls.
    assert checked == 3 + 9 + 3 + 3 + 3 + 9 + 3 + 9
    assert unfolded == 17


# -- verdicts read from vectors ------------------------------------------


@pytest.fixture
def cross_checked(monkeypatch):
    """Re-run every verdict the tester reads from a value vector with
    ``run_program``: each cell must be what the run returns, ``ERROR``
    included. Yields the count of checked verdicts."""
    checked = {"passed": 0, "guards": 0}
    passed_set = testing.Tester.passed_set
    guard_sets = testing.Tester.guard_sets

    def check_cells(tester, program, values):
        assert len(values) == len(tester.examples)
        for value, example in zip(values, tester.examples):
            run = tester._run(program, example)
            assert (value is ERROR) == (run is ERROR), str(program)
            if run is not ERROR:
                assert structurally_equal(value, run), str(program)

    def checked_passed(self, program, values=None):
        if values is not None:
            check_cells(self, program, values)
            checked["passed"] += 1
        return passed_set(self, program, values)

    def checked_guards(self, guard, values=None):
        verdict = guard_sets(self, guard, values)
        if values is not None:
            check_cells(self, guard, values)
            assert verdict == guard_sets(self, guard)
            checked["guards"] += 1
        return verdict

    monkeypatch.setattr(testing.Tester, "passed_set", checked_passed)
    monkeypatch.setattr(testing.Tester, "guard_sets", checked_guards)
    yield checked


def test_vector_verdicts_match_runs_on_a_pexfun_game(cross_checked):
    """``sign`` takes four oracle rounds, so its later runs test pooled
    expressions in contexts of the previous program too, where the
    plugged program is run."""
    from repro.pex import PUZZLES, play

    puzzle = next(p for p in PUZZLES if p.name == "sign")
    game = play(
        puzzle, budget_factory=lambda: Budget(max_seconds=8, max_expressions=80_000)
    )
    assert game.solved
    assert cross_checked["passed"] > 100 and cross_checked["guards"] > 0


@pytest.mark.parametrize("suite_name, bench_name", SUITE_CASES)
def test_vector_verdicts_match_runs_on_suites(cross_checked, suite_name, bench_name):
    bench = next(b for b in ALL_SUITES[suite_name] if b.name == bench_name)
    result = bench.run(
        budget_factory=lambda: Budget(max_seconds=20, max_expressions=250_000)
    )
    assert result.success
    assert cross_checked["passed"] > 0


def test_vector_reads_are_counted_apart_from_evaluations():
    """A verdict read from a vector is charged as a tested program and
    counted as ``dbs.test.from_vector``; ``prof.example.evals`` counts
    only the examples a run evaluates."""
    from repro.core.dbs import DbsStats
    from repro.obs.metrics import Registry

    signature = Signature("f", (("x", INT),), INT)
    examples = [Example((1,), 2), Example((4,), 5)]
    stats = DbsStats(registry=Registry(detailed=True))
    budget = Budget(max_programs=10)
    tester = testing.Tester(signature, examples, {}, stats, budget)
    x = Param("x", INT, "e")
    assert tester.passed_set(x, (1, 4)) == frozenset()
    assert tester.guard_sets(x, (True, ERROR)) == ({0}, {1})
    registry = stats.registry
    assert registry.value("dbs.test.from_vector") == 2
    assert registry.value("dbs.programs_tested") == 1
    assert budget.programs == 1
    assert registry.value("prof.example.evals", 0) == 0
    assert tester.passed_set(x) == frozenset()
    assert registry.value("prof.example.evals") == len(examples)


@pytest.mark.trace_smoke
def test_vector_reads_reach_the_trace(tmp_path):
    from repro.obs import JsonlTracer, report_from_file, tracing

    path = str(tmp_path / "vectors.jsonl")
    tracer = JsonlTracer(path)
    session = TdsSession(
        Signature("f", (("x", INT),), INT),
        get_domain("pexfun").dsl(),
        budget_factory=lambda: Budget(max_seconds=30, max_expressions=20_000),
        options=TdsOptions(dbs=DbsOptions(enable_loops=False)),
    )
    with tracing(tracer):
        for x in (3, 5, 9):
            session.add_example(Example((x,), 2 * x + 1))
    tracer.flush()
    assert session.satisfies_all()
    counters = report_from_file(path).counters
    assert 0 < counters["dbs.test.from_vector"] <= counters["dbs.programs_tested"]


# -- the session's examples ---------------------------------------------


def test_session_freezes_example_arguments():
    frozen = Example(((1, 2),), 3)
    assert session_mod._frozen_args(frozen) is frozen
    thawed = session_mod._frozen_args(Example(([1, 2], {"k": [3]}), 3))
    assert thawed.args == ((1, 2), (("k", (3,)),))
    assert thawed.output == 3


def test_vectors_need_strictly_equal_inputs():
    """``==`` equates 1 with True; a pool keyed on one must not answer
    for the other."""
    ints = [Example((1,), "x")]
    bools = [Example((True,), "x")]
    assert ints == bools
    assert not session_mod._same_inputs(ints, bools)
    assert session_mod._same_inputs(ints, [Example((1,), "other")])


# -- the rewriter's early return -----------------------------------------


def test_early_return_never_skips_a_rule_rooted_call():
    """Strings' rules are rooted at named functions, so its other calls
    return early; a call to a rule root must still be rewritten, with a
    non-constant argument too."""
    dsl = get_domain("strings").dsl()
    rewriter = Rewriter(dsl)
    fns = {f.name: f for f in dsl.functions()}
    concatenate, const_str = fns["Concatenate"], fns["ConstStr"]
    assert not rewriter.fixed_root(concatenate)
    assert rewriter.fixed_root(const_str)
    empty = Call(const_str, (Const("", STRING, "s"),), "f")
    rest = Param("v", STRING, "e")
    # Concatenate(ConstStr(""), f0) ==> f0
    assert rewriter.canonicalize_root(Call(concatenate, (empty, rest), "e")) is rest


def test_early_return_skips_the_memo_for_untouchable_roots():
    """Pexfun has no rewrite rules: a call with a non-constant argument,
    and any node but a call, comes back as it is, and the memo stays
    empty."""
    dsl = get_domain("pexfun").dsl()
    rewriter = Rewriter(dsl)
    add = next(f for f in dsl.functions() if f.name == "Add")
    x = Param("x", INT, "int")
    call = Call(add, (x, Const(1, INT, "int")), "int")
    assert rewriter.fixed_root(add)
    assert rewriter.canonicalize_root(call) is call
    assert rewriter.canonicalize_root(x) is x
    assert rewriter._root_cache == {}
