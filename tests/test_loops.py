"""Tests for the loop strategies (repro.core.loops, §5.3)."""

import pytest

from repro.core.budget import Budget
from repro.core.dsl import DslBuilder, Example, Signature
from repro.core.evaluator import run_program
from repro.core.expr import Call, Const, Function, Param, Var
from repro.core.loops import (
    LoopCandidate,
    _decompose_for,
    _decompose_foreach,
    run_loop_strategies,
    typed_variants,
)
from repro.core.types import ANY, BOOL, INT, STRING, list_of
from repro.domains.pexfun import make_pexfun_dsl

ADD = Function("Add", (INT, INT), INT, lambda a, b: a + b)
MUL = Function("Mul", (INT, INT), INT, lambda a, b: a * b)


def foreach_dsl():
    b = DslBuilder("t", start="P")
    b.nt("P", list_of(INT)).nt("e", INT)
    b.param("e")
    b.rule("e", MUL, ["e", "e"])
    b.foreach("P", body_nt="e")
    return b.build()


def for_dsl():
    b = DslBuilder("t", start="P")
    b.nt("P", INT).nt("e", INT)
    b.param("e")
    b.rule("e", ADD, ["e", "e"])
    b.for_loop("P", body_nt="e")
    b.unit("P", "e")
    return b.build()


def split_dsl():
    b = DslBuilder("t", start="P")
    b.nt("P", STRING).nt("e", STRING)
    b.param("e")
    b.foreach("P", body_nt="e", variants=("split",))
    return b.build()


class TestForeachDecomposition:
    SIG = Signature("f", (("xs", list_of(INT)),), list_of(INT))

    def test_paper_example(self):
        # (in = {3,5,4}, RET = {9,25,16}) → three body examples.
        examples = [Example(((3, 5, 4),), (9, 25, 16))]
        body = _decompose_foreach(self.SIG, examples, "xs", reverse=False)
        assert body is not None
        assert len(body) == 3
        assert body[0].args == ((3, 5, 4), 0, 3, ())
        assert body[0].output == 9
        assert body[2].args == ((3, 5, 4), 2, 4, (9, 25))

    def test_length_mismatch_fails_hypothesis(self):
        examples = [Example(((1, 2),), (1,))]
        assert (
            _decompose_foreach(self.SIG, examples, "xs", reverse=False)
            is None
        )

    def test_reverse_variant(self):
        examples = [Example(((1, 2, 3),), (3, 2, 1))]
        body = _decompose_foreach(self.SIG, examples, "xs", reverse=True)
        assert body is not None
        assert body[0].args[-2] == 3  # first iterated element


class TestForDecomposition:
    SIG = Signature("f", (("n", INT),), INT)

    def test_paper_example(self):
        # in=0..3 RET 0,1,3,6: body examples (i, acc) -> RET.
        examples = [
            Example((0,), 0),
            Example((1,), 1),
            Example((2,), 3),
            Example((3,), 6),
        ]
        decomposition = _decompose_for(self.SIG, examples, "n")
        assert decomposition is not None
        body, init, start = decomposition
        assert init == 0
        assert start == 1
        assert [(e.args, e.output) for e in body] == [
            ((1, 0), 1),
            ((2, 1), 3),
            ((3, 3), 6),
        ]

    def test_gaps_skip_pairs(self):
        examples = [Example((0,), 1), Example((2,), 2), Example((3,), 6)]
        decomposition = _decompose_for(self.SIG, examples, "n")
        assert decomposition is not None
        body, init, start = decomposition
        assert init == 1 and start == 1
        assert len(body) == 1  # only the (2,3) pair

    def test_no_pairs_at_all_fails(self):
        examples = [Example((0,), 0), Example((5,), 15)]
        assert _decompose_for(self.SIG, examples, "n") is None

    def test_non_int_param_fails(self):
        sig = Signature("f", (("s", STRING),), INT)
        assert _decompose_for(sig, [Example(("a",), 1)], "s") is None


class TestAssembledCandidates:
    def test_foreach_square_program_runs(self):
        dsl = foreach_dsl()
        sig = Signature("f", (("xs", list_of(INT)),), list_of(INT))
        examples = [Example(((3, 5, 4),), (9, 25, 16))]

        def synth(body_sig, body_examples, start_nt):
            current = Param("current", INT, "e")
            return Call(MUL, (current, current), "e")

        candidates = run_loop_strategies(dsl, sig, examples, synth)
        assert candidates
        program = candidates[0].program
        assert run_program(program, ("xs",), ((2, 3),)) == (4, 9)

    def test_for_sum_program_runs(self):
        dsl = for_dsl()
        sig = Signature("f", (("n", INT),), INT)
        examples = [
            Example((0,), 0),
            Example((1,), 1),
            Example((2,), 3),
        ]

        def synth(body_sig, body_examples, start_nt):
            # Body params are (i, acc): the bound param n is hidden.
            assert "n" not in body_sig.param_names
            i = Param("i", INT, "e")
            acc = Param("acc", INT, "e")
            return Call(ADD, (i, acc), "e")

        candidates = run_loop_strategies(dsl, sig, examples, synth)
        assert candidates
        program = candidates[0].program
        assert run_program(program, ("n",), (5,)) == 15

    def test_split_variant_builds_join_of_pieces(self):
        dsl = split_dsl()
        sig = Signature("f", (("s", STRING),), STRING)
        examples = [Example(("a,b",), "a!,b!")]

        def synth(body_sig, body_examples, start_nt):
            # piece + "!"
            concat = Function(
                "Concat", (STRING, STRING), STRING, lambda a, b: a + b
            )
            return Call(
                concat,
                (Param("current", STRING, "e"), Const("!", STRING, "e")),
                "e",
            )

        candidates = run_loop_strategies(dsl, sig, examples, synth)
        split_candidates = [c for c in candidates if c.variant == "split"]
        assert split_candidates
        program = split_candidates[0].program
        assert run_program(program, ("s",), ("x,y,z",)) == "x!,y!,z!"

    def test_failed_body_synthesis_skipped(self):
        dsl = foreach_dsl()
        sig = Signature("f", (("xs", list_of(INT)),), list_of(INT))
        examples = [Example(((1, 2),), (1, 4))]
        candidates = run_loop_strategies(
            dsl, sig, examples, lambda *a: None
        )
        assert candidates == []


class TestTypePredicate:
    """Only hypotheses that type-check against the signature start a
    body search (``typed_variants``)."""

    INTS = list_of(INT)
    STRS = list_of(STRING)

    @staticmethod
    def _asked(sig, examples):
        asked = []

        def spy(body_sig, body_examples, start_nt):
            asked.append((start_nt, body_sig.return_type))
            return None

        run_loop_strategies(make_pexfun_dsl(), sig, examples, spy)
        return asked

    def test_list_of_ints_asks_only_the_ints_foreach(self):
        sig = Signature("P", (("a", self.INTS),), self.INTS)
        examples = [Example(((3, 5, 4),), (9, 25, 16)), Example(((2,),), (4,))]
        assert self._asked(sig, examples) == [("int", INT)]

    def test_list_of_strs_asks_only_the_strs_foreach(self):
        sig = Signature("P", (("a", self.STRS),), self.STRS)
        examples = [Example((("hi", "bye"),), ("HI", "BYE"))]
        assert self._asked(sig, examples) == [("str", STRING)]

    def test_predicate_per_rule_kind(self):
        pexfun = make_pexfun_dsl()
        rules = {(r.kind, r.nt): r for r in pexfun.loops}
        foreach_ints = rules[("foreach", "ints")]
        assert typed_variants(pexfun, foreach_ints, self.INTS) == ("forward",)
        assert typed_variants(pexfun, foreach_ints, self.STRS) == ()
        assert typed_variants(pexfun, foreach_ints, ANY) == ("forward",)
        assert typed_variants(pexfun, rules[("for", "int")], INT) == ("forward",)
        assert typed_variants(pexfun, rules[("for", "int")], self.INTS) == ()
        split = split_dsl().loops[0]
        assert typed_variants(split_dsl(), split, STRING) == ("split",)
        mixed = DslBuilder("t", start="P")
        mixed.nt("P", list_of(INT)).nt("e", STRING)
        mixed.param("e")
        mixed.foreach("P", body_nt="e", variants=("forward", "reverse"))
        dsl = mixed.build()
        # A body of the wrong element type can never fill the list.
        assert typed_variants(dsl, dsl.loops[0], list_of(INT)) == ()


@pytest.mark.trace_smoke
def test_rule_spans_report_the_loop_searches(tmp_path):
    from repro.core.tds import tds
    from repro.obs import JsonlTracer, tracing
    from repro.obs.report import load_events

    ints = list_of(INT)
    sig = Signature("P", (("a", ints),), ints)
    examples = [Example(((3, 5, 4),), (9, 25, 16)), Example(((2,),), (4,))]
    path = str(tmp_path / "loops.jsonl")
    tracer = JsonlTracer(path)
    with tracing(tracer):
        result = tds(
            sig,
            examples,
            make_pexfun_dsl(),
            budget_factory=lambda: Budget(max_seconds=20, max_expressions=60_000),
        )
    tracer.flush()
    assert result.success
    events = load_events(path)
    spans = {
        (e["attrs"]["kind"], e["attrs"]["nt"]): e["attrs"]
        for e in events
        if e["kind"] == "span" and e["name"] == "dbs.loops.rule"
    }
    assert set(spans) == {
        ("for", "int"), ("for", "str"), ("foreach", "ints"), ("foreach", "strs")
    }
    for key in (("for", "int"), ("for", "str"), ("foreach", "strs")):
        assert spans[key]["variants"] == []
        assert spans[key]["skipped"] == 1
        assert spans[key]["searches"] == 0
        assert spans[key]["search_expressions"] == 0
        assert spans[key]["bodies"] == 0
    ints_rule = spans[("foreach", "ints")]
    assert ints_rule["variants"] == ["forward"]
    assert ints_rule["skipped"] == 0
    assert ints_rule["searches"] == 1
    assert ints_rule["bodies"] == 1 == ints_rule["candidates"]
    # The spent expressions are exactly the nested body runs' budgets.
    nested = [
        e["attrs"]["metrics"]["dbs.expressions"]["value"]
        for e in events
        if e["kind"] == "event"
        and e["name"] == "dbs.metrics"
        and e["attrs"]["nested"]
    ]
    assert len(nested) == 1
    assert ints_rule["search_expressions"] == nested[0] > 0
