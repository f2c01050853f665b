"""Tests for the component pool (§5.1): a ``PoolStore`` seeded and grown
by an ``Enumerator``."""

import pytest

from repro.core.budget import Budget, BudgetExhausted
from repro.core.dsl import DslBuilder, Example, LambdaSpec, Signature
from repro.core.expr import Call, Const, Lambda, Param, Recurse, Var
from repro.core.engine import Enumerator, PoolOptions, PoolStore
from repro.core.types import BOOL, INT, STRING, list_of


def arith_dsl(with_rewrites=True):
    from repro.core.rewrite import parse_rule

    b = DslBuilder("arith", start="e")
    b.nt("e", INT).nt("b", BOOL)
    b.param("e")
    b.constant("e")
    b.fn("e", "Add", ["e", "e"], lambda a, c: a + c)
    b.fn("e", "Mul", ["e", "e"], lambda a, c: a * c)
    b.fn("b", "Lt", ["e", "e"], lambda a, c: a < c)
    b.constants_from(lambda examples: {"e": [0, 1, 2]})
    if with_rewrites:
        b.rewrite(parse_rule("Add(a0, a1) ==> Add(a1, a0)", ["Add"]))
    return b.build()


SIG = Signature("f", (("x", INT),), INT)
EXAMPLES = [Example((2,), 4), Example((5,), 10)]


def make_pool(dsl=None, examples=EXAMPLES, seeds=(), **kwargs):
    """A store seeded with the atoms and ``seeds``, and the enumerator
    that grows it."""
    store = PoolStore(dsl or arith_dsl(), SIG, examples, **kwargs)
    enum = Enumerator(store)
    enum.seed(seeds)
    return store, enum


class TestAtoms:
    def test_params_and_constants_seeded(self):
        store, _ = make_pool()
        atoms = {str(e) for e in store.expressions("e")}
        assert "x" in atoms
        assert "0" in atoms and "1" in atoms

    def test_seeds_are_admitted(self):
        seed = Call(
            arith_dsl().functions()[0],
            (Param("x", INT, "e"), Param("x", INT, "e")),
            "e",
        )
        store, _ = make_pool(seeds=[seed])
        assert seed in store.expressions("e")


class TestGeneration:
    def test_advance_produces_compositions(self):
        _, enum = make_pool()
        added = enum.advance()
        rendered = {str(e) for e in added}
        assert "Mul(x, x)" in rendered or "Add(x, x)" in rendered

    def test_all_smaller_before_larger(self):
        _, enum = make_pool()
        gen1 = enum.advance()
        assert all(e.size <= 3 for e in gen1)
        gen2 = enum.advance()
        assert any(e.size == 5 for e in gen2)

    def test_no_duplicate_expressions_across_generations(self):
        store, enum = make_pool()
        seen = set()
        for expr in store.all_expressions():
            assert (expr.nt, expr) not in seen
            seen.add((expr.nt, expr))
        for _ in range(2):
            for expr in enum.advance():
                key = (expr.nt, expr)
                assert key not in seen
                seen.add(key)


class TestSemanticDedup:
    def test_equivalent_expressions_merged(self):
        # On inputs x=2 and x=-1, x*x and 2+x coincide... use the paper's
        # example: with those inputs they are identical and merge.
        examples = [Example((2,), 0), Example((-1,), 0)]
        store, enum = make_pool(examples=examples)
        enum.advance()
        values = {}
        for entry in store._entries["e"]:
            if entry.values is not None:
                assert entry.values not in values, (
                    f"{entry.expr} duplicates {values[entry.values]}"
                )
                values[entry.values] = entry.expr

    def test_dedup_disabled_keeps_duplicates(self):
        examples = [Example((2,), 0), Example((-1,), 0)]
        deduped, enum = make_pool(examples=examples)
        enum.advance()
        raw, raw_enum = make_pool(
            examples=examples, options=PoolOptions(semantic_dedup=False)
        )
        raw_enum.advance()
        assert raw.total() > deduped.total()

    def test_error_vector_is_a_signature(self):
        # Two always-crashing expressions share one representative.
        b = DslBuilder("err", start="e")
        b.nt("e", INT)
        b.param("e")
        b.fn("e", "Boom", ["e"], lambda a: 1 // 0)
        b.fn("e", "Bang", ["e"], lambda a: [][0])
        dsl = b.build()
        store, enum = make_pool(dsl)
        enum.advance()
        crashing = [
            e
            for e in store.expressions("e")
            if str(e).startswith(("Boom", "Bang"))
        ]
        assert len(crashing) == 1


class TestValueVectors:
    def test_closed_expressions_carry_values(self):
        store, enum = make_pool()
        enum.advance()
        for entry in store._entries["e"]:
            assert entry.values is not None
            assert len(entry.values) == len(EXAMPLES)

    def test_fast_path_matches_full_evaluation(self):
        from repro.core.evaluator import try_run

        store, enum = make_pool()
        enum.advance()
        enum.advance()
        for entry in store._entries["e"][:50]:
            for example, value in zip(EXAMPLES, entry.values):
                assert try_run(entry.expr, ("x",), example.args) == value


class TestRecursionShapes:
    def recurse_dsl(self):
        b = DslBuilder("rec", start="e")
        b.nt("e", INT)
        b.param("e")
        b.fn("e", "Dec", ["e"], lambda a: a - 1)
        b.recurse("e", ["e"])
        return b.build()

    def test_recursive_exprs_pooled_without_values(self):
        store, enum = make_pool(self.recurse_dsl())
        enum.advance()
        enum.advance()
        recursive = [
            e for e in store.expressions("e") if "recurse" in str(e)
        ]
        assert recursive
        entries = {id(en.expr) for en in store._entries["e"] if en.values is None}
        assert entries  # recursion is exempt from value vectors

    def test_constant_arg_recursion_rejected(self):
        store, _ = make_pool(self.recurse_dsl())
        rejected = store.offer(Recurse((Const(1, INT, "e"),), "e"))
        assert rejected is None


class TestBudgets:
    def test_expression_budget_enforced(self):
        store, enum = make_pool(budget=Budget(max_expressions=5))
        for _ in range(3):
            enum.advance()
        assert store.exhausted
        assert store.budget.expressions <= 6  # one overshoot charge at most

    def test_advance_returns_partial_on_exhaustion(self):
        store, enum = make_pool(budget=Budget(max_expressions=30))
        added = enum.advance()
        assert store.exhausted or added


class TestVarExpressions:
    def lambda_dsl(self):
        b = DslBuilder("lam", start="e")
        b.nt("e", INT)
        b.param("e")
        b.fn("e", "Apply", [LambdaSpec(("w",), (INT,), "e")], lambda f: f(3))
        b.var("e", "w")
        b.fn("e", "Add", ["e", "e"], lambda a, c: a + c)
        return b.build()

    def test_var_atoms_seeded(self):
        store, _ = make_pool(self.lambda_dsl())
        assert any(isinstance(e, Var) for e in store.expressions("e"))

    def test_var_size_cap(self, monkeypatch):
        from repro.core.engine import pool as pool_module

        monkeypatch.setattr(pool_module, "_MAX_VAR_EXPR_SIZE", 1)
        store, enum = make_pool(self.lambda_dsl())
        enum.advance()
        from repro.core.expr import free_vars

        for expr in store.expressions("e"):
            if free_vars(expr):
                assert expr.size <= 1

    def test_lambda_bodies_require_var_use(self):
        store, enum = make_pool(self.lambda_dsl())
        enum.advance()
        enum.advance()
        applies = [e for e in store.expressions("e") if str(e).startswith("Apply")]
        assert applies
        for expr in applies:
            lam = expr.args[0]
            assert isinstance(lam, Lambda)
            from repro.core.expr import free_vars

            assert "w" in free_vars(lam.body)


class TestNoDslMode:
    def test_type_directed_generation(self):
        store, enum = make_pool(options=PoolOptions(use_dsl=False))
        enum.advance()
        rendered = {str(e) for e in store.all_expressions()}
        assert "Add(x, x)" in rendered or "Mul(x, x)" in rendered

    def test_pseudo_nonterminals_by_type(self):
        store, _ = make_pool(options=PoolOptions(use_dsl=False))
        assert store.expressions("τ:int")
