"""Differential tests for construction-time expression caches.

``Expr`` nodes are immutable and hash-consed, so their traversal
results — free lambda variables (``free_var_set``), recursion flags
(``has_recurse``), the structural hash, and the canonical form under
the DSL's rewrite rules — are computed once at construction (or, for
canonicalization, identity-memoized with a root-indexed rule scan).
This file checks every cached result against an independent fresh
recomputation over the same seeded 1000-expressions × 4-domains corpus
as ``test_compile_differential``, plus the expressions a real
enumeration run admits on each enumeration path
(``test_enum_batched.enum_path``: the path governs which pipeline
*built* the pooled expressions).
"""

import random

import pytest

from repro.core.budget import Budget
from repro.core.dbs import DbsStats
from repro.core.dsl import Example, Signature
from repro.core.engine import Enumerator, PoolStore
from repro.core.expr import Expr, Lambda, Recurse, Var, free_vars, is_recursive
from repro.core.rewrite import (
    DslError,
    RewriteCycleError,
    Rewriter,
    match,
    order_key,
)
from repro.core.types import STRING
from repro.domains.registry import get_domain
from tests.test_compile_differential import (
    DOMAINS,
    MAX_DEPTH,
    ExprGen,
    _domain_cases,
    _GenFail,
)
from tests.test_enum_batched import enum_path

N_EXPRS = 1000


# ---------------------------------------------------------------------
# Independent reference recomputations.


def _ref_free_vars(expr: Expr) -> frozenset:
    """Fresh recursive traversal — the pre-cache definition."""
    if isinstance(expr, Var):
        return frozenset((expr.name,))
    if isinstance(expr, Lambda):
        return _ref_free_vars(expr.body) - {p.name for p in expr.params}
    out: frozenset = frozenset()
    for child in expr.children():
        out |= _ref_free_vars(child)
    return out


def _ref_is_recursive(expr: Expr) -> bool:
    if isinstance(expr, Recurse):
        return True
    return any(_ref_is_recursive(c) for c in expr.children())


def _rebuild(expr: Expr) -> Expr:
    """A structurally identical tree of entirely fresh nodes, so every
    construction-time cache on the copy is computed from scratch."""
    children = expr.children()
    if not children:
        # Leaves are frozen dataclasses: with_children(()) returns the
        # node itself, so clone via the dataclass constructor instead.
        import dataclasses

        fields = {
            f.name: getattr(expr, f.name)
            for f in dataclasses.fields(expr)
            if f.name not in ("size", "_hash", "free_var_set", "has_recurse")
        }
        return type(expr)(**fields)
    return expr.with_children(tuple(_rebuild(c) for c in children))


class ReferenceRewriter(Rewriter):
    """A Rewriter whose rule scan tries *every* rule in declaration
    order (no root-name index), the pre-index reference semantics."""

    def _apply_rules(self, expr):
        changed = True
        guard = 0
        while changed:
            changed = False
            guard += 1
            if guard > 50:
                raise RewriteCycleError(str(expr))
            for rule, kind in self.rules:
                bindings = match(rule.lhs, expr)
                if bindings is None:
                    continue
                candidate = self._instantiate(rule.rhs, bindings, expr)
                if candidate == expr:
                    continue
                if kind == "guarded" and order_key(candidate) >= order_key(
                    expr
                ):
                    continue
                expr = candidate
                changed = True
        return expr


def _canonical(rewriter, expr):
    try:
        return ("ok", rewriter.canonicalize(expr))
    except (RewriteCycleError, DslError) as exc:
        return ("raise", type(exc).__name__, str(exc))


def _check_expr(expr: Expr, indexed: Rewriter, reference: ReferenceRewriter):
    assert expr.free_var_set == _ref_free_vars(expr)
    assert free_vars(expr) == expr.free_var_set
    assert expr.has_recurse == _ref_is_recursive(expr)
    assert is_recursive(expr) == expr.has_recurse
    for child in expr.children():
        _check_expr(child, indexed, reference)

    copy = _rebuild(expr)
    assert copy == expr
    assert hash(copy) == hash(expr)
    assert copy.size == expr.size
    assert copy.free_var_set == expr.free_var_set
    assert copy.has_recurse == expr.has_recurse

    assert _canonical(indexed, expr) == _canonical(reference, expr)


# ---------------------------------------------------------------------
# The seeded corpus (mirrors test_compile_differential).


@pytest.mark.parametrize("domain_name", DOMAINS)
def test_cached_traversals_match_fresh_recomputation(domain_name):
    rng = random.Random(f"expr-caches-{domain_name}")
    cases = _domain_cases(domain_name)
    assert cases, f"no generation cases for domain {domain_name}"
    dsl = cases[0][0]
    indexed = Rewriter(dsl)
    reference = ReferenceRewriter(dsl)
    generated = 0
    failures = 0
    while generated < N_EXPRS:
        dsl, signature, inputs, constants = cases[generated % len(cases)]
        gen = ExprGen(dsl, signature, constants, rng)
        nt = rng.choice(
            [n for n in dsl.nonterminals if dsl.productions_for(n)]
        )
        try:
            expr = gen.gen(nt, rng.randint(1, MAX_DEPTH), {})
            expr = gen.maybe_wrap(expr, nt, {})
        except _GenFail:
            failures += 1
            assert failures < 10 * N_EXPRS, "generator starved"
            continue
        generated += 1
        _check_expr(expr, indexed, reference)
    assert generated >= N_EXPRS


# ---------------------------------------------------------------------
# Expressions built by the real enumeration pipelines.


@pytest.mark.parametrize("mode", ["batched", "classic"])
def test_pooled_expressions_have_exact_caches(mode):
    dsl = get_domain("strings").dsl()
    signature = Signature("f", (("v", STRING),), STRING)
    examples = [
        Example(("John Smith",), "J.S."),
        Example(("Jane Doe",), "J.D."),
    ]
    stats = DbsStats()
    pool = PoolStore(
        dsl,
        signature,
        examples,
        budget=Budget(max_seconds=60.0, max_expressions=6_000),
        metrics=stats.registry,
    )
    enumerator = Enumerator(pool)
    with enum_path(mode):
        enumerator.seed([])
        enumerator.advance()
        enumerator.advance()
    indexed = Rewriter(dsl)
    reference = ReferenceRewriter(dsl)
    checked = 0
    for nt in pool._entries:
        for entry in pool.iter_entries(nt):
            assert entry.expr.free_var_set == _ref_free_vars(entry.expr)
            assert entry.expr.has_recurse == _ref_is_recursive(entry.expr)
            assert indexed.canonicalize_root(entry.expr) == (
                ReferenceRewriter(dsl).canonicalize_root(entry.expr)
            )
            checked += 1
    assert checked > 50
    # Spot-check the full differential on a slice of admitted entries.
    sample = [
        e.expr
        for nt in sorted(pool._entries)
        for e in list(pool.iter_entries(nt))[:10]
    ]
    for expr in sample:
        _check_expr(expr, indexed, reference)
