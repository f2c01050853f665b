"""Syntactic canonicalization: rewrite rules and constant folding (§5.1).

"All expressions constructed are rewritten into canonical forms according
to the rewrite rules in the DSL and duplicates are discarded." The paper
requires the rule set to be acyclic once commutativity-style cycles are
broken. We enforce termination *constructively*:

* a rule whose right-hand side is structurally smaller for every binding
  is ``shrinking`` and always applied;
* any other rule (including commutativity swaps such as
  ``&&(p0, p1) ==> &&(p1, p0)``) is ``guarded``: it is applied only when
  the rewritten expression is strictly smaller under a total order
  (size, then print string), which both breaks the commutativity cycle
  and guarantees the whole system terminates;
* a rule that can only grow its input is rejected when the DSL is built.

Constant folding evaluates calls whose arguments are all literals, so
``2*5`` and ``5+5`` canonicalize to the same component ``10``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Tuple, Union

from .dsl import Dsl, DslError
from .evaluator import EvaluationError, apply_eager
from .expr import Call, Const, Expr, Function, Lambda
from .values import ERROR


# ---------------------------------------------------------------------
# Patterns


@dataclass(frozen=True)
class PVar:
    """A pattern variable; matches any subexpression, consistently."""

    name: str


@dataclass(frozen=True)
class PConst:
    """Matches a literal constant with this exact value."""

    value: Any


@dataclass(frozen=True)
class PCall:
    """Matches a call to the named function with matching arguments."""

    func_name: str
    args: Tuple["Pattern", ...]


Pattern = Union[PVar, PConst, PCall]


def match(pattern: Pattern, expr: Expr) -> Optional[Dict[str, Expr]]:
    """Match ``expr`` against ``pattern``; same variable must bind equal."""
    bindings: Dict[str, Expr] = {}
    if _match_into(pattern, expr, bindings):
        return bindings
    return None


def _match_into(pattern: Pattern, expr: Expr, bindings: Dict[str, Expr]) -> bool:
    if isinstance(pattern, PVar):
        bound = bindings.get(pattern.name)
        if bound is None:
            bindings[pattern.name] = expr
            return True
        return bound == expr
    if isinstance(pattern, PConst):
        return isinstance(expr, Const) and expr.value == pattern.value
    if isinstance(pattern, PCall):
        if not isinstance(expr, Call) or expr.func.name != pattern.func_name:
            return False
        if len(expr.args) != len(pattern.args):
            return False
        return all(
            _match_into(p, a, bindings)
            for p, a in zip(pattern.args, expr.args)
        )
    raise TypeError(f"not a pattern: {pattern!r}")


# ---------------------------------------------------------------------
# Rules


@dataclass(frozen=True)
class RewriteRule:
    """``lhs ==> rhs``. Functions needed to build the RHS are resolved
    from the rule's own LHS match or the DSL's registry at apply time."""

    lhs: Pattern
    rhs: Pattern

    def __str__(self) -> str:
        return f"rewrite {_pattern_str(self.lhs)} ==> {_pattern_str(self.rhs)}"


def _pattern_str(pattern: Pattern) -> str:
    if isinstance(pattern, PVar):
        return pattern.name
    if isinstance(pattern, PConst):
        return repr(pattern.value)
    return (
        f"{pattern.func_name}("
        + ", ".join(_pattern_str(a) for a in pattern.args)
        + ")"
    )


def _structural_nodes(pattern: Pattern) -> int:
    if isinstance(pattern, PCall):
        return 1 + sum(_structural_nodes(a) for a in pattern.args)
    if isinstance(pattern, PConst):
        return 1
    return 0


def _var_counts(pattern: Pattern) -> Dict[str, int]:
    counts: Dict[str, int] = {}
    stack: List[Pattern] = [pattern]
    while stack:
        node = stack.pop()
        if isinstance(node, PVar):
            counts[node.name] = counts.get(node.name, 0) + 1
        elif isinstance(node, PCall):
            stack.extend(node.args)
    return counts


def classify_rule(rule: RewriteRule) -> str:
    """``shrinking`` (always applicable) or ``guarded`` (order-decreasing).

    Raises :class:`DslError` for rules that can only grow expressions,
    which would make the rewrite system cyclic.
    """
    lhs_vars = _var_counts(rule.lhs)
    rhs_vars = _var_counts(rule.rhs)
    for name, count in rhs_vars.items():
        if name not in lhs_vars:
            raise DslError(f"{rule}: unbound variable {name!r} on the right")
    lhs_nodes = _structural_nodes(rule.lhs)
    rhs_nodes = _structural_nodes(rule.rhs)
    vars_shrink = all(
        rhs_vars.get(name, 0) <= count for name, count in lhs_vars.items()
    )
    if vars_shrink and rhs_nodes < lhs_nodes:
        return "shrinking"
    vars_grow = all(
        rhs_vars.get(name, 0) >= count for name, count in lhs_vars.items()
    )
    if rhs_nodes > lhs_nodes and vars_grow:
        raise DslError(f"{rule}: right side can only grow expressions")
    return "guarded"


def order_key(expr: Expr) -> Tuple[int, str]:
    """The total order used to break commutativity cycles."""
    return (expr.size, str(expr))


class RewriteCycleError(RuntimeError):
    """Canonicalization failed to reach a fixpoint within the pass cap."""


_MAX_PASSES = 50

# canonicalize_root memo bound; cleared wholesale on overflow (entries
# are cheap to recompute, eviction bookkeeping is not).
_ROOT_CACHE_LIMIT = 100_000

# canonicalize_root memo value for a node that is its own canonical form.
_CANONICAL = object()


class Rewriter:
    """Applies a DSL's rewrite rules and constant folding to fixpoint."""

    def __init__(self, dsl: Dsl):
        self.dsl = dsl
        self.rules: List[Tuple[RewriteRule, str]] = [
            (rule, classify_rule(rule)) for rule in dsl.rewrites
        ]
        # Rule application scans every rule per candidate; most rules
        # are rooted at a specific function and can only ever match a
        # Call to that function, so precompute the root name (None for
        # PVar/PConst-rooted rules, which must always be tried). The
        # declaration-order scan below is preserved — non-matching
        # roots are skipped, which match() would have rejected anyway.
        self._indexed_rules: List[Tuple[RewriteRule, str, Optional[str]]] = [
            (
                rule,
                kind,
                rule.lhs.func_name if isinstance(rule.lhs, PCall) else None,
            )
            for rule, kind in self.rules
        ]
        self._rule_roots = {root for _, _, root in self._indexed_rules}
        # Whether some rule has a variable or constant root and so may
        # match any node; without one, canonicalize_root returns the
        # roots no rule or fold can touch as they are.
        self._any_root = None in self._rule_roots
        self._functions: Dict[str, Function] = {
            fn.name: fn for fn in dsl.functions()
        }
        self._nt_of_function: Dict[str, str] = {}
        for prod in dsl.productions:
            if prod.kind == "call" and prod.func is not None:
                self._nt_of_function.setdefault(prod.func.name, prod.nt)
        # canonicalize_root memo. Keying on the Expr itself is safe:
        # hash-consed nodes cache their hash, and the cache lives on a
        # per-DSL Rewriter, so same-named functions from another DSL
        # can never alias in here.
        self._root_cache: Dict[Expr, Any] = {}

    # -- public --------------------------------------------------------

    def canonicalize(self, expr: Expr) -> Expr:
        """The canonical form of ``expr``; raises on runaway systems."""
        current = expr
        for _ in range(_MAX_PASSES):
            rewritten = self._rewrite_pass(current)
            if rewritten == current:
                return current
            current = rewritten
        raise RewriteCycleError(
            f"rewrite rules of DSL {self.dsl.name!r} did not converge "
            f"on {expr}"
        )

    def canonicalize_root(self, expr: Expr) -> Expr:
        """Root-only canonicalization for pool admission.

        Pool children are already canonical, so rule application and
        constant folding at the root suffice; the root may need several
        rounds when one rewrite exposes another redex. A root rewrite
        that replaces the node by a (still canonical) child is covered by
        the loop. This is the hot path of §5.1's syntactic dedup, so
        results are memoized: composition re-offers structurally
        identical candidates every generation, and the hash-consed node
        hash makes the lookup O(1).

        A root nothing can touch comes back as it is, before the memo:
        when no rule has a variable or constant root, that is any node
        but a call, and a call whose function roots no rule and which
        has a non-constant argument (see :meth:`fixed_root`). For such
        a root every rule is skipped and folding returns its input, so
        the loop below would return ``expr`` unchanged.
        """
        if not self._any_root:
            if type(expr) is not Call:
                return expr
            if expr.func.name not in self._rule_roots and not all(
                type(a) is Const for a in expr.args
            ):
                return expr
        cached = self._root_cache.get(expr)
        if cached is not None:
            # A node that is its own canonical form comes back as itself,
            # not as the equal node first memoized: the pool counts a
            # different object as a rewrite.
            return expr if cached is _CANONICAL else cached
        current = expr
        for _ in range(_MAX_PASSES):
            rewritten = self._fold_constants(self._apply_rules(current))
            if rewritten == current:
                if len(self._root_cache) >= _ROOT_CACHE_LIMIT:
                    self._root_cache.clear()
                self._root_cache[expr] = _CANONICAL if current is expr else current
                return current
            current = rewritten
        raise RewriteCycleError(
            f"rewrite rules of DSL {self.dsl.name!r} did not converge "
            f"on {expr}"
        )

    def fixed_root(self, func: Function) -> bool:
        """Whether no rule can match a call to ``func`` at its root: none
        is rooted at ``func`` and none has a variable or constant root.
        Constant folding does not fire on a call with a non-constant
        argument either, so such a call over canonical children is its
        own canonical form, and the pool can key it before it is built."""
        return not self._any_root and func.name not in self._rule_roots

    # -- internals -----------------------------------------------------

    def _rewrite_pass(self, expr: Expr) -> Expr:
        children = expr.children()
        if children:
            new_children = tuple(self._rewrite_pass(c) for c in children)
            if new_children != children:
                expr = expr.with_children(new_children)
        expr = self._apply_rules(expr)
        expr = self._fold_constants(expr)
        return expr

    def _apply_rules(self, expr: Expr) -> Expr:
        changed = True
        guard = 0
        while changed:
            changed = False
            guard += 1
            if guard > _MAX_PASSES:
                raise RewriteCycleError(
                    f"rule application loop on {expr} in {self.dsl.name!r}"
                )
            root_name = expr.func.name if type(expr) is Call else None
            for rule, kind, lhs_root in self._indexed_rules:
                if lhs_root is not None and lhs_root != root_name:
                    continue
                bindings = match(rule.lhs, expr)
                if bindings is None:
                    continue
                candidate = self._instantiate(rule.rhs, bindings, expr)
                if candidate == expr:
                    continue
                if kind == "guarded" and order_key(candidate) >= order_key(expr):
                    continue
                expr = candidate
                root_name = expr.func.name if type(expr) is Call else None
                changed = True
        return expr

    def _instantiate(
        self, pattern: Pattern, bindings: Dict[str, Expr], original: Expr
    ) -> Expr:
        if isinstance(pattern, PVar):
            return bindings[pattern.name]
        if isinstance(pattern, PConst):
            nt = original.nt
            ty = self.dsl.type_of(nt) if nt in self.dsl.nonterminals else None
            if ty is None:
                raise DslError(f"cannot type constant {pattern.value!r}")
            return Const(pattern.value, ty, nt)
        func = self._functions.get(pattern.func_name)
        if func is None:
            raise DslError(
                f"rewrite rule references unknown function "
                f"{pattern.func_name!r}"
            )
        nt = self._nt_of_function.get(pattern.func_name, original.nt)
        args = tuple(
            self._instantiate(a, bindings, original) for a in pattern.args
        )
        return Call(func, args, nt)

    def _fold_constants(self, expr: Expr) -> Expr:
        """An eager call whose arguments are all constants, replaced by
        the constant it evaluates to; the call itself when it raises or
        its value cannot be a constant. The component is applied as the
        evaluator applies it (:func:`apply_eager`), without the tree
        walk: the one unit of fuel per node such a call spends can
        never run out."""
        if not isinstance(expr, Call) or expr.func.lazy:
            return expr
        if not all(isinstance(a, Const) for a in expr.args):
            return expr
        try:
            value = apply_eager(expr.func, [a.value for a in expr.args])
        except EvaluationError:
            return expr
        folded = fold_value(expr.func, (value,), expr.nt)
        return expr if folded is None else folded


def fold_value(func: Function, values: Tuple[Any, ...], nt: str) -> Optional[Const]:
    """The constant an eager call to ``func`` over constant arguments
    folds to, read from the call's value vector ``values``; None when
    it does not fold and the call is its own canonical form. The vector
    is constant across the examples, and a batched applier
    (:func:`repro.core.compile.compile_batch`) fills it as
    :meth:`Rewriter._fold_constants` applies the call: ``func.fn`` on
    the same constant values through ``check_value_size(freeze(...))``,
    a raised exception or an oversize value being ``ERROR`` there and
    no fold here. Only hashable plain data folds."""
    value = values[0]
    if value is ERROR or not _foldable_value(value):
        return None
    return Const(value, func.return_type, nt)


def _foldable_value(value: Any) -> bool:
    """Only fold to hashable plain data (never closures)."""
    if callable(value):
        return False
    try:
        hash(value)
    except TypeError:
        return False
    return True


def check_acyclic(dsl: Dsl) -> None:
    """Validate a DSL's rewrite system at build time (used by DslBuilder)."""
    for rule in dsl.rewrites:
        classify_rule(rule)


# ---------------------------------------------------------------------
# Textual rule parsing (used by the DSL definition language)


class RuleParseError(ValueError):
    """A textual rewrite rule could not be parsed."""


def parse_rule(text: str, function_names: Iterable[str]) -> RewriteRule:
    """Parse ``lhs ==> rhs`` where identifiers not naming functions are
    pattern variables and bare integers/strings are literal constants.

    >>> rule = parse_rule('Trim(Trim(f0)) ==> f0', ['Trim'])
    >>> classify_rule(rule)
    'shrinking'
    """
    if "==>" not in text:
        raise RuleParseError(f"missing '==>' in rule: {text!r}")
    lhs_text, rhs_text = text.split("==>", 1)
    names = set(function_names)
    lhs = _parse_pattern(lhs_text.strip(), names)
    rhs = _parse_pattern(rhs_text.strip(), names)
    return RewriteRule(lhs, rhs)


def _parse_pattern(text: str, function_names: set) -> Pattern:
    pattern, pos = _parse_pattern_at(text, 0, function_names)
    if text[pos:].strip():
        raise RuleParseError(f"trailing characters in pattern {text!r}")
    return pattern


def _parse_pattern_at(
    text: str, pos: int, function_names: set
) -> Tuple[Pattern, int]:
    while pos < len(text) and text[pos].isspace():
        pos += 1
    if pos >= len(text):
        raise RuleParseError(f"unexpected end of pattern in {text!r}")
    ch = text[pos]
    if ch == '"':
        end = text.index('"', pos + 1)
        return PConst(text[pos + 1:end]), end + 1
    if ch.isdigit() or (ch == "-" and text[pos + 1: pos + 2].isdigit()):
        start = pos
        pos += 1
        while pos < len(text) and text[pos].isdigit():
            pos += 1
        return PConst(int(text[start:pos])), pos
    start = pos
    while pos < len(text) and (text[pos].isalnum() or text[pos] in "_&|!*+<>=-"):
        pos += 1
    name = text[start:pos].strip()
    if not name:
        raise RuleParseError(f"expected identifier at {pos} in {text!r}")
    while pos < len(text) and text[pos].isspace():
        pos += 1
    if pos < len(text) and text[pos] == "(":
        pos += 1
        args: List[Pattern] = []
        while True:
            arg, pos = _parse_pattern_at(text, pos, function_names)
            args.append(arg)
            while pos < len(text) and text[pos].isspace():
                pos += 1
            if pos >= len(text):
                raise RuleParseError(f"unterminated call in {text!r}")
            if text[pos] == ",":
                pos += 1
                continue
            if text[pos] == ")":
                pos += 1
                break
            raise RuleParseError(f"unexpected {text[pos]!r} in {text!r}")
        return PCall(name, tuple(args)), pos
    if name in function_names:
        return PCall(name, ()), pos
    return PVar(name), pos
