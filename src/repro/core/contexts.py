"""Contexts and subexpressions from the previous program (§4.2).

A context is the previous program with exactly one subexpression removed
(replaced by a hole); "each context represents a hypothesis about which
part of the program is correct and correspondingly that the expression
removed is overspecialized". Contexts are extracted from the whole
program *and from each branch body* of a top-level conditional, so new
conditional structures can be rebuilt out of parts of existing branches.

Contexts whose hole sits inside a conditional branch not executed by any
failing example are pruned: "modifications elsewhere could not possibly
affect whether such examples are handled correctly."
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Set, Tuple

from .dsl import Dsl, Example, Signature
from .evaluator import Env, EvaluationError, Fuel, evaluate
from .expr import Expr, Hole, If, Lambda, Path, Var, get_at, replace_at
from .types import Type


@dataclass(frozen=True)
class Context:
    """A program with one hole. ``root`` contains exactly one
    :class:`Hole` node, at ``path``."""

    root: Expr
    path: Path
    hole_nt: str
    hole_type: Type

    def plug(self, expr: Expr) -> Expr:
        """Fill the hole with ``expr``."""
        return replace_at(self.root, self.path, expr)

    @property
    def is_trivial(self) -> bool:
        """Whether this is the • context (the hole is the whole program)."""
        return not self.path

    def __str__(self) -> str:
        return str(self.root)


def trivial_context(dsl: Dsl) -> Context:
    """The context ``•`` — replace the entire program."""
    start = dsl.start
    return Context(
        root=Hole(start), path=(), hole_nt=start, hole_type=dsl.type_of(start)
    )


def hole_type(dsl: Dsl, node: Expr) -> Type:
    """The type a hole replacing ``node`` would have — the nonterminal's
    declared type, or the type a pseudo-nonterminal tag encodes."""
    if node.nt in dsl.nonterminals:
        return dsl.type_of(node.nt)
    # Pseudo-nonterminals (no-DSL mode) encode the type after 'τ:'.
    from .types import parse_type

    if node.nt.startswith("τ:"):
        return parse_type(node.nt[2:])
    return Type("any")


def _removable(node: Expr, parent: Optional[Expr]) -> bool:
    """Whether a subexpression is a sensible removal point.

    Lambda parameter declarations are not expressions; the bound-variable
    occurrences inside the body are (they are ``var`` components). The
    lambda slot of a loop node cannot hold a hole (the node requires a
    lambda there), so the removal point moves into the lambda's body.
    """
    from .expr import Foreach, ForLoop

    if isinstance(node, Hole):
        return False
    if isinstance(node, Lambda) and isinstance(parent, (Foreach, ForLoop)):
        return False
    return True


def contexts_of(program: Expr, dsl: Dsl) -> List[Context]:
    """All single-hole contexts of ``program`` (Algorithm 1, lines 9-15):
    the trivial context, one context per subexpression of the program, and
    one per subexpression of each top-level branch body."""
    contexts: List[Context] = [trivial_context(dsl)]
    seen: Set[Tuple[Expr, Path]] = set()
    roots: List[Expr] = [program]
    if isinstance(program, If):
        roots.extend(program.bodies())
    for root in roots:
        for path, node in root.walk_with_paths():
            parent = get_at(root, path[:-1]) if path else None
            if not _removable(node, parent):
                continue
            holed = replace_at(root, path, Hole(node.nt))
            key = (holed, path)
            if key in seen:
                continue
            seen.add(key)
            contexts.append(
                Context(
                    root=holed,
                    path=path,
                    hole_nt=node.nt,
                    hole_type=hole_type(dsl, node),
                )
            )
    return contexts


def subexpressions_of(program: Expr) -> List[Expr]:
    """All distinct subexpressions of the previous program, to be added to
    the component set (Algorithm 1, line 12)."""
    seen: Set[Expr] = set()
    out: List[Expr] = []
    for node in program.walk():
        if isinstance(node, Hole):
            continue
        if node in seen:
            continue
        seen.add(node)
        out.append(node)
    return out


def branch_taken(
    program: Expr,
    signature: Signature,
    example: Example,
    fuel: int = 30_000,
) -> Optional[int]:
    """Which top-level branch an example executes (0-based; the else
    branch is the last index). None when the program has no top-level
    conditional or a guard crashes."""
    if not isinstance(program, If):
        return None
    env = Env(
        params=dict(zip(signature.param_names, example.args)),
        recursion_program=program,
        recursion_params=signature.param_names,
        fuel=Fuel(fuel),
    )
    for index, (guard, _) in enumerate(program.branches):
        try:
            test = evaluate(guard, env)
        except EvaluationError:
            return None
        if test is True:
            return index
    return len(program.branches)


def prune_contexts(
    contexts: Sequence[Context],
    program: Expr,
    signature: Signature,
    failing_examples: Iterable[Example],
) -> List[Context]:
    """Drop contexts whose hole lies in a branch body no failing example
    reaches. Guard positions and the trivial context are always kept
    (changing a guard can reroute examples)."""
    if not isinstance(program, If):
        return list(contexts)
    taken: Set[int] = set()
    any_failures = False
    for example in failing_examples:
        any_failures = True
        which = branch_taken(program, signature, example)
        if which is None:
            return list(contexts)  # cannot attribute: keep everything
        taken.add(which)
    if not any_failures:
        return list(contexts)
    # Child layout of If: [g0, b0, g1, b1, ..., else]; body k sits at
    # child index 2k+1, the else body at the last index.
    n_branches = len(program.branches)
    kept: List[Context] = []
    for ctx in contexts:
        if ctx.is_trivial or ctx.root != _holed_matches(program, ctx):
            kept.append(ctx)
            continue
        first = ctx.path[0]
        if first == 2 * n_branches:  # else body subtree
            body_index = n_branches
        elif first % 2 == 1:  # a guarded body subtree
            body_index = first // 2
        else:  # a guard subtree: keep
            kept.append(ctx)
            continue
        if body_index in taken:
            kept.append(ctx)
    return kept


def _holed_matches(program: Expr, ctx: Context) -> Expr:
    """The holed version of ``program`` at the context's path, used to
    distinguish whole-program contexts from per-branch contexts (which
    have a different root and are never pruned by branch reachability)."""
    try:
        node = get_at(program, ctx.path)
    except (IndexError, ValueError):
        return ctx.root  # treat as matching; conservative
    return replace_at(program, ctx.path, Hole(node.nt))
