"""Loop synthesis strategies (§5.3).

A loop strategy hypothesizes a correspondence between structure in the
input/output examples and iterations of a loop, rewrites the examples
into *loop body* examples, synthesizes the body with a recursive call to
the synthesizer, and wraps the result in boilerplate:

* ``__FOREACH`` — a 1-to-1 correspondence between an input sequence and
  the output sequence; each element yields one body example with extra
  parameters ``i`` (index), ``current`` (element) and ``acc`` (outputs of
  previous iterations). Variants: ``forward``, ``reverse`` (iterate the
  source right-to-left), and ``split`` (the cross-domain variant the
  paper sketches: split an input *string* and the output string on a
  common delimiter and loop over the pieces).
* ``__FOR`` — a pattern *across* examples: example pairs whose designated
  integer input differs by one are adjacent loop iterations, giving body
  examples over ``i`` and ``acc`` (the previous iteration's return
  value); the smallest input seeds the accumulator.

Before any example is decomposed, :func:`typed_variants` drops the
hypotheses that cannot type-check against the function's signature, so
no body search is started that could never succeed. Strategies never
test the assembled program themselves; DBS does.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..obs.trace import get_tracer
from .dsl import Dsl, Example, LoopRule, Signature
from .expr import (
    Const,
    Expr,
    Foreach,
    ForLoop,
    Function,
    Lambda,
    Param,
    Var,
)
from .types import INT, STRING, Type, list_of, types_compatible
from .values import freeze

# The sub-synthesis callback: (signature, examples, start_nt) -> program.
# One that counts what it spends exposes the running total as an
# ``expressions`` attribute, which the rule spans report.
SubSynthesizer = Callable[[Signature, Sequence[Example], str], Optional[Expr]]


class BodySynthesizer:
    """The standard :data:`SubSynthesizer`: a nested DBS call over a
    fresh trivial context at the body's start nonterminal, on a spawned
    slice of the parent budget, with loop strategies disabled (no nested
    loops). The spawned budget shares the parent's hard deadline and
    cancel tokens, so a cancelled request stops its loop bodies too.
    ``expressions`` totals what the spawned budgets spent."""

    def __init__(self, dsl: Dsl, options, budget, lasy_fns, lasy_signatures):
        self.dsl = dsl
        self.options = replace(options, enable_loops=False)
        self.budget = budget
        self.lasy_fns = lasy_fns
        self.lasy_signatures = lasy_signatures
        self.expressions = 0

    def __call__(
        self, body_sig: Signature, body_examples: Sequence[Example], start_nt: str
    ) -> Optional[Expr]:
        from .contexts import Context
        from .dbs import dbs  # deferred: loops is imported by dbs
        from .expr import Hole

        sub_context = Context(
            root=Hole(start_nt),
            path=(),
            hole_nt=start_nt,
            hole_type=self.dsl.type_of(start_nt),
        )
        result = dbs(
            contexts=[sub_context],
            examples=body_examples,
            seeds=[],
            dsl=self.dsl,
            signature=body_sig,
            max_branches=3,
            budget=self.budget.spawn(0.35),
            lasy_fns=self.lasy_fns,
            lasy_signatures=self.lasy_signatures,
            options=self.options,
        )
        self.expressions += result.stats.expressions
        return result.program


# Delimiters tried by the 'split' variant.
_SPLIT_DELIMITERS = ("\n", " ", ",", ", ", ";", "\t", "|", "-")


def _split_sep(text: str, sep: str) -> Tuple[str, ...]:
    return tuple(text.split(sep))


def _join_sep(sep: str, pieces: Any) -> str:
    return sep.join(pieces)


SPLIT_FN = Function("SplitSep", (STRING, STRING), list_of(STRING), _split_sep)
JOIN_FN = Function("JoinSep", (STRING, list_of(STRING)), STRING, _join_sep)


def _bind_loop_vars(body: Expr, var_types: Dict[str, Type]) -> Expr:
    """Rewrite body references to the strategy's extra parameters
    (``i``/``current``/``acc``) from :class:`Param` nodes — how the body
    synthesizer saw them — into :class:`Var` nodes bound by the loop's
    lambda."""
    if isinstance(body, Param) and body.name in var_types:
        return Var(body.name, var_types[body.name], body.nt)
    children = body.children()
    if not children:
        return body
    new_children = tuple(_bind_loop_vars(c, var_types) for c in children)
    if new_children == children:
        return body
    return body.with_children(new_children)


@dataclass
class LoopCandidate:
    """A fully assembled loop program plus provenance for diagnostics."""

    program: Expr
    rule: LoopRule
    variant: str
    param_name: str


def typed_variants(dsl: Dsl, rule: LoopRule, return_type: Type) -> Tuple[str, ...]:
    """The variants of ``rule`` whose loop hypothesis type-checks for a
    function returning ``return_type``, decided from the DSL and the
    signature alone:

    * FOR: the body's type is the return type (each iteration returns
      the accumulator's next value);
    * FOREACH ``forward``/``reverse``: the rule's nonterminal is a list
      type compatible with the return type, and the body's type is its
      element type;
    * FOREACH ``split``: the rule's nonterminal and the body are strings.

    A nonterminal's expressions evaluate to values of its type or to
    errors, so the body search of a hypothesis dropped here could never
    succeed; it is not started."""
    loop_type = dsl.type_of(rule.nt)
    body_type = dsl.type_of(rule.body_nt)

    def type_checks(variant: str) -> bool:
        if rule.kind == "for":
            return body_type == return_type
        if variant in ("forward", "reverse"):
            return (
                loop_type.is_list
                and body_type == loop_type.element_type()
                and types_compatible(return_type, loop_type)
            )
        if variant == "split":
            return loop_type == STRING and body_type == STRING
        return False

    return tuple(v for v in rule.variants if type_checks(v))


class _CountedSearches:
    """A rule's body searches, counted for its ``dbs.loops.rule`` span."""

    def __init__(self, synthesize_body: SubSynthesizer):
        self.synthesize_body = synthesize_body
        self.started = 0
        self.found = 0
        self.expressions = 0

    def __call__(
        self, body_sig: Signature, body_examples: Sequence[Example], start_nt: str
    ) -> Optional[Expr]:
        spent = getattr(self.synthesize_body, "expressions", 0)
        self.started += 1
        body = self.synthesize_body(body_sig, body_examples, start_nt)
        self.expressions += getattr(self.synthesize_body, "expressions", 0) - spent
        if body is not None:
            self.found += 1
        return body


def run_loop_strategies(
    dsl: Dsl,
    signature: Signature,
    examples: Sequence[Example],
    synthesize_body: SubSynthesizer,
) -> List[LoopCandidate]:
    """Run every loop rule of the DSL whose hypothesis type-checks
    (:func:`typed_variants`); returns assembled candidates."""
    candidates: List[LoopCandidate] = []
    if not examples:
        return candidates
    tracer = get_tracer()
    for rule in dsl.loops:
        with tracer.span(
            "dbs.loops.rule", kind=rule.kind, nt=rule.nt
        ) as span:
            before = len(candidates)
            variants = typed_variants(dsl, rule, signature.return_type)
            searches = _CountedSearches(synthesize_body)
            for variant in variants:
                if rule.kind == "for":
                    found = _for_candidates(signature, examples, rule, searches)
                elif variant == "split":
                    found = _foreach_over_split_strings(
                        signature, examples, rule, searches
                    )
                else:
                    found = _foreach_over_lists(
                        dsl,
                        signature,
                        examples,
                        rule,
                        searches,
                        reverse=(variant == "reverse"),
                    )
                candidates.extend(found)
            span.set(
                candidates=len(candidates) - before,
                variants=list(variants),
                skipped=len(rule.variants) - len(variants),
                searches=searches.started,
                search_expressions=searches.expressions,
                bodies=searches.found,
            )
    return candidates


# ---------------------------------------------------------------------
# FOREACH


def _foreach_over_lists(
    dsl: Dsl,
    signature: Signature,
    examples: Sequence[Example],
    rule: LoopRule,
    synthesize_body: SubSynthesizer,
    reverse: bool,
) -> List[LoopCandidate]:
    out: List[LoopCandidate] = []
    out_elem = dsl.type_of(rule.nt).element_type()
    for pname, pty in signature.params:
        if not pty.is_list:
            continue
        decomposition = _decompose_foreach(
            signature, examples, pname, reverse=reverse
        )
        if decomposition is None:
            continue
        body_sig = Signature(
            name=f"{signature.name}__body",
            params=signature.params
            + (("i", INT), ("current", pty.element_type()), ("acc", list_of(out_elem))),
            return_type=out_elem,
        )
        body = synthesize_body(body_sig, decomposition, rule.body_nt)
        if body is None:
            continue
        body = _bind_loop_vars(
            body,
            {"i": INT, "current": pty.element_type(), "acc": list_of(out_elem)},
        )
        lam = Lambda(
            (
                Var("i", INT, "τ:int"),
                Var("current", pty.element_type(), f"τ:{pty.element_type()}"),
                Var("acc", list_of(out_elem), f"τ:{list_of(out_elem)}"),
            ),
            body,
            f"lambda(i,current,acc:{rule.body_nt})",
        )
        source = Param(pname, pty, "τ:" + str(pty))
        program = Foreach(source, lam, rule.nt, reverse=reverse)
        out.append(LoopCandidate(program, rule, "reverse" if reverse else "forward", pname))
    return out


def _decompose_foreach(
    signature: Signature,
    examples: Sequence[Example],
    pname: str,
    reverse: bool,
) -> Optional[List[Example]]:
    """Split whole-function examples into per-element body examples, or
    None if the 1-to-1 hypothesis fails on any example."""
    index = signature.param_names.index(pname)
    body_examples: List[Example] = []
    for example in examples:
        source = example.args[index]
        output = example.output
        if not isinstance(source, tuple) or not isinstance(output, tuple):
            return None
        if len(source) != len(output):
            return None
        items = list(source)
        outs = list(output)
        if reverse:
            items.reverse()
            outs.reverse()
        acc: List[Any] = []
        for i, (current, expected) in enumerate(zip(items, outs)):
            body_examples.append(
                Example(
                    args=example.args
                    + (i, freeze(current), tuple(acc)),
                    output=freeze(expected),
                )
            )
            acc.append(freeze(expected))
    return body_examples


def _foreach_over_split_strings(
    signature: Signature,
    examples: Sequence[Example],
    rule: LoopRule,
    synthesize_body: SubSynthesizer,
) -> List[LoopCandidate]:
    """The 'split' variant: pick a delimiter splitting every input string
    and its output into equally many pieces, loop over the pieces."""
    out: List[LoopCandidate] = []
    for pname, pty in signature.params:
        if pty != STRING:
            continue
        index = signature.param_names.index(pname)
        for sep in _SPLIT_DELIMITERS:
            body_examples: List[Example] = []
            feasible = True
            interesting = False
            for example in examples:
                source = example.args[index]
                output = example.output
                if not isinstance(source, str) or not isinstance(output, str):
                    feasible = False
                    break
                pieces_in = source.split(sep)
                pieces_out = output.split(sep)
                if len(pieces_in) != len(pieces_out):
                    feasible = False
                    break
                if len(pieces_in) > 1:
                    interesting = True
                acc: List[str] = []
                for i, (current, expected) in enumerate(
                    zip(pieces_in, pieces_out)
                ):
                    body_examples.append(
                        Example(
                            args=example.args + (i, current, tuple(acc)),
                            output=expected,
                        )
                    )
                    acc.append(expected)
            if not feasible or not interesting:
                continue
            body_sig = Signature(
                name=f"{signature.name}__body",
                params=signature.params
                + (("i", INT), ("current", STRING), ("acc", list_of(STRING))),
                return_type=STRING,
            )
            body = synthesize_body(body_sig, body_examples, rule.body_nt)
            if body is None:
                continue
            body = _bind_loop_vars(
                body,
                {"i": INT, "current": STRING, "acc": list_of(STRING)},
            )
            lam = Lambda(
                (
                    Var("i", INT, "τ:int"),
                    Var("current", STRING, "τ:str"),
                    Var("acc", list_of(STRING), "τ:list<str>"),
                ),
                body,
                f"lambda(i,current,acc:{rule.body_nt})",
            )
            source = Param(pname, STRING, "τ:str")
            from .expr import Call

            split = Call(SPLIT_FN, (source, Const(sep, STRING, "τ:str")), "τ:list<str>")
            loop = Foreach(split, lam, "τ:list<str>")
            program = Call(JOIN_FN, (Const(sep, STRING, "τ:str"), loop), rule.nt)
            out.append(LoopCandidate(program, rule, "split", pname))
    return out


# ---------------------------------------------------------------------
# FOR


def _for_candidates(
    signature: Signature,
    examples: Sequence[Example],
    rule: LoopRule,
    synthesize_body: SubSynthesizer,
) -> List[LoopCandidate]:
    out: List[LoopCandidate] = []
    ret_type = signature.return_type
    for pname, pty in signature.params:
        if pty != INT:
            continue
        decomposition = _decompose_for(signature, examples, pname)
        if decomposition is None:
            continue
        body_examples, init_value, start = decomposition
        # The bound parameter is dropped from the body's view: in every
        # body example it would equal ``i`` (examples are built from the
        # final iteration), making the two indistinguishable and letting
        # the body overfit on the parameter.
        other_params = tuple(p for p in signature.params if p[0] != pname)
        body_sig = Signature(
            name=f"{signature.name}__body",
            params=other_params + (("i", INT), ("acc", ret_type)),
            return_type=ret_type,
        )
        body = synthesize_body(body_sig, body_examples, rule.body_nt)
        if body is None:
            continue
        body = _bind_loop_vars(body, {"i": INT, "acc": ret_type})
        lam = Lambda(
            (Var("i", INT, "τ:int"), Var("acc", ret_type, f"τ:{ret_type}")),
            body,
            f"lambda(i,acc:{rule.body_nt})",
        )
        program = ForLoop(
            bound=Param(pname, INT, "τ:int"),
            init=Const(init_value, ret_type, f"τ:{ret_type}"),
            body=lam,
            nt=rule.nt,
            start=start,
        )
        out.append(LoopCandidate(program, rule, "forward", pname))
    return out


def _decompose_for(
    signature: Signature,
    examples: Sequence[Example],
    pname: str,
) -> Optional[Tuple[List[Example], Any, int]]:
    """Pair examples whose ``pname`` inputs are consecutive (with all
    other arguments equal) into loop-body examples; the smallest input
    seeds the accumulator. Returns (body examples, init value, start)."""
    index = signature.param_names.index(pname)
    groups: Dict[Tuple[Any, ...], Dict[int, Any]] = {}
    for example in examples:
        n = example.args[index]
        if not isinstance(n, int) or isinstance(n, bool):
            return None
        rest = example.args[:index] + example.args[index + 1:]
        groups.setdefault(freeze(rest), {})[n] = example
    body_examples: List[Example] = []
    inits: List[Tuple[int, Any]] = []
    paired = False
    for mapping in groups.values():
        ns = sorted(mapping)
        base = ns[0]
        inits.append((base, mapping[base].output))
        for n in ns[1:]:
            prev = mapping.get(n - 1)
            if prev is None:
                continue  # gaps contribute no body example; pairs do
            current = mapping[n]
            other_args = (
                current.args[:index] + current.args[index + 1:]
            )
            body_examples.append(
                Example(
                    args=other_args + (n, freeze(prev.output)),
                    output=freeze(current.output),
                )
            )
            paired = True
    if not paired or not inits:
        return None
    base_values = {b for b, _ in inits}
    init_values = {freeze(v) for _, v in inits}
    if len(base_values) != 1 or len(init_values) != 1:
        return None  # strategy needs a single constant seed
    base = base_values.pop()
    return body_examples, inits[0][1], base + 1
