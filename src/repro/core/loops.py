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

Strategies never test the assembled program themselves; DBS does.
"""

from __future__ import annotations

from dataclasses import dataclass
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
from .types import INT, STRING, Type, list_of
from .values import freeze

# The sub-synthesis callback: (signature, examples, start_nt) -> program
SubSynthesizer = Callable[[Signature, Sequence[Example], str], Optional[Expr]]


def make_body_synthesizer(
    dsl: Dsl,
    options,
    budget,
    lasy_fns,
    lasy_signatures,
) -> SubSynthesizer:
    """The standard :data:`SubSynthesizer`: a nested DBS call over a
    fresh trivial context at the body's start nonterminal, on a spawned
    slice of the parent budget, with loop strategies disabled (no nested
    loops). The spawned budget shares the parent's hard deadline and
    cancel tokens, so a cancelled request stops its loop bodies too."""
    from dataclasses import replace

    def synthesize_body(
        body_sig: Signature, body_examples: Sequence[Example], start_nt: str
    ) -> Optional[Expr]:
        from .contexts import Context
        from .dbs import dbs  # deferred: loops is imported by dbs
        from .expr import Hole

        sub_context = Context(
            root=Hole(start_nt),
            path=(),
            hole_nt=start_nt,
            hole_type=dsl.type_of(start_nt),
        )
        sub_options = replace(options, enable_loops=False)
        result = dbs(
            contexts=[sub_context],
            examples=body_examples,
            seeds=[],
            dsl=dsl,
            signature=body_sig,
            max_branches=3,
            budget=budget.spawn(0.35),
            lasy_fns=lasy_fns,
            lasy_signatures=lasy_signatures,
            options=sub_options,
        )
        return result.program

    return synthesize_body

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


def run_loop_strategies(
    dsl: Dsl,
    signature: Signature,
    examples: Sequence[Example],
    synthesize_body: SubSynthesizer,
) -> List[LoopCandidate]:
    """Run every loop rule of the DSL; returns assembled candidates."""
    candidates: List[LoopCandidate] = []
    if not examples:
        return candidates
    tracer = get_tracer()
    for rule in dsl.loops:
        with tracer.span(
            "dbs.loops.rule", kind=rule.kind, nt=rule.nt
        ) as span:
            before = len(candidates)
            if rule.kind == "foreach":
                candidates.extend(
                    _foreach_candidates(
                        dsl, signature, examples, rule, synthesize_body
                    )
                )
            elif rule.kind == "for":
                candidates.extend(
                    _for_candidates(
                        dsl, signature, examples, rule, synthesize_body
                    )
                )
            span.set(candidates=len(candidates) - before)
    return candidates


# ---------------------------------------------------------------------
# FOREACH


def _foreach_candidates(
    dsl: Dsl,
    signature: Signature,
    examples: Sequence[Example],
    rule: LoopRule,
    synthesize_body: SubSynthesizer,
) -> List[LoopCandidate]:
    out: List[LoopCandidate] = []
    loop_type = dsl.type_of(rule.nt)
    body_type = dsl.type_of(rule.body_nt)
    for variant in rule.variants:
        if variant in ("forward", "reverse"):
            if not loop_type.is_list:
                continue
            out.extend(
                _foreach_over_lists(
                    dsl,
                    signature,
                    examples,
                    rule,
                    synthesize_body,
                    reverse=(variant == "reverse"),
                )
            )
        elif variant == "split":
            if loop_type != STRING or body_type != STRING:
                continue
            out.extend(
                _foreach_over_split_strings(
                    dsl, signature, examples, rule, synthesize_body
                )
            )
    return out


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
    if dsl.type_of(rule.body_nt) != out_elem:
        return out
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
    dsl: Dsl,
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
    dsl: Dsl,
    signature: Signature,
    examples: Sequence[Example],
    rule: LoopRule,
    synthesize_body: SubSynthesizer,
) -> List[LoopCandidate]:
    out: List[LoopCandidate] = []
    ret_type = signature.return_type
    if dsl.type_of(rule.body_nt) != ret_type:
        return out
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
