"""DSL definitions: the grammar, special rules, and expert hints (§3.2).

A DSL is primarily a context-free grammar over pure functions. Each
nonterminal carries a value type; each production describes one way to
build an expression for its nonterminal:

* ``call``     — apply a DSL-defined :class:`~repro.core.expr.Function`
                 to arguments drawn from other nonterminals (arguments may
                 be inline lambda abstractions, for higher-order
                 components such as ``Loop(λw: e)``);
* ``param``    — the ``_PARAM`` rule: any parameter of the function being
                 synthesized whose type matches the nonterminal;
* ``constant`` — the ``_CONSTANT`` rule: literals supplied by the DSL's
                 constant provider (which may inspect the examples);
* ``var``      — a reference to a lambda variable introduced by some
                 lambda argument in the grammar (e.g. the loop variable
                 ``w`` in the FlashFill DSL);
* ``lasy_fn``  — the ``_LASY_FN`` rule: a call to another LaSy function;
* ``recurse``  — the ``_RECURSE`` rule: a recursive self-call.

Beyond the grammar, a DSL records which nonterminals admit the
``__CONDITIONAL`` strategy (§5.2), which admit the ``__FOREACH``/``__FOR``
loop strategies (§5.3), the rewrite rules used for syntactic
canonicalization (§5.1), and a constant provider.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from .expr import Function
from .types import BOOL, Type


@dataclass(frozen=True)
class Signature:
    """The signature of a function being synthesized (from LaSy)."""

    name: str
    params: Tuple[Tuple[str, Type], ...]
    return_type: Type

    @property
    def param_names(self) -> Tuple[str, ...]:
        return tuple(name for name, _ in self.params)

    @property
    def param_types(self) -> Tuple[Type, ...]:
        return tuple(ty for _, ty in self.params)

    def __str__(self) -> str:
        params = ", ".join(f"{ty} {name}" for name, ty in self.params)
        return f"{self.return_type} {self.name}({params})"


@dataclass(frozen=True)
class NtRef:
    """A grammar argument drawn from a nonterminal."""

    nt: str


@dataclass(frozen=True)
class LambdaSpec:
    """An inline lambda argument: ``λ vars . <body_nt>``.

    ``var_names``/``var_types`` introduce lambda variables usable (via
    ``var`` productions) inside expressions of ``body_nt``.
    ``require_var_use`` (default) only admits bodies mentioning at least
    one of the variables — a constant-bodied map/loop is (almost always)
    expressible without the combinator, so enumerating it only multiplies
    the search space.
    """

    var_names: Tuple[str, ...]
    var_types: Tuple[Type, ...]
    body_nt: str
    require_var_use: bool = True


ArgSpec = Union[NtRef, LambdaSpec]


@dataclass(frozen=True)
class Production:
    """One grammar rule ``nt ::= ...``."""

    nt: str
    kind: str  # 'call' | 'param' | 'constant' | 'var' | 'lasy_fn' | 'recurse'
    func: Optional[Function] = None
    args: Tuple[ArgSpec, ...] = ()
    var_name: Optional[str] = None

    def __post_init__(self) -> None:
        if self.kind == "call" and self.func is None:
            raise ValueError("call production requires a function")
        if self.kind == "var" and not self.var_name:
            raise ValueError("var production requires a variable name")
        if self.kind == "unit" and len(self.args) != 1:
            raise ValueError("unit production requires exactly one argument")


@dataclass(frozen=True)
class ConditionalRule:
    """``nt ::= __CONDITIONAL(guard_nt, branch_nt)`` (§5.2)."""

    nt: str
    guard_nt: str
    branch_nt: str


@dataclass(frozen=True)
class LoopRule:
    """``nt ::= __FOREACH(body_nt)`` or ``__FOR(body_nt)`` (§5.3).

    ``variants`` selects strategy refinements: for FOREACH,
    ``('forward', 'reverse', 'split')``; FOR has a single variant.
    """

    nt: str
    kind: str  # 'foreach' | 'for'
    body_nt: str
    variants: Tuple[str, ...] = ("forward",)


ConstantProvider = Callable[..., Mapping[str, Sequence[Any]]]


class DslError(ValueError):
    """An ill-formed DSL definition."""


@dataclass
class Dsl:
    """A complete DSL definition, ready to drive DBS."""

    name: str
    start: str
    nonterminals: Dict[str, Type]
    productions: Tuple[Production, ...]
    conditionals: Tuple[ConditionalRule, ...] = ()
    loops: Tuple[LoopRule, ...] = ()
    rewrites: Tuple[Any, ...] = ()  # RewriteRule; typed loosely to avoid cycle
    constant_provider: Optional[ConstantProvider] = None
    lambda_vars: Dict[str, Type] = field(default_factory=dict)
    # Per-nonterminal semantic-fingerprint adapters: map an evaluated
    # component value to the *observable behaviour* that should drive the
    # §5.1 semantic dedup. The strings domain uses this to fingerprint a
    # position expression by where it resolves in the example strings
    # rather than by its own structure.
    signature_adapters: Dict[str, Any] = field(default_factory=dict)
    # Per-nonterminal admission filters: ``filter(values, examples)``
    # decides whether a closed expression with the given value vector is
    # worth pooling at all. An expert prune hint in the spirit of §5.4's
    # inverse strategies — the strings domain keeps only concatenation
    # pieces that occur inside some expected output.
    admission_filters: Dict[str, Any] = field(default_factory=dict)
    # Composition strategies (§5.4): goal-directed expression builders
    # run by DBS after each generation, e.g. the concatenation inverse.
    composition_strategies: Tuple[Any, ...] = ()

    def __post_init__(self) -> None:
        self._validate()
        self._productions_by_nt: Dict[str, List[Production]] = {}
        for prod in self.productions:
            self._productions_by_nt.setdefault(prod.nt, []).append(prod)

    def _validate(self) -> None:
        if self.start not in self.nonterminals:
            raise DslError(f"start nonterminal {self.start!r} is undefined")
        for prod in self.productions:
            if prod.nt not in self.nonterminals:
                raise DslError(f"production for unknown nonterminal {prod.nt!r}")
            for arg in prod.args:
                if isinstance(arg, NtRef):
                    if arg.nt not in self.nonterminals:
                        raise DslError(
                            f"{prod.nt}: unknown argument nonterminal {arg.nt!r}"
                        )
                elif isinstance(arg, LambdaSpec):
                    if arg.body_nt not in self.nonterminals:
                        raise DslError(
                            f"{prod.nt}: unknown lambda body {arg.body_nt!r}"
                        )
        for rule in self.conditionals:
            for nt in (rule.nt, rule.guard_nt, rule.branch_nt):
                if nt not in self.nonterminals:
                    raise DslError(f"conditional rule uses unknown {nt!r}")
            if self.nonterminals[rule.guard_nt] != BOOL:
                raise DslError(
                    f"conditional guard nonterminal {rule.guard_nt!r} "
                    f"must be bool, is {self.nonterminals[rule.guard_nt]}"
                )
        for rule in self.loops:
            for nt in (rule.nt, rule.body_nt):
                if nt not in self.nonterminals:
                    raise DslError(f"loop rule uses unknown {nt!r}")

    # -- queries -------------------------------------------------------

    def productions_for(self, nt: str) -> List[Production]:
        return self._productions_by_nt.get(nt, [])

    def expansion(self, nt: str) -> Tuple[str, ...]:
        """Nonterminals whose expressions may stand where ``nt`` is
        expected: ``nt`` itself, targets of unit productions, and the
        branch nonterminals of conditional rules (a conditional with a
        single branch is just that branch)."""
        cache = getattr(self, "_expansion_cache", None)
        if cache is None:
            cache = {}
            object.__setattr__(self, "_expansion_cache", cache)
        if nt in cache:
            return cache[nt]
        seen = [nt]
        frontier = [nt]
        while frontier:
            current = frontier.pop()
            for prod in self.productions_for(current):
                if prod.kind == "unit":
                    target = prod.args[0]
                    name = target.nt if isinstance(target, NtRef) else target
                    if name not in seen:
                        seen.append(name)
                        frontier.append(name)
            for rule in self.conditionals:
                if rule.nt == current and rule.branch_nt not in seen:
                    seen.append(rule.branch_nt)
                    frontier.append(rule.branch_nt)
        result = tuple(seen)
        cache[nt] = result
        return result

    def type_of(self, nt: str) -> Type:
        return self.nonterminals[nt]

    @property
    def num_rules(self) -> int:
        """Grammar rule count, the paper's measure of DSL size (§5.1)."""
        return len(self.productions) + len(self.conditionals) + len(self.loops)

    def functions(self) -> List[Function]:
        seen: Dict[str, Function] = {}
        for prod in self.productions:
            if prod.kind == "call" and prod.func is not None:
                seen.setdefault(prod.func.name, prod.func)
        return list(seen.values())

    def constants_for(self, examples: Sequence[Any]) -> Mapping[str, Sequence[Any]]:
        if self.constant_provider is None:
            return {}
        return self.constant_provider(examples)


class DslBuilder:
    """Fluent construction of :class:`Dsl` values.

    >>> from repro.core.types import STRING, INT
    >>> b = DslBuilder('demo', start='S')
    >>> b.nt('S', STRING).nt('N', INT)
    ... # doctest: +ELLIPSIS
    <repro.core.dsl.DslBuilder object at ...>
    """

    def __init__(self, name: str, start: str):
        self.name = name
        self.start = start
        self._nts: Dict[str, Type] = {}
        self._productions: List[Production] = []
        self._conditionals: List[ConditionalRule] = []
        self._loops: List[LoopRule] = []
        self._rewrites: List[Any] = []
        self._constant_provider: Optional[ConstantProvider] = None
        self._lambda_vars: Dict[str, Type] = {}
        self._signature_adapters: Dict[str, Any] = {}
        self._admission_filters: Dict[str, Any] = {}
        self._composition_strategies: List[Any] = []

    def nt(self, name: str, ty: Type) -> "DslBuilder":
        """Declare a nonterminal with its value type."""
        if name in self._nts and self._nts[name] != ty:
            raise DslError(f"nonterminal {name!r} redeclared with new type")
        self._nts[name] = ty
        return self

    def rule(
        self,
        nt: str,
        func: Function,
        args: Sequence[Union[str, ArgSpec]],
    ) -> "DslBuilder":
        """``nt ::= func(args...)``; string args are nonterminal names."""
        specs: List[ArgSpec] = []
        for arg in args:
            if isinstance(arg, str):
                specs.append(NtRef(arg))
            else:
                specs.append(arg)
                if isinstance(arg, LambdaSpec):
                    for vname, vty in zip(arg.var_names, arg.var_types):
                        existing = self._lambda_vars.get(vname)
                        if existing is not None and existing != vty:
                            raise DslError(
                                f"lambda variable {vname!r} declared with "
                                f"two types"
                            )
                        self._lambda_vars[vname] = vty
        self._productions.append(
            Production(nt, "call", func=func, args=tuple(specs))
        )
        return self

    def fn(
        self,
        nt: str,
        name: str,
        arg_nts: Sequence[Union[str, ArgSpec]],
        impl: Callable[..., Any],
        lazy: bool = False,
    ) -> "DslBuilder":
        """Register a Python implementation and add its grammar rule.

        Argument and return types are derived from the nonterminals, which
        keeps builder call sites compact.
        """
        param_types = []
        for arg in arg_nts:
            if isinstance(arg, str):
                param_types.append(self._require_nt(arg))
            elif isinstance(arg, NtRef):
                param_types.append(self._require_nt(arg.nt))
            elif isinstance(arg, LambdaSpec):
                from .types import fun_n

                param_types.append(
                    fun_n(arg.var_types, self._require_nt(arg.body_nt))
                )
        func = Function(
            name=name,
            param_types=tuple(param_types),
            return_type=self._require_nt(nt),
            fn=impl,
            lazy=lazy,
        )
        return self.rule(nt, func, arg_nts)

    def _require_nt(self, name: str) -> Type:
        if name not in self._nts:
            raise DslError(f"nonterminal {name!r} used before declaration")
        return self._nts[name]

    def unit(self, nt: str, target_nt: str) -> "DslBuilder":
        """``nt ::= target_nt`` — a unit (renaming) production."""
        self._productions.append(
            Production(nt, "unit", args=(NtRef(target_nt),))
        )
        return self

    def param(self, nt: str) -> "DslBuilder":
        """``nt ::= _PARAM`` — any parameter of the nonterminal's type."""
        self._productions.append(Production(nt, "param"))
        return self

    def constant(self, nt: str) -> "DslBuilder":
        """``nt ::= _CONSTANT`` — constants from the provider."""
        self._productions.append(Production(nt, "constant"))
        return self

    def var(self, nt: str, var_name: str) -> "DslBuilder":
        """``nt ::= var_name`` — a lambda variable reference."""
        self._productions.append(Production(nt, "var", var_name=var_name))
        return self

    def lasy_fn(self, nt: str, arg_nts: Sequence[str]) -> "DslBuilder":
        """``nt ::= _LASY_FN(arg_nts...)`` — call another LaSy function."""
        self._productions.append(
            Production(nt, "lasy_fn", args=tuple(NtRef(a) for a in arg_nts))
        )
        return self

    def recurse(self, nt: str, arg_nts: Sequence[str]) -> "DslBuilder":
        """``nt ::= _RECURSE(arg_nts...)`` — recursive self-call."""
        self._productions.append(
            Production(nt, "recurse", args=tuple(NtRef(a) for a in arg_nts))
        )
        return self

    def conditional(self, nt: str, guard_nt: str, branch_nt: str) -> "DslBuilder":
        """``nt ::= __CONDITIONAL(guard_nt, branch_nt)``."""
        self._conditionals.append(ConditionalRule(nt, guard_nt, branch_nt))
        return self

    def foreach(
        self, nt: str, body_nt: str, variants: Sequence[str] = ("forward",)
    ) -> "DslBuilder":
        """``nt ::= __FOREACH(body_nt)``."""
        self._loops.append(LoopRule(nt, "foreach", body_nt, tuple(variants)))
        return self

    def for_loop(self, nt: str, body_nt: str) -> "DslBuilder":
        """``nt ::= __FOR(body_nt)``."""
        self._loops.append(LoopRule(nt, "for", body_nt, ("forward",)))
        return self

    def rewrite(self, rule: Any) -> "DslBuilder":
        self._rewrites.append(rule)
        return self

    def constants_from(self, provider: ConstantProvider) -> "DslBuilder":
        self._constant_provider = provider
        return self

    def signature_adapter(self, nt: str, adapter: Any) -> "DslBuilder":
        """Fingerprint values of ``nt`` by ``adapter(value, example)``
        during semantic dedup instead of by the raw value."""
        self._signature_adapters[nt] = adapter
        return self

    def admission_filter(self, nt: str, predicate: Any) -> "DslBuilder":
        """Pool a closed expression of ``nt`` only when
        ``predicate(values, examples)`` holds for its value vector."""
        self._admission_filters[nt] = predicate
        return self

    def composition_strategy(self, strategy: Any) -> "DslBuilder":
        """Register a goal-directed composition strategy (§5.4)."""
        self._composition_strategies.append(strategy)
        return self

    def lambda_var_type(self, name: str) -> Type:
        return self._lambda_vars[name]

    def function_names(self) -> List[str]:
        """Names of the component functions registered so far."""
        out: List[str] = []
        for prod in self._productions:
            if prod.kind == "call" and prod.func is not None:
                if prod.func.name not in out:
                    out.append(prod.func.name)
        return out

    def build(self) -> Dsl:
        dsl = Dsl(
            name=self.name,
            start=self.start,
            nonterminals=dict(self._nts),
            productions=tuple(self._productions),
            conditionals=tuple(self._conditionals),
            loops=tuple(self._loops),
            rewrites=tuple(self._rewrites),
            constant_provider=self._constant_provider,
            lambda_vars=dict(self._lambda_vars),
            signature_adapters=dict(self._signature_adapters),
            admission_filters=dict(self._admission_filters),
            composition_strategies=tuple(self._composition_strategies),
        )
        from .rewrite import check_acyclic

        check_acyclic(dsl)
        return dsl


@dataclass(frozen=True)
class Example:
    """One ``require f(args...) == output`` example."""

    args: Tuple[Any, ...]
    output: Any

    def __str__(self) -> str:
        from .values import value_repr

        rendered = ", ".join(value_repr(a) for a in self.args)
        return f"({rendered}) == {value_repr(self.output)}"
