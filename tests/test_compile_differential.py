"""Differential property test: compiled closures vs the interpreter.

The compiled engine (``repro.core.compile``) must be observationally
identical to the reference tree-walking interpreter
(``repro.core.evaluator.evaluate``): same values, same ``ERROR``
outcomes (exact exception messages), and same fuel trajectory —
including *where* fuel exhaustion trips when the budget is tight.

This file checks that on ``N_EXPRS`` seeded-random well-typed
expressions per domain, generated top-down from each domain's DSL
productions and evaluated on real benchmark/puzzle inputs. Each
expression is run twice: once with ample fuel (value/error parity) and
once with a tight random budget (fuel-exhaustion parity).
"""

import random

import pytest

from repro.core.compile import clear_cache, compile_expr
from repro.core.dsl import Example, LambdaSpec, NtRef, Production, Signature
from repro.core.evaluator import Env, EvaluationError, Fuel, evaluate
from repro.core.expr import (
    Call,
    Const,
    Expr,
    Foreach,
    ForLoop,
    If,
    Lambda,
    Param,
    Var,
)
from repro.core.engine.enumerator import lambda_nt
from repro.core.types import BOOL, INT, STRING, Type, types_compatible
from repro.core.values import freeze
from repro.domains.registry import get_domain
from repro.lasy.parser import parse_lasy
from repro.lasy.runner import _coerce_example
from repro.pex.puzzles import PUZZLES
from repro.suites.strings_suite import STRING_BENCHMARKS
from repro.suites.tables_suite import TABLE_BENCHMARKS
from repro.suites.xml_suite import XML_BENCHMARKS

N_EXPRS = 1000
MAX_DEPTH = 5

DOMAINS = ["strings", "tables", "xml", "pexfun"]

_SUITES = {
    "strings": STRING_BENCHMARKS,
    "tables": TABLE_BENCHMARKS,
    "xml": XML_BENCHMARKS,
}


class _GenFail(Exception):
    """This production can't be instantiated here; try another."""


class ExprGen:
    """Seeded top-down generator of well-typed DSL expressions.

    Mirrors how the component pool instantiates productions (params by
    type compatibility, constants from the DSL's constant provider,
    lambda arguments as ``Lambda`` over typed ``Var``s) and additionally
    wraps results in the ``If``/``Foreach``/``ForLoop`` nodes the
    conditional and loop strategies produce, so every node kind the
    synthesizer can emit is exercised.
    """

    def __init__(self, dsl, signature: Signature, constants, rng):
        self.dsl = dsl
        self.signature = signature
        self.constants = constants
        self.rng = rng
        self.bool_nts = [
            nt for nt, ty in dsl.nonterminals.items() if ty == BOOL
        ]
        self.seq_nts = [
            nt
            for nt, ty in dsl.nonterminals.items()
            if ty == STRING or str(ty).startswith("list")
        ]

    # -- node construction --------------------------------------------

    def gen(self, nt: str, depth: int, bound):
        prods = [
            p
            for p in self.dsl.productions_for(nt)
            if p.kind not in ("lasy_fn", "recurse")
        ]
        self.rng.shuffle(prods)
        # Occasionally reference an enclosing lambda variable directly:
        # exercises Var nodes inside loop/lambda bodies.
        if bound and self.rng.random() < 0.3:
            nt_type = self.dsl.type_of(nt)
            matches = [
                (n, t) for n, t in bound.items() if types_compatible(nt_type, t)
            ]
            if matches:
                name, ty = self.rng.choice(matches)
                return Var(name, ty, nt)
        leaf_first = depth <= 0
        for preferred in (True, False) if leaf_first else (False, True):
            for prod in prods:
                is_leaf = prod.kind in ("param", "constant", "var") or (
                    prod.kind == "call" and not prod.args
                )
                if is_leaf != preferred:
                    continue
                try:
                    return self._instantiate(prod, nt, depth, bound)
                except _GenFail:
                    continue
        raise _GenFail(nt)

    def _instantiate(self, prod: Production, nt: str, depth: int, bound):
        if prod.kind == "param":
            nt_type = self.dsl.type_of(nt)
            options = [
                (name, ty)
                for name, ty in self.signature.params
                if types_compatible(nt_type, ty)
            ]
            if not options:
                raise _GenFail(nt)
            name, ty = self.rng.choice(options)
            return Param(name, ty, nt)
        if prod.kind == "constant":
            values = list(self.constants.get(nt, ()))
            if not values:
                raise _GenFail(nt)
            return Const(self.rng.choice(values), self.dsl.type_of(nt), nt)
        if prod.kind == "var":
            name = prod.var_name or ""
            vty = self.dsl.lambda_vars.get(name)
            if vty is None or name not in bound:
                raise _GenFail(nt)
            return Var(name, vty, nt)
        if prod.kind == "unit":
            target = prod.args[0]
            inner_nt = target.nt if isinstance(target, NtRef) else target
            return self.gen(inner_nt, depth, bound)
        if prod.kind == "call":
            assert prod.func is not None
            args = tuple(
                self._gen_arg(arg, depth - 1, bound) for arg in prod.args
            )
            return Call(prod.func, args, nt)
        raise _GenFail(nt)

    def _gen_arg(self, arg, depth: int, bound):
        if isinstance(arg, NtRef):
            inner = self.rng.choice(self.dsl.expansion(arg.nt))
            return self.gen(inner, depth, bound)
        if isinstance(arg, LambdaSpec):
            params = tuple(
                Var(n, t, f"τ:{t}")
                for n, t in zip(arg.var_names, arg.var_types)
            )
            inner_bound = dict(bound)
            inner_bound.update(zip(arg.var_names, arg.var_types))
            body = self.gen(arg.body_nt, depth, inner_bound)
            return Lambda(params, body, lambda_nt(arg))
        raise _GenFail(str(arg))

    # -- strategy-node wrappers ---------------------------------------

    def maybe_wrap(self, expr: Expr, nt: str, bound):
        """With some probability, wrap in the node kinds that come from
        the conditional (§5.2) and loop (§5.3) strategies rather than
        grammar productions."""
        roll = self.rng.random()
        if roll < 0.10 and self.bool_nts:
            guard = self.gen(self.rng.choice(self.bool_nts), 2, bound)
            orelse = self.gen(nt, 2, bound)
            return If(((guard, expr),), orelse, nt)
        if roll < 0.16 and self.seq_nts:
            src_nt = self.rng.choice(self.seq_nts)
            source = self.gen(src_nt, 2, bound)
            elem = STRING  # str sources iterate as 1-char strings
            body_bound = dict(bound)
            body_bound.update({"i": INT, "current": elem})
            body = self.gen(nt, 2, body_bound)
            lam = Lambda(
                (
                    Var("i", INT, "τ:int"),
                    Var("current", elem, f"τ:{elem}"),
                    Var("acc", STRING, "τ:list"),
                ),
                body,
                nt,
            )
            return Foreach(
                source, lam, nt, reverse=self.rng.random() < 0.5
            )
        if roll < 0.22:
            int_nts = [
                n for n, t in self.dsl.nonterminals.items() if t == INT
            ]
            if int_nts:
                bound_nt = self.rng.choice(int_nts)
                bound_expr = self.gen(bound_nt, 2, bound)
                init = self.gen(nt, 2, bound)
                acc_ty = self.dsl.type_of(nt)
                body_bound = dict(bound)
                body_bound.update({"i": INT, "acc": acc_ty})
                body = self.gen(nt, 2, body_bound)
                lam = Lambda(
                    (
                        Var("i", INT, "τ:int"),
                        Var("acc", acc_ty, f"τ:{acc_ty}"),
                    ),
                    body,
                    nt,
                )
                return ForLoop(bound_expr, init, lam, nt)
        if roll > 0.97:
            # An unbound lambda variable: both engines must raise the
            # same "unbound variable" error.
            return Var("__unbound__", self.dsl.type_of(nt), nt)
        return expr


# ---------------------------------------------------------------------
# Per-domain generation cases: (dsl, signature, input tuples, constants).


def _domain_cases(name):
    domain = get_domain(name)
    dsl = domain.dsl()
    cases = []
    if name == "pexfun":
        for puzzle in PUZZLES:
            if not puzzle.seeds:
                continue
            examples = [
                Example(seed, puzzle.reference(*seed))
                for seed in puzzle.seeds
            ]
            constants = dict(dsl.constants_for(examples))
            cases.append(
                (dsl, puzzle.signature, [e.args for e in examples], constants)
            )
            if len(cases) >= 12:
                break
        return cases
    for bench in _SUITES[name][:8]:
        prog = parse_lasy(bench.source)
        for decl in prog.declarations:
            if decl.is_lookup:
                continue
            stmts = prog.examples_for(decl.name)
            if not stmts:
                continue
            examples = [
                _coerce_example(domain, decl.signature, s) for s in stmts
            ]
            constants = dict(dsl.constants_for(examples))
            cases.append(
                (
                    dsl,
                    decl.signature,
                    [e.args for e in examples],
                    constants,
                )
            )
    return cases


# ---------------------------------------------------------------------
# The differential harness.


def _run_one(runner, signature: Signature, args, fuel: int):
    env = Env(
        params=dict(zip(signature.param_names, args)),
        fuel=Fuel(fuel),
    )
    try:
        value = freeze(runner(env))
        return ("value", value, env.fuel.remaining)
    except EvaluationError as exc:
        return ("error", str(exc), env.fuel.remaining)


def _assert_agree(expr: Expr, signature: Signature, args, fuel: int):
    interp = _run_one(lambda env: evaluate(expr, env), signature, args, fuel)
    compiled = _run_one(compile_expr(expr), signature, args, fuel)
    assert interp == compiled, (
        f"engines diverge on {expr!s} args={args!r} fuel={fuel}:\n"
        f"  interp:   {interp!r}\n"
        f"  compiled: {compiled!r}"
    )


@pytest.mark.parametrize("domain_name", DOMAINS)
def test_compiled_matches_interpreter(domain_name):
    rng = random.Random(f"tds-differential-{domain_name}")
    cases = _domain_cases(domain_name)
    assert cases, f"no generation cases for domain {domain_name}"
    clear_cache()
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
        args = inputs[generated % len(inputs)]
        # Ample fuel: value / ERROR parity.
        _assert_agree(expr, signature, args, fuel=100_000)
        # Tight fuel: exhaustion must trip at the same node with the
        # same remaining balance.
        _assert_agree(
            expr, signature, args, fuel=rng.randint(1, max(2, expr.size))
        )
    assert generated >= N_EXPRS


def test_fuel_exhaustion_message_and_balance_parity():
    dsl = get_domain("pexfun").dsl()
    sig = Signature("P", (("x", INT),), INT)
    fns = {f.name: f for f in dsl.functions()}
    add = next(f for name, f in fns.items() if name in ("Add", "Plus"))
    expr = Call(
        add,
        (Call(add, (Param("x", INT, "e"), Const(1, INT, "e")), "e"),
         Const(2, INT, "e")),
        "e",
    )
    for fuel in range(1, expr.size + 2):
        _assert_agree(expr, sig, (5,), fuel)


def test_compile_cache_is_identity_keyed():
    e1 = Const(1, INT, "e")
    e2 = Const(1, INT, "e")
    assert compile_expr(e1) is compile_expr(e1)
    assert compile_expr(e1) is not compile_expr(e2)
