"""Fuel-bounded evaluation of expressions on example inputs.

The evaluator is the synthesizer's only oracle: candidate programs are
never analysed, only run (§5.1: expressions "are used to fill in contexts
producing larger programs which are then tested"). Because candidates may
contain unbounded recursion (``_RECURSE``) or runaway loops, every
evaluation carries a *fuel* budget and a recursion-depth limit; exhausting
either raises :class:`EvaluationError`, which the search observes as the
distinguished :data:`~repro.core.values.ERROR` value.

Two execution engines share these semantics: the tree-walking
interpreter in this module (:func:`evaluate`, the reference), and the
closure compiler in :mod:`repro.core.compile` (the default hot path —
see :func:`expression_runner` / :func:`set_eval_mode`, and
docs/performance.md for the strategy and measured speedups).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Mapping, Optional, Sequence, Tuple

from ..obs.metrics import Registry
from .expr import (
    Call,
    Const,
    Expr,
    Foreach,
    ForLoop,
    Hole,
    If,
    Lambda,
    LasyCall,
    Param,
    Recurse,
    Var,
)
from .values import ERROR, freeze

# Process-global evaluator metrics. The evaluator is called from every
# layer (candidate testing, dedup sampling, strategies), so it keeps one
# registry; attribution to a single DBS run reads deltas around the run
# (see core/dbs.py). Hot paths bump ``.value`` directly.
METRICS = Registry()
_RUNS = METRICS.counter("eval.run_program")
_ERRORS = METRICS.counter("eval.run_program_errors")


class EvaluationError(Exception):
    """A candidate program crashed, diverged, or exhausted its budget."""


# ---------------------------------------------------------------------
# Evaluation mode: "compiled" (default) runs expressions through
# repro.core.compile's closure trees; "interp" forces the tree-walking
# interpreter below, which remains the reference semantics (the
# differential test asserts the two agree). Selected at import time by
# the REPRO_EVAL environment variable, switchable at runtime for
# benchmarks and differential tests.

_EVAL_MODE = "interp" if os.environ.get("REPRO_EVAL") == "interp" else "compiled"
_compile_expr: Optional[Callable] = None


def set_eval_mode(mode: str) -> str:
    """Select ``"compiled"`` or ``"interp"``; returns the previous mode."""
    global _EVAL_MODE
    if mode not in ("compiled", "interp"):
        raise ValueError(f"unknown eval mode {mode!r}")
    previous = _EVAL_MODE
    _EVAL_MODE = mode
    return previous


def get_eval_mode() -> str:
    return _EVAL_MODE


def expression_runner(expr: "Expr") -> Callable[["Env"], Any]:
    """A callable evaluating ``expr`` in an :class:`Env` under the
    current mode. In compiled mode this is the memoized closure tree —
    the caller pays compilation once and runs it per example/binding."""
    global _compile_expr
    if _EVAL_MODE == "compiled":
        if _compile_expr is None:
            from .compile import compile_expr as _ce

            _compile_expr = _ce
        return _compile_expr(expr)
    return lambda env: evaluate(expr, env)


DEFAULT_FUEL = 200_000
DEFAULT_MAX_DEPTH = 40


@dataclass
class Fuel:
    """A mutable step budget shared across one evaluation."""

    remaining: int = DEFAULT_FUEL

    def spend(self, amount: int = 1) -> None:
        self.remaining -= amount
        if self.remaining < 0:
            raise EvaluationError("fuel exhausted")


@dataclass
class Env:
    """Everything an expression needs to evaluate.

    ``params`` binds the synthesized function's parameters; ``vars`` binds
    lambda variables; ``recursion`` supplies the program being synthesized
    so ``Recurse`` nodes can call it; ``lasy_fns`` maps names of other
    LaSy functions to plain Python callables.
    """

    params: Mapping[str, Any]
    vars: Dict[str, Any] = field(default_factory=dict)
    lasy_fns: Mapping[str, Callable[..., Any]] = field(default_factory=dict)
    recursion_program: Optional[Expr] = None
    recursion_params: Tuple[str, ...] = ()
    recursion_oracle: Optional[Callable[[Tuple[Any, ...]], Any]] = None
    depth: int = 0
    max_depth: int = DEFAULT_MAX_DEPTH
    fuel: Fuel = field(default_factory=Fuel)

    def with_vars(self, bindings: Mapping[str, Any]) -> "Env":
        merged = dict(self.vars)
        merged.update(bindings)
        return Env(
            params=self.params,
            vars=merged,
            lasy_fns=self.lasy_fns,
            recursion_program=self.recursion_program,
            recursion_params=self.recursion_params,
            recursion_oracle=self.recursion_oracle,
            depth=self.depth,
            max_depth=self.max_depth,
            fuel=self.fuel,
        )

    def recurse_env(self, params: Mapping[str, Any]) -> "Env":
        if self.depth + 1 > self.max_depth:
            raise EvaluationError("recursion depth exceeded")
        return Env(
            params=params,
            vars={},
            lasy_fns=self.lasy_fns,
            recursion_program=self.recursion_program,
            recursion_params=self.recursion_params,
            recursion_oracle=self.recursion_oracle,
            depth=self.depth + 1,
            max_depth=self.max_depth,
            fuel=self.fuel,
        )


def evaluate(expr: Expr, env: Env) -> Any:
    """Evaluate ``expr`` in ``env``; raises :class:`EvaluationError`."""
    env.fuel.spend()
    if isinstance(expr, Const):
        return expr.value
    if isinstance(expr, Param):
        try:
            return env.params[expr.name]
        except KeyError as exc:
            raise EvaluationError(f"unbound parameter {expr.name}") from exc
    if isinstance(expr, Var):
        try:
            return env.vars[expr.name]
        except KeyError as exc:
            raise EvaluationError(f"unbound variable {expr.name}") from exc
    if isinstance(expr, Call):
        return _eval_call(expr, env)
    if isinstance(expr, If):
        for guard, body in expr.branches:
            test = evaluate(guard, env)
            if not isinstance(test, bool):
                raise EvaluationError("conditional guard is not boolean")
            if test:
                return evaluate(body, env)
        return evaluate(expr.orelse, env)
    if isinstance(expr, Lambda):
        return _close_over(expr, env)
    if isinstance(expr, Recurse):
        return _eval_recurse(expr, env)
    if isinstance(expr, LasyCall):
        return _eval_lasy_call(expr, env)
    if isinstance(expr, Foreach):
        return _eval_foreach(expr, env)
    if isinstance(expr, ForLoop):
        return _eval_for(expr, env)
    if isinstance(expr, Hole):
        raise EvaluationError("cannot evaluate a context hole")
    raise EvaluationError(f"unknown expression kind {type(expr).__name__}")


# Value-size limits: candidate programs can otherwise build astronomically
# large values (e.g. repeated squaring under _RECURSE produces bigints whose
# single multiplication takes seconds), which fuel cannot bound because the
# blow-up happens inside one component call.
_MAX_INT_BITS = 512
_MAX_STR_LEN = 1_000_000
_MAX_SEQ_LEN = 100_000


def check_value_size(value: Any) -> Any:
    """Reject absurdly large values; returns the value unchanged."""
    if isinstance(value, int) and not isinstance(value, bool):
        if value.bit_length() > _MAX_INT_BITS:
            raise EvaluationError("integer value too large")
    elif isinstance(value, str):
        if len(value) > _MAX_STR_LEN:
            raise EvaluationError("string value too large")
    elif isinstance(value, (tuple, list)):
        if len(value) > _MAX_SEQ_LEN:
            raise EvaluationError("sequence value too large")
    return value


def _eval_call(expr: Call, env: Env) -> Any:
    func = expr.func
    if func.lazy:
        thunks = [lambda a=a: evaluate(a, env) for a in expr.args]
        try:
            return check_value_size(freeze(func.fn(*thunks)))
        except EvaluationError:
            raise
        except Exception as exc:
            raise EvaluationError(f"{func.name}: {exc}") from exc
    return apply_eager(func, [evaluate(a, env) for a in expr.args])


def apply_eager(func, args: Sequence[Any]) -> Any:
    """An eager component applied to its argument values: the result
    frozen and size-checked, any failure an :class:`EvaluationError`.
    Constant folding (:mod:`repro.core.rewrite`) applies components
    through this too."""
    try:
        return check_value_size(freeze(func.fn(*args)))
    except EvaluationError:
        raise
    except RecursionError as exc:
        raise EvaluationError(f"{func.name}: recursion") from exc
    except Exception as exc:
        raise EvaluationError(f"{func.name}: {exc}") from exc


def _close_over(expr: Lambda, env: Env) -> Callable[..., Any]:
    names = [p.name for p in expr.params]

    def closure(*values: Any) -> Any:
        if len(values) != len(names):
            raise EvaluationError(
                f"lambda expects {len(names)} args, got {len(values)}"
            )
        return evaluate(expr.body, env.with_vars(dict(zip(names, values))))

    return closure


def _eval_recurse(expr: Recurse, env: Env) -> Any:
    if len(expr.args) != len(env.recursion_params):
        raise EvaluationError("recursive call arity mismatch")
    args = [evaluate(a, env) for a in expr.args]
    params = dict(zip(env.recursion_params, args))
    # A self-call on structurally identical arguments can never terminate
    # (and, under the oracle, would trivially echo the expected output).
    if all(
        freeze(params[name]) == freeze(env.params.get(name))
        for name in env.recursion_params
    ):
        raise EvaluationError("recursive call with unchanged arguments")
    if env.recursion_oracle is not None:
        return env.recursion_oracle(tuple(freeze(a) for a in args))
    if env.recursion_program is None:
        raise EvaluationError("recursive call outside a recursive binding")
    return evaluate(env.recursion_program, env.recurse_env(params))


def _eval_lasy_call(expr: LasyCall, env: Env) -> Any:
    fn = env.lasy_fns.get(expr.func_name)
    if fn is None:
        raise EvaluationError(f"unknown LaSy function {expr.func_name}")
    args = [evaluate(a, env) for a in expr.args]
    try:
        return freeze(fn(*args))
    except EvaluationError:
        raise
    except Exception as exc:
        raise EvaluationError(f"{expr.func_name}: {exc}") from exc


_FOREACH_LIMIT = 10_000


def _eval_foreach(expr: Foreach, env: Env) -> Any:
    source = evaluate(expr.source, env)
    if not isinstance(source, (tuple, list, str)):
        raise EvaluationError("foreach source is not a sequence")
    items = list(source)
    if expr.reverse:
        items.reverse()
    if len(items) > _FOREACH_LIMIT:
        raise EvaluationError("foreach source too large")
    body = _close_over(expr.body, env)
    acc: list = []
    for i, current in enumerate(items):
        acc.append(body(i, current, tuple(acc)))
    return tuple(acc)


_FOR_LIMIT = 100_000


def _eval_for(expr: ForLoop, env: Env) -> Any:
    bound = evaluate(expr.bound, env)
    if not isinstance(bound, int) or isinstance(bound, bool):
        raise EvaluationError("for-loop bound is not an integer")
    if bound - expr.start + 1 > _FOR_LIMIT:
        raise EvaluationError("for-loop bound too large")
    acc = evaluate(expr.init, env)
    body = _close_over(expr.body, env)
    for i in range(expr.start, bound + 1):
        acc = body(i, acc)
    return acc


def run_program(
    program: Expr,
    param_names: Sequence[str],
    args: Sequence[Any],
    lasy_fns: Optional[Mapping[str, Callable[..., Any]]] = None,
    fuel: int = DEFAULT_FUEL,
    max_depth: int = DEFAULT_MAX_DEPTH,
    recursion_oracle: Optional[Callable[[Tuple[Any, ...]], Any]] = None,
) -> Any:
    """Run a whole synthesized program on concrete arguments.

    Returns the (frozen) output value; raises :class:`EvaluationError`
    on crash or budget exhaustion. ``recursion_oracle``, when given,
    answers ``Recurse`` calls instead of self-recursion; DBS uses it to
    evaluate recursive branch candidates angelically (from the example
    table, falling back to the previous program) while recording T(p).
    """
    _RUNS.value += 1
    params = dict(zip(param_names, (freeze(a) for a in args)))
    env = Env(
        params=params,
        lasy_fns=lasy_fns or {},
        recursion_program=program,
        recursion_params=tuple(param_names),
        recursion_oracle=recursion_oracle,
        max_depth=max_depth,
        fuel=Fuel(fuel),
    )
    try:
        return freeze(expression_runner(program)(env))
    except EvaluationError:
        _ERRORS.value += 1
        raise


def try_run(
    program: Expr,
    param_names: Sequence[str],
    args: Sequence[Any],
    lasy_fns: Optional[Mapping[str, Callable[..., Any]]] = None,
    fuel: int = DEFAULT_FUEL,
    max_depth: int = DEFAULT_MAX_DEPTH,
) -> Any:
    """Like :func:`run_program` but returns :data:`ERROR` on failure."""
    try:
        return run_program(
            program, param_names, args, lasy_fns, fuel, max_depth
        )
    except EvaluationError:
        return ERROR
