"""Compilation of expression trees to Python closures.

The evaluator is the synthesizer's only oracle (§5.1): every candidate
is *run*, never analysed, so tree-walking interpretation dominates the
wall-clock of a DBS call. This module removes the interpretive overhead
— the per-node ``isinstance`` dispatch chain, the argument-list
comprehension, the method-call fuel accounting — by compiling each
:class:`~repro.core.expr.Expr` once into a tree of specialized Python
closures that takes the same :class:`~repro.core.evaluator.Env` and
produces bit-identical behaviour:

* **fuel** — one unit is spent on closure entry, exactly where the
  interpreter's ``evaluate`` spends it, so fuel exhaustion trips at the
  same node in the same order;
* **recursion depth** — ``Recurse`` goes through ``Env.recurse_env``,
  which enforces ``max_depth``;
* **errors** — the same exception surface (strict
  :class:`~repro.core.evaluator.EvaluationError` propagation, component
  exceptions wrapped with the component name, ``RecursionError``
  special-cased for eager calls);
* **values** — ``freeze`` + ``check_value_size`` applied at the same
  points (component calls; *not* LaSy calls, which only freeze).

Compiled closures are memoized **by expression identity**: the pool
hash-conses aggressively (entries are reused across generations,
contexts plug new roots over pooled children), so the per-node cache
turns compiling a plugged candidate into one closure allocation for the
root plus cache hits for every child. Identity — not equality — keys
the cache because two structurally equal ``Call`` nodes from *different
DSLs* can carry same-named components with different Python callables
(``Function.__eq__`` compares name and types only).

The interpreter (:func:`repro.core.evaluator.evaluate`) remains the
reference semantics: ``tests/test_compile_differential.py`` checks the
two agree on seeded-random expressions across all four domains, and
``REPRO_EVAL=interp`` (or :func:`set_eval_mode`) switches the hot paths
back to it.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Tuple

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

# Imported late to avoid a cycle (evaluator imports this module lazily).
from .evaluator import (  # noqa: E402  (grouped for readability)
    Env,
    EvaluationError,
    _FOR_LIMIT,
    _FOREACH_LIMIT,
    _MAX_INT_BITS,
    _MAX_STR_LEN,
    check_value_size,
)

CompiledFn = Callable[[Env], Any]

# ---------------------------------------------------------------------
# Memoization.
#
# Keyed by id(expr) with the expression itself stored alongside the
# closure: the strong reference pins the id (no reuse-after-free
# aliasing), and the ``is`` check on lookup makes the cache purely
# identity-based. Bounded: past _CACHE_LIMIT entries the whole cache is
# dropped — recompilation is cheap (one closure per node) and the hot
# expressions repopulate immediately.

_CACHE_LIMIT = 200_000
_cache: Dict[int, Tuple[Expr, CompiledFn]] = {}


def cache_size() -> int:
    """Number of compiled nodes currently memoized (for tests/benches)."""
    return len(_cache)


def clear_cache() -> None:
    """Drop all memoized closures (tests and long-lived processes)."""
    _cache.clear()


def compile_expr(expr: Expr) -> CompiledFn:
    """The compiled form of ``expr``: a closure over ``Env``.

    Safe to call repeatedly; per-node results are memoized by identity.
    """
    entry = _cache.get(id(expr))
    if entry is not None and entry[0] is expr:
        return entry[1]
    if len(_cache) >= _CACHE_LIMIT:
        _cache.clear()
    fn = _compile(expr)
    _cache[id(expr)] = (expr, fn)
    return fn


# ---------------------------------------------------------------------
# Per-node compilers. Every closure begins with the inlined equivalent
# of ``env.fuel.spend()`` — the attribute dance is written out because
# this line runs once per node per evaluation and the method call is
# measurable at that frequency.


def _compile(expr: Expr) -> CompiledFn:
    kind = type(expr)
    if kind is Const:
        return _compile_const(expr)
    if kind is Param:
        return _compile_param(expr)
    if kind is Var:
        return _compile_var(expr)
    if kind is Call:
        return _compile_call(expr)
    if kind is If:
        return _compile_if(expr)
    if kind is Lambda:
        return _compile_lambda(expr)
    if kind is Recurse:
        return _compile_recurse(expr)
    if kind is LasyCall:
        return _compile_lasy_call(expr)
    if kind is Foreach:
        return _compile_foreach(expr)
    if kind is ForLoop:
        return _compile_for(expr)
    if kind is Hole:
        return _compile_hole(expr)

    def run_unknown(env: Env, _name=type(expr).__name__) -> Any:
        fuel = env.fuel
        fuel.remaining -= 1
        if fuel.remaining < 0:
            raise EvaluationError("fuel exhausted")
        raise EvaluationError(f"unknown expression kind {_name}")

    return run_unknown


def _compile_const(expr: Const) -> CompiledFn:
    value = expr.value

    def run(env: Env) -> Any:
        fuel = env.fuel
        fuel.remaining -= 1
        if fuel.remaining < 0:
            raise EvaluationError("fuel exhausted")
        return value

    return run


def _compile_param(expr: Param) -> CompiledFn:
    name = expr.name

    def run(env: Env) -> Any:
        fuel = env.fuel
        fuel.remaining -= 1
        if fuel.remaining < 0:
            raise EvaluationError("fuel exhausted")
        try:
            return env.params[name]
        except KeyError as exc:
            raise EvaluationError(f"unbound parameter {name}") from exc

    return run


def _compile_var(expr: Var) -> CompiledFn:
    name = expr.name

    def run(env: Env) -> Any:
        fuel = env.fuel
        fuel.remaining -= 1
        if fuel.remaining < 0:
            raise EvaluationError("fuel exhausted")
        try:
            return env.vars[name]
        except KeyError as exc:
            raise EvaluationError(f"unbound variable {name}") from exc

    return run


def _compile_call(expr: Call) -> CompiledFn:
    func = expr.func
    fn = func.fn
    fname = func.name
    arg_fns = tuple(compile_expr(a) for a in expr.args)

    if func.lazy:

        def run_lazy(env: Env) -> Any:
            fuel = env.fuel
            fuel.remaining -= 1
            if fuel.remaining < 0:
                raise EvaluationError("fuel exhausted")
            thunks = [lambda a=a: a(env) for a in arg_fns]
            try:
                return check_value_size(freeze(fn(*thunks)))
            except EvaluationError:
                raise
            except Exception as exc:
                raise EvaluationError(f"{fname}: {exc}") from exc

        return run_lazy

    # Eager calls: arity-specialized so the common 1- and 2-argument
    # components skip the tuple build and the *args unpacking cost.
    # Each variant inlines the scalar fast path of
    # ``check_value_size(freeze(value))``: for exact int/str results
    # freeze is the identity and the size check is one comparison, so
    # the two function calls per node collapse to an attribute test
    # (bool has class bool, not int, and still takes the generic path).
    if len(arg_fns) == 0:

        def run0(env: Env) -> Any:
            fuel = env.fuel
            fuel.remaining -= 1
            if fuel.remaining < 0:
                raise EvaluationError("fuel exhausted")
            try:
                value = fn()
                cls = value.__class__
                if cls is int:
                    if value.bit_length() > _MAX_INT_BITS:
                        raise EvaluationError("integer value too large")
                    return value
                if cls is str:
                    if len(value) > _MAX_STR_LEN:
                        raise EvaluationError("string value too large")
                    return value
                return check_value_size(freeze(value))
            except EvaluationError:
                raise
            except RecursionError as exc:
                raise EvaluationError(f"{fname}: recursion") from exc
            except Exception as exc:
                raise EvaluationError(f"{fname}: {exc}") from exc

        return run0

    if len(arg_fns) == 1:
        a0 = arg_fns[0]

        def run1(env: Env) -> Any:
            fuel = env.fuel
            fuel.remaining -= 1
            if fuel.remaining < 0:
                raise EvaluationError("fuel exhausted")
            v0 = a0(env)
            try:
                value = fn(v0)
                cls = value.__class__
                if cls is int:
                    if value.bit_length() > _MAX_INT_BITS:
                        raise EvaluationError("integer value too large")
                    return value
                if cls is str:
                    if len(value) > _MAX_STR_LEN:
                        raise EvaluationError("string value too large")
                    return value
                return check_value_size(freeze(value))
            except EvaluationError:
                raise
            except RecursionError as exc:
                raise EvaluationError(f"{fname}: recursion") from exc
            except Exception as exc:
                raise EvaluationError(f"{fname}: {exc}") from exc

        return run1

    if len(arg_fns) == 2:
        a0, a1 = arg_fns

        def run2(env: Env) -> Any:
            fuel = env.fuel
            fuel.remaining -= 1
            if fuel.remaining < 0:
                raise EvaluationError("fuel exhausted")
            v0 = a0(env)
            v1 = a1(env)
            try:
                value = fn(v0, v1)
                cls = value.__class__
                if cls is int:
                    if value.bit_length() > _MAX_INT_BITS:
                        raise EvaluationError("integer value too large")
                    return value
                if cls is str:
                    if len(value) > _MAX_STR_LEN:
                        raise EvaluationError("string value too large")
                    return value
                return check_value_size(freeze(value))
            except EvaluationError:
                raise
            except RecursionError as exc:
                raise EvaluationError(f"{fname}: recursion") from exc
            except Exception as exc:
                raise EvaluationError(f"{fname}: {exc}") from exc

        return run2

    if len(arg_fns) == 3:
        a0, a1, a2 = arg_fns

        def run3(env: Env) -> Any:
            fuel = env.fuel
            fuel.remaining -= 1
            if fuel.remaining < 0:
                raise EvaluationError("fuel exhausted")
            v0 = a0(env)
            v1 = a1(env)
            v2 = a2(env)
            try:
                value = fn(v0, v1, v2)
                cls = value.__class__
                if cls is int:
                    if value.bit_length() > _MAX_INT_BITS:
                        raise EvaluationError("integer value too large")
                    return value
                if cls is str:
                    if len(value) > _MAX_STR_LEN:
                        raise EvaluationError("string value too large")
                    return value
                return check_value_size(freeze(value))
            except EvaluationError:
                raise
            except RecursionError as exc:
                raise EvaluationError(f"{fname}: recursion") from exc
            except Exception as exc:
                raise EvaluationError(f"{fname}: {exc}") from exc

        return run3

    def run_n(env: Env) -> Any:
        fuel = env.fuel
        fuel.remaining -= 1
        if fuel.remaining < 0:
            raise EvaluationError("fuel exhausted")
        args = [a(env) for a in arg_fns]
        try:
            value = fn(*args)
            cls = value.__class__
            if cls is int:
                if value.bit_length() > _MAX_INT_BITS:
                    raise EvaluationError("integer value too large")
                return value
            if cls is str:
                if len(value) > _MAX_STR_LEN:
                    raise EvaluationError("string value too large")
                return value
            return check_value_size(freeze(value))
        except EvaluationError:
            raise
        except RecursionError as exc:
            raise EvaluationError(f"{fname}: recursion") from exc
        except Exception as exc:
            raise EvaluationError(f"{fname}: {exc}") from exc

    return run_n


def _compile_if(expr: If) -> CompiledFn:
    branches = tuple(
        (compile_expr(guard), compile_expr(body))
        for guard, body in expr.branches
    )
    orelse = compile_expr(expr.orelse)

    def run(env: Env) -> Any:
        fuel = env.fuel
        fuel.remaining -= 1
        if fuel.remaining < 0:
            raise EvaluationError("fuel exhausted")
        for guard, body in branches:
            test = guard(env)
            if not isinstance(test, bool):
                raise EvaluationError("conditional guard is not boolean")
            if test:
                return body(env)
        return orelse(env)

    return run


def _make_closure(
    names: Tuple[str, ...], body: CompiledFn, env: Env
) -> Callable[..., Any]:
    """The compiled counterpart of ``evaluator._close_over``."""
    n = len(names)

    def closure(*values: Any) -> Any:
        if len(values) != n:
            raise EvaluationError(
                f"lambda expects {n} args, got {len(values)}"
            )
        return body(env.with_vars(dict(zip(names, values))))

    return closure


def _compile_lambda(expr: Lambda) -> CompiledFn:
    names = tuple(p.name for p in expr.params)
    body = compile_expr(expr.body)

    def run(env: Env) -> Any:
        fuel = env.fuel
        fuel.remaining -= 1
        if fuel.remaining < 0:
            raise EvaluationError("fuel exhausted")
        return _make_closure(names, body, env)

    return run


def _compile_recurse(expr: Recurse) -> CompiledFn:
    arg_fns = tuple(compile_expr(a) for a in expr.args)
    n_args = len(arg_fns)

    def run(env: Env) -> Any:
        fuel = env.fuel
        fuel.remaining -= 1
        if fuel.remaining < 0:
            raise EvaluationError("fuel exhausted")
        if n_args != len(env.recursion_params):
            raise EvaluationError("recursive call arity mismatch")
        args = [a(env) for a in arg_fns]
        params = dict(zip(env.recursion_params, args))
        if all(
            freeze(params[name]) == freeze(env.params.get(name))
            for name in env.recursion_params
        ):
            raise EvaluationError("recursive call with unchanged arguments")
        if env.recursion_oracle is not None:
            return env.recursion_oracle(tuple(freeze(a) for a in args))
        if env.recursion_program is None:
            raise EvaluationError("recursive call outside a recursive binding")
        return compile_expr(env.recursion_program)(env.recurse_env(params))

    return run


def _compile_lasy_call(expr: LasyCall) -> CompiledFn:
    func_name = expr.func_name
    arg_fns = tuple(compile_expr(a) for a in expr.args)

    def run(env: Env) -> Any:
        fuel = env.fuel
        fuel.remaining -= 1
        if fuel.remaining < 0:
            raise EvaluationError("fuel exhausted")
        fn = env.lasy_fns.get(func_name)
        if fn is None:
            raise EvaluationError(f"unknown LaSy function {func_name}")
        args = [a(env) for a in arg_fns]
        try:
            return freeze(fn(*args))
        except EvaluationError:
            raise
        except Exception as exc:
            raise EvaluationError(f"{func_name}: {exc}") from exc

    return run


def _compile_foreach(expr: Foreach) -> CompiledFn:
    source = compile_expr(expr.source)
    body = compile_expr(expr.body.body)
    names = tuple(p.name for p in expr.body.params)
    reverse = expr.reverse

    def run(env: Env) -> Any:
        fuel = env.fuel
        fuel.remaining -= 1
        if fuel.remaining < 0:
            raise EvaluationError("fuel exhausted")
        src = source(env)
        if not isinstance(src, (tuple, list, str)):
            raise EvaluationError("foreach source is not a sequence")
        items = list(src)
        if reverse:
            items.reverse()
        if len(items) > _FOREACH_LIMIT:
            raise EvaluationError("foreach source too large")
        closure = _make_closure(names, body, env)
        acc: list = []
        for i, current in enumerate(items):
            acc.append(closure(i, current, tuple(acc)))
        return tuple(acc)

    return run


def _compile_for(expr: ForLoop) -> CompiledFn:
    bound_fn = compile_expr(expr.bound)
    init_fn = compile_expr(expr.init)
    body = compile_expr(expr.body.body)
    names = tuple(p.name for p in expr.body.params)
    start = expr.start

    def run(env: Env) -> Any:
        fuel = env.fuel
        fuel.remaining -= 1
        if fuel.remaining < 0:
            raise EvaluationError("fuel exhausted")
        bound = bound_fn(env)
        if not isinstance(bound, int) or isinstance(bound, bool):
            raise EvaluationError("for-loop bound is not an integer")
        if bound - start + 1 > _FOR_LIMIT:
            raise EvaluationError("for-loop bound too large")
        acc = init_fn(env)
        closure = _make_closure(names, body, env)
        for i in range(start, bound + 1):
            acc = closure(i, acc)
        return acc

    return run


def _compile_hole(expr: Hole) -> CompiledFn:
    def run(env: Env) -> Any:
        fuel = env.fuel
        fuel.remaining -= 1
        if fuel.remaining < 0:
            raise EvaluationError("fuel exhausted")
        raise EvaluationError("cannot evaluate a context hole")

    return run


# ---------------------------------------------------------------------
# Batched value-vector application (the enumerator's batched expansion).
#
# One closure per *component*, applied column-wise over the cached child
# value vectors — no Expr, no Env, no fuel, exactly the semantics of the
# enumerator's per-candidate fast path (``Enumerator._apply_values``):
# an ERROR argument makes an ERROR column, results pass through
# ``check_value_size(freeze(...))``, and any exception — including
# EvaluationError — is observed as ERROR rather than raised. The int/str
# fast path of the size check is inlined as in the eager-call compilers
# above (oversized scalars become ERROR here, not an exception, because
# the reference path catches the EvaluationError the check raises).
#
# Memoized by component identity, mirroring the expression cache:
# same-named components from different DSL instances may wrap different
# Python callables, so the ``Function`` object (pinned by the strong
# reference) keys the cache, not its name.

BatchFn = Callable[..., Tuple[Any, ...]]

_batch_cache: Dict[int, Tuple[Any, BatchFn]] = {}
_lasy_batch_cache: Dict[int, Tuple[Any, BatchFn]] = {}


def compile_batch(func) -> Optional[BatchFn]:
    """Column-wise applier for an eager component, or None for lazy
    components (their arguments must be thunks evaluated under an Env,
    which a value vector cannot provide — the enumerator builds and
    offers those productions' candidates one at a time)."""
    if func.lazy:
        return None
    entry = _batch_cache.get(id(func))
    if entry is not None and entry[0] is func:
        return entry[1]
    if len(_batch_cache) >= _CACHE_LIMIT:
        _batch_cache.clear()
    run = _compile_batch(func.fn, len(func.param_types))
    _batch_cache[id(func)] = (func, run)
    return run


def compile_lasy_batch(fn) -> BatchFn:
    """Column-wise applier for a bound LaSy callee (the enumerator's
    ``_apply_lasy_values`` semantics). Keyed by callable identity: the
    LaSy runner rebinds functions between runs, and a rebound callee
    must get a fresh closure."""
    entry = _lasy_batch_cache.get(id(fn))
    if entry is not None and entry[0] is fn:
        return entry[1]
    if len(_lasy_batch_cache) >= _CACHE_LIMIT:
        _lasy_batch_cache.clear()
    run = _compile_batch(fn, -1)
    _lasy_batch_cache[id(fn)] = (fn, run)
    return run


def _compile_batch(fn, arity: int) -> BatchFn:
    if arity == 1:

        def run1(v0) -> Tuple[Any, ...]:
            out = []
            append = out.append
            for a0 in v0:
                if a0 is ERROR:
                    append(ERROR)
                    continue
                try:
                    value = fn(a0)
                    cls = value.__class__
                    if cls is int:
                        append(
                            ERROR
                            if value.bit_length() > _MAX_INT_BITS
                            else value
                        )
                    elif cls is str:
                        append(
                            ERROR if len(value) > _MAX_STR_LEN else value
                        )
                    else:
                        append(check_value_size(freeze(value)))
                except Exception:
                    append(ERROR)
            return tuple(out)

        return run1

    if arity == 2:

        def run2(v0, v1) -> Tuple[Any, ...]:
            out = []
            append = out.append
            for a0, a1 in zip(v0, v1):
                if a0 is ERROR or a1 is ERROR:
                    append(ERROR)
                    continue
                try:
                    value = fn(a0, a1)
                    cls = value.__class__
                    if cls is int:
                        append(
                            ERROR
                            if value.bit_length() > _MAX_INT_BITS
                            else value
                        )
                    elif cls is str:
                        append(
                            ERROR if len(value) > _MAX_STR_LEN else value
                        )
                    else:
                        append(check_value_size(freeze(value)))
                except Exception:
                    append(ERROR)
            return tuple(out)

        return run2

    def run_n(*vectors) -> Tuple[Any, ...]:
        out = []
        append = out.append
        for args in zip(*vectors):
            if any(a is ERROR for a in args):
                append(ERROR)
                continue
            try:
                append(check_value_size(freeze(fn(*args))))
            except Exception:
                append(ERROR)
        return tuple(out)

    return run_n
