"""Per-layer attribution for the end-to-end benchmark, installed from outside ``src/``.

:func:`install` wraps each layer's public entry points (``_ENTRY_POINTS``)
in timing wrappers. Every wrapper keeps its span on a per-thread
stack in memory; a span's *self* time is its duration minus the time
spent in wrapped calls nested inside it, so the per-layer self times of
one traced run partition the time the wrapped code ran. Nothing under
``src/`` changes: where a module imports a wrapped function by name
(``from .dbs import dbs`` in ``tds.py``, ``compile_batch`` in
``enumerator.py`` and ``pool.py``, ...), the binding in that module is
replaced too.
"""

from __future__ import annotations

import importlib
import statistics
import sys
import threading
from collections import Counter
from time import perf_counter

# The layers, as the README's layer map names them.
LAYERS = ("enum", "pool", "eval", "test", "strategies", "dbs", "session", "tds",
          "lasy", "pex", "cache", "serve")

# (module, qualified name, layer); a dotted name is a method.
_ENTRY_POINTS = (
    ("repro.core.engine.enumerator", "Enumerator.seed", "enum"),
    ("repro.core.engine.pool", "PoolStore.offer", "pool"),
    ("repro.core.engine.pool", "PoolStore.offer_external", "pool"),
    ("repro.core.engine.pool", "PoolStore.admit_batched", "pool"),
    ("repro.core.engine.pool", "PoolStore.shadow_batched", "pool"),
    ("repro.core.engine.pool", "PoolStore.extend_examples", "pool"),
    ("repro.core.engine.pool", "PoolStore.refresh_lasy", "pool"),
    ("repro.core.engine.pool", "PoolStore.reorder_examples", "pool"),
    ("repro.core.evaluator", "run_program", "eval"),
    ("repro.core.engine.session", "SynthesisSession.test_batch", "test"),
    ("repro.core.engine.testing", "Tester.passes_all", "test"),
    ("repro.core.engine.testing", "Tester.passed_set", "test"),
    ("repro.core.engine.testing", "Tester.angelic_passed_set", "test"),
    ("repro.core.engine.testing", "Tester.guard_sets", "test"),
    ("repro.core.engine.registry", "StrategyRegistry.run", "strategies"),
    ("repro.core.loops", "run_loop_strategies", "strategies"),
    ("repro.core.conditionals", "solve_with_buckets", "strategies"),
    ("repro.core.dbs", "dbs", "dbs"),
    ("repro.core.engine.session", "SynthesisSession.begin_run", "session"),
    ("repro.core.tds", "TdsSession.add_example", "tds"),
    ("repro.core.tds", "TdsSession.feed", "tds"),
    ("repro.core.tds", "TdsSession.finalize", "tds"),
    ("repro.lasy.parser", "parse_lasy", "lasy"),
    ("repro.lasy.runner", "run_lasy", "lasy"),
    ("repro.pex.oracle", "Oracle.find_counterexample", "pex"),
    ("repro.core.engine.cache", "SessionCache.acquire", "cache"),
    ("repro.core.engine.cache", "SessionCache.release", "cache"),
)

# Imported before rebinding, so every module-level ``from x import f``
# binding of a wrapped function exists when install() scans for it.
_MODULES = (
    "repro.cli",
    "repro.core.incremental",
    "repro.core.angelic",
    "repro.core.strategies",
    "repro.pex.game",
    "repro.pex.feedback",
    "repro.serve.server",
    "repro.suites",
)


class _Thread:
    """One thread's span stack and totals (merged at report time, so
    the hot path takes no lock)."""

    __slots__ = ("stack", "entries", "counts", "durations")

    def __init__(self):
        self.stack = []
        self.entries = {}  # entry point -> [layer, calls, total_s, self_s]
        self.counts = Counter()
        self.durations = {}  # entry point -> list of inclusive seconds


class LayerTracer:
    """Span bookkeeping shared by every wrapper :func:`install` makes."""

    def __init__(self):
        self._local = threading.local()
        self._threads = []
        self._lock = threading.Lock()

    def _state(self) -> _Thread:
        try:
            return self._local.state
        except AttributeError:
            state = self._local.state = _Thread()
            with self._lock:
                self._threads.append(state)
            return state

    def reset(self) -> None:
        """Forget everything recorded so far (call at the start of the
        timed phase, so set-up and output checks are not attributed)."""
        with self._lock:
            for state in self._threads:
                state.entries.clear()
                state.counts.clear()
                state.durations.clear()

    def _close(self, state, entry, layer, start, keep):
        elapsed = perf_counter() - start
        stack = state.stack
        nested = stack.pop()
        if stack:
            stack[-1] += elapsed
        row = state.entries.get(entry)
        if row is None:
            row = state.entries[entry] = [layer, 0, 0.0, 0.0]
        row[1] += 1
        row[2] += elapsed
        row[3] += elapsed - nested
        if keep:
            state.durations.setdefault(entry, []).append(elapsed)

    def timed(self, layer, entry, fn, after=None, keep=False):
        """Wrap ``fn`` as a span of ``layer``; ``after(counts, result,
        args)`` records counters from the call's result."""
        state_of = self._state
        close = self._close

        def wrapper(*args, **kwargs):
            state = state_of()
            state.stack.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                close(state, entry, layer, start, keep)
            if after is not None:
                after(state.counts, result, args)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def timed_generator(self, layer, entry, fn):
        """Wrap a generator function so that each ``next()`` is one span
        (the caller's work between batches is not the generator's)."""
        state_of = self._state
        close = self._close

        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            state_of().counts["enum.generations"] += 1
            try:
                while True:
                    state = state_of()
                    state.stack.append(0.0)
                    start = perf_counter()
                    try:
                        batch = next(inner)
                    except StopIteration:
                        return
                    finally:
                        close(state, entry, layer, start, False)
                    state.counts["enum.yielded"] += len(batch)
                    yield batch
            finally:
                inner.close()

        wrapper.__wrapped__ = fn
        return wrapper

    # -- reporting -------------------------------------------------------

    def totals(self):
        """``(entries, counts, durations)`` merged over threads."""
        entries, counts, durations = {}, Counter(), {}
        with self._lock:
            states = list(self._threads)
        for state in states:
            for entry, (layer, calls, total, self_s) in list(state.entries.items()):
                row = entries.setdefault(entry, [layer, 0, 0.0, 0.0])
                row[1] += calls
                row[2] += total
                row[3] += self_s
            counts.update(state.counts)
            for entry, values in list(state.durations.items()):
                durations.setdefault(entry, []).extend(values)
        return entries, counts, durations

    def snapshot(self):
        """The totals as JSON-able data (what a traced child reports)."""
        entries, counts, durations = self.totals()
        return {
            "entries": {k: v for k, v in sorted(entries.items())},
            "counts": dict(counts),
            "durations": durations,
        }


def _resolve(module, qualname):
    owner = importlib.import_module(module)
    *path, name = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


# Result hooks, ``(counts, result, args)``: the counters the layer
# metrics are ratios of.
def _admitted(counts, result, args):
    counts["pool.admitted"] += result is not None


def _strategy(counts, result, args):
    counts["strategies.solved"] += result is not None
    counts["strategies.stage." + str(args[1])] += 1  # run(self, stage, ...)


def _tested(counts, result, args):
    counts["test.judged"] += 1
    counts["test.passed"] += bool(result)


def _dbs(counts, result, args):
    counts["dbs.expressions"] += result.stats.expressions


def _step(counts, result, args):
    counts["tds.timeouts"] += result.action == "timeout"


def _acquired(counts, result, args):
    counts["cache.hits"] += result[0] is not None


_COUNTERS = {
    "PoolStore.offer": _admitted,
    "PoolStore.admit_batched": _admitted,
    "StrategyRegistry.run": _strategy,
    "Tester.passes_all": _tested,
    "SynthesisSession.test_batch": _tested,
    "dbs": _dbs,
    "TdsSession.add_example": _step,
    "SessionCache.acquire": _acquired,
}


def install() -> LayerTracer:
    """Wrap every entry point of ``_ENTRY_POINTS`` and return the tracer."""
    tracer = LayerTracer()
    for module in _MODULES:
        importlib.import_module(module)
    replaced = {}
    for module, qualname, layer in _ENTRY_POINTS:
        owner, name = _resolve(module, qualname)
        original = owner.__dict__[name]
        wrapped = tracer.timed(
            layer, qualname, original, _COUNTERS.get(qualname), keep=qualname == "dbs"
        )
        setattr(owner, name, wrapped)
        if "." not in qualname:
            replaced[id(original)] = (original, wrapped)

    enumerator = importlib.import_module("repro.core.engine.enumerator").Enumerator
    enumerator.advance_batches = tracer.timed_generator(
        "enum", "Enumerator.advance_batches", enumerator.__dict__["advance_batches"]
    )

    # Batch appliers: wrap each distinct applier once, keyed by identity
    # (compile_batch itself memoizes per component).
    compile_mod = importlib.import_module("repro.core.compile")
    for name in ("compile_batch", "compile_lasy_batch"):
        original = getattr(compile_mod, name)
        replaced[id(original)] = (original, _applier_factory(tracer, name, original))

    # Module-level ``from x import f`` bindings of the wrapped functions.
    for mod in list(sys.modules.values()):
        if not getattr(mod, "__name__", "").startswith("repro"):
            continue
        for attr, value in list(vars(mod).items()):
            hit = replaced.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(mod, attr, hit[1])
    return tracer


def _applier_factory(tracer, name, compile_fn):
    wrapped = {}
    entry = name + " applier"

    def compile_wrapped(fn):
        run = compile_fn(fn)
        if run is None:
            return None
        hit = wrapped.get(id(run))
        if hit is None or hit[0] is not run:
            hit = wrapped[id(run)] = (run, tracer.timed("eval", entry, run))
        return hit[1]

    compile_wrapped.__wrapped__ = compile_fn
    return compile_wrapped


# -- per-layer metrics ------------------------------------------------------


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(snapshot, wall_s, untraced_wall_s, serve_overhead_s=0.0):
    """The per-layer metrics of one traced pass.

    ``wall_s`` is the traced pass's timed phase; ``other_s`` is what the
    layers' self times leave of it (the benchmark loop and code between
    wrapped calls). For serve-prefix the ``serve`` layer's self time is
    the round-trip time the server did not spend inside ``run_lasy``
    (``serve_overhead_s``: protocol, socket, asyncio, queueing).
    """
    entries = snapshot["entries"]
    counts = Counter(snapshot["counts"])
    durations = snapshot["durations"]

    def self_s(layer):
        return sum(row[3] for row in entries.values() if row[0] == layer)

    def calls(*names):
        return sum(entries[n][1] for n in names if n in entries)

    def total(*names):
        return sum(entries[n][2] for n in names if n in entries)

    self_times = {layer: self_s(layer) for layer in LAYERS}
    # The server parses a request before it starts run_lasy's clock, so
    # parse time is inside the round-trip overhead too; count it once.
    self_times["serve"] = serve_overhead_s - total("parse_lasy") if serve_overhead_s else 0.0
    dbs_times = sorted(durations.get("dbs", []))
    advance = entries.get("Enumerator.advance_batches")
    offers = calls("PoolStore.offer", "PoolStore.admit_batched")
    m = {
        "enum.self_s": self_times["enum"],
        "enum.generations": counts["enum.generations"],
        "enum.yielded": counts["enum.yielded"],
        "enum.yield_per_s": _ratio(counts["enum.yielded"], advance[2] if advance else 0.0),
        "pool.self_s": self_times["pool"],
        "pool.offers": offers,
        "pool.admit_ratio": _ratio(counts["pool.admitted"], offers),
        "pool.extends": calls("PoolStore.extend_examples"),
        "pool.extend_s": total("PoolStore.extend_examples"),
        "eval.batch_calls": calls("compile_batch applier", "compile_lasy_batch applier"),
        "eval.batch_s": total("compile_batch applier", "compile_lasy_batch applier"),
        "eval.run_program_calls": calls("run_program"),
        "eval.run_program_s": total("run_program"),
        "test.calls": sum(row[1] for row in entries.values() if row[0] == "test"),
        "test.self_s": self_times["test"],
        "test.pass_ratio": _ratio(counts["test.passed"], counts["test.judged"]),
        "strategies.runs": calls("StrategyRegistry.run"),
        "strategies.self_s": self_times["strategies"],
        "strategies.solve_ratio": _ratio(counts["strategies.solved"], calls("StrategyRegistry.run")),
        "strategies.loops_s": total("run_loop_strategies"),
        "strategies.conditionals_s": total("solve_with_buckets"),
        "dbs.calls": len(dbs_times),
        "dbs.self_s": self_times["dbs"],
        "dbs.expressions": counts["dbs.expressions"],
        "dbs.p50_s": statistics.median(dbs_times) if dbs_times else 0.0,
        "dbs.p90_s": statistics.quantiles(dbs_times, n=10)[-1] if len(dbs_times) > 1 else
        (dbs_times[0] if dbs_times else 0.0),
        "dbs.under10_ratio": _ratio(sum(t < 10.0 for t in dbs_times), len(dbs_times)),
        "session.begin_runs": calls("SynthesisSession.begin_run"),
        "session.begin_run_s": total("SynthesisSession.begin_run"),
        "tds.calls": sum(row[1] for row in entries.values() if row[0] == "tds"),
        "tds.self_s": self_times["tds"],
        "tds.timeouts": counts["tds.timeouts"],
        "lasy.parse_calls": calls("parse_lasy"),
        "lasy.parse_s": total("parse_lasy"),
        "pex.oracle_calls": calls("Oracle.find_counterexample"),
        "pex.oracle_s": total("Oracle.find_counterexample"),
        "cache.hit_ratio": _ratio(counts["cache.hits"], calls("SessionCache.acquire")),
        "cache.acquire_s": total("SessionCache.acquire"),
        "cache.release_s": total("SessionCache.release"),
        "serve.overhead_s": serve_overhead_s,
        "other_s": wall_s - sum(self_times.values()),
        "trace.overhead": _ratio(wall_s, untraced_wall_s) - 1.0,
    }
    return m, self_times
