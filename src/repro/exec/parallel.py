"""A fault-tolerant process-pool ``parallel_map`` with observability
merge-back.

Suite tasks are embarrassingly parallel — each benchmark is an
independent synthesis — but the stack's observability is process-local
and real fleets lose workers. This module makes fan-out safe on three
fronts:

* **metrics** — each worker zeroes the process-global registries before
  a task (a forked child inherits the parent's totals) and ships the
  task's own snapshot back with the result; the parent absorbs them via
  :meth:`~repro.obs.metrics.Registry.merge`, which keeps merged counts
  out of the parent's local delta-attribution.
* **traces** — each worker process opens its own ``JsonlTracer`` shard
  (``{base}.worker-{pid}.jsonl``, the sharding model ``obs/trace.py``
  anticipates) and flushes it after every task; the parent splices the
  shards into its own stream with
  :meth:`~repro.obs.trace.JsonlTracer.absorb_shard`.
* **faults** — the parent runs its own scheduler over raw
  ``multiprocessing`` workers instead of a ``ProcessPoolExecutor``, so
  it can *observe* worker death (process sentinels), *kill* workers
  stuck past a per-task timeout, and *retry* the affected task on a
  fresh worker with exponential backoff (:class:`RetryPolicy`). A task
  that keeps killing workers is quarantined after the attempt budget:
  its slot in the results holds a :class:`TaskFailure` instead of
  poisoning the whole map. ``exec.*`` counters (retries, quarantines,
  worker crashes/restarts, task timeouts) land in the global metrics
  registry and in an ``exec.metrics`` trace event.

Fallback is graceful: ``jobs <= 1``, a single item, or an infrastructure
failure (unpicklable work, spawn failure) degrades to a plain serial
loop with identical results and in-process metrics/tracing. The serial
path still honors injected :class:`~repro.exec.faults.SimulatedCrash`
faults through the same retry/quarantine policy.

Engine state crosses the process boundary gracefully too: a
:class:`~repro.core.tds.TdsSession` drops its persistent synthesis
engine (warm pool, compiled closures) on pickling and rebuilds it cold
in the worker — shipping a session costs warm-start reuse, never
correctness.
"""

from __future__ import annotations

import glob
import multiprocessing
import os
import pickle
import time
from collections import deque
from dataclasses import dataclass, field
from multiprocessing.connection import wait as connection_wait
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
)

from ..core import evaluator
from ..obs import metrics as obs_metrics
from ..obs.metrics import Registry
from ..obs.trace import JsonlTracer, get_tracer, set_tracer
from .faults import FaultPlan, SimulatedCrash

TaskFn = Callable[[Any], Any]
# on_result(index, result, snapshots_or_None) — called as each task
# completes (in completion order), before the map returns. The
# checkpoint journal hangs off this.
ResultHook = Callable[[int, Any, Optional[Dict[str, Any]]], None]


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry with exponential backoff and deterministic jitter.

    ``max_attempts`` counts total tries (first run + retries). The
    jitter is a hash of ``(task_index, attempt)`` — not randomness — so
    a rerun of the same suite backs off identically.
    """

    max_attempts: int = 3
    base_delay: float = 0.05
    max_delay: float = 2.0
    jitter: float = 0.25

    def delay(self, task_index: int, attempt: int) -> float:
        raw = min(self.max_delay, self.base_delay * (2 ** max(0, attempt - 1)))
        h = ((task_index * 1_000_003) ^ (attempt * 8191)) & 0xFFFF
        return raw * (1.0 + self.jitter * (h / 0xFFFF))


@dataclass
class TaskFailure:
    """A quarantined task's slot in the results list.

    ``kind`` is ``"crash"`` (the worker process died mid-task) or
    ``"timeout"`` (the task exceeded ``task_timeout_s`` and its worker
    was killed). Ordinary Python exceptions raised by ``fn`` are *not*
    converted — they propagate out of :func:`parallel_map` as always.
    """

    index: int
    kind: str
    message: str
    attempts: int

    def __bool__(self) -> bool:  # quarantined slots are falsy results
        return False


@dataclass
class ParallelOutcome:
    """What a :func:`parallel_map` produced.

    ``results`` is ordered like the input items; quarantined slots hold
    :class:`TaskFailure`. ``jobs_used`` is the actual degree of
    parallelism (1 after a serial fallback). ``shards`` lists the worker
    trace-shard paths (kept only when ``keep_shards``); ``task_metrics``
    the per-task registry snapshots that were merged back (empty on the
    serial path, where metrics accumulate in-process as usual).
    """

    results: List[Any]
    jobs_used: int
    shards: List[str] = field(default_factory=list)
    task_metrics: List[Dict[str, Any]] = field(default_factory=list)
    failures: List[TaskFailure] = field(default_factory=list)


# -- worker side ------------------------------------------------------


def _ship_exception(exc: BaseException) -> BaseException:
    """The exception as it should cross the pipe (picklable or a
    stand-in that is)."""
    try:
        pickle.dumps(exc)
        return exc
    except Exception:
        return RuntimeError(f"{type(exc).__name__}: {exc}")


def _worker_main(
    conn,
    trace_base: Optional[str],
    eval_mode: str,
    faults_spec: str,
    profile_hz: float = 0.0,
) -> None:
    """Worker loop: receive ``(index, attempt, fn, item)``, reply
    ``(index, status, payload, snapshots)``; exit on ``None`` or EOF.

    ``profile_hz`` > 0 runs a fresh sampling profiler around each task,
    emitting its ``profile.samples`` event into the worker's trace
    shard after the task — the parent's shard splicing tags it with the
    worker id, so merged reports attribute samples per worker."""
    faults = FaultPlan.parse(faults_spec) if faults_spec else None
    evaluator.set_eval_mode(eval_mode)
    tracer: Optional[JsonlTracer] = None
    if trace_base:
        path = f"{trace_base}.worker-{os.getpid()}.jsonl"
        tracer = JsonlTracer(path)
        set_tracer(tracer)
    profiling = bool(profile_hz) and tracer is not None
    if profiling:
        from ..obs.profile import SamplingProfiler
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break
        if message is None:
            break
        index, attempt, fn, item = message
        if faults is not None:
            # May os._exit (crash) or sleep past the task deadline
            # (hang) — exactly the failures the parent must survive.
            faults.inject(index, attempt, process_level=True)
        # Zero the process-global registries: the fork inherited the
        # parent's totals, and a long-lived worker accumulates across
        # tasks — the snapshot must hold exactly this task's work.
        evaluator.METRICS.reset()
        obs_metrics.GLOBAL.reset()
        profiler = SamplingProfiler(hz=profile_hz).start() if profiling else None
        try:
            result = fn(item)
        except BaseException as exc:
            if profiler is not None:
                profiler.stop().emit(tracer)
            if tracer is not None:
                tracer.flush()
            conn.send((index, "error", _ship_exception(exc), None))
            continue
        if profiler is not None:
            profiler.stop().emit(tracer)
        if tracer is not None:
            tracer.flush()
        snapshots = {
            "evaluator": evaluator.METRICS.snapshot(),
            "global": obs_metrics.GLOBAL.snapshot(),
        }
        try:
            conn.send((index, "ok", result, snapshots))
        except Exception as exc:
            conn.send(
                (
                    index,
                    "error",
                    RuntimeError(f"unpicklable task result: {exc!r}"),
                    None,
                )
            )
    if tracer is not None:
        tracer.close()


# -- parent side ------------------------------------------------------


@dataclass
class _Task:
    index: int
    item: Any
    attempts: int = 0  # completed attempts so far
    ready_at: float = 0.0  # monotonic backoff gate


class _Worker:
    __slots__ = ("proc", "conn", "task", "deadline")

    def __init__(self, proc, conn):
        self.proc = proc
        self.conn = conn
        self.task: Optional[_Task] = None
        self.deadline: Optional[float] = None


def _spawn_worker(ctx, worker_args) -> _Worker:
    parent_conn, child_conn = ctx.Pipe(duplex=True)
    proc = ctx.Process(
        target=_worker_main, args=(child_conn, *worker_args), daemon=True
    )
    proc.start()
    child_conn.close()
    return _Worker(proc, parent_conn)


def _shutdown_worker(worker: _Worker, kill: bool = False) -> None:
    try:
        if kill:
            worker.proc.kill()
        else:
            try:
                worker.conn.send(None)
            except (OSError, ValueError, BrokenPipeError):
                pass
        worker.proc.join(timeout=5.0)
        if worker.proc.is_alive():
            worker.proc.kill()
            worker.proc.join(timeout=5.0)
    finally:
        try:
            worker.conn.close()
        except OSError:
            pass


def _registry_delta(before: Dict, after: Dict) -> Dict:
    """``after - before`` over two :meth:`Registry.snapshot` dicts
    (counters and histogram count/total subtract; gauges and min/max
    take the after value; zero-delta counters are dropped)."""
    out: Dict[str, Any] = {}
    for name, snap in after.items():
        prev = before.get(name, {})
        kind = snap.get("type")
        if kind == "counter":
            value = snap.get("value", 0) - prev.get("value", 0)
            labels = {}
            prev_labels = prev.get("labels", {})
            for key, v in snap.get("labels", {}).items():
                d = v - prev_labels.get(key, 0)
                if d:
                    labels[key] = d
            if value or labels:
                entry: Dict[str, Any] = {"type": "counter", "value": value}
                if labels:
                    entry["labels"] = labels
                out[name] = entry
        elif kind == "gauge":
            out[name] = snap
        elif kind == "histogram":
            count = snap.get("count", 0) - prev.get("count", 0)
            if count:
                out[name] = {
                    "type": "histogram",
                    "count": count,
                    "total": snap.get("total", 0.0) - prev.get("total", 0.0),
                    "min": snap.get("min"),
                    "max": snap.get("max"),
                }
    return out


def _serial(
    fn: TaskFn,
    items: Sequence[Any],
    faults: Optional[FaultPlan],
    retry: RetryPolicy,
    on_result: Optional[ResultHook],
    exec_reg: Registry,
) -> ParallelOutcome:
    """The in-process path. Injected :class:`SimulatedCrash` faults go
    through the same retry/quarantine policy as worker deaths; ordinary
    exceptions propagate. When ``on_result`` is set, per-task snapshot
    deltas of the process-global registries are passed to it (so a
    checkpoint journal can replay them on resume)."""
    results: List[Any] = []
    failures: List[TaskFailure] = []
    for index, item in enumerate(items):
        attempt = 0
        while True:
            before = None
            if on_result is not None:
                before = (
                    evaluator.METRICS.snapshot(),
                    obs_metrics.GLOBAL.snapshot(),
                )
            try:
                if faults is not None:
                    faults.inject(index, attempt, process_level=False)
                result = fn(item)
            except SimulatedCrash as exc:
                attempt += 1
                exec_reg.counter("exec.worker_crashes").value += 1
                if attempt >= retry.max_attempts:
                    failure = TaskFailure(index, "crash", str(exc), attempt)
                    failures.append(failure)
                    results.append(failure)
                    exec_reg.counter("exec.quarantined").inc(1, kind="crash")
                    break
                exec_reg.counter("exec.retries").inc(1, kind="crash")
                time.sleep(retry.delay(index, attempt))
                continue
            exec_reg.counter("exec.tasks").value += 1
            results.append(result)
            if on_result is not None:
                snapshots = {
                    "evaluator": _registry_delta(
                        before[0], evaluator.METRICS.snapshot()
                    ),
                    "global": _registry_delta(
                        before[1], obs_metrics.GLOBAL.snapshot()
                    ),
                }
                on_result(index, result, snapshots)
            break
    return ParallelOutcome(results=results, jobs_used=1, failures=failures)


def parallel_map(
    fn: TaskFn,
    items: Iterable[Any],
    jobs: int = 1,
    *,
    trace_base: Optional[str] = None,
    keep_shards: bool = False,
    task_timeout_s: Optional[float] = None,
    retry: Optional[RetryPolicy] = None,
    faults: Optional[FaultPlan] = None,
    on_result: Optional[ResultHook] = None,
    profile_hz: Optional[float] = None,
) -> ParallelOutcome:
    """Apply ``fn`` to every item across ``jobs`` worker processes.

    ``fn`` must be picklable (a module-level function or a
    ``functools.partial`` over one) and so must the items and results.
    When that fails — or spawning workers does — the whole map silently
    degrades to a serial loop, so callers can pass ``--jobs`` through
    unconditionally.

    Robustness: a worker that dies mid-task (crash, OOM-kill) or runs
    past ``task_timeout_s`` (killed by the parent) is replaced, and the
    task retried on the fresh worker under ``retry`` (exponential
    backoff, deterministic jitter). After ``retry.max_attempts`` the
    task is quarantined as a :class:`TaskFailure` in its results slot.
    Exceptions *raised* by ``fn`` are not retried — they propagate,
    matching the serial path. ``faults`` (default: parsed from the
    ``REPRO_FAULTS`` env var) injects deterministic crash/hang/slow
    faults for testing; see :mod:`repro.exec.faults`.

    ``trace_base`` (typically the experiment's ``--trace`` path) enables
    per-worker trace shards; they are spliced into the parent's
    currently installed ``JsonlTracer`` and deleted unless
    ``keep_shards``. Worker evaluator metrics are merged into this
    process's registries either way, and ``exec.*`` fault counters are
    published to the global registry plus an ``exec.metrics`` trace
    event.
    """
    items = list(items)
    retry = retry or RetryPolicy()
    if faults is None:
        faults = FaultPlan.from_env()
    exec_reg = Registry()

    def publish(outcome: ParallelOutcome) -> ParallelOutcome:
        snapshot = exec_reg.snapshot()
        if snapshot:
            obs_metrics.GLOBAL.merge(snapshot)
            tracer = get_tracer()
            if tracer.enabled:
                tracer.event("exec.metrics", metrics=snapshot)
        return outcome

    if jobs <= 1 or len(items) <= 1:
        return publish(
            _serial(fn, items, faults, retry, on_result, exec_reg)
        )

    try:
        # Local functions/lambdas raise AttributeError (not
        # PicklingError) when first shipped, which would surface as a
        # spurious worker "crash" — probe up front instead.
        pickle.dumps((fn, items[0]))
    except Exception:
        return publish(
            _serial(fn, items, faults, retry, on_result, exec_reg)
        )

    jobs_used = min(jobs, len(items))
    ctx = multiprocessing.get_context()
    worker_args = (
        trace_base,
        evaluator.get_eval_mode(),
        faults.spec if faults is not None else "",
        profile_hz or 0.0,
    )
    try:
        workers = [_spawn_worker(ctx, worker_args) for _ in range(jobs_used)]
    except OSError:
        return publish(
            _serial(fn, items, faults, retry, on_result, exec_reg)
        )

    n = len(items)
    results: List[Any] = [None] * n
    snapshots_by_index: List[Optional[Dict[str, Any]]] = [None] * n
    failures: List[TaskFailure] = []
    pending = deque(_Task(i, item) for i, item in enumerate(items))
    completed = 0
    error: Optional[BaseException] = None

    def record_ok(task: _Task, result: Any, snaps) -> None:
        nonlocal completed
        results[task.index] = result
        snapshots_by_index[task.index] = snaps
        completed += 1
        exec_reg.counter("exec.tasks").value += 1
        if on_result is not None:
            on_result(task.index, result, snaps)

    def record_failed_attempt(task: _Task, kind: str, message: str) -> None:
        nonlocal completed
        task.attempts += 1
        if kind == "crash":
            exec_reg.counter("exec.worker_crashes").value += 1
        else:
            exec_reg.counter("exec.task_timeouts").value += 1
        if task.attempts >= retry.max_attempts:
            failure = TaskFailure(task.index, kind, message, task.attempts)
            failures.append(failure)
            results[task.index] = failure
            completed += 1
            exec_reg.counter("exec.quarantined").inc(1, kind=kind)
        else:
            exec_reg.counter("exec.retries").inc(1, kind=kind)
            task.ready_at = time.monotonic() + retry.delay(
                task.index, task.attempts
            )
            pending.append(task)

    def replace_worker(slot: int, kill: bool) -> None:
        _shutdown_worker(workers[slot], kill=kill)
        workers[slot] = _spawn_worker(ctx, worker_args)
        exec_reg.counter("exec.worker_restarts").value += 1

    def handle_message(slot: int, message) -> None:
        worker = workers[slot]
        task = worker.task
        worker.task = None
        worker.deadline = None
        _index, status, payload, snaps = message
        if status == "ok":
            record_ok(task, payload, snaps)
        elif isinstance(payload, SimulatedCrash):
            # Serial-style injected crash leaked from fn itself: treat
            # like a worker death (retryable).
            record_failed_attempt(task, "crash", str(payload))
        else:
            nonlocal error
            if error is None:
                error = payload

    try:
        while completed < n and error is None:
            now = time.monotonic()
            # Assign ready tasks to idle workers.
            for slot, worker in enumerate(workers):
                if worker.task is not None or not pending:
                    continue
                if pending[0].ready_at > now:
                    # Backoff order == FIFO order (delays are
                    # monotone in attempts per task; close enough —
                    # rotate to find a ready one).
                    ready_index = next(
                        (
                            k
                            for k, t in enumerate(pending)
                            if t.ready_at <= now
                        ),
                        None,
                    )
                    if ready_index is None:
                        break
                    pending.rotate(-ready_index)
                task = pending.popleft()
                worker.task = task
                worker.deadline = (
                    now + task_timeout_s if task_timeout_s else None
                )
                try:
                    worker.conn.send((task.index, task.attempts, fn, task.item))
                except (OSError, ValueError, BrokenPipeError) as exc:
                    # The worker died before we could feed it.
                    worker.task = None
                    record_failed_attempt(task, "crash", f"send failed: {exc!r}")
                    replace_worker(slot, kill=True)

            busy = [
                (slot, w) for slot, w in enumerate(workers) if w.task is not None
            ]
            if not busy:
                if completed >= n:
                    break
                # Everything is backing off; sleep until the earliest gate.
                gates = [t.ready_at for t in pending]
                if not gates:
                    break  # defensive: nothing busy, nothing pending
                time.sleep(max(0.0, min(gates) - time.monotonic()) + 0.001)
                continue

            wait_for: List[Any] = []
            for _slot, worker in busy:
                wait_for.append(worker.conn)
                wait_for.append(worker.proc.sentinel)
            timeout = None
            deadlines = [w.deadline for _s, w in busy if w.deadline is not None]
            if deadlines:
                timeout = max(0.0, min(deadlines) - time.monotonic())
            gates = [t.ready_at for t in pending if t.ready_at > now]
            if gates and pending:
                gate = max(0.0, min(gates) - time.monotonic())
                timeout = gate if timeout is None else min(timeout, gate)
            ready = connection_wait(wait_for, timeout=timeout)
            ready_set = set(ready)

            now = time.monotonic()
            for slot, worker in busy:
                if worker.task is None:
                    continue
                if worker.conn in ready_set or worker.conn.poll():
                    try:
                        message = worker.conn.recv()
                    except (EOFError, OSError):
                        task = worker.task
                        worker.task = None
                        record_failed_attempt(
                            task, "crash", "worker pipe closed mid-task"
                        )
                        replace_worker(slot, kill=True)
                    else:
                        handle_message(slot, message)
                elif worker.proc.sentinel in ready_set:
                    task = worker.task
                    worker.task = None
                    code = worker.proc.exitcode
                    record_failed_attempt(
                        task, "crash", f"worker died (exit code {code})"
                    )
                    replace_worker(slot, kill=True)
                elif worker.deadline is not None and now >= worker.deadline:
                    task = worker.task
                    worker.task = None
                    record_failed_attempt(
                        task,
                        "timeout",
                        f"task exceeded {task_timeout_s}s; worker killed",
                    )
                    replace_worker(slot, kill=True)
    finally:
        for worker in workers:
            _shutdown_worker(worker, kill=worker.task is not None)

    if error is not None:
        _cleanup_shards(trace_base)
        raise error

    task_metrics: List[Dict[str, Any]] = []
    for snaps in snapshots_by_index:
        if snaps is None:
            continue
        task_metrics.append(snaps)
        evaluator.METRICS.merge(snaps["evaluator"])
        obs_metrics.GLOBAL.merge(snaps["global"])

    shards: List[str] = []
    if trace_base:
        shards = sorted(glob.glob(f"{trace_base}.worker-*.jsonl"))
        tracer = get_tracer()
        if isinstance(tracer, JsonlTracer):
            for shard in shards:
                worker_name = os.path.basename(shard)
                tracer.absorb_shard(shard, worker=worker_name)
        if not keep_shards:
            for shard in shards:
                os.remove(shard)
            shards = []
    return publish(
        ParallelOutcome(
            results=results,
            jobs_used=jobs_used,
            shards=shards,
            task_metrics=task_metrics,
            failures=failures,
        )
    )


def _cleanup_shards(trace_base: Optional[str]) -> None:
    if not trace_base:
        return
    for shard in glob.glob(f"{trace_base}.worker-*.jsonl"):
        try:
            os.remove(shard)
        except OSError:
            pass
