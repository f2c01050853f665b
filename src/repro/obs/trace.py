"""Structured tracing for the synthesis stack.

The synthesizer is a search: almost every interesting performance
question ("where did the 234k expressions go?") is a question about how
wall-clock time and expression budget distribute over *phases* —
enumeration per grammar production, candidate testing, conditional
cover search, loop sub-syntheses. This module provides the spans those
questions are answered with:

* :class:`NullTracer` — the default. Tracing off costs one attribute
  check (``tracer.enabled``) per guarded site plus a no-op span object
  shared across all ``span()`` calls; nothing is allocated per event.
* :class:`JsonlTracer` — streams one JSON object per line to a file as
  each span *closes* (children before parents, so a crashed run still
  has every finished span on disk). :mod:`repro.obs.report` turns the
  stream into a per-phase attribution table.

Instrumented code never imports a concrete tracer; it calls
:func:`get_tracer` and uses whatever is installed::

    from repro.obs.trace import get_tracer

    with get_tracer().span("dbs.enumerate", production="Concatenate") as sp:
        batch = expand()
        sp.set(added=len(batch))

Span nesting is tracked by the tracer itself (a stack), so spans must be
closed in LIFO order — guaranteed by ``with``. The tracers are not
thread-safe; one tracer per worker is the intended sharding model.
"""

from __future__ import annotations

import json
import threading
from contextlib import contextmanager
from time import perf_counter
from typing import (
    Any,
    Dict,
    IO,
    Iterable,
    Iterator,
    List,
    Optional,
    Protocol,
    Tuple,
    Union,
)


class Span(Protocol):
    """A timed, attributed region of work (context manager)."""

    def __enter__(self) -> "Span": ...

    def __exit__(self, exc_type, exc, tb) -> bool: ...

    def set(self, **attrs: Any) -> None:
        """Attach attributes discovered mid-span (e.g. an outcome)."""
        ...


class Tracer(Protocol):
    """The tracing interface instrumentation codes against.

    ``enabled`` is the hot-path guard: expensive attribute computation
    should hide behind ``if tracer.enabled``.
    """

    enabled: bool

    def span(self, name: str, **attrs: Any) -> Span: ...

    def event(self, name: str, **attrs: Any) -> None: ...

    def close(self) -> None: ...


class _NullSpan:
    """Shared, stateless no-op span (safe to reenter/nest)."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def set(self, **attrs: Any) -> None:
        pass


_NULL_SPAN = _NullSpan()


class NullTracer:
    """Tracing disabled: every operation is a near-zero no-op."""

    enabled = False

    def span(self, name: str, **attrs: Any) -> _NullSpan:
        return _NULL_SPAN

    def event(self, name: str, **attrs: Any) -> None:
        pass

    def close(self) -> None:
        pass


NULL_TRACER = NullTracer()


# Per-thread span-*name* stacks, readable across threads: the sampling
# profiler (repro.obs.profile) walks ``sys._current_frames()`` from its
# own daemon thread and tags each thread's stack sample with that
# thread's currently open span path. Tracers register their name stack
# here on span entry (a dict assignment under the GIL — safe to read
# concurrently; a torn read worst-cases as a one-sample-stale path).
_SPAN_PATHS: Dict[int, List[str]] = {}


def current_span_path(ident: int) -> Tuple[str, ...]:
    """The open span-name path of the thread with ``ident`` (root
    first), or () when that thread traces nothing."""
    return tuple(_SPAN_PATHS.get(ident, ()))


class _JsonlSpan:
    """One open span of a :class:`JsonlTracer`."""

    __slots__ = ("tracer", "name", "attrs", "span_id", "parent", "start")

    def __init__(
        self,
        tracer: "JsonlTracer",
        name: str,
        attrs: Dict[str, Any],
        span_id: int,
        parent: Optional[int],
    ):
        self.tracer = tracer
        self.name = name
        self.attrs = attrs
        self.span_id = span_id
        self.parent = parent
        self.start = 0.0

    def __enter__(self) -> "_JsonlSpan":
        tracer = self.tracer
        tracer._stack.append(self.span_id)
        names = tracer._names
        names.append(self.name)
        ident = threading.get_ident()
        if _SPAN_PATHS.get(ident) is not names:
            _SPAN_PATHS[ident] = names
        self.start = perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        end = perf_counter()
        stack = self.tracer._stack
        if stack and stack[-1] == self.span_id:
            stack.pop()
        names = self.tracer._names
        if names and names[-1] == self.name:
            names.pop()
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        self.tracer._write(
            {
                "kind": "span",
                "name": self.name,
                "id": self.span_id,
                "parent": self.parent,
                "ts": self.start - self.tracer._epoch,
                "dur": end - self.start,
                "attrs": self.attrs,
            }
        )
        return False

    def set(self, **attrs: Any) -> None:
        self.attrs.update(attrs)


class JsonlTracer:
    """Streams span/event records as JSON lines.

    Record schema (one object per line; see docs/observability.md):

    * spans — ``{"kind": "span", "name", "id", "parent", "ts", "dur",
      "attrs": {...}}``; ``ts`` is seconds since the tracer was created,
      ``dur`` the span's duration, ``parent`` the enclosing span's id
      (``null`` at top level). Written when the span closes.
    * events — ``{"kind": "event", "name", "parent", "ts",
      "attrs": {...}}``; instantaneous, written immediately.
    """

    enabled = True

    def __init__(self, sink: Union[str, IO[str]], mode: str = "w"):
        if isinstance(sink, str):
            self._file: IO[str] = open(sink, mode, encoding="utf-8")
            self._owns_file = True
        else:
            self._file = sink
            self._owns_file = False
        self._epoch = perf_counter()
        self._stack: List[int] = []
        self._names: List[str] = []
        self._next_id = 0

    def span(self, name: str, **attrs: Any) -> _JsonlSpan:
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        return _JsonlSpan(self, name, attrs, span_id, parent)

    def event(self, name: str, **attrs: Any) -> None:
        self._write(
            {
                "kind": "event",
                "name": name,
                "parent": self._stack[-1] if self._stack else None,
                "ts": perf_counter() - self._epoch,
                "attrs": attrs,
            }
        )

    def _write(self, record: Dict[str, Any]) -> None:
        if self._file.closed:
            return
        self._file.write(json.dumps(record, default=str) + "\n")

    def flush(self) -> None:
        """Push buffered records to disk (workers call this after each
        task so completed work survives an unclean pool shutdown)."""
        if not self._file.closed:
            self._file.flush()

    def absorb_shard(
        self, source: Union[str, Iterable[str]], worker: Optional[str] = None
    ) -> int:
        """Splice a worker tracer's records into this stream.

        This is the merge half of the one-tracer-per-worker sharding
        model: span ids are offset past this tracer's id space (so the
        merged stream stays collision-free), shard-root spans are
        re-parented under this tracer's currently open span, and every
        record is tagged with ``worker`` when given. ``source`` is a
        shard file path or any iterable of JSONL lines. Returns the
        number of records absorbed.

        Shard timestamps are relative to the *worker's* epoch and are
        left untouched — within a shard they order correctly, across
        shards they are not comparable (durations, which the report
        aggregates, always are).
        """
        if isinstance(source, str):
            with open(source, encoding="utf-8") as fh:
                return self.absorb_shard(fh, worker=worker)
        offset = self._next_id
        top = self._stack[-1] if self._stack else None
        count = 0
        max_id = -1
        for line in source:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                # A worker killed mid-write (crash recovery, per-task
                # timeout) leaves a torn final line; everything after it
                # is the tail of the same interrupted write.
                break
            span_id = record.get("id")
            if span_id is not None:
                record["id"] = span_id + offset
                if record["id"] > max_id:
                    max_id = record["id"]
            if record.get("parent") is None:
                record["parent"] = top
            else:
                record["parent"] = record["parent"] + offset
            if worker is not None:
                record.setdefault("attrs", {})["worker"] = worker
            self._write(record)
            count += 1
        if max_id >= self._next_id:
            self._next_id = max_id + 1
        return count

    def close(self) -> None:
        if not self._file.closed:
            self._file.flush()
            if self._owns_file:
                self._file.close()


# ---------------------------------------------------------------------
# The installed tracer.
#
# Process-global with an optional per-thread override: tracers are not
# thread-safe (LIFO span stack), so a thread that must not interleave
# spans into the main thread's stream — e.g. the service's worker
# threads — installs its own (usually Null) tracer with
# :func:`set_thread_tracer`.

_current: Tracer = NULL_TRACER
_thread_local = threading.local()


def get_tracer() -> Tracer:
    """The installed tracer: the calling thread's override if one is
    set, else the process-global tracer (default :data:`NULL_TRACER`)."""
    override = getattr(_thread_local, "tracer", None)
    if override is not None:
        return override
    return _current


def set_tracer(tracer: Optional[Tracer]) -> Tracer:
    """Install ``tracer`` globally; ``None`` restores the null tracer."""
    global _current
    _current = tracer if tracer is not None else NULL_TRACER
    return _current


def set_thread_tracer(tracer: Optional[Tracer]) -> None:
    """Install ``tracer`` for the calling thread only; ``None`` removes
    the override (the thread sees the process-global tracer again)."""
    _thread_local.tracer = tracer


@contextmanager
def tracing(tracer: Tracer) -> Iterator[Tracer]:
    """Install ``tracer`` for the duration of the block, then restore
    the previous tracer and close ``tracer``."""
    previous = _current
    set_tracer(tracer)
    try:
        yield tracer
    finally:
        set_tracer(previous)
        tracer.close()
