"""The asyncio synthesis server.

One process hosts one :class:`SynthesisServer`: an ``asyncio`` TCP
listener that reads JSON-line requests (see :mod:`.protocol`), runs the
actual synthesis on a small thread pool (the engine is synchronous,
CPU-bound Python), and multiplexes every request over one shared
:class:`~repro.core.engine.cache.SessionCache` — so a repeated or
prefix-extended request checks out a warm session and skips the TDS
iterations it already ran (docs/service.md).

Admission control is two-layered:

* a **queue depth** — at most ``queue_depth`` synthesize requests may
  be admitted (running or waiting for a worker thread) at once; past
  that the server answers ``overloaded`` immediately instead of letting
  latency grow without bound;
* a **per-request deadline** — ``timeout_s`` (request field, default
  from config) arms the engine's hard wall
  (:class:`~repro.core.budget.Deadline`) plus a
  :class:`~repro.core.budget.CancelToken` the connection handler fires
  if the client goes away, so an abandoned request stops burning a
  worker within one cooperative check.

The cache journals checked-in sessions to ``journal_path`` (an
:class:`~repro.exec.checkpoint.Journal`), so a killed-and-restarted
server comes back warm.
"""

from __future__ import annotations

import asyncio
import dataclasses
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional

from ..core.budget import Budget, CancelToken
from ..core.engine.cache import SessionCache
from ..core.tds import TdsOptions
from ..obs import metrics as obs_metrics
from ..obs.trace import NULL_TRACER, get_tracer, set_thread_tracer
from .protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    decode_line,
    encode,
    error_response,
    ok_response,
)


@dataclass
class ServerConfig:
    """Knobs for one server instance (the CLI mirrors these 1:1)."""

    host: str = "127.0.0.1"
    port: int = 0  # 0 = let the OS pick; see SynthesisServer.address
    max_workers: int = 2
    queue_depth: int = 8
    cache_size: int = 8
    journal_path: Optional[str] = None
    # Hard wall per synthesize request when the request names none.
    # None = unbounded (the per-DBS soft budget still applies).
    default_timeout_s: Optional[float] = 20.0
    budget_factory: Optional[Callable[[], Budget]] = None
    options: Optional[TdsOptions] = None


class SynthesisServer:
    """JSON-lines synthesis service over one warm session cache."""

    def __init__(
        self,
        config: Optional[ServerConfig] = None,
        metrics: Optional[obs_metrics.Registry] = None,
    ) -> None:
        self.config = config or ServerConfig()
        self.metrics = metrics if metrics is not None else obs_metrics.GLOBAL
        self.cache = SessionCache(
            capacity=self.config.cache_size,
            metrics=self.metrics,
            journal_path=self.config.journal_path,
        )
        # Tracers are LIFO per thread and not thread-safe; with more
        # than one worker each thread gets the null tracer so parallel
        # requests can't interleave spans (run --max-workers 1 to
        # capture synthesis spans in a --trace).
        initializer = (
            (lambda: set_thread_tracer(NULL_TRACER))
            if self.config.max_workers > 1
            else None
        )
        self._executor = ThreadPoolExecutor(
            max_workers=max(1, self.config.max_workers),
            thread_name_prefix="repro-serve",
            initializer=initializer,
        )
        self._inflight = 0
        self._server: Optional[asyncio.AbstractServer] = None
        self._shutdown = asyncio.Event()
        self._c_requests = self.metrics.counter("serve.requests")
        self._c_rejected = self.metrics.counter("serve.rejected")
        self._c_errors = self.metrics.counter("serve.errors")
        self._c_timeouts = self.metrics.counter("serve.timeouts")

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )

    @property
    def address(self) -> tuple:
        """The bound ``(host, port)`` — resolves port 0 to the real one."""
        assert self._server is not None, "server not started"
        return self._server.sockets[0].getsockname()[:2]

    async def serve_until_shutdown(self) -> None:
        """Serve until a ``shutdown`` request (or task cancellation)."""
        assert self._server is not None, "server not started"
        async with self._server:
            await self._shutdown.wait()
        await self.aclose()

    async def aclose(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        self._executor.shutdown(wait=True)
        # Suspended sessions are already journaled at release; close
        # just drops the in-memory map and the journal handle.
        self.cache.close()

    # -- connection handling -----------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        # Fired when the client disconnects; every synthesis running on
        # behalf of this connection checks it cooperatively.
        gone = CancelToken()
        try:
            while True:
                try:
                    line = await reader.readline()
                except (ConnectionResetError, asyncio.IncompleteReadError):
                    break
                except asyncio.CancelledError:
                    # Server shutdown cancels handlers parked between
                    # requests; close the connection quietly instead of
                    # letting the cancellation surface as a logged
                    # traceback in the streams callback.
                    break
                if not line:
                    break
                if line.strip() == b"":
                    continue
                try:
                    message = decode_line(line)
                except ProtocolError as exc:
                    response = error_response(None, "bad-request", str(exc))
                else:
                    response = await self._dispatch(message, gone)
                writer.write(encode(response))
                try:
                    await writer.drain()
                except (ConnectionResetError, BrokenPipeError):
                    break
        finally:
            gone.cancel("client disconnected")
            writer.close()
            try:
                await writer.wait_closed()
            except (
                ConnectionResetError,
                BrokenPipeError,
                asyncio.CancelledError,
            ):
                pass

    async def _dispatch(
        self, message: Dict[str, Any], gone: CancelToken
    ) -> Dict[str, Any]:
        request_id = message.get("id")
        op = message.get("op")
        self._c_requests.inc()
        if op == "ping":
            return ok_response(request_id, version=PROTOCOL_VERSION)
        if op == "stats":
            return ok_response(
                request_id,
                version=PROTOCOL_VERSION,
                inflight=self._inflight,
                cache=self.cache.stats(),
                counters={
                    "requests": self._c_requests.value,
                    "rejected": self._c_rejected.value,
                    "errors": self._c_errors.value,
                    "timeouts": self._c_timeouts.value,
                },
            )
        if op == "shutdown":
            self._shutdown.set()
            return ok_response(request_id)
        if op == "synthesize":
            return await self._synthesize(request_id, message, gone)
        self._c_errors.inc()
        return error_response(
            request_id, "bad-request", f"unknown op {op!r}"
        )

    async def _synthesize(
        self, request_id: Any, message: Dict[str, Any], gone: CancelToken
    ) -> Dict[str, Any]:
        source = message.get("program")
        if not isinstance(source, str) or not source.strip():
            self._c_errors.inc()
            return error_response(
                request_id, "bad-request", "missing 'program' (LaSy source)"
            )
        timeout_s = message.get("timeout_s", self.config.default_timeout_s)
        if timeout_s is not None and not isinstance(timeout_s, (int, float)):
            self._c_errors.inc()
            return error_response(
                request_id, "bad-request", "'timeout_s' must be a number"
            )
        # Per-request example scheduler ("schedule": "fifo" |
        # "adaptive"); None falls back to the server's options.
        # A different scheduler keys a different cached session, so a
        # client's choice never poisons another client's warm state.
        schedule = message.get("schedule")
        if schedule is not None:
            from ..core.engine.schedule import SCHEDULERS

            if not isinstance(schedule, str) or schedule not in SCHEDULERS:
                self._c_errors.inc()
                return error_response(
                    request_id,
                    "bad-request",
                    f"'schedule' must be one of {sorted(SCHEDULERS)}",
                )
        # Admission control: count a request from acceptance to
        # completion (queued-for-a-worker time included — that wait is
        # exactly the latency the bound protects).
        if self._inflight >= self.config.queue_depth:
            self._c_rejected.inc()
            return error_response(
                request_id,
                "overloaded",
                f"queue full ({self._inflight} requests in flight); "
                "retry later",
                queue_depth=self.config.queue_depth,
            )
        self._inflight += 1
        with get_tracer().span("serve.request", op="synthesize") as span:
            try:
                loop = asyncio.get_running_loop()
                response = await loop.run_in_executor(
                    self._executor,
                    self._run_synthesis,
                    request_id,
                    source,
                    timeout_s,
                    schedule,
                    gone,
                )
            except Exception as exc:  # pragma: no cover - defensive
                self._c_errors.inc()
                response = error_response(request_id, "internal", str(exc))
            finally:
                self._inflight -= 1
            span.set(ok=response.get("ok", False))
        return response

    # -- the worker-thread side --------------------------------------------

    def _run_synthesis(
        self,
        request_id: Any,
        source: str,
        timeout_s: Optional[float],
        schedule: Optional[str],
        gone: CancelToken,
    ) -> Dict[str, Any]:
        from ..lasy.parser import LasyParseError, parse_lasy
        from ..lasy.runner import run_lasy

        try:
            program = parse_lasy(source)
        except LasyParseError as exc:
            self._c_errors.inc()
            return error_response(request_id, "parse-error", str(exc))
        options = self.config.options or TdsOptions()
        # The request's hard wall overrides the config default; 0 (or
        # null in the request) lifts it.
        options = dataclasses.replace(
            options, timeout_s=timeout_s if timeout_s else None
        )
        if schedule is not None:
            options = dataclasses.replace(options, schedule=schedule)
        start = time.monotonic()
        try:
            result = run_lasy(
                program,
                budget_factory=self.config.budget_factory,
                options=options,
                session_cache=self.cache,
                cancel=gone,
            )
        except LasyParseError as exc:  # unknown language, bad decl
            self._c_errors.inc()
            return error_response(request_id, "parse-error", str(exc))
        except (KeyError, ValueError) as exc:
            self._c_errors.inc()
            return error_response(request_id, "bad-request", str(exc))
        elapsed = time.monotonic() - start

        functions: Dict[str, Any] = {}
        for name, fn in result.functions.items():
            body = getattr(fn, "body", None)
            functions[name] = {
                "program": None if body is None else str(body),
                "lookup": body is None,
            }
        timeout_reasons: Dict[str, str] = {}
        for name, fn_result in result.results.items():
            for step in fn_result.steps:
                if step.action == "timeout" and step.timeout_reason:
                    timeout_reasons[name] = step.timeout_reason
        if result.truncated:
            self._c_timeouts.inc()
        return ok_response(
            request_id,
            success=result.success,
            elapsed=round(elapsed, 6),
            functions=functions,
            cache=result.cache_info,
            truncated=result.truncated,
            timeout_reasons=timeout_reasons,
        )


async def run_server(
    config: ServerConfig,
    ready: Optional[Callable[[str, int], None]] = None,
) -> None:
    """Start a server and run it until shutdown; ``ready`` is called
    with the bound (host, port) once the socket is listening."""
    server = SynthesisServer(config)
    await server.start()
    if ready is not None:
        host, port = server.address
        ready(host, port)
    await server.serve_until_shutdown()
