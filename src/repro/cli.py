"""Command-line interface: ``python -m repro``.

Subcommands:

* ``synthesize FILE.lasy`` (alias ``synth``) — parse and synthesize a
  LaSy program, print the synthesized functions (and optionally
  generated source);
* ``experiment NAME`` — run one of the paper's experiment drivers
  (e1 strings, e2 tables, e3 xml, e4 pexfun, f7f8 ordering, f9 ablation,
  f10 cdf, a1 dslsize) and print its table/series. ``--checkpoint
  JOURNAL.jsonl`` journals each completed benchmark durably;
  ``--resume`` restarts an interrupted run from the journal;
  ``--task-timeout S`` bounds each benchmark's wall clock (stuck
  workers are killed and retried — see docs/robustness.md);
* ``report-trace FILE.jsonl`` — render the per-phase attribution report
  for a trace captured with the global ``--trace`` option;
* ``serve`` — run the synthesis service: an asyncio JSON-lines server
  multiplexing requests over a warm session cache (``--journal`` makes
  the cache survive restarts; see docs/service.md);
* ``request FILE.lasy`` — send one synthesis request to a running
  server and print the result;
* ``domains`` — list the registered LaSy domains;
* ``puzzles`` — list the Pex4Fun puzzle suite.

The global ``--trace OUT.jsonl`` option streams span/metric events from
the whole run to a JSONL file (see docs/observability.md):

    python -m repro --trace out.jsonl synth task.lasy
    python -m repro report-trace out.jsonl
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from typing import List, Optional

from .core.budget import Budget


def _budget_factory(args):
    return lambda: Budget(
        max_seconds=args.timeout, max_expressions=args.max_expressions
    )


class CliError(Exception):
    """A user-facing CLI failure (bad path, bad input)."""


def _profile_hz(args) -> Optional[float]:
    if not getattr(args, "profile", False):
        return None
    return getattr(args, "profile_hz", 100.0)


def _maybe_tracing(args):
    """Context manager wiring up the observability the flags ask for:
    a JsonlTracer (--trace), the sampling profiler (--profile, emitted
    into the trace on exit), and progress heartbeats (--live renders
    them as a TTY status line; with --trace they are recorded even
    without --live)."""
    trace_path = getattr(args, "trace", None)
    profile_hz = _profile_hz(args)
    live = getattr(args, "live", False)
    if not trace_path and not profile_hz and not live:
        return contextlib.nullcontext()
    if profile_hz and not trace_path:
        raise CliError("--profile needs --trace OUT.jsonl to emit into")
    from .obs import (
        JsonlTracer,
        ProgressEmitter,
        SamplingProfiler,
        TtyStatusLine,
        set_progress,
        tracing,
    )

    tracer = None
    if trace_path:
        try:
            tracer = JsonlTracer(trace_path)
        except OSError as exc:
            raise CliError(f"cannot open trace file {trace_path!r}: {exc}")

    @contextlib.contextmanager
    def observed():
        with contextlib.ExitStack() as stack:
            if tracer is not None:
                stack.enter_context(tracing(tracer))
            status = TtyStatusLine() if live else None
            emitter = ProgressEmitter(listener=status) if (
                live or tracer is not None
            ) else None
            profiler = (
                SamplingProfiler(hz=profile_hz).start() if profile_hz else None
            )
            set_progress(emitter)
            try:
                yield
            finally:
                set_progress(None)
                if status is not None:
                    status.clear()
                if profiler is not None:
                    # Emit while the tracer is still installed (the
                    # ExitStack has not unwound yet).
                    profiler.stop().emit()

    return observed()


def cmd_synthesize(args) -> int:
    from .lasy import parse_lasy, run_lasy, to_csharp, to_python

    with open(args.file, encoding="utf-8") as handle:
        source = handle.read()
    program = parse_lasy(source)
    from .core.tds import TdsOptions

    options = TdsOptions(
        reuse_pool=not args.no_pool_reuse,
        schedule=getattr(args, "schedule", None),
    )
    with _maybe_tracing(args):
        result = run_lasy(
            program, budget_factory=_budget_factory(args), options=options
        )
    status = "ok" if result.success else "FAILED"
    print(f"{status}  ({result.elapsed:.1f}s, language={program.language})")
    for name, fn in result.functions.items():
        print(f"\n== {name} ==")
        print(f"  {fn}")
        body = getattr(fn, "body", None)
        if body is not None and args.emit in ("python", "both"):
            print(to_python(fn.signature, body))
        if body is not None and args.emit in ("csharp", "both"):
            print(to_csharp(fn.signature, body))
    if args.trace:
        print(f"\ntrace written to {args.trace}; inspect with:")
        print(f"  python -m repro report-trace {args.trace}")
    return 0 if result.success else 1


def cmd_serve(args) -> int:
    import asyncio

    from .serve.server import ServerConfig, SynthesisServer

    from .core.tds import TdsOptions

    config = ServerConfig(
        host=args.host,
        port=args.port,
        max_workers=max(1, args.max_workers),
        queue_depth=max(1, args.queue_depth),
        cache_size=max(1, args.cache_size),
        journal_path=args.journal,
        default_timeout_s=(
            None if args.default_timeout <= 0 else args.default_timeout
        ),
        budget_factory=_budget_factory(args),
        options=TdsOptions(schedule=getattr(args, "schedule", None)),
    )

    async def serve() -> None:
        server = SynthesisServer(config)
        await server.start()
        host, port = server.address
        restored = server.cache.stats().get("restored", 0)
        # Parseable: the smoke tests and scripts scan for this line.
        print(f"serving on {host}:{port}", flush=True)
        if restored:
            print(f"restored {restored} warm sessions from journal",
                  flush=True)
        try:
            await server.serve_until_shutdown()
        except asyncio.CancelledError:
            await server.aclose()
            raise

    with _maybe_tracing(args):
        try:
            asyncio.run(serve())
        except KeyboardInterrupt:
            print("interrupted; cache journaled", file=sys.stderr)
    return 0


def cmd_request(args) -> int:
    import json as _json

    from .serve.client import request

    with open(args.file, encoding="utf-8") as handle:
        source = handle.read()
    payload = {"id": args.file, "op": "synthesize", "program": source}
    if args.request_timeout is not None:
        payload["timeout_s"] = (
            None if args.request_timeout <= 0 else args.request_timeout
        )
    if getattr(args, "schedule", None):
        payload["schedule"] = args.schedule
    try:
        response = request(
            payload, host=args.host, port=args.port, timeout=args.wait
        )
    except (ConnectionError, OSError) as exc:
        raise CliError(f"cannot reach server at {args.host}:{args.port}: "
                       f"{exc}")
    if args.json:
        print(_json.dumps(response, indent=2, sort_keys=True))
    else:
        if not response.get("ok"):
            error = response.get("error") or {}
            print(f"error [{error.get('code')}]: {error.get('message')}",
                  file=sys.stderr)
        else:
            status = "ok" if response.get("success") else "FAILED"
            print(f"{status}  ({response.get('elapsed', 0.0):.3f}s)")
            for name, info in (response.get("functions") or {}).items():
                hit = (response.get("cache") or {}).get(name, {})
                tag = ""
                if hit:
                    tag = (
                        f"  [cache hit, {hit.get('reused_examples', 0)} "
                        "examples reused]"
                        if hit.get("hit")
                        else "  [cold]"
                    )
                body = info.get("program")
                if body is None and info.get("lookup"):
                    body = "lookup"
                print(f"  {name}: {body}{tag}")
    if not response.get("ok"):
        return 2
    if args.expect_cache_hit:
        cache = response.get("cache") or {}
        if not cache or not all(v.get("hit") for v in cache.values()):
            print("expected a cache hit but the run was cold",
                  file=sys.stderr)
            return 1
    return 0 if response.get("success") else 1


_EXPERIMENTS = {
    "e1": ("strings_exp", "E1 §6.1.1 string transformations"),
    "e2": ("tables_exp", "E2 §6.1.2 table transformations"),
    "e3": ("xml_exp", "E3 §6.1.3 XML transformations"),
    "e4": ("pexfun_exp", "E4 §6.1.4 Pex4Fun"),
    "f7f8": ("ordering", "F7/F8 §6.2 example ordering"),
    "f9": ("ablation", "F9 §6.3 ablation"),
    "f10": ("cdf", "F10 §6.4 DBS time CDF"),
    "a1": ("dslsize", "A1 §5.1 DSL size limit"),
}


def cmd_experiment(args) -> int:
    import importlib

    from .experiments.common import ExperimentConfig

    if args.name not in _EXPERIMENTS:
        print(f"unknown experiment {args.name!r}; choose from "
              f"{', '.join(sorted(_EXPERIMENTS))}", file=sys.stderr)
        return 2
    module_name, _ = _EXPERIMENTS[args.name]
    module = importlib.import_module(f".experiments.{module_name}", "repro")
    if args.trace:
        # Fail before hours of benchmarks, not after: the tracer itself
        # only opens the file once the first suite starts.
        try:
            open(args.trace, "w", encoding="utf-8").close()
        except OSError as exc:
            raise CliError(f"cannot open trace file {args.trace!r}: {exc}")
    if args.resume and not args.checkpoint:
        raise CliError("--resume requires --checkpoint JOURNAL.jsonl")
    if args.profile and not args.trace:
        raise CliError("--profile needs --trace OUT.jsonl to emit into")
    config = ExperimentConfig(
        budget_seconds=args.timeout,
        budget_expressions=args.max_expressions,
        trace_path=args.trace,
        jobs=max(1, args.jobs),
        checkpoint_path=args.checkpoint,
        resume=args.resume,
        task_timeout_s=args.task_timeout,
        limit=args.limit,
        profile_hz=_profile_hz(args),
        live=args.live,
    )
    result = module.run(config)
    print(module.report(result))
    return 0


def cmd_report_trace(args) -> int:
    import json as _json

    from .obs import (
        TraceParseError,
        build_hotspots,
        build_report,
        diff_reports,
        flame_lines,
        hotspots_to_json,
        load_events,
        render_diff,
        render_hotspots,
        render_json,
        render_text,
        to_json,
    )

    if args.diff and len(args.files) != 2:
        print("--diff needs exactly two trace files: OLD.jsonl NEW.jsonl",
              file=sys.stderr)
        return 2
    if not args.diff and len(args.files) != 1:
        print("report-trace takes one trace file (two with --diff)",
              file=sys.stderr)
        return 2

    loaded = []
    for path in args.files:
        try:
            events = load_events(path)
        except FileNotFoundError:
            print(f"no such trace file: {path}", file=sys.stderr)
            return 2
        except OSError as exc:
            print(f"cannot read trace file {path!r}: {exc}", file=sys.stderr)
            return 2
        except TraceParseError as exc:
            print(f"bad trace file {path}: {exc}", file=sys.stderr)
            return 2
        if not events:
            print(f"empty trace file (no complete records): {path}",
                  file=sys.stderr)
            return 2
        loaded.append(events)

    if args.diff:
        diff = diff_reports(build_report(loaded[0]), build_report(loaded[1]))
        if args.json:
            print(_json.dumps(diff, indent=2, sort_keys=True))
        else:
            print(render_diff(diff, top=args.top))
        return 0

    events = loaded[0]
    if args.flame:
        lines = flame_lines(events)
        if not lines:
            print("trace has no samples or timed spans to collapse",
                  file=sys.stderr)
            return 2
        print("\n".join(lines))
        return 0

    report = build_report(events)
    if args.hotspots:
        hotspots = build_hotspots(report, top=args.top, sort=args.sort)
        if args.json:
            print(_json.dumps(hotspots_to_json(hotspots), indent=2,
                              sort_keys=True))
        else:
            print(render_hotspots(hotspots))
        return 0
    if args.json:
        print(render_json(report))
    else:
        print(render_text(report, top_productions=args.top))
    return 0


def cmd_domains(args) -> int:
    from .domains import known_domains

    for name, domain in sorted(known_domains().items()):
        dsl = domain.dsl()
        print(f"{name:10s} {dsl.num_rules:3d} rules  {domain.description}")
    return 0


def cmd_puzzles(args) -> int:
    from .pex import PUZZLES

    for puzzle in PUZZLES:
        flag = "" if puzzle.expressible else "  (out of DSL scope)"
        print(f"{puzzle.name:22s} [{puzzle.category}] "
              f"{puzzle.signature}{flag}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Test-Driven Synthesis (PLDI 2014) reproduction",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=30.0,
        help="per-DBS wall-clock budget in seconds (default 30)",
    )
    parser.add_argument(
        "--max-expressions",
        type=int,
        default=300_000,
        help="per-DBS expression budget (default 300000)",
    )
    parser.add_argument(
        "--trace",
        metavar="OUT.jsonl",
        default=None,
        help="stream span/metric events to a JSONL trace file "
        "(read back with the report-trace subcommand)",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="sample wall-clock stacks (default 100 Hz; see "
        "--profile-hz) and emit them into the --trace file; inspect "
        "with report-trace --hotspots / --flame",
    )
    parser.add_argument(
        "--profile-hz",
        type=float,
        default=100.0,
        metavar="HZ",
        help="sampling rate for --profile (default 100)",
    )
    parser.add_argument(
        "--live",
        action="store_true",
        help="render synthesis progress heartbeats as a live status "
        "line on stderr",
    )
    parser.add_argument(
        "--schedule",
        choices=("fifo", "adaptive"),
        default=None,
        help="example scheduler: fifo (caller order, the default) or "
        "adaptive (cheap-first ordering, timeout deferral, escalating "
        "per-iteration deadlines) "
        "(equivalent to REPRO_TDS_SCHEDULE; see docs/scheduling.md)",
    )
    parser.add_argument(
        "--no-pool-reuse",
        action="store_true",
        help="rebuild the component pool from scratch on every TDS "
        "iteration instead of extending the previous iteration's pool "
        "(the pre-engine behavior; mainly for A/B timing)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for experiment suites (traces and "
        "metrics are merged back; default 1)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "synthesize", aliases=["synth"], help="synthesize a .lasy file"
    )
    p.add_argument("file")
    p.add_argument(
        "--emit",
        choices=("none", "python", "csharp", "both"),
        default="python",
        help="emit generated source for synthesized functions",
    )
    p.set_defaults(fn=cmd_synthesize)

    p = sub.add_parser("experiment", help="run a paper experiment")
    p.add_argument("name", help=", ".join(sorted(_EXPERIMENTS)))
    p.add_argument(
        "--checkpoint",
        metavar="JOURNAL.jsonl",
        default=None,
        help="journal each completed benchmark to this JSONL file "
        "(durable: fsync per record); combine with --resume to pick "
        "an interrupted run back up",
    )
    p.add_argument(
        "--resume",
        action="store_true",
        help="skip benchmarks already recorded in the --checkpoint "
        "journal, restoring their results and metrics",
    )
    p.add_argument(
        "--task-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-benchmark wall limit; with --jobs > 1 a stuck worker "
        "is killed and the benchmark retried on a fresh one",
    )
    p.add_argument(
        "--limit",
        type=int,
        default=None,
        metavar="N",
        help="run only the first N benchmarks of each suite (smoke "
        "runs and CI; not for reported results)",
    )
    p.set_defaults(fn=cmd_experiment)

    p = sub.add_parser(
        "report-trace",
        help="render per-phase / hotspot reports from a trace file",
    )
    p.add_argument(
        "files",
        nargs="+",
        metavar="FILE.jsonl",
        help="trace file (two files with --diff: OLD NEW)",
    )
    p.add_argument(
        "--json", action="store_true", help="emit the report as JSON"
    )
    p.add_argument(
        "--top",
        type=int,
        default=12,
        help="rows per table (default 12)",
    )
    p.add_argument(
        "--hotspots",
        action="store_true",
        help="top-N productions/strategies/examples/functions by cost",
    )
    p.add_argument(
        "--sort",
        choices=("time", "budget"),
        default="time",
        help="hotspot ordering: self-time or expression budget "
        "(default time)",
    )
    p.add_argument(
        "--flame",
        action="store_true",
        help="emit collapsed-stack flamegraph lines "
        "(flamegraph.pl / speedscope)",
    )
    p.add_argument(
        "--diff",
        action="store_true",
        help="diff two traces: per-phase/per-hotspot deltas (new - old)",
    )
    p.set_defaults(fn=cmd_report_trace)

    p = sub.add_parser(
        "serve",
        help="run the synthesis service (JSON-lines over TCP)",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument(
        "--port",
        type=int,
        default=7337,
        help="TCP port (0 = let the OS pick; the bound port is printed)",
    )
    p.add_argument(
        "--max-workers",
        type=int,
        default=2,
        metavar="N",
        help="synthesis worker threads (default 2; use 1 to capture "
        "synthesis spans with --trace)",
    )
    p.add_argument(
        "--queue-depth",
        type=int,
        default=8,
        metavar="N",
        help="admission control: max synthesize requests in flight "
        "before new ones are rejected as overloaded (default 8)",
    )
    p.add_argument(
        "--cache-size",
        type=int,
        default=8,
        metavar="N",
        help="warm sessions kept in the LRU cache (default 8)",
    )
    p.add_argument(
        "--journal",
        metavar="JOURNAL.jsonl",
        default=None,
        help="persist the session cache to this journal (durable: "
        "fsync per record); a restarted server restores it and comes "
        "back warm",
    )
    p.add_argument(
        "--default-timeout",
        type=float,
        default=20.0,
        metavar="SECONDS",
        help="hard wall per request when the request names none "
        "(default 20; <= 0 = unbounded)",
    )
    p.set_defaults(fn=cmd_serve)

    p = sub.add_parser(
        "request",
        help="send one .lasy file to a running synthesis server",
    )
    p.add_argument("file")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=7337)
    p.add_argument(
        "--request-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="hard wall for this request (overrides the server "
        "default; <= 0 = unbounded)",
    )
    p.add_argument(
        "--wait",
        type=float,
        default=120.0,
        metavar="SECONDS",
        help="client-side round-trip timeout (default 120)",
    )
    p.add_argument(
        "--json", action="store_true", help="print the raw response"
    )
    p.add_argument(
        "--expect-cache-hit",
        action="store_true",
        help="exit 1 unless every function warm-hit the session cache "
        "(CI smoke checks)",
    )
    p.set_defaults(fn=cmd_request)

    p = sub.add_parser("domains", help="list registered domains")
    p.set_defaults(fn=cmd_domains)

    p = sub.add_parser("puzzles", help="list the Pex4Fun puzzles")
    p.set_defaults(fn=cmd_puzzles)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "schedule", None):
        # Experiment workers and nested tds() calls resolve the
        # scheduler through the environment.
        import os

        os.environ["REPRO_TDS_SCHEDULE"] = args.schedule
    try:
        return args.fn(args)
    except CliError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except BrokenPipeError:
        # report-trace output is meant to be piped (`... | head`); when
        # the reader closes early, exit quietly like other Unix filters
        # instead of tracebacking. Re-point stdout at devnull so the
        # interpreter's exit-time flush doesn't raise again.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
