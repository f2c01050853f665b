"""Turn a JSONL trace into a per-phase attribution report.

The report answers the two questions a timed-out synthesis raises:
*where did the time go* and *where did the expression budget go*. Time
is attributed by **self-time** — each span's duration minus its direct
children's — so the rows sum to the traced total even with nested
spans (a loop sub-synthesis's enumeration counts as enumeration, not as
"loops"). Expressions are attributed from the ``offered`` attribute the
enumeration and strategy spans carry.

Totals are reconciled against the ``dbs.metrics`` events each DBS run
emits on exit: ``total_seconds``/``total_expressions`` must agree with
the sum of ``DbsStats.elapsed``/``DbsStats.expressions`` over the
top-level runs (nested loop-body sub-syntheses run on their own spawned
budgets and are excluded from the totals, though their time still
attributes to phases).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, IO, Iterable, List, Optional, Sequence, Tuple, Union


class TraceParseError(ValueError):
    """A trace line was not a valid event record."""


# span name -> phase label in the attribution table
_PHASES = {
    "dbs": "dbs dispatch/other",
    "dbs.enumerate": "enumerate",
    # Batched value-vector enumeration; a separate phase so the split
    # between batched and per-candidate (``dbs.enumerate``) expansion
    # shows directly in the report.
    "dbs.enum.batched": "enum",
    # Warm-pool extension between TDS iterations (widening cached value
    # vectors, reviving shadows, re-seeding atoms).
    "pool.extend": "pool",
    # Example-scheduling decisions (engine.schedule): ordering the
    # pending queue. Self-time only — the admission the decision leads
    # to is attributed to its own phases.
    "tds.schedule": "schedule",
    "dbs.test": "test",
    "dbs.strategies": "strategies",
    "dbs.conditionals": "conditionals",
    "dbs.loops": "loops",
    "dbs.loops.rule": "loops",
}


def load_events(source: Union[str, IO[str], Iterable[str]]) -> List[dict]:
    """Parse a JSONL trace (path, file object, or iterable of lines).

    A torn *final* line — a run killed mid-write (crash recovery,
    per-task timeout) — is dropped rather than rejected, the same
    tolerance the checkpoint journal and ``absorb_shard`` apply; every
    complete span before it is still reported. Corruption anywhere else
    raises :class:`TraceParseError`.
    """
    if isinstance(source, str):
        with open(source, encoding="utf-8") as handle:
            return load_events(handle)
    lines = list(source)
    events: List[dict] = []
    for lineno, line in enumerate(lines, 1):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            if all(not rest.strip() for rest in lines[lineno:]):
                break  # torn tail: the interrupted final write
            raise TraceParseError(f"line {lineno}: not JSON: {exc}") from exc
        if not isinstance(record, dict) or "kind" not in record or "name" not in record:
            raise TraceParseError(
                f"line {lineno}: not a trace record: {line[:80]!r}"
            )
        events.append(record)
    return events


@dataclass
class PhaseRow:
    """One row of the attribution table."""

    phase: str
    calls: int = 0
    seconds: float = 0.0  # self-time
    expressions: int = 0  # budget charged inside this phase's spans


@dataclass
class ProductionRow:
    """Enumeration cost of one grammar production."""

    production: str
    calls: int = 0
    seconds: float = 0.0
    offered: int = 0
    added: int = 0
    sig_rejected: int = 0


# One aggregated profiler sample bucket:
# (worker tag or None, open-span path, frame stack) -> sample count.
SampleKey = Tuple[Optional[str], Tuple[str, ...], Tuple[str, ...]]

# Stacks parked in these leaves are waiting, not working: with jobs>1
# the driver blocks in selectors:select on worker pipes for most of the
# run (and a worker between tasks waits the same way), which used to
# bury the real worker-side hotspots under ~46% driver wait. Hotspot
# tables report them as one "idle" bucket; flame stacks collapse them
# to a single "idle" frame.
_IDLE_LEAVES = frozenset(
    {
        "selectors:select",
        "multiprocessing.connection:wait",
        # The serve front-end: the asyncio event loop parks in
        # selectors:select (covered above); its executor threads park
        # between requests in queue-condition waits inside the thread
        # pool's _worker loop.
        "threading:wait",
        "concurrent.futures.thread:_worker",
    }
)


def is_idle_stack(frames: Tuple[str, ...]) -> bool:
    """Whether a sampled frame stack is a pipe/select wait, not work."""
    return bool(frames) and frames[-1] in _IDLE_LEAVES


@dataclass
class TraceReport:
    phases: List[PhaseRow] = field(default_factory=list)
    productions: List[ProductionRow] = field(default_factory=list)
    counters: Dict[str, float] = field(default_factory=dict)
    labels: Dict[str, Dict[str, float]] = field(default_factory=dict)
    actions: Dict[str, int] = field(default_factory=dict)  # tds outcomes
    samples: Dict[SampleKey, int] = field(default_factory=dict)
    sample_count: int = 0  # profiler wake-ups across all shards
    sample_interval: float = 0.0  # seconds between wake-ups
    dbs_runs: int = 0
    nested_runs: int = 0
    total_seconds: float = 0.0  # top-level dbs spans
    total_expressions: int = 0  # top-level dbs budgets
    wall_seconds: float = 0.0
    n_spans: int = 0
    n_events: int = 0


def build_report(events: Sequence[dict]) -> TraceReport:
    report = TraceReport()
    phases: Dict[str, PhaseRow] = {}
    productions: Dict[str, ProductionRow] = {}
    # Children are written before their parent closes, so one forward
    # pass can pay each span's child time back to it.
    child_time: Dict[Optional[int], float] = {}

    for record in events:
        kind = record.get("kind")
        name = record.get("name", "")
        attrs = record.get("attrs") or {}
        if kind == "event":
            report.n_events += 1
            if name in ("dbs.metrics", "exec.metrics"):
                # exec.metrics carries the fault-tolerance counters
                # (exec.retries, exec.quarantined, ...) from parallel_map.
                _merge_metrics(report, attrs)
            elif name == "profile.samples":
                _merge_samples(report, attrs)
            continue
        if kind != "span":
            continue
        report.n_spans += 1
        span_id = record.get("id")
        dur = float(record.get("dur", 0.0))
        ts = float(record.get("ts", 0.0))
        report.wall_seconds = max(report.wall_seconds, ts + dur)
        self_time = dur - child_time.pop(span_id, 0.0)
        parent = record.get("parent")
        child_time[parent] = child_time.get(parent, 0.0) + dur

        if name.startswith("dbs") or name in _PHASES:
            phase = _PHASES.get(name, name)
            row = phases.get(phase)
            if row is None:
                row = phases[phase] = PhaseRow(phase)
            row.calls += 1
            row.seconds += max(self_time, 0.0)
            row.expressions += int(attrs.get("offered", 0) or 0)
        if name == "dbs":
            if attrs.get("nested"):
                report.nested_runs += 1
            else:
                report.dbs_runs += 1
                report.total_seconds += dur
        if name in ("dbs.enumerate", "dbs.enum.batched"):
            label = str(attrs.get("production", "?"))
            prow = productions.get(label)
            if prow is None:
                prow = productions[label] = ProductionRow(label)
            prow.calls += 1
            prow.seconds += dur
            prow.offered += int(attrs.get("offered", 0) or 0)
            prow.added += int(attrs.get("added", 0) or 0)
        if name in ("tds.example", "tds.retry"):
            action = str(attrs.get("action", "?"))
            report.actions[action] = report.actions.get(action, 0) + 1

    # Per-production signature rejections come from the labeled
    # prof.production.sig_rejected counter (dbs.metrics events), not
    # from span attrs; fold them into the span-derived rows.
    for key, value in report.labels.get(
        "prof.production.sig_rejected", {}
    ).items():
        label = _label_value(key, "production")
        if label is None:
            continue
        row = productions.get(label)
        if row is None:
            row = productions[label] = ProductionRow(label)
        row.sig_rejected += int(value)

    report.phases = sorted(
        phases.values(), key=lambda r: r.seconds, reverse=True
    )
    report.productions = sorted(
        productions.values(), key=lambda r: r.seconds, reverse=True
    )
    return report


def _label_value(display_key: str, label: str) -> Optional[str]:
    """The value of ``label`` in a rendered label key like
    ``"index=3"`` or ``"production=e<-Concat,reason=size"``."""
    for part in display_key.split(","):
        k, sep, v = part.partition("=")
        if sep and k == label:
            return v
    return None


def _merge_samples(report: TraceReport, attrs: Dict[str, Any]) -> None:
    """Fold one ``profile.samples`` event (parent or spliced worker
    shard) into the report's aggregated sample buckets."""
    report.sample_count += int(attrs.get("count", 0) or 0)
    interval = float(attrs.get("interval_s", 0.0) or 0.0)
    if interval:
        report.sample_interval = interval
    worker = attrs.get("worker")
    samples = report.samples
    for triple in attrs.get("samples") or ():
        try:
            path, frames, count = triple
        except (TypeError, ValueError):
            continue
        key = (worker, tuple(path), tuple(frames))
        samples[key] = samples.get(key, 0) + int(count)


def _merge_metrics(report: TraceReport, attrs: Dict[str, Any]) -> None:
    metrics = attrs.get("metrics") or {}
    nested = bool(attrs.get("nested"))
    if not nested:
        expressions = metrics.get("dbs.expressions", {})
        if isinstance(expressions, dict):
            report.total_expressions += int(expressions.get("value", 0))
    for name, snap in metrics.items():
        if not isinstance(snap, dict):
            continue
        value = snap.get("value")
        if value is None:
            value = snap.get("total", 0.0)
        if isinstance(value, (int, float)):
            report.counters[name] = report.counters.get(name, 0) + value
        for label, lvalue in (snap.get("labels") or {}).items():
            if isinstance(lvalue, dict):  # histogram bucket
                lvalue = lvalue.get("total", 0.0)
            if isinstance(lvalue, (int, float)):
                bucket = report.labels.setdefault(name, {})
                bucket[label] = bucket.get(label, 0) + lvalue


# ---------------------------------------------------------------------
# Rendering


def _table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    rendered = [[str(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rendered:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def fmt(cells: Sequence[str]) -> str:
        return "  ".join(c.ljust(w) for c, w in zip(cells, widths))

    lines = [fmt(list(headers)), fmt(["-" * w for w in widths])]
    lines.extend(fmt(row) for row in rendered)
    return "\n".join(lines)


def render_text(report: TraceReport, top_productions: int = 12) -> str:
    """The human-readable per-phase attribution report."""
    out: List[str] = []
    total = report.total_seconds or report.wall_seconds or 1.0
    out.append(
        f"trace: {report.n_spans} spans, {report.n_events} events, "
        f"{report.wall_seconds:.2f}s wall"
    )
    out.append(
        f"dbs runs: {report.dbs_runs} top-level"
        + (f" (+{report.nested_runs} nested)" if report.nested_runs else "")
        + f", {report.total_seconds:.2f}s, "
        f"{report.total_expressions} expressions"
    )
    if report.actions:
        summary = ", ".join(
            f"{action}={count}"
            for action, count in sorted(report.actions.items())
        )
        out.append(f"tds steps: {summary}")
    out.append("")
    out.append("Per-phase attribution (self-time):")
    out.append(
        _table(
            ("phase", "calls", "seconds", "%", "expressions"),
            [
                (
                    row.phase,
                    row.calls,
                    f"{row.seconds:.3f}",
                    f"{100.0 * row.seconds / total:.1f}",
                    row.expressions or "",
                )
                for row in report.phases
            ],
        )
    )
    if report.productions:
        out.append("")
        out.append(f"Top productions by enumeration time:")
        out.append(
            _table(
                ("production", "calls", "seconds", "offered", "added"),
                [
                    (
                        row.production,
                        row.calls,
                        f"{row.seconds:.3f}",
                        row.offered,
                        row.added,
                    )
                    for row in report.productions[:top_productions]
                ],
            )
        )
    if report.counters:
        out.append("")
        out.append("Counters (all runs):")
        out.append(
            _table(
                ("counter", "value"),
                [
                    (name, f"{value:g}")
                    for name, value in sorted(report.counters.items())
                ],
            )
        )
    return "\n".join(out)


def to_json(report: TraceReport) -> Dict[str, Any]:
    """JSON-serializable form of the report (round-trips the numbers)."""
    return {
        "dbs_runs": report.dbs_runs,
        "nested_runs": report.nested_runs,
        "total_seconds": report.total_seconds,
        "total_expressions": report.total_expressions,
        "wall_seconds": report.wall_seconds,
        "n_spans": report.n_spans,
        "n_events": report.n_events,
        "actions": report.actions,
        "phases": [
            {
                "phase": row.phase,
                "calls": row.calls,
                "seconds": row.seconds,
                "expressions": row.expressions,
            }
            for row in report.phases
        ],
        "productions": [
            {
                "production": row.production,
                "calls": row.calls,
                "seconds": row.seconds,
                "offered": row.offered,
                "added": row.added,
                "sig_rejected": row.sig_rejected,
            }
            for row in report.productions
        ],
        "counters": report.counters,
        "labels": report.labels,
    }


def render_json(report: TraceReport) -> str:
    return json.dumps(to_json(report), indent=2, sort_keys=True)


def report_from_file(path: str) -> TraceReport:
    """Convenience: load + build in one step (the CLI entry point)."""
    return build_report(load_events(path))


# ---------------------------------------------------------------------
# Hotspots (report-trace --hotspots)


@dataclass
class StrategyRow:
    """Cost of one strategy plugin (prof.strategy.* instruments)."""

    strategy: str
    runs: int = 0
    solved: int = 0
    seconds: float = 0.0


@dataclass
class ExampleRow:
    """Tester cost attributed to one TDS example index."""

    index: int
    evals: int = 0
    seconds: float = 0.0
    rejections: int = 0


@dataclass
class FunctionRow:
    """One sampled Python function (module:name)."""

    function: str
    self_samples: int = 0
    total_samples: int = 0


@dataclass
class HotspotReport:
    """Top-N cost attribution across all four hotspot dimensions."""

    sort: str = "time"
    top: int = 12
    phases: List[PhaseRow] = field(default_factory=list)
    productions: List[ProductionRow] = field(default_factory=list)
    strategies: List[StrategyRow] = field(default_factory=list)
    examples: List[ExampleRow] = field(default_factory=list)
    functions: List[FunctionRow] = field(default_factory=list)
    sample_count: int = 0
    sample_interval: float = 0.0
    idle_samples: int = 0  # select/pipe waits excluded from functions


def _labeled_map(
    report: TraceReport, metric: str, label: str
) -> Dict[str, float]:
    """``{label value: total}`` for one labeled metric in the report."""
    out: Dict[str, float] = {}
    for key, value in report.labels.get(metric, {}).items():
        name = _label_value(key, label)
        if name is not None:
            out[name] = out.get(name, 0) + value
    return out


def build_hotspots(
    report: TraceReport, top: int = 12, sort: str = "time"
) -> HotspotReport:
    """The --hotspots tables: productions and strategies sorted by
    ``sort`` (``"time"`` = self-seconds, ``"budget"`` = expressions
    offered), examples by seconds, sampled functions by self-samples."""
    if sort not in ("time", "budget"):
        raise ValueError(f"unknown hotspot sort {sort!r}")
    hs = HotspotReport(
        sort=sort,
        top=top,
        sample_count=report.sample_count,
        sample_interval=report.sample_interval,
    )

    # report.phases is already sorted by self-seconds; re-sort only for
    # the budget view so the two sorts mean the same thing everywhere.
    phase_key = (
        (lambda r: r.seconds) if sort == "time" else (lambda r: r.expressions)
    )
    hs.phases = sorted(report.phases, key=phase_key, reverse=True)[:top]

    prod_key = (
        (lambda r: r.seconds) if sort == "time" else (lambda r: r.offered)
    )
    hs.productions = sorted(report.productions, key=prod_key, reverse=True)[
        :top
    ]

    seconds = _labeled_map(report, "prof.strategy.seconds", "strategy")
    runs = _labeled_map(report, "prof.strategy.runs", "strategy")
    solved = _labeled_map(report, "prof.strategy.solved", "strategy")
    strategies = [
        StrategyRow(
            strategy=name,
            runs=int(runs.get(name, 0)),
            solved=int(solved.get(name, 0)),
            seconds=seconds.get(name, 0.0),
        )
        for name in sorted(set(seconds) | set(runs) | set(solved))
    ]
    strat_key = (
        (lambda r: r.seconds) if sort == "time" else (lambda r: r.runs)
    )
    hs.strategies = sorted(strategies, key=strat_key, reverse=True)[:top]

    ex_seconds = _labeled_map(report, "prof.example.seconds", "index")
    ex_evals = _labeled_map(report, "prof.example.evals", "index")
    ex_rejections = _labeled_map(report, "prof.example.rejections", "index")
    examples = []
    for name in set(ex_seconds) | set(ex_evals) | set(ex_rejections):
        try:
            index = int(name)
        except ValueError:
            continue
        examples.append(
            ExampleRow(
                index=index,
                evals=int(ex_evals.get(name, 0)),
                seconds=ex_seconds.get(name, 0.0),
                rejections=int(ex_rejections.get(name, 0)),
            )
        )
    hs.examples = sorted(examples, key=lambda r: r.seconds, reverse=True)[
        :top
    ]

    self_counts: Dict[str, int] = {}
    total_counts: Dict[str, int] = {}
    for (_worker, _path, frames), count in report.samples.items():
        if not frames:
            continue
        if is_idle_stack(frames):
            hs.idle_samples += count
            continue
        leaf = frames[-1]
        self_counts[leaf] = self_counts.get(leaf, 0) + count
        for fn in set(frames):
            total_counts[fn] = total_counts.get(fn, 0) + count
    functions = [
        FunctionRow(
            function=fn,
            self_samples=self_counts.get(fn, 0),
            total_samples=total,
        )
        for fn, total in total_counts.items()
    ]
    hs.functions = sorted(
        functions,
        key=lambda r: (r.self_samples, r.total_samples),
        reverse=True,
    )[:top]
    return hs


def render_hotspots(hs: HotspotReport) -> str:
    out: List[str] = []
    by = "self-time" if hs.sort == "time" else "expression budget"
    out.append(f"Hotspots (top {hs.top} by {by}):")
    if hs.phases:
        out.append("")
        out.append("Phases:")
        out.append(
            _table(
                ("phase", "calls", "seconds", "expressions"),
                [
                    (
                        row.phase,
                        row.calls,
                        f"{row.seconds:.3f}",
                        row.expressions or "",
                    )
                    for row in hs.phases
                ],
            )
        )
    if hs.productions:
        out.append("")
        out.append("Productions:")
        out.append(
            _table(
                (
                    "production",
                    "calls",
                    "seconds",
                    "offered",
                    "admitted",
                    "sig-rejected",
                ),
                [
                    (
                        row.production,
                        row.calls,
                        f"{row.seconds:.3f}",
                        row.offered,
                        row.added,
                        row.sig_rejected or "",
                    )
                    for row in hs.productions
                ],
            )
        )
    if hs.strategies:
        out.append("")
        out.append("Strategies:")
        out.append(
            _table(
                ("strategy", "runs", "solved", "seconds"),
                [
                    (row.strategy, row.runs, row.solved, f"{row.seconds:.3f}")
                    for row in hs.strategies
                ],
            )
        )
    if hs.examples:
        out.append("")
        out.append("Examples (tester attribution):")
        out.append(
            _table(
                ("index", "evals", "seconds", "rejections"),
                [
                    (
                        row.index,
                        row.evals,
                        f"{row.seconds:.3f}",
                        row.rejections or "",
                    )
                    for row in hs.examples
                ],
            )
        )
    if hs.functions:
        est = (
            f" ({hs.sample_count} wake-ups @ "
            f"{1.0 / hs.sample_interval:.0f}Hz)"
            if hs.sample_interval
            else ""
        )
        out.append("")
        out.append(f"Sampled functions{est}:")
        rows = []
        for row in hs.functions:
            seconds = (
                f"{row.self_samples * hs.sample_interval:.2f}"
                if hs.sample_interval
                else ""
            )
            rows.append(
                (row.function, row.self_samples, row.total_samples, seconds)
            )
        out.append(_table(("function", "self", "total", "~seconds"), rows))
    if hs.idle_samples:
        out.append(
            f"  idle (select/pipe wait): {hs.idle_samples} samples excluded"
        )
    if len(out) == 1:
        out.append("  (no hotspot data: trace has no detailed metrics "
                   "or profiler samples)")
    return "\n".join(out)


def hotspots_to_json(hs: HotspotReport) -> Dict[str, Any]:
    """Stable JSON schema for --hotspots --json (golden-tested)."""
    return {
        "sort": hs.sort,
        "top": hs.top,
        "sample_count": hs.sample_count,
        "sample_interval": hs.sample_interval,
        "idle_samples": hs.idle_samples,
        "phases": [
            {
                "phase": row.phase,
                "calls": row.calls,
                "seconds": row.seconds,
                "expressions": row.expressions,
            }
            for row in hs.phases
        ],
        "productions": [
            {
                "production": row.production,
                "calls": row.calls,
                "seconds": row.seconds,
                "offered": row.offered,
                "added": row.added,
                "sig_rejected": row.sig_rejected,
            }
            for row in hs.productions
        ],
        "strategies": [
            {
                "strategy": row.strategy,
                "runs": row.runs,
                "solved": row.solved,
                "seconds": row.seconds,
            }
            for row in hs.strategies
        ],
        "examples": [
            {
                "index": row.index,
                "evals": row.evals,
                "seconds": row.seconds,
                "rejections": row.rejections,
            }
            for row in hs.examples
        ],
        "functions": [
            {
                "function": row.function,
                "self_samples": row.self_samples,
                "total_samples": row.total_samples,
            }
            for row in hs.functions
        ],
    }


# ---------------------------------------------------------------------
# Flamegraph export (report-trace --flame)


def flame_lines(events: Sequence[dict]) -> List[str]:
    """Collapsed-stack lines (``frame;frame;... count``) for
    flamegraph.pl / speedscope.

    With profiler samples in the trace, each line is a sampled stack —
    worker tag (if any), then the open span path, then the Python
    frames, weighted by sample count. Without samples (tracing only),
    it falls back to the span tree itself: one line per span path,
    weighted by self-time in milliseconds — coarser, but still a valid
    flamegraph of where the wall-clock went.
    """
    sampled: Dict[Tuple[str, ...], int] = {}
    for record in events:
        if record.get("kind") != "event" or record.get("name") != "profile.samples":
            continue
        attrs = record.get("attrs") or {}
        worker = attrs.get("worker")
        prefix = (f"worker:{worker}",) if worker is not None else ()
        for triple in attrs.get("samples") or ():
            try:
                path, frames, count = triple
            except (TypeError, ValueError):
                continue
            stack_frames = tuple(frames)
            if is_idle_stack(stack_frames):
                # Waits on worker pipes are one flat "idle" frame: the
                # time stays visible in the graph without its selector
                # stack drowning out the actual work.
                stack_frames = ("idle",)
            stack = prefix + tuple(path) + stack_frames
            if not stack:
                continue
            sampled[stack] = sampled.get(stack, 0) + int(count)
    if sampled:
        return [
            ";".join(stack) + f" {count}"
            for stack, count in sorted(sampled.items())
        ]

    # Fallback: span-tree self-time. Spans close children-first, so a
    # first pass indexes every span before parent paths are resolved.
    spans: Dict[Any, dict] = {}
    child_time: Dict[Any, float] = {}
    for record in events:
        if record.get("kind") != "span":
            continue
        span_id = record.get("id")
        spans[span_id] = record
        parent = record.get("parent")
        child_time[parent] = child_time.get(parent, 0.0) + float(
            record.get("dur", 0.0)
        )

    def span_path(record: dict) -> Tuple[str, ...]:
        path: List[str] = []
        seen = set()
        node: Optional[dict] = record
        while node is not None:
            node_id = node.get("id")
            if node_id in seen:  # defensive: corrupt parent loop
                break
            seen.add(node_id)
            path.append(str(node.get("name", "?")))
            worker = (node.get("attrs") or {}).get("worker")
            node = spans.get(node.get("parent"))
            if node is None and worker is not None:
                path.append(f"worker:{worker}")
        path.reverse()
        return tuple(path)

    collapsed: Dict[Tuple[str, ...], int] = {}
    for span_id, record in spans.items():
        self_ms = int(
            (float(record.get("dur", 0.0)) - child_time.get(span_id, 0.0))
            * 1000
        )
        if self_ms <= 0:
            continue
        stack = span_path(record)
        collapsed[stack] = collapsed.get(stack, 0) + self_ms
    return [
        ";".join(stack) + f" {count}"
        for stack, count in sorted(collapsed.items())
    ]


# ---------------------------------------------------------------------
# Trace diffing (report-trace --diff old.jsonl new.jsonl)


def diff_reports(old: TraceReport, new: TraceReport) -> Dict[str, Any]:
    """Structured per-phase / per-hotspot deltas between two traces
    (the bench-regression gate's and the e2e-gap investigation's tool).
    Rows are sorted by absolute seconds delta, largest movers first."""

    def rows(
        old_map: Dict[str, float], new_map: Dict[str, float], key_name: str
    ) -> List[Dict[str, Any]]:
        out = []
        # Iterate in name order so ties on |delta| keep a stable,
        # process-independent order (set iteration is hash-seeded).
        for name in sorted(set(old_map) | set(new_map)):
            o = old_map.get(name, 0.0)
            n = new_map.get(name, 0.0)
            out.append(
                {key_name: name, "old": o, "new": n, "delta": n - o}
            )
        out.sort(key=lambda r: abs(r["delta"]), reverse=True)
        return out

    def totals(o: float, n: float) -> Dict[str, float]:
        return {"old": o, "new": n, "delta": n - o}

    return {
        "totals": {
            "total_seconds": totals(old.total_seconds, new.total_seconds),
            "total_expressions": totals(
                old.total_expressions, new.total_expressions
            ),
            "wall_seconds": totals(old.wall_seconds, new.wall_seconds),
            "dbs_runs": totals(old.dbs_runs, new.dbs_runs),
        },
        "phases": rows(
            {r.phase: r.seconds for r in old.phases},
            {r.phase: r.seconds for r in new.phases},
            "phase",
        ),
        "phase_expressions": rows(
            {r.phase: float(r.expressions) for r in old.phases},
            {r.phase: float(r.expressions) for r in new.phases},
            "phase",
        ),
        "productions": rows(
            {r.production: r.seconds for r in old.productions},
            {r.production: r.seconds for r in new.productions},
            "production",
        ),
        "counters": rows(old.counters, new.counters, "counter"),
    }


def _fmt_delta(value: float, digits: int = 3) -> str:
    text = f"{value:+.{digits}f}".rstrip("0").rstrip(".")
    return text if text not in ("+", "-", "") else "+0"


def render_diff(diff: Dict[str, Any], top: int = 12) -> str:
    out: List[str] = []
    out.append("Trace diff (new - old):")
    out.append("")
    out.append(
        _table(
            ("total", "old", "new", "delta"),
            [
                (
                    name,
                    f"{entry['old']:g}",
                    f"{entry['new']:g}",
                    _fmt_delta(entry["delta"]),
                )
                for name, entry in diff["totals"].items()
            ],
        )
    )
    for section, key_name in (
        ("phases", "phase"),
        ("productions", "production"),
        ("counters", "counter"),
    ):
        entries = diff.get(section) or []
        if not entries:
            continue
        out.append("")
        out.append(f"{section.capitalize()} (top movers):")
        out.append(
            _table(
                (key_name, "old", "new", "delta"),
                [
                    (
                        entry[key_name],
                        f"{entry['old']:g}",
                        f"{entry['new']:g}",
                        _fmt_delta(entry["delta"]),
                    )
                    for entry in entries[:top]
                ],
            )
        )
    return "\n".join(out)
