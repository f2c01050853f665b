"""Tests for the hotspot attribution layer: per-production /
per-strategy / per-example cost accounting, the sampling profiler,
flamegraph export, trace diffing, and progress heartbeats.

The synthetic traces here use fixed ``ts``/``dur`` values so the
--hotspots / --diff / --flame JSON output is byte-stable and golden
tested (tests/data/golden_*.json)."""

import io
import json
import os
import time

import pytest

from repro.cli import main
from repro.obs import (
    JsonlTracer,
    ProgressEmitter,
    Registry,
    SamplingProfiler,
    TtyStatusLine,
    build_hotspots,
    build_report,
    diff_reports,
    flame_lines,
    get_progress,
    hotspots_to_json,
    render_diff,
    render_hotspots,
    set_progress,
    tracing,
)
from repro.obs.profile import format_frames
from tests.test_enum_batched import enum_path

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")


# ---------------------------------------------------------------------
# Synthetic traces (fixed timings: deterministic reports)


def _span(name, id, parent, ts, dur, **attrs):
    return {
        "kind": "span",
        "name": name,
        "id": id,
        "parent": parent,
        "ts": ts,
        "dur": dur,
        "attrs": attrs,
    }


def _event(name, parent, ts, **attrs):
    return {"kind": "event", "name": name, "parent": parent, "ts": ts, "attrs": attrs}


def _hist(total, count, labels=None):
    snap = {
        "type": "histogram",
        "count": count,
        "total": total,
        "min": 0.0,
        "max": total,
    }
    if labels:
        snap["labels"] = {
            key: {"count": c, "total": t, "min": 0.0, "max": t}
            for key, (c, t) in labels.items()
        }
    return snap


def _counter(value, labels=None):
    snap = {"type": "counter", "value": value}
    if labels:
        snap["labels"] = labels
    return snap


def synthetic_trace():
    """One DBS run with two productions, three strategies, two
    examples, and profiler samples from the driver and one worker."""
    metrics = {
        "dbs.expressions": _counter(150),
        "prof.production.sig_rejected": _counter(
            55, {"production=s<-Concat": 45, "production=n<-Add": 10}
        ),
        "prof.strategy.seconds": _hist(
            0.75,
            3,
            {"strategy=loops": (2, 0.5), "strategy=composition": (1, 0.25)},
        ),
        "prof.strategy.runs": _counter(
            3, {"strategy=loops": 2, "strategy=composition": 1}
        ),
        "prof.strategy.solved": _counter(1, {"strategy=composition": 1}),
        "prof.example.seconds": _hist(
            0.15, 9, {"index=0": (5, 0.1), "index=1": (4, 0.05)}
        ),
        "prof.example.evals": _counter(9, {"index=0": 5, "index=1": 4}),
        "prof.example.rejections": _counter(2, {"index=1": 2}),
    }
    return [
        _span(
            "dbs.enum.batched",
            2,
            1,
            0.1,
            1.0,
            production="s<-Concat",
            offered=100,
            added=40,
        ),
        _span(
            "dbs.enum.batched",
            3,
            1,
            1.1,
            0.5,
            production="n<-Add",
            offered=50,
            added=10,
        ),
        _span("dbs.test", 4, 1, 1.6, 0.2),
        _event("dbs.metrics", 1, 2.0, nested=False, metrics=metrics),
        _event(
            "profile.samples",
            1,
            2.0,
            count=10,
            interval_s=0.01,
            elapsed_s=0.1,
            samples=[
                [
                    ["dbs", "dbs.enum.batched"],
                    ["repro.core.compile:run", "repro.core.values:freeze"],
                    6,
                ],
                [["dbs"], ["repro.core.compile:run"], 4],
                # Driver parked on the worker pipes (jobs>1): reported
                # as "idle", never as a hotspot function row.
                [["dbs"], ["repro.exec.parallel:map", "selectors:select"], 5],
            ],
        ),
        _event(
            "profile.samples",
            1,
            2.0,
            count=3,
            interval_s=0.01,
            worker="w1",
            samples=[[["dbs"], ["repro.core.values:freeze"], 3]],
        ),
        _span("dbs", 1, None, 0.0, 2.0),
    ]


def synthetic_trace_new():
    """The same run after a hypothetical change: enum got slower on
    one production, the budget shifted (the --diff fixture)."""
    events = synthetic_trace()
    out = []
    for record in events:
        record = dict(record)
        record["attrs"] = dict(record["attrs"])
        if record.get("id") == 2:
            record["dur"] = 1.4
            record["attrs"]["offered"] = 120
        if record.get("id") == 1:
            record["dur"] = 2.4
        out.append(record)
    return out


def write_trace(path, events):
    with open(path, "w", encoding="utf-8") as fh:
        for record in events:
            fh.write(json.dumps(record) + "\n")
    return str(path)


# ---------------------------------------------------------------------
# Hotspot report


class TestHotspots:
    def report(self):
        return build_report(synthetic_trace())

    def test_production_rows_fold_sig_rejections(self):
        report = self.report()
        rows = {r.production: r for r in report.productions}
        assert rows["s<-Concat"].offered == 100
        assert rows["s<-Concat"].added == 40
        assert rows["s<-Concat"].sig_rejected == 45
        assert rows["n<-Add"].sig_rejected == 10

    def test_sorting_time_vs_budget(self):
        report = self.report()
        by_time = build_hotspots(report, sort="time")
        assert [r.production for r in by_time.productions] == [
            "s<-Concat",
            "n<-Add",
        ]
        assert [r.strategy for r in by_time.strategies] == [
            "loops",
            "composition",
        ]
        by_budget = build_hotspots(report, sort="budget")
        assert by_budget.productions[0].offered == 100
        assert by_budget.strategies[0].runs == 2
        with pytest.raises(ValueError):
            build_hotspots(report, sort="calls")

    def test_examples_attributed(self):
        hs = build_hotspots(self.report())
        assert [(r.index, r.evals, r.rejections) for r in hs.examples] == [
            (0, 5, 0),
            (1, 4, 2),
        ]
        assert hs.examples[0].seconds == pytest.approx(0.1)

    def test_functions_merge_worker_samples(self):
        hs = build_hotspots(self.report())
        rows = {r.function: r for r in hs.functions}
        # freeze leafs 6 driver samples + 3 worker samples.
        assert rows["repro.core.values:freeze"].self_samples == 9
        # run appears in both driver stacks (6 + 4) but never as leaf
        # of the second.
        assert rows["repro.core.compile:run"].self_samples == 4
        assert rows["repro.core.compile:run"].total_samples == 10
        assert hs.sample_count == 13
        assert hs.sample_interval == pytest.approx(0.01)

    def test_idle_driver_waits_excluded_from_functions(self):
        hs = build_hotspots(self.report())
        rows = {r.function: r for r in hs.functions}
        # The selectors:select stack is wait time, not work: no function
        # row for the selector leaf or anything above it.
        assert "selectors:select" not in rows
        assert "repro.exec.parallel:map" not in rows
        assert hs.idle_samples == 5
        text = render_hotspots(hs)
        assert "idle (select/pipe wait): 5 samples excluded" in text
        assert hotspots_to_json(hs)["idle_samples"] == 5

    def test_render_includes_all_sections(self):
        text = render_hotspots(build_hotspots(self.report()))
        for needle in (
            "Productions:",
            "Strategies:",
            "Examples (tester attribution):",
            "Sampled functions",
            "s<-Concat",
            "loops",
        ):
            assert needle in text

    def test_render_empty_report(self):
        text = render_hotspots(build_hotspots(build_report([])))
        assert "no hotspot data" in text


class TestFlame:
    def test_sampled_stacks_with_worker_prefix(self):
        lines = flame_lines(synthetic_trace())
        assert (
            "dbs;dbs.enum.batched;repro.core.compile:run;"
            "repro.core.values:freeze 6" in lines
        )
        assert "dbs;repro.core.compile:run 4" in lines
        assert "worker:w1;dbs;repro.core.values:freeze 3" in lines
        # Pipe waits collapse to one flat frame instead of a selector
        # stack dominating the graph.
        assert "dbs;idle 5" in lines
        assert not any("selectors:select" in line for line in lines)
        assert lines == sorted(lines)

    def test_span_tree_fallback(self):
        events = [
            e for e in synthetic_trace() if e["name"] != "profile.samples"
        ]
        lines = flame_lines(events)
        # Self-time in ms: dbs = 2.0 - (1.0 + 0.5 + 0.2) = 0.3; the
        # two enum spans share a path and merge into one 1500ms frame.
        assert lines == [
            "dbs 300",
            "dbs;dbs.enum.batched 1500",
            "dbs;dbs.test 200",
        ]


class TestDiff:
    def test_totals_and_movers(self):
        old = build_report(synthetic_trace())
        new = build_report(synthetic_trace_new())
        diff = diff_reports(old, new)
        assert diff["totals"]["total_seconds"]["delta"] == pytest.approx(0.4)
        phases = {r["phase"]: r for r in diff["phases"]}
        assert phases["enum"]["delta"] == pytest.approx(0.4)
        # Largest mover first.
        assert diff["productions"][0]["production"] == "s<-Concat"
        assert diff["productions"][0]["delta"] == pytest.approx(0.4)
        exprs = {r["phase"]: r for r in diff["phase_expressions"]}
        assert exprs["enum"]["delta"] == pytest.approx(20.0)

    def test_render(self):
        diff = diff_reports(
            build_report(synthetic_trace()),
            build_report(synthetic_trace_new()),
        )
        text = render_diff(diff)
        assert "Trace diff (new - old)" in text
        assert "total_seconds" in text
        assert "+0.4" in text


# ---------------------------------------------------------------------
# Golden files: the --json schema is a stable interface


class TestGoldenJson:
    """Golden-file tests for the report-trace --json schemas. On an
    intentional schema change, regenerate with:

        PYTHONPATH=src python tests/data/regen_golden.py
    """

    def golden(self, name):
        with open(os.path.join(DATA_DIR, name), encoding="utf-8") as fh:
            return json.load(fh)

    def test_hotspots_json_schema(self, tmp_path, capsys):
        trace = write_trace(tmp_path / "t.jsonl", synthetic_trace())
        assert main(["report-trace", trace, "--hotspots", "--json"]) == 0
        got = json.loads(capsys.readouterr().out)
        assert got == self.golden("golden_hotspots.json")

    def test_diff_json_schema(self, tmp_path, capsys):
        old = write_trace(tmp_path / "old.jsonl", synthetic_trace())
        new = write_trace(tmp_path / "new.jsonl", synthetic_trace_new())
        assert main(["report-trace", "--diff", old, new, "--json"]) == 0
        got = json.loads(capsys.readouterr().out)
        assert got == self.golden("golden_diff.json")

    def test_flame_output(self, tmp_path, capsys):
        trace = write_trace(tmp_path / "t.jsonl", synthetic_trace())
        assert main(["report-trace", trace, "--flame"]) == 0
        got = capsys.readouterr().out.splitlines()
        assert got == self.golden("golden_flame.json")


# ---------------------------------------------------------------------
# CLI argument and error handling


class TestCliErrors:
    def test_empty_trace(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert main(["report-trace", str(empty)]) == 2
        err = capsys.readouterr().err
        assert "empty trace file" in err

    def test_torn_only_trace(self, tmp_path, capsys):
        torn = tmp_path / "torn.jsonl"
        torn.write_text('{"kind": "span", "na')
        assert main(["report-trace", str(torn)]) == 2
        assert "empty trace file" in capsys.readouterr().err

    def test_mid_file_corruption(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text(
            'garbage\n{"kind": "event", "name": "x", "ts": 0}\n'
        )
        assert main(["report-trace", str(bad)]) == 2
        assert "not JSON" in capsys.readouterr().err

    def test_diff_needs_two_files(self, tmp_path, capsys):
        trace = write_trace(tmp_path / "t.jsonl", synthetic_trace())
        assert main(["report-trace", "--diff", trace]) == 2
        assert "two trace files" in capsys.readouterr().err

    def test_two_files_need_diff(self, tmp_path, capsys):
        trace = write_trace(tmp_path / "t.jsonl", synthetic_trace())
        assert main(["report-trace", trace, trace]) == 2
        assert "--diff" in capsys.readouterr().err

    def test_profile_requires_trace(self, tmp_path, capsys):
        lasy = tmp_path / "x.lasy"
        lasy.write_text(
            "language pexfun;\nfunction int F(int x);\nrequire F(1) == 2;\n"
        )
        assert main(["--profile", "synth", str(lasy)]) == 2
        assert "--profile needs --trace" in capsys.readouterr().err


# ---------------------------------------------------------------------
# Sampling profiler (deterministic: synthetic frames, no threads)


class _FakeFrame:
    def __init__(self, module, name, back=None):
        self.f_code = type("code", (), {"co_name": name})()
        self.f_globals = {"__name__": module}
        self.f_back = back


def _stack(*frames):
    """Build a leaf frame from (module, name) pairs, root first."""
    top = None
    for module, name in frames:
        top = _FakeFrame(module, name, back=top)
    return top


class TestSamplingProfiler:
    def test_format_frames_root_first(self):
        leaf = _stack(("mod.a", "outer"), ("mod.b", "inner"))
        assert format_frames(leaf) == ("mod.a:outer", "mod.b:inner")
        assert format_frames(leaf, max_depth=1) == ("mod.b:inner",)
        assert format_frames(None) == ()

    def test_sample_once_aggregates_and_skips_own_thread(self):
        import threading

        profiler = SamplingProfiler(hz=100)
        leaf = _stack(("m", "f"), ("m", "g"))
        frames = {threading.get_ident(): leaf, 12345: leaf}
        assert profiler.sample_once(frames) == 1  # own thread skipped
        assert profiler.sample_once(frames) == 1
        ((key, count),) = profiler.samples().items()
        assert key == ((), ("m:f", "m:g"))
        assert count == 2
        payload = profiler.to_payload()
        assert payload["count"] == 2
        assert payload["interval_s"] == pytest.approx(0.01)
        assert payload["samples"] == [[[], ["m:f", "m:g"], 2]]

    def test_emit_writes_one_event(self):
        profiler = SamplingProfiler(hz=50)
        profiler.sample_once({999: _stack(("m", "f"))})
        buf = io.StringIO()
        tracer = JsonlTracer(buf)
        assert profiler.emit(tracer)
        record = json.loads(buf.getvalue())
        assert record["name"] == "profile.samples"
        assert record["attrs"]["samples"] == [[[], ["m:f"], 1]]

    def test_emit_noop_when_disabled_or_empty(self):
        profiler = SamplingProfiler()
        assert not profiler.emit()  # no samples, NullTracer
        profiler.sample_once({999: _stack(("m", "f"))})
        assert not profiler.emit()  # NullTracer still off

    def test_thread_lifecycle(self):
        # A real start/stop cycle over the live interpreter: the daemon
        # thread must record the main thread's stack and shut down
        # cleanly (idempotent stop).
        profiler = SamplingProfiler(hz=200)
        with profiler:
            deadline = time.monotonic() + 5.0
            while not profiler.samples() and time.monotonic() < deadline:
                time.sleep(0.005)
        profiler.stop()  # second stop is a no-op
        assert profiler.samples()
        assert profiler.elapsed_s > 0
        with pytest.raises(ValueError):
            SamplingProfiler(hz=0)
        started = SamplingProfiler().start()
        try:
            with pytest.raises(RuntimeError):
                started.start()
        finally:
            started.stop()


# ---------------------------------------------------------------------
# Progress heartbeats


class TestProgress:
    def test_tick_rate_limited_and_rate_computed(self):
        clock = {"t": 0.0}
        seen = []
        emitter = ProgressEmitter(
            interval_s=0.5, clock=lambda: clock["t"], listener=seen.append
        )
        assert emitter.due()
        first = emitter.tick(generation=1, pool_size=10, candidates=100)
        assert first["candidates"] == 100
        assert "cands_per_s" not in first  # no previous tick
        clock["t"] = 0.2
        assert not emitter.due()
        assert (
            emitter.tick(generation=1, pool_size=10, candidates=150) is None
        )
        clock["t"] = 1.0
        second = emitter.tick(
            generation=2, pool_size=20, candidates=300, deadline_s=4.5
        )
        assert second["cands_per_s"] == pytest.approx(200.0)
        assert second["deadline_s"] == 4.5
        assert seen == [first, second]
        assert emitter.emitted == 2

    def test_force_overrides_rate_limit(self):
        clock = {"t": 0.0}
        emitter = ProgressEmitter(interval_s=10.0, clock=lambda: clock["t"])
        emitter.tick(generation=1, pool_size=1, candidates=1)
        assert (
            emitter.tick(generation=1, pool_size=1, candidates=2) is None
        )
        forced = emitter.tick(
            generation=1, pool_size=1, candidates=2, force=True
        )
        assert forced is not None

    def test_tick_emits_trace_event(self):
        buf = io.StringIO()
        with tracing(JsonlTracer(buf)):
            emitter = ProgressEmitter(clock=lambda: 0.0)
            emitter.tick(generation=3, pool_size=7, candidates=42)
        record = json.loads(buf.getvalue())
        assert record["name"] == "progress"
        assert record["attrs"]["generation"] == 3
        assert record["attrs"]["pool"] == 7

    def test_global_install(self):
        emitter = ProgressEmitter()
        assert set_progress(emitter) is None
        try:
            assert get_progress() is emitter
        finally:
            assert set_progress(None) is emitter
        assert get_progress() is None

    def test_tty_status_line_rewrites_and_clears(self):
        buf = io.StringIO()
        status = TtyStatusLine(stream=buf)
        status({"generation": 1, "pool": 10, "candidates": 99,
                "cands_per_s": 50.0, "deadline_s": 2.0})
        out = buf.getvalue()
        assert out.startswith("\r")
        assert "gen 1" in out and "50/s" in out and "2.0s left" in out
        status({"generation": 2, "pool": 11, "candidates": 120})
        status.clear()
        assert buf.getvalue().endswith(" \r")
        status.clear()  # idempotent

    def test_heartbeats_recorded_during_synthesis(self):
        from repro.core.budget import Budget
        from repro.lasy.runner import synthesize

        source = """
        language pexfun;
        function int Add1(int x);
        require Add1(3) == 4;
        require Add1(10) == 11;
        """
        buf = io.StringIO()
        emitter = ProgressEmitter(interval_s=0.0)  # every guarded site
        previous = set_progress(emitter)
        try:
            with tracing(JsonlTracer(buf)):
                result = synthesize(
                    source,
                    budget_factory=lambda: Budget(
                        max_seconds=10, max_expressions=50_000
                    ),
                )
        finally:
            set_progress(previous)
        assert result.success
        beats = [
            json.loads(line)
            for line in buf.getvalue().splitlines()
            if '"progress"' in line
        ]
        beats = [b for b in beats if b["name"] == "progress"]
        assert beats
        payload = beats[0]["attrs"]
        assert {"phase", "generation", "pool", "candidates"} <= set(payload)


# ---------------------------------------------------------------------
# Shard merge: disjoint label sets from two workers


class TestShardLabelMerge:
    def test_histograms_with_disjoint_production_labels(self):
        parent = Registry(detailed=True)
        w1 = Registry(detailed=True)
        w1.histogram("prof.production.seconds").observe(
            0.5, production="s<-Concat"
        )
        w1.counter("prof.production.offered").inc(10, production="s<-Concat")
        w2 = Registry(detailed=True)
        w2.histogram("prof.production.seconds").observe(
            0.25, production="n<-Add"
        )
        w2.histogram("prof.production.seconds").observe(
            0.05, production="n<-Add"
        )
        w2.counter("prof.production.offered").inc(4, production="n<-Add")

        # Snapshots cross the process boundary as JSON (absorb path).
        parent.merge(json.loads(json.dumps(w1.snapshot())))
        parent.merge(json.loads(json.dumps(w2.snapshot())))

        h = parent.histogram("prof.production.seconds").snapshot()
        assert set(h["labels"]) == {
            "production=s<-Concat",
            "production=n<-Add",
        }
        assert h["labels"]["production=s<-Concat"]["count"] == 1
        assert h["labels"]["production=n<-Add"]["count"] == 2
        assert h["labels"]["production=n<-Add"]["total"] == pytest.approx(0.3)
        assert h["count"] == 3
        c = parent.counter("prof.production.offered").snapshot()
        assert c["labels"] == {
            "production=s<-Concat": 10,
            "production=n<-Add": 4,
        }
        assert parent.value("prof.production.offered") == 14

    def test_overlapping_labels_accumulate(self):
        parent = Registry(detailed=True)
        for _ in range(2):
            worker = Registry(detailed=True)
            worker.histogram("prof.example.seconds").observe(0.1, index=0)
            worker.counter("prof.example.evals").inc(5, index=0)
            parent.merge(json.loads(json.dumps(worker.snapshot())))
        h = parent.histogram("prof.example.seconds").snapshot()
        assert h["labels"]["index=0"]["count"] == 2
        assert h["labels"]["index=0"]["total"] == pytest.approx(0.2)

    def test_local_int_and_merged_str_label_values_collapse(self):
        # Local recording keys labels with the raw value (index=0 the
        # int); merged snapshots arrive stringified. The snapshot must
        # show one display key, not two.
        parent = Registry(detailed=True)
        parent.counter("prof.example.evals").inc(3, index=0)
        parent.histogram("prof.example.seconds").observe(0.1, index=0)
        worker = Registry(detailed=True)
        worker.counter("prof.example.evals").inc(2, index=0)
        worker.histogram("prof.example.seconds").observe(0.3, index=0)
        parent.merge(json.loads(json.dumps(worker.snapshot())))
        c = parent.counter("prof.example.evals").snapshot()
        assert c["labels"] == {"index=0": 5}
        h = parent.histogram("prof.example.seconds").snapshot()
        assert h["labels"] == {
            "index=0": {
                "count": 2,
                "total": pytest.approx(0.4),
                "min": 0.1,
                "max": 0.3,
            }
        }


# ---------------------------------------------------------------------
# Disabled-path overhead (satellite: NullTracer + accounting < 2%)


@pytest.mark.trace_smoke
class TestAccountingOverhead:
    """The accounting layer must be free when observability is off.

    Wall-clock A/B of full search runs is too noisy for CI, so this
    measures the two costs directly and compares them: the per-candidate
    cost of the seeded enumeration kernel (the bench_enum micro DSL) vs
    the incremental cost of the off-state guard the accounting added to
    the hot loop (``get_progress() is None`` + ``prog is not None``).
    The guard must stay under 2% of a candidate's cost."""

    def _kernel_seconds_per_candidate(self):
        from repro.core.budget import Budget
        from repro.core.dbs import DbsStats
        from repro.core.dsl import DslBuilder, Example, Signature
        from repro.core.engine import Enumerator, PoolStore
        from repro.core.types import INT, STRING

        b = DslBuilder("overhead-micro", start="s")
        b.nt("s", STRING).nt("n", INT)
        b.fn("s", "Concat", ["s", "s"], lambda a, c: a + c)
        b.fn("s", "Left", ["s", "n"], lambda v, n: v[:n])
        b.fn("n", "Add", ["n", "n"], lambda a, c: a + c)
        b.fn("n", "Len", ["s"], len)
        b.param("s")
        b.param("n")
        b.constants_from(lambda examples: {"s": ["-"], "n": [1]})
        dsl = b.build()
        examples = [
            Example(("alpha.beta", 3), "ALP"),
            Example(("x.y", 1), "X"),
        ]
        signature = Signature(
            "f", (("s", STRING), ("n", INT)), STRING
        )
        budget = Budget(max_seconds=600.0, max_expressions=20_000)
        pool = PoolStore(
            dsl,
            signature,
            examples,
            budget=budget,
            metrics=DbsStats().registry,
        )
        enumerator = Enumerator(pool)
        with enum_path("batched"):
            enumerator.seed([])
            start = time.perf_counter()
            for _ in range(4):
                enumerator.advance()
            elapsed = time.perf_counter() - start
        assert budget.expressions > 1000
        return elapsed / budget.expressions

    def test_off_state_guard_under_two_percent(self):
        assert get_progress() is None  # the off state under test
        per_candidate = min(
            self._kernel_seconds_per_candidate() for _ in range(3)
        )

        n = 200_000
        r = range(n)
        start = time.perf_counter()
        for _ in r:
            pass
        base = time.perf_counter() - start
        prog = get_progress()
        best = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            for _ in r:
                if prog is not None:  # pragma: no cover - off state
                    raise AssertionError
            best = min(best, time.perf_counter() - start)
        guard = max(best - base, 0.0) / n
        # Shared CI runners schedule noisily enough that the two
        # perf_counter deltas being subtracted can each wobble by more
        # than the guard itself; keep the tight bound for local runs
        # and allow 5x headroom where the environment is preemptible.
        tolerance = 0.10 if os.environ.get("CI") else 0.02
        assert guard < tolerance * per_candidate, (
            f"off-state guard {guard * 1e9:.0f}ns/candidate vs "
            f"kernel {per_candidate * 1e6:.2f}us/candidate"
        )

    def test_no_detailed_metrics_recorded_when_off(self):
        from repro.core.budget import Budget
        from repro.core.dbs import DbsOptions, dbs
        from repro.core.dsl import Example, Signature
        from repro.core.types import INT
        from repro.domains import get_domain

        dsl = get_domain("pexfun").dsl()
        signature = Signature("Add1", (("x", INT),), INT)
        examples = [Example((3,), 4), Example((10,), 11)]
        result = dbs(
            [],
            examples,
            [],
            dsl,
            signature,
            budget=Budget(max_seconds=10, max_expressions=50_000),
            options=DbsOptions(),
        )
        assert result.program is not None
        # No tracer installed -> detailed=False -> the prof.* labeled
        # families must never be touched (they cost a dict update per
        # production/strategy/example when on).
        prof = {
            name
            for name in result.stats.registry.snapshot()
            if name.startswith("prof.")
        }
        assert not prof, prof
