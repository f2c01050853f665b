"""Tests for repro.exec: parallel_map, worker trace shards, and the
metrics merge-back (plus the trace_smoke shard-sum assertion)."""

import json
import os

import pytest

from repro.core import evaluator
from repro.core.budget import Budget
from repro.exec import ParallelOutcome, parallel_map
from repro.lasy.runner import synthesize
from repro.obs import JsonlTracer, load_events, tracing
from repro.obs.report import build_report

ADD_SRC = """
language pexfun;
function int Add{n}(int x);
require Add{n}(3) == {a};
require Add{n}(10) == {b};
"""


def _sources(k):
    return [
        ADD_SRC.format(n=n, a=3 + n, b=10 + n) for n in range(1, k + 1)
    ]


def _small_budget():
    return Budget(max_seconds=10.0, max_expressions=60_000)


def _synth_task(source):
    """Module-level so it pickles into workers."""
    result = synthesize(source, budget_factory=_small_budget)
    return result.success


def test_serial_when_jobs_one():
    outcome = parallel_map(_synth_task, _sources(2), jobs=1)
    assert isinstance(outcome, ParallelOutcome)
    assert outcome.results == [True, True]
    assert outcome.jobs_used == 1
    assert outcome.task_metrics == []


def test_serial_when_single_item():
    outcome = parallel_map(_synth_task, _sources(1), jobs=4)
    assert outcome.results == [True]
    assert outcome.jobs_used == 1


def test_parallel_results_ordered_and_metrics_merged():
    before_total = evaluator.METRICS.value("eval.run_program")
    before_local = evaluator.METRICS.local_value("eval.run_program")
    outcome = parallel_map(_synth_task, _sources(3), jobs=2)
    assert outcome.results == [True, True, True]
    assert outcome.jobs_used == 2
    assert len(outcome.task_metrics) == 3
    shipped = sum(
        snap["evaluator"].get("eval.run_program", {}).get("value", 0)
        for snap in outcome.task_metrics
    )
    assert shipped > 0
    after_total = evaluator.METRICS.value("eval.run_program")
    after_local = evaluator.METRICS.local_value("eval.run_program")
    # Worker runs land in the total but not in local attribution.
    assert after_total - before_total == shipped
    assert after_local == before_local


def test_unpicklable_fn_falls_back_to_serial():
    outcome = parallel_map(
        lambda s: _synth_task(s), _sources(2), jobs=2
    )
    assert outcome.results == [True, True]
    assert outcome.jobs_used == 1


def test_task_exceptions_propagate():
    with pytest.raises(ZeroDivisionError):
        parallel_map(_boom, [1, 2], jobs=2)


def _boom(item):
    return item // 0


class TestAbsorbShard:
    def test_ids_remap_and_reparent(self, tmp_path):
        shard = tmp_path / "shard.jsonl"
        child = JsonlTracer(str(shard))
        with child.span("dbs"):
            with child.span("dbs.test", batch=3):
                pass
            child.event("dbs.metrics", metrics={})
        child.close()

        merged = tmp_path / "merged.jsonl"
        parent = JsonlTracer(str(merged))
        with parent.span("experiment"):
            absorbed = parent.absorb_shard(str(shard), worker="w1")
        parent.close()
        assert absorbed == 3

        events = load_events(str(merged))
        by_name = {e["name"]: e for e in events}
        exp = by_name["experiment"]
        dbs = by_name["dbs"]
        test = by_name["dbs.test"]
        evt = by_name["dbs.metrics"]
        # Shard ids shifted past the parent's id space, no collisions.
        ids = [e["id"] for e in events if "id" in e]
        assert len(ids) == len(set(ids))
        # The shard's root span now hangs off the open parent span.
        assert dbs["parent"] == exp["id"]
        assert test["parent"] == dbs["id"]
        assert evt["parent"] == dbs["id"]
        assert test["attrs"]["worker"] == "w1"
        assert test["attrs"]["batch"] == 3

    def test_absorb_from_lines(self, tmp_path):
        import io

        buf = io.StringIO()
        child = JsonlTracer(buf)
        with child.span("dbs.loops"):
            pass
        merged = tmp_path / "merged.jsonl"
        parent = JsonlTracer(str(merged))
        assert parent.absorb_shard(buf.getvalue().splitlines()) == 1
        parent.close()
        (event,) = load_events(str(merged))
        assert event["name"] == "dbs.loops"


@pytest.mark.trace_smoke
class TestParallelTraceSmoke:
    """--jobs N observability acceptance: the merged trace/metrics
    totals must equal the sum of the worker shards."""

    def test_merged_totals_equal_shard_sums(self, tmp_path):
        trace = tmp_path / "par.jsonl"
        before_total = evaluator.METRICS.value("eval.run_program")
        with tracing(JsonlTracer(str(trace))):
            outcome = parallel_map(
                _synth_task,
                _sources(3),
                jobs=2,
                trace_base=str(trace),
                keep_shards=True,
            )
        assert outcome.results == [True, True, True]
        assert outcome.shards, "worker shards should have been kept"

        shard_events = []
        for shard in outcome.shards:
            shard_events.append(load_events(shard))

        merged = load_events(str(trace))
        absorbed = [
            e for e in merged if "worker" in e.get("attrs", {})
        ]
        # Every shard record appears exactly once in the merged stream.
        assert len(absorbed) == sum(len(ev) for ev in shard_events)

        # Span counts per name agree between merged-absorbed and shards.
        def counts(events):
            table = {}
            for e in events:
                if e["kind"] == "span":
                    table[e["name"]] = table.get(e["name"], 0) + 1
            return table

        shard_counts = {}
        for ev in shard_events:
            for name, n in counts(ev).items():
                shard_counts[name] = shard_counts.get(name, 0) + n
        assert counts(absorbed) == shard_counts

        # Report totals over the merged stream equal the sum of the
        # per-shard report totals.
        merged_report = build_report(merged)
        shard_reports = [build_report(ev) for ev in shard_events]
        assert merged_report.dbs_runs == sum(
            r.dbs_runs for r in shard_reports
        )
        assert merged_report.total_expressions == sum(
            r.total_expressions for r in shard_reports
        )

        # Metrics: the parent's merged evaluator total equals the sum
        # shipped back from the workers.
        shipped = sum(
            snap["evaluator"].get("eval.run_program", {}).get("value", 0)
            for snap in outcome.task_metrics
        )
        assert shipped > 0
        assert (
            evaluator.METRICS.value("eval.run_program") - before_total
            == shipped
        )

        # Shard files are valid JSONL (the worker flushed after tasks).
        for shard in outcome.shards:
            with open(shard, encoding="utf-8") as fh:
                for line in fh:
                    json.loads(line)
            os.remove(shard)
