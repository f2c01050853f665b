"""End-to-end benchmark of the TDS reproduction: the paper's suites,
attributed per layer.

Usage (from the repository root)::

    python3 bench_e2e/run.py                         # all four workloads
    python3 bench_e2e/run.py --workload pex-game --seed 1
    python3 bench_e2e/run.py --trace 1               # per-layer table
    python3 bench_e2e/run.py --workload wordwrap --out r.json

A run of one workload repeats *passes* of its fixed task list, each in a
fresh child process with ``PYTHONHASHSEED=0`` (programs depend on the
hash seed), one at a time, so the load comes from a single process. The
number of passes is what it takes to measure ``--seconds`` at the
workload's nominal pass length, so it does not depend on how fast the
code under test is. The process doing the synthesis samples the host's
speed meanwhile (:mod:`speed`), and every time metric is stated at a
fixed reference speed; the measured values are printed too, marked
``(unscaled)``. Each task's time is its best over the passes. With
``--trace 1`` the run makes one
untraced and one traced pass instead and reports the per-layer metrics.

Every metric named in BENCHMARK.json is printed by name with its unit;
the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``. The exit code is not
0 when an output check failed or a child did not finish.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import queue
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import tempfile
import threading
from time import perf_counter

import speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
TMP = os.path.join(ROOT, ".bench_e2e_tmp")
CACHE = os.path.join(ROOT, ".bench_e2e_cache")

# Seconds one pass of each workload takes on the reference host (2 shared
# vCPUs) in a fast period.
NOMINAL_PASS_S = {
    "suites-cold": 4.7,
    "wordwrap": 7.5,
    "pex-game": 6.5,
    "serve-prefix": 7.0,
}
# Fresh starts behind setup_s: each pass's own, plus extra ones spread
# between the passes.
SETUP_STARTS = 7
RUN_LIMIT_S = 170.0
# The server flags of serve-prefix: FAST hard expression cap, wall caps
# lifted (the default ServerConfig otherwise).
SERVE_ARGS = ["--max-expressions", "450000", "--timeout", "120", "serve", "--port", "0",
              "--default-timeout", "120"]


class BenchError(Exception):
    """A child failed or the run overran its time limit."""


def _child_env():
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_") and k not in ("PYTHONPATH", "PYTHONHASHSEED")}
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = SRC
    return env


class Child:
    """A child process whose stdout lines arrive on a queue."""

    def __init__(self, argv, deadline):
        self.deadline = deadline
        self.lines = queue.Queue()
        self.started = perf_counter()
        self.proc = subprocess.Popen(
            argv, cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE, text=True)
        self.reader = threading.Thread(target=self._pump, daemon=True)
        self.reader.start()

    def _pump(self):
        for line in self.proc.stdout:
            self.lines.put(line.rstrip("\n"))
        self.lines.put(None)

    def line(self, predicate):
        """The first line satisfying ``predicate``, and when it came."""
        while True:
            remaining = self.deadline - perf_counter()
            if remaining <= 0:
                raise BenchError(f"time limit reached waiting on {self.proc.args[1]}")
            try:
                line = self.lines.get(timeout=remaining)
            except queue.Empty:
                continue
            if line is None:
                raise BenchError(f"{self.proc.args[1]} exited with {self.proc.wait()}")
            if predicate(line):
                return line, perf_counter()

    def result(self):
        """The JSON object a child prints last, once it has exited."""
        line, _ = self.line(lambda l: l.startswith("{"))
        self.wait()
        return json.loads(line)

    def wait(self):
        remaining = max(0.1, self.deadline - perf_counter())
        try:
            code = self.proc.wait(timeout=remaining)
        except subprocess.TimeoutExpired:
            raise BenchError(f"time limit reached waiting on {self.proc.args[1]}")
        if code != 0:
            raise BenchError(f"{self.proc.args[1]} exited with {code}")

    def stop(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.reader.join(timeout=5)
        self.proc.stdout.close()


def _child(args, deadline):
    return Child([sys.executable, os.path.join(HERE, "child.py"), *args], deadline)


def _ready(line):
    return line == "READY"


class Runner:
    """One workload at one seed: passes, set-up starts, checks."""

    def __init__(self, workload, seed, deadline, scratch):
        self.workload = workload
        self.seed = seed
        self.deadline = deadline
        self.scratch = scratch
        self.children = []

    def _spawn(self, factory, *args):
        child = factory(*args)
        self.children.append(child)
        return child

    def close(self):
        for child in self.children:
            child.stop()

    # -- one pass ------------------------------------------------------

    def run_pass(self, traced, index=0, sampled=True):
        """``(setup, result)`` of pass ``index`` in fresh processes, where
        ``setup`` is ``(scaled, raw)`` set-up seconds. A ``sampled`` pass
        (never a traced one) states its set-up and task times at the
        reference speed, and keeps the measured task times as ``raw_s``;
        other passes report only measured times."""
        sampled = sampled and not traced
        if self.workload == "serve-prefix":
            started, setup, result, samples = self._serve_pass(traced, sampled)
        else:
            args = [self.workload, "--seed", str(self.seed), "--pass-index", str(index)]
            if traced:
                args.append("--trace")
            elif not sampled:
                args.append("--no-sample")
            child = self._spawn(_child, args, self.deadline)
            _, ready = child.line(_ready)
            started, setup = child.started, ready - child.started
            result = child.result()
            samples = result["samples"]
        if not sampled:
            return (setup, setup), result
        times = _scaled([(started, setup), *result["spans"]], samples)
        for task, seconds in zip(result["tasks"], times[1:]):
            task["raw_s"] = task["time_s"]
            task["time_s"] = seconds
        result["speed"] = speed.REFERENCE_PROBE_S * len(samples) / sum(t for _, t in samples)
        return (times[0], setup), result

    def setup_start(self):
        """``(scaled, raw)`` set-up seconds of one extra fresh start that
        runs no task."""
        if self.workload == "serve-prefix":
            server, out = self._start_server(traced=False, sampled=True)
            self._shutdown(server)
            started, setup = server.started, server.ready_s
            with open(out, encoding="utf-8") as fh:
                samples = json.load(fh)
        else:
            child = self._spawn(_child, [self.workload, "--setup-only"], self.deadline)
            _, ready = child.line(_ready)
            started, setup = child.started, ready - child.started
            samples = child.result()["samples"]
        return _scaled([(started, setup)], samples)[0], setup

    # -- serve-prefix --------------------------------------------------

    def _start_server(self, traced, sampled):
        """A server and the file its launcher writes on shutdown: layer
        totals when ``traced``, host-speed samples when ``sampled``."""
        workdir = tempfile.mkdtemp(dir=self.scratch)
        journal = os.path.join(workdir, "journal.jsonl")
        out = os.path.join(workdir, "launcher.json")
        flags = [*SERVE_ARGS, "--journal", journal]
        if traced or sampled:
            argv = [sys.executable, os.path.join(HERE, "serve_launcher.py"),
                    "--trace" if traced else "--sample", out, "--", *flags]
        else:
            argv = [sys.executable, "-m", "repro", *flags]
        server = self._spawn(Child, argv, self.deadline)
        line, ready = server.line(lambda l: l.startswith("serving on "))
        server.ready_s = ready - server.started
        server.port = int(line.rsplit(":", 1)[1])
        return server, out

    def _shutdown(self, server):
        with socket.create_connection(("127.0.0.1", server.port), timeout=30) as sock:
            sock.sendall(b'{"op": "shutdown"}\n')
            sock.makefile("rb").readline()
        server.wait()

    def _reference(self):
        """The file of direct ``run_lasy`` results serve-prefix is checked
        against. They depend only on the code, and computing them takes
        about as long as a pass, so they are kept per code digest."""
        path = os.path.join(CACHE, f"serve-reference-{code_digest()}.json")
        if not os.path.exists(path):
            child = self._spawn(_child, ["serve-prefix", "--reference"], self.deadline)
            reference = child.result()["reference"]
            os.makedirs(CACHE, exist_ok=True)
            partial = os.path.join(self.scratch, "reference.json")
            with open(partial, "w", encoding="utf-8") as fh:
                json.dump(reference, fh)
            os.replace(partial, path)
        return path

    def _serve_pass(self, traced, sampled):
        """``(server start, set-up seconds, result, samples)`` of one
        serve-prefix pass: a fresh server and one client. The server
        samples the host speed, since the synthesis runs there."""
        reference = self._reference()
        server, out = self._start_server(traced, sampled)
        client = self._spawn(_child, [
            "serve-prefix", "--seed", str(self.seed), "--port", str(server.port),
            "--reference-file", reference], self.deadline)
        result = client.result()
        result["rss_mb"] = _peak_rss_mb(server.proc.pid)
        self._shutdown(server)
        samples = None
        if traced or sampled:
            with open(out, encoding="utf-8") as fh:
                written = json.load(fh)
            if traced:
                result["layers"] = written
            else:
                samples = written
        return server.started, server.ready_s, result, samples


def _scaled(spans, samples):
    try:
        return speed.scaled(spans, samples)
    except ValueError as exc:
        raise BenchError(str(exc)) from exc


def code_digest():
    """A digest of every file under ``src/`` and of the workload code."""
    paths = [os.path.join(HERE, "workloads.py")]
    for dirpath, dirnames, filenames in os.walk(SRC):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        paths += [os.path.join(dirpath, f) for f in sorted(filenames)]
    digest = hashlib.sha256()
    for path in paths:
        digest.update(os.path.relpath(path, ROOT).encode("utf-8") + b"\0")
        with open(path, "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()[:16]


def _peak_rss_mb(pid):
    """A live process's peak resident set (VmHWM), in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError("VmHWM missing from /proc status")


def passes_for(workload, seconds):
    """Enough passes to measure ``seconds`` at the nominal pass length."""
    return max(1, math.ceil(seconds / NOMINAL_PASS_S[workload]))


def _p85(values):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100)[84]


def aggregate(workload, results, setups):
    """End-to-end metrics over passes: each task counts at its best
    scaled time, and as solved only if every pass solved it. ``setups``
    holds ``(scaled, raw)`` set-up seconds."""
    raw_setups = [raw for _, raw in setups]
    setups = [scaled for scaled, _ in setups]
    names = [t["name"] for t in results[0]["tasks"]]
    by_name = {n: [] for n in names}
    for result in results:
        for task in result["tasks"]:
            by_name[task["name"]].append(task)
    times = [min(t["time_s"] for t in by_name[n]) for n in names]
    raw_times = [min(t["raw_s"] for t in by_name[n]) for n in names]
    solved = [all(t["solved"] for t in by_name[n]) for n in names]
    guard = ("digest",) if workload == "serve-prefix" else ("digest", "expressions")
    summary = {
        "metrics": {
            "solve_rate": sum(solved) / len(names),
            "steps": sum(min(t["steps"] for t in by_name[n]) for n in names),
            "wall_s": sum(times),
            "task_p50_s": statistics.median(times),
            "task_p85_s": _p85(times),
            "setup_s": statistics.median(setups),
            # The peak over passes, which run the tasks in different
            # orders (the peak of a pass depends on its order).
            "peak_rss_mb": max(r["rss_mb"] for r in results),
        },
        "tasks": [
            {"name": n, "time_s": t, "solved": s,
             "steps": by_name[n][0]["steps"], "digest": by_name[n][0]["digest"],
             "expressions": by_name[n][0]["expressions"]}
            for n, t, s in zip(names, times, solved)
        ],
        "unsound": sorted({t["name"] for r in results for t in r["tasks"] if t["unsound"]}),
        "failed": sum(t["unsound"] for r in results for t in r["tasks"]),
        "attempted": sum(len(r["tasks"]) for r in results),
        "nondeterministic": [
            n for n in names if any(len({t[k] for t in by_name[n]}) > 1 for k in guard)
        ],
        # The same metrics in measured seconds, before scaling.
        "unscaled": {
            "wall_s": sum(raw_times),
            "task_p50_s": statistics.median(raw_times),
            "task_p85_s": _p85(raw_times),
            "setup_s": statistics.median(raw_setups),
        },
        "setups": setups,
        "raw_setups": raw_setups,
        "pass_walls": [sum(t["time_s"] for t in r["tasks"]) for r in results],
        "raw_pass_walls": [sum(t["raw_s"] for t in r["tasks"]) for r in results],
        "pass_speed": [r["speed"] for r in results],
        "pass_rss_mb": [r["rss_mb"] for r in results],
    }
    if "holdout" in results[0]["tasks"][0]:
        summary["holdout_rate"] = statistics.mean(
            all(t["holdout"] for t in by_name[n]) for n in names)
    if workload == "serve-prefix":
        summary["cache"] = [r["stats"]["cache"] for r in results]
        summary["hits"] = [sum(t.get("hit", False) for t in r["tasks"]) for r in results]
    return summary


def traced_summary(workload, untraced, traced):
    """Per-layer metrics of the traced pass, plus its task checks."""
    import layers

    overhead = sum(t.get("overhead_s", 0.0) for t in traced["tasks"])
    metrics, self_times = layers.layer_metrics(
        traced["layers"], traced["wall_s"], untraced["wall_s"], overhead)
    stats = traced.get("stats") or {}
    metrics["cache.evictions"] = (stats.get("cache") or {}).get("evicted", 0)
    results = [untraced, traced]
    return {
        "metrics": metrics,
        "self_s": self_times,
        "wall_s": traced["wall_s"],
        "untraced_wall_s": untraced["wall_s"],
        "entries": traced["layers"]["entries"],
        "unsound": sorted({t["name"] for r in results for t in r["tasks"] if t["unsound"]}),
        "failed": sum(t["unsound"] for r in results for t in r["tasks"]),
        "attempted": sum(len(r["tasks"]) for r in results),
    }


def run_workload(workload, seed, seconds, trace, deadline):
    os.makedirs(TMP, exist_ok=True)
    scratch = tempfile.mkdtemp(dir=TMP)
    runner = Runner(workload, seed, deadline, scratch)
    try:
        if trace:
            # The untraced pass runs without the speed sampler, like the
            # traced one, so the two wall times compare.
            untraced = runner.run_pass(traced=False, sampled=False)[1]
            traced = runner.run_pass(traced=True)[1]
            return traced_summary(workload, untraced, traced)
        setups, results = [], []
        passes = passes_for(workload, seconds)
        extra = max(0, SETUP_STARTS - passes)
        for index in range(passes):
            setup, result = runner.run_pass(traced=False, index=index)
            setups.append(setup)
            results.append(result)
            for _ in range(extra * (index + 1) // passes - extra * index // passes):
                setups.append(runner.setup_start())
        return aggregate(workload, results, setups)
    finally:
        runner.close()
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            os.rmdir(TMP)
        except OSError:
            pass


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def report(workload, summary, specs):
    """Print every metric of ``specs`` by name with its unit; return the
    ``metrics`` object of the result line."""
    out = {}
    for spec in specs:
        value = summary["metrics"][spec["name"]]
        out[spec["name"]] = {"value": value, "unit": spec["unit"]}
        print(f"{workload:13s} {spec['name']:26s} {value:14.6g} {spec['unit']}")
    for name, value in summary.get("unscaled", {}).items():
        print(f"{workload:13s} {name + ' (unscaled)':26s} {value:14.6g} s")
    if "holdout_rate" in summary:
        print(f"{workload:13s} {'holdout_rate':26s} {summary['holdout_rate']:14.6g} fraction"
              " (one of solve_rate's checks)")
    if "self_s" in summary:
        named = {s["name"] for s in specs}
        for name, value in sorted(summary["metrics"].items()):
            if name not in named:
                print(f"{workload:13s} {name:26s} {value:14.6g} (not in BENCHMARK.json)")
        wall = summary["wall_s"]
        for layer, seconds in summary["self_s"].items():
            print(f"{workload:13s} self_s[{layer}]".ljust(41)
                  + f"{seconds:14.6g} s  {seconds / wall:6.1%} of traced wall_s")
    for name in summary["unsound"]:
        print(f"{workload:13s} UNSOUND {name}")
    for name in summary.get("nondeterministic", ()):
        print(f"{workload:13s} NONDETERMINISTIC {name} (digest or expressions differ between passes)")
    return out


def main(argv=None) -> int:
    spec = load_spec()
    workloads = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads,
                        help="run one workload (default: all, one after another)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"],
                        help="measured seconds per workload; sets the number of passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write the full results (tasks, digests) as JSON")
    args = parser.parse_args(argv)

    # A terminated run still stops its children (Runner.close).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"bench_e2e: no repro package under {SRC}", file=sys.stderr)
        return 2
    specs = spec["per_layer"] if args.trace else spec["end_to_end"]
    deadline = perf_counter() + RUN_LIMIT_S * (1 if args.workload else len(workloads))
    selected = [args.workload] if args.workload else workloads
    summaries, metrics = {}, {}
    attempted = failed = 0
    try:
        for workload in selected:
            summary = run_workload(workload, args.seed, args.seconds, args.trace, deadline)
            summaries[workload] = summary
            metrics[workload] = report(workload, summary, specs)
            attempted += summary["attempted"]
            failed += summary["failed"]
    except BenchError as exc:
        print(f"bench_e2e: {exc}", file=sys.stderr)
        return 1
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"seed": args.seed, "seconds": args.seconds, "trace": args.trace,
                       "workloads": summaries}, fh, indent=1, sort_keys=True)
    correct = failed == 0
    line = {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics[selected[0]] if args.workload else
            {f"{w}.{k}": v for w in selected for k, v in metrics[w].items()}}
    print(json.dumps(line))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
