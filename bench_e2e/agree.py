"""Two-set comparison of bench_e2e results: agreement and regression gate.

Usage::

    python3 bench_e2e/agree.py SET_A SET_B [--write SUMMARY.json]

``SET_A`` and ``SET_B`` are directories of ``run.py --out`` files (or
single files), e.g. runs of the parent commit and of a change, or two
sets of runs of the same code. For every workload x end-to-end metric
it prints each set's median and quartiles, and takes the direction and
bound from BENCHMARK.json:

* ``FAIL``: set B's median is worse than set A's by more than the bound
  (for a zero-bound metric, worse at all);
* ``UNRESOLVED``: either set's quartile spread, as a share of its median,
  is wider than the bound, so the sets cannot tell a change that size
  (for a zero-bound metric: it does not repeat exactly within a set);
* ``ok`` otherwise.

Runs at the same seed must also return identical per-task program
digests and, except on serve-prefix, identical expression counts.
Exit status 1 on any FAIL or digest mismatch.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_set(path):
    files = sorted(glob.glob(os.path.join(path, "*.json"))) if os.path.isdir(path) else [path]
    runs = []
    for name in files:
        with open(name, encoding="utf-8") as fh:
            data = json.load(fh)
        if not data.get("trace"):
            runs.append(data)
    if not runs:
        raise SystemExit(f"agree: no untraced results in {path}")
    return runs


def quartiles(values):
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)``."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values):
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median if median else 0.0


def compare(runs_a, runs_b, spec):
    rows = []
    workloads = [w["name"] for w in spec["workloads"]]
    for workload in workloads:
        got_a = [r["workloads"][workload] for r in runs_a if workload in r["workloads"]]
        got_b = [r["workloads"][workload] for r in runs_b if workload in r["workloads"]]
        if not got_a or not got_b:
            continue
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a = [s["metrics"][name] for s in got_a]
            b = [s["metrics"][name] for s in got_b]
            qa, qb = quartiles(a), quartiles(b)
            sign = 1.0 if metric["better"] == "lower" else -1.0
            worse = sign * (qb[1] - qa[1]) / qa[1] if qa[1] else 0.0
            if bound == 0:
                # A count: worse at all fails; one that does not repeat
                # exactly within a set cannot be judged.
                if sign * (qb[1] - qa[1]) > 0:
                    verdict = "FAIL"
                elif len(set(a)) > 1 or len(set(b)) > 1:
                    verdict = "UNRESOLVED"
                else:
                    verdict = "ok"
            elif worse > bound:
                verdict = "FAIL"
            elif max(spread(a), spread(b)) > bound:
                verdict = "UNRESOLVED"
            else:
                verdict = "ok"
            rows.append({
                "workload": workload, "metric": name, "unit": metric["unit"],
                "bound": bound, "a": qa, "b": qb, "n": (len(a), len(b)),
                "spread": (spread(a), spread(b)), "worse": worse, "verdict": verdict,
            })
    return rows


def digest_mismatches(runs):
    """Tasks whose digest (or expression count) differs between runs of
    the same workload at the same seed."""
    seen, bad = {}, set()
    for run in runs:
        for workload, summary in run["workloads"].items():
            keys = ("digest",) if workload == "serve-prefix" else ("digest", "expressions")
            for task in summary["tasks"]:
                slot = (workload, run["seed"], task["name"])
                value = tuple(task[k] for k in keys)
                if seen.setdefault(slot, value) != value:
                    bad.add(slot)
    return sorted(bad)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("set_a")
    parser.add_argument("set_b")
    parser.add_argument("--write", help="write the comparison as JSON")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    runs_a, runs_b = load_set(args.set_a), load_set(args.set_b)
    rows = compare(runs_a, runs_b, spec)
    print(f"{'workload':13s} {'metric':12s} {'A median [q1, q3]':>34s} "
          f"{'B median [q1, q3]':>34s} {'worse':>7s} {'bound':>5s}  verdict")
    for row in rows:
        a, b = row["a"], row["b"]
        print(f"{row['workload']:13s} {row['metric']:12s} "
              f"{a[1]:12.6g} [{a[0]:.6g}, {a[2]:.6g}]".ljust(61)
              + f"{b[1]:12.6g} [{b[0]:.6g}, {b[2]:.6g}]".ljust(35)
              + f"{row['worse']:+7.1%} {row['bound']:5.2f}  {row['verdict']}")
    mismatches = digest_mismatches(runs_a + runs_b)
    for workload, seed, task in mismatches:
        print(f"DIGEST MISMATCH {workload} seed {seed} task {task}")
    if args.write:
        with open(args.write, "w", encoding="utf-8") as fh:
            json.dump({"rows": rows, "digest_mismatches": mismatches,
                       "runs": (len(runs_a), len(runs_b))}, fh, indent=1)
    failed = [r for r in rows if r["verdict"] == "FAIL"]
    unresolved = [r for r in rows if r["verdict"] == "UNRESOLVED"]
    print(f"{len(rows)} workload x metric pairs: {len(failed)} failed, "
          f"{len(unresolved)} unresolved, {len(mismatches)} digest mismatches")
    return 1 if failed or mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
