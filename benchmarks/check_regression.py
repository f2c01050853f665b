"""Benchmark regression gate: compare freshly-generated benchmark JSON
against the committed baseline and fail CI on a slowdown.

Usage::

    PYTHONPATH=src python benchmarks/bench_eval.py          # writes BENCH_eval.json
    python benchmarks/check_regression.py BASELINE CURRENT  # e.g. the
        # git-committed BENCH_eval.json vs the regenerated one

Only metric keys are compared — ``*_ops_per_sec`` and ``speedup`` must
not drop, ``*_seconds`` / ``*_ms`` must not grow. Environment
descriptors (``host``) and raw per-iteration/per-rep samples
(``iterations``, ``totals_seconds``) are ignored: they describe the
run, they aren't the contract. The default tolerance is 25% — generous
because CI runners are noisy — and can be overridden with
``REPRO_BENCH_TOLERANCE`` (a fraction, e.g. ``0.4``).

A key present in the baseline but missing from the regenerated file is
an error: renaming a metric requires re-committing the baseline in the
same change.

On top of the relative comparison, ``HARD_FLOORS`` pins absolute
minimums for metrics that are contracts in their own right — e.g. the
batched enumerator's end-to-end strings speedup must stay ≥ 1.5×
regardless of what the committed baseline says, so the kernel-vs-e2e
gap can't silently reopen through a sequence of tolerated drops (or a
degraded baseline). Floors ignore the tolerance: they are the line, not
a target to drift toward.
"""

from __future__ import annotations

import json
import os
import sys
from typing import Iterator, Tuple

DEFAULT_TOLERANCE = 0.25
ENV_TOLERANCE = "REPRO_BENCH_TOLERANCE"

# Subtrees that describe the run rather than benchmark performance.
SKIP_KEYS = {"host", "iterations", "totals_seconds", "tasks"}

HIGHER_BETTER_SUFFIXES = ("_ops_per_sec", "speedup")
LOWER_BETTER_SUFFIXES = ("_seconds", "_ms")

# Absolute floors (metric path -> minimum value), enforced on the
# *current* file independent of baseline and tolerance. A floor only
# applies when the metric belongs to the file under comparison (the
# gate runs once per BENCH_*.json); a floored path present in the
# baseline but missing from the current file is caught by the ordinary
# missing-metric check.
HARD_FLOORS = {
    "e2e_strings.speedup": 1.5,
    # A warm service request (session-cache hit) must beat a cold one
    # by at least 2x on the strings slice — the contract of the
    # synthesis-as-a-service layer (docs/service.md).
    "service_strings.speedup": 2.0,
    # The adaptive example scheduler must cut the staircase p95 by at
    # least 1.3x over FIFO (BENCH_schedule.json). The win is deadline
    # shaping, not parallelism, so it reproduces on one core.
    "schedule.p95_speedup": 1.3,
}


def _direction(key: str) -> int:
    """+1 if larger is better, -1 if smaller is better, 0 if not a metric."""
    if key.endswith(HIGHER_BETTER_SUFFIXES) or key == "speedup":
        return 1
    if key.endswith(LOWER_BETTER_SUFFIXES):
        return -1
    return 0


def _walk(node, path: str = "") -> Iterator[Tuple[str, str, float]]:
    """Yield ``(path, leaf_key, value)`` for every metric leaf."""
    if isinstance(node, dict):
        for key, value in node.items():
            if key in SKIP_KEYS:
                continue
            child = f"{path}.{key}" if path else key
            if isinstance(value, (dict, list)):
                yield from _walk(value, child)
            elif isinstance(value, (int, float)) and _direction(key):
                yield child, key, float(value)
    elif isinstance(node, list):
        for index, value in enumerate(node):
            yield from _walk(value, f"{path}[{index}]")


def compare(baseline: dict, current: dict, tolerance: float):
    """Return ``(regressions, missing, checked, floored)`` comparing
    metric leaves; ``floored`` lists hard-floor violations."""
    current_leaves = {p: v for p, _, v in _walk(current)}
    regressions, missing, checked = [], [], []
    for path, key, base in _walk(baseline):
        if path not in current_leaves:
            missing.append(path)
            continue
        now = current_leaves[path]
        direction = _direction(key)
        if direction > 0:
            bad = now < base * (1.0 - tolerance)
        else:
            bad = now > base * (1.0 + tolerance)
        ratio = (now / base) if base else float("inf")
        checked.append((path, base, now, ratio, bad))
        if bad:
            regressions.append((path, base, now, ratio))
    floored = [
        (path, floor, current_leaves[path])
        for path, floor in sorted(HARD_FLOORS.items())
        if path in current_leaves and current_leaves[path] < floor
    ]
    return regressions, missing, checked, floored


def main(argv) -> int:
    if len(argv) != 3:
        print(__doc__)
        print(f"usage: {argv[0]} BASELINE.json CURRENT.json", file=sys.stderr)
        return 2
    tolerance = float(os.environ.get(ENV_TOLERANCE, DEFAULT_TOLERANCE))
    with open(argv[1]) as fh:
        baseline = json.load(fh)
    with open(argv[2]) as fh:
        current = json.load(fh)

    regressions, missing, checked, floored = compare(
        baseline, current, tolerance
    )

    print(f"comparing {argv[2]} against baseline {argv[1]} "
          f"(tolerance {tolerance:.0%})")
    for path, base, now, ratio, bad in checked:
        marker = "REGRESSION" if bad else "ok"
        print(f"  {marker:>10}  {path}: {base:g} -> {now:g} ({ratio:.2f}x)")
    for path in missing:
        print(f"     MISSING  {path}: present in baseline, absent now")
    for path, floor, now in floored:
        print(f"       FLOOR  {path}: {now:g} below hard floor {floor:g}")

    if regressions or missing or floored:
        print(
            f"FAIL: {len(regressions)} regression(s), "
            f"{len(missing)} missing metric(s), "
            f"{len(floored)} hard-floor violation(s)",
            file=sys.stderr,
        )
        return 1
    print(f"PASS: {len(checked)} metrics within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
