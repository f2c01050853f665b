"""Example-scheduling benchmark: p50/p95 task latency per scheduler.

Run directly (writes ``BENCH_schedule.json`` at the repo root)::

    PYTHONPATH=src python benchmarks/bench_schedule.py

Times a task mix — fast strings-suite and Pex4Fun tasks plus two
"staircase" tasks engineered to reproduce the known FIFO p95 pathology
— under each shipped scheduler (``fifo``, ``adaptive``), interleaving
the schedulers inside each rep so they sample the same allocator/GC
state, and records the p50/p95 of the per-task latencies plus the
fifo/adaptive ratios.

The staircase tasks are the honest core of the p95 story: a
mid-sequence example needs a conditional the branch budget does not
allow yet, so its DBS call deterministically burns the whole per-DBS
soft budget under FIFO, while the adaptive scheduler caps the
iteration at a share of the remaining session wall (``timeout_s``),
lets the cheap trailing examples grow the branch budget, and ends up
solving the same task in a fraction of the wall-clock. The speedup
comes from deadline shaping, not parallelism — it reproduces on one
core — so ``check_regression.py`` holds ``schedule.p95_speedup`` to its
1.3x floor on every host (``host.cpus`` is still recorded).

Honesty guards:

* on the timeout-free (easy) tasks, the adaptive run's programs must
  be byte-identical to FIFO's (the scheduler correctness bar;
  ``tests/test_schedule.py`` holds it across domains and enumeration
  paths);
* every scheduler must *solve* every task — a scheduler that went fast
  by failing would abort the bench;
* the staircase walls are wide enough that FIFO also succeeds: the
  comparison is solved-vs-solved latency, never success-vs-failure.
"""

from __future__ import annotations

import gc
import json
import math
import os
import sys
from time import perf_counter

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if not os.environ.get("PYTHONPATH") or "repro" not in sys.modules:
    sys.path.insert(0, os.path.join(_ROOT, "src"))

REPS = 2  # timed reps per scheduler; best rep per task wins
SCHEDULES = ["fifo", "adaptive"]
EASY_STRINGS = [
    "extract-domain",
    "initials",
    "last-word",
    "drop-extension",
    "two-digit-year",
]
EASY_PEX = ["max-of-two", "clamp-nonnegative", "sign"]

# Staircase pathology knobs: per-DBS soft budget (what a FIFO timeout
# iteration burns) and the session wall the adaptive caps are shares of.
HARD_DBS_BUDGET_S = 5.0
HARD_WALL_S = 8.0


def _staircase_dsl():
    from repro.core.dsl import DslBuilder
    from repro.core.types import BOOL, INT

    b = DslBuilder("sched-stair", start="P")
    b.nt("P", INT).nt("e", INT).nt("b", BOOL)
    b.conditional("P", guard_nt="b", branch_nt="e")
    b.fn("e", "Neg", ["e"], lambda v: -v)
    b.fn("e", "Add", ["e", "e"], lambda a, c: a + c)
    b.fn("b", "Lt", ["e", "e"], lambda a, c: a < c)
    b.param("e")
    b.constant("e")
    b.constants_from(lambda examples: {"e": [0, 1]})
    return b.build()


def _hard_tasks():
    """Two staircase tasks: the mid-sequence example needs a second
    branch, so its iteration times out until later examples grow the
    budget. ``(name, examples)``; both end satisfied under every
    scheduler."""
    from repro.core.dsl import Example

    return [
        (
            "stair-abs-double",
            [
                Example((3,), 6),
                Example((-4,), 4),
                Example((-9,), 9),
                Example((5,), 10),
            ],
        ),
        (
            "stair-relu",
            [
                Example((3,), 3),
                Example((-4,), 0),
                Example((-7,), 0),
                Example((5,), 5),
            ],
        ),
    ]


def _run_easy_strings(name, schedule):
    from repro.core.budget import Budget
    from repro.core.tds import TdsOptions
    from repro.suites import ALL_SUITES

    benchmark = next(b for b in ALL_SUITES["strings"] if b.name == name)
    result = benchmark.run(
        budget_factory=lambda: Budget(
            max_seconds=20, max_expressions=250_000
        ),
        options=TdsOptions(schedule=schedule),
    )
    assert result.success, f"{name} failed under {schedule}"
    return {
        fn: str(r.program) for fn, r in result.results.items()
    }


def _run_easy_pex(name, schedule):
    from repro.core.budget import Budget
    from repro.core.tds import TdsOptions
    from repro.pex import PUZZLES, play

    puzzle = next(p for p in PUZZLES if p.name == name)
    result = play(
        puzzle,
        budget_factory=lambda: Budget(max_seconds=8, max_expressions=80_000),
        options=TdsOptions(schedule=schedule),
    )
    assert result.solved, f"pex {name} failed under {schedule}"
    return {name: str(result.program)}


def _run_hard(examples, schedule):
    from repro.core.budget import Budget
    from repro.core.dsl import Signature
    from repro.core.tds import TdsOptions, TdsSession
    from repro.core.types import INT

    session = TdsSession(
        Signature("f", (("x", INT),), INT),
        _staircase_dsl(),
        budget_factory=lambda: Budget(
            max_seconds=HARD_DBS_BUDGET_S, max_expressions=50_000_000
        ),
        options=TdsOptions(schedule=schedule, timeout_s=HARD_WALL_S),
    )
    for example in examples:
        session.feed(example)
    result = session.finalize()
    assert result.success, f"staircase failed under {schedule}"
    return {"f": str(result.program)}


def _percentile(samples, q):
    ordered = sorted(samples)
    index = max(0, math.ceil(q * len(ordered)) - 1)
    return ordered[index]


def bench_schedule():
    tasks = (
        [("strings:" + n, lambda s, n=n: _run_easy_strings(n, s))
         for n in EASY_STRINGS]
        + [("pex:" + n, lambda s, n=n: _run_easy_pex(n, s))
           for n in EASY_PEX]
        + [("hard:" + n, lambda s, ex=ex: _run_hard(ex, s))
           for n, ex in _hard_tasks()]
    )
    easy = {name for name, _ in tasks if not name.startswith("hard:")}
    best = {s: {name: float("inf") for name, _ in tasks} for s in SCHEDULES}
    programs = {s: {} for s in SCHEDULES}
    # Warm-up: pay one-time imports/domain builds outside the timings.
    for schedule in SCHEDULES:
        tasks[0][1](schedule)
    for rep in range(REPS):
        for schedule in SCHEDULES:
            for name, run in tasks:
                gc.collect()
                start = perf_counter()
                solved = run(schedule)
                elapsed = perf_counter() - start
                best[schedule][name] = min(
                    best[schedule][name], elapsed
                )
                previous = programs[schedule].get(name)
                if previous is not None:
                    assert previous == solved, (
                        f"nondeterministic rep: {name} under {schedule}"
                    )
                programs[schedule][name] = solved
    for name in sorted(easy):
        # The scheduler correctness bar, as a bench-level guard:
        # timeout-free adaptive runs are byte-identical to fifo.
        assert programs["adaptive"][name] == programs["fifo"][name], (
            f"adaptive diverged from fifo on timeout-free task {name}"
        )
    out = {"tasks": [name for name, _ in tasks], "reps": REPS,
           "hard_wall_s": HARD_WALL_S}
    for schedule in SCHEDULES:
        latencies = list(best[schedule].values())
        p50 = _percentile(latencies, 0.50)
        p95 = _percentile(latencies, 0.95)
        out[f"{schedule}_p50_seconds"] = round(p50, 3)
        out[f"{schedule}_p95_seconds"] = round(p95, 3)
        print(f"  {schedule:>14}: p50 {p50:.3f}s  p95 {p95:.3f}s")
    out["p50_speedup"] = round(
        out["fifo_p50_seconds"] / out["adaptive_p50_seconds"], 2
    )
    out["p95_speedup"] = round(
        out["fifo_p95_seconds"] / out["adaptive_p95_seconds"], 2
    )
    print(
        f"  fifo/adaptive speedup: p50 {out['p50_speedup']}x, "
        f"p95 {out['p95_speedup']}x on {os.cpu_count()} cpus"
    )
    return out


def main():
    print(
        f"example scheduling ({len(EASY_STRINGS)} strings + "
        f"{len(EASY_PEX)} pexfun + {len(_hard_tasks())} staircase tasks, "
        f"{', '.join(SCHEDULES)}):"
    )
    schedule = bench_schedule()
    payload = {
        "schedule": schedule,
        "host": {
            "cpus": os.cpu_count(),
            "python": sys.version.split()[0],
        },
    }
    out = os.path.join(_ROOT, "BENCH_schedule.json")
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
