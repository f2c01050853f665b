"""One pass of one workload, in a fresh process (started by run.py).

Prints ``READY`` once set-up is done (imports, DSLs built), then, after
the timed phase and the output checks, one JSON line with the task
records, each task's ``(start, seconds)`` and the host-speed samples
(:mod:`speed`) taken from the start of set-up to the end of the timed
phase. ``--setup-only`` prints the samples right after ``READY`` and
stops; ``--reference`` runs the direct ``run_lasy`` pass that
serve-prefix is checked against.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys

import speed

WORKLOADS = ("suites-cold", "wordwrap", "pex-game", "serve-prefix")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--pass-index", type=int, default=0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--no-sample", action="store_true",
                        help="leave the host speed unsampled (untraced pass of a traced run)")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--reference", action="store_true")
    parser.add_argument("--port", type=int)
    parser.add_argument("--reference-file")
    args = parser.parse_args(argv)

    # Host speed is sampled where the synthesis runs: here, or in the
    # server for serve-prefix. Traced passes leave it unsampled, since
    # their wall time is split into layer self times. The sampler starts
    # before the imports, which are part of set-up.
    sampled = not (args.trace or args.no_sample or args.reference
                   or args.workload == "serve-prefix")
    sampler = speed.Sampler() if sampled else None
    if sampler is not None:
        sampler.start()
    try:
        return _run(args, sampler)
    finally:
        if sampler is not None:
            sampler.stop()


def _run(args, sampler):
    import layers
    import workloads

    if args.reference:
        print(json.dumps({"reference": workloads.serve_reference()}), flush=True)
        return 0
    tracer = layers.install() if args.trace else None
    if args.workload == "serve-prefix":
        with open(args.reference_file, encoding="utf-8") as fh:
            reference = json.load(fh)
        workload = workloads.ServeClient(args.seed, args.port, reference)
    else:
        cls = {"suites-cold": workloads.SuitesCold, "wordwrap": workloads.Wordwrap,
               "pex-game": workloads.PexGame}[args.workload]
        workload = cls(args.seed, args.pass_index)
    workload.setup()
    print("READY", flush=True)
    if args.setup_only:
        if sampler is not None:
            sampler.stop()
        print(json.dumps({"samples": None if sampler is None else sampler.samples}), flush=True)
        return 0
    raw, wall = workload.run(tracer)
    if sampler is not None:
        sampler.stop()
    snapshot = tracer.snapshot() if tracer is not None else None
    tasks = workload.check(raw)
    result = {
        "tasks": tasks,
        "wall_s": wall,
        "spans": workload.spans,
        "samples": None if sampler is None else sampler.samples,
        # ru_maxrss is in KiB on Linux.
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "layers": snapshot,
        "stats": getattr(workload, "stats", None),
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
