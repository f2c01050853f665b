"""Start ``repro serve`` with the benchmark's instruments installed.

Usage: ``python bench_e2e/serve_launcher.py (--trace | --sample) OUT.json -- <repro CLI args>``.
Runs ``repro.cli.main`` with the given arguments until the server is
shut down, then writes to ``OUT.json`` either the layer totals of the
wrappers of :mod:`layers` (``--trace``, traced runs) or the host-speed
samples of a :class:`speed.Sampler` that ran from the start, set-up
included (``--sample``, untraced runs).
"""

from __future__ import annotations

import json
import sys

import layers
import speed


def main(argv) -> int:
    if len(argv) < 4 or argv[0] not in ("--trace", "--sample") or argv[2] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    mode, out, args = argv[0], argv[1], argv[3:]
    if mode == "--trace":
        tracer = layers.install()
        from repro.cli import main as repro_main

        code = repro_main(args)
        data = tracer.snapshot()
    else:
        # Started before the imports, which are part of set-up.
        sampler = speed.Sampler()
        sampler.start()
        try:
            from repro.cli import main as repro_main

            code = repro_main(args)
        finally:
            sampler.stop()
        data = sampler.samples
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(data, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
