"""Host speed, sampled while tasks run, so task times can be stated at a
fixed speed.

On the reference host (2 shared vCPUs) the same Python code runs up to
1.5-1.9 times slower in some periods than in others, and the speed
changes from one second to the next. Process CPU time slows just as
much, so the slowdown is contention for the physical core, not time the
vCPU is descheduled, and a best time over passes cannot remove a slow
period that outlasts a run.

So while a pass runs, a :class:`Sampler` thread in the process doing the
synthesis times a short, fixed piece of reference work every
``INTERVAL_S`` (pure Python, independent of the code under test). It
holds the interpreter lock while it does, so the synthesizer waits and
the two never run at once. :func:`scaled` then takes each task's time
minus the samples taken inside it, and multiplies it by
``REFERENCE_PROBE_S`` over the mean sample within ``WINDOW_S`` of the
task: the task's seconds at the speed the host had when
``REFERENCE_PROBE_S`` was measured. A change to the code under test
changes the scaled times in the same proportion as the raw ones.
"""

from __future__ import annotations

import gc
import threading
from time import perf_counter

# Seconds of one reference_work() call on the reference host in a fast
# period; it fixes the speed the scaled times are stated at.
REFERENCE_PROBE_S = 0.0004
INTERVAL_S = 0.01
WINDOW_S = 0.05

_WORDS = tuple(f"w{i:02d}" * (1 + i % 5) for i in range(32))
_OPS = (
    lambda x: x + 1,
    lambda x: x * 3,
    lambda x: x ^ 0x55,
    lambda x: x >> 1,
)


def reference_work(n=800):
    """Fixed interpreter work like the synthesizer's inner loops: small
    function calls, integer arithmetic, string building and hashing,
    dictionary reads and writes."""
    table = {}
    acc = 0
    for i in range(n):
        key = i * 2654435761 % 4093
        word = _WORDS[key & 31]
        table[key] = table.get(key, 0) + len(word)
        acc ^= hash(word + "|") & 0xFFFF
        acc = _OPS[i & 3](acc) & 0xFFFFFF
    return acc + len(table)


def probe():
    """``[start, seconds]`` of one reference_work() call. The cyclic
    garbage collector is off meanwhile, so a collection the process's
    own heap makes expensive never lands in a sample."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        reference_work()
        return [start, perf_counter() - start]
    finally:
        if enabled:
            gc.enable()


class Sampler:
    """Probes every ``INTERVAL_S`` on a thread of its own, from
    :meth:`start` to :meth:`stop`."""

    def __init__(self):
        self.samples = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="speed-sampler", daemon=True)

    def start(self):
        self._thread.start()

    def stop(self):
        self._stop.set()
        self._thread.join()

    def _run(self):
        while not self._stop.wait(INTERVAL_S):
            self.samples.append(probe())


def scaled(spans, samples):
    """Each ``(start, seconds)`` of ``spans``, less the samples taken
    inside it, at the reference speed."""
    out = []
    for start, seconds in spans:
        end = start + seconds
        inside = sum(t for s, t in samples if start <= s < end)
        near = [t for s, t in samples if start - WINDOW_S <= s <= end + WINDOW_S]
        if not near:
            raise ValueError(f"no speed sample within {WINDOW_S} s of a task")
        out.append((seconds - inside) * REFERENCE_PROBE_S * len(near) / sum(near))
    return out
