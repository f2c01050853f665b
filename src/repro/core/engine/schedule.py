"""Example scheduling — which pending example TDS admits next, and
under what per-iteration deadline.

TDS (Algorithm 1) consumes its example sequence in caller order, and
`BENCH_tds_warm.json` shows why that is a p95 problem: one pathological
example whose DBS iteration times out (~5s of a 60k-expression search)
dwarfs every other iteration combined (~0.06s). The §6.2 ordering study
(F7/F8) already measured the order sensitivity. This module turns that
observation into a small policy layer: :data:`SCHEDULERS` maps each
scheduler name to its class.

An :class:`ExampleScheduler` never touches the pool or enumerator — it
only decides, per TDS step:

* **admission order** — which queued example the session consumes next
  (:meth:`ExampleScheduler.order`);
* **per-iteration deadline** — an extra hard wall for one admission's
  DBS call (:meth:`ExampleScheduler.iteration_deadline`), composed into
  the budget via ``Budget.add_deadline`` so the tighter of it, the
  session wall (``TdsOptions.timeout_s``) and the per-DBS budget wins.

All scheduler state that must survive suspension lives on the
:class:`~..tds.TdsSession` itself (``_hard_fingerprints``,
``_example_costs``, admitted/pending index lists), so cached
sessions keep their observations across requests and the scheduler
object itself stays disposable.

Shipped schedulers:

``fifo``
    Caller order, immediate admission — byte-for-byte today's behavior
    and the default.
``adaptive``
    Cheap-examples-first by observed per-example cost (the per-index
    ``dbs_seconds`` each step records — the same signal the detailed
    ``prof.example.*`` instruments expose), with the example that
    triggered the last :class:`~..dbs.SynthesisTimeout` deferred to the
    end of the queue and retried against the richer warm pool, and
    escalating per-iteration deadlines so one pathological example
    cannot eat the whole ``TdsOptions.timeout_s``. With no observed
    signal (no prior timeout, no recorded costs) the order degrades to
    arrival order exactly, so timeout-free runs are byte-identical to
    ``fifo``.

Counters (process-global registry, ``obs.metrics.GLOBAL``):
``schedule.deferred`` (timeout retries pushed behind the queue) and
``schedule.retried`` (deferred re-admissions actually run). The
scheduling decisions themselves run under a ``tds.schedule`` span, which
the trace report attributes to its own ``schedule`` phase.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Sequence, Type, TYPE_CHECKING

from ...obs import metrics as obs_metrics

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..tds import TdsSession, TdsStep

#: Environment switch consulted when ``TdsOptions.schedule`` is None —
#: same default-then-env resolution as ``REPRO_EVAL``.
ENV_SCHEDULE = "REPRO_TDS_SCHEDULE"
DEFAULT_SCHEDULE = "fifo"

_METRICS = obs_metrics.GLOBAL
C_DEFERRED = _METRICS.counter("schedule.deferred")
C_RETRIED = _METRICS.counter("schedule.retried")


def resolve_schedule(name: Optional[str]) -> str:
    """The effective scheduler name: explicit option, else the
    ``REPRO_TDS_SCHEDULE`` environment switch, else ``fifo``. An
    environment value naming no known scheduler falls back to
    ``fifo``, as an unknown ``REPRO_EVAL`` value falls back to its
    default."""
    if name:
        return name
    env = os.environ.get(ENV_SCHEDULE, "").strip()
    if env in SCHEDULERS:
        return env
    return DEFAULT_SCHEDULE


class ExampleScheduler:
    """Base scheduler: FIFO semantics. Subclasses override the hooks.

    Instances are cheap and disposable — a session re-creates its
    scheduler whenever the configured name changes (cache checkout can
    swap options). Anything that must survive suspension belongs on the
    session, not here.
    """

    #: key in :data:`SCHEDULERS` (also the ``TdsOptions.schedule`` value)
    name = "fifo"
    #: True: ``feed`` admits immediately, preserving the historical
    #: one-example-at-a-time behavior. False: examples queue and the
    #: scheduler decides the admission order at drain time.
    immediate = True

    def order(self, session: "TdsSession", pending: Sequence[int]) -> List[int]:
        """Admission order over pending arrival indices (front first)."""
        return list(pending)

    def iteration_deadline(
        self, session: "TdsSession", index: int, pending_after: int
    ) -> Optional[float]:
        """An extra hard wall (seconds) for this admission's DBS call,
        or None for no per-iteration cap."""
        return None

    def observe(self, session: "TdsSession", index: int, step: "TdsStep") -> None:
        """Record one admission's outcome (cost bookkeeping, deferral)."""

    def wrapup(self, session: "TdsSession") -> List["TdsStep"]:
        """Post-queue work before the generic finalize retries (deferred
        retries). Returns extra steps."""
        return []


class FifoScheduler(ExampleScheduler):
    """Today's behavior: arrival order, admit everything, no caps."""


class AdaptiveScheduler(ExampleScheduler):
    """Cheap-first ordering + timeout deferral + escalating deadlines."""

    name = "adaptive"
    immediate = False

    #: Fraction of the remaining session wall the first attempt at an
    #: admission may burn while other examples still wait; doubles with
    #: each consecutive failure (escalation) and is lifted entirely for
    #: the last pending example and all finalize retries.
    base_share = 0.25
    #: Never cap an iteration below this (seconds) — under it the DBS
    #: call cannot even finish one cooperative check interval usefully.
    min_slice_s = 0.05

    def order(self, session, pending):
        costs = session._example_costs
        hard = session._hard_fingerprints
        fps = session._example_fingerprint
        # Stable sort: with no observed signal every key is (0, 0.0)
        # and arrival order survives — which is what makes timeout-free
        # adaptive runs byte-identical to fifo.
        return sorted(
            pending,
            key=lambda i: (
                1 if fps(i) in hard else 0,
                costs.get(fps(i), 0.0),
            ),
        )

    def iteration_deadline(self, session, index, pending_after):
        if pending_after <= 0:
            return None  # last admission: give it everything
        deadline = session._session_deadline()
        remaining = deadline.remaining() if deadline is not None else None
        if remaining is None or remaining <= 0:
            # No session wall to protect: capping would change plain
            # budgeted runs, which must stay fifo-identical.
            return None
        share = min(1.0, self.base_share * (2 ** session.failures_in_a_row))
        return max(self.min_slice_s, remaining * share)

    def observe(self, session, index, step):
        fp = session._example_fingerprint(index)
        if step.dbs_time:
            session._example_costs[fp] = (
                session._example_costs.get(fp, 0.0) + step.dbs_time
            )
        if step.action == "timeout":
            session._hard_fingerprints.add(fp)
            if session._pending:
                # The retry moves behind the rest of the queue: the
                # cheap examples enrich the pool first, and wrapup
                # reissues the hard constraint set against it.
                session._deferred.append(index)
                C_DEFERRED.value += 1

    def wrapup(self, session):
        if not session._deferred:
            return []
        deferred, session._deferred = session._deferred, []
        if session._truncated() or session.satisfies_all():
            return []
        # Retry the deferred constraint set against the pool the rest
        # of the queue built — uncapped: this is the attempt the
        # per-iteration deadlines saved the budget for.
        C_RETRIED.value += 1
        return [session._retry_step(deferred[-1])]


#: Scheduler name (``TdsOptions.schedule``) -> class; ``TdsSession``
#: instantiates one per session.
SCHEDULERS: Dict[str, Type[ExampleScheduler]] = {
    "fifo": FifoScheduler,
    "adaptive": AdaptiveScheduler,
}
