"""Parallel execution for independent synthesis tasks.

Suite tasks are independent, so the experiment drivers fan them out
over worker processes. This package provides that fault-tolerant
fan-out — worker-crash recovery, bounded retry, per-task timeouts,
poison-task quarantine (:mod:`.parallel`), deterministic fault
injection for testing it (:mod:`.faults`), and checkpoint/resume over
a durable completed-task journal (:mod:`.checkpoint`) — including the
observability plumbing: per-worker ``JsonlTracer`` shards and
evaluator-metrics merge-back. See docs/robustness.md and
docs/performance.md.
"""

from .checkpoint import Journal, checkpointed_map
from .faults import FaultPlan, SimulatedCrash
from .parallel import (
    ParallelOutcome,
    RetryPolicy,
    TaskFailure,
    parallel_map,
)

__all__ = [
    "FaultPlan",
    "Journal",
    "ParallelOutcome",
    "RetryPolicy",
    "SimulatedCrash",
    "TaskFailure",
    "checkpointed_map",
    "parallel_map",
]
