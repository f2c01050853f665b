"""Pluggable synthesis strategies (strategy layer).

The conditional pass (§5.2), the loop strategies (§5.3), and the
composition strategies (§5.4) used to be hard-wired closures inside
``_run_dbs``; here they are named plugins with a uniform interface

    (session, budget, tracer) -> Optional[Expr]

registered in a :class:`StrategyRegistry`. A plugin returns a program
satisfying every example, or None. Registration metadata drives the
DBS driver:

* ``stage`` — ``"startup"`` plugins run once before enumeration (the
  loop strategies); ``"round"`` plugins run after each generation, in
  ``order``.
* ``final`` — round plugins also given one last pass when the budget
  dies mid-generation (a solution assembled from already-enumerated
  pieces should not be lost to the enumeration cutoff).
* ``span`` — a tracer span name the driver wraps startup runs in
  (round plugins manage their own spans).

Custom registries can be passed to :class:`~.session.SynthesisSession`
— e.g. the ablation experiments could drop a plugin instead of
threading feature flags, and a DSL could ship its own strategy.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Dict, Iterable, List, Optional

from ..expr import Expr

StrategyFn = Callable[..., Optional[Expr]]


@dataclass(frozen=True)
class StrategyEntry:
    name: str
    fn: StrategyFn
    stage: str = "round"  # "startup" | "round"
    order: int = 100
    final: bool = False
    span: Optional[str] = None


class StrategyRegistry:
    """Named synthesis-strategy plugins, ordered within stages."""

    def __init__(self, entries: Iterable[StrategyEntry] = ()):
        self._entries: Dict[str, StrategyEntry] = {}
        for entry in entries:
            self._entries[entry.name] = entry

    def register(
        self,
        name: str,
        fn: StrategyFn,
        *,
        stage: str = "round",
        order: int = 100,
        final: bool = False,
        span: Optional[str] = None,
        replace: bool = False,
    ) -> StrategyFn:
        if stage not in ("startup", "round"):
            raise ValueError(f"unknown stage {stage!r}")
        if name in self._entries and not replace:
            raise ValueError(f"strategy {name!r} already registered")
        self._entries[name] = StrategyEntry(name, fn, stage, order, final, span)
        return fn

    def unregister(self, name: str) -> None:
        self._entries.pop(name, None)

    def get(self, name: str) -> Optional[StrategyEntry]:
        return self._entries.get(name)

    def names(self) -> List[str]:
        return sorted(self._entries)

    def for_stage(
        self, stage: str, final_only: bool = False
    ) -> List[StrategyEntry]:
        out = [
            entry
            for entry in self._entries.values()
            if entry.stage == stage and (entry.final or not final_only)
        ]
        out.sort(key=lambda entry: (entry.order, entry.name))
        return out

    def clone(self) -> "StrategyRegistry":
        return StrategyRegistry(self._entries.values())

    def run(
        self,
        stage: str,
        session,
        budget,
        tracer,
        *,
        final_only: bool = False,
    ) -> Optional[Expr]:
        """Run a stage's plugins in order; return the first program found.

        This is the single driver every DBS stage goes through, so
        per-strategy cost accounting lives here and nowhere else: when
        the run records detailed metrics, each plugin call lands in the
        ``prof.strategy.*`` labeled instruments (wall seconds, runs,
        solves) that the ``report-trace --hotspots`` strategy table
        aggregates. Startup plugins are additionally wrapped in their
        registered span (``entry.span`` or ``dbs.strategy.<name>``);
        round plugins manage their own spans.
        """
        registry = session.stats.registry
        detailed = registry.detailed
        for entry in self.for_stage(stage, final_only=final_only):
            t0 = perf_counter()
            if stage == "startup":
                span_name = entry.span or f"dbs.strategy.{entry.name}"
                with tracer.span(span_name) as span:
                    program = entry.fn(session, budget, tracer)
                    span.set(
                        candidates=session.stats.loop_candidates,
                        solved=program is not None,
                    )
            else:
                program = entry.fn(session, budget, tracer)
            if detailed:
                registry.histogram("prof.strategy.seconds").observe(
                    perf_counter() - t0, strategy=entry.name
                )
                registry.counter("prof.strategy.runs").inc(
                    1, strategy=entry.name
                )
                if program is not None:
                    registry.counter("prof.strategy.solved").inc(
                        1, strategy=entry.name
                    )
            if program is not None:
                return program
        return None


# -- the built-in plugins ---------------------------------------------


def loops_plugin(session, budget, tracer) -> Optional[Expr]:
    """§5.3 loop strategies: hypothesize loop structure from the
    examples, synthesize bodies via sub-DBS calls, test the assemblies."""
    del tracer  # run_loop_strategies opens its spans via get_tracer()
    options, dsl = session.options, session.dsl
    if not options.enable_loops or not dsl.loops:
        return None
    from ..loops import BodySynthesizer, run_loop_strategies

    synthesize_body = BodySynthesizer(
        dsl, options, budget, session.lasy_fns, session.lasy_signatures
    )
    candidates = run_loop_strategies(
        dsl, session.signature, session.examples, synthesize_body
    )
    session.stats.loop_candidates += len(candidates)
    for candidate in candidates:
        if session.tester.passes_all(candidate.program):
            return candidate.program
    return None


def composition_plugin(session, budget, tracer) -> Optional[Expr]:
    """§5.4 composition strategies: goal-directed candidates assembled
    from the pool, tested through the same contexts."""
    pool = session.pool
    pool.guard_sets = [g.true_set for g in session.store.guards]
    with tracer.span("dbs.strategies") as span:
        offered_before = budget.expressions
        tried = 0
        try:
            for strategy in session.dsl.composition_strategies:
                budget.check_deadline()
                candidates = strategy(
                    pool, session.examples, session.signature, session.dsl
                )
                if not candidates:
                    continue
                tried += len(candidates)
                program = session.test_batch(candidates)
                if program is not None:
                    span.set(solved=True)
                    return program
                for candidate in candidates:
                    pool.offer_external(candidate)
        finally:
            span.set(
                candidates=tried,
                offered=budget.expressions - offered_before,
            )
    return None


def conditionals_plugin(session, budget, tracer) -> Optional[Expr]:
    """§5.2 conditional synthesis from the recorded T(p)/B(g) sets
    (Algorithm 2, line 7); skipped when the store hasn't grown."""
    del tracer  # solve_with_buckets opens its own dbs.conditionals span
    from ..conditionals import solve_with_buckets

    options = session.options
    if not (
        options.enable_conditionals
        and session.max_branches > 1
        and session.dsl.conditionals
    ):
        return None
    store = session.store
    store_size = (len(store.programs), len(store.guards))
    if store_size == session.last_store_size:
        return None
    session.last_store_size = store_size
    session.stats.conditional_attempts += 1
    candidate = solve_with_buckets(
        store,
        session.dsl,
        session.all_set,
        session.max_branches,
        session.root_nt,
        budget,
    )
    if candidate is not None and session.tester.passes_all(candidate):
        return candidate
    return None


def default_registry() -> StrategyRegistry:
    """The stock Algorithm 2 strategy set."""
    registry = StrategyRegistry()
    registry.register(
        "loops", loops_plugin, stage="startup", order=10, span="dbs.loops"
    )
    registry.register(
        "composition", composition_plugin, stage="round", order=50, final=True
    )
    registry.register("conditionals", conditionals_plugin, stage="round", order=60)
    return registry
