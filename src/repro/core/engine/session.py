"""The cross-run synthesis session (orchestration layer).

A :class:`SynthesisSession` owns the persistent :class:`~.pool.PoolStore`
and :class:`~.enumerator.Enumerator` and threads them — together with
the per-run tester, budget, metrics registry, and tracer — through
consecutive DBS invocations of one TDS example sequence (Algorithm 1).

Per run, :meth:`SynthesisSession.begin_run` either

* builds the store cold (first run, or the run's options/examples are
  incompatible with what the store holds), or
* *extends* it: rebinds counters and budget, reconciles LaSy-function
  staleness, widens every cached value vector by the newly appended
  examples only (``PoolStore.extend_examples``), and re-seeds atoms and
  the current ``P_i``'s subexpressions into the store at the current
  generation — so iteration ``i+1`` starts from iteration ``i``'s
  enumeration frontier instead of from scratch.

The T(p)/B(g) conditional store and the tester are per-run (they depend
on the full example list and the run's budget); the expression store
survives, and so does the verdict memo of recursive candidates
(:class:`~.testing.SessionVerdicts`) while the session can call no LaSy
function: a suspended or pickled session carries no memo.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Sequence

from ..budget import BudgetExhausted
from ..conditionals import ConditionalStore, guard_nts
from ..contexts import Context, hole_type
from ..dsl import Dsl, Example, Signature
from ..expr import Expr, free_vars
from ..types import types_compatible
from ..values import freeze, structurally_equal
from .enumerator import Enumerator
from .pool import PoolOptions, PoolStore
from .registry import StrategyRegistry, default_registry
from .testing import SessionVerdicts, Tester

REUSE_KEYS = ("reused", "invalidated", "revived", "refreshed", "pruned")


def _prefix_permutation(
    held: Sequence[Example], want: Sequence[Example]
) -> Optional[List[int]]:
    """``perm`` with ``held[perm[i]]`` the same example as ``want[i]``
    (:func:`_same_example`), or None when ``want`` is not a permutation
    of ``held``. Multiset matching by structural equality; duplicates
    pair up greedily (any pairing of equal examples is the same
    permutation of columns). O(n²), with n the example prefix — single
    digits in practice."""
    if len(held) != len(want):
        return None
    used = [False] * len(held)
    perm: List[int] = []
    for example in want:
        for j, candidate in enumerate(held):
            if not used[j] and _same_example(candidate, example):
                used[j] = True
                perm.append(j)
                break
        else:
            return None
    return perm


def _same_example(a: Example, b: Example) -> bool:
    """Whether two examples have structurally equal arguments and
    outputs (``==`` equates 1 with True, at any depth)."""
    return a is b or (
        structurally_equal(a.args, b.args)
        and structurally_equal(a.output, b.output)
    )


def _frozen_args(example: Example) -> Example:
    """``example`` with its arguments frozen as ``run_program`` freezes
    them, so the pool's vectors and the tester's runs see the same
    inputs; the example itself when they are frozen already."""
    args = freeze(example.args)
    if args == example.args:
        return example
    return Example(args, example.output)


def _same_inputs(held: Sequence[Example], run: Sequence[Example]) -> bool:
    """Whether two example lists have the same arguments pairwise, with
    ``structurally_equal``'s strictness: ``==`` equates 1 with True,
    whose outputs can differ."""
    return len(held) == len(run) and all(
        a is b or structurally_equal(a.args, b.args) for a, b in zip(held, run)
    )


def acceptable_nts(
    contexts: Sequence[Context], dsl: Dsl, options
) -> Dict[int, frozenset]:
    """Per context (by position), the nonterminal tags it accepts."""
    table: Dict[int, frozenset] = {}
    for i, ctx in enumerate(contexts):
        if ctx.hole_nt in dsl.nonterminals:
            table[i] = frozenset(dsl.expansion(ctx.hole_nt))
        else:
            table[i] = frozenset((ctx.hole_nt,))
    return table


class SynthesisSession:
    """Pool, tester, budget, metrics, and tracer for a DBS run — with
    the pool (and enumerator) persisting across runs."""

    def __init__(
        self,
        dsl: Dsl,
        signature: Signature,
        *,
        lasy_fns: Optional[Mapping[str, Any]] = None,
        lasy_signatures: Optional[Mapping[str, Signature]] = None,
        registry: Optional[StrategyRegistry] = None,
    ):
        self.dsl = dsl
        self.signature = signature
        # Shared with (and mutated by) the LaSy runner; the store's
        # refresh_lasy reconciles cached vectors against it per run.
        self.lasy_fns = lasy_fns if lasy_fns is not None else {}
        self.lasy_signatures = dict(lasy_signatures or {})
        self.registry = registry or default_registry()

        self.pool: Optional[PoolStore] = None
        self.enumerator: Optional[Enumerator] = None
        self.runs = 0
        # Lifetime pool.entries_* totals across runs (benchmarks and the
        # differential tests read these; per-run values live on each
        # run's metrics registry).
        self.reuse_totals: Dict[str, int] = {k: 0 for k in REUSE_KEYS}

        # Per-run state, populated by begin_run.
        self.contexts: List[Context] = []
        self.examples: List[Example] = []
        self.budget = None
        self.options = None
        self.stats = None
        self.tracer = None
        self.tester: Optional[Tester] = None
        self.store: Optional[ConditionalStore] = None
        self.guard_nts: frozenset = frozenset()
        self.acceptable: Dict[int, frozenset] = {}
        self.root_nt: Optional[str] = None
        # The pool whose value vectors test_batch reads verdicts from,
        # None when its examples are not the tester's.
        self.vectors: Optional[PoolStore] = None
        # Recursive candidates' verdicts across runs, None while the
        # session can call a LaSy function (whose binding may change
        # between runs) and while it is suspended or pickled.
        self.verdicts: Optional[SessionVerdicts] = None
        self.all_set: frozenset = frozenset()
        self.max_branches = 1
        self.previous_program: Optional[Expr] = None
        self.last_store_size = (-1, -1)
        # A prefix permutation discovered by _extension_suffix, applied
        # by _extend_warm after the pool is re-bound (so the reorder's
        # dedup counters land on the current run's registry).
        self._pending_reorder: Optional[List[int]] = None

    # -- identity / lifecycle ------------------------------------------

    def suspend(self) -> None:
        """Detach the session from its run so it can sit in a cache:
        per-run references (budget, registry-backed stats, tracer,
        tester, conditional store) are released — a warm
        cached session must not pin a finished request's objects. The
        warm state (pool entries, enumerator generation, grids) is kept;
        the next :meth:`begin_run` reattaches everything."""
        self.budget = None
        self.stats = None
        self.tracer = None
        self.tester = None
        self.store = None
        self.vectors = None
        self.verdicts = None
        self.contexts = []
        self.acceptable = {}
        self.previous_program = None
        self._pending_reorder = None
        if self.pool is not None:
            self.pool.previous_program = None
            self.pool.guard_sets = []
            self.pool.suspend()

    def __getstate__(self):
        # Suspend-equivalent for transport: per-run references are not
        # picklable (tracers hold files, budgets hold monotonic
        # deadlines) and must not travel; the pool and enumerator have
        # their own __getstate__ that preserves the warm search state.
        state = self.__dict__.copy()
        for name in ("budget", "stats", "tracer", "tester", "store", "vectors"):
            state[name] = None
        del state["verdicts"]
        state["contexts"] = []
        state["acceptable"] = {}
        state["previous_program"] = None
        state["_pending_reorder"] = None
        return state

    def __setstate__(self, state) -> None:
        self.__dict__.update(state)
        self.verdicts = None
        if self.pool is not None:
            # The pool re-binds to private counters on unpickle; keep
            # the shared-mapping invariant (session and pool must see
            # the same lasy_fns object).
            self.pool.lasy_fns = self.lasy_fns

    # -- run lifecycle -------------------------------------------------

    def begin_run(
        self,
        *,
        contexts: Sequence[Context],
        examples: Sequence[Example],
        seeds: Sequence[Expr],
        budget,
        options,
        stats,
        tracer,
        previous_program: Optional[Expr] = None,
        max_branches: int = 1,
    ) -> "SynthesisSession":
        self.contexts = list(contexts)
        self.examples = [_frozen_args(example) for example in examples]
        self.budget = budget
        self.options = options
        self.stats = stats
        self.tracer = tracer
        self.previous_program = previous_program
        self.max_branches = max_branches
        self.last_store_size = (-1, -1)
        self._pending_reorder = None

        pool_options = PoolOptions(
            use_dsl=options.use_dsl,
            semantic_dedup=options.semantic_dedup,
        )
        pool = self.pool
        if pool is not None and not pool.compatible_options(pool_options):
            pool = self.pool = None
        suffix = self._extension_suffix(pool) if pool is not None else None
        if pool is None or suffix is None:
            self._build_cold(seeds, pool_options)
        else:
            try:
                self._extend_warm(suffix, seeds)
            except BudgetExhausted:
                # A deadline that fires mid-extension leaves the store
                # half-widened; drop it so the next run rebuilds cold
                # instead of reusing inconsistent vectors.
                self.pool = None
                self.enumerator = None
                raise
        pool = self.pool
        assert pool is not None
        pool.previous_program = previous_program
        pool.guard_sets = []
        self.vectors = pool if _same_inputs(pool.examples, self.examples) else None

        self.store = ConditionalStore(len(self.examples))
        self.guard_nts = guard_nts(self.dsl)
        self.all_set = frozenset(range(len(self.examples)))
        self.acceptable = acceptable_nts(self.contexts, self.dsl, options)
        self.root_nt = next(
            (ctx.hole_nt for ctx in self.contexts if ctx.is_trivial),
            self.dsl.start,
        )
        name = self.signature.name
        if any(other != name for other in self.lasy_signatures):
            self.verdicts = None
        elif self.verdicts is None:
            self.verdicts = SessionVerdicts()
        self.tester = Tester(
            self.signature,
            self.examples,
            self.lasy_fns,
            stats,
            budget,
            previous_program=previous_program,
            verdicts=self.verdicts,
        )
        self.runs += 1
        return self

    def _extension_suffix(self, pool: PoolStore) -> Optional[List[Example]]:
        """The examples to append, or None when the run's example list is
        not an extension of the store's (the store only ever widens).

        A run whose prefix is a *permutation* of the held examples still
        extends the store: the pool's state is per-example columns over
        an example multiset (see ``PoolStore.reorder_examples``), so the
        held columns are reordered to the run's order instead of
        rebuilding cold. The reorder itself is deferred until
        ``_extend_warm`` has re-bound the pool to this run's registry.
        """
        held = pool.examples
        if len(self.examples) < len(held):
            return None
        prefix = self.examples[: len(held)]
        if not all(map(_same_example, prefix, held)):
            perm = _prefix_permutation(held, prefix)
            if perm is None:
                return None
            self._pending_reorder = perm
        return self.examples[len(held):]

    def _build_cold(self, seeds: Sequence[Expr], pool_options) -> None:
        with self.tracer.span(
            "dbs.enumerate", generation=0, production="<atoms>"
        ) as span:
            self.pool = PoolStore(
                self.dsl,
                self.signature,
                self.examples,
                lasy_fns=self.lasy_fns,
                lasy_signatures=self.lasy_signatures,
                options=pool_options,
                budget=self.budget,
                metrics=self.stats.registry,
            )
            self.enumerator = Enumerator(self.pool)
            self.enumerator.seed(seeds)
            span.set(
                offered=self.budget.expressions, added=self.pool.total()
            )

    def _extend_warm(self, suffix: Sequence[Example], seeds) -> None:
        pool = self.pool
        pool.bind(self.stats.registry, self.budget)
        reordered = 0
        if self._pending_reorder is not None:
            pool.reorder_examples(self._pending_reorder)
            reordered = len(self._pending_reorder)
            self._pending_reorder = None
        with self.tracer.span(
            "pool.extend",
            examples=len(self.examples),
            appended=len(suffix),
            reordered=reordered,
            entries=pool.total(),
        ) as span:
            refreshed = pool.refresh_lasy()
            report = pool.extend_examples(suffix, seeds=seeds)
            offered_before = self.budget.expressions
            # Re-seed: constants derived from the appended examples and
            # P_i's subexpressions enter at the current generation, so
            # the next advance composes over them (Algorithm 1: "the
            # effort to build it in previous iterations is not wasted").
            # The nested span keeps the report invariant that every
            # budget expression charge falls inside a dbs.enumerate (or
            # dbs.strategies) span.
            with self.tracer.span(
                "dbs.enumerate",
                generation=pool.generation,
                production="<atoms>",
            ) as seed_span:
                self.enumerator.seed(seeds)
                seed_span.set(
                    offered=self.budget.expressions - offered_before,
                    added=pool.total(),
                )
            span.set(
                seeded=self.budget.expressions - offered_before,
                refreshed=refreshed,
                **report,
            )
        report["refreshed"] = refreshed
        for key in REUSE_KEYS:
            self.reuse_totals[key] += report.get(key, 0)

    # -- candidate testing ---------------------------------------------

    def test_batch(self, exprs, span=None) -> Optional[Expr]:
        """Plug each expression into each compatible context; return a
        program satisfying every example, else record T(p)/B(g) and None.

        An expression the pool holds a current value vector for
        (:meth:`PoolStore.vector_of`) has its guard sets, and its T(p)
        in the trivial context, read from that vector instead of run;
        in any other context the plugged program is run.

        ``exprs`` may be any iterable (including a lazy pool view); the
        batch size is attached to ``span`` as it becomes known.
        """
        options = self.options
        tester = self.tester
        store = self.store
        contexts = self.contexts
        trivial = [ctx.is_trivial for ctx in contexts]
        acceptable = self.acceptable
        use_dsl = options.use_dsl
        guards = self.guard_nts
        budget = self.budget
        vector_of = self.vectors.vector_of if self.vectors is not None else None
        count = 0
        try:
            for expr in exprs:
                count += 1
                if not count & 63:
                    # Guard-only stretches of a batch never charge the
                    # budget; this periodic check bounds the hard
                    # deadline's overshoot to 64 guard evaluations.
                    budget.check_deadline()
                expr_free = free_vars(expr)
                values = vector_of(expr) if vector_of is not None else None
                is_guard = (
                    expr.nt in guards if use_dsl else expr.nt == "τ:bool"
                )
                if is_guard and not expr_free:
                    true_set, errors = tester.guard_sets(expr, values)
                    store.record_guard(expr, true_set, errors)
                    tester._guard_records.value += 1
                for i, ctx in enumerate(contexts):
                    if use_dsl:
                        if expr.nt not in acceptable[i]:
                            continue
                    else:
                        expr_type = hole_type(self.dsl, expr)
                        if expr_type is None or not types_compatible(
                            ctx.hole_type, expr_type
                        ):
                            continue
                    program = ctx.plug(expr)
                    if free_vars(program):
                        continue
                    passed = tester.passed_set(
                        program, values if trivial[i] else None
                    )
                    if len(passed) == len(tester.examples) and tester.examples:
                        return program
                    store.record_program(program, passed)
                    tester._program_records.value += 1
                    angelic = tester.angelic_passed_set(program)
                    if angelic and angelic != passed:
                        store.record_program(program, angelic)
        finally:
            if span is not None:
                span.set(batch=count)
        return None
