"""Grammar-driven expression generation (§5.1, generation layer).

Each :meth:`Enumerator.advance` runs one iteration of Algorithm 2's
"generate new expressions" step over a :class:`~.pool.PoolStore` the
enumerator does *not* own: every production is instantiated with every
valid combination of stored expressions *in which at least one argument
is from the newest generation*, so all smaller expressions are produced
before larger ones and no combination is rebuilt.

Because freshness is a generation tag on the entries, the enumerator is
naturally incremental: atoms or seeds admitted into a persistent store
between runs (new constants from an appended example, subexpressions of
the current ``P_i``, revived shadow entries) carry the current
generation and become the fresh set of the next advance, so enumeration
continues where the previous run stopped instead of starting over.

When ``use_dsl`` is off (the "no DSL" ablation of §6.3, and the
sketch-like baseline) the grammar is ignored and argument slots accept
any expression of a compatible *type*, exactly the weaker search the
paper compares against.

**Batched expansion.** For an eager call production every child entry
already carries its cached value vector, so the candidate's vector is
obtained by one column-wise application of the component
(:func:`repro.core.compile.compile_batch`) — no ``Expr`` is allocated,
hashed, canonicalized, or walked first. Observational duplicates are
rejected on the interned signature of that vector alone; the expression
is materialized lazily from the ``(production, child-entries)`` tuple
only for survivors (and for semantic losers that still fit the revival
shadow list, which must be hash-consed exactly as the per-candidate
pipeline leaves them). A call whose root no rewrite rule can match
needs no rewriter: it is canonical as built, or, over constant
children, folds to the constant its vector holds. Productions the batch
compiler cannot handle — lazy components, lambda-taking slots,
recursion, unbound LaSy callees — take the per-candidate pipeline
(build, then :meth:`PoolStore.offer`). That pipeline is also the
reference: ``tests/test_enum_batched.py`` forces it onto every
production and holds both to the same pools and programs.

A combination with a free-variable child (a body for ``Loop(λw: e)``
or ``SplitAndMerge(λpiece: e)``) has no value vector, but it is
values-first too when its root function is one no rewrite rule can
match: the pool signs it on its sampled grid, computed by one
component application over the children's memoized grid columns, and
builds only the survivors (:meth:`PoolStore.offer_combo`). Such combos
with a rewrite-rooted or LaSy root, a recursive child, an exempt
variable set or a broken grid projection are built and offered
(``tests/test_pool_sampled_batched.py`` holds the two to the same
pools).
"""

from __future__ import annotations

import itertools
from time import perf_counter
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from ...obs.profile import get_progress
from ...obs.trace import get_tracer
from ..compile import compile_batch, compile_lasy_batch
from ..dsl import LambdaSpec, NtRef, Production
from ..evaluator import check_value_size
from ..expr import Call, Const, Expr, Lambda, LasyCall, Param, Recurse, Var, free_vars
from ..rewrite import fold_value
from ..types import types_compatible
from ..values import ERROR, freeze
from .pool import (
    _MAX_EXPR_SIZE,
    PoolEntry,
    PoolStore,
    _value_type,
    split_generations,
)

_NO_VARS: frozenset = frozenset()


def _production_label(prod: Production) -> str:
    """Stable human-readable production tag for spans and reports."""
    if prod.kind == "lasy_fn":
        return f"{prod.nt}<-_LASY_FN"
    if prod.kind == "recurse":
        return f"{prod.nt}<-_RECURSE"
    name = prod.func.name if prod.func is not None else prod.kind
    return f"{prod.nt}<-{name}"


def lambda_nt(spec: LambdaSpec) -> str:
    """The synthetic nonterminal tag for inline lambda arguments."""
    vars_part = ",".join(spec.var_names)
    return f"lambda({vars_part}:{spec.body_nt})"


def _generation_productions(dsl) -> List[Production]:
    """The productions a generation expands, in grammar order, before
    :meth:`Enumerator.advance_batches` sorts them by cost: LaSy-call
    productions and call/recursion productions that take arguments
    (atoms are seeded, not generated)."""
    return [
        prod
        for prod in dsl.productions
        if (
            prod.kind == "lasy_fn"
            or (prod.kind in ("call", "recurse") and prod.args)
        )
    ]


class Enumerator:
    """Generates expression generations into a borrowed store."""

    def __init__(self, store: PoolStore):
        self.store = store
        # Argument-slot generation splits, valid for one advance only
        # (see _split_candidates).
        self._slot_cache: Dict[Any, Tuple] = {}

    def __getstate__(self):
        # The slot cache is valid for one advance only and holds raw
        # entry-list aliases; never ship it.
        state = self.__dict__.copy()
        state["_slot_cache"] = {}
        return state

    # -- seeding -------------------------------------------------------

    def seed(self, seeds: Iterable[Expr] = ()) -> None:
        """Offer the atoms (params, constants, nullary calls, lambda
        variables) and the caller's seed expressions.

        Idempotent over a persistent store — duplicates fall to the
        syntactic seen-set — which is exactly what a warm run needs:
        constants derived from newly appended examples and the current
        ``P_i``'s subexpressions enter at the store's current generation.
        """
        store = self.store
        if store.options.use_dsl:
            for prod in store.dsl.productions:
                if prod.kind == "param":
                    self._add_params(prod.nt)
                elif prod.kind == "constant":
                    self._add_constants(prod.nt)
                elif prod.kind == "var":
                    self._add_var(prod.nt, prod.var_name or "")
                elif prod.kind == "call" and prod.func and not prod.args:
                    store.offer(Call(prod.func, (), prod.nt))
        else:
            self._seed_atoms_untyped()
        for seed in seeds:
            store.offer(seed)

    def _seed_atoms_untyped(self) -> None:
        """Type-only atoms for the no-DSL mode: every param, every
        constant, every lambda variable, tagged with pseudo-nonterminals."""
        store = self.store
        for name, ty in store.signature.params:
            store.offer(Param(name, ty, store._type_nt(ty)))
        for value in store.all_constants():
            ty = _value_type(value, store.dsl)
            store.offer(Const(value, ty, store._type_nt(ty)))
        for vname, vty in store.dsl.lambda_vars.items():
            store.offer(Var(vname, vty, store._type_nt(vty)))
        for prod in store.dsl.productions:
            if prod.kind == "call" and prod.func and not prod.args:
                func = prod.func
                store.offer(Call(func, (), store._type_nt(func.return_type)))

    def _add_params(self, nt: str) -> None:
        store = self.store
        nt_type = store.dsl.type_of(nt)
        for name, ty in store.signature.params:
            if types_compatible(nt_type, ty):
                store.offer(Param(name, ty, nt))

    def _add_constants(self, nt: str) -> None:
        store = self.store
        nt_type = store.dsl.type_of(nt)
        for value in store.constants_for(nt):
            store.offer(Const(value, nt_type, nt))

    def _add_var(self, nt: str, var_name: str) -> None:
        store = self.store
        vty = store.dsl.lambda_vars.get(var_name)
        if vty is None:
            return
        store.offer(Var(var_name, vty, nt))

    # -- generation ----------------------------------------------------

    def advance(self) -> List[Expr]:
        """Run one generation of expression composition; returns the new
        (deduplicated) expressions added this generation.

        On budget exhaustion the partial generation is returned (and the
        store's ``exhausted`` flag set) so DBS can still test what was
        built before reporting TIMEOUT."""
        added: List[Expr] = []
        for batch in self.advance_batches():
            added.extend(batch)
        return added

    def advance_batches(self) -> Iterable[List[Expr]]:
        """Like :func:`advance` but yields per-production batches, so the
        caller can test candidates as soon as their production finishes
        rather than after the whole (possibly enormous) generation."""
        from ..budget import BudgetExhausted

        store = self.store
        store.generation += 1
        # Until the generator runs to completion, the generation is
        # incomplete (budget death, or the caller stopped consuming on a
        # solve); a warm run redoes it — see PoolStore.bind.
        store.incomplete_generation = True
        # Whether this generation is the redo of one interrupted in a
        # previous run (PoolStore.bind armed the flag when stepping the
        # generation counter back). Published on completion so DBS's
        # dry-generation check knows a zero-add redo is inconclusive.
        redone = store.pending_redo
        store.pending_redo = False
        store.last_generation_redone = False
        if store.budget.exhausted():
            store.exhausted = True
            return
        store.exhausted = False
        tracer = get_tracer()
        self._slot_cache.clear()
        store.clear_partitions()
        try:
            if store.options.use_dsl:
                # Cheapest productions first: a huge production must not
                # starve the small ones (and the solution is more often
                # within reach of a small production's fresh combos).
                ordered = sorted(
                    _generation_productions(store.dsl),
                    key=self._production_cost,
                )
                prog = get_progress()
                for prod in ordered:
                    use_batched = self._batchable(prod)
                    if tracer.enabled:
                        batch = self._expand_traced(prod, tracer, use_batched)
                    else:
                        batch = self._expand(prod, use_batched)
                    if prog is not None and prog.due():
                        prog.tick(
                            generation=store.generation,
                            pool_size=store.total(),
                            candidates=store.budget.expressions,
                            deadline_s=store.budget.time_remaining(),
                        )
                    if batch:
                        yield batch
            else:
                batch = self._expand_untyped()
                if batch:
                    yield batch
        except BudgetExhausted:
            store.exhausted = True
            return
        store.incomplete_generation = False
        store.last_generation_redone = redone

    def _batchable(self, prod: Production) -> bool:
        """Whether a production can take the batched value-vector path:
        an eager call (or LaSy call) over plain nonterminal slots.
        Lambda-taking slots need an Env, recursion carries no vectors,
        and with no examples there is nothing to batch over."""
        if not self.store.examples:
            return False
        if prod.kind == "lasy_fn":
            return True  # unbound callees fall back per name
        return (
            prod.kind == "call"
            and prod.func is not None
            and not prod.func.lazy
            and not any(isinstance(a, LambdaSpec) for a in prod.args)
        )

    def _expand(self, prod: Production, batched: bool = False) -> List[Expr]:
        if prod.kind == "lasy_fn":
            return self._expand_lasy(prod, batched)
        if batched:
            return self._expand_batched(prod)
        return self._expand_production(prod)

    def _expand_traced(
        self, prod: Production, tracer, batched: bool = False
    ) -> List[Expr]:
        """One production under a ``dbs.enumerate`` (per-candidate) or
        ``dbs.enum.batched`` span — distinct names so trace reports
        split the two paths' time. The ``offered`` count is attached
        even when the budget dies mid-expansion, so the report's
        expression attribution stays complete.

        When the run records detailed metrics (tracing on), the same
        deltas also land in ``prof.production.*`` labeled instruments —
        counter snapshots around the expansion, so the inner loops stay
        untouched — which merge across worker shards and feed the
        ``report-trace --hotspots`` production table."""
        store = self.store
        label = _production_label(prod)
        detailed = store._detailed
        with tracer.span(
            "dbs.enum.batched" if batched else "dbs.enumerate",
            generation=store.generation,
            production=label,
        ) as span:
            before = store.budget.expressions
            if detailed:
                added_before = store._c_added.value
                sem_before = store._c_semantic.value
                t0 = perf_counter()
            batch: List[Expr] = []
            try:
                batch = self._expand(prod, batched)
            finally:
                offered = store.budget.expressions - before
                span.set(offered=offered, added=len(batch))
                if detailed:
                    metrics = store.metrics
                    metrics.histogram("prof.production.seconds").observe(
                        perf_counter() - t0, production=label
                    )
                    if offered:
                        metrics.counter("prof.production.offered").inc(
                            offered, production=label
                        )
                    admitted = store._c_added.value - added_before
                    if admitted:
                        metrics.counter("prof.production.admitted").inc(
                            admitted, production=label
                        )
                    sig_rejected = store._c_semantic.value - sem_before
                    if sig_rejected:
                        metrics.counter("prof.production.sig_rejected").inc(
                            sig_rejected, production=label
                        )
            return batch

    def _production_cost(self, prod: Production) -> int:
        """Estimated combination count for this production this
        generation (product of slot pool sizes)."""
        store = self.store
        cost = 1
        for arg in prod.args:
            if isinstance(arg, NtRef):
                size = sum(
                    len(store._entries.get(name, ()))
                    for name in store.dsl.expansion(arg.nt)
                )
            elif isinstance(arg, LambdaSpec):
                size = len(store._entries.get(arg.body_nt, ()))
            else:
                size = 1
            cost *= max(size, 1)
            if cost > 10**12:
                break
        return cost

    def _expand_production(self, prod: Production) -> List[Expr]:
        store = self.store
        split_slots = [self._split_candidates(arg) for arg in prod.args]
        if any(not slot[2] for slot in split_slots):
            return []
        added: List[Expr] = []
        fast_path = (
            prod.kind == "call"
            and prod.func is not None
            and not prod.func.lazy
            and not any(isinstance(a, LambdaSpec) for a in prod.args)
        )
        for combo in self._split_combinations(split_slots):
            if prod.kind == "call":
                assert prod.func is not None
                expr: Optional[Expr] = Call(
                    prod.func, tuple(e.expr for e in combo), prod.nt
                )
                values = (
                    self._apply_values(prod.func, combo) if fast_path else None
                )
            else:  # recurse
                expr = self._build_recurse(prod, combo)
                values = None
            if expr is None:
                continue
            result = store.offer(expr, values)
            if result is not None:
                added.append(result)
        return added

    def _expand_batched(self, prod: Production) -> List[Expr]:
        """Batched expansion of one eager call production (see
        :meth:`_batched_combos` for the loop itself)."""
        store = self.store
        func = prod.func
        assert func is not None
        batch_fn = compile_batch(func)
        if batch_fn is None:  # lazy component: vectors can't feed thunks
            return self._expand_production(prod)
        split_slots = [self._split_candidates(arg) for arg in prod.args]
        if any(not slot[2] for slot in split_slots):
            return []
        nt = prod.nt

        def make_expr(children: Tuple[Expr, ...]) -> Expr:
            return Call(func, children, nt)

        fixed = func if store.rewriter.fixed_root(func) else None
        return self._batched_combos(nt, split_slots, batch_fn, make_expr, fixed)

    def _batched_combos(
        self,
        nt: str,
        split_slots: List[Tuple],
        batch_fn,
        make_expr,
        fixed_func=None,
    ) -> List[Expr]:
        """The batched inner loop: per fresh combination, compute the
        candidate's value vector straight from the cached child vectors
        with one vectorized ``batch_fn`` call and dedup on the interned
        signature; only survivors (and semantic losers that fit their
        shadow bucket) are materialized as expressions via
        ``make_expr``. Candidate accounting (budget charge,
        offered/rejected/semantic counters, admission filter) mirrors
        the per-candidate :meth:`PoolStore.offer` pipeline step for
        step, so the two paths exhaust budgets at the same points and
        leave identical pools.

        When the root is ``fixed_func`` (a call no rewrite rule can
        match), the candidate's canonical form needs no rewriter: it is
        the call itself, or, when every child is a constant, the
        constant the call folds to, read from its value vector
        (:func:`~repro.core.rewrite.fold_value`). Its syntactic key is
        then known before anything is built, so a semantic loser is
        keyed without being built, and built only when its shadow
        bucket stores it (:meth:`PoolStore.shadow_batched`).

        A combination with a free-variable child has no value vector.
        Without a recursive child it is gated on its summed child sizes
        and free variables before anything is built. When the root is
        ``fixed_func`` it is then values-first too:
        :meth:`PoolStore.offer_combo` signs it on the sampled grid
        computed from its children's memoized grid columns and builds
        only survivors. Any other free-variable combination (a
        rewrite-rooted or LaSy root, a recursive child, an exempt
        variable set, a broken grid projection, no semantic dedup) is
        built and offered."""
        store = self.store
        examples = store.examples
        n_examples = len(examples)
        budget = store.budget
        dedup = store.options.semantic_dedup
        sign_combos = dedup and fixed_func is not None
        predicate = store.dsl.admission_filters.get(nt)
        max_size = _MAX_EXPR_SIZE
        seen = store._seen_semantic.setdefault(nt, set()) if dedup else ()
        detailed = store._detailed
        c_offered = store._c_offered
        c_batched = store._c_batched
        c_materialized = store._c_materialized
        c_applies = store._c_applies
        c_rejected = store._c_rejected
        c_semantic = store._c_semantic
        # Heartbeats from the hottest loop in the engine: the common
        # prog-is-None case costs one comparison every combo, the
        # installed case one extra clock read every 2048 combos.
        prog = get_progress()
        combo_n = 0
        added: List[Expr] = []
        for combo in self._split_combinations(split_slots):
            if prog is not None:
                combo_n += 1
                if not combo_n & 2047 and prog.due():
                    prog.tick(
                        generation=store.generation,
                        pool_size=store.total(),
                        candidates=budget.expressions,
                        deadline_s=budget.time_remaining(),
                    )
            for entry in combo:
                if entry.values is None:
                    # A child without a cached vector (free lambda
                    # variables in a subtree): the candidate is not
                    # closed, so offer()'s pipeline applies, with its
                    # sampled fingerprint taken from the memoized grids.
                    size = 1
                    var_set = _NO_VARS
                    recurses = False
                    for part in combo:
                        child = part.expr
                        size += child.size
                        child_vars = child.free_var_set
                        if child_vars:
                            var_set = var_set | child_vars if var_set else child_vars
                        if child.has_recurse:
                            recurses = True
                    if not recurses:
                        reason = store.gate(nt, size, bool(var_set))
                        if reason is not None:
                            store.refuse(nt, reason)
                            break
                    children = tuple(e.expr for e in combo)
                    if sign_combos and var_set and not recurses:
                        grid = store.combo_grid(children, var_set)
                        if grid is not None:
                            result = store.offer_combo(
                                nt, fixed_func, children, batch_fn, grid
                            )
                            if result is not None:
                                added.append(result)
                            break
                    expr = make_expr(children)
                    c_materialized.value += 1
                    result = store.offer(expr)
                    if result is not None:
                        added.append(result)
                    break
            else:
                budget.charge_expression()
                c_offered.value += 1
                size = 1
                for entry in combo:
                    size += entry.expr.size
                if size > max_size:
                    c_rejected.value += 1
                    if detailed:
                        c_rejected.label(reason="size", nt=nt)
                    continue
                values = batch_fn(*[e.values for e in combo])
                c_batched.value += 1
                c_applies.value += n_examples
                if predicate is not None and not predicate(values, examples):
                    c_rejected.value += 1
                    if detailed:
                        c_rejected.label(reason="filter", nt=nt)
                    continue
                sig = sig_cols = None
                loser = False
                if dedup:
                    sig, sig_cols = store.vector_sig(nt, values)
                    if sig is not None and sig in seen:
                        loser = True
                        c_semantic.value += 1
                        if detailed:
                            c_semantic.label(nt=nt)
                children = tuple(e.expr for e in combo)
                if fixed_func is None:
                    expr = make_expr(children)
                    c_materialized.value += 1
                    if loser:
                        store.shadow_batched(expr, values, sig, sig_cols)
                        continue
                    result = store.admit_batched(expr, values, sig, sig_cols)
                else:
                    # A fixed root is canonical as built, unless all its
                    # children are constants and it folds; the fold is
                    # read from the vector, which is constant then.
                    folded = None
                    for child in children:
                        if type(child) is not Const:
                            break
                    else:
                        folded = fold_value(fixed_func, values, nt)
                    if folded is not None:
                        store.count_rewrite(nt)
                        c_materialized.value += 1
                        key = (nt, folded)
                    else:
                        key = (nt, fixed_func, children)
                    if loser:
                        store.shadow_batched(folded, values, sig, sig_cols, key)
                        continue
                    expr = folded
                    if expr is None:
                        expr = Call(fixed_func, children, nt)
                        c_materialized.value += 1
                    result = store.admit_batched(
                        expr, values, sig, sig_cols, key
                    )
                if result is not None:
                    added.append(result)
        return added

    def _apply_values(
        self, func, combo: Sequence[PoolEntry]
    ) -> Optional[Tuple[Any, ...]]:
        """Value vector of ``func`` applied to cached child vectors, or
        None when some child has no cached vector."""
        store = self.store
        child_vectors = []
        for entry in combo:
            if entry.values is None:
                return None
            child_vectors.append(entry.values)
        out: List[Any] = []
        store._c_applies.value += len(store.examples)
        for i in range(len(store.examples)):
            args = [vec[i] for vec in child_vectors]
            if any(a is ERROR for a in args):
                out.append(ERROR)
                continue
            try:
                out.append(check_value_size(freeze(func.fn(*args))))
            except Exception:
                out.append(ERROR)
        return tuple(out)

    def _build_recurse(
        self, prod: Production, combo: Sequence[PoolEntry]
    ) -> Optional[Expr]:
        store = self.store
        expected = store.signature.param_types
        arg_types = tuple(
            store.dsl.type_of(a.nt) for a in prod.args if isinstance(a, NtRef)
        )
        if len(arg_types) != len(expected) or not all(
            types_compatible(e, a) for e, a in zip(expected, arg_types)
        ):
            return None
        return Recurse(tuple(e.expr for e in combo), prod.nt)

    def _expand_untyped(self) -> List[Expr]:
        store = self.store
        newest = store.generation - 1
        added: List[Expr] = []
        for func in store.dsl.functions():
            split_slots = []
            for pty in func.param_types:
                if pty.is_function:
                    candidates = self._lambda_candidates(pty)
                else:
                    candidates = [
                        entry
                        for t, entries in store._by_type.items()
                        if types_compatible(pty, t)
                        for entry in entries
                    ]
                split_slots.append(split_generations(candidates, newest))
            fast_path = not func.lazy and not any(
                pty.is_function for pty in func.param_types
            )
            nt = store._type_nt(func.return_type)
            for combo in self._split_combinations(split_slots):
                expr = Call(func, tuple(e.expr for e in combo), nt)
                values = self._apply_values(func, combo) if fast_path else None
                result = store.offer(expr, values)
                if result is not None:
                    added.append(result)
        return added

    def _lambda_candidates(self, fun_type) -> List[PoolEntry]:
        """In no-DSL mode, wrap pooled bodies in lambdas matching a
        function-typed parameter, using the grammar's lambda variables."""
        store = self.store
        out: List[PoolEntry] = []
        for spec in store._lambda_specs:
            body_ty = store.dsl.type_of(spec.body_nt)
            from ..types import fun_n

            if fun_n(spec.var_types, body_ty) != fun_type:
                continue
            params = tuple(
                Var(n, t, store._type_nt(t))
                for n, t in zip(spec.var_names, spec.var_types)
            )
            for entry in store._by_type.get(body_ty, []):
                lam = Lambda(params, entry.expr, lambda_nt(spec))
                out.append(PoolEntry(lam, entry.generation))
        return out

    def _split_candidates(
        self, arg: Any
    ) -> Tuple[List[PoolEntry], List[PoolEntry], List[PoolEntry]]:
        """One argument slot's candidates split by generation against
        the newest complete generation: ``(older, fresh, upto)``, each
        preserving the pool's entry order. Computed once per slot per
        advance (entries admitted *during* the advance carry the
        in-progress generation and are excluded by every split, so the
        cache stays valid while the generation grows) — this is what
        stops the enumerator from rescanning and re-filtering the whole
        pool once per production per argument position."""
        if isinstance(arg, NtRef):
            cache_key: Any = ("nt", arg.nt)
        elif isinstance(arg, LambdaSpec):
            # LambdaSpecs live in the DSL for the whole run, so identity
            # is a stable key for a per-advance cache.
            cache_key = ("lambda", id(arg))
        else:
            raise TypeError(f"unknown arg spec {arg!r}")
        cached = self._slot_cache.get(cache_key)
        if cached is not None:
            return cached
        store = self.store
        newest = store.generation - 1
        if isinstance(arg, NtRef):
            names = store.dsl.expansion(arg.nt)
            if len(names) == 1:
                split = store.partition(names[0], newest)
            else:
                older: List[PoolEntry] = []
                fresh: List[PoolEntry] = []
                upto: List[PoolEntry] = []
                for name in names:
                    part = store.partition(name, newest)
                    older.extend(part[0])
                    fresh.extend(part[1])
                    upto.extend(part[2])
                split = (older, fresh, upto)
        else:
            params = tuple(
                Var(n, t, store._type_nt(t))
                for n, t in zip(arg.var_names, arg.var_types)
            )
            nt = lambda_nt(arg)
            bodies = [
                entry
                for body_nt in store.dsl.expansion(arg.body_nt)
                for entry in store._entries.get(body_nt, [])
                if entry.generation <= newest
            ]
            if arg.require_var_use:
                var_names = set(arg.var_names)
                bodies = [e for e in bodies if free_vars(e.expr) & var_names]
            split = split_generations(
                [
                    PoolEntry(Lambda(params, e.expr, nt), e.generation)
                    for e in bodies
                ],
                newest,
            )
        self._slot_cache[cache_key] = split
        return split

    def _split_combinations(
        self, split_slots: List[Tuple]
    ) -> Iterable[Tuple[PoolEntry, ...]]:
        """All slot combinations containing at least one expression from
        the newest complete generation, over precomputed generation
        splits: slot ``j`` carries the newest element, earlier slots are
        strictly older, later slots are anything up to newest, so no
        combination is produced twice. The order of the combinations
        decides which of two observationally equal candidates wins
        admission."""
        for j in range(len(split_slots)):
            fresh = split_slots[j][1]
            if not fresh:
                continue
            older = [slot[0] for slot in split_slots[:j]]
            upto = [slot[2] for slot in split_slots[j + 1:]]
            if any(not s for s in older) or any(not s for s in upto):
                continue
            yield from itertools.product(*older, fresh, *upto)

    def _expand_lasy(self, prod: Production, batched: bool = False) -> List[Expr]:
        store = self.store
        nt_type = store.dsl.type_of(prod.nt)
        arg_nts = [a.nt for a in prod.args if isinstance(a, NtRef)]
        split_slots = [
            self._split_candidates(NtRef(a_nt)) for a_nt in arg_nts
        ]
        if any(not slot[2] for slot in split_slots):
            return []
        added: List[Expr] = []
        for name, sig in store.lasy_signatures.items():
            if name == store.signature.name:
                continue  # self-calls are _RECURSE, not _LASY_FN
            if not types_compatible(nt_type, sig.return_type):
                continue
            if len(sig.params) != len(arg_nts):
                continue
            if not all(
                types_compatible(pty, store.dsl.type_of(a_nt))
                for (_, pty), a_nt in zip(sig.params, arg_nts)
            ):
                continue
            fn = store.lasy_fns.get(name)
            if batched and fn is not None:
                # The callee is bound, so its vector semantics match the
                # classic _apply_lasy_values column for column.
                lasy_nt = prod.nt

                def make_expr(
                    children: Tuple[Expr, ...], name=name, lasy_nt=lasy_nt
                ) -> Expr:
                    return LasyCall(name, children, lasy_nt)

                added.extend(
                    self._batched_combos(
                        lasy_nt,
                        split_slots,
                        compile_lasy_batch(fn),
                        make_expr,
                    )
                )
                continue
            for combo in self._split_combinations(split_slots):
                expr = LasyCall(name, tuple(e.expr for e in combo), prod.nt)
                values = None
                if fn is not None and all(
                    e.values is not None for e in combo
                ):
                    values = self._apply_lasy_values(fn, combo)
                result = store.offer(expr, values)
                if result is not None:
                    added.append(result)
        return added

    def _apply_lasy_values(
        self, fn, combo: Sequence[PoolEntry]
    ) -> Tuple[Any, ...]:
        store = self.store
        out: List[Any] = []
        store._c_applies.value += len(store.examples)
        for i in range(len(store.examples)):
            args = [e.values[i] for e in combo]  # type: ignore[index]
            if any(a is ERROR for a in args):
                out.append(ERROR)
                continue
            try:
                out.append(check_value_size(freeze(fn(*args))))
            except Exception:
                out.append(ERROR)
        return tuple(out)
