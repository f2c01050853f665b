"""The signature-indexed expression store (§5.1's pool, storage layer).

The store maintains, per grammar nonterminal, the set of semantically
distinct expressions generated so far. Two deduplication layers (the
paper's "Optimizations"):

* syntactic — expressions are canonicalized by the DSL's rewrite rules
  and constant folding, and duplicates discarded;
* semantic — an expression is fingerprinted by the vector of values it
  takes on the example inputs; only the first expression per fingerprint
  is kept. Expressions containing recursive self-calls are exempt (their
  value depends on the whole program). Expressions with free lambda
  variables — exempted outright by the paper — are fingerprinted under a
  few sampled variable bindings instead, a heuristic equivalence that
  keeps the pool tractable on a slow host evaluator (see DESIGN.md).

Every closed, non-recursive entry caches its *value vector* (its result
per example). New expressions are then evaluated in O(1) component
applications — one call per example on the cached child values — rather
than by re-interpreting the whole tree. Errors are values
(:data:`~repro.core.values.ERROR`) and propagate strictly.

**Incremental operation.** A store can outlive one DBS run and follow a
whole TDS example sequence (BUSTLE-style signature widening):

* :meth:`PoolStore.extend_examples` appends examples and lengthens every
  cached vector by evaluating *only the new columns*; widening never
  merges previously-distinct vectors (a prefix that differs stays
  different), so semantic dedup is re-checked structurally, not
  recomputed. Entries whose widened vector now fails a DSL admission
  filter are dropped (``pool.entries_invalidated``).
* Semantically rejected expressions are remembered in a capped *shadow*
  list: an expression that collided with an earlier one on the example
  prefix may diverge from it on a new example, and since it was already
  hash-consed into the syntactic seen-set it could never be regenerated.
  ``extend_examples`` widens the shadows too and *revives* the ones
  whose fingerprints no longer collide (``pool.entries_revived``).
* :meth:`PoolStore.refresh_lasy` re-evaluates cached vectors that
  mention LaSy functions whose definitions changed between runs (the
  LaSy runner mutates the shared mapping as other functions are
  re-synthesized).

Sampled fingerprints of free-variable expressions are computed over the
example list at admission time and cannot be widened column-wise; on
extension they are *recomputed* over the full widened list (the cost is
bounded by the per-nonterminal var caps), on the memoized grids that
admission signs them on, so the free-variable corner of the pool stays
exactly as deduplicated as a cold build would leave it.

The syntactic seen-set keys a call as ``(nt, function, args)``
(:func:`syntactic_key`), a key the batched enumerator can form before
the call exists. :meth:`PoolStore.offer_combo` uses it to sign a
free-variable call whose root no rewrite rule can match on its sampled
grid, record a semantic loser's key, and build only the survivors. A
closed call with such a root is keyed the same way by the batched
enumerator, which passes the key to :meth:`PoolStore.admit_batched` and
:meth:`PoolStore.shadow_batched` so the rewriter is never asked.

A closed entry's value vector also answers for its test verdicts:
:meth:`PoolStore.vector_of` hands the tester the vector of a
straight-line entry admitted in this process, whose cells are exactly
what running it on each example returns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

from ...obs.metrics import Registry
from ..budget import Budget
from ..compile import compile_batch
from ..dsl import Dsl, Example, LambdaSpec, Signature
from ..evaluator import (
    Env,
    EvaluationError,
    Fuel,
    expression_runner,
)
from ..expr import (
    Call,
    Const,
    Expr,
    Function,
    Lambda,
    LasyCall,
    Param,
    Recurse,
    Var,
    free_vars,
    is_recursive,
)
from ..rewrite import Rewriter
from ..types import Type
from ..values import ERROR, signature_key

# Fuel for one component evaluation during signature computation.
_SIGNATURE_FUEL = 30_000

# Expressions larger than this are never pooled; a safety valve against
# pathological growth (the paper's programs top out ~20 lines).
_MAX_EXPR_SIZE = 60

# Expressions with free lambda variables evade both the value-vector
# fast path and the admission filters, so their corner of the pool is
# additionally bounded: a size cap and a per-nonterminal count cap
# (generation order means the small, useful bodies arrive first).
_MAX_VAR_EXPR_SIZE = 16
_MAX_VAR_EXPRS_PER_NT = 1200

# Per-nonterminal cap on remembered semantic-dedup losers (revival
# candidates for incremental example extension).
_MAX_SHADOW_ENTRIES = 2048

# Sampled-environment grid memo bound (see PoolStore._grid_values);
# cleared wholesale on overflow, like the compile cache.
_GRID_CACHE_LIMIT = 200_000

@dataclass
class PoolEntry:
    expr: Expr
    generation: int
    # Cached result per example for closed, non-recursive expressions;
    # None when the expression's value depends on context (free lambda
    # variables, recursion, lambdas).
    values: Optional[Tuple[Any, ...]] = None
    # The *interned* semantic fingerprint (a small int id from the
    # store's signature table) the entry was admitted under; kept on the
    # entry so extend_examples can re-key the seen-sets after widening.
    sig: Optional[int] = None
    # The per-example key columns behind ``sig`` for vector-derived
    # fingerprints (the raw signature tuple is exactly ``sig_cols``).
    # Cached so widening extends the prefix by the appended columns
    # instead of re-adapting and re-freezing the whole vector. None for
    # sampled (free-variable) fingerprints, which cannot be widened.
    sig_cols: Optional[Tuple] = None
    # The store's example epoch ``values``/``sig`` are current for.
    # extend_examples bumps the store epoch and stamps every entry it
    # widens, so revival passes can tell an already-widened entry (e.g.
    # one shadowed earlier in the same pass) from a stale one instead of
    # recomputing — or worse, double-appending — its columns.
    epoch: int = 0


@dataclass
class PoolOptions:
    """Feature switches, used by the §6.3 ablation experiments."""

    use_dsl: bool = True
    semantic_dedup: bool = True


class PoolStore:
    """The candidate-expression store; may persist across DBS runs."""

    def __init__(
        self,
        dsl: Dsl,
        signature: Signature,
        examples: Sequence[Example],
        lasy_fns: Optional[Mapping[str, Any]] = None,
        lasy_signatures: Optional[Mapping[str, Signature]] = None,
        options: Optional[PoolOptions] = None,
        budget: Optional[Budget] = None,
        metrics: Optional[Registry] = None,
    ):
        self.dsl = dsl
        self.signature = signature
        self.examples = list(examples)
        self.options = options or PoolOptions()
        self.budget = budget or Budget()
        # Possibly shared and mutated by the LaSy runner between runs;
        # refresh_lasy() reconciles cached vectors against it.
        self.lasy_fns = lasy_fns if lasy_fns is not None else {}
        self.lasy_signatures = dict(lasy_signatures or {})
        self.rewriter = Rewriter(dsl)
        self.generation = 0
        self.exhausted = False
        # True while the newest generation's expansion has not run to
        # completion (budget death, or the caller abandoned the batch
        # generator after finding a program). A warm run must redo that
        # generation — syntactic dedup makes the redo idempotent.
        self.incomplete_generation = False
        # Redo bookkeeping for warm runs: ``pending_redo`` is armed by
        # :meth:`bind` when it steps an interrupted generation back, and
        # consumed by the enumerator, which publishes it as
        # ``last_generation_redone`` once the redo runs to completion.
        # DBS needs the distinction because a redone generation may
        # legitimately add nothing (every remaining combination deduped)
        # without the language being exhausted.
        self.pending_redo = False
        self.last_generation_redone = False
        # Published by DBS for composition strategies.
        self.previous_program: Optional[Expr] = None
        self.guard_sets: List[frozenset] = []

        self._entries: Dict[str, List[PoolEntry]] = {}
        self._by_type: Dict[Type, List[PoolEntry]] = {}
        self._seen_syntactic: set = set()
        # Per-nonterminal sets of *interned* signature ids (see
        # _intern_sig); membership hashes one int, not a tuple of frozen
        # example values.
        self._seen_semantic: Dict[str, set] = {}
        self._sig_intern: Dict[Tuple, int] = {}
        # (nonterminal, newest) -> (older, fresh, upto) entry lists; see
        # partition(). Cleared whenever entry lists are rebuilt and at
        # the start of every enumerator advance.
        self._partition_cache: Dict[Tuple[str, int], Tuple] = {}
        # Bumped by extend_examples; PoolEntry.epoch stamps match it.
        self.example_epoch = 0
        self._shadows: Dict[str, List[PoolEntry]] = {}
        self._var_counts: Dict[str, int] = {}
        self._constants = dict(dsl.constants_for(self.examples))
        self._lambda_specs = self._collect_lambda_specs()
        self._sample_cache: Dict[Type, List[Any]] = {}
        # Sampled-environment grids for the batched signature path
        # (see _grid_values): expression identity -> (expr, cells), and
        # (child identity, parent var set) -> (child, column) for the
        # child columns of _grid_columns. Cleared whenever the examples,
        # harvested samples, or LaSy bindings change. _proj_cache maps
        # (parent var names, child var names) to the binding-projection
        # index list; the binding lists themselves are memoized per
        # var-name tuple.
        self._grid_cache: Dict[Any, Tuple[Expr, Optional[Sequence[Any]]]] = {}
        self._proj_cache: Dict[Tuple, Optional[List[int]]] = {}
        self._bindings_cache: Dict[Tuple, List[Dict[str, Any]]] = {}
        # free-variable set -> (var_types, bindings), or None when the
        # sampled signature is exempt for that set (untypeable variable
        # or no credible samples) — the per-candidate prologue of the
        # sampled-signature paths, computed once per distinct var set.
        self._var_meta_cache: Dict[frozenset, Optional[Tuple]] = {}
        self._lasy_versions = {
            name: id(fn) for name, fn in self.lasy_fns.items()
        }
        # Entries whose value vectors the tester may read as outputs
        # (see vector_of), by expression: straight-line entries
        # admitted by offer() or admit_batched() in this process. Never
        # pickled; narrowed to the live entries by _rebuild_by_type.
        self._vector_entries: Dict[Expr, PoolEntry] = {}

        self.bind(metrics if metrics is not None else Registry(), self.budget)

    # -- per-run rebinding ---------------------------------------------

    def bind(self, metrics: Registry, budget: Budget) -> None:
        """Attach the store to a run's registry and budget.

        Metrics registries and budgets are per-DBS-run objects; a
        persistent store must re-point its counters at the current run
        before any offers happen, and clear last run's exhaustion state.
        """
        self._bind_counters(metrics)
        self.budget = budget
        self._partition_cache.clear()
        self.exhausted = False
        if self.incomplete_generation:
            # Redo the interrupted generation: stepping back makes the
            # next advance re-offer its combinations (cheap no-ops for
            # the ones already admitted via the syntactic seen-set).
            self.generation = max(0, self.generation - 1)
            self.incomplete_generation = False
            self.pending_redo = True

    def _bind_counters(self, metrics: Registry) -> None:
        """Point the store's counters at a registry — the counter half of
        :meth:`bind`, without the run-lifecycle side effects (exhaustion
        reset, interrupted-generation step-back). Suspend/unpickle paths
        use this alone: they detach from a run, they don't start one."""
        self.metrics = metrics
        self._detailed = metrics.detailed
        self._c_offered = metrics.counter("dbs.pool.offered")
        self._c_added = metrics.counter("dbs.pool.added")
        self._c_syntactic = metrics.counter("dbs.pool.dedup.syntactic")
        self._c_semantic = metrics.counter("dbs.pool.dedup.semantic")
        self._c_rejected = metrics.counter("dbs.pool.rejected")
        self._c_rewrites = metrics.counter("dbs.rewrite.canonicalized")
        self._c_vector_evals = metrics.counter("dbs.eval.vector_evals")
        self._c_applies = metrics.counter("dbs.eval.component_applies")
        self._c_reused = metrics.counter("pool.entries_reused")
        self._c_invalidated = metrics.counter("pool.entries_invalidated")
        self._c_revived = metrics.counter("pool.entries_revived")
        self._c_refreshed = metrics.counter("pool.entries_refreshed")
        self._c_pruned = metrics.counter("pool.entries_pruned")
        self._c_batched = metrics.counter("enum.batched")
        self._c_materialized = metrics.counter("enum.lazy_materialized")
        self._c_interned = metrics.counter("enum.sig_interned")

    def suspend(self) -> None:
        """Detach the store from its run: swap the bound registry and
        budget for throwaway private ones so a cached store does not pin
        a finished run's metrics or deadline. The warm state itself —
        entries, seen-sets, shadows, grids — is untouched; the next
        :meth:`bind` reattaches for real."""
        self.budget = Budget()
        self._bind_counters(Registry())

    def __getstate__(self):
        # Per-run bindings (registry counters, budget) and derived
        # caches are dropped: counters point at a finished run, budgets
        # hold monotonic deadlines, and the grid cache is keyed by
        # expression identity, which a round-trip does not preserve.
        # The rewriter is rebuilt from the DSL rather than shipped with
        # its memo tables.
        state = self.__dict__.copy()
        for name in list(state):
            if name.startswith("_c_"):
                del state[name]
        state["metrics"] = None
        state["budget"] = None
        state["rewriter"] = None
        state["_partition_cache"] = {}
        state["_grid_cache"] = {}
        state["_proj_cache"] = {}
        state["_bindings_cache"] = {}
        state["_var_meta_cache"] = {}
        state["_sample_cache"] = {}
        state["_vector_entries"] = {}
        # id() snapshots are meaningless in another interpreter (and a
        # reused id would silently skip a needed refresh); an empty
        # snapshot makes the first refresh_lasy re-check everything.
        state["_lasy_versions"] = {}
        return state

    def __setstate__(self, state) -> None:
        self.__dict__.update(state)
        self.rewriter = Rewriter(self.dsl)
        self.budget = Budget()
        self._bind_counters(Registry())

    def compatible_options(self, options: PoolOptions) -> bool:
        """Whether a persisted store can serve a run with ``options``."""
        return (
            self.options.use_dsl == options.use_dsl
            and self.options.semantic_dedup == options.semantic_dedup
        )

    # -- queries -------------------------------------------------------

    def expressions(self, nt: str) -> List[Expr]:
        """All pooled expressions usable where ``nt`` is expected,
        following unit productions and single-branch conditionals."""
        return [entry.expr for entry in self.iter_entries(nt)]

    def iter_entries(self, nt: str) -> Iterator[PoolEntry]:
        """Lazily iterate entries usable where ``nt`` is expected."""
        if nt in self.dsl.nonterminals:
            names = self.dsl.expansion(nt)
        else:
            names = (nt,)
        for name in names:
            yield from self._entries.get(name, ())

    def total(self) -> int:
        return sum(len(v) for v in self._entries.values())

    def all_expressions(self) -> List[Expr]:
        """Every pooled expression, across all nonterminals."""
        return list(self.iter_all())

    def iter_all(self) -> Iterator[Expr]:
        """Lazily iterate every pooled expression.

        Safe against admissions during iteration (``offer_external``
        from a strategy running mid-batch): iterates a snapshot of the
        nonterminal keys and indexes entry lists positionally.
        """
        for nt in list(self._entries):
            entries = self._entries[nt]
            index = 0
            while index < len(entries):
                yield entries[index].expr
                index += 1

    # -- construction helpers ------------------------------------------

    def _collect_lambda_specs(self) -> List[LambdaSpec]:
        specs: List[LambdaSpec] = []
        for prod in self.dsl.productions:
            for arg in prod.args:
                if isinstance(arg, LambdaSpec) and arg not in specs:
                    specs.append(arg)
        return specs

    @staticmethod
    def _type_nt(ty: Type) -> str:
        return f"τ:{ty}"

    def constants_for(self, nt: str) -> Tuple[Any, ...]:
        return tuple(self._constants.get(nt, ()))

    def all_constants(self) -> Iterator[Any]:
        for values in self._constants.values():
            yield from values

    def offer_external(self, expr: Expr) -> Optional[Expr]:
        """Admit an externally-built expression (composition-strategy
        candidates) so later generations can compose over it."""
        try:
            return self.offer(expr)
        except Exception:
            return None

    # -- dedup / admission ---------------------------------------------

    def gate(
        self, nt: str, size: int, has_vars: bool, expr: Optional[Expr] = None
    ) -> Optional[str]:
        """Why :meth:`offer` turns a candidate away before building its
        signature, or None. The gates, in order: the size cap, the
        recursion shape (checked only when the tree ``expr`` is given),
        and for a candidate with free variables the var-size cap and the
        per-nonterminal var cap. The enumerator gates a combo without a
        recursive child by its summed child sizes and merged free
        variables, so a rejected combo is never built."""
        if size > _MAX_EXPR_SIZE:
            return "size"
        if expr is not None and not _recursion_shape_ok(expr):
            return "recursion_shape"
        if has_vars:
            if size > _MAX_VAR_EXPR_SIZE:
                return "var_size"
            if self._var_counts.get(nt, 0) >= _MAX_VAR_EXPRS_PER_NT:
                return "var_cap"
        return None

    def refuse(self, nt: str, reason: str) -> None:
        """Account one offer that :meth:`gate` rejected: the budget
        charge and the offered/rejected counters :meth:`offer` moves."""
        self.budget.charge_expression()
        self._c_offered.value += 1
        self._c_rejected.value += 1
        if self._detailed:
            self._c_rejected.label(reason=reason, nt=nt)

    def _seen_before(self, key: Tuple, nt: str) -> bool:
        """Whether the syntactic seen-set holds ``key``, counting the
        syntactic duplicate if so."""
        if key in self._seen_syntactic:
            self._c_syntactic.value += 1
            if self._detailed:
                self._c_syntactic.label(nt=nt)
            return True
        return False

    def offer(
        self, expr: Expr, values: Optional[Tuple[Any, ...]] = None
    ) -> Optional[Expr]:
        """Canonicalize, deduplicate, and admit an expression. Returns the
        admitted (canonical) expression, or None if it was a duplicate.
        A free-variable expression is signed on the identity-memoized
        grids of :meth:`_grid_values` (:meth:`_sampled_signature_fast`)."""
        expr_vars = free_vars(expr)
        reason = self.gate(expr.nt, expr.size, bool(expr_vars), expr)
        if reason is not None:
            self.refuse(expr.nt, reason)
            return None
        self.budget.charge_expression()
        self._c_offered.value += 1
        # Children come from the pool and are already canonical, so only
        # the root needs rewriting; rewrites are semantics-preserving, so
        # any computed value vector remains valid.
        expr = self._canonical_root(expr)
        key = syntactic_key(expr)
        if self._seen_before(key, expr.nt):
            return None
        self._seen_syntactic.add(key)
        if values is None and self._closed_evaluable(expr):
            values = self._evaluate_vector(expr)
        if values is not None:
            predicate = self.dsl.admission_filters.get(expr.nt)
            if predicate is not None and not predicate(values, self.examples):
                self._c_rejected.value += 1
                if self._detailed:
                    self._c_rejected.label(reason="filter", nt=expr.nt)
                return None
        sig = None
        sig_cols = None
        if self.options.semantic_dedup:
            raw, sig_cols = self._signature_state(expr, values)
            sig = self._intern_sig(raw)
            if sig is not None:
                seen = self._seen_semantic.setdefault(expr.nt, set())
                if sig in seen:
                    self._c_semantic.value += 1
                    if self._detailed:
                        self._c_semantic.label(nt=expr.nt)
                    if values is not None:
                        # Remember the loser: it is hash-consed into the
                        # syntactic seen-set and could otherwise never
                        # come back, yet a future example may separate
                        # it from the entry that shadowed it.
                        self._shadow(
                            PoolEntry(
                                expr,
                                self.generation,
                                values,
                                sig,
                                sig_cols,
                                self.example_epoch,
                            )
                        )
                    return None
                seen.add(sig)
        entry = PoolEntry(
            expr, self.generation, values, sig, sig_cols, self.example_epoch
        )
        if expr_vars:
            self._var_counts[expr.nt] = self._var_counts.get(expr.nt, 0) + 1
        self._admit(entry)
        self._index_vector(entry)
        return expr

    def _canonical_root(self, expr: Expr) -> Expr:
        """``expr`` with its root canonicalized, a rewrite counted."""
        canonical = self.rewriter.canonicalize_root(expr)
        if canonical is not expr:
            self.count_rewrite(expr.nt)
        return canonical

    def count_rewrite(self, nt: str) -> None:
        """Count one root rewrite (``dbs.rewrite.canonicalized``); the
        enumerator counts here the constant folds it reads from value
        vectors."""
        self._c_rewrites.value += 1
        if self._detailed:
            self._c_rewrites.label(nt=nt)

    # -- batched admission (see engine.enumerator's batched expansion) -

    def vector_sig(
        self, nt: str, values: Tuple[Any, ...]
    ) -> Tuple[Optional[int], Optional[Tuple]]:
        """Interned signature id (and its key columns) for a candidate
        value vector, before any expression exists. The batched
        enumerator rejects observational duplicates on this id alone."""
        cols = self._vector_sig_columns(nt, values, self.examples)
        return self._intern_sig(cols), cols

    def admit_batched(
        self,
        expr: Expr,
        values: Optional[Tuple[Any, ...]],
        sig: Optional[int],
        sig_cols: Optional[Tuple],
        key: Optional[Tuple] = None,
    ) -> Optional[Expr]:
        """Admission tail for a batched-path survivor. The caller already
        charged the budget, checked the size caps, ran any admission
        filter, and found ``sig`` unseen. A closed survivor carries its
        value vector; a free-variable one (from :meth:`offer_combo`)
        carries none and takes a slot under the per-nonterminal var cap.
        Neither is recursive, so :meth:`offer`'s shape check holds
        statically. What is left is root canonicalization and syntactic
        dedup. A caller that knows ``expr`` is canonical (a
        :meth:`~repro.core.rewrite.Rewriter.fixed_root` call, or the
        constant it folds to) passes its syntactic ``key``, and the
        rewriter is skipped."""
        if key is None:
            expr = self._canonical_root(expr)
            key = syntactic_key(expr)
        if self._seen_before(key, expr.nt):
            return None
        self._seen_syntactic.add(key)
        if sig is not None:
            self._seen_semantic.setdefault(expr.nt, set()).add(sig)
        if expr.free_var_set:
            self._var_counts[expr.nt] = self._var_counts.get(expr.nt, 0) + 1
        entry = PoolEntry(
            expr, self.generation, values, sig, sig_cols, self.example_epoch
        )
        self._admit(entry)
        self._index_vector(entry)
        return expr

    def shadow_batched(
        self,
        expr: Optional[Expr],
        values: Tuple[Any, ...],
        sig: int,
        sig_cols: Optional[Tuple],
        key: Optional[Tuple] = None,
    ) -> None:
        """Shadow a batched-path semantic loser, replicating
        :meth:`offer`'s state: the loser's key enters the syntactic
        seen-set whether or not its shadow bucket has room (it can never
        be regenerated), and the loser is remembered for
        example-extension revival while the bucket has room. A built
        ``expr`` is canonicalized here. A caller that knows the loser's
        canonical form passes its syntactic ``key`` instead; ``expr`` is
        then the constant it folds to, or None for a
        :meth:`~repro.core.rewrite.Rewriter.fixed_root` call, which is
        built from its ``(nt, function, args)`` key only when the bucket
        stores it."""
        if key is None:
            expr = self._canonical_root(expr)
            key = syntactic_key(expr)
        nt = key[0]
        if self._seen_before(key, nt):
            return
        self._seen_syntactic.add(key)
        bucket = self._shadows.setdefault(nt, [])
        if len(bucket) >= _MAX_SHADOW_ENTRIES:
            return
        if expr is None:
            expr = Call(key[1], key[2], nt)
            self._c_materialized.value += 1
        bucket.append(
            PoolEntry(
                expr, self.generation, values, sig, sig_cols, self.example_epoch
            )
        )

    def combo_grid(
        self, children: Tuple[Expr, ...], var_set: frozenset
    ) -> Optional[Tuple]:
        """What :meth:`offer_combo` needs to sign an unbuilt call over
        ``children``, whose free variables are ``var_set``:
        ``(var_types, bindings, columns)``, the columns being the
        children's memoized grid columns. None declines, and the caller
        builds the call and offers it instead: the variable set is
        exempt from sampled signatures, or a child has no column (the
        27-binding truncation dropped a restriction). Nothing is
        charged or counted here."""
        meta = self._grid_meta(var_set)
        if meta is None:
            return None
        var_types, bindings = meta
        columns = self._grid_columns(children, var_set, var_types, bindings)
        if columns is None:
            return None
        return var_types, bindings, columns

    def offer_combo(
        self,
        nt: str,
        func: Function,
        children: Tuple[Expr, ...],
        batch_fn,
        grid: Tuple,
    ) -> Optional[Expr]:
        """:meth:`offer` for a free-variable call ``func(*children)`` that
        does not exist yet, in :meth:`offer`'s order: the budget charge,
        the syntactic check, the sampled signature and the semantic
        check. The caller has gated the combo, and ``func`` is a
        :meth:`~repro.core.rewrite.Rewriter.fixed_root`, so the unbuilt
        call is already canonical and its key is
        :func:`syntactic_key`'s triple. The grid cells come from one
        ``batch_fn`` call over ``grid``'s columns (:meth:`combo_grid`).
        A semantic loser is counted and its key recorded, but it is
        never built; a survivor is built once, its cells memoized, and
        admitted through :meth:`admit_batched`."""
        self.budget.charge_expression()
        self._c_offered.value += 1
        key = (nt, func, children)
        if self._seen_before(key, nt):
            return None
        var_types, bindings, columns = grid
        cells = batch_fn(*columns)
        sig = self._intern_sig(
            self._combo_signature(nt, func, children, cells, var_types, bindings)
        )
        if sig is not None and sig in self._seen_semantic.setdefault(nt, set()):
            self._seen_syntactic.add(key)
            self._c_semantic.value += 1
            if self._detailed:
                self._c_semantic.label(nt=nt)
            return None
        expr = Call(func, children, nt)
        self._c_materialized.value += 1
        self._grid_store(id(expr), expr, cells)
        return self.admit_batched(expr, None, sig, None, key)

    def _combo_signature(
        self, nt: str, func: Function, children, cells, var_types, bindings
    ) -> Optional[Tuple]:
        """The raw sampled signature of the unbuilt call
        ``func(*children)`` from its grid ``cells``: what
        :meth:`_sampled_signature` computes on the built call."""
        adapter = self.dsl.signature_adapters.get(nt)
        return self._grid_signature(cells, var_types, bindings, adapter)

    def partition(
        self, name: str, newest: int
    ) -> Tuple[List[PoolEntry], List[PoolEntry], List[PoolEntry]]:
        """One nonterminal's entries split by generation against the
        newest *complete* generation: ``(older, fresh, upto)`` with
        ``older`` strictly before ``newest``, ``fresh`` exactly
        ``newest``, and ``upto`` their concatenation (original order
        preserved in all three). Entries of the in-progress generation
        (> ``newest``) are excluded, which is what keeps a cached split
        valid while the current generation appends — the enumerator
        computes each slot's split once per advance instead of
        rescanning and re-filtering the whole pool once per production
        per argument position."""
        key = (name, newest)
        cached = self._partition_cache.get(key)
        if cached is not None:
            return cached
        result = split_generations(self._entries.get(name, ()), newest)
        self._partition_cache[key] = result
        return result

    def clear_partitions(self) -> None:
        """Invalidate cached generation splits (each advance starts
        fresh; bulk rebuilds clear eagerly)."""
        self._partition_cache.clear()

    def _admit(self, entry: PoolEntry) -> None:
        expr = entry.expr
        self._c_added.value += 1
        if self._detailed:
            self._c_added.label(nt=expr.nt, size=expr.size)
        self._entries.setdefault(expr.nt, []).append(entry)
        if not isinstance(expr, Lambda):
            ty = self._expr_type(expr)
            if ty is not None:
                self._by_type.setdefault(ty, []).append(entry)

    def _shadow(self, entry: PoolEntry) -> None:
        bucket = self._shadows.setdefault(entry.expr.nt, [])
        if len(bucket) < _MAX_SHADOW_ENTRIES:
            bucket.append(entry)

    def _closed_evaluable(self, expr: Expr) -> bool:
        return (
            bool(self.examples)
            and not isinstance(expr, Lambda)
            and not is_recursive(expr)
            and not free_vars(expr)
        )

    def _evaluate_vector(self, expr: Expr) -> Optional[Tuple[Any, ...]]:
        """Full-evaluation fallback for seeds and lambda-bearing calls.

        The expression is compiled once and the closure run per example
        (see repro.core.compile); on the interpreter mode this degrades
        to plain ``evaluate`` calls."""
        return self._evaluate_tail(expr, self.examples)

    def _evaluate_tail(
        self, expr: Expr, examples: Sequence[Example]
    ) -> Optional[Tuple[Any, ...]]:
        """Value vector of ``expr`` over ``examples`` only — the widening
        primitive: extending a cached vector costs one evaluation per
        *appended* example, never a recomputation of the prefix."""
        names = self.signature.param_names
        out: List[Any] = []
        self._c_vector_evals.value += len(examples)
        runner = expression_runner(expr)
        for example in examples:
            env = Env(
                params=dict(zip(names, example.args)),
                lasy_fns=self.lasy_fns,
                fuel=Fuel(_SIGNATURE_FUEL),
            )
            try:
                value = runner(env)
            except EvaluationError:
                value = ERROR
            if callable(value):
                return None
            out.append(value)
        return tuple(out)

    def _expr_type(self, expr: Expr) -> Optional[Type]:
        if isinstance(expr, (Param, Const, Var)):
            return expr.type
        if isinstance(expr, Call):
            return expr.func.return_type
        if isinstance(expr, Recurse):
            return self.signature.return_type
        if isinstance(expr, LasyCall):
            sig = self.lasy_signatures.get(expr.func_name)
            return sig.return_type if sig else None
        if expr.nt in self.dsl.nonterminals:
            return self.dsl.type_of(expr.nt)
        return None

    # -- incremental extension -----------------------------------------

    def extend_examples(
        self, new_examples: Sequence[Example], seeds: Sequence[Expr] = ()
    ) -> Dict[str, int]:
        """Append examples, widening every cached value vector by the new
        columns only, and re-run semantic dedup on the widened vectors.

        ``seeds`` are the expressions the caller is about to re-seed (the
        current ``P_i``'s subexpressions): constants they mention stay
        alive through :meth:`_prune_stale_constants`.

        Returns a report dict: ``reused`` entries kept, ``invalidated``
        entries dropped by an admission filter on the widened vector,
        ``pruned`` entries dropped for mentioning stale constants,
        ``revived`` shadow entries readmitted because their fingerprint
        no longer collides. The same counts land on the bound registry
        as ``pool.entries_*`` counters.
        """
        appended = list(new_examples)
        report = {"reused": 0, "invalidated": 0, "revived": 0, "pruned": 0}
        if not appended:
            return report
        self.examples.extend(appended)
        self.example_epoch += 1
        # Interned ids are scoped to the signature table, and every live
        # fingerprint is re-interned during this pass (widened entries,
        # recomputed sampled entries, revived shadows) — so the table is
        # swapped rather than grown for the store's whole lifetime.
        self._sig_intern = {}
        self._partition_cache.clear()
        # Example-derived state: constants and variable samples may gain
        # members from the new examples. The enumerator re-seeds atoms
        # after an extension so new constants enter the pool.
        self._constants = dict(self.dsl.constants_for(self.examples))
        self._sample_cache = {}
        # Sampled grids span the example list and the harvested binding
        # samples; both just changed.
        self._grid_cache = {}
        self._proj_cache = {}
        self._bindings_cache = {}
        self._var_meta_cache = {}
        self._prune_stale_constants(seeds, report)
        filters = self.dsl.admission_filters
        dedup = self.options.semantic_dedup
        for nt, entries in list(self._entries.items()):
            kept: List[PoolEntry] = []
            seen: set = set()
            predicate = filters.get(nt)
            for entry in entries:
                if entry.values is not None:
                    tail = self._evaluate_tail(entry.expr, appended)
                    if tail is None:
                        # Stopped being vector-cacheable (callable value
                        # on a new input); keep the entry uncached.
                        entry.values = None
                        entry.sig = None
                        entry.sig_cols = None
                    else:
                        entry.values = entry.values + tail
                        entry.epoch = self.example_epoch
                        if predicate is not None and not predicate(
                            entry.values, self.examples
                        ):
                            report["invalidated"] += 1
                            self._c_invalidated.value += 1
                            continue
                        if dedup:
                            # Widen the cached key columns by the new
                            # columns only; the full signature is their
                            # concatenation, so nothing before the
                            # append point is re-adapted or re-frozen.
                            self._widen_sig(entry, nt, tail, appended)
                        else:
                            entry.sig = None
                            entry.sig_cols = None
                else:
                    # Sampled fingerprints (free-variable and lambda
                    # entries) were taken over the shorter example list
                    # and cannot be widened column-wise; recompute them
                    # over the full widened list, as a cold admission
                    # would — otherwise the var corner of the pool
                    # escapes dedup and bloats every later generation's
                    # combination space.
                    entry.sig = (
                        self._intern_sig(
                            self._signature_state(entry.expr, None)[0]
                        )
                        if dedup
                        else None
                    )
                    entry.sig_cols = None
                    entry.epoch = self.example_epoch
                if entry.sig is not None:
                    if entry.sig in seen:
                        self._c_semantic.value += 1
                        if entry.values is not None:
                            # Widening appends columns, so distinct
                            # vectors stay distinct; a collision here
                            # means the pair was never both vector-keyed
                            # before. Shadow the loser for revival.
                            self._shadow(entry)
                        elif free_vars(entry.expr):
                            # Sampled-sig losers are dropped outright
                            # (cold admission never shadows them either);
                            # free the slot under the per-nt var cap.
                            self._var_counts[nt] = max(
                                0, self._var_counts.get(nt, 0) - 1
                            )
                        continue
                    seen.add(entry.sig)
                kept.append(entry)
                report["reused"] += 1
            self._entries[nt] = kept
            if dedup:
                self._seen_semantic[nt] = seen
            else:
                self._seen_semantic.pop(nt, None)
        self._rebuild_by_type()
        self._c_reused.value += report["reused"]
        if dedup:
            report["revived"] = self._revive_shadows(appended, filters)
        else:
            self._shadows.clear()
        return report

    def _prune_stale_constants(
        self, seeds: Sequence[Expr], report: Dict[str, int]
    ) -> None:
        """Forget entries built from constants that no longer exist.

        Early iterations derive constants from few examples (often whole
        output strings); later iterations shrink that set, but a
        persistent pool would keep every composite built over the stale
        atoms — expressions a cold rebuild would never enumerate, each
        one multiplying later generations' combination space. Algorithm 1
        is explicit that components of earlier programs that no longer
        appear are *forgotten*; the constants the current ``P_i``'s
        subexpressions still mention stay (the cold build seeds those
        too). Pruned expressions leave the seen-sets, so an equivalent
        admission can happen again if the constant ever returns.
        """
        allowed = set()
        for values in self._constants.values():
            allowed.update(values)
        for seed in seeds:
            for node in seed.walk():
                if isinstance(node, Const):
                    allowed.add(node.value)
        # Pooled trees share their hash-consed children, so each walk
        # below visits every distinct node once, by identity. The memos
        # are local to this pass, which allocates no nodes, so no id is
        # reused while they live.
        present = set()
        visited: set = set()
        for entries in self._entries.values():
            for entry in entries:
                stack = [entry.expr]
                while stack:
                    node = stack.pop()
                    if id(node) in visited:
                        continue
                    visited.add(id(node))
                    if isinstance(node, Const):
                        present.add(node.value)
                    else:
                        stack.extend(node.children())
        del visited
        stale = present - allowed
        if not stale:
            return
        stale_memo: Dict[int, bool] = {}

        def is_stale(node: Expr) -> bool:
            verdict = stale_memo.get(id(node))
            if verdict is None:
                if isinstance(node, Const):
                    verdict = node.value in stale
                else:
                    verdict = any(is_stale(c) for c in node.children())
                stale_memo[id(node)] = verdict
            return verdict

        dropped = False
        for nt, entries in list(self._entries.items()):
            kept: List[PoolEntry] = []
            for entry in entries:
                if not is_stale(entry.expr):
                    kept.append(entry)
                    continue
                self._seen_syntactic.discard(syntactic_key(entry.expr))
                if entry.sig is not None:
                    self._seen_semantic.get(nt, set()).discard(entry.sig)
                report["pruned"] += 1
                self._c_pruned.value += 1
                dropped = True
            self._entries[nt] = kept
        for nt, bucket in list(self._shadows.items()):
            survivors = []
            for entry in bucket:
                if is_stale(entry.expr):
                    self._seen_syntactic.discard(syntactic_key(entry.expr))
                else:
                    survivors.append(entry)
            self._shadows[nt] = survivors
        if dropped:
            self._var_counts = {}
            for nt, entries in self._entries.items():
                self._var_counts[nt] = sum(
                    1 for e in entries if free_vars(e.expr)
                )
            # _by_type is rebuilt by extend_examples after widening.

    def _widen_sig(
        self,
        entry: PoolEntry,
        nt: str,
        tail: Tuple[Any, ...],
        appended: Sequence[Example],
    ) -> None:
        """Re-key a widened entry: extend the cached key-column prefix
        by the appended columns (O(appended), not O(examples)) and
        intern the result. Falls back to computing the columns from the
        full vector when no prefix was cached (a pre-epoch entry, or a
        vector whose columns resisted freezing)."""
        if entry.sig_cols is not None:
            tail_cols = self._vector_sig_columns(nt, tail, appended)
            entry.sig_cols = (
                entry.sig_cols + tail_cols
                if tail_cols is not None
                else None
            )
        else:
            entry.sig_cols = self._vector_sig_columns(
                nt, entry.values, self.examples
            )
        entry.sig = self._intern_sig(entry.sig_cols)

    def _revive_shadows(self, appended, filters) -> int:
        revived = 0
        for nt, bucket in list(self._shadows.items()):
            if not bucket:
                continue
            seen = self._seen_semantic.setdefault(nt, set())
            predicate = filters.get(nt)
            survivors: List[PoolEntry] = []
            for entry in bucket:
                if entry.epoch != self.example_epoch:
                    tail = self._evaluate_tail(entry.expr, appended)
                    if tail is None:
                        continue
                    entry.values = entry.values + tail
                    entry.epoch = self.example_epoch
                    if predicate is not None and not predicate(
                        entry.values, self.examples
                    ):
                        continue
                    self._widen_sig(entry, nt, tail, appended)
                # else: the entry was shadowed by this very extension
                # pass (a widened vector collided in the entry loop), so
                # its vector, filter verdict, and interned signature are
                # already current — widening again would append the new
                # columns twice and corrupt the vector.
                sig = entry.sig
                if sig is not None and sig in seen:
                    survivors.append(entry)
                    continue
                if sig is not None:
                    seen.add(sig)
                # Revived entries join the current generation so the
                # next advance() treats them as fresh combination fodder.
                entry.generation = self.generation
                self._admit(entry)
                revived += 1
                self._c_revived.value += 1
            self._shadows[nt] = survivors
        return revived

    def _rebuild_by_type(self) -> None:
        """Rebuild the by-type index after entry lists were rebuilt, and
        narrow the vector index to the entries still live."""
        by_type: Dict[Type, List[PoolEntry]] = {}
        indexed = self._vector_entries
        live: Dict[Expr, PoolEntry] = {}
        for entries in self._entries.values():
            for entry in entries:
                expr = entry.expr
                if indexed.get(expr) is entry:
                    live[expr] = entry
                if isinstance(expr, Lambda):
                    continue
                ty = self._expr_type(expr)
                if ty is not None:
                    by_type.setdefault(ty, []).append(entry)
        self._by_type = by_type
        self._vector_entries = live

    def _index_vector(self, entry: PoolEntry) -> None:
        """Index a newly admitted entry for :meth:`vector_of` when it has
        a value vector and a straight-line tree."""
        if entry.values is not None and _straight_line(entry.expr):
            self._vector_entries[entry.expr] = entry

    def vector_of(self, expr: Expr) -> Optional[Tuple[Any, ...]]:
        """The value vector the tester may read as ``expr``'s outputs on
        the store's examples, or None.

        It is the vector of a live entry for ``expr`` that was admitted
        in this process (never one unpickled) and widened or permuted to
        the current example epoch. The tree has only parameters,
        constants and eager calls, so running it spends one unit of
        fuel per node, at most ``_MAX_EXPR_SIZE`` in all, and reaches no
        recursion depth. That is far below both ``_SIGNATURE_FUEL`` and
        the tester's fuel, so each cell, ``ERROR`` included, is what
        ``run_program`` returns on that example."""
        entry = self._vector_entries.get(expr)
        if entry is None or entry.epoch != self.example_epoch:
            return None
        return entry.values

    def reorder_examples(self, perm: Sequence[int]) -> None:
        """Permute the held examples in place: ``perm[i]`` is the old
        index of the example now at position ``i``.

        The store's semantic state is a function of the example
        *multiset*, laid out in per-example columns — value vectors,
        signature key columns, admission-filter verdicts all pair column
        ``i`` with example ``i`` — so a permutation moves columns, it
        never changes them. Vector-keyed fingerprints therefore stay
        pairwise-distinct (coordinate permutation is a bijection) and no
        filter is re-run. Sampled (free-variable) fingerprints are the
        one exception: their sample harvest scans the examples in order,
        so they are recomputed over the permuted list exactly as
        :meth:`extend_examples` recomputes them, and fresh collisions
        among them are resolved the same way (losers dropped; vector
        entries never collide here so none are shadowed).

        This is what lets :class:`~.session.SynthesisSession` serve a
        run whose examples merely reorder the held prefix warm instead
        of rebuilding cold.
        """
        n = len(self.examples)
        order = list(perm)
        if sorted(order) != list(range(n)):
            raise ValueError(
                f"perm must be a permutation of range({n}), got {order!r}"
            )
        if order == list(range(n)):
            return
        self.examples = [self.examples[j] for j in order]
        self.example_epoch += 1
        # Same cache discipline as extend_examples: the intern table is
        # swapped (every live fingerprint is re-interned below), and all
        # example-derived caches are rebuilt lazily.
        self._sig_intern = {}
        self._partition_cache.clear()
        self._constants = dict(self.dsl.constants_for(self.examples))
        self._sample_cache = {}
        self._grid_cache = {}
        self._proj_cache = {}
        self._bindings_cache = {}
        self._var_meta_cache = {}
        dedup = self.options.semantic_dedup
        dropped = False
        for nt, entries in list(self._entries.items()):
            kept: List[PoolEntry] = []
            seen: set = set()
            for entry in entries:
                self._permute_entry(entry, order, dedup)
                if entry.sig is not None:
                    if entry.sig in seen:
                        self._c_semantic.value += 1
                        if free_vars(entry.expr):
                            self._var_counts[nt] = max(
                                0, self._var_counts.get(nt, 0) - 1
                            )
                        dropped = True
                        continue
                    seen.add(entry.sig)
                kept.append(entry)
            self._entries[nt] = kept
            if dedup:
                self._seen_semantic[nt] = seen
        for bucket in self._shadows.values():
            for entry in bucket:
                self._permute_entry(entry, order, dedup)
        if dropped:
            self._rebuild_by_type()

    def _permute_entry(
        self, entry: PoolEntry, order: Sequence[int], dedup: bool
    ) -> None:
        if entry.values is not None:
            entry.values = tuple(entry.values[j] for j in order)
            if dedup:
                if entry.sig_cols is not None:
                    entry.sig_cols = tuple(
                        entry.sig_cols[j] for j in order
                    )
                    entry.sig = self._intern_sig(entry.sig_cols)
                else:
                    raw, cols = self._signature_state(
                        entry.expr, entry.values
                    )
                    entry.sig = self._intern_sig(raw)
                    entry.sig_cols = cols
            else:
                entry.sig = None
                entry.sig_cols = None
        else:
            entry.sig = (
                self._intern_sig(self._signature_state(entry.expr, None)[0])
                if dedup
                else None
            )
            entry.sig_cols = None
        entry.epoch = self.example_epoch

    def refresh_lasy(self) -> int:
        """Re-evaluate cached vectors that mention LaSy functions whose
        definitions changed since the last run (identity snapshot); the
        LaSy runner rebinds ``lasy_fns[name]`` whenever another function
        is re-synthesized, silently staling any vector that called it.
        Returns the number of entries refreshed.

        The function's *own* name is rebound on every run but never
        matters: self-calls are ``Recurse`` nodes, and the enumerator
        builds no ``LasyCall`` to its own signature."""
        current = {name: id(fn) for name, fn in self.lasy_fns.items()}
        if current == self._lasy_versions:
            return 0
        changed = {
            name
            for name in set(current) | set(self._lasy_versions)
            if current.get(name) != self._lasy_versions.get(name)
        }
        changed.discard(self.signature.name)
        self._lasy_versions = current
        if not changed:
            return 0
        # Grid cells may embed results of the changed functions.
        self._grid_cache = {}
        dedup = self.options.semantic_dedup
        refreshed = 0
        dropped_any = False
        for nt, entries in list(self._entries.items()):
            touched = False
            for entry in entries:
                if not _mentions_lasy(entry.expr, changed):
                    continue
                if self._closed_evaluable(entry.expr):
                    entry.values = self._evaluate_vector(entry.expr)
                else:
                    entry.values = None
                if dedup and entry.values is not None:
                    raw, cols = self._signature_state(
                        entry.expr, entry.values
                    )
                    entry.sig = self._intern_sig(raw)
                    entry.sig_cols = cols
                else:
                    entry.sig = None
                    entry.sig_cols = None
                entry.epoch = self.example_epoch
                refreshed += 1
                touched = True
            if touched and dedup:
                # Refreshed vectors may now collide with each other (or
                # with untouched entries); rebuild this nonterminal's
                # seen-set, shadowing the losers.
                seen: set = set()
                kept: List[PoolEntry] = []
                for entry in entries:
                    if entry.sig is not None:
                        if entry.sig in seen:
                            self._c_semantic.value += 1
                            self._shadow(entry)
                            continue
                        seen.add(entry.sig)
                    kept.append(entry)
                if len(kept) != len(entries):
                    self._entries[nt] = kept
                    dropped_any = True
                    self._partition_cache.clear()
                self._seen_semantic[nt] = seen
        for nt, bucket in self._shadows.items():
            # Stale shadows are cheap to drop and expensive to refresh.
            self._shadows[nt] = [
                e for e in bucket if not _mentions_lasy(e.expr, changed)
            ]
        if dropped_any:
            self._rebuild_by_type()
        self._c_refreshed.value += refreshed
        return refreshed

    # -- semantic fingerprints -----------------------------------------

    # Sample bindings used to fingerprint expressions with free lambda
    # variables (see module docstring).
    _VAR_SAMPLES = {
        "int": (0, 1, 2),
        "str": ("", "b a", "xy"),
        "bool": (False, True),
        "char": ("a", " "),
    }

    def _var_sample_values(self, ty: Type) -> Tuple[Any, ...]:
        """Sample bindings for a lambda variable: canned primitives plus
        values of the right shape harvested from the examples (e.g. the
        child elements of an XML input for a node-typed loop variable).
        Returns () when no credible sample exists — the caller must then
        skip semantic dedup rather than collapse everything."""
        harvested = self._harvest_samples(ty)
        canned = self._VAR_SAMPLES.get(ty.name, ())
        if ty.is_list and not harvested:
            return ((),)
        out = list(harvested) + [s for s in canned if s not in harvested]
        return tuple(out[:3])

    def _harvest_samples(self, ty: Type) -> List[Any]:
        cache = self._sample_cache
        if ty in cache:
            return cache[ty]
        found: List[Any] = []

        def consider(value: Any, depth: int) -> None:
            if len(found) >= 3:
                return
            if _matches_type(value, ty) and value not in found:
                found.append(value)
            if depth <= 0:
                return
            if isinstance(value, tuple):
                for item in value[:4]:
                    consider(item, depth - 1)
            elif hasattr(value, "elements"):
                for item in value.elements()[:4]:
                    consider(item, depth - 1)

        for example in self.examples:
            for value in list(example.args) + [example.output]:
                consider(value, 2)
        cache[ty] = found
        return found

    def _sample_bindings(self, names_types) -> List[Dict[str, Any]]:
        combos: List[Dict[str, Any]] = [{}]
        for name, ty in names_types:
            samples = self._var_sample_values(ty)
            combos = [
                {**combo, name: sample}
                for combo in combos
                for sample in samples
            ]
            if len(combos) > 27:
                combos = combos[:27]
        return combos

    def _var_types(self, var_set: frozenset) -> Optional[List[Tuple[str, Type]]]:
        names = sorted(var_set)
        out: List[Tuple[str, Type]] = []
        for name in names:
            ty = self.dsl.lambda_vars.get(name)
            if ty is None:
                return None
            out.append((name, ty))
        return out

    def _signature_state(
        self, expr: Expr, values: Optional[Tuple[Any, ...]]
    ) -> Tuple[Optional[Tuple], Optional[Tuple]]:
        """``(raw_signature, key_columns)`` for an admission candidate;
        the raw signature is None when exempt. Seen-sets and entries
        store its interned id, not the tuple itself (see
        :meth:`_intern_sig`). For vector-derived fingerprints the
        signature *is* the column tuple (cached on the entry so widening
        extends the prefix); sampled fingerprints have no widenable
        columns and come from the memoized grids
        (:meth:`_sampled_signature_fast`)."""
        if is_recursive(expr):
            return None, None
        if not self.examples:
            return None, None
        if values is not None:
            cols = self._vector_sig_columns(expr.nt, values, self.examples)
            return cols, cols
        adapter = self.dsl.signature_adapters.get(expr.nt)
        return self._sampled_signature_fast(expr, adapter), None

    def _vector_sig_columns(
        self,
        nt: str,
        values: Sequence[Any],
        examples: Sequence[Example],
    ) -> Optional[Tuple]:
        """Per-example signature key columns for (a slice of) a value
        vector: the nonterminal's adapter applied per column, then the
        usual freezing/tagging of :func:`signature_key`. Because the key
        is built element-wise, the signature of a widened vector is the
        cached prefix plus the columns of the appended slice. None when
        a column resists freezing (the classic TypeError exemption)."""
        adapter = self.dsl.signature_adapters.get(nt)
        out = []
        for value, example in zip(values, examples):
            if adapter is not None and value is not ERROR:
                try:
                    value = adapter(value, example)
                except Exception:
                    value = ERROR
            out.append(value)
        try:
            return signature_key(out)
        except TypeError:
            return None

    def _intern_sig(self, raw: Optional[Tuple]) -> Optional[int]:
        """Intern a raw signature tuple to a small int id. Dedup then
        compares and stores ints: one hash of the (potentially large)
        tuple here, integer hashes everywhere after. None (exempt) maps
        to None; an unhashable signature is treated as exempt, exactly
        as the classic path treated it."""
        if raw is None:
            return None
        table = self._sig_intern
        try:
            sig = table.get(raw)
        except TypeError:
            return None
        if sig is None:
            sig = len(table)
            table[raw] = sig
            self._c_interned.value += 1
        return sig

    def _sampled_signature(self, expr: Expr, adapter) -> Optional[Tuple]:
        """Fingerprint for expressions with free lambda variables (or
        lambdas): evaluate under sampled bindings. It signs lambdas and
        recursive expressions, and is the per-candidate reference the
        grids of :meth:`_sampled_signature_fast` are held to."""
        target = expr
        binder_vars: List[Tuple[str, Type]] = []
        if isinstance(expr, Lambda):
            target = expr.body
            binder_vars = [(p.name, p.type) for p in expr.params]
            if adapter is None:
                adapter = self.dsl.signature_adapters.get(target.nt)
        var_types = self._var_types(target.free_var_set)
        if var_types is None:
            return None
        if any(not self._var_sample_values(ty) for _, ty in var_types):
            return None  # no credible samples: skip dedup, keep the expr
        bindings = self._sample_bindings(var_types)
        values = []
        names = self.signature.param_names
        runner = expression_runner(target)
        for example in self.examples:
            for binding in bindings:
                env = Env(
                    params=dict(zip(names, example.args)),
                    vars=dict(binding),
                    lasy_fns=self.lasy_fns,
                    fuel=Fuel(_SIGNATURE_FUEL),
                )
                try:
                    value = runner(env)
                    if adapter is not None:
                        value = adapter(value, example)
                except EvaluationError:
                    value = ERROR
                except Exception:
                    value = ERROR
                if callable(value):
                    return None
                values.append(value)
        if binder_vars:
            values.append(("λ", tuple(str(t) for _, t in binder_vars)))
        # Two expressions over *different* variables are never the same
        # component even when the sampled bindings coincide (a two-lambda
        # production needs bodies for each of its variables).
        values.append(("vars", tuple(name for name, _ in var_types)))
        try:
            return signature_key(values)
        except TypeError:
            return None

    # -- sampled fingerprints on memoized grids ------------------------

    def _sampled_signature_fast(self, expr: Expr, adapter) -> Optional[Tuple]:
        """The grid equivalent of :meth:`_sampled_signature` for
        non-lambda candidates: the sampled cells come from the
        identity-memoized grids of :meth:`_grid_values` instead of a
        fresh whole-tree evaluation per (example, binding) cell — the
        same values-first inversion the batched enumerator applies to
        value vectors. Signature semantics are identical; anything the
        grid cannot express delegates to the per-candidate path."""
        if isinstance(expr, Lambda) or expr.has_recurse:
            return self._sampled_signature(expr, adapter)
        meta = self._grid_meta(expr.free_var_set)
        if meta is None:
            return None  # untypeable var / no credible samples: exempt
        var_types, bindings = meta
        cells = self._grid_values(expr)
        if cells is None:
            return self._sampled_signature(expr, adapter)
        return self._grid_signature(cells, var_types, bindings, adapter)

    def _grid_signature(
        self, cells: Sequence[Any], var_types, bindings, adapter
    ) -> Optional[Tuple]:
        """The sampled signature of a grid's cells: the adapter per cell,
        the variable names, then :func:`signature_key` — the tail of
        :meth:`_sampled_signature`. None (exempt) for a callable cell or
        an unhashable key."""
        values = []
        i = 0
        for example in self.examples:
            for _ in bindings:
                value = cells[i]
                i += 1
                if adapter is not None and value is not ERROR:
                    try:
                        value = adapter(value, example)
                    except Exception:
                        value = ERROR
                if callable(value):
                    return None
                values.append(value)
        values.append(("vars", tuple(name for name, _ in var_types)))
        try:
            return signature_key(values)
        except TypeError:
            return None

    def _grid_meta(self, var_set: frozenset) -> Optional[Tuple]:
        """``(var_types, bindings)`` for a free-variable set, or None
        when a sampled signature over it is exempt (a variable the DSL
        can't type, or one without credible samples). This is the
        per-candidate prologue of :meth:`_sampled_signature`, memoized
        per distinct variable set: the enumerator offers thousands of
        candidates over a handful of variable sets."""
        cache = self._var_meta_cache
        if var_set in cache:
            return cache[var_set]
        var_types = self._var_types(var_set)
        if var_types is None or any(
            not self._var_sample_values(ty) for _, ty in var_types
        ):
            meta = None
        else:
            meta = (var_types, self._grid_bindings(var_types))
        cache[var_set] = meta
        return meta

    def _grid_bindings(self, var_types) -> List[Dict[str, Any]]:
        """:meth:`_sample_bindings`, memoized per variable-name tuple
        (the sample values behind a binding list only change when the
        harvested-sample cache is rebuilt, which clears this too)."""
        key = tuple(name for name, _ in var_types)
        bindings = self._bindings_cache.get(key)
        if bindings is None:
            bindings = self._sample_bindings(var_types)
            self._bindings_cache[key] = bindings
        return bindings

    def _grid_values(self, expr: Expr) -> Optional[Tuple[Any, ...]]:
        """Raw (pre-adapter) values of a free-variable expression over
        ``examples × sampled bindings of its own variables``,
        example-major — the cells :meth:`_sampled_signature` computes
        one candidate at a time. Memoized by expression identity: pool
        children are hash-consed, so each distinct subexpression is
        evaluated once per example epoch instead of once per offered
        candidate that contains it. None when no grid applies (no
        typeable variables, or a variable without credible samples)."""
        cache = self._grid_cache
        hit = cache.get(id(expr))
        if hit is not None and hit[0] is expr:
            return hit[1]
        cells = self._compute_grid(expr)
        self._grid_store(id(expr), expr, cells)
        return cells

    def _grid_store(self, key, expr: Expr, value) -> None:
        """Memoize ``value`` for ``expr`` in the grid cache, which is
        cleared wholesale when full."""
        cache = self._grid_cache
        if len(cache) >= _GRID_CACHE_LIMIT:
            cache.clear()
        cache[key] = (expr, value)

    def _compute_grid(self, expr: Expr) -> Optional[Tuple[Any, ...]]:
        var_set = expr.free_var_set
        meta = self._grid_meta(var_set)
        if meta is None or not meta[0]:
            return None
        var_types, bindings = meta
        if type(expr) is Call and not expr.func.lazy and not expr.has_recurse:
            # Column-wise fast path: apply the component over the
            # children's grids in one batch call, with the children's
            # cells projected onto this expression's binding list.
            columns = self._grid_columns(expr.args, var_set, var_types, bindings)
            if columns is not None:
                batch_fn = compile_batch(expr.func)
                if batch_fn is not None:
                    return tuple(batch_fn(*columns))
        # Everything else (variables, lazy calls, LaSy calls, loop
        # nodes, truncated binding products): evaluate per cell with
        # classic signature semantics — still paid once per distinct
        # expression, not once per candidate.
        return self._grid_eval(expr, bindings)

    def _grid_columns(
        self, children: Sequence[Expr], var_set: frozenset, var_types, bindings
    ) -> Optional[List[List[Any]]]:
        """The children's cell columns aligned with the grid of
        ``var_set`` (see :meth:`_grid_argument`), or None when one is
        unavailable. Each column is memoized in the grid cache per
        (child, parent variable set), so it is built once however many
        candidates take the child in that position."""
        cache = self._grid_cache
        columns = []
        for child in children:
            key = (id(child), var_set)
            hit = cache.get(key)
            if hit is not None and hit[0] is child:
                column = hit[1]
            else:
                column = self._grid_argument(child, var_types, bindings)
                self._grid_store(key, child, column)
            if column is None:
                return None
            columns.append(column)
        return columns

    def _grid_argument(
        self, child: Expr, var_types, bindings
    ) -> Optional[List[Any]]:
        """One child's cell column, aligned with the parent's
        ``examples × bindings`` layout: closed children broadcast their
        per-example value across the bindings; free-variable children
        project their own grid through the binding restriction map."""
        if child.has_recurse:
            return None
        if not child.free_var_set:
            values = self._grid_closed_values(child)
            if values is None:
                return None
            n = len(bindings)
            out: List[Any] = []
            for value in values:
                out.extend([value] * n)
            return out
        child_meta = self._grid_meta(child.free_var_set)
        if child_meta is None:
            return None
        child_types, child_bindings = child_meta
        child_cells = self._grid_values(child)
        if child_cells is None:
            return None
        projection = self._grid_projection(
            var_types, bindings, child_types, child_bindings
        )
        if projection is None:
            return None
        per_child = len(child_bindings)
        out = []
        for ei in range(len(self.examples)):
            base = ei * per_child
            for j in projection:
                out.append(child_cells[base + j])
        return out

    def _grid_projection(
        self, var_types, bindings, child_types, child_bindings
    ) -> Optional[List[int]]:
        """For each parent binding, the index of its restriction to the
        child's variables in the child's binding list — None when a
        restriction is missing (the 27-combo truncation can drop it) or
        a sample value resists hashing. Bindings are pure products of
        the per-type sample values, so the map is memoized per
        (parent names, child names) pair."""
        key = (
            tuple(name for name, _ in var_types),
            tuple(name for name, _ in child_types),
        )
        if key in self._proj_cache:
            return self._proj_cache[key]
        child_names = key[1]
        projection: Optional[List[int]] = []
        try:
            index = {
                tuple(b[name] for name in child_names): j
                for j, b in enumerate(child_bindings)
            }
            for binding in bindings:
                j = index.get(tuple(binding[name] for name in child_names))
                if j is None:
                    projection = None
                    break
                projection.append(j)
        except TypeError:
            projection = None
        self._proj_cache[key] = projection
        return projection

    def _grid_closed_values(self, expr: Expr) -> Optional[Tuple[Any, ...]]:
        """Per-example raw values of a closed, non-recursive child used
        inside a sampled grid, memoized alongside the grids (closed and
        free-variable expressions are disjoint, so the cache is shared).
        Unlike :meth:`_evaluate_tail` this is signature-internal work:
        exceptions become ERROR cells and no eval counters move, exactly
        as the same subtree behaves inside a per-candidate sampled
        evaluation."""
        cache = self._grid_cache
        hit = cache.get(id(expr))
        if hit is not None and hit[0] is expr:
            return hit[1]
        names = self.signature.param_names
        runner = expression_runner(expr)
        out: List[Any] = []
        for example in self.examples:
            env = Env(
                params=dict(zip(names, example.args)),
                lasy_fns=self.lasy_fns,
                fuel=Fuel(_SIGNATURE_FUEL),
            )
            try:
                value = runner(env)
            except EvaluationError:
                value = ERROR
            except Exception:
                value = ERROR
            out.append(value)
        values = tuple(out)
        self._grid_store(id(expr), expr, values)
        return values

    def _grid_eval(self, expr: Expr, bindings) -> Tuple[Any, ...]:
        """Per-cell grid fallback: one fresh fueled evaluation per
        (example, binding), the exact loop body of
        :meth:`_sampled_signature` minus the adapter."""
        names = self.signature.param_names
        runner = expression_runner(expr)
        cells: List[Any] = []
        for example in self.examples:
            params = dict(zip(names, example.args))
            for binding in bindings:
                env = Env(
                    params=params,
                    vars=dict(binding),
                    lasy_fns=self.lasy_fns,
                    fuel=Fuel(_SIGNATURE_FUEL),
                )
                try:
                    value = runner(env)
                except EvaluationError:
                    value = ERROR
                except Exception:
                    value = ERROR
                cells.append(value)
        return tuple(cells)


def split_generations(
    entries: Iterable[PoolEntry], newest: int
) -> Tuple[List[PoolEntry], List[PoolEntry], List[PoolEntry]]:
    """``(older, fresh, upto)``: the entries strictly before ``newest``,
    exactly at it, and both, each in the order given. ``upto`` is built
    in the same scan, NOT as ``older + fresh``: entry lists are not
    always generation-sorted (a redo of an incomplete generation appends
    previous-generation entries after newer ones), and combination order
    decides which of two semantically equal candidates wins admission."""
    older: List[PoolEntry] = []
    fresh: List[PoolEntry] = []
    upto: List[PoolEntry] = []
    for entry in entries:
        generation = entry.generation
        if generation < newest:
            older.append(entry)
            upto.append(entry)
        elif generation == newest:
            fresh.append(entry)
            upto.append(entry)
    return older, fresh, upto


def syntactic_key(expr: Expr) -> Tuple:
    """The syntactic seen-set's key for a canonical expression:
    ``(nt, function, args)`` for a call, which the enumerator can form
    before the call is built (:meth:`PoolStore.offer_combo`), and
    ``(nt, expr)`` for anything else. Two calls are equal exactly when
    their triples are, so membership is that of the expressions."""
    if type(expr) is Call:
        return (expr.nt, expr.func, expr.args)
    return (expr.nt, expr)


def _straight_line(expr: Expr) -> bool:
    """Whether ``expr`` has only parameter, constant and eager call
    nodes: no lambdas, variables, recursion, LaSy calls, conditionals,
    loops or lazy components."""
    kind = type(expr)
    if kind is Call:
        return not expr.func.lazy and all(_straight_line(a) for a in expr.args)
    return kind is Param or kind is Const


def _mentions_lasy(expr: Expr, names) -> bool:
    return any(
        isinstance(node, LasyCall) and node.func_name in names
        for node in expr.walk()
    )


def _value_type(value: Any, dsl: Dsl) -> Type:
    """Best-effort runtime type of a constant (for the no-DSL mode)."""
    from ..types import BOOL, INT, STRING, Type as _Type, list_of

    if isinstance(value, bool):
        return BOOL
    if isinstance(value, int):
        return INT
    if isinstance(value, str):
        return STRING
    if isinstance(value, tuple):
        if value and isinstance(value[0], str):
            return list_of(STRING)
        if value and isinstance(value[0], int):
            return list_of(INT)
        return list_of(_Type("any"))
    type_name = type(value).__name__.lower()
    for ty in dsl.nonterminals.values():
        if ty.name == type_name:
            return ty
    return _Type("any")


def _recursion_shape_ok(expr: Expr) -> bool:
    """Structural sanity for recursive expressions: at most two self-calls,
    no nested self-calls, and every self-call must mention a parameter or
    variable (a constant-argument self-call either diverges or is a
    constant). These exemptions keep the un-deduplicated recursive corner
    of the pool from exploding."""
    if not expr.has_recurse:
        return True
    recurse_nodes = [n for n in expr.walk() if isinstance(n, Recurse)]
    if not recurse_nodes:
        return True
    if len(recurse_nodes) > 2:
        return False
    for node in recurse_nodes:
        inner = [
            d
            for arg in node.args
            for d in arg.walk()
            if isinstance(d, Recurse)
        ]
        if inner:
            return False
        mentions_input = any(
            isinstance(d, (Param, Var))
            for arg in node.args
            for d in arg.walk()
        )
        if not mentions_input:
            return False
    return True


def _matches_type(value: Any, ty: Type) -> bool:
    """Shallow runtime type check used when harvesting var samples."""
    if ty.name == "int":
        return isinstance(value, int) and not isinstance(value, bool)
    if ty.name in ("str", "char"):
        return isinstance(value, str)
    if ty.name == "bool":
        return isinstance(value, bool)
    if ty.is_list:
        return isinstance(value, tuple) and all(
            _matches_type(v, ty.element_type()) for v in value[:3]
        )
    if ty.name == "xml":
        return hasattr(value, "elements") and hasattr(value, "tag")
    if ty.name == "table":
        return isinstance(value, tuple)
    return False
