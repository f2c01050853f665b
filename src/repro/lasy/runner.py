"""Synthesize a whole LaSy program.

The runner walks the program's ``require`` statements *in order*,
dispatching each to the TDS session of the function it constrains.
Lookup declarations simply accumulate their examples (§2.2). Functions
may call previously-synthesized LaSy functions (``_LASY_FN``): the
shared ``lasy_fns`` mapping is updated after every successful step, so a
later function sees the helpers' latest programs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Union

from ..core.budget import Budget, CancelToken, default_budget
from ..obs.trace import get_tracer
from ..core.dsl import Example, Signature
from ..core.engine.cache import SessionCache
from ..core.engine.keys import session_key_for
from ..core.program import LookupFunction, SynthesizedFunction
from ..core.tds import TdsOptions, TdsResult, TdsSession
from ..domains.registry import Domain, get_domain
from .program import LasyProgram, RequireStmt

SynthesizedCallable = Union[SynthesizedFunction, LookupFunction]


@dataclass
class LasyRunResult:
    """Outcome of synthesizing a LaSy program."""

    program: LasyProgram
    functions: Dict[str, SynthesizedCallable]
    results: Dict[str, TdsResult]
    success: bool
    elapsed: float
    steps: List = field(default_factory=list)
    # The live TDS sessions, kept so a deadline-truncated run can be
    # resumed warm (their partial component pools survive truncation);
    # see resume_lasy. Empty when the run released its sessions into a
    # SessionCache — ownership moved to the cache, and aliasing a
    # session another request may have checked out would race.
    sessions: Dict[str, TdsSession] = field(default_factory=dict, repr=False)
    # Per-function cache outcome when a SessionCache served the run:
    # {"hit": bool, "reused_examples": k} — a hit skipped TDS iterations
    # 1..k via the warm engine's extend_examples path.
    cache_info: Dict[str, Dict[str, Any]] = field(default_factory=dict)

    @property
    def truncated(self) -> bool:
        """Whether any function's synthesis was cut by a hard deadline."""
        return any(
            step.action == "timeout"
            for result in self.results.values()
            for step in result.steps
        )

    @property
    def dbs_times(self) -> List[float]:
        """All DBS invocation times across all functions (Fig. 10)."""
        out: List[float] = []
        for result in self.results.values():
            out.extend(result.dbs_times)
        return out

    def __getitem__(self, name: str) -> SynthesizedCallable:
        return self.functions[name]


def run_lasy(
    program: LasyProgram,
    domain: Optional[Domain] = None,
    budget_factory: Optional[Callable[[], Budget]] = None,
    options: Optional[TdsOptions] = None,
    *,
    session_cache: Optional[SessionCache] = None,
    cancel: Optional[CancelToken] = None,
) -> LasyRunResult:
    """Synthesize every function of ``program``; returns callables.

    With a ``session_cache``, each function's session is *checked out*
    of the cache when a warm one holds a prefix of its examples (the
    TDS iterations for the held prefix are skipped; the engine extends
    its pool instead of rebuilding) and released back — suspended,
    under its new identity key — when the run finishes. ``cancel``
    threads a cooperative cancellation token through every session
    (the server's per-request admission control).
    """
    start = time.monotonic()
    domain = domain or get_domain(program.language)
    dsl = domain.dsl()

    lasy_fns: Dict[str, Any] = {}
    signatures: Dict[str, Signature] = {
        decl.name: decl.signature for decl in program.declarations
    }
    lookups: Dict[str, LookupFunction] = {}
    sessions: Dict[str, TdsSession] = {}
    cache_info: Dict[str, Dict[str, Any]] = {}
    skip: Dict[str, int] = {}

    # Coerce every example once; the per-function lists feed both the
    # cache lookups (which need the full sequence upfront) and the
    # require loop below.
    coerced = [
        _coerce_example(domain, signatures[stmt.func_name], stmt)
        for stmt in program.examples
    ]
    fn_examples: Dict[str, List[Example]] = {}
    for stmt, example in zip(program.examples, coerced):
        fn_examples.setdefault(stmt.func_name, []).append(example)

    # Cache keys fingerprint the LaSy state a session observed at
    # *release* (end of run), when every lookup table is full. Lookup
    # contents are pure data determined by the program source, so the
    # acquire-time key can fingerprint against pre-filled shadow copies
    # — the live lookups still fill example-by-example in the require
    # loop, keeping cold behaviour identical with and without a cache.
    lookup_shadows: Dict[str, LookupFunction] = {}
    if session_cache is not None:
        for decl in program.declarations:
            if decl.is_lookup:
                shadow = LookupFunction(decl.signature)
                for example in fn_examples.get(decl.name, []):
                    shadow.add(example)
                lookup_shadows[decl.name] = shadow

    for decl in program.declarations:
        if decl.is_lookup:
            lookup = LookupFunction(decl.signature)
            lookups[decl.name] = lookup
            lasy_fns[decl.name] = lookup
            continue
        other_signatures = {
            name: sig
            for name, sig in signatures.items()
            if name != decl.name
        }
        session: Optional[TdsSession] = None
        if session_cache is not None:
            # Helper *functions* synthesized later in this run are still
            # unknown here, so multi-function programs fingerprint to the
            # partial state and usually miss — conservative by
            # construction, never wrong. Lookups and already-synthesized
            # helpers fingerprint to their final content, which is what
            # lets the dominant service patterns (single function, or
            # function + lookups) hit on a repeat.
            base_key = session_key_for(
                getattr(dsl, "name", type(dsl).__name__),
                decl.signature,
                lasy_fns={**lasy_fns, **lookup_shadows},
                lasy_names=other_signatures,
                options=options if options is not None else TdsOptions(),
            )
            session, matched = session_cache.acquire(
                base_key, fn_examples.get(decl.name, [])
            )
            if session is not None:
                session.rebind_lasy(lasy_fns, other_signatures)
                session.budget_factory = budget_factory or default_budget
                session.options = (
                    options if options is not None else TdsOptions()
                )
                session.reset_clock(cancel=cancel)
                if not session.satisfies_all():
                    session.failures_in_a_row = max(
                        1, session.failures_in_a_row
                    )
                skip[decl.name] = matched
                cache_info[decl.name] = {
                    "hit": True,
                    "reused_examples": matched,
                }
                if session.program is not None:
                    lasy_fns[decl.name] = session.current_function()
        if session is None:
            session = TdsSession(
                decl.signature,
                dsl,
                budget_factory=budget_factory,
                lasy_fns=lasy_fns,
                lasy_signatures=other_signatures,
                options=options,
                cancel=cancel,
            )
            if session_cache is not None:
                cache_info[decl.name] = {"hit": False, "reused_examples": 0}
        sessions[decl.name] = session

    tracer = get_tracer()
    steps = []
    consumed: Dict[str, int] = {}
    for stmt, example in zip(program.examples, coerced):
        if stmt.func_name in lookups:
            lookups[stmt.func_name].add(example)
            continue
        index = consumed.get(stmt.func_name, 0)
        consumed[stmt.func_name] = index + 1
        if index < skip.get(stmt.func_name, 0):
            # The checked-out session consumed this example in an
            # earlier request; its program already reflects it.
            continue
        session = sessions[stmt.func_name]
        with tracer.span("lasy.require", function=stmt.func_name) as span:
            # feed() == add_example() under fifo; a queueing scheduler
            # buffers the example and admits it in its own order when
            # finalize() drains the session.
            step = session.feed(example)
            span.set(action=step.action)
        steps.append((stmt.func_name, step))
        if session.program is not None:
            lasy_fns[stmt.func_name] = session.current_function()

    results: Dict[str, TdsResult] = {}
    success = True
    for name, session in sessions.items():
        with tracer.span("lasy.finalize", function=name) as span:
            result = session.finalize()
            span.set(success=result.success)
        results[name] = result
        if result.program is not None:
            lasy_fns[name] = session.current_function()
        success = success and result.success

    functions: Dict[str, SynthesizedCallable] = {}
    functions.update(lookups)
    for name, session in sessions.items():
        fn = session.current_function()
        if fn is not None:
            functions[name] = fn

    result_sessions = sessions
    if session_cache is not None:
        # Ownership moves to the cache; see LasyRunResult.sessions.
        for session in sessions.values():
            session_cache.release(session)
        result_sessions = {}

    return LasyRunResult(
        program=program,
        functions=functions,
        results=results,
        success=success,
        elapsed=time.monotonic() - start,
        steps=steps,
        sessions=result_sessions,
        cache_info=cache_info,
    )


def resume_lasy(
    previous: LasyRunResult,
    budget_factory: Optional[Callable[[], Budget]] = None,
    timeout_s: Optional[float] = None,
) -> LasyRunResult:
    """Resume a deadline-truncated :func:`run_lasy` run.

    Every unsatisfied session is re-finalized *warm* — its component
    pool survived the truncation, so work done before the deadline is
    not repeated. ``timeout_s`` re-arms (or, with ``0``, removes) the
    per-session wall; ``budget_factory`` swaps the per-DBS budget.
    Already-satisfied functions are left untouched.
    """
    start = time.monotonic()
    tracer = get_tracer()
    results: Dict[str, TdsResult] = dict(previous.results)
    success = True
    for name, session in previous.sessions.items():
        prior = results.get(name)
        if prior is not None and prior.success and session.satisfies_all():
            continue
        with tracer.span("lasy.resume", function=name) as span:
            result = session.resume(
                budget_factory=budget_factory, timeout_s=timeout_s
            )
            span.set(success=result.success)
        results[name] = result
        if result.program is not None:
            # Publish into the shared LaSy-function mapping so other
            # sessions' helpers see the resumed program.
            session.lasy_fns[name] = session.current_function()
    functions: Dict[str, SynthesizedCallable] = dict(previous.functions)
    for name, session in previous.sessions.items():
        fn = session.current_function()
        if fn is not None:
            functions[name] = fn
        success = success and results[name].success
    return LasyRunResult(
        program=previous.program,
        functions=functions,
        results=results,
        success=success,
        elapsed=time.monotonic() - start,
        steps=list(previous.steps),
        sessions=previous.sessions,
    )


def _coerce_example(
    domain: Domain, signature: Signature, stmt: RequireStmt
) -> Example:
    """Materialize LaSy literals into domain values (e.g. XML strings
    into XML trees) according to the declared parameter types."""
    args = tuple(
        domain.coerce(ty, value)
        for (_, ty), value in zip(signature.params, stmt.args)
    )
    output = domain.coerce(signature.return_type, stmt.output)
    return Example(args, output)


def synthesize(
    source: str,
    budget_factory: Optional[Callable[[], Budget]] = None,
    options: Optional[TdsOptions] = None,
) -> LasyRunResult:
    """Parse and synthesize LaSy source text — the library's front door.

    >>> result = synthesize('''
    ...     language pexfun;
    ...     function int Id(int x);
    ...     require Id(3) == 3;
    ... ''')  # doctest: +SKIP
    """
    from .parser import parse_lasy

    return run_lasy(
        parse_lasy(source),
        budget_factory=budget_factory,
        options=options,
    )
