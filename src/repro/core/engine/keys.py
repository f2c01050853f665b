"""Session identity keys (the cache-key layer of synthesis-as-a-service).

A warm :class:`~.session.SynthesisSession` (and the ``TdsSession`` that
owns it) is only reusable for a request that asks for *the same search*:
same DSL, same function signature, same visible LaSy state, same pool
options — and an example sequence that **extends the held prefix**. A
:class:`SessionKey` makes that identity explicit and hashable, so a
session can live in a keyed store (:class:`~.cache.SessionCache`)
instead of being implicitly owned by one ``run_tds``/``run_lasy`` call.

Fingerprints, not values, go into the key:

* examples are fingerprinted per-example through
  :func:`~repro.core.values.strict_key` (frozen as semantic dedup
  freezes them, with bools tagged at every depth), falling back to
  ``repr`` for unfreezable domain values;
* the LaSy state is fingerprinted by *content* — a synthesized helper
  by its signature and program text, a lookup by its frozen table —
  because the mappings themselves are rebuilt per run and identity
  comparison would never match across requests;
* options are fingerprinted with their wall-clock knobs (``timeout_s``)
  excluded: a deadline changes how long a search may run, not what it
  searches, so a tighter or looser wall must not force a cold build.

**The exact-prefix contract.** At this layer two example lists match
only when one is a *plain prefix* of the other, element-for-element and
in order: TDS consumes examples in order and the cached session's
``P_k`` depends on that order, so a reordered prefix is a different
session. Order canonicalization lives one layer down, where it is
sound: the *pool* only cares about the example multiset (its vectors
are per-example columns), so ``SynthesisSession`` reorders the held
pool columns when a run permutes the prefix (see
``SynthesisSession._extension_suffix``) rather than rebuilding cold.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Any, Iterable, Mapping, Optional, Sequence, Tuple

from ..dsl import Example, Signature
from ..program import LookupFunction, SynthesizedFunction
from ..values import strict_key

ExampleFp = Tuple


def example_fingerprint(example: Example) -> ExampleFp:
    """A hashable fingerprint of one example (args and output), with
    bools told apart from ints at every depth (:func:`strict_key`)."""
    try:
        return tuple(map(strict_key, (*example.args, example.output)))
    except TypeError:
        return ("repr", repr(example.args), repr(example.output))


def example_fingerprints(examples: Iterable[Example]) -> Tuple[ExampleFp, ...]:
    return tuple(example_fingerprint(e) for e in examples)


def lasy_fingerprint(
    lasy_fns: Mapping[str, Any], names: Optional[Iterable[str]] = None
) -> Tuple:
    """Content fingerprint of the LaSy state a session can observe.

    ``names`` restricts the fingerprint to the helpers the session's
    DSL can actually call (its ``lasy_signatures``); a single-function
    program then fingerprints to ``()`` no matter what else the run
    defines, which is what lets repeated single-function requests hit
    the cache.
    """
    selected = sorted(names) if names is not None else sorted(lasy_fns)
    out = []
    for name in selected:
        fn = lasy_fns.get(name)
        if fn is None:
            out.append((name, "absent"))
        elif isinstance(fn, SynthesizedFunction):
            out.append((name, "fn", str(fn.signature), str(fn.body)))
        elif isinstance(fn, LookupFunction):
            try:
                table = tuple(sorted(fn.table.items(), key=repr))
            except Exception:
                table = tuple(sorted(repr(kv) for kv in fn.table.items()))
            out.append((name, "lookup", table))
        else:
            out.append((name, "opaque", repr(fn)))
    return tuple(out)


def options_fingerprint(options: Any) -> Tuple:
    """Fingerprint of a ``TdsOptions`` (or any dataclass) with the
    wall-clock knobs excluded.

    ``timeout_s`` (both the TDS-level and the nested DBS-level one) is a
    *budget*, not a search parameter: the same session may serve
    requests under different deadlines. Everything else — feature
    switches, fuel, the example scheduler — changes what gets searched
    and therefore keys the session.
    """
    if options is None:
        return ("default",)
    out = []
    for f in fields(options):
        if f.name == "timeout_s":
            continue
        value = getattr(options, f.name)
        if f.name == "schedule":
            # Fingerprint the *effective* scheduler: None defers to the
            # REPRO_TDS_SCHEDULE environment switch, and an explicit
            # "fifo" must key identically to the default — admission
            # order shapes the session's program and pool, so the name
            # matters, but how it was spelled does not.
            from .schedule import resolve_schedule

            value = resolve_schedule(value)
        if hasattr(value, "__dataclass_fields__"):
            out.append((f.name,) + options_fingerprint(value))
        else:
            out.append((f.name, repr(value)))
    return tuple(out)


@dataclass(frozen=True)
class SessionKey:
    """Explicit identity of a (cached) synthesis session.

    ``examples`` is the fingerprint tuple of the example prefix the
    session has consumed; :meth:`base` strips it, leaving the bucket
    identity the cache indexes lookups by.
    """

    dsl: str
    signature: str
    lasy_state: Tuple = ()
    options: Tuple = ()
    examples: Tuple[ExampleFp, ...] = field(default=())

    def base(self) -> "SessionKey":
        """The key with the example prefix stripped."""
        if not self.examples:
            return self
        return replace(self, examples=())

    def with_examples(
        self, examples: Sequence[Example]
    ) -> "SessionKey":
        return replace(self, examples=example_fingerprints(examples))

    def extends(self, prefix: Tuple[ExampleFp, ...]) -> bool:
        """Whether this key's examples extend ``prefix`` exactly (the
        exact-prefix contract; see module docstring)."""
        return (
            len(self.examples) >= len(prefix)
            and self.examples[: len(prefix)] == prefix
        )


def session_key_for(
    dsl_name: str,
    signature: Signature,
    *,
    lasy_fns: Mapping[str, Any],
    lasy_names: Optional[Iterable[str]] = None,
    options: Any = None,
    examples: Sequence[Example] = (),
) -> SessionKey:
    """Build a :class:`SessionKey` from live session ingredients."""
    return SessionKey(
        dsl=dsl_name,
        signature=str(signature),
        lasy_state=lasy_fingerprint(lasy_fns, lasy_names),
        options=options_fingerprint(options),
        examples=example_fingerprints(examples),
    )
