"""The layered synthesis engine.

The DBS core is split into four explicit layers (see
docs/architecture.md):

* :class:`~repro.core.engine.pool.PoolStore` — the signature-indexed,
  hash-consed expression store: canonicalization, syntactic/semantic
  dedup, cached value vectors, and the incremental
  ``extend_examples`` / ``refresh_lasy`` operations that let one store
  live across a whole TDS example sequence;
* :class:`~repro.core.engine.enumerator.Enumerator` — grammar-driven
  generation (Algorithm 2's "generate new expressions" step) over a
  store it does not own;
* :class:`~repro.core.engine.registry.StrategyRegistry` — loops,
  composition, and conditional synthesis as named plugins with a
  uniform ``(session, budget, tracer) -> Optional[Expr]`` interface;
* :class:`~repro.core.engine.session.SynthesisSession` — threads the
  persistent store, tester, budget, metrics registry, and tracer
  through consecutive DBS runs.

On top of those, the service layers (see docs/service.md):

* :mod:`~repro.core.engine.keys` — explicit session identity:
  :class:`~repro.core.engine.keys.SessionKey` over (DSL, signature,
  LaSy-state fingerprint, pool options, example-signature prefix);
* :class:`~repro.core.engine.cache.SessionCache` — a bounded LRU of
  suspended warm sessions with exclusive checkout and optional
  journal persistence, the store behind ``repro serve``.

:mod:`~repro.core.engine.schedule` picks which queued example a TDS
session admits next, and under what per-iteration deadline (see
docs/scheduling.md).
"""

from .cache import SessionCache
from .enumerator import Enumerator, lambda_nt
from .keys import SessionKey, example_fingerprints, session_key_for
from .pool import PoolEntry, PoolOptions, PoolStore
from .registry import StrategyEntry, StrategyRegistry, default_registry
from .session import SynthesisSession
from .testing import Tester

__all__ = [
    "Enumerator",
    "PoolEntry",
    "PoolOptions",
    "PoolStore",
    "SessionCache",
    "SessionKey",
    "StrategyEntry",
    "StrategyRegistry",
    "SynthesisSession",
    "Tester",
    "default_registry",
    "example_fingerprints",
    "lambda_nt",
    "session_key_for",
]
