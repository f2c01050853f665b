"""A bounded cache of warm synthesis sessions, keyed by
:class:`~.keys.SessionKey`, evicting the cheapest-to-rebuild entry.

This is the piece that turns per-sequence pool reuse (PR 3) into
*cross-request* reuse: a finished request's :class:`~..tds.TdsSession`
— with its warm engine, pool entries, and enumeration frontier — is
released into the cache under its identity key, and a later request
whose examples extend the held prefix checks it out and skips
generations ``1..k`` through the engine's ``extend_examples`` path
instead of rebuilding the world cold.

Checkout is **exclusive**: :meth:`SessionCache.acquire` removes the
entry, so two concurrent requests can never mutate one session (the
loser of the race simply builds cold and both release afterwards — the
later release wins the slot). Matching follows the exact-prefix
contract of ``engine.keys``: an entry is eligible when its base key
matches and its example-fingerprint prefix is a plain prefix of the
request's; the longest held prefix wins. Reordered prefixes are *not*
matched here — order canonicalization lives inside the engine
(``PoolStore.reorder_examples``), where the column permutation is
sound; at this layer a different order is a different session.

**Eviction is cost-aware, not plain LRU.** Sessions are not equally
expensive to recreate: one that burned 30 DBS-seconds growing its pool
is worth far more than one that solved in 10ms, yet plain LRU would
evict whichever went longest unused. Each entry carries the session's
``rebuild_cost_s`` (its lifetime DBS seconds — exactly the work a cold
rebuild would repeat), and over capacity the cache evicts the entry
with the *smallest* cost, breaking ties by least-recent insertion. With
no cost signal (all zeros) this degrades to exactly the old LRU order.

**Persistence.** With a ``journal_path`` the cache writes one fsync'd
record per release through :class:`repro.exec.checkpoint.Journal`
(pickled ``(key, session)``, base64 in JSONL) and replays the journal
on construction, applying the same insert/evict discipline a live cache
would — so a SIGKILLed server restarted over the same journal comes
back with exactly the warm set it died with, minus at most the one
record the kill tore (which ``Journal.scan`` drops). Sessions that
resist pickling (e.g. a DSL built over closures) are cached in memory
only.
"""

from __future__ import annotations

import base64
import pickle
import threading
from collections import OrderedDict
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ...exec.checkpoint import Journal
from ...obs import metrics as obs_metrics
from ..dsl import Example
from .keys import SessionKey, example_fingerprints

# Journal records are versioned so a future layout change can skip (not
# crash on) old blobs. Version 2: the options fingerprint in every key
# lost four fields, so no new request can hit a version-1 session.
_JOURNAL_VERSION = 2


class SessionCache:
    """Bounded cache of suspended, warm TDS sessions (thread-safe);
    evicts the cheapest-to-rebuild entry, LRU among ties."""

    def __init__(
        self,
        capacity: int = 8,
        metrics: Optional[obs_metrics.Registry] = None,
        journal_path: Optional[str] = None,
    ):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.metrics = metrics if metrics is not None else obs_metrics.GLOBAL
        self._c_hit = self.metrics.counter("serve.cache.hit")
        self._c_miss = self.metrics.counter("serve.cache.miss")
        self._c_insert = self.metrics.counter("serve.cache.insert")
        self._c_evicted = self.metrics.counter("serve.cache.evicted")
        self._c_restored = self.metrics.counter("serve.cache.restored")
        self._lock = threading.RLock()
        self._entries: "OrderedDict[SessionKey, Any]" = OrderedDict()
        # Rebuild-cost estimate per entry (dbs-seconds the session has
        # spent over its lifetime); drives eviction order.
        self._costs: Dict[SessionKey, float] = {}
        self.journal_path = journal_path
        self._journal: Optional[Journal] = None
        if journal_path is not None:
            restored = self._replay_journal(journal_path)
            self._journal = Journal(journal_path, mode="a")
            self._c_restored.value += restored

    # -- checkout ------------------------------------------------------

    def acquire(
        self, base_key: SessionKey, examples: Sequence[Example]
    ) -> Tuple[Optional[Any], int]:
        """Check out the warm session holding the longest prefix of
        ``examples`` under ``base_key``; ``(session, matched)`` where
        ``matched`` is how many leading examples the session has already
        consumed, or ``(None, 0)`` on a miss. The entry is *removed* —
        the caller owns the session until it releases it back."""
        base = base_key.base()
        fps = example_fingerprints(examples)
        with self._lock:
            best_key: Optional[SessionKey] = None
            for key in self._entries:
                if key.base() != base:
                    continue
                held = key.examples
                if len(held) > len(fps) or fps[: len(held)] != held:
                    continue
                if best_key is None or len(held) > len(best_key.examples):
                    best_key = key
            if best_key is None:
                self._c_miss.value += 1
                return None, 0
            session = self._entries.pop(best_key)
            self._costs.pop(best_key, None)
            self._c_hit.value += 1
            return session, len(best_key.examples)

    def release(self, session: Any, key: Optional[SessionKey] = None) -> SessionKey:
        """Suspend ``session`` and insert it at the MRU end under its
        current identity key, evicting the cheapest-to-rebuild entry
        over capacity (least-recent among cost ties — which includes the
        new entry itself, so a trivial session never displaces an
        expensive one). Appends the release to the journal when one is
        configured."""
        if hasattr(session, "suspend"):
            session.suspend()
        if key is None:
            key = session.session_key()
        with self._lock:
            self._entries.pop(key, None)
            self._entries[key] = session
            self._costs[key] = float(
                getattr(session, "rebuild_cost_s", 0.0) or 0.0
            )
            self._c_insert.value += 1
            self._evict_over_capacity()
            if self._journal is not None:
                self._append_journal(key, session)
        return key

    def _evict_over_capacity(self) -> None:
        """Drop min-cost entries until within capacity (lock held).
        Strict ``<`` keeps the first-seen minimum, so equal-cost entries
        fall out in insertion (LRU) order — plain LRU when no session
        reports a cost."""
        while len(self._entries) > self.capacity:
            victim: Optional[SessionKey] = None
            victim_cost = 0.0
            for key in self._entries:
                cost = self._costs.get(key, 0.0)
                if victim is None or cost < victim_cost:
                    victim, victim_cost = key, cost
            self._entries.pop(victim)
            self._costs.pop(victim, None)
            self._c_evicted.value += 1

    # -- introspection -------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def keys(self) -> List[SessionKey]:
        with self._lock:
            return list(self._entries)

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "size": len(self._entries),
                "capacity": self.capacity,
                "hits": int(self._c_hit.value),
                "misses": int(self._c_miss.value),
                "inserts": int(self._c_insert.value),
                "evicted": int(self._c_evicted.value),
                "restored": int(self._c_restored.value),
            }

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._costs.clear()

    def close(self) -> None:
        with self._lock:
            if self._journal is not None:
                self._journal.close()
                self._journal = None

    def __enter__(self) -> "SessionCache":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    # -- journal persistence -------------------------------------------

    def _append_journal(self, key: SessionKey, session: Any) -> None:
        try:
            blob = pickle.dumps((key, session))
        except Exception:
            # In-memory only: something in the session (a closure-built
            # DSL, a foreign domain value) resists pickling. The live
            # cache still works; only restart warmth is lost for it.
            return
        self._journal.append(
            {
                "v": _JOURNAL_VERSION,
                "key": repr(key),
                "blob": base64.b64encode(blob).decode("ascii"),
            }
        )

    def _replay_journal(self, path: str) -> int:
        """Rebuild the cache from a journal, replaying releases in order
        with the live insert/evict discipline: the survivors are exactly
        the last ``capacity`` distinct keys, and the torn tail a kill
        left behind is truncated so later appends keep the file sound."""
        import os

        records, valid_bytes = Journal.scan(path)
        if os.path.exists(path):
            with open(path, "rb+") as fh:
                fh.truncate(valid_bytes)
        # Dedup to the last record per key first (a later release of the
        # same key always supersedes), then replay the survivors through
        # the live insert/evict discipline — cost-aware, so an expensive
        # old session outlives many cheap recent ones, exactly as it
        # would have in the cache that wrote the journal.
        last: "OrderedDict[str, Dict[str, Any]]" = OrderedDict()
        for record in records:
            if record.get("v") != _JOURNAL_VERSION or "key" not in record:
                continue
            last.pop(record["key"], None)
            last[record["key"]] = record
        for record in last.values():
            try:
                blob = base64.b64decode(record["blob"])
                key, session = pickle.loads(blob)
            except Exception:
                continue  # version drift / foreign record: skip, don't die
            self._entries.pop(key, None)
            self._entries[key] = session
            self._costs[key] = float(
                getattr(session, "rebuild_cost_s", 0.0) or 0.0
            )
            self._evict_over_capacity()
        return len(self._entries)
