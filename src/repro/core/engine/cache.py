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

**Persistence.** With a ``journal_path`` the cache journals every
change to its membership through :class:`repro.exec.checkpoint.Journal`,
one fsync'd JSONL record per change, written before the call returns:

* a *full* record (base64 pickle of ``(key, session)``) when a release
  leaves its session in the cache and is not a touch;
* a *touch* record (key and cost only) when the session released under
  a key is the one that wrote that key's latest full record and has
  not changed since: no new ``TdsStep`` and the same lifetime DBS
  seconds (every admission and every DBS call appends a step);
* a *checkout* record on every hit, since :meth:`~SessionCache.acquire`
  removes the entry;
* no record when a release evicts its own entry, which leaves the
  membership as it was.

On construction the cache replays the journal by simulating itself over
the records, and unpickles only the survivors — so a SIGKILLed server
restarted over the same journal comes back with exactly the warm set it
died with, keys and order, minus at most the one record the kill tore
(which ``Journal.scan`` drops). Sessions that resist pickling (e.g. a
DSL built over closures) are cached in memory only.
"""

from __future__ import annotations

import base64
import json
import os
import pickle
import threading
from collections import OrderedDict
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from ...exec.checkpoint import Journal
from ...obs import metrics as obs_metrics
from ..dsl import Example
from .keys import SessionKey, example_fingerprints

# Journal records are versioned so a layout change can skip (not crash
# on) old blobs. Version 3: full/touch/checkout records, and blobs that
# rebuild expressions through their constructors (version-2 blobs carry
# hashes of the PYTHONHASHSEED that wrote them). Version 4: a pool's
# syntactic seen-set keys calls as ``(nt, function, args)``
# (engine.pool.syntactic_key); a version-3 blob's ``(nt, call)`` keys
# would never match, and a restored session could re-admit a loser.
# Version 5: ``SessionKey`` lost its always-empty ``pool_options``
# field, and the options fingerprint lost ``DbsOptions``'s fuel and
# recursion-depth fields (now the tester's constants), so a version-4
# record's key would never match.
_JOURNAL_VERSION = 5

# The attribute a session carries after a full record of it was
# journaled: ``(token, key, version)``. ``token`` is the object
# ``SessionCache._written[key]`` holds while that record is the key's
# latest full one; ``version`` is :func:`_version` at the time. It names
# a record in this process's journal only, so it never travels in a
# pickle (``TdsSession.__reduce__`` drops it).
STAMP = "_journal_stamp"


def _version(session: Any) -> Optional[Tuple[int, float]]:
    """What a touch record vouches is unchanged since the session's last
    full record, or None (always write a full record) for a session
    without steps."""
    steps = getattr(session, "steps", None)
    if steps is None:
        return None
    return len(steps), getattr(session, "total_dbs_seconds", 0.0)


def _eviction_victim(keys: Iterable[Any], costs: Mapping[Any, float]) -> Any:
    """The entry an over-capacity cache evicts: the smallest cost, the
    first-seen among ties (strict ``<``), so equal-cost entries fall out
    in insertion (LRU) order — plain LRU when no session reports a
    cost. Shared by the live cache and journal replay."""
    victim: Any = None
    victim_cost = 0.0
    for key in keys:
        cost = costs.get(key, 0.0)
        if victim is None or cost < victim_cost:
            victim, victim_cost = key, cost
    return victim


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
        self._c_full = self.metrics.counter("serve.cache.journal.full")
        self._c_touch = self.metrics.counter("serve.cache.journal.touch")
        self._c_checkout = self.metrics.counter("serve.cache.journal.checkout")
        self._c_bytes = self.metrics.counter("serve.cache.journal.bytes")
        self._lock = threading.RLock()
        self._entries: "OrderedDict[SessionKey, Any]" = OrderedDict()
        # Rebuild-cost estimate per entry (dbs-seconds the session has
        # spent over its lifetime); drives eviction order.
        self._costs: Dict[SessionKey, float] = {}
        # key -> token of the session whose full record is the key's
        # latest in the journal (see STAMP). Checkout keeps the token, so
        # an unchanged session coming back writes a touch; a full record
        # from another session replaces it.
        self._written: Dict[SessionKey, object] = {}
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
            if self._journal is not None:
                self._append(
                    self._c_checkout, {"kind": "checkout", "key": repr(best_key)}
                )
            return session, len(best_key.examples)

    def release(self, session: Any, key: Optional[SessionKey] = None) -> SessionKey:
        """Suspend ``session`` and insert it at the MRU end under its
        current identity key, evicting the cheapest-to-rebuild entry
        over capacity (least-recent among cost ties — which includes the
        new entry itself, so a trivial session never displaces an
        expensive one). Journals the release when a journal is
        configured and the session stayed in the cache."""
        if hasattr(session, "suspend"):
            session.suspend()
        if key is None:
            key = session.session_key()
        with self._lock:
            self._entries.pop(key, None)
            self._entries[key] = session
            cost = float(getattr(session, "rebuild_cost_s", 0.0) or 0.0)
            self._costs[key] = cost
            self._c_insert.value += 1
            self._evict_over_capacity()
            if self._journal is not None and key in self._entries:
                self._journal_release(key, session, cost)
        return key

    def _evict_over_capacity(self) -> None:
        """Drop min-cost entries until within capacity (lock held)."""
        while len(self._entries) > self.capacity:
            victim = _eviction_victim(self._entries, self._costs)
            self._forget(self._entries.pop(victim))
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
                "journal_full": int(self._c_full.value),
                "journal_touch": int(self._c_touch.value),
                "journal_checkout": int(self._c_checkout.value),
                "journal_bytes": int(self._c_bytes.value),
            }

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._costs.clear()
            self._written.clear()

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

    def _journal_release(self, key: SessionKey, session: Any, cost: float) -> None:
        """Journal a release that left ``session`` in the cache (lock
        held): a touch when the journal already holds this session,
        unchanged, as the key's latest full record; a full record
        otherwise."""
        record: Dict[str, Any] = {"key": repr(key), "cost": cost}
        version = _version(session)
        stamp = getattr(session, STAMP, None)
        if (
            stamp is not None
            and self._written.get(key) is stamp[0]
            and stamp[2] == version
        ):
            record["kind"] = "touch"
            self._append(self._c_touch, record)
            return
        try:
            blob = base64.b64encode(pickle.dumps((key, session))).decode("ascii")
        except Exception:
            # In-memory only: something in the session (a closure-built
            # DSL, a foreign domain value) resists pickling. The live
            # cache still works; only restart warmth is lost for it.
            return
        record["kind"] = "full"
        self._append(self._c_full, record, blob)
        self._claim(key, session)

    def _claim(self, key: SessionKey, session: Any) -> None:
        """Make ``session``, as it is now, the owner of ``key``'s latest
        full record (lock held)."""
        self._forget(session)
        token = object()
        self._written[key] = token
        version = _version(session)
        if version is not None:
            setattr(session, STAMP, (token, key, version))

    def _forget(self, session: Any) -> None:
        """Retire ``session``'s claim on a key's latest full record
        (lock held): it was evicted, or is about to claim a newer one."""
        stamp = getattr(session, STAMP, None)
        if stamp is not None and self._written.get(stamp[1]) is stamp[0]:
            del self._written[stamp[1]]

    def _append(self, counter, record: Dict[str, Any], blob: str = "") -> None:
        """Append one fsync'd record (lock held) and count it. The byte
        count is the JSONL line's; base64 needs no JSON escaping, so the
        blob adds exactly its length."""
        record["v"] = _JOURNAL_VERSION
        if blob:
            record["blob"] = ""
            size = len(json.dumps(record)) + len(blob) + 1
            record["blob"] = blob
        else:
            size = len(json.dumps(record)) + 1
        self._journal.append(record)
        counter.value += 1
        self._c_bytes.value += size

    def _replay_journal(self, path: str) -> int:
        """Rebuild the cache from a journal by simulating the live cache
        over its records, in order: releases (full and touch) insert
        with the recorded cost and evict by the live rule, checkouts
        remove. Only the survivors' blobs are unpickled, each from its
        key's latest full record. The torn tail a kill left behind is
        truncated so later appends keep the file sound."""
        records, valid_bytes = Journal.scan(path)
        if os.path.exists(path):
            with open(path, "rb+") as fh:
                fh.truncate(valid_bytes)
        live: "OrderedDict[str, float]" = OrderedDict()
        blobs: Dict[str, str] = {}
        for record in records:
            try:
                if record["v"] != _JOURNAL_VERSION:
                    continue
                kind, key = record["kind"], record["key"]
                if kind == "checkout":
                    live.pop(key, None)
                    continue
                cost = float(record["cost"])
                if kind == "full":
                    blobs[key] = record["blob"]
                elif kind != "touch" or key not in blobs:
                    continue
            except (KeyError, TypeError, ValueError):
                continue  # another layout or a foreign record: skip, don't die
            live.pop(key, None)
            live[key] = cost
            while len(live) > self.capacity:
                del live[_eviction_victim(live, live)]
        for key_repr, cost in live.items():
            try:
                key, session = pickle.loads(base64.b64decode(blobs[key_repr]))
            except Exception:
                continue  # version drift / foreign record: skip, don't die
            self._entries[key] = session
            self._costs[key] = cost
            # The key's latest full record is this very session, so an
            # unchanged release may touch it.
            self._claim(key, session)
        return len(self._entries)
