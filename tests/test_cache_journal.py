"""The session cache's journal (core/engine/cache.py, docs/service.md
§ Persistence): one pickle pass per session, expressions that load under
any hash seed, and a replay that rebuilds exactly the live cache."""

from __future__ import annotations

import json
import os
import pickle
import shutil
import subprocess
import sys
import textwrap

import pytest

from repro.core.budget import Budget
from repro.core.dsl import Example, Signature
from repro.core.engine import cache as cache_mod
from repro.core.engine.cache import SessionCache
from repro.core.engine.keys import session_key_for
from repro.core.engine.pool import PoolStore
from repro.core.incremental import WarmTdsSession
from repro.core.tds import TdsOptions, TdsSession, tds
from repro.core.types import INT
from repro.domains.registry import get_domain
from repro.exec.checkpoint import Journal
from repro.obs.metrics import Registry

SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "src"))
DSL = get_domain("pexfun").dsl()
OPTIONS = TdsOptions()

# Small pexfun functions, each with a fixed rebuild cost so eviction
# order does not depend on measured DBS seconds.
FUNCTIONS = {
    "F": [((3,), 4), ((10,), 11), ((0,), 1)],
    "G": [((3,), 6), ((5,), 10)],
    "H": [((4,), 3), ((9,), 8)],
    "K": [((2,), -2), ((7,), -7)],
}
COSTS = {"F": 5.0, "G": 4.0, "H": 1.0, "K": 10.0}


def _budget():
    return Budget(max_seconds=10, max_expressions=50_000)


def _signature(name):
    return Signature(name, (("x", INT),), INT)


def _examples(name, k):
    return [Example(args, out) for args, out in FUNCTIONS[name][:k]]


def _session(name):
    return TdsSession(_signature(name), DSL, budget_factory=_budget, options=OPTIONS)


def _request(cache, name, k):
    """One sequential request for the first ``k`` examples of ``name``."""
    result = tds(
        _signature(name),
        _examples(name, k),
        DSL,
        budget_factory=_budget,
        options=OPTIONS,
        session_cache=cache,
    )
    assert result.success


def _kinds(path):
    return [record.get("kind") for record in Journal.scan(path)[0]]


def _assert_replay_matches(cache, path, tmp_path):
    """A fresh cache over a copy of the journal holds the live keys in
    live order, each with the live session's program, steps and DBS
    seconds."""
    copy = str(tmp_path / "copy.jsonl")
    shutil.copy(path, copy)
    restored = SessionCache(capacity=cache.capacity, metrics=Registry(), journal_path=copy)
    try:
        assert restored.keys() == cache.keys()
        for key in cache.keys():
            live, back = cache._entries[key], restored._entries[key]
            assert back.program == live.program
            assert len(back.steps) == len(live.steps)
            assert back.total_dbs_seconds == live.total_dbs_seconds
    finally:
        restored.close()


def test_replay_mirrors_the_live_cache(tmp_path, monkeypatch):
    monkeypatch.setattr(
        TdsSession, "rebuild_cost_s", property(lambda s: COSTS[s.signature.name])
    )
    path = str(tmp_path / "cache.jsonl")
    cache = SessionCache(capacity=2, metrics=Registry(), journal_path=path)
    kinds = []

    def step(expected_kinds, expected_keys):
        held = [
            cache._entries[key].signature.name + str(len(key.examples))
            for key in cache.keys()
        ]
        assert held == expected_keys
        _assert_replay_matches(cache, path, tmp_path)
        kinds.extend(expected_kinds)

    _request(cache, "F", 1)
    step(["full"], ["F1"])
    # Hit then extend: the checked-out prefix leaves the cache.
    _request(cache, "F", 2)
    step(["checkout", "full"], ["F2"])
    # Warm repeat: the same session, unchanged, under the same key.
    _request(cache, "F", 2)
    step(["checkout", "touch"], ["F2"])
    _request(cache, "G", 1)
    step(["full"], ["F2", "G1"])
    # The cheapest newcomer evicts itself: the membership is unchanged.
    _request(cache, "H", 1)
    step([], ["F2", "G1"])

    # Two requests build F's 2-prefix at once: A checks the cached
    # session out, B misses and builds cold, B releases first. A comes
    # back unchanged, but B wrote the key in between, so A's release
    # must be a full record, not a touch that replays B.
    base = session_key_for(
        DSL.name, _signature("F"), lasy_fns={}, lasy_names={}, options=OPTIONS
    )
    a, matched = cache.acquire(base, _examples("F", 2))
    assert matched == 2
    assert cache.acquire(base, _examples("F", 2)) == (None, 0)
    b = _session("F")
    for example in _examples("F", 2):
        b.feed(example)
    b.finalize()
    cache.release(b)
    step(["checkout", "full"], ["G1", "F2"])
    a.reset_clock()
    a.finalize()
    cache.release(a)
    step(["full"], ["G1", "F2"])
    assert cache._entries[cache.keys()[1]] is a

    # An expensive newcomer evicts the cheapest entry.
    _request(cache, "K", 1)
    step(["full"], ["F2", "K1"])
    # A's full record renewed its stamp: its next warm repeat touches.
    _request(cache, "F", 2)
    step(["checkout", "touch"], ["K1", "F2"])

    stats = cache.stats()
    cache.close()
    assert _kinds(path) == kinds
    assert (stats["journal_full"], stats["journal_touch"], stats["journal_checkout"]) == (
        kinds.count("full"),
        kinds.count("touch"),
        kinds.count("checkout"),
    )
    assert stats["journal_bytes"] == os.path.getsize(path)

    # A restored session owns its key's latest full record too: its
    # first warm repeat after the restart touches it.
    with SessionCache(capacity=2, metrics=Registry(), journal_path=path) as restored:
        _request(restored, "F", 2)
    assert _kinds(path)[len(kinds):] == ["checkout", "touch"]


def test_replay_skips_records_it_cannot_read(tmp_path):
    path = str(tmp_path / "cache.jsonl")
    with SessionCache(capacity=2, metrics=Registry(), journal_path=path) as cache:
        _request(cache, "F", 1)
        live = cache.keys()
    with Journal(path) as journal:
        journal.append([1, 2])
        journal.append({"v": cache_mod._JOURNAL_VERSION, "kind": "full", "key": "no blob", "cost": 1.0})
        journal.append({"v": cache_mod._JOURNAL_VERSION, "kind": "touch", "key": ["unhashable"], "cost": 1.0})
        journal.append({"v": cache_mod._JOURNAL_VERSION, "kind": "full", "key": "bad cost", "cost": "x", "blob": ""})
        journal.append({"v": cache_mod._JOURNAL_VERSION, "kind": "full", "key": "bad blob", "cost": 0.0, "blob": "?"})
    with SessionCache(capacity=2, metrics=Registry(), journal_path=path) as restored:
        assert restored.keys() == live
        assert restored.stats()["restored"] == 1


def test_one_pickle_pass_per_session(tmp_path, monkeypatch):
    session = _session("F")
    for example in _examples("F", 2):
        session.add_example(example)
    cache = SessionCache(
        capacity=2, metrics=Registry(), journal_path=str(tmp_path / "cache.jsonl")
    )
    cache.release(session)
    cache.close()

    calls = []
    getstate = PoolStore.__getstate__

    def counted(self):
        calls.append(self)
        return getstate(self)

    monkeypatch.setattr(PoolStore, "__getstate__", counted)
    clone = pickle.loads(pickle.dumps(session))
    assert len(calls) == 1
    # The stamp names a record in this process's journal only.
    assert getattr(session, cache_mod.STAMP, None) is not None
    assert not hasattr(clone, cache_mod.STAMP)
    assert clone.program == session.program
    assert clone._engine.pool is not None


XML = "<doc><b class='x'>hi</b>there</doc>"

def test_pickled_session_keeps_its_class():
    session = WarmTdsSession(
        _signature("F"), DSL, None, budget_factory=_budget, options=OPTIONS
    )
    session.add_example(_examples("F", 1)[0])
    clone = pickle.loads(pickle.dumps(session))
    assert type(clone) is WarmTdsSession
    assert clone.program == session.program


WRITER = f"""
import pickle
import sys
from repro.core.engine.cache import SessionCache
from repro.domains.xmltree import parse_xml
from repro.core.tds import TdsOptions
from repro.lasy.parser import parse_lasy
from repro.lasy.runner import run_lasy

XML = {XML!r}
SOURCE = '''
language strings;
function string F(string s);
require F("hello") == "hello!";
require F("ab") == "ab!";
require F("xyz") == "xyz!";
'''
with SessionCache(capacity=8, journal_path=sys.argv[1]) as cache:
    assert run_lasy(parse_lasy(SOURCE), options=TdsOptions(), session_cache=cache).success
with open(sys.argv[1] + ".xml", "wb") as fh:
    pickle.dump(parse_xml(XML), fh)
"""

READER = f"""
import json
import pickle
import sys
from dataclasses import fields
from repro.core.engine.cache import SessionCache
from repro.core.expr import Call, Expr, Function
from repro.domains.xmltree import parse_xml


def fresh(value):
    # Build a copy from scratch, every node and component function
    # through its constructor.
    if isinstance(value, (Expr, Function)):
        return type(value)(*[fresh(getattr(value, f.name)) for f in fields(value) if f.init])
    if isinstance(value, tuple):
        return tuple(fresh(v) for v in value)
    return value


def fresh_key(key):
    # The key of a freshly built copy of the keyed expression: calls are
    # keyed (nt, function, args), anything else (nt, expr).
    if len(key) == 3:
        nt, func, args = key
        call = fresh(Call(func, args, nt))
        return (call.nt, call.func, call.args)
    nt, expr = key
    return (nt, fresh(expr))


with SessionCache(capacity=8, journal_path=sys.argv[1]) as cache:
    (session,) = cache._entries.values()
pool = session._engine.pool
nodes = [node for entries in pool._entries.values() for entry in entries
         for node in entry.expr.walk()]
stale = [e for e in nodes if e._hash != hash((type(e).__name__,) + e._identity())
         or (isinstance(e, Call) and hash(e.func) != hash(fresh(e.func)))]
missing = [key for key in pool._seen_syntactic if fresh_key(key) not in pool._seen_syntactic]
with open(sys.argv[1] + ".xml", "rb") as fh:
    xml_equal = pickle.load(fh) == parse_xml({XML!r})
print(json.dumps({{"nodes": len(nodes), "stale": len(stale), "xml_equal": xml_equal,
                  "seen": len(pool._seen_syntactic), "missing": len(missing),
                  "call_keys": sum(len(key) == 3 for key in pool._seen_syntactic)}}))
"""


def _run(script, path, hash_seed):
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED=str(hash_seed))
    process = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script), path],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert process.returncode == 0, process.stderr[-2000:]
    return process.stdout


@pytest.mark.timeout(240)
def test_restore_under_another_hash_seed(tmp_path):
    """``repro serve`` does not fix PYTHONHASHSEED, so a restarted server
    may load a journal another seed wrote. Loaded expressions must hash
    as fresh ones do, and the restored syntactic seen-set must find a
    freshly built copy of what it holds. XML values, whose cached hash
    has the same dependence, must equal freshly parsed ones."""
    path = str(tmp_path / "cache.jsonl")
    _run(WRITER, path, hash_seed=1)
    report = json.loads(_run(READER, path, hash_seed=2).strip().splitlines()[-1])
    assert report["nodes"] > 0 and report["seen"] > 0
    assert report["call_keys"] > 0
    assert report["stale"] == 0
    assert report["missing"] == 0
    assert report["xml_equal"]
