"""The synthesis service end to end: protocol, cache semantics,
admission control, structured timeouts, and journal persistence
(docs/service.md).

The servers here run in-process on a background thread (loopback TCP,
port 0) — the same asyncio/executor stack `repro serve` runs, minus the
CLI. The differential tests pin the service's defining property: a
cold server-synthesized program is byte-identical to what a direct
:func:`run_lasy` call produces — the service layer is routing plus
caching, never a different synthesizer.
"""

from __future__ import annotations

import asyncio
import base64
import contextlib
import json
import socket
import threading
import time

import pytest

from repro.core.tds import TdsOptions
from repro.core.engine.cache import SessionCache
from repro.exec.checkpoint import Journal
from repro.exec.faults import FaultPlan, SimulatedCrash
from repro.lasy.parser import parse_lasy
from repro.lasy.runner import run_lasy
from repro.obs.metrics import Registry
from repro.serve.client import ServiceError, request
from repro.serve.server import ServerConfig, SynthesisServer

STRINGS = """
language strings;
function string F(string s);
require F("hello") == "hello!";
require F("ab") == "ab!";
require F("xyz") == "xyz!";
"""

PEXFUN = """
language pexfun;
function int Add1(int x);
require Add1(3) == 4;
require Add1(10) == 11;
"""

TABLES = """
language tables;
function Table Body(Table t);
require Body({{"name", "age"}, {"ann", "31"}, {"bo", "25"}})
     == {{"ann", "31"}, {"bo", "25"}};
require Body({{"h1", "h2"}, {"v", "w"}})
     == {{"v", "w"}};
"""

XML = """
language xml;
function XDocument Modern(XDocument d);
require Modern("<doc><b>hi</b><b>there</b></doc>")
     == "<doc><strong>hi</strong><strong>there</strong></doc>";
"""

# No constant/derivation path reaches these outputs, so the engine
# enumerates until its wall trips — the deterministic way to occupy a
# worker (admission control) or force a truncation (timeout shape).
HOPELESS = """
language pexfun;
function int H(int x);
require H(1) == 1000003;
require H(2) == -999983;
"""


@contextlib.contextmanager
def serve(**overrides):
    """A live server on a daemon thread; yields the bound port."""
    config = ServerConfig(port=0, default_timeout_s=30.0, **overrides)
    ready = threading.Event()
    state = {}

    def run() -> None:
        async def main() -> None:
            server = SynthesisServer(config, metrics=Registry())
            await server.start()
            state["port"] = server.address[1]
            ready.set()
            await server.serve_until_shutdown()

        asyncio.run(main())

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    assert ready.wait(timeout=30), "server failed to start"
    try:
        yield state["port"]
    finally:
        with contextlib.suppress(OSError, ConnectionError):
            request({"op": "shutdown"}, port=state["port"], timeout=10)
        thread.join(timeout=10)


def synth(port: int, source: str, **fields):
    payload = {"op": "synthesize", "program": source}
    payload.update(fields)
    return request(payload, port=port, timeout=120, check=True)


# -- differential: server output == direct engine output -----------------


@pytest.mark.parametrize(
    "source",
    [STRINGS, PEXFUN, TABLES, XML],
    ids=["strings", "pexfun", "tables", "xml"],
)
def test_cold_server_program_matches_direct_run(source):
    direct = run_lasy(parse_lasy(source), options=TdsOptions())
    assert direct.success
    with serve() as port:
        response = synth(port, source)
    assert response["success"]
    for name, fn in direct.functions.items():
        served = response["functions"][name]
        assert served["program"] == str(fn.body)
        assert response["cache"][name] == {
            "hit": False,
            "reused_examples": 0,
        }


# -- cache semantics ------------------------------------------------------


def test_warm_repeat_hits_the_cache():
    with serve() as port:
        cold = synth(port, STRINGS)
        warm = synth(port, STRINGS)
    assert cold["cache"]["F"]["hit"] is False
    assert warm["cache"]["F"] == {"hit": True, "reused_examples": 3}
    assert warm["functions"] == cold["functions"]


def test_lookup_program_warm_repeat_hits():
    """Lookup tables fill example-by-example during the run, but their
    final contents are pure data from the program source — the acquire
    key fingerprints them pre-filled, so a repeated lookup-using request
    must hit (it used to key the empty table and miss forever)."""
    source = """
    language strings;
    lookup string Expand(string s);
    function string Greet(string s);
    require Expand("hi") == "hello";
    require Expand("yo") == "greetings";
    require Greet("hi") == "hello";
    require Greet("yo") == "greetings";
    """
    cache = SessionCache(capacity=4, metrics=Registry())
    cold = _run_cached(source, cache)
    warm = _run_cached(source, cache)
    assert cold.cache_info["Greet"]["hit"] is False
    assert warm.cache_info["Greet"] == {"hit": True, "reused_examples": 2}
    assert str(warm.functions["Greet"].body) == str(
        cold.functions["Greet"].body
    )


def test_reordered_examples_miss_at_the_cache_layer():
    """The exact-prefix contract: at the cache layer a reordered
    example sequence is a different session (no canonicalization — that
    lives inside the engine), so the run stays cold but correct."""
    cache = SessionCache(capacity=4, metrics=Registry())
    _run_cached(STRINGS, cache)
    lines = STRINGS.strip().splitlines()
    reordered = "\n".join(lines[:2] + [lines[3], lines[2], lines[4]])
    result = run_lasy(
        parse_lasy(reordered), options=TdsOptions(), session_cache=cache
    )
    assert result.success
    assert result.cache_info["F"]["hit"] is False


def test_prefix_extension_reuses_the_held_examples():
    two = "\n".join(STRINGS.strip().splitlines()[:-1])
    with serve() as port:
        first = synth(port, two)
        extended = synth(port, STRINGS)
    assert first["success"] and extended["success"]
    assert extended["cache"]["F"] == {"hit": True, "reused_examples": 2}


def test_stats_reports_cache_and_counters():
    with serve() as port:
        synth(port, STRINGS)
        synth(port, STRINGS)
        stats = request({"op": "stats"}, port=port, check=True)
    assert stats["cache"]["hits"] == 1
    assert stats["cache"]["misses"] == 1
    assert stats["cache"]["size"] == 1
    assert stats["counters"]["requests"] >= 3
    assert stats["inflight"] == 0


# -- protocol edges -------------------------------------------------------


def test_ping_and_malformed_requests():
    with serve() as port:
        assert request({"op": "ping"}, port=port, check=True)["version"] == 1
        with pytest.raises(ServiceError) as err:
            request({"op": "frobnicate"}, port=port, check=True)
        assert err.value.code == "bad-request"
        with pytest.raises(ServiceError) as err:
            request({"op": "synthesize"}, port=port, check=True)
        assert err.value.code == "bad-request"
        with pytest.raises(ServiceError) as err:
            request(
                {"op": "synthesize", "program": "language nope; f;"},
                port=port,
                check=True,
            )
        assert err.value.code == "parse-error"
        # Raw garbage (not even JSON) answers with a bad-request error
        # instead of dropping the connection.
        with socket.create_connection(("127.0.0.1", port), timeout=10) as s:
            stream = s.makefile("rwb")
            stream.write(b"this is not json\n")
            stream.flush()
            response = json.loads(stream.readline())
        assert response["ok"] is False
        assert response["error"]["code"] == "bad-request"


def test_timeout_is_a_structured_response_not_an_error():
    # Pinned to fifo: this checks the shape of a timeout response, and
    # adaptive's capped first admission leaves its uncapped second one
    # enough of the wall to actually solve HOPELESS with a loop.
    with serve() as port:
        response = synth(port, HOPELESS, timeout_s=0.5, schedule="fifo")
    assert response["ok"] is True
    assert response["success"] is False
    assert response["truncated"] is True
    assert response["timeout_reasons"].get("H") == "deadline"
    # Nothing was synthesized, so nothing is returned as a function.
    assert response["functions"] == {}


def test_queue_depth_rejects_with_overloaded():
    with serve(max_workers=1, queue_depth=1) as port:
        # Occupy the only admission slot with a request that holds its
        # worker until the 1.5s wall, without reading the reply yet.
        blocker = socket.create_connection(("127.0.0.1", port), timeout=30)
        stream = blocker.makefile("rwb")
        stream.write(
            json.dumps(
                {"op": "synthesize", "program": HOPELESS, "timeout_s": 1.5}
            ).encode()
            + b"\n"
        )
        stream.flush()
        time.sleep(0.4)  # let the server admit it
        with pytest.raises(ServiceError) as err:
            synth(port, STRINGS)
        assert err.value.code == "overloaded"
        assert err.value.response["error"]["code"] == "overloaded"
        # The blocker still completes as a structured truncation.
        blocked = json.loads(stream.readline())
        blocker.close()
        assert blocked["ok"] is True and blocked["truncated"] is True
        # And the slot is free again afterwards.
        assert synth(port, STRINGS)["success"]


# -- journal persistence --------------------------------------------------


def test_restarted_server_comes_back_warm(tmp_path):
    journal = str(tmp_path / "cache.jsonl")
    with serve(journal_path=journal) as port:
        assert synth(port, STRINGS)["success"]
    # "Kill": the first server is gone; a new one replays the journal.
    with serve(journal_path=journal) as port:
        stats = request({"op": "stats"}, port=port, check=True)
        warm = synth(port, STRINGS)
    assert stats["cache"]["restored"] == 1
    assert warm["cache"]["F"] == {"hit": True, "reused_examples": 3}


def test_journal_replays_only_its_own_version(tmp_path):
    """Journal records carry a layout version. A record of another
    version (here v4, whose session keys carry ``pool_options`` and the
    fuel and depth options) restores nothing; the same record at v5
    restores."""
    journal = str(tmp_path / "cache.jsonl")
    cache = SessionCache(
        capacity=8, metrics=Registry(), journal_path=journal
    )
    _run_cached(STRINGS, cache)
    cache.close()
    (record,), _valid = Journal.scan(journal)
    assert record["v"] == 5
    for version, restored in ((4, 0), (5, 1)):
        path = str(tmp_path / f"v{version}.jsonl")
        with Journal(path) as writer:
            writer.append(dict(record, v=version))
        replayed = SessionCache(
            capacity=8, metrics=Registry(), journal_path=path
        )
        assert replayed.stats()["restored"] == restored
        replayed.close()


# -- concurrent journal access (the satellite) ---------------------------


def _run_cached(source: str, cache: SessionCache):
    result = run_lasy(
        parse_lasy(source), options=TdsOptions(), session_cache=cache
    )
    assert result.success
    return result


def test_two_threads_writing_one_cache_journal(tmp_path):
    """The server shape: executor threads share one SessionCache whose
    releases all append to one journal. Concurrent releases must leave
    a journal that parses end to end and restores every session."""
    journal = str(tmp_path / "cache.jsonl")
    cache = SessionCache(
        capacity=8, metrics=Registry(), journal_path=journal
    )
    sources = [
        STRINGS.replace("F(", f"F{i}(")
        for i in range(4)
    ]
    errors = []

    def worker(my_sources) -> None:
        try:
            for source in my_sources:
                _run_cached(source, cache)
        except Exception as exc:  # pragma: no cover - the assertion
            errors.append(exc)

    threads = [
        threading.Thread(target=worker, args=(sources[0::2],)),
        threading.Thread(target=worker, args=(sources[1::2],)),
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    cache.close()
    assert not errors
    records, _valid = Journal.scan(journal)
    assert len(records) == 4  # one fsync'd line per release, none torn
    restored = SessionCache(
        capacity=8, metrics=Registry(), journal_path=journal
    )
    assert restored.stats()["restored"] == 4
    for source in sources:
        result = _run_cached(source, restored)
        name = next(iter(result.cache_info))
        assert result.cache_info[name]["hit"] is True
    restored.close()


def test_two_journal_handles_interleaved_appends(tmp_path):
    """Two *handles* on one journal path (two servers pointed at the
    same file by mistake, or a writer racing a late fsync): each append
    is one line written under flush+fsync, so interleaved records stay
    line-atomic and scan recovers all of them."""
    path = str(tmp_path / "shared.jsonl")
    a, b = Journal(path), Journal(path)
    barrier = threading.Barrier(2)

    def writer(journal, tag):
        barrier.wait()
        for i in range(20):
            journal.append({"key": f"{tag}-{i}", "result": i})

    threads = [
        threading.Thread(target=writer, args=(a, "a")),
        threading.Thread(target=writer, args=(b, "b")),
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    a.close()
    b.close()
    records, _valid = Journal.scan(path)
    keys = {r["key"] for r in records}
    assert keys == {f"{tag}-{i}" for tag in "ab" for i in range(20)}


def test_torn_tail_recovery_under_injected_crash(tmp_path):
    """A writer killed mid-append (the fault layer's ``crash`` clause,
    manifesting as a half-written final line) loses exactly that one
    record: restore truncates the torn tail and later appends keep the
    journal sound — the session-cache analogue of docs/robustness.md's
    checkpoint recovery."""
    journal = str(tmp_path / "cache.jsonl")
    cache = SessionCache(
        capacity=8, metrics=Registry(), journal_path=journal
    )
    plan = FaultPlan.parse("crash:2")  # the third release dies mid-write
    sources = [
        STRINGS.replace("F(", f"F{i}(")
        for i in range(3)
    ]
    with pytest.raises(SimulatedCrash):
        for index, source in enumerate(sources):
            _run_cached(source, cache)
            plan.inject(index, 0)
    cache.close()
    # The kill landed mid-write: tear the last fsync'd record in half,
    # exactly what an interrupted write(2) leaves behind.
    with open(journal, "rb+") as fh:
        raw = fh.read()
        lines = raw.rstrip(b"\n").split(b"\n")
        fh.truncate(len(raw) - len(lines[-1]) // 2 - 1)
    restored = SessionCache(
        capacity=8, metrics=Registry(), journal_path=journal
    )
    assert restored.stats()["restored"] == len(sources) - 1
    # The torn bytes are gone from disk, so appends keep it parseable:
    _run_cached(sources[-1], restored)  # cold (its record was torn)
    restored.close()
    records, valid = Journal.scan(journal)
    assert len(records) == len(sources)
    with open(journal, "rb") as fh:
        assert valid == len(fh.read())  # no residual garbage
    for record in records:
        base64.b64decode(record["blob"])  # every surviving blob intact
