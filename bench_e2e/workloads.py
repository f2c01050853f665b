"""The four workloads, run inside a benchmark child process.

Every workload is a fixed list of *tasks* whose order comes from the
seed (and for pex-game, the oracle's seed too). A pass runs the
tasks once, timing each from the outside, then checks every returned
program against its examples with the reference interpreter. Nothing
the seed changes reaches the synthesizer except through its inputs.
"""

from __future__ import annotations

import hashlib
import json
import random
import socket
from time import perf_counter

from repro.core.budget import Budget
from repro.core.evaluator import set_eval_mode
from repro.domains.registry import get_domain
from repro.lasy.parser import _TOKEN_RE, parse_lasy
from repro.lasy.runner import _coerce_example

# FAST expression caps with the wall cap lifted so far above what any
# call uses that every DBS call stops at its expression cap or its
# solution, never at the clock; that is what makes results repeat.
WALL_CAP_S = 120.0
FAST_EXPRESSIONS = 150_000
FAST_HARD_MULTIPLIER = 3
# The Fig. 1 sequence at the cap that fits the benchmark's run-time
# budget; its seven capped DBS calls still reach steps == 2.
WORDWRAP_EXPRESSIONS = 10_000
PEX_EXPRESSIONS = 150_000
PEX_WALL_CAP_S = 60.0
SERVE_EXPRESSIONS = 450_000

# Heavy sequences left out of suites-cold and serve-prefix. word-wrap
# is its own workload; the other three take 6-22 s each at FAST caps,
# more than the benchmark's whole per-run budget allows.
HEAVY = ("word-wrap", "bib-venue", "prefix-lines", "move-footer-up")

# Pex4Fun puzzles whose FAST game took under 1 s (median over oracle
# seeds 0 and 2-10) on the reference host and whose outcome was the same
# at every one of those seeds. Left out: 18 puzzles whose DBS calls run
# 5-83 s against the soft budget (wall-clock dependent), delimiter-sum,
# quartic-mix and max-of-three (1-3.4 s each), and parity-name (solved
# at some oracle seeds only).
PEX_PUZZLES = (
    "identity-int", "add-seven", "double", "square", "negate", "absolute",
    "successor-of-double", "max-of-two", "min-of-two", "difference",
    "average-floor", "remainder-ten", "sign", "clamp-nonnegative",
    "grade-pass", "factorial", "sum-to-n", "power-of-two", "repeat-digits",
    "identity-str", "shout", "whisper", "mirror", "first-char", "greeting",
    "exclaim", "double-str", "trim-ends", "length-of", "spaces-to-dashes",
    "drop-first", "first-line", "is-palindrome", "contains-space",
    "initial-dot", "last-word", "word-count", "first-elem", "last-elem",
    "concat-first-last", "array-length", "join-commas", "sum-array",
    "first-int", "doubled-elements", "squares-of", "shouted-words",
    "count-words", "second-line", "parse-and-double", "digits-of",
    "distance", "last-digit", "is-positive", "count-down", "surround-stars",
    "comma-to-space", "second-word", "last-int", "min-of-array",
    "negate-all", "trim-all", "sum-plus-length",
)

SERVE_WINDOW = 4


def suite_sequences():
    """The suite benchmarks (E1 without word-wrap, E2, E3) minus HEAVY,
    in suite order."""
    from repro.suites import ALL_SUITES

    return [
        bench
        for suite in ALL_SUITES.values()
        for bench in suite
        if bench.name not in HEAVY
    ]


def _budget(expressions):
    return lambda: Budget(max_seconds=WALL_CAP_S, max_expressions=expressions)


def _digest(programs):
    text = json.dumps(programs, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def _programs(functions):
    """``{name: program text}`` for the synthesized (non-lookup)
    functions, the same text the server returns."""
    return {
        name: str(fn.body)
        for name, fn in functions.items()
        if getattr(fn, "body", None) is not None
    }


class _Interp:
    """Run checks under the tree-walking reference interpreter."""

    def __enter__(self):
        self._previous = set_eval_mode("interp")

    def __exit__(self, *exc):
        set_eval_mode(self._previous)
        return False


def _satisfies(fn, example):
    if fn is None:
        return False
    try:
        return bool(fn.satisfies(example))
    except Exception:
        return False


def check_sequence(bench, functions):
    """``(examples_ok, steps, holdout_ok)`` for one suite sequence's
    returned functions, under the reference interpreter."""
    program = parse_lasy(bench.source)
    domain = get_domain(program.language)
    signatures = {decl.name: decl.signature for decl in program.declarations}
    with _Interp():
        verdicts = [
            _satisfies(
                functions.get(stmt.func_name),
                _coerce_example(domain, signatures[stmt.func_name], stmt),
            )
            for stmt in program.examples
        ]
        try:
            holdout_ok = bench.check_holdout(_Result(functions))
        except Exception:
            holdout_ok = False
    steps = next((i for i, ok in enumerate(verdicts) if not ok), len(verdicts))
    return all(verdicts), steps, holdout_ok


class _Result:
    """The part of a LasyRunResult that Benchmark.check_holdout reads."""

    def __init__(self, functions):
        self.functions = functions


def _task(name, seconds, claimed, solved, steps, programs, expressions, why=""):
    return {
        "name": name,
        "time_s": seconds,
        "claimed": claimed,
        "solved": solved,
        "unsound": claimed and not solved,
        "steps": steps,
        "digest": _digest(programs),
        "expressions": expressions,
        "why": why,
    }


class Workload:
    """One pass over a fixed task list; subclasses fill in the tasks.

    ``pass_index`` numbers the passes of one run. Where the task order
    comes from the seed, each pass draws its own order from the seed and
    its index, so a run's peak memory and its per-task best times are
    not tied to one order.

    ``run`` records each task's ``(start, seconds)`` in ``spans``, in
    the order ``check`` returns the tasks."""

    def __init__(self, seed, pass_index=0):
        self.seed = seed
        self.pass_index = pass_index
        self.spans = []

    def order_rng(self):
        return random.Random(f"{self.seed}:{self.pass_index}")

    def setup(self):
        """Imports and DSL builds: everything before the first task."""

    def run(self, tracer):
        """Run the timed tasks; return ``(raw, seconds the timed region took)``."""
        raise NotImplementedError

    def check(self, raw):
        """Check ``raw`` outside the timed phase; return task records."""
        raise NotImplementedError


class SuitesCold(Workload):
    """E1 (without word-wrap), E2 and E3, minus HEAVY: one cold
    ``Benchmark.run`` per sequence, serial, in a seeded order."""

    def setup(self):
        self.sequences = suite_sequences()
        self.order_rng().shuffle(self.sequences)
        for language in ("strings", "tables", "xml"):
            get_domain(language).dsl()

    def run(self, tracer):
        raw = []
        if tracer is not None:
            tracer.reset()
        start = perf_counter()
        for bench in self.sequences:
            scale = FAST_HARD_MULTIPLIER if bench.hard else 1
            t0 = perf_counter()
            result = bench.run(budget_factory=_budget(FAST_EXPRESSIONS * scale))
            seconds = perf_counter() - t0
            self.spans.append((t0, seconds))
            # Keep what the checks need; drop the live sessions (their
            # pools) so memory stays that of one task at a time.
            raw.append((bench, seconds, result.success, result.functions,
                        _expressions(result)))
            del result
        return raw, perf_counter() - start

    def check(self, raw):
        tasks = []
        for bench, seconds, success, functions, expressions in raw:
            examples_ok, steps, holdout_ok = check_sequence(bench, functions)
            solved = success and examples_ok and holdout_ok
            why = "" if solved or not success else (
                "fails its examples" if not examples_ok else "fails its holdout")
            task = _task(bench.name, seconds, success, solved, steps,
                         _programs(functions), expressions, why)
            task["holdout"] = holdout_ok
            tasks.append(task)
        return tasks


def _expressions(result):
    return sum(step.expressions for r in result.results.values() for step in r.steps)


class Wordwrap(Workload):
    """The Fig. 1 word-wrap sequence, cold, one example at a time. Its
    tasks are the sequence's nine prefixes: task k is answered by the
    program the session holds after example k (and, for the last one,
    after finalize). The seed does not change this workload's input."""

    def setup(self):
        from repro.suites.strings_suite import STRING_BENCHMARKS

        self.bench = next(b for b in STRING_BENCHMARKS if b.name == "word-wrap")
        get_domain("strings").dsl()

    def run(self, tracer):
        import importlib

        tds = importlib.import_module("repro.core.tds")
        session_cls = tds.TdsSession
        feed, finalize = session_cls.feed, session_cls.finalize
        prefixes = []

        def timed_feed(session, example):
            t0 = perf_counter()
            step = feed(session, example)
            seconds = perf_counter() - t0
            self.spans.append((t0, seconds))
            prefixes.append([seconds, step.action, step.expressions, session.program])
            return step

        def timed_finalize(session):
            t0 = perf_counter()
            result = finalize(session)
            seconds = perf_counter() - t0
            self.spans[-1] = (self.spans[-1][0], self.spans[-1][1] + seconds)
            last = prefixes[-1]
            last[0] += seconds
            last[2] += sum(s.expressions for s in result.steps[len(prefixes):])
            last[3] = session.program
            last.append(result.success)
            return result

        session_cls.feed, session_cls.finalize = timed_feed, timed_finalize
        try:
            if tracer is not None:
                tracer.reset()
            start = perf_counter()
            result = self.bench.run(budget_factory=_budget(WORDWRAP_EXPRESSIONS))
            wall = perf_counter() - start
        finally:
            session_cls.feed, session_cls.finalize = feed, finalize
        return (prefixes, result.functions), wall

    def check(self, raw):
        from repro.core.program import SynthesizedFunction

        prefixes, functions = raw
        program = parse_lasy(self.bench.source)
        domain = get_domain(program.language)
        decl = program.declarations[0]
        examples = [_coerce_example(domain, decl.signature, s) for s in program.examples]
        _, steps, _ = check_sequence(self.bench, functions)
        tasks = []
        claimed = False
        # The sequence's steps count once, on its last prefix.
        for k, row in enumerate(prefixes, start=1):
            seconds, action, expressions, body = row[:4]
            # Algorithm 1's invariant: a DBS success satisfies the whole
            # admitted prefix; an already-satisfied example keeps the
            # claim only if the previous prefix held it.
            claimed = action == "synthesized" or (action == "satisfied" and claimed)
            if len(row) > 4:
                claimed = row[4]
            fn = None if body is None else SynthesizedFunction(
                decl.signature, body, functions[decl.name].lasy_fns
                if decl.name in functions else {})
            with _Interp():
                ok = all(_satisfies(fn, e) for e in examples[:k])
            programs = {} if body is None else {decl.name: str(body)}
            why = "" if ok or not claimed else f"prefix {k} fails its examples"
            tasks.append(_task(f"prefix-{k}", seconds, claimed, ok,
                               steps if k == len(prefixes) else 0,
                               programs, expressions, why))
        return tasks


class PexGame(Workload):
    """E4's game loop (``repro.pex.play``, at most 7 oracle rounds) over
    PEX_PUZZLES; the seed sets the oracle seed and the play orders."""

    def setup(self):
        from repro.pex.puzzles import PUZZLES

        by_name = {p.name: p for p in PUZZLES}
        self.puzzles = [by_name[name] for name in PEX_PUZZLES]
        self.order_rng().shuffle(self.puzzles)
        get_domain("pexfun").dsl()

    def run(self, tracer):
        import importlib

        from repro.pex.game import play

        # play() keeps its session to itself; count its DBS expressions
        # at add_example (at most seven calls a game).
        session_cls = importlib.import_module("repro.core.tds").TdsSession
        add_example = session_cls.add_example
        expressions = [0]

        def counted(session, example):
            step = add_example(session, example)
            expressions[0] += step.expressions
            return step

        budget = lambda: Budget(max_seconds=PEX_WALL_CAP_S, max_expressions=PEX_EXPRESSIONS)
        raw = []
        session_cls.add_example = counted
        try:
            if tracer is not None:
                tracer.reset()
            start = perf_counter()
            for puzzle in self.puzzles:
                expressions[0] = 0
                t0 = perf_counter()
                game = play(puzzle, budget_factory=budget, oracle_seed=self.seed)
                seconds = perf_counter() - t0
                self.spans.append((t0, seconds))
                raw.append((puzzle, seconds, game, expressions[0]))
            wall = perf_counter() - start
        finally:
            session_cls.add_example = add_example
        return raw, wall

    def check(self, raw):
        from repro.core.dsl import Example
        from repro.core.program import SynthesizedFunction
        from repro.core.values import ERROR
        from repro.pex.oracle import Oracle

        tasks = []
        for puzzle, seconds, game, expressions in raw:
            fn = None if game.program is None else SynthesizedFunction(
                puzzle.signature, game.program)
            # The puzzle's curated seed inputs are its reference
            # sequence: the first inputs the oracle tries.
            oracle = Oracle(puzzle, seed=self.seed)
            reference = [Example(args, oracle.reference_output(args)) for args in puzzle.seeds]
            reference = [e for e in reference if e.output is not ERROR]
            with _Interp():
                examples_ok = all(_satisfies(fn, e) for e in game.examples)
                verdicts = [_satisfies(fn, e) for e in reference]
            steps = next((i for i, ok in enumerate(verdicts) if not ok), len(verdicts))
            solved = game.solved and examples_ok and all(verdicts)
            why = "" if solved or not game.solved else "fails its examples"
            programs = {} if game.program is None else {puzzle.name: str(game.program)}
            tasks.append(_task(puzzle.name, seconds, game.solved, solved, steps,
                               programs, expressions, why))
        return tasks


# -- serve-prefix -------------------------------------------------------------


def statements(source):
    """``(header, [require statement, ...])`` of LaSy source, split at
    statement boundaries with the LaSy lexer (a ``;`` inside a string
    literal does not end a statement)."""
    header_end = None
    spans = []
    pos = 0
    start = None
    while pos < len(source):
        match = _TOKEN_RE.match(source, pos)
        if match is None:
            raise ValueError(f"cannot tokenize LaSy source at offset {pos}")
        kind, text = match.lastgroup, match.group()
        if kind == "ident" and text == "require" and start is None:
            start = match.start()
            if header_end is None:
                header_end = start
        elif kind == "punct" and text == ";" and start is not None:
            spans.append(source[start:match.end()])
            start = None
        pos = match.end()
    return source[:header_end], spans


def serve_requests(seed):
    """The closed-loop request list. The sequences, in suite order, fall
    into windows of SERVE_WINDOW (so a window mostly stays in one DSL);
    the seed orders the sequences inside each window. Within a window
    the requests round-robin over growing prefixes, then send each full
    program once more (the warm repeat).

    Window membership is fixed because cost-aware eviction makes the
    cache hits depend on which windows came before: drawing the windows
    from the seed moved hits between 23 and 35 of 81 requests and the
    per-request p50 and p85 by about a fifth from seed to seed."""
    sequences = suite_sequences()
    rng = random.Random(seed)
    requests = []
    for w in range(0, len(sequences), SERVE_WINDOW):
        members = sequences[w:w + SERVE_WINDOW]
        rng.shuffle(members)
        window = [(b.name, *statements(b.source)) for b in members]
        longest = max(len(stmts) for _, _, stmts in window)
        for k in range(1, longest + 1):
            for name, header, stmts in window:
                if k <= len(stmts):
                    kind = "final" if k == len(stmts) else "prefix"
                    requests.append((name, k, kind, header + "\n".join(stmts[:k]) + "\n"))
        for name, header, stmts in window:
            requests.append((name, len(stmts), "repeat", header + "\n".join(stmts) + "\n"))
    return requests


class ServeClient(Workload):
    """One closed-loop client on one persistent connection to a running
    ``repro serve``: it sends the next request only after the previous
    response arrived."""

    def __init__(self, seed, port, reference):
        super().__init__(seed)
        self.port = port
        self.reference = reference

    def setup(self):
        self.requests = serve_requests(self.seed)

    def run(self, tracer):
        raw = []
        with socket.create_connection(("127.0.0.1", self.port), timeout=600) as sock:
            stream = sock.makefile("rwb")

            def call(payload):
                stream.write(json.dumps(payload).encode("utf-8") + b"\n")
                stream.flush()
                line = stream.readline()
                if not line:
                    raise ConnectionError("server closed the connection")
                return json.loads(line)

            start = perf_counter()
            for i, (name, k, kind, source) in enumerate(self.requests):
                t0 = perf_counter()
                response = call({"id": i, "op": "synthesize", "program": source})
                seconds = perf_counter() - t0
                self.spans.append((t0, seconds))
                raw.append((name, k, kind, seconds, response))
            wall = perf_counter() - start
            self.stats = call({"op": "stats"})
        return raw, wall

    def check(self, raw):
        tasks = []
        for name, k, kind, seconds, response in raw:
            claimed = bool(response.get("ok") and response.get("success"))
            programs = {
                fn: entry.get("program")
                for fn, entry in (response.get("functions") or {}).items()
                if not entry.get("lookup")
            }
            ref = self.reference[name]
            if kind == "prefix":
                # No independent check exists for a partial prefix: the
                # server returns program text, not a runnable program.
                solved, why = claimed, ""
            else:
                solved = claimed and programs == ref["programs"] and ref["solved"]
                why = "" if solved or not claimed else "differs from a direct run_lasy"
            hit = any(c.get("hit") for c in (response.get("cache") or {}).values())
            task = _task(f"{name}#{k}:{kind}", seconds, claimed, solved,
                         ref["steps"] if kind == "final" and solved else 0,
                         programs, 0, why)
            task["hit"] = hit
            task["overhead_s"] = seconds - float(response.get("elapsed") or 0.0)
            tasks.append(task)
        return tasks


def serve_reference():
    """Direct ``run_lasy`` of every serve-prefix sequence at the
    server's budget, checked like suites-cold: the programs the served
    final prefixes must equal."""
    import dataclasses

    from repro.core.tds import TdsOptions

    options = dataclasses.replace(TdsOptions(), timeout_s=WALL_CAP_S)
    out = {}
    for bench in suite_sequences():
        from repro.lasy.runner import run_lasy

        result = run_lasy(parse_lasy(bench.source), budget_factory=_budget(SERVE_EXPRESSIONS),
                          options=options)
        examples_ok, steps, holdout_ok = check_sequence(bench, result.functions)
        out[bench.name] = {
            "programs": _programs(result.functions),
            "solved": result.success and examples_ok and holdout_ok,
            "steps": steps,
        }
    return out
