"""The session's verdict memo of recursive candidates, and strict
example identity.

A warm ``SynthesisSession`` keeps each recursive candidate's
per-example verdicts across its runs (``testing.SessionVerdicts``). The
real verdict is reused as it is; the angelic one only while the run's
oracle answers what it asked the same way. Examples are identified with
bools told apart from ints at every depth (``values.strict_key``), in
the memo, in session keys and in the warm-extension prefix check.
"""

import pickle

import pytest

from repro.core.budget import Budget
from repro.core.contexts import trivial_context
from repro.core.dbs import DbsOptions, DbsStats
from repro.core.dsl import DslBuilder, Example, Signature
from repro.core.engine import SynthesisSession
from repro.core.engine.keys import example_fingerprint, example_fingerprints
from repro.core.expr import Call, Const, Function, Param, Recurse
from repro.core.types import INT, list_of
from repro.obs.metrics import Registry
from repro.obs.trace import NULL_TRACER

SIG = Signature("P", (("n", INT),), INT)


# Module-level, so sessions over them stay picklable.
def _mul(a, b):
    return a * b


def _sub(a, b):
    return a - b


def _constants(examples):
    return {"e": [1]}


MUL = Function("Mul", (INT, INT), INT, _mul)
SUB = Function("Sub", (INT, INT), INT, _sub)


def _dsl():
    b = DslBuilder("fact", start="e")
    b.nt("e", INT)
    b.fn("e", "Sub", ["e", "e"], _sub)
    b.param("e")
    b.constant("e")
    b.constants_from(_constants)
    return b.build()


def _n():
    return Param("n", INT, "e")


def _const(value):
    return Const(value, INT, "e")


def _candidate():
    """n * P(n - 1): no base case, so its real runs never succeed."""
    return Call(
        MUL, (_n(), Recurse((Call(SUB, (_n(), _const(1)), "e"),), "e")), "e"
    )


def _begin(session, examples, previous=None, detailed=False):
    session.begin_run(
        contexts=[trivial_context(session.dsl)],
        examples=examples,
        seeds=[],
        budget=Budget(max_seconds=30.0, max_expressions=10**6),
        options=DbsOptions(),
        stats=DbsStats(registry=Registry(detailed=detailed)),
        tracer=NULL_TRACER,
        previous_program=previous,
    )
    return session.tester


def _counts(tester):
    return (
        tester._session_hits.value,
        tester._session_stale.value,
        tester._real_reruns.value,
    )


THREE = Example((3,), 6)
TWO = Example((2,), 2)


def test_stale_angelic_entry_runs_again():
    """The angelic run of n * P(n - 1) on (3,) asks the oracle for
    (2,): the previous program answers while (2,) is not an example,
    the example table once it is."""
    session = SynthesisSession(_dsl(), SIG)
    previous = _const(1)
    tester = _begin(session, [THREE], previous)
    assert tester.passed_set(_candidate()) == frozenset()
    assert tester.angelic_passed_set(_candidate()) == frozenset()  # 3 * 1
    assert _counts(tester) == (0, 0, 1)

    # The same previous program, so only the table's answer changed.
    tester = _begin(session, [THREE, TWO], previous)
    assert tester.passed_set(_candidate()) == frozenset()
    # (3,): 3 * table[(2,)] = 6; (2,): 2 * previous(1) = 2.
    assert tester.angelic_passed_set(_candidate()) == frozenset({0, 1})
    # (3,) re-ran angelically only (its real verdict stands); (2,) is
    # new, and its angelic run reached the oracle, so it ran for real.
    assert _counts(tester) == (0, 1, 1)

    # A structurally equal previous program answers (1,) the same way:
    # both examples come from the memo, with nothing run.
    tester = _begin(session, [THREE, TWO], _const(1))
    assert tester.angelic_passed_set(_candidate()) == frozenset({0, 1})
    assert _counts(tester) == (2, 0, 0)

    # A different previous program invalidates only the entry whose run
    # it answered: (2,) asked it for (1,); (3,) asked the table.
    tester = _begin(session, [THREE, TWO], _const(2))
    assert tester.angelic_passed_set(_candidate()) == frozenset({0})
    assert _counts(tester) == (1, 1, 0)


def test_memo_answers_do_not_count_as_example_evaluations():
    session = SynthesisSession(_dsl(), SIG)
    tester = _begin(session, [THREE, TWO], _const(1), detailed=True)
    tester.passed_set(_candidate())
    evals = tester._ex_evals.value
    assert evals == 2
    tester = _begin(session, [THREE, TWO], _const(1), detailed=True)
    tester.passed_set(_candidate())
    assert tester._session_hits.value == 2
    assert tester._ex_evals.value == 0


def test_a_lasy_callee_bypasses_the_memo():
    helper = Signature("Helper", (("x", INT),), INT)
    session = SynthesisSession(
        _dsl(),
        SIG,
        lasy_fns={"Helper": lambda x: x},
        lasy_signatures={"Helper": helper},
    )
    for _ in range(2):
        tester = _begin(session, [THREE, TWO], _const(1))
        assert session.verdicts is None
        tester.passed_set(_candidate())
        assert tester._session_hits.value == 0
    # Naming only the function being synthesized keeps the memo on.
    session.lasy_signatures = {"P": SIG}
    _begin(session, [THREE, TWO], _const(1)).passed_set(_candidate())
    assert session.verdicts is not None
    assert _begin(session, [THREE, TWO], _const(1)).passed_set(
        _candidate()
    ) == frozenset()
    assert session.tester._session_hits.value == 2


@pytest.mark.parametrize("transport", ["suspend", "pickle"])
def test_a_suspended_or_pickled_session_carries_no_memo(transport):
    session = SynthesisSession(_dsl(), SIG)
    _begin(session, [THREE, TWO], _const(1)).passed_set(_candidate())
    assert session.verdicts.entries
    if transport == "suspend":
        session.suspend()
    else:
        assert "verdicts" not in session.__getstate__()
        session = pickle.loads(pickle.dumps(session))
    assert session.verdicts is None
    tester = _begin(session, [THREE, TWO], _const(1))
    tester.passed_set(_candidate())
    assert _counts(tester) == (0, 0, 2)


# -- strict example identity -------------------------------------------


def test_nested_bools_fingerprint_apart():
    one = Example(((1,),), 0)
    true = Example(((True,),), 0)
    assert one == true  # dict keys and == conflate them
    assert example_fingerprint(one) != example_fingerprint(true)
    assert example_fingerprints([one]) != example_fingerprints([true])


def test_fingerprints_without_nested_bools_are_unchanged():
    """Session keys (and the journal records holding them) stay valid:
    the fingerprint of an example without nested bools is what it was,
    top-level bools tagged as before."""
    example = Example((("a", "b"), 3, True, ((1, 2), ())), "x")
    assert repr(example_fingerprint(example)) == (
        "(('a', 'b'), 3, ('bool', True), ((1, 2), ()), 'x')"
    )


def test_a_held_session_offered_a_nested_bool_builds_cold():
    sig = Signature("P", (("xs", list_of(INT)),), INT)
    session = SynthesisSession(_dsl(), sig)
    _begin(session, [Example(((1,),), 0)])
    held = session.pool
    _begin(session, [Example(((True,),), 0)])
    assert session.pool is not held
    # A structurally equal example still extends the held pool.
    held = session.pool
    _begin(session, [Example(((True,),), 0), Example(((2,),), 0)])
    assert session.pool is held
    assert len(session.pool.examples) == 2
