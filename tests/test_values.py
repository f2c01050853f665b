"""Tests for repro.core.values."""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.core.values import (
    ERROR,
    ErrorValue,
    freeze,
    signature_key,
    strict_key,
    structurally_equal,
    value_repr,
)


class TestErrorValue:
    def test_singleton(self):
        assert ErrorValue() is ERROR

    def test_equal_only_to_itself(self):
        assert ERROR == ERROR
        assert ERROR != 0
        assert ERROR != "error"

    def test_hashable(self):
        assert len({ERROR, ERROR}) == 1

    def test_repr(self):
        assert repr(ERROR) == "<error>"


class TestFreeze:
    def test_list_becomes_tuple(self):
        assert freeze([1, 2]) == (1, 2)

    def test_nested(self):
        assert freeze([[1], [2, 3]]) == ((1,), (2, 3))

    def test_dict_sorted_items(self):
        assert freeze({"b": 1, "a": 2}) == (("a", 2), ("b", 1))

    def test_scalars_pass_through(self):
        assert freeze(5) == 5
        assert freeze("x") == "x"


def _reference_freeze(value):
    """``freeze`` without its fast path for already-frozen values."""
    if isinstance(value, list):
        return tuple(_reference_freeze(v) for v in value)
    if isinstance(value, tuple):
        return tuple(_reference_freeze(v) for v in value)
    if isinstance(value, dict):
        return tuple(
            sorted((k, _reference_freeze(v)) for k, v in value.items())
        )
    return value


_NESTED = st.recursive(
    st.one_of(st.text(max_size=3), st.integers(), st.booleans(), st.none()),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=2), inner, max_size=3),
    ),
    max_leaves=20,
)


def _assert_same_typed(left, right):
    assert type(left) is type(right)
    if type(left) is tuple:
        assert len(left) == len(right)
        for a, b in zip(left, right):
            _assert_same_typed(a, b)
    else:
        assert left == right


@given(_NESTED)
@settings(max_examples=300, deadline=None)
def test_freeze_matches_the_reference(value):
    frozen = freeze(value)
    _assert_same_typed(frozen, _reference_freeze(value))
    # A frozen value, tuples included, comes back as the same object.
    assert freeze(frozen) is frozen


def test_freeze_rebuilds_a_tuple_from_its_first_changed_element():
    head = ("a", (1, 2))
    value = head + ([3],)
    frozen = freeze(value)
    assert frozen == ("a", (1, 2), (3,))
    assert frozen[1] is head[1]


class TestStrictKey:
    def test_nested_bools_are_tagged(self):
        assert strict_key([(True, 1)]) == ((("bool", True), 1),)
        assert strict_key((1,)) != strict_key((True,))

    def test_values_without_bools_key_as_frozen(self):
        assert strict_key([[1, "a"], ()]) == ((1, "a"), ())
        assert strict_key(False) == ("bool", False)


class TestStructuralEquality:
    def test_scalars(self):
        assert structurally_equal(3, 3)
        assert not structurally_equal(3, 4)

    def test_bool_is_not_int(self):
        assert not structurally_equal(True, 1)
        assert not structurally_equal(0, False)

    def test_bool_vs_bool(self):
        assert structurally_equal(True, True)

    def test_list_vs_tuple(self):
        assert structurally_equal([1, 2], (1, 2))

    def test_nested_sequences(self):
        assert structurally_equal([[1], [2]], ((1,), (2,)))

    def test_str_vs_int(self):
        assert not structurally_equal("1", 1)

    def test_length_mismatch(self):
        assert not structurally_equal((1, 2), (1, 2, 3))


class TestSignatureKey:
    def test_key_is_hashable(self):
        hash(signature_key([1, "a", (2, 3)]))

    def test_bools_disambiguated(self):
        assert signature_key([True]) != signature_key([1])

    def test_error_participates(self):
        assert signature_key([ERROR]) != signature_key([None])

    def test_equal_vectors_equal_keys(self):
        assert signature_key([1, [2]]) == signature_key([1, (2,)])


class TestValueRepr:
    def test_bool(self):
        assert value_repr(True) == "true"
        assert value_repr(False) == "false"

    def test_string(self):
        assert value_repr("hi") == "'hi'"

    def test_tuple_renders_braces(self):
        assert value_repr((1, 2)) == "{1, 2}"

    def test_error(self):
        assert value_repr(ERROR) == "<error>"
