"""Runtime values and structural equality.

LaSy's semantics (§3.1) compare example outputs with *structural*
equality (``.Equals()`` in C#). Our value universe is:

* ``str``, ``int``, ``bool`` — Python natives;
* lists — represented as tuples so values stay hashable;
* XML documents — :class:`repro.domains.xmltree.XmlNode` (hashable);
* tables — :class:`repro.domains.tables.Table` (hashable).

Two helpers matter to the synthesizer:

* :func:`structurally_equal` — the ``==`` of the paper's ``require``;
* :func:`signature_key` — a hashable key used for semantic component
  deduplication (§5.1 "Semantic" optimization). Evaluation errors are
  first-class here: the distinguished :data:`ERROR` value means "this
  expression crashed on that example input", which is itself observable
  behaviour that must participate in dedup.

:func:`strict_key` keys whole values (session example fingerprints)
with bools told apart from ints at every depth.
"""

from __future__ import annotations

from typing import Any, Iterable, Tuple


class ErrorValue:
    """The observable result of a crashing evaluation.

    A single interned instance :data:`ERROR` is used. It compares equal
    only to itself, so an expression that errors on an example is never
    semantically merged with one that returns a value there.
    """

    _instance: "ErrorValue | None" = None

    def __new__(cls) -> "ErrorValue":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "<error>"

    def __hash__(self) -> int:
        return 0x5EEDED

    def __eq__(self, other: object) -> bool:
        return other is self


ERROR = ErrorValue()


def freeze(value: Any) -> Any:
    """Convert a value into its canonical immutable representation.

    Lists become tuples (recursively); dicts become sorted item tuples.
    Domain values (XmlNode, Table) are already immutable. A value that
    is frozen already comes back as the same object: an exact ``str``,
    ``int`` or ``bool`` at once, and an exact tuple whose elements all
    freeze to themselves (otherwise it is rebuilt from the first element
    that changes).
    """
    cls = value.__class__
    if cls is str or cls is int or cls is bool:
        return value
    if cls is tuple:
        for index, item in enumerate(value):
            frozen = freeze(item)
            if frozen is not item:
                return (
                    value[:index]
                    + (frozen,)
                    + tuple(freeze(v) for v in value[index + 1:])
                )
        return value
    if isinstance(value, list):
        return tuple(freeze(v) for v in value)
    if isinstance(value, tuple):
        return tuple(freeze(v) for v in value)
    if isinstance(value, dict):
        return tuple(sorted((k, freeze(v)) for k, v in value.items()))
    return value


def structurally_equal(left: Any, right: Any) -> bool:
    """Structural equality as used by ``require`` examples.

    Booleans are distinguished from ints (unlike plain Python ``==``),
    because C#'s ``Equals`` would never conflate them.
    """
    left = freeze(left)
    right = freeze(right)
    if isinstance(left, bool) != isinstance(right, bool):
        return False
    if isinstance(left, tuple) and isinstance(right, tuple):
        return len(left) == len(right) and all(
            structurally_equal(a, b) for a, b in zip(left, right)
        )
    return type(left) is type(right) and left == right


def signature_key(values: Iterable[Any]) -> Tuple[Any, ...]:
    """A hashable fingerprint of an expression's behaviour on the examples.

    The i-th element is the (frozen) value the expression produced on the
    i-th example input, or :data:`ERROR`.
    """
    out = []
    for v in values:
        frozen = freeze(v)
        # bool/int disambiguation mirrors structurally_equal.
        if frozen.__class__ is bool:
            frozen = ("bool", frozen)
        out.append(frozen)
    return tuple(out)


def strict_key(value: Any) -> Any:
    """``value`` frozen, with every bool tagged ``("bool", b)`` at any
    depth: a hashable key whose ``==`` keeps bools and ints apart as
    :func:`structurally_equal` does (plain ``==`` equates ``(1,)`` with
    ``(True,)``). A value holding no bool keys as its frozen self."""
    frozen = freeze(value)
    cls = frozen.__class__
    if cls is bool:
        return ("bool", frozen)
    if cls is tuple:
        return tuple(map(strict_key, frozen))
    return frozen


def value_repr(value: Any) -> str:
    """Human-readable rendering of a value for messages and codegen."""
    if value is ERROR:
        return "<error>"
    if isinstance(value, str):
        return repr(value)
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return "{" + ", ".join(value_repr(v) for v in value) + "}"
    if isinstance(value, list):
        return "{" + ", ".join(value_repr(v) for v in value) + "}"
    return repr(value)
