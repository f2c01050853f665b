"""An immutable XML tree for the XML-transformation domain (§6.1.3).

The paper's XML benchmarks use .NET's ``XDocument``/``XElement``. We
build our own small tree — the synthesizer needs hashable, structurally
comparable values (``.Equals()`` semantics for ``require``), which the
standard library's ``xml.etree`` elements are not.

The parser covers the fragment the benchmarks exercise: elements,
attributes (single- or double-quoted), text, self-closing tags,
comments, and an optional XML declaration. Insignificant whitespace
between elements is dropped (matching how the paper's examples are
written across multiple lines); text content inside a mixed element is
preserved verbatim.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterator, List, Tuple, Union

Child = Union["XmlNode", str]


class XmlParseError(ValueError):
    """Malformed XML input."""


@dataclass(frozen=True, eq=False)
class XmlNode:
    """An XML element: tag, sorted attribute pairs, children.

    Children are elements or text strings. Nodes are hashable and
    compare structurally; attribute order is canonicalized so two
    documents differing only in attribute order are equal.
    """

    tag: str
    attrs: Tuple[Tuple[str, str], ...] = ()
    children: Tuple[Child, ...] = ()
    _hash: int = field(init=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "attrs", tuple(sorted(self.attrs)))
        # Canonical children: adjacent text runs coalesce and empty text
        # disappears, so structurally identical documents compare equal
        # regardless of how their text was chunked.
        canonical: list = []
        for child in self.children:
            if isinstance(child, str):
                if not child:
                    continue
                if canonical and isinstance(canonical[-1], str):
                    canonical[-1] += child
                    continue
            canonical.append(child)
        object.__setattr__(self, "children", tuple(canonical))
        object.__setattr__(
            self, "_hash", hash((self.tag, self.attrs, self.children))
        )

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # Rebuild through the constructor on load: ``_hash`` mixes str
        # hashes (PYTHONHASHSEED-dependent) and ``__eq__`` trusts it.
        return XmlNode, (self.tag, self.attrs, self.children)

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, XmlNode):
            return NotImplemented
        return (
            self._hash == other._hash
            and self.tag == other.tag
            and self.attrs == other.attrs
            and self.children == other.children
        )

    # -- queries -------------------------------------------------------

    def attr(self, name: str) -> str:
        for key, value in self.attrs:
            if key == name:
                return value
        raise KeyError(name)

    def has_attr(self, name: str) -> bool:
        return any(key == name for key, _ in self.attrs)

    def elements(self) -> Tuple["XmlNode", ...]:
        """Child elements (text children skipped)."""
        return tuple(c for c in self.children if isinstance(c, XmlNode))

    def text(self) -> str:
        """Concatenated text content of the whole subtree."""
        out: List[str] = []
        for child in self.children:
            if isinstance(child, str):
                out.append(child)
            else:
                out.append(child.text())
        return "".join(out)

    def descendants(self) -> Iterator["XmlNode"]:
        """All descendant elements, preorder, excluding self."""
        for child in self.elements():
            yield child
            yield from child.descendants()

    def find_all(self, tag: str) -> Tuple["XmlNode", ...]:
        return tuple(n for n in self.descendants() if n.tag == tag)

    # -- functional updates ---------------------------------------------

    def with_attr(self, name: str, value: str) -> "XmlNode":
        kept = tuple((k, v) for k, v in self.attrs if k != name)
        return XmlNode(self.tag, kept + ((name, value),), self.children)

    def without_attr(self, name: str) -> "XmlNode":
        kept = tuple((k, v) for k, v in self.attrs if k != name)
        return XmlNode(self.tag, kept, self.children)

    def with_children(self, children: Tuple[Child, ...]) -> "XmlNode":
        return XmlNode(self.tag, self.attrs, tuple(children))

    def with_tag(self, tag: str) -> "XmlNode":
        return XmlNode(tag, self.attrs, self.children)

    def append(self, child: Child) -> "XmlNode":
        return XmlNode(self.tag, self.attrs, self.children + (child,))

    # -- rendering -------------------------------------------------------

    def __str__(self) -> str:
        return serialize(self)

    def __repr__(self) -> str:
        return f"XmlNode({serialize(self)!r})"


def _escape_text(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _escape_attr(text: str) -> str:
    return _escape_text(text).replace('"', "&quot;")


def _unescape(text: str) -> str:
    return (
        text.replace("&lt;", "<")
        .replace("&gt;", ">")
        .replace("&quot;", '"')
        .replace("&apos;", "'")
        .replace("&amp;", "&")
    )


def serialize(node: XmlNode) -> str:
    """Compact serialization: no added whitespace, self-closing empties,
    attributes in canonical (sorted) order."""
    attrs = "".join(f' {k}="{_escape_attr(v)}"' for k, v in node.attrs)
    if not node.children:
        return f"<{node.tag}{attrs}/>"
    inner = "".join(
        _escape_text(c) if isinstance(c, str) else serialize(c)
        for c in node.children
    )
    return f"<{node.tag}{attrs}>{inner}</{node.tag}>"


_TAG_OPEN = re.compile(
    r"<([A-Za-z_][\w.\-]*)((?:\s+[\w.\-:]+\s*=\s*(?:\"[^\"]*\"|'[^']*'))*)\s*(/?)>"
)
_ATTR = re.compile(r"([\w.\-:]+)\s*=\s*(\"[^\"]*\"|'[^']*')")


def parse_xml(source: str) -> XmlNode:
    """Parse an XML document (or fragment with one root element).

    >>> node = parse_xml('<doc><p class="a">hi</p></doc>')
    >>> node.tag, node.elements()[0].attr('class'), node.text()
    ('doc', 'a', 'hi')
    """
    node, pos = _parse_element(source, _skip_prolog(source))
    rest = source[pos:].strip()
    if rest:
        raise XmlParseError(f"trailing content after root element: {rest[:40]!r}")
    return node


def _skip_prolog(source: str) -> int:
    pos = 0
    while True:
        while pos < len(source) and source[pos].isspace():
            pos += 1
        if source.startswith("<?", pos):
            end = source.find("?>", pos)
            if end < 0:
                raise XmlParseError("unterminated XML declaration")
            pos = end + 2
        elif source.startswith("<!--", pos):
            end = source.find("-->", pos)
            if end < 0:
                raise XmlParseError("unterminated comment")
            pos = end + 3
        else:
            return pos


def _parse_element(source: str, pos: int) -> Tuple[XmlNode, int]:
    match = _TAG_OPEN.match(source, pos)
    if match is None:
        raise XmlParseError(f"expected an element at {source[pos:pos + 40]!r}")
    tag = match.group(1)
    attrs = tuple(
        (name, _unescape(raw[1:-1]))
        for name, raw in _ATTR.findall(match.group(2) or "")
    )
    pos = match.end()
    if match.group(3) == "/":
        return XmlNode(tag, attrs), pos
    children: List[Child] = []
    text_buffer: List[str] = []

    def flush_text() -> None:
        if text_buffer:
            text = "".join(text_buffer)
            if text.strip():
                children.append(_unescape(text))
            text_buffer.clear()

    while True:
        if pos >= len(source):
            raise XmlParseError(f"unterminated element <{tag}>")
        if source.startswith("</", pos):
            end = source.find(">", pos)
            if end < 0:
                raise XmlParseError(f"unterminated close tag for <{tag}>")
            closing = source[pos + 2:end].strip()
            if closing != tag:
                raise XmlParseError(
                    f"mismatched close tag </{closing}> for <{tag}>"
                )
            flush_text()
            return XmlNode(tag, attrs, tuple(children)), end + 1
        if source.startswith("<!--", pos):
            end = source.find("-->", pos)
            if end < 0:
                raise XmlParseError("unterminated comment")
            pos = end + 3
            continue
        if source[pos] == "<":
            flush_text()
            child, pos = _parse_element(source, pos)
            children.append(child)
            continue
        next_tag = source.find("<", pos)
        if next_tag < 0:
            raise XmlParseError(f"unterminated element <{tag}>")
        text_buffer.append(source[pos:next_tag])
        pos = next_tag
