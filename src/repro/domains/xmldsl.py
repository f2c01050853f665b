"""The XML-transformation domain (§6.1.3).

The paper built a DSL "able to express the operations necessary" for ten
real-world help-forum XML tasks, including the two shown in Figs. 3-4
(lists-to-table alignment, class-attribute propagation). This module
provides that DSL over :mod:`repro.domains.xmltree`: tree queries
(descendants by tag, children, attributes, text), tree builders (new
elements, rows/cells), per-node rewrites via a map-children combinator,
and the string bridge the paper highlights ("making the string and XML
DSLs work together required simply putting the functions to convert
between the two in the DSL").
"""

from __future__ import annotations

from functools import lru_cache
from typing import Any, Dict, List, Sequence, Tuple

from ..core.dsl import Dsl, DslBuilder, Example, LambdaSpec
from ..core.evaluator import EvaluationError
from ..core.types import BOOL, INT, STRING, XML, Type, list_of
from .registry import Domain, register_domain
from .xmltree import XmlNode, parse_xml, serialize

NODE_LIST = list_of(XML)


def _require_node(value: Any) -> XmlNode:
    if not isinstance(value, XmlNode):
        raise EvaluationError("expected an XML node")
    return value


def _require_nodes(value: Any) -> Tuple[XmlNode, ...]:
    if not isinstance(value, tuple) or not all(
        isinstance(v, XmlNode) for v in value
    ):
        raise EvaluationError("expected a node list")
    return value


# -- queries -----------------------------------------------------------


def descendants(node: Any, tag: str) -> Tuple[XmlNode, ...]:
    return _require_node(node).find_all(tag)


def children_of(node: Any) -> Tuple[XmlNode, ...]:
    return _require_node(node).elements()


def first_node(nodes: Any) -> XmlNode:
    seq = _require_nodes(nodes)
    if not seq:
        raise EvaluationError("empty node list")
    return seq[0]


def node_at(nodes: Any, index: int) -> XmlNode:
    seq = _require_nodes(nodes)
    if not -len(seq) <= index < len(seq):
        raise EvaluationError("node index out of range")
    return seq[index]


def tag_of(node: Any) -> str:
    return _require_node(node).tag


def text_of(node: Any) -> str:
    return _require_node(node).text()


def attr_of(node: Any, name: str) -> str:
    node = _require_node(node)
    try:
        return node.attr(name)
    except KeyError as exc:
        raise EvaluationError(f"no attribute {name!r}") from exc


def has_attr(node: Any, name: str) -> bool:
    return _require_node(node).has_attr(name)


def has_tag(node: Any, tag: str) -> bool:
    return _require_node(node).tag == tag


def count_nodes(nodes: Any) -> int:
    return len(_require_nodes(nodes))


def filter_by_attr(nodes: Any, name: str, value: str) -> Tuple[XmlNode, ...]:
    return tuple(
        n
        for n in _require_nodes(nodes)
        if n.has_attr(name) and n.attr(name) == value
    )


# -- builders ------------------------------------------------------------


def new_element(tag: str) -> XmlNode:
    if not tag:
        raise EvaluationError("empty tag name")
    return XmlNode(tag)


def element_with_text(tag: str, text: str) -> XmlNode:
    if not tag:
        raise EvaluationError("empty tag name")
    if text == "":
        return XmlNode(tag)
    return XmlNode(tag, (), (text,))


def element_with_children(tag: str, nodes: Any) -> XmlNode:
    if not tag:
        raise EvaluationError("empty tag name")
    return XmlNode(tag, (), tuple(_require_nodes(nodes)))


def set_attr(node: Any, name: str, value: str) -> XmlNode:
    if not name:
        raise EvaluationError("empty attribute name")
    return _require_node(node).with_attr(name, value)


def remove_attr(node: Any, name: str) -> XmlNode:
    return _require_node(node).without_attr(name)


def rename_attr(node: Any, old: str, new: str) -> XmlNode:
    node = _require_node(node)
    if not node.has_attr(old):
        raise EvaluationError(f"no attribute {old!r}")
    value = node.attr(old)
    return node.without_attr(old).with_attr(new, value)


def rename(node: Any, tag: str) -> XmlNode:
    if not tag:
        raise EvaluationError("empty tag name")
    return _require_node(node).with_tag(tag)


def set_children(node: Any, nodes: Any) -> XmlNode:
    return _require_node(node).with_children(tuple(_require_nodes(nodes)))


def concat_lists(a: Any, b: Any) -> Tuple[XmlNode, ...]:
    return _require_nodes(a) + _require_nodes(b)


def single(node: Any) -> Tuple[XmlNode, ...]:
    return (_require_node(node),)


def map_nodes(nodes: Any, fn: Any) -> Tuple[XmlNode, ...]:
    out: List[XmlNode] = []
    for node in _require_nodes(nodes):
        mapped = fn(node)
        if not isinstance(mapped, XmlNode):
            raise EvaluationError("MapNodes body must produce nodes")
        out.append(mapped)
    return tuple(out)


def propagate_attr(node: Any, name: str) -> XmlNode:
    """Assign each child lacking attribute ``name`` the value of the
    nearest previous sibling that has it (Fig. 4's transformation). A
    domain-expert component: the kind of reusable, pure .NET helper the
    paper's DSLs are built from."""
    node = _require_node(node)
    if not name:
        raise EvaluationError("empty attribute name")
    current: Any = None
    out: List[Any] = []
    for child in node.children:
        if isinstance(child, XmlNode):
            if child.has_attr(name):
                current = child.attr(name)
            elif current is not None:
                child = child.with_attr(name, current)
            out.append(child)
        else:
            out.append(child)
    return node.with_children(tuple(out))


def group_rows_by_attr(
    containers: Any, item_tag: str, key_attr: str
) -> Tuple[XmlNode, ...]:
    """Fig. 3's alignment kernel: given a list of container nodes, align
    their ``item_tag`` children by the ``key_attr`` value (first-seen
    order) into <tr> rows with one <td> per container; missing entries
    become empty cells."""
    containers = _require_nodes(containers)
    keys: List[str] = []
    per: List[Dict[str, XmlNode]] = []
    for container in containers:
        table: Dict[str, XmlNode] = {}
        for item in container.elements():
            if item.tag != item_tag or not item.has_attr(key_attr):
                continue
            key = item.attr(key_attr)
            if key not in table:
                table[key] = item
            if key not in keys:
                keys.append(key)
        per.append(table)
    keys.sort()
    rows: List[XmlNode] = []
    for key in keys:
        cells: List[XmlNode] = []
        for table in per:
            item = table.get(key)
            if item is None:
                cells.append(XmlNode("td"))
            else:
                text = item.text()
                cells.append(
                    XmlNode("td", (), (text,) if text else ())
                )
        rows.append(XmlNode("tr", (), tuple(cells)))
    return tuple(rows)


def to_xml(text: str) -> XmlNode:
    """The string→XML bridge."""
    try:
        return parse_xml(text)
    except Exception as exc:
        raise EvaluationError(f"not parseable as XML: {exc}") from exc


def from_xml(node: Any) -> str:
    """The XML→string bridge."""
    return serialize(_require_node(node))


# -- constants ------------------------------------------------------------


def xml_constants(examples: Sequence[Example]) -> Dict[str, List[Any]]:
    """§3.2: "when synthesizing XML, extracting the names of the tags and
    attributes in the outputs"."""
    tags: List[str] = []
    attrs: List[str] = []
    attr_values: List[str] = []

    def collect(node: XmlNode) -> None:
        if node.tag not in tags:
            tags.append(node.tag)
        for key, value in node.attrs:
            if key not in attrs:
                attrs.append(key)
            if value not in attr_values and len(value) <= 24:
                attr_values.append(value)
        for child in node.elements():
            collect(child)

    for example in examples:
        for value in list(example.args) + [example.output]:
            if isinstance(value, XmlNode):
                collect(value)
    return {
        "tag": tags,
        "attr": attrs,
        "sval": attr_values + [""],
        "k": [0, 1, 2, -1],
        "kidx": [0, 1, 2, -1],
    }


# -- the DSL ---------------------------------------------------------------


# Module-level so the built DSL stays picklable (cached sessions carry
# their DSL through the session-cache journal).
def _concat_s(a: str, b: str) -> str:
    return a + b


def _eq(a: Any, b: Any) -> bool:
    return a == b


def _lt(a: Any, b: Any) -> bool:
    return a < b


def make_xml_dsl() -> Dsl:
    """The XML-transformation DSL used for the §6.1.3 benchmarks."""
    b = DslBuilder("xml", start="P")
    b.nt("P", XML)
    b.nt("n", XML)        # a node
    b.nt("ns", NODE_LIST)  # a node list
    b.nt("str", STRING)
    b.nt("tag", STRING)
    b.nt("attr", STRING)
    b.nt("sval", STRING)
    b.nt("k", INT)
    b.nt("kidx", INT)  # constant indexes only (keeps NodeAt linear)
    b.nt("b", BOOL)

    b.conditional("P", guard_nt="b", branch_nt="n")
    b.unit("P", "n")

    # Queries.
    b.param("n")
    b.fn("ns", "Descendants", ["n", "tag"], descendants)
    b.fn("ns", "Children", ["n"], children_of)
    b.fn("n", "First", ["ns"], first_node)
    b.fn("n", "NodeAt", ["ns", "kidx"], node_at)
    b.fn("str", "Text", ["n"], text_of)
    b.fn("str", "Attr", ["n", "attr"], attr_of)
    b.fn("str", "TagOf", ["n"], tag_of)
    b.fn("ns", "FilterByAttr", ["ns", "attr", "sval"], filter_by_attr)

    # Builders.
    b.fn("n", "Elem", ["tag"], new_element)
    b.fn("n", "ElemText", ["tag", "str"], element_with_text)
    b.fn("n", "ElemChildren", ["tag", "ns"], element_with_children)
    b.fn("n", "SetAttr", ["n", "attr", "sval"], set_attr)
    b.fn("n", "RemoveAttr", ["n", "attr"], remove_attr)
    b.fn("n", "RenameAttr", ["n", "attr", "attr"], rename_attr)
    b.fn("n", "Rename", ["n", "tag"], rename)
    b.fn("n", "SetChildren", ["n", "ns"], set_children)
    b.fn("n", "PropagateAttr", ["n", "attr"], propagate_attr)

    # List combinators (loops over nodes).
    b.fn("ns", "MapNodes", ["ns", LambdaSpec(("node",), (XML,), "n")], map_nodes)
    b.var("n", "node")
    b.fn("ns", "ConcatLists", ["ns", "ns"], concat_lists)
    b.fn("ns", "Single", ["n"], single)
    b.fn("ns", "GroupRowsByAttr", ["ns", "tag", "attr"], group_rows_by_attr)

    # String bridge (cross-domain computation, §6.1.3).
    b.fn("n", "ToXml", ["str"], to_xml)
    b.fn("str", "FromXml", ["n"], from_xml)
    b.fn("str", "ConcatS", ["str", "str"], _concat_s)
    b.unit("str", "sval")

    # Guards.
    b.fn("b", "HasAttr", ["n", "attr"], has_attr)
    b.fn("b", "HasTag", ["n", "tag"], has_tag)
    b.fn("b", "Eq", ["str", "str"], _eq)
    b.fn("k", "Count", ["ns"], count_nodes)
    b.fn("b", "LtK", ["k", "k"], _lt)

    b.constant("tag")
    b.constant("attr")
    b.constant("sval")
    b.constant("k")
    b.constant("kidx")
    b.param("str")

    b.constants_from(xml_constants)
    from ..core.strategies import make_concat_strategy

    b.composition_strategy(
        make_concat_strategy("ConcatS", piece_nt="str", out_nt="str")
    )
    # Output/input-relatedness prunes (expert hints in the spirit of
    # §5.4's inverse strategies; see the strings domain's infix filter).
    # Closed node values must be subtrees of some example input or
    # output; node lists must consist of such subtrees; strings must
    # occur inside some example's serialized form. Lambda bodies (the
    # MapNodes workhorses) carry free variables and are never filtered.
    b.admission_filter("n", node_subtree_filter)
    b.admission_filter("ns", node_list_filter)
    b.admission_filter("str", xml_string_filter)
    return b.build()


@lru_cache(maxsize=64)
def _allowed_subtrees(examples: Tuple[Example, ...]) -> frozenset:
    allowed = set()

    def collect(node: XmlNode) -> None:
        if node in allowed:
            return
        allowed.add(node)
        for child in node.elements():
            collect(child)

    for example in examples:
        for value in list(example.args) + [example.output]:
            if isinstance(value, XmlNode):
                collect(value)
    return frozenset(allowed)


@lru_cache(maxsize=64)
def _haystacks(examples: Tuple[Example, ...]) -> Tuple[str, ...]:
    out = []
    for example in examples:
        parts = []
        for value in list(example.args) + [example.output]:
            if isinstance(value, XmlNode):
                parts.append(serialize(value))
            elif isinstance(value, str):
                parts.append(value)
        out.append("\x00".join(parts))
    return tuple(out)


def node_subtree_filter(values: Sequence[Any], examples: Sequence[Example]) -> bool:
    """Keep a closed node expression only if some example value is a
    subtree of that example's inputs or output (intermediates of
    multi-step rewrites of closed nodes are sacrificed; rewrite chains
    live inside MapNodes lambdas, which are not filtered)."""
    from ..core.values import ERROR

    allowed = _allowed_subtrees(tuple(examples))
    saw_value = False
    for value in values:
        if value is ERROR:
            continue
        if not isinstance(value, XmlNode):
            return False
        saw_value = True
        if value in allowed:
            return True
    return not saw_value


def node_list_filter(values: Sequence[Any], examples: Sequence[Example]) -> bool:
    """Keep a closed node-list expression only if, on some example, all
    its elements are input/output subtrees."""
    from ..core.values import ERROR

    allowed = _allowed_subtrees(tuple(examples))
    saw_value = False
    for value in values:
        if value is ERROR:
            continue
        if not isinstance(value, tuple):
            return False
        saw_value = True
        if all(isinstance(v, XmlNode) and v in allowed for v in value):
            return True
    return not saw_value


def xml_string_filter(values: Sequence[Any], examples: Sequence[Example]) -> bool:
    """Keep a closed string expression only if some non-empty value
    occurs inside that example's serialized inputs/output."""
    from ..core.values import ERROR

    haystacks = _haystacks(tuple(examples))
    saw_value = False
    for value, haystack in zip(values, haystacks):
        if value is ERROR:
            continue
        if not isinstance(value, str):
            return False
        saw_value = True
        if value and value in haystack:
            return True
    return not saw_value


def coerce_xml(ty: Type, value: Any) -> Any:
    """LaSy writes XML literals as strings; parse them for XML-typed
    positions. Whitespace-only text between elements is insignificant."""
    if ty == XML and isinstance(value, str):
        return parse_xml(value)
    return value


XML_DOMAIN = register_domain(
    Domain(
        name="xml",
        make_dsl=make_xml_dsl,
        coerce=coerce_xml,
        description="XML tree transformations over an immutable XML tree",
    )
)
