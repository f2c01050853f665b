"""The strings domain: the extended FlashFill DSL of Fig. 6.

The component library reimplements the core of Gulwani's POPL'11 string
transformation language: token-sequence regexes, position expressions
(``CPos``/``Pos``/``RelPos``), substring extraction, concatenation, the
``Loop`` construct over a loop variable ``w``, and ``SplitAndMerge``.
The bolded extensions from Fig. 6 are included: nested substrings
(``SubStr`` over ``f``), positions dependent on the loop variable and on
integer parameters, ``Trim``, calls to other LaSy functions
(``_LASY_FN``) and recursion (``_RECURSE``).

Positions and regexes are first-class *data* (tagged tuples), not
closures, so the §5.1 semantic deduplication applies to them: a position
expression's observable behaviour on the example inputs is the data
itself plus how ``SubStr``/``GetPosition`` resolve it.
"""

from __future__ import annotations

import re
from functools import lru_cache
from typing import Any, Dict, List, Sequence, Tuple

from ..core.dsl import Dsl, DslBuilder, Example, LambdaSpec
from ..core.evaluator import EvaluationError
from ..core.rewrite import parse_rule
from ..core.types import BOOL, INT, STRING, Type
from ..core.values import ERROR
from .registry import Domain, register_domain

# Regexes/positions are opaque domain data to the type system.
REGEX = Type("regex")
POSITION = Type("position")
TOKEN = Type("token")

# ---------------------------------------------------------------------
# Tokens and token-sequence regexes

TOKEN_PATTERNS: Dict[str, str] = {
    "Alpha": r"[A-Za-z]+",
    "Num": r"[0-9]+",
    "Alnum": r"[A-Za-z0-9]+",
    "Upper": r"[A-Z]+",
    "Lower": r"[a-z]+",
    "Space": r" +",
    "Whitespace": r"\s+",
    "Comma": r",",
    "Dot": r"\.",
    "Hyphen": r"-",
    "Slash": r"/",
    "Colon": r":",
    "Semicolon": r";",
    "LParen": r"\(",
    "RParen": r"\)",
    "Quote": r"\"",
    "Newline": r"\n",
    "Underscore": r"_",
    "At": r"@",
    "Start": r"^",
    "End": r"$",
}

# The empty token sequence ε matches the empty string at any boundary.
EPSILON: Tuple[str, ...] = ()


def token_seq(*tokens: str) -> Tuple[str, ...]:
    for token in tokens:
        if token not in TOKEN_PATTERNS:
            raise EvaluationError(f"unknown token {token!r}")
    return tuple(tokens)


@lru_cache(maxsize=4096)
def _compiled(tokens: Tuple[str, ...]) -> "re.Pattern[str]":
    return re.compile("".join(TOKEN_PATTERNS[t] for t in tokens))


@lru_cache(maxsize=65536)
def _boundary_positions(
    value: str, left: Tuple[str, ...], right: Tuple[str, ...]
) -> Tuple[int, ...]:
    """All positions p in ``value`` where a suffix of ``value[:p]``
    matches ``left`` and a prefix of ``value[p:]`` matches ``right``
    (FlashFill's Pos semantics)."""
    positions: List[int] = []
    left_re = _compiled(left) if left else None
    right_re = _compiled(right) if right else None
    for p in range(len(value) + 1):
        if left_re is not None:
            before = value[:p]
            # A suffix of `before` must match `left`, ending exactly at p.
            if not any(
                left_re.fullmatch(before, start)
                for start in range(len(before) + 1)
            ):
                continue
        if right_re is not None:
            if right_re.match(value, p) is None:
                continue
        positions.append(p)
    return tuple(positions)


# ---------------------------------------------------------------------
# Position expressions (first-class data)


def cpos(k: int) -> Tuple[Any, ...]:
    """Constant position; negative counts from the end (CPos(-1) is the
    position past the last character)."""
    return ("cpos", k)


def pos(left: Any, right: Any, count: int) -> Tuple[Any, ...]:
    """The count-th boundary between a ``left`` and a ``right`` match
    (1-based; negative counts from the end)."""
    return ("pos", tuple(left), tuple(right), count)


def rel_pos(base: Any, right: Any, count: int) -> Tuple[Any, ...]:
    """A boundary located relative to another position: the count-th
    ``right`` match at or after (count>0) / before (count<0) ``base``."""
    return ("relpos", tuple(base), tuple(right), count)


def pos_within(left: Any, right: Any, count: int, limit: int) -> Tuple[Any, ...]:
    """Like :func:`pos` but restricted to boundaries at offset ≤
    ``limit`` — a position "dependent on an integer parameter" (Fig. 6's
    bold CPos(j) generalized), e.g. word wrap's last space at or before
    the line limit."""
    return ("poswithin", tuple(left), tuple(right), count, limit)


def resolve_position(position: Any, value: str) -> int:
    """Resolve a position expression against a concrete string."""
    if not isinstance(position, tuple) or not position:
        raise EvaluationError("malformed position expression")
    tag = position[0]
    if tag == "cpos":
        k = position[1]
        if not isinstance(k, int):
            raise EvaluationError("CPos index must be an int")
        index = k if k >= 0 else len(value) + k + 1
        if not 0 <= index <= len(value):
            raise EvaluationError("CPos out of range")
        return index
    if tag == "pos":
        _, left, right, count = position
        matches = _boundary_positions(value, tuple(left), tuple(right))
        if not matches or count == 0:
            raise EvaluationError("Pos: no match")
        index = count - 1 if count > 0 else len(matches) + count
        if not 0 <= index < len(matches):
            raise EvaluationError("Pos: match count out of range")
        return matches[index]
    if tag == "poswithin":
        _, left, right, count, limit = position
        if not isinstance(limit, int) or limit < 0:
            raise EvaluationError("PosWithin: bad limit")
        matches = [
            m
            for m in _boundary_positions(value, tuple(left), tuple(right))
            if m <= limit
        ]
        if not matches or count == 0:
            raise EvaluationError("PosWithin: no match")
        index = count - 1 if count > 0 else len(matches) + count
        if not 0 <= index < len(matches):
            raise EvaluationError("PosWithin: match count out of range")
        return matches[index]
    if tag == "relpos":
        _, base, right, count = position
        origin = resolve_position(tuple(base), value)
        matches = _boundary_positions(value, EPSILON, tuple(right))
        if count > 0:
            after = [m for m in matches if m >= origin]
            if len(after) < count:
                raise EvaluationError("RelPos: no match after base")
            return after[count - 1]
        if count < 0:
            before = [m for m in matches if m <= origin]
            if len(before) < -count:
                raise EvaluationError("RelPos: no match before base")
            return before[count]
        raise EvaluationError("RelPos: count must be nonzero")
    raise EvaluationError(f"unknown position tag {tag!r}")


# ---------------------------------------------------------------------
# Component functions


def const_str(s: str) -> str:
    return s


def substr(value: str, p1: Any, p2: Any) -> str:
    if not isinstance(value, str):
        raise EvaluationError("SubStr on a non-string")
    start = resolve_position(p1, value)
    end = resolve_position(p2, value)
    if start > end:
        raise EvaluationError("SubStr: empty or inverted range")
    return value[start:end]


def concatenate(left: str, right: str) -> str:
    return left + right


def trim(value: str) -> str:
    return value.strip()


def to_upper(value: str) -> str:
    return value.upper()


def to_lower(value: str) -> str:
    return value.lower()


_LOOP_CAP = 64


def flash_loop(body: Any) -> str:
    """FlashFill's Loop: concatenate body(0), body(1), ... until the body
    errors; the result is the concatenation of the successful pieces."""
    pieces: List[str] = []
    for w in range(_LOOP_CAP):
        try:
            piece = body(w)
        except EvaluationError:
            break
        if not isinstance(piece, str):
            raise EvaluationError("Loop body must produce strings")
        pieces.append(piece)
    return "".join(pieces)


def split_and_merge(value: str, sep: str, joiner: str, body: Any) -> str:
    if not sep:
        raise EvaluationError("SplitAndMerge: empty separator")
    pieces = value.split(sep)
    out: List[str] = []
    for piece in pieces:
        mapped = body(piece)
        if not isinstance(mapped, str):
            raise EvaluationError("SplitAndMerge body must produce strings")
        out.append(mapped)
    return joiner.join(out)


def match(value: str, regex: Any, k: int) -> bool:
    """Whether the token sequence occurs at least ``k`` times."""
    if not isinstance(value, str):
        raise EvaluationError("Match on a non-string")
    if not regex:
        raise EvaluationError("Match against ε")
    if k <= 0:
        raise EvaluationError("Match count must be positive")
    found = _compiled(tuple(regex)).findall(value)
    return len(found) >= k


def str_length(value: str) -> int:
    return len(value)


def get_position(value: str, position: Any) -> int:
    return resolve_position(position, value)


def int_lt(a: int, b: int) -> bool:
    return a < b


def bool_not(a: bool) -> bool:
    if not isinstance(a, bool):
        raise EvaluationError("! on a non-bool")
    return not a


def bool_and(a: bool, b: bool) -> bool:
    return bool(a) and bool(b)


def bool_or(a: bool, b: bool) -> bool:
    return bool(a) or bool(b)


def w_times_plus(k1: int, w: int, k2: int) -> int:
    return k1 * w + k2


def int_plus(a: int, b: int) -> int:
    return a + b


# ---------------------------------------------------------------------
# Constant inference


_PUNCT_CANDIDATES = [
    " ",
    "",
    ",",
    ", ",
    ".",
    "\n",
    "-",
    "(",
    ")",
    ":",
    ";",
    "; ",
    ": ",
    "/",
    "'",
    '"',
    " (",
    ") ",
]


def _common_affixes(outputs: Sequence[str]) -> List[str]:
    """Longest common prefix/suffix of the outputs — likely constants."""
    if not outputs:
        return []
    prefix = outputs[0]
    suffix = outputs[0]
    for text in outputs[1:]:
        while prefix and not text.startswith(prefix):
            prefix = prefix[:-1]
        while suffix and not text.endswith(suffix):
            suffix = suffix[:-1]
    found = []
    if 0 < len(prefix) <= 16:
        found.append(prefix)
    if 0 < len(suffix) <= 16 and suffix != prefix:
        found.append(suffix)
    return found


def infer_string_constants(examples: Sequence[Example]) -> List[str]:
    """Constant-string candidates from the examples (§3.2 "Constant
    value generation"): punctuation/separator literals appearing in the
    outputs, characters in outputs but absent from inputs, and common
    output affixes."""
    outputs = [e.output for e in examples if isinstance(e.output, str)]
    inputs: List[str] = []
    for e in examples:
        inputs.extend(a for a in e.args if isinstance(a, str))
    constants: List[str] = []
    for cand in _PUNCT_CANDIDATES:
        # Separators may live in the inputs only (word wrap's space is
        # *replaced* by the newline in the outputs), so harvest both.
        if (
            cand == ""
            or any(cand in out for out in outputs)
            or any(cand in value for value in inputs)
        ):
            constants.append(cand)
    input_chars = set("".join(inputs))
    for out in outputs:
        for ch in out:
            if ch not in input_chars and ch not in constants:
                constants.append(ch)
    for affix in _common_affixes(outputs):
        if affix not in constants:
            constants.append(affix)
    return constants


_DEFAULT_TOKENS = [
    "Alpha",
    "Num",
    "Alnum",
    "Upper",
    "Lower",
    "Space",
    "Comma",
    "Dot",
    "Hyphen",
    "LParen",
    "RParen",
    "Newline",
    "Slash",
    "At",
]


def flashfill_constants(examples: Sequence[Example]) -> Dict[str, List[Any]]:
    """The extended FlashFill DSL's constant provider."""
    ints = [0, 1, 2, -1, -2, 3]
    tokens: List[Tuple[str, ...]] = [EPSILON]
    tokens.extend(token_seq(name) for name in _DEFAULT_TOKENS)
    return {
        "s": infer_string_constants(examples),
        "k": ints,
        "r": tokens,
    }


# ---------------------------------------------------------------------
# The DSL


def make_flashfill_dsl(extended: bool = True) -> Dsl:
    """Build the FlashFill DSL of Fig. 6.

    ``extended=False`` drops the bolded Fig. 6 additions (nested
    substrings, loop-variable positions, Trim, _LASY_FN, _RECURSE),
    approximating the original POPL'11 language — that restriction is the
    comparison boundary of §6.1.1.
    """
    b = DslBuilder("flashfill" if extended else "flashfill-core", start="P")
    b.nt("P", STRING)
    b.nt("e", STRING)
    b.nt("f", STRING)
    b.nt("v", STRING)
    b.nt("s", STRING)
    b.nt("p", POSITION)
    b.nt("r", REGEX)
    b.nt("c", INT)
    b.nt("k", INT)
    b.nt("j", INT)
    b.nt("b", BOOL)
    b.nt("d", BOOL)
    b.nt("pi", BOOL)
    b.nt("m", BOOL)
    b.nt("i", INT)

    # P ::= CONDITIONAL(b, e)
    b.conditional("P", guard_nt="b", branch_nt="e")

    # e ::= Concatenate(f, e) | f
    b.fn("e", "Concatenate", ["f", "e"], concatenate)
    b.unit("e", "f")

    # f ::= ConstStr(s) | SubStr(v, p, p) | Loop(λw: e) | v
    b.fn("f", "ConstStr", ["s"], const_str)
    b.fn("f", "SubStr", ["v", "p", "p"], substr)
    b.fn("f", "Loop", [LambdaSpec(("w",), (INT,), "e")], flash_loop)
    b.unit("f", "v")

    # v ::= _PARAM (string parameters)
    b.param("v")
    # s ::= _CONSTANT
    b.constant("s")
    # k ::= _CONSTANT ; j ::= _PARAM (int parameters)
    b.constant("k")
    b.param("j")

    # p ::= Pos(r, r, c) | CPos(c)
    b.fn("p", "Pos", ["r", "r", "c"], pos)
    b.fn("p", "CPos", ["c"], cpos)

    # c ::= k | k*w+k  (w is the Loop variable)
    b.nt("w", INT)
    b.var("w", "w")
    b.unit("c", "k")
    b.fn("c", "WTimesPlus", ["k", "w", "k"], w_times_plus)
    b.unit("c", "w")

    # r ::= _CONSTANT (token sequences incl. ε) | TokenPair(r, r)
    b.constant("r")

    # Guards: b ::= ||(d, d) | d ; d ::= &&(pi, pi) | pi ;
    # pi ::= m | !(m) ; m ::= Match(v, r, k) | <(i, i)
    b.fn("b", "Or", ["d", "d"], bool_or)
    b.unit("b", "d")
    b.fn("d", "And", ["pi", "pi"], bool_and)
    b.unit("d", "pi")
    b.unit("pi", "m")
    b.fn("pi", "Not", ["m"], bool_not)
    b.fn("m", "Match", ["v", "r", "k"], match)
    b.fn("m", "Lt", ["i", "i"], int_lt)

    # i ::= Length(v) | GetPosition(v, p) | j | k
    b.fn("i", "Length", ["v"], str_length)
    b.fn("i", "GetPosition", ["v", "p"], get_position)
    b.unit("i", "j")
    b.unit("i", "k")

    if extended:
        # Fig. 6 bold extensions. Nested substrings take *simple*
        # positions only (constant offsets, possibly parameter-relative):
        # an expert prune keeping the f × p × p product tractable — the
        # typical nested extraction peels a fixed-width piece.
        b.nt("p2", POSITION)
        b.fn("p2", "CPos", ["c"], cpos)
        b.fn("f", "SubStrF", ["f", "p2", "p2"], substr)  # nested substrings
        b.fn("f", "Trim", ["f"], trim)
        b.fn(
            "f",
            "SplitAndMerge",
            ["v", "s", "s", LambdaSpec(("piece",), (STRING,), "e")],
            split_and_merge,
        )
        b.var("v", "piece")  # the SplitAndMerge piece variable
        b.lasy_fn("f", ["f"])
        b.recurse("f", ["f", "j"])
        b.fn("m", "MatchF", ["f", "r", "k"], match)
        b.fn("i", "LengthF", ["f"], str_length)
        b.unit("c", "j")  # CPos(j): positions from int parameters
        b.fn("c", "PlusJ", ["k", "j"], int_plus)
        # Positions bounded by an int parameter (word wrap's "last space
        # at or before the line limit"). The count is a plain constant
        # (k) and the limit a parameter-derived value (cl) to keep the
        # production from squaring the c pool.
        b.nt("cl", INT)
        b.unit("cl", "j")
        b.fn("cl", "PlusJL", ["k", "j"], int_plus)
        b.fn("p", "PosWithin", ["r", "r", "k", "cl"], pos_within)

    # Rewrite rules from Fig. 6.
    function_names = [
        "Or",
        "And",
        "Not",
        "Trim",
        "WTimesPlus",
        "Concatenate",
        "ConstStr",
    ]
    b.rewrite(parse_rule("And(pi0, pi1) ==> And(pi1, pi0)", function_names))
    b.rewrite(parse_rule("Or(d0, d0) ==> d0", function_names))
    b.rewrite(parse_rule("Or(d0, d1) ==> Or(d1, d0)", function_names))
    b.rewrite(parse_rule("And(pi0, pi0) ==> pi0", function_names))
    if extended:
        b.rewrite(parse_rule("Trim(Trim(f0)) ==> f0", function_names))
        b.rewrite(
            parse_rule("WTimesPlus(0, w0, k0) ==> k0", function_names)
        )
    b.rewrite(
        parse_rule(
            'Concatenate(ConstStr(""), f0) ==> f0', function_names
        )
    )

    b.constants_from(flashfill_constants)
    from ..core.strategies import make_concat_strategy

    b.composition_strategy(
        make_concat_strategy("Concatenate", piece_nt="f", out_nt="e")
    )
    b.signature_adapter("p", position_signature)
    b.signature_adapter("p2", position_signature)
    b.signature_adapter("r", regex_signature)
    # Concatenation pieces must occur inside some expected output — the
    # output-guided prune (an inverse-strategy hint in the spirit of
    # §5.4). Correct branch/loop fragments are always infixes of the
    # output they help build, so no solution is lost.
    b.admission_filter("e", output_infix_filter)
    # Substring-level pieces (f) additionally admit input infixes: every
    # extraction result lives inside an input, every constant piece
    # inside an output. This keeps the f pool from quadratic blow-up
    # (word wrap's prefix pieces are input infixes, not output ones).
    b.admission_filter("f", input_or_output_infix_filter)
    return b.build()


def input_or_output_infix_filter(
    values: Sequence[Any], examples: Sequence[Example]
) -> bool:
    """Keep a piece only if, on at least one example, it evaluates to a
    non-empty infix of that example's output or of one of its string
    inputs (errors are inconclusive and never disqualify alone)."""
    saw_value = False
    for value, example in zip(values, examples):
        if value is ERROR:
            continue
        if not isinstance(value, str):
            return False
        saw_value = True
        if not value:
            continue
        if isinstance(example.output, str) and value in example.output:
            return True
        if any(
            isinstance(arg, str) and value in arg for arg in example.args
        ):
            return True
    return not saw_value


def output_infix_filter(values: Sequence[Any], examples: Sequence[Example]) -> bool:
    """Keep a concatenation piece only if, on at least one example, it
    evaluates to a non-empty infix of the expected output (errors are
    inconclusive and never disqualify on their own)."""
    saw_value = False
    for value, example in zip(values, examples):
        if value is ERROR or not isinstance(example.output, str):
            continue
        if not isinstance(value, str):
            return False
        saw_value = True
        if value and value in example.output:
            return True
    return not saw_value


def position_signature(value: Any, example: Example) -> Any:
    """Semantic fingerprint of a position expression: where it resolves
    in every string argument of the example. Collapses the thousands of
    syntactically distinct Pos/CPos variants onto their few observable
    behaviours."""
    out: List[Any] = []
    for arg in example.args:
        if isinstance(arg, str):
            try:
                out.append(resolve_position(value, arg))
            except EvaluationError:
                out.append("<err>")
    return tuple(out)


def regex_signature(value: Any, example: Example) -> Any:
    """Fingerprint a token-sequence regex by its boundary positions in
    the example's string arguments."""
    out: List[Any] = []
    for arg in example.args:
        if isinstance(arg, str):
            try:
                out.append(_boundary_positions(arg, tuple(value), EPSILON))
            except (EvaluationError, re.error):
                out.append("<err>")
    return tuple(out)


def _make_dsl_with_w() -> Dsl:
    return make_flashfill_dsl(extended=True)


def coerce_strings(ty: Type, value: Any) -> Any:
    del ty
    return value


STRINGS_DOMAIN = register_domain(
    Domain(
        name="strings",
        make_dsl=_make_dsl_with_w,
        coerce=coerce_strings,
        description="Extended FlashFill string-transformation DSL (Fig. 6)",
    )
)
