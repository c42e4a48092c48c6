"""Textual form for spatio-temporal formulas.

The wire syntax mirrors the constructor names, e.g.::

    IMPLIES(AND(TimeInterval(300,605),Owner("AreaOfInterest")),
            OccupyBox(1051,3056,1505,3603))

``parse_invariant`` normalizes its result, so for every term ``x``,
``parse_invariant(format_invariant(x)) == normalize(x)``.
"""

from __future__ import annotations

import json
import re

from .spatial import (
    And,
    Box,
    FalseAtom,
    Implies,
    Invariant,
    Junction,
    Not,
    OccupyBox,
    OccupyPoint,
    Or,
    Owner,
    TimeInterval,
    TimeWindow,
    TrueAtom,
    normalize,
)


class FormulaParseError(ValueError):
    """Raised on malformed formula text; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


_TOKEN_RE = re.compile(
    r"""\s*(?:
        (?P<int>-?\d+)
      | (?P<name>[A-Za-z][A-Za-z0-9]*)
      | (?P<string>"(?:[^"\\]|\\.)*")
      | (?P<punct>[(),])
    )""",
    re.VERBOSE,
)


# The deepest nesting of parentheses a formula may have. Parsing and
# compiling a formula each take two Python frames per level, so at the
# default recursion limit of 1,000 frames this leaves 20 for the callers.
_MAX_DEPTH = 490


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """The tokens of ``text``, refused past ``_MAX_DEPTH`` nested parentheses.

    The depth is counted here, before any recursion, so a formula nested
    too deeply is a parse error and never a ``RecursionError``.
    """
    tokens = []
    pos = 0
    depth = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            if text[pos:].strip() == "":
                break
            raise FormulaParseError(f"unexpected character {text[pos]!r}", pos)
        for kind in ("int", "name", "string", "punct"):
            value = match.group(kind)
            if value is not None:
                tokens.append((kind, value, match.start(kind)))
                break
        if value == "(":
            depth += 1
            if depth > _MAX_DEPTH:
                raise FormulaParseError("nested too deeply", match.start(kind))
        elif value == ")":
            depth -= 1
        pos = match.end()
    tokens.append(("eof", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.index = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.index]

    def take(self, kind: str, value: str | None = None) -> tuple[str, str, int]:
        tok_kind, tok_value, pos = self.tokens[self.index]
        if tok_kind != kind or (value is not None and tok_value != value):
            expected = value if value is not None else kind
            raise FormulaParseError(
                f"expected {expected}, found {tok_value or tok_kind!r}", pos
            )
        self.index += 1
        return tok_kind, tok_value, pos

    def parse_int(self) -> int:
        _, value, _ = self.take("int")
        return int(value)

    def parse_string(self) -> str:
        _, value, pos = self.take("string")
        try:
            return json.loads(value)
        except json.JSONDecodeError:
            raise FormulaParseError("bad string literal", pos) from None

    def parse_term(self) -> Invariant:
        kind, name, pos = self.take("name")
        if name == "TRUE":
            return TrueAtom()
        if name == "FALSE":
            return FalseAtom()
        if name in ("AND", "OR"):
            terms = self.parse_args(self.parse_term, minimum=1)
            return And(terms) if name == "AND" else Or(terms)
        if name == "NOT":
            (term,) = self.parse_args(self.parse_term, exactly=1)
            return Not(term)
        if name == "IMPLIES":
            lhs, rhs = self.parse_args(self.parse_term, exactly=2)
            return Implies(lhs, rhs)
        if name == "TimeInterval":
            start, end = self.parse_args(self.parse_int, exactly=2)
            return TimeInterval(TimeWindow(start, end))
        if name == "Owner":
            (owner,) = self.parse_args(self.parse_string, exactly=1)
            return Owner(owner)
        if name == "OccupyBox":
            x1, y1, x2, y2 = self.parse_args(self.parse_int, exactly=4)
            return OccupyBox(Box(x1, y1, x2, y2))
        if name == "OccupyPoint":
            x, y = self.parse_args(self.parse_int, exactly=2)
            return OccupyPoint(x, y)
        raise FormulaParseError(f"unknown construct {name!r}", pos)

    def parse_args(self, parse_one, exactly: int | None = None, minimum: int = 0):
        self.take("punct", "(")
        args = []
        if self.peek()[:2] != ("punct", ")"):
            args.append(parse_one())
            while self.peek()[:2] == ("punct", ","):
                self.take("punct", ",")
                args.append(parse_one())
        _, _, pos = self.take("punct", ")")
        if exactly is not None and len(args) != exactly:
            raise FormulaParseError(
                f"expected {exactly} argument(s), found {len(args)}", pos
            )
        if len(args) < minimum:
            raise FormulaParseError(
                f"expected at least {minimum} argument(s), found {len(args)}", pos
            )
        return args


def parse_invariant(text: str) -> Invariant:
    """Parse a formula from its textual form and normalize it."""
    parser = _Parser(text)
    term = parser.parse_term()
    kind, value, pos = parser.peek()
    if kind != "eof":
        raise FormulaParseError(f"trailing input {value!r}", pos)
    return normalize(term)


def format_invariant(inv: Invariant) -> str:
    """Render a formula in the textual form accepted by ``parse_invariant``."""
    if isinstance(inv, TrueAtom):
        return "TRUE"
    if isinstance(inv, FalseAtom):
        return "FALSE"
    if isinstance(inv, Junction):
        terms = ",".join(format_invariant(t) for t in inv.terms)
        return f"{type(inv).__name__.upper()}({terms})"
    if isinstance(inv, Not):
        return f"NOT({format_invariant(inv.term)})"
    if isinstance(inv, Implies):
        return (
            f"IMPLIES({format_invariant(inv.antecedent)},"
            f"{format_invariant(inv.consequent)})"
        )
    if isinstance(inv, TimeInterval):
        return f"TimeInterval({inv.window.start},{inv.window.end})"
    if isinstance(inv, Owner):
        return f"Owner({json.dumps(inv.name)})"
    if isinstance(inv, OccupyBox):
        b = inv.box
        return f"OccupyBox({b.x1},{b.y1},{b.x2},{b.y2})"
    if isinstance(inv, OccupyPoint):
        return f"OccupyPoint({inv.x},{inv.y})"
    raise TypeError(f"unknown invariant term: {inv!r}")
