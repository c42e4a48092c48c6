"""Textual form for spatio-temporal formulas.

The wire syntax mirrors the constructor names, e.g.::

    IMPLIES(AND(TimeInterval(300,605),Owner("AreaOfInterest")),
            OccupyBox(1051,3056,1505,3603))

``parse_invariant`` normalizes its result, so for every term ``x``,
``parse_invariant(format_invariant(x)) == normalize(x)``. Both read the
grammar from ``spatial._CONSTRUCTS``, one row per construct, so nothing
here names a construct.
"""

from __future__ import annotations

import json
import re

from .spatial import _CONSTRUCTS, Invariant, _construct, normalize


class FormulaParseError(ValueError):
    """Raised on malformed formula text; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


# Every token is one group; a character that starts none is ``bad``, and
# the end of the text, after any whitespace, is ``eof``.
_TOKEN_RE = re.compile(
    r"""\s*(?:
        (?P<int>-?[0-9]+)
      | (?P<name>[A-Za-z][A-Za-z0-9]*)
      | (?P<string>"(?:[^"\\]|\\.)*")
      | (?P<punct>[(),])
      | (?P<eof>\Z)
      | (?P<bad>.)
    )""",
    re.VERBOSE | re.DOTALL,
)


# The deepest nesting of parentheses a formula may have. Compiling a
# formula takes two Python frames per level (parsing takes one), so at the
# default recursion limit of 1,000 frames this leaves 20 for the callers.
_MAX_DEPTH = 490


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """The tokens of ``text``, refused past ``_MAX_DEPTH`` nested parentheses.

    The depth is counted here, before any recursion, so a formula nested
    too deeply is a parse error and never a ``RecursionError``.
    """
    tokens = []
    depth = 0
    for match in _TOKEN_RE.finditer(text):
        kind = match.lastgroup
        value = match[kind]
        pos = match.start(kind)
        if kind == "bad":
            raise FormulaParseError(f"unexpected character {value!r}", pos)
        tokens.append((kind, value, pos))
        if kind == "eof":
            break
        if value == "(":
            depth += 1
            if depth > _MAX_DEPTH:
                raise FormulaParseError("nested too deeply", pos)
        elif value == ")":
            depth -= 1
    return tokens


_BY_NAME = {row.name: row for row in _CONSTRUCTS.values()}


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.index = 0

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
        _, value, pos = self.take("int")
        try:
            return int(value)
        except ValueError:  # past the interpreter's limit on integer digits
            raise FormulaParseError("integer literal too long", pos) from None

    def parse_string(self) -> str:
        _, value, pos = self.take("string")
        try:
            return json.loads(value)
        except json.JSONDecodeError:
            raise FormulaParseError("bad string literal", pos) from None

    def parse_term(self) -> Invariant:
        _, name, pos = self.take("name")
        row = _BY_NAME.get(name)
        if row is None:
            raise FormulaParseError(f"unknown construct {name!r}", pos)
        if row.arity == 0:
            return row.build()
        parse_one = getattr(self, f"parse_{row.kind}")
        self.take("punct", "(")
        args = []
        # only punctuation tokens have the value "," or ")"
        if self.tokens[self.index][1] != ")":
            args.append(parse_one())
            while self.tokens[self.index][1] == ",":
                self.index += 1
                args.append(parse_one())
        _, _, pos = self.take("punct", ")")
        if row.arity is None and not args:
            raise FormulaParseError("expected at least 1 argument(s), found 0", pos)
        if row.arity is not None and len(args) != row.arity:
            raise FormulaParseError(f"expected {row.arity} argument(s), found {len(args)}", pos)
        return row.build(*args)


def parse_invariant(text: str) -> Invariant:
    """Parse a formula from its textual form and normalize it."""
    parser = _Parser(text)
    term = parser.parse_term()
    kind, value, pos = parser.tokens[parser.index]
    if kind != "eof":
        raise FormulaParseError(f"trailing input {value!r}", pos)
    return normalize(term)


# How an argument of each kind but "term" is printed
_SHOW = {"int": format, "string": json.dumps}


def format_invariant(inv: Invariant) -> str:
    """Render a formula in the textual form accepted by ``parse_invariant``.

    A term built in Python with an integer past the interpreter's limit on
    digits (4,300 by default) raises ``ValueError``, as ``str`` of it does.
    """
    row = _construct(inv)
    if row.arity == 0:
        return row.name
    show = _SHOW.get(row.kind, format_invariant)
    return f"{row.name}({','.join(map(show, row.args(inv)))})"
