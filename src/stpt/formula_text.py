"""Textual form for spatio-temporal formulas.

The wire syntax mirrors the constructor names, e.g.::

    IMPLIES(AND(TimeInterval(300,605),Owner("AreaOfInterest")),
            OccupyBox(1051,3056,1505,3603))

``parse_invariant`` builds the normal form as it parses, so for every
term ``x``, ``parse_invariant(format_invariant(x)) == normalize(x)``.
Both read the grammar from ``spatial._CONSTRUCTS``, one row per
construct, so nothing here names a construct.
"""

from __future__ import annotations

import json
import re
from string import ascii_letters, digits

from .spatial import _CONSTRUCTS, Invariant, _construct


class FormulaParseError(ValueError):
    """Raised on malformed formula text; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


# A token is an integer, a name, a string literal, a punctuation mark or,
# failing all of these, any one character but whitespace, which is bad. So
# a token is bad exactly when it is one character outside
# ``_ONE_CHARACTER``, a lone ``-`` or ``"`` included.
_TOKENS = re.compile(
    r'-?[0-9]+|[A-Za-z][A-Za-z0-9]*|"(?:[^"\\]|\\.)*"|[(),]|\S', re.DOTALL
)
_ONE_CHARACTER = frozenset(ascii_letters + digits + "(),")
# The kind of a token, by its first character; punctuation and the empty
# token that ends the list have none.
_KIND = {
    **dict.fromkeys("-" + digits, "int"),
    **dict.fromkeys(ascii_letters, "name"),
    '"': "string",
}


# The deepest nesting of parentheses a formula may have. Compiling a
# formula takes two Python frames per level (parsing takes one), so at the
# default recursion limit of 1,000 frames this leaves 20 for the callers.
_MAX_DEPTH = 490


class _Refused(Exception):
    """A parse error at a token index; the text position is found only if it is raised."""


def _scan(text: str) -> list[int]:
    """The start of each token of ``text``, and then the end of the text.

    Raises :class:`FormulaParseError` at the first bad character or the
    first parenthesis nested past ``_MAX_DEPTH``, whichever comes first:
    either refuses the text before any parse error does.
    """
    starts = []
    depth = 0
    for match in _TOKENS.finditer(text):
        token, start = match[0], match.start()
        if len(token) == 1 and token not in _ONE_CHARACTER:
            raise FormulaParseError(f"unexpected character {token!r}", start)
        if token == "(":
            depth += 1
            if depth > _MAX_DEPTH:
                raise FormulaParseError("nested too deeply", start)
        elif token == ")":
            depth -= 1
        starts.append(start)
    starts.append(len(text))
    return starts


def _expected(what: str, token: str) -> str:
    return f"expected {what}, found {token or 'eof'!r}"


def _term(tokens: list[str], at: int) -> tuple[Invariant, int]:
    """The term whose name is token ``at``, in normal form, and the index after it.

    Each row builds its term from arguments already in normal form, so
    the term is in normal form too, with no second walk.
    """
    name = tokens[at]
    entry = _BY_NAME.get(name)
    if entry is None:
        if _KIND.get(name[:1]) == "name":
            raise _Refused(at, f"unknown construct {name!r}")
        raise _Refused(at, _expected("name", name))
    row, read = entry
    at += 1
    if row.arity == 0:
        return row.build(), at
    if tokens[at] != "(":
        raise _Refused(at, _expected("(", tokens[at]))
    at += 1
    args = []
    if tokens[at] != ")":
        arg, at = read(tokens, at)
        args.append(arg)
        while tokens[at] == ",":
            arg, at = read(tokens, at + 1)
            args.append(arg)
    if tokens[at] != ")":
        raise _Refused(at, _expected(")", tokens[at]))
    if row.arity is None:
        if not args:
            raise _Refused(at, "expected at least 1 argument(s), found 0")
    elif len(args) != row.arity:
        raise _Refused(at, f"expected {row.arity} argument(s), found {len(args)}")
    return row.build(*args), at + 1


def _int(tokens: list[str], at: int) -> tuple[int, int]:
    token = tokens[at]
    if _KIND.get(token[:1]) != "int":
        raise _Refused(at, _expected("int", token))
    try:
        return int(token), at + 1
    except ValueError:  # past the interpreter's limit on integer digits
        raise _Refused(at, "integer literal too long") from None


def _string(tokens: list[str], at: int) -> tuple[str, int]:
    token = tokens[at]
    if _KIND.get(token[:1]) != "string":
        raise _Refused(at, _expected("string", token))
    try:
        return json.loads(token), at + 1
    except json.JSONDecodeError:
        raise _Refused(at, "bad string literal") from None


_READ = {"term": _term, "int": _int, "string": _string}
_BY_NAME = {row.name: (row, _READ[row.kind]) for row in _CONSTRUCTS.values()}


def parse_invariant(text: str) -> Invariant:
    """Parse a formula from its textual form, in normal form.

    The tokens come from one regular-expression pass. A bad character or
    a parenthesis nested past ``_MAX_DEPTH`` is refused before anything
    the parser refuses, so a formula nested too deeply is a parse error and
    never a ``RecursionError``. A token such as a lone ``-`` or ``"`` is
    never accepted, so a text the parser accepts has no bad character,
    and the text is scanned for one only when the parser refuses it.
    """
    tokens = _TOKENS.findall(text)
    if tokens.count("(") > _MAX_DEPTH:
        # only then may the nesting be too deep
        _scan(text)
    tokens.append("")  # the end of the text
    try:
        term, at = _term(tokens, 0)
        if tokens[at]:
            raise _Refused(at, f"trailing input {tokens[at]!r}")
    except _Refused as refused:
        at, message = refused.args
        raise FormulaParseError(message, _scan(text)[at]) from None
    return term


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
