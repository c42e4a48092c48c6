from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import invariants, oracle_parse
from stpt import (
    And,
    Box,
    FalseAtom,
    Implies,
    Invariant,
    Not,
    OccupyBox,
    OccupyPoint,
    Or,
    Owner,
    TimeInterval,
    TimeWindow,
    TrueAtom,
    format_invariant,
    normalize,
    parse_invariant,
)
from stpt.formula_text import FormulaParseError
from stpt.spatial import _CONSTRUCTS

CANONICAL = (
    'IMPLIES(AND(TimeInterval(300,605),Owner("AreaOfInterest")),'
    "OccupyBox(1051,3056,1505,3603))"
)


def test_canonical_string_round_trips_byte_identically():
    assert format_invariant(parse_invariant(CANONICAL)) == CANONICAL


def test_canonical_string_parses_to_expected_term():
    expected = Implies(
        And((TimeInterval(TimeWindow(300, 605)), Owner("AreaOfInterest"))),
        OccupyBox(Box(1051, 3056, 1505, 3603)),
    )
    assert parse_invariant(CANONICAL) == expected


@pytest.mark.parametrize(
    "text,term",
    [
        ("TRUE", TrueAtom()),
        ("FALSE", FalseAtom()),
        ("NOT(TRUE)", Not(TrueAtom())),
        ("OccupyPoint(7,-3)", OccupyPoint(7, -3)),
        ('Owner("arm")', Owner("arm")),
        ("OR(TRUE,FALSE)", Or((TrueAtom(), FalseAtom()))),
    ],
)
def test_atom_and_connective_spellings(text, term):
    assert parse_invariant(text) == term
    assert format_invariant(term) == text


def test_whitespace_is_insignificant_on_parse():
    spaced = 'IMPLIES( AND( TimeInterval(300, 605) , Owner("AreaOfInterest") ),\n  OccupyBox(1051,3056,1505,3603) )'
    assert parse_invariant(spaced) == parse_invariant(CANONICAL)


def test_parse_normalizes_corner_order():
    assert parse_invariant("OccupyBox(9,9,0,0)") == OccupyBox(Box(0, 0, 9, 9))
    assert parse_invariant("TimeInterval(50,10)") == TimeInterval(TimeWindow(10, 50))


def test_string_escapes_survive_round_trip():
    inv = Owner('quote " and \\ backslash')
    assert parse_invariant(format_invariant(inv)) == inv


@given(invariants)
@settings(max_examples=400)
def test_print_parse_equals_normalize(inv):
    assert parse_invariant(format_invariant(inv)) == normalize(inv)


@given(invariants)
@settings(max_examples=200)
def test_printing_is_stable_after_one_round_trip(inv):
    text = format_invariant(normalize(inv))
    assert format_invariant(parse_invariant(text)) == text


class _Both(And):
    """A subclass of a construct, which has no row of its own."""


def test_subclass_prints_and_normalizes_as_its_base():
    term = _Both((TrueAtom(), _Both((FalseAtom(),))))
    assert format_invariant(term) == "AND(TRUE,AND(FALSE))"
    assert normalize(term) == And((TrueAtom(), FalseAtom()))
    assert parse_invariant(format_invariant(term)) == normalize(term)


def test_term_outside_the_grammar_is_a_type_error():
    class Stray(Invariant):
        pass

    for walk in (format_invariant, normalize):
        with pytest.raises(TypeError, match="unknown invariant term"):
            walk(Not(Stray()))


def test_every_construct_has_one_row_and_one_compiler():
    names = [row.name for row in _CONSTRUCTS.values()]
    assert len(set(names)) == len(names)


class TestParseErrors:
    # one row or more per message kind: the text, the message and its position
    @pytest.mark.parametrize(
        "text,message,position",
        [
            ("AND(TRUE,@)", "unexpected character '@'", 9),
            # the character is named, not the whitespace before it
            ("TRUE  $", "unexpected character '$'", 6),
            ('IMPLIES(Owner("arm"), $)', "unexpected character '$'", 22),
            ("NOT(\n\t@)", "unexpected character '@'", 6),
            ('Owner("unterminated', "unexpected character '\"'", 6),
            ("NOT(" * 491 + "TRUE", "nested too deeply", 1963),
            ("", "expected name, found 'eof'", 0),
            ("NOT(1)", "expected name, found '1'", 4),
            ("AND(TRUE,)", "expected name, found ')'", 9),
            ("Owner(7)", "expected string, found '7'", 6),
            ('OccupyBox(1,2,"x",4)', "expected int, found '\"x\"'", 14),
            # an integer literal is ASCII digits, within the interpreter's
            # limit on the digits it converts (4,300 by default)
            ("OccupyPoint(\u0663,1)", "unexpected character '\u0663'", 12),
            ("OccupyPoint(1,\uff12)", "unexpected character '\uff12'", 14),
            pytest.param(
                "OccupyPoint(1," + "9" * 5000 + ")", "integer literal too long", 14,
                id="5000-digits",
            ),
            pytest.param(
                "TimeInterval(-" + "9" * 4301 + ",1)", "integer literal too long", 13,
                id="negative-4301-digits",
            ),
            ("NOT TRUE", "expected (, found 'TRUE'", 4),
            ("OccupyPoint(1 2)", "expected ), found '2'", 14),
            ("IMPLIES(TRUE)", "expected 2 argument(s), found 1", 12),
            ("NOT(TRUE,FALSE)", "expected 1 argument(s), found 2", 14),
            ("OccupyBox(1,2,3)", "expected 4 argument(s), found 3", 15),
            ("AND()", "expected at least 1 argument(s), found 0", 4),
            ("OR()", "expected at least 1 argument(s), found 0", 3),
            ("Bogus(1,2)", "unknown construct 'Bogus'", 0),
            ("not(TRUE)", "unknown construct 'not'", 0),
            ('Owner("a\\q")', "bad string literal", 6),
            ("NOT(TRUE) trailing", "trailing input 'trailing'", 10),
            ("TRUE()", "trailing input '('", 4),
        ],
    )
    def test_message_and_position(self, text, message, position):
        with pytest.raises(FormulaParseError) as err:
            parse_invariant(text)
        assert str(err.value) == f"{message} (at position {position})"
        assert err.value.position == position

    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "AND()",
            "IMPLIES(TRUE)",
            "IMPLIES(TRUE,TRUE,TRUE)",
            "OccupyBox(1,2,3)",
            "TimeInterval(1,2,3)",
            "NOT(TRUE) trailing",
            "Owner(unquoted)",
            "Bogus(1,2)",
            "AND(TRUE,)",
            'Owner("unterminated',
        ],
    )
    def test_rejects_malformed_input(self, bad):
        with pytest.raises(FormulaParseError):
            parse_invariant(bad)

    def test_error_carries_position(self):
        with pytest.raises(FormulaParseError) as err:
            parse_invariant("AND(TRUE,@)")
        assert err.value.position == 9
        assert "position 9" in str(err.value)

    @pytest.mark.parametrize("depth", [491, 1200])
    def test_refuses_formulas_nested_too_deeply(self, depth):
        with pytest.raises(FormulaParseError, match="nested too deeply") as err:
            parse_invariant("NOT(" * depth + "TRUE" + ")" * depth)
        # the position of the 491st opening parenthesis
        assert err.value.position == 4 * 490 + 3

    def test_nesting_counts_open_parentheses(self):
        # 490 terms side by side are no deeper than one
        flat = "AND(" + ",".join(["NOT(TRUE)"] * 490) + ")"
        assert parse_invariant(flat) == And((Not(TrueAtom()),) * 490)
        with pytest.raises(FormulaParseError, match="nested too deeply"):
            parse_invariant("OccupyPoint(" * 491)

    def test_error_is_a_value_error(self):
        with pytest.raises(ValueError):
            parse_invariant("???")


# The grammar's own vocabulary, with a name it does not know, a bad string
# literal, an unterminated one and one stray character, and whole atoms and
# openers so that some soups parse. Tokens are joined as drawn, so
# neighbours may merge ("TRUE" and "1" make the name "TRUE1").
_NAMES = (
    "TRUE", "FALSE", "AND", "OR", "NOT", "IMPLIES",
    "TimeInterval", "Owner", "OccupyBox", "OccupyPoint", "Bogus",
)
_SOUP_TOKENS = st.one_of(
    st.sampled_from(_NAMES),
    st.integers(min_value=-20, max_value=20).map(str),
    st.sampled_from(["arm", 'a "quoted" name', "back\\slash", ""]).map(json.dumps),
    st.sampled_from(['"\\q"', '"']),
    st.sampled_from(["(", ")", ",", " ", "\n", "\t", "$"]),
    st.sampled_from(
        [
            'Owner("arm")', "OccupyPoint(1,-2)", "OccupyBox(3,1,0,2)",
            "TimeInterval(5,1)", "NOT(", "AND(", "OR(", "IMPLIES(", ",", ")",
        ]
    ),
)
token_soups = st.lists(_SOUP_TOKENS, max_size=30).map("".join)


@given(token_soups)
@settings(max_examples=500)
def test_token_soup_parses_or_is_refused(text):
    try:
        term = parse_invariant(text)
    except FormulaParseError:
        return
    assert parse_invariant(format_invariant(term)) == term


@st.composite
def formula_texts(draw) -> str:
    """A formula's text as printed, or with a soup token put in, or cut short."""
    text = format_invariant(draw(invariants))
    at = draw(st.integers(min_value=0, max_value=len(text)))
    edit = draw(st.sampled_from(["none", "insert", "cut"]))
    if edit == "insert":
        return text[:at] + draw(_SOUP_TOKENS) + text[at:]
    return text[:at] if edit == "cut" else text


def outcome(parse, text: str):
    """The term ``parse`` gives for ``text``, or its error's message and position."""
    try:
        return parse(text)
    except FormulaParseError as err:
        return str(err), err.position


def assert_agrees_with_the_oracle(text: str) -> None:
    got = outcome(parse_invariant, text)
    assert got == outcome(oracle_parse, text)
    if isinstance(got, Invariant):
        assert normalize(got) == got


@given(st.one_of(token_soups, formula_texts()))
@settings(max_examples=1000)
def test_parse_agrees_with_the_oracle(text):
    assert_agrees_with_the_oracle(text)


@pytest.mark.parametrize(
    "text",
    [
        "NOT(" * 491 + "TRUE" + ")" * 491,
        # the first refusal of the tokens wins, whichever kind it is
        "$" + "NOT(" * 491,
        "NOT(" * 491 + "$",
        "NOT(" * 3 + "1" + "NOT(" * 488 + "$",
        # more than the limit of parentheses, none nested too deeply
        "AND(" + ",".join(["NOT(TRUE)"] * 491) + ")",
        "AND(" + ",".join(["NOT(TRUE)"] * 491) + ") $",
        "AND(" + ",".join(["NOT(TRUE)"] * 491) + ",1)",
        "NOT(" * 490 + "TRUE" + ")" * 489,
        # a lone minus or quote is a bad character wherever it is met
        "OccupyPoint(-,1)",
        'Owner(")',
        "OccupyPoint(1,2) -",
        "IMPLIES(TRUE,\u0663)",
    ],
)
def test_parse_agrees_with_the_oracle_at_the_edges(text):
    assert_agrees_with_the_oracle(text)
