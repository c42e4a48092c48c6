from __future__ import annotations

import pytest
from hypothesis import given, settings

from helpers import invariants
from stpt import (
    And,
    Box,
    FalseAtom,
    Implies,
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


class TestParseErrors:
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
