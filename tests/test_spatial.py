from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    boxes,
    covered_cells_bruteforce,
    invariants,
    observations,
    occupancy_facts,
    oracle_collisions,
    windows,
)
from stpt import (
    And,
    Box,
    FalseAtom,
    Implies,
    Not,
    Observation,
    OccupancyFact,
    OccupyBox,
    Or,
    Owner,
    TimeInterval,
    TimeWindow,
    TraceVerdict,
    TrueAtom,
    box_covered,
    box_intersection,
    check_trace,
    detect_collisions,
    evaluate,
    normalize,
    window_intersection,
)
from stpt.spatial import NonMonotonicTrace

AREA_FORMULA = Implies(
    And((TimeInterval(TimeWindow(300, 605)), Owner("AreaOfInterest"))),
    OccupyBox(Box(1051, 3056, 1505, 3603)),
)


class TestBoxGeometry:
    def test_normalized_reorders_corners(self):
        assert Box(1505, 3603, 1051, 3056).normalized() == Box(1051, 3056, 1505, 3603)

    def test_degenerate_box_is_legal(self):
        point = Box(4, 4, 4, 4)
        assert point.is_normalized
        assert list(point.cells()) == [(4, 4)]

    @pytest.mark.parametrize(
        "a,b,expected",
        [
            (Box(0, 0, 10, 10), Box(5, 5, 20, 20), Box(5, 5, 10, 10)),
            (Box(0, 0, 1, 1), Box(2, 2, 3, 3), None),
            (Box(0, 0, 5, 5), Box(5, 5, 9, 9), Box(5, 5, 5, 5)),
        ],
    )
    def test_intersection_cases(self, a, b, expected):
        assert box_intersection(a, b) == expected

    @given(boxes, boxes)
    def test_intersection_commutes_and_is_contained(self, a, b):
        left = box_intersection(a, b)
        assert left == box_intersection(b, a)
        if left is not None:
            assert a.normalized().contains_box(left)
            assert b.normalized().contains_box(left)

    @given(boxes, boxes)
    def test_intersection_agrees_with_cell_sets(self, a, b):
        overlap = box_intersection(a, b)
        shared = set(a.normalized().cells()) & set(b.normalized().cells())
        if overlap is None:
            assert shared == set()
        else:
            assert set(overlap.cells()) == shared


class TestTimeWindows:
    @pytest.mark.parametrize(
        "a,b,expected",
        [
            (TimeWindow(300, 605), TimeWindow(600, 700), TimeWindow(600, 605)),
            (TimeWindow(0, 1), TimeWindow(5, 6), None),
            (TimeWindow(3, 3), TimeWindow(3, 3), TimeWindow(3, 3)),
        ],
    )
    def test_intersection_cases(self, a, b, expected):
        assert window_intersection(a, b) == expected

    @given(windows, windows)
    def test_intersection_commutes_and_is_contained(self, a, b):
        left = window_intersection(a, b)
        assert left == window_intersection(b, a)
        if left is not None:
            for t in (left.start, left.end):
                assert a.normalized().contains(t)
                assert b.normalized().contains(t)


class TestNormalize:
    def test_reorders_box_corners(self):
        assert normalize(OccupyBox(Box(1505, 3603, 1051, 3056))) == OccupyBox(
            Box(1051, 3056, 1505, 3603)
        )

    def test_atoms_are_normal_when_built(self):
        reversed_window = TimeInterval(TimeWindow(5, 1))
        assert reversed_window == TimeInterval(TimeWindow(1, 5))
        assert reversed_window.window == TimeWindow(1, 5)
        swapped = OccupyBox(Box(1505, 3603, 1051, 3056))
        assert swapped == OccupyBox(Box(1051, 3056, 1505, 3603))
        assert swapped.box == Box(1051, 3056, 1505, 3603)

    def test_flattens_nested_conjunctions(self):
        a, b, c = Owner("a"), Owner("b"), Owner("c")
        assert normalize(And((And((a, b)), c))) == And((a, b, c))
        assert normalize(Or((Or((a, b)), c))) == Or((a, b, c))

    def test_ordered_formula_is_a_fixpoint(self):
        assert normalize(AREA_FORMULA) == AREA_FORMULA

    def test_empty_connectives_rejected(self):
        with pytest.raises(ValueError):
            And(())
        with pytest.raises(ValueError):
            Or([])

    @given(invariants)
    @settings(max_examples=300)
    def test_idempotent(self, inv):
        once = normalize(inv)
        assert normalize(once) == once

    @given(invariants, observations)
    @settings(max_examples=300)
    def test_preserves_meaning(self, inv, obs):
        assert evaluate(normalize(inv), obs) == evaluate(inv, obs)


class TestEvaluate:
    def test_occupied_box_satisfies_obligation(self):
        obs = Observation(400, "AreaOfInterest", (Box(1051, 3056, 1505, 3603),))
        assert evaluate(AREA_FORMULA, obs) is True

    def test_outside_window_is_vacuous(self):
        assert evaluate(AREA_FORMULA, Observation(700, "AreaOfInterest", ())) is True

    def test_unoccupied_inside_window_fails(self):
        assert evaluate(AREA_FORMULA, Observation(400, "AreaOfInterest", ())) is False

    def test_owner_mismatch_is_vacuous(self):
        assert evaluate(AREA_FORMULA, Observation(400, "somebody-else", ())) is True

    @given(invariants, invariants, observations)
    @settings(max_examples=300)
    def test_implication_equals_or_not(self, a, b, obs):
        assert evaluate(Implies(a, b), obs) == evaluate(Or((Not(a), b)), obs)

    @given(invariants, observations)
    @settings(max_examples=300)
    def test_total_on_arbitrary_terms(self, inv, obs):
        assert evaluate(inv, obs) in (True, False)


class TestBoxCoverage:
    def test_exact_cover_by_two_halves(self):
        target = Box(0, 0, 9, 9)
        assert box_covered(target, [Box(0, 0, 4, 9), Box(5, 0, 9, 9)])

    def test_single_missing_cell_breaks_cover(self):
        target = Box(0, 0, 9, 9)
        almost = [Box(0, 0, 4, 9), Box(5, 0, 9, 8), Box(5, 9, 8, 9)]
        assert not box_covered(target, almost)

    def test_target_with_unordered_corners(self):
        target = Box(9, 9, 0, 0)
        assert box_covered(target, [Box(0, 0, 9, 4), Box(0, 5, 9, 9)])
        assert not box_covered(target, [Box(0, 0, 9, 4), Box(0, 6, 9, 9)])

    def test_empty_box_list_covers_nothing(self):
        assert not box_covered(Box(0, 0, 0, 0), [])

    @given(boxes, st.lists(boxes, max_size=5))
    @settings(max_examples=300)
    def test_agrees_with_cell_brute_force(self, target, cover):
        want = set(target.normalized().cells()) <= covered_cells_bruteforce(cover)
        assert box_covered(target, cover) == want


class TestCheckTrace:
    def test_empty_trace_holds(self):
        assert check_trace(FalseAtom(), []) == TraceVerdict(holds=True)

    def test_reports_first_violating_index(self):
        trace = [
            Observation(400, "AreaOfInterest", (Box(1051, 3056, 1505, 3603),)),
            Observation(500, "AreaOfInterest", ()),
        ]
        verdict = check_trace(AREA_FORMULA, trace)
        assert verdict == TraceVerdict(holds=False, first_violation=1)

    def test_true_atom_holds_everywhere(self):
        trace = [Observation(t, "x", ()) for t in range(5)]
        assert check_trace(TrueAtom(), trace).holds

    def test_equal_times_are_fine_but_decreasing_rejected(self):
        same = [Observation(3, "a", ()), Observation(3, "b", ())]
        assert check_trace(TrueAtom(), same).holds
        with pytest.raises(NonMonotonicTrace):
            check_trace(TrueAtom(), [Observation(3, "a", ()), Observation(2, "a", ())])


class TestDetectCollisions:
    def test_same_owner_never_collides(self):
        fact = OccupancyFact("a", TimeWindow(0, 10), Box(0, 0, 5, 5))
        assert detect_collisions([fact, fact]) == []

    def test_two_owner_overlap(self):
        facts = [
            OccupancyFact("A", TimeWindow(0, 10), Box(0, 0, 5, 5)),
            OccupancyFact("B", TimeWindow(5, 20), Box(4, 4, 9, 9)),
        ]
        (witness,) = detect_collisions(facts)
        assert witness.owner_a == "A" and witness.owner_b == "B"
        assert witness.overlap_window == TimeWindow(5, 10)
        assert witness.overlap_box == Box(4, 4, 5, 5)

    def test_disjoint_in_time_is_no_collision(self):
        facts = [
            OccupancyFact("A", TimeWindow(0, 4), Box(0, 0, 5, 5)),
            OccupancyFact("B", TimeWindow(5, 9), Box(0, 0, 5, 5)),
        ]
        assert detect_collisions(facts) == []

    @given(st.lists(occupancy_facts, max_size=6))
    @settings(max_examples=200)
    def test_matches_rasterized_brute_force(self, facts):
        assert detect_collisions(facts) == oracle_collisions(facts)

    @given(st.lists(occupancy_facts, max_size=6), st.randoms())
    @settings(max_examples=100)
    def test_invariant_under_permutation(self, facts, rnd):
        shuffled = list(facts)
        rnd.shuffle(shuffled)
        assert detect_collisions(shuffled) == detect_collisions(facts)
