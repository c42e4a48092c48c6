from __future__ import annotations

import copy
from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    boxes,
    coords,
    covered_cells_bruteforce,
    invariants,
    observations,
    occupancy_facts,
    oracle_collisions,
    oracle_evaluate,
    oracle_first_violation,
    ticks,
    windows,
)
from stpt import (
    And,
    Box,
    FalseAtom,
    Implies,
    Invariant,
    Not,
    Observation,
    OccupancyFact,
    OccupyBox,
    OccupyPoint,
    Or,
    Owner,
    TimeInterval,
    TimeWindow,
    TraceVerdict,
    TrueAtom,
    box_covered,
    box_intersection,
    check_trace,
    compile_invariant,
    detect_collisions,
    evaluate,
    normalize,
    window_intersection,
)
from stpt.spatial import NonMonotonicTrace, always_false, always_true

AREA_FORMULA = Implies(
    And((TimeInterval(TimeWindow(300, 605)), Owner("AreaOfInterest"))),
    OccupyBox(Box(1051, 3056, 1505, 3603)),
)
ARM = Owner("arm")
IN_BOUNDS = Implies(
    And((TimeInterval(TimeWindow(0, 10**6)), ARM, OccupyBox(Box(8, 8, 12, 12)))),
    TrueAtom(),
)


@dataclass(frozen=True)
class Unknown(Invariant):
    """A term no evaluator knows."""


traces = st.lists(observations, max_size=6).map(
    lambda obs: sorted(obs, key=lambda o: o.time)
)


def _swapped(box: Box, swap: bool) -> Box:
    return Box(box.x2, box.y2, box.x1, box.y1) if swap else box


@st.composite
def near_covers(draw):
    """A target and a tiling of it, one tile perhaps grown or shrunk by a cell.

    Random boxes almost never cover a random target, so this is where the
    remainder pieces of box_covered get exercised. Tiles and target may
    come with their corners swapped.
    """
    target = draw(boxes).normalized()
    cuts_x = sorted(draw(st.sets(st.integers(target.x1 + 1, target.x2 + 1), max_size=3)))
    cuts_y = sorted(draw(st.sets(st.integers(target.y1 + 1, target.y2 + 1), max_size=3)))
    xs = [target.x1] + [x for x in cuts_x if x <= target.x2] + [target.x2 + 1]
    ys = [target.y1] + [y for y in cuts_y if y <= target.y2] + [target.y2 + 1]
    tiles = [
        Box(x1, y1, x2 - 1, y2 - 1)
        for x1, x2 in zip(xs, xs[1:])
        for y1, y2 in zip(ys, ys[1:])
    ]
    index = draw(st.integers(0, len(tiles) - 1))
    tile = tiles[index]
    tweak = draw(st.sampled_from(["none", "grow", "left", "right", "bottom", "top"]))
    if tweak == "grow":
        tiles[index] = Box(tile.x1 - 1, tile.y1 - 1, tile.x2 + 1, tile.y2 + 1)
    elif tweak == "left" and tile.x1 < tile.x2:
        tiles[index] = Box(tile.x1 + 1, tile.y1, tile.x2, tile.y2)
    elif tweak == "right" and tile.x1 < tile.x2:
        tiles[index] = Box(tile.x1, tile.y1, tile.x2 - 1, tile.y2)
    elif tweak == "bottom" and tile.y1 < tile.y2:
        tiles[index] = Box(tile.x1, tile.y1 + 1, tile.x2, tile.y2)
    elif tweak == "top" and tile.y1 < tile.y2:
        tiles[index] = Box(tile.x1, tile.y1, tile.x2, tile.y2 - 1)
    tiles = draw(st.permutations(tiles))
    swaps = draw(st.lists(st.booleans(), min_size=len(tiles) + 1, max_size=len(tiles) + 1))
    cover = [_swapped(t, swap) for t, swap in zip(tiles, swaps)]
    return _swapped(target, swaps[-1]), cover


class TestOrderedWhenBuilt:
    @given(boxes)
    def test_box_equals_its_swapped_twins(self, box):
        assert box.x1 <= box.x2 and box.y1 <= box.y2
        for twin in (
            Box(box.x2, box.y1, box.x1, box.y2),
            Box(box.x1, box.y2, box.x2, box.y1),
            Box(box.x2, box.y2, box.x1, box.y1),
        ):
            assert twin == box
            assert hash(twin) == hash(box)
            assert twin.as_tuple() == box.as_tuple()

    @given(windows)
    def test_window_equals_its_swapped_twin(self, window):
        assert window.start <= window.end
        twin = TimeWindow(window.end, window.start)
        assert twin == window
        assert hash(twin) == hash(window)
        assert (twin.start, twin.end) == (window.start, window.end)

    @given(coords, coords, coords, coords, ticks, ticks)
    def test_each_value_is_kept(self, x1, y1, x2, y2, start, end):
        box = Box(x1, y1, x2, y2)
        assert box.as_tuple() == (min(x1, x2), min(y1, y2), max(x1, x2), max(y1, y2))
        window = TimeWindow(start, end)
        assert (window.start, window.end) == (min(start, end), max(start, end))


class TestBoxGeometry:
    def test_normalized_reorders_corners(self):
        assert Box(1505, 3603, 1051, 3056).normalized() == Box(1051, 3056, 1505, 3603)

    def test_degenerate_box_is_legal(self):
        point = Box(4, 4, 4, 4)
        assert list(point.cells()) == [(4, 4)]

    @pytest.mark.parametrize(
        "corners", [(0, 0, 12.5, 12), (True, 0, 1, 1), (0, "1", 2, 2), (0, 0, None, 1)]
    )
    def test_corners_must_be_integers(self, corners):
        with pytest.raises(TypeError, match="box corners must be integers"):
            Box(*corners)

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
                assert a.contains(t)
                assert b.contains(t)


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


class TestCompile:
    @pytest.mark.parametrize(
        "term",
        [
            TrueAtom(),
            Not(FalseAtom()),
            Implies(ARM, TrueAtom()),
            Implies(FalseAtom(), ARM),
            Or((ARM, TrueAtom(), OccupyPoint(0, 0))),
            And((TrueAtom(), Not(FalseAtom()))),
            IN_BOUNDS,
        ],
    )
    def test_folds_to_true(self, term):
        assert compile_invariant(term) is always_true

    @pytest.mark.parametrize(
        "term",
        [
            FalseAtom(),
            Not(TrueAtom()),
            Implies(TrueAtom(), FalseAtom()),
            And((ARM, FalseAtom(), OccupyPoint(0, 0))),
            Or((FalseAtom(), Not(TrueAtom()))),
            Not(IN_BOUNDS),
        ],
    )
    def test_folds_to_false(self, term):
        assert compile_invariant(term) is always_false

    def test_false_consequent_leaves_the_negated_antecedent(self):
        holds = compile_invariant(Implies(ARM, FalseAtom()))
        assert holds(Observation(0, "cart", ())) is True
        assert holds(Observation(0, "arm", ())) is False

    @pytest.mark.parametrize(
        "term",
        [
            Unknown(),
            Not(Not(Unknown())),
            Implies(Unknown(), TrueAtom()),
            Implies(FalseAtom(), Unknown()),
            Or((TrueAtom(), Unknown())),
            And((FalseAtom(), Unknown())),
            And((ARM, Or((ARM, Unknown())))),
        ],
    )
    def test_unknown_term_raises_when_compiled(self, term):
        with pytest.raises(TypeError):
            compile_invariant(term)
        with pytest.raises(TypeError):
            evaluate(term, Observation(0, "arm", ()))
        with pytest.raises(TypeError):
            check_trace(term, [])

    @given(boxes, st.booleans(), st.booleans(), st.integers(-1, 1), st.integers(-1, 1))
    @settings(max_examples=300)
    def test_point_on_and_beside_a_border(self, box, left, low, dx, dy):
        x = box.x1 if left else box.x2
        y = box.y1 if low else box.y2
        inv = OccupyPoint(x + dx, y + dy)
        obs = Observation(0, "arm", (box,))
        assert evaluate(inv, obs) is oracle_evaluate(inv, obs)

    @given(invariants, observations)
    @settings(max_examples=400)
    def test_agrees_with_oracle(self, inv, obs):
        assert evaluate(inv, obs) is oracle_evaluate(inv, obs)
        assert compile_invariant(inv)(obs) is oracle_evaluate(inv, obs)

    @given(invariants)
    @settings(max_examples=100)
    def test_leaves_the_term_unchanged(self, inv):
        before = copy.deepcopy(inv)
        compile_invariant(inv)
        assert inv == before
        assert repr(inv) == repr(before)
        assert hash(inv) == hash(before)


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

    @given(near_covers())
    @settings(max_examples=300)
    def test_agrees_with_cell_brute_force_on_near_covers(self, case):
        target, cover = case
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


    @pytest.mark.parametrize("term", [TrueAtom(), FalseAtom(), IN_BOUNDS, ARM])
    def test_decreasing_times_rejected_whatever_the_formula(self, term):
        with pytest.raises(NonMonotonicTrace):
            check_trace(term, [Observation(3, "arm", ()), Observation(2, "arm", ())])

    @given(invariants, traces)
    @settings(max_examples=300)
    def test_agrees_with_oracle(self, inv, trace):
        at = oracle_first_violation(inv, trace)
        assert check_trace(inv, trace) == TraceVerdict(holds=at is None, first_violation=at)


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
