from __future__ import annotations

import copy
import inspect
import pickle
import sys
import threading
import time
from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    boxes,
    cells,
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
from stpt import spatial
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


_crew = st.sampled_from(["arm", "cart", "crane"])
_small = st.integers(0, 6)
_small_boxes = st.builds(Box, _small, _small, _small, _small)
_small_ticks = st.integers(0, 12)
_crew_observations = st.builds(
    Observation, _small_ticks, _crew, st.lists(_small_boxes, max_size=3)
)


@st.composite
def formulas_on_their_trace(draw):
    """A sorted trace of up to 30 observations and a formula aimed at it.

    Times repeat, and every window bound is one of the trace's times, or
    one tick beside it, so the failure scope's bisection meets its edges.
    Owners come from the trace. Boxes are small, so the oracle's cells
    stay few and coverage is often met.
    """
    times = sorted(draw(st.lists(_small_ticks, min_size=1, max_size=30)))
    trace = [
        Observation(t, draw(_crew), draw(st.lists(_small_boxes, max_size=3)))
        for t in times
    ]
    bounds = st.sampled_from(times).flatmap(lambda t: st.integers(t - 1, t + 1))
    atoms = st.one_of(
        st.just(TrueAtom()),
        st.just(FalseAtom()),
        st.builds(TimeInterval, st.builds(TimeWindow, bounds, bounds)),
        st.builds(Owner, st.sampled_from([obs.owner for obs in trace])),
        st.builds(OccupyBox, _small_boxes),
        st.builds(OccupyPoint, _small, _small),
    )
    formula = draw(st.recursive(
        atoms,
        lambda children: st.one_of(
            st.builds(Not, children),
            st.builds(Implies, children, children),
            st.lists(children, min_size=1, max_size=3).map(And),
            st.lists(children, min_size=1, max_size=3).map(Or),
        ),
        max_leaves=10,
    ))
    return formula, trace


@st.composite
def two_owner_scopes(draw):
    """A formula scoped to two owners, on a trace where both violate it.

    The formula is ``IMPLIES(AND(TimeInterval(a, b), OR(Owner(p),
    Owner(q))), f)``, its terms in any order, where ``f`` is an atom that
    an observation without boxes violates. The trace holds one such
    observation of each owner inside the window, at drawn times, so the
    verdict is the smaller of the two owners' first violations, and the
    owner the scope's set lists first is often the one that violates
    later.
    """
    p, q = draw(st.permutations(["arm", "cart", "crane"]))[:2]
    start, end = sorted(draw(st.lists(_small_ticks, min_size=2, max_size=2)))
    trace = draw(st.lists(_crew_observations, max_size=12))
    trace += [Observation(draw(st.integers(start, end)), owner) for owner in (p, q)]
    trace.sort(key=lambda obs: obs.time)
    scope = [TimeInterval(TimeWindow(start, end)), Or((Owner(p), Owner(q)))]
    then = draw(st.one_of(
        st.just(FalseAtom()),
        st.builds(OccupyBox, _small_boxes),
        st.builds(OccupyPoint, _small, _small),
    ))
    return Implies(And(tuple(draw(st.permutations(scope)))), then), trace


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


@st.composite
def strip_covers(draw):
    """A target and strips across it, in any order, one perhaps a cell short.

    The strips run the target's full height (or width) and may reach past
    it. Taken in a random order, a strip at an edge cuts that side of what
    is left, one in the middle splits it, and the last one covers the
    rest, so every route of the coverage kernel runs. A strip grown by a
    cell, shrunk along its length, or cut back across leaves the verdict
    to the cells.
    """
    target = draw(boxes)
    vertical = draw(st.booleans())
    lo, hi = (target.x1, target.x2) if vertical else (target.y1, target.y2)
    cuts = sorted(draw(st.sets(st.integers(lo + 1, hi), max_size=4))) if lo < hi else []
    edges = [lo] + cuts + [hi + 1]
    strips = []
    for a, b in zip(edges, edges[1:]):
        below, above = draw(st.integers(0, 2)), draw(st.integers(0, 2))
        if vertical:
            strips.append(Box(a, target.y1 - below, b - 1, target.y2 + above))
        else:
            strips.append(Box(target.x1 - below, a, target.x2 + above, b - 1))
    index = draw(st.integers(0, len(strips) - 1))
    s = strips[index]
    tweak = draw(st.sampled_from(["none", "grow", "short", "narrow"]))
    if tweak == "grow":
        strips[index] = Box(s.x1 - 1, s.y1 - 1, s.x2 + 1, s.y2 + 1)
    elif tweak == "short":
        # one cell short along the strip, at the target's low end
        if vertical:
            strips[index] = Box(s.x1, target.y1 + 1, s.x2, s.y2)
        else:
            strips[index] = Box(target.x1 + 1, s.y1, s.x2, s.y2)
    elif tweak == "narrow" and (s.x2 > s.x1 if vertical else s.y2 > s.y1):
        # one cell narrower across the strip
        strips[index] = Box(s.x1, s.y1, s.x2 - 1, s.y2) if vertical else Box(
            s.x1, s.y1, s.x2, s.y2 - 1
        )
    return target, draw(st.permutations(strips))


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
        assert cells(point) == [(4, 4)]

    @pytest.mark.parametrize(
        "corners", [(0, 0, 12.5, 12), (True, 0, 1, 1), (0, "1", 2, 2), (0, 0, None, 1)]
    )
    def test_corners_must_be_integers(self, corners):
        with pytest.raises(TypeError, match="box corners must be integers"):
            Box(*corners)

    @pytest.mark.parametrize(
        "bounds", [(0.5, 3), (True, 2), (0, False), (0, "3"), (None, 1), (2.0, 2.0)]
    )
    def test_window_bounds_must_be_integers(self, bounds):
        with pytest.raises(TypeError, match="time window bounds must be integers"):
            TimeWindow(*bounds)

    @pytest.mark.parametrize(
        "point", [(True, 2.5), (True, 2), (0, False), (1.5, 2), (1, 2.0), ("1", 2), (1, None)]
    )
    def test_point_coordinates_must_be_integers(self, point):
        with pytest.raises(TypeError, match="point coordinates must be integers"):
            OccupyPoint(*point)

    # each would print as text that does not parse back, or not print at all
    @pytest.mark.parametrize("name", [5, None, b"arm", ("arm",)])
    def test_owner_name_must_be_a_string(self, name):
        with pytest.raises(TypeError, match="owner name must be a string, got "):
            Owner(name)

    @pytest.mark.parametrize("window", [(1, 2), None, Box(1, 2, 3, 4)])
    def test_time_interval_must_hold_a_time_window(self, window):
        with pytest.raises(TypeError, match="time interval must hold a TimeWindow, got "):
            TimeInterval(window)

    @pytest.mark.parametrize("box", [(1, 2, 3, 4), None, TimeWindow(1, 2)])
    def test_occupy_box_must_hold_a_box(self, box):
        with pytest.raises(TypeError, match="occupied box must be a Box, got "):
            OccupyBox(box)

    @pytest.mark.parametrize("time", [0.5, True, "3", None, 2.0])
    def test_observation_time_must_be_an_integer(self, time):
        with pytest.raises(TypeError, match=f"time must be an integer, got {time!r}"):
            Observation(time, "arm")

    @pytest.mark.parametrize("owner", [None, 3, b"arm", ("arm",)])
    def test_observation_owner_must_be_a_string(self, owner):
        with pytest.raises(TypeError, match="owner must be a string, got "):
            Observation(3, owner)

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
        shared = set(cells(a)) & set(cells(b))
        if overlap is None:
            assert shared == set()
        else:
            assert set(cells(overlap)) == shared


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
        want = set(cells(target)) <= covered_cells_bruteforce(cover)
        assert box_covered(target, cover) == want

    @given(near_covers())
    @settings(max_examples=300)
    def test_agrees_with_cell_brute_force_on_near_covers(self, case):
        target, cover = case
        want = set(cells(target)) <= covered_cells_bruteforce(cover)
        assert box_covered(target, cover) == want

    @given(strip_covers())
    @settings(max_examples=400)
    def test_kernel_agrees_with_cell_brute_force_on_strips(self, case):
        target, cover = case
        want = set(cells(target)) <= covered_cells_bruteforce(cover)
        assert box_covered(target, cover) == want
        holds = compile_invariant(OccupyBox(target))
        assert holds(Observation(0, "arm", cover)) == want

    @pytest.mark.parametrize(
        "cover,splits",
        [
            ([Box(0, 0, 9, 9)], False),
            ([Box(-5, 3, 20, 4), Box(0, 0, 9, 9)], True),
            ([Box(0, -1, 3, 10), Box(4, 0, 9, 9)], False),
            ([Box(7, 0, 12, 9), Box(0, 0, 6, 9)], False),
            ([Box(0, 0, 9, 2), Box(-3, 3, 9, 9)], False),
            ([Box(0, 8, 9, 9), Box(0, 0, 9, 7)], False),
            ([Box(4, 0, 5, 9), Box(0, 0, 3, 9), Box(6, 0, 9, 9)], True),
            ([Box(0, 4, 9, 5), Box(0, 0, 9, 3), Box(0, 6, 9, 9)], True),
            ([Box(3, 3, 6, 6), Box(0, 0, 9, 2), Box(0, 7, 9, 9), Box(0, 0, 2, 9),
              Box(7, 0, 9, 9)], True),
            ([Box(0, 0, 3, 9), Box(5, 0, 9, 9)], False),
            ([Box(20, 20, 30, 30), Box(0, 0, 9, 8)], False),
        ],
    )
    def test_only_a_split_falls_back_to_subtraction(self, monkeypatch, cover, splits):
        # a box that contains, misses, or cuts one side of what is left
        # moves a corner; one that would split it hands over the rest
        target = Box(0, 0, 9, 9)
        want = set(cells(target)) <= covered_cells_bruteforce(cover)
        subtractions = []

        def counting_subtract(pending, boxes):
            subtractions.append(pending)
            return real_subtract(pending, boxes)

        real_subtract = spatial._subtract
        monkeypatch.setattr(spatial, "_subtract", counting_subtract)
        assert box_covered(target, cover) == want
        assert len(subtractions) == int(splits)


class TestObservationCorners:
    """The corner tuples an observation keeps for its predicates."""

    OBS = Observation(7, "arm", [Box(5, 5, 0, 0), Box(9, 1, 8, 2), Box(0, 0, 5, 5)])

    @given(observations)
    @settings(max_examples=200)
    def test_match_the_occupied_boxes(self, obs):
        assert obs._corners == tuple(box.as_tuple() for box in obs.occupied)

    def test_are_not_a_field(self):
        obs = self.OBS
        assert list(inspect.signature(Observation).parameters) == ["time", "owner", "occupied"]
        assert obs._corners == ((0, 0, 5, 5), (8, 1, 9, 2))
        assert repr(obs) == (
            "Observation(time=7, owner='arm', occupied=(Box(x1=0, y1=0, x2=5, y2=5), "
            "Box(x1=8, y1=1, x2=9, y2=2)))"
        )
        assert hash(obs) == hash((7, "arm", obs.occupied))
        twin = Observation(7, "arm", reversed(obs.occupied))
        assert twin == obs and hash(twin) == hash(obs)
        assert obs != Observation(7, "arm", obs.occupied[:1])

    def test_survive_pickling_and_copies(self):
        obs = self.OBS
        for copied in (pickle.loads(pickle.dumps(obs)), copy.copy(obs), copy.deepcopy(obs)):
            assert copied == obs
            assert repr(copied) == repr(obs)
            assert copied._corners == obs._corners

    def test_follow_replace(self):
        obs = self.OBS
        moved = Observation(8, obs.owner, obs.occupied)
        assert moved == Observation(8, "arm", self.OBS.occupied)
        assert moved._corners == self.OBS._corners
        shrunk = Observation(obs.time, obs.owner, [Box(3, 3, 2, 2)])
        assert shrunk.occupied == (Box(2, 2, 3, 3),)
        assert shrunk._corners == ((2, 2, 3, 3),)


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

    @given(formulas_on_their_trace())
    @settings(max_examples=300)
    def test_agrees_with_oracle_at_the_edges_of_the_scope(self, case):
        inv, trace = case
        at = oracle_first_violation(inv, trace)
        assert check_trace(inv, trace) == TraceVerdict(holds=at is None, first_violation=at)

    @given(two_owner_scopes())
    @settings(max_examples=300)
    def test_agrees_with_oracle_when_both_owners_of_the_scope_violate(self, case):
        inv, trace = case
        at = oracle_first_violation(inv, trace)
        assert at is not None
        assert check_trace(inv, trace) == TraceVerdict(holds=False, first_violation=at)

    def test_judges_only_the_observations_in_scope(self, monkeypatch):
        judged = []

        def counting_kernel(target):
            # an observation without the unit box at the origin violates
            def covered(corners):
                judged.append(corners)
                return (0, 0, 1, 1) in corners

            return covered

        monkeypatch.setattr(spatial, "_coverage_kernel", counting_kernel)
        # each formula judges its box first, so every observation judged
        # costs one run of the box's coverage kernel
        box = OccupyBox(Box(0, 0, 1, 1))
        arm_at_2_to_3 = And((ARM, TimeInterval(TimeWindow(2, 3))))
        trace = [
            Observation(t, owner, (Box(0, 0, 1, 1),))
            for t in range(5) for owner in ("arm", "cart")
        ]
        assert check_trace(Or((box, Not(ARM))), trace).holds
        assert len(judged) == 5
        judged.clear()
        assert check_trace(Or((box, Not(arm_at_2_to_3))), trace).holds
        assert len(judged) == 2
        judged.clear()
        assert check_trace(Implies(arm_at_2_to_3, TrueAtom()), trace).holds
        assert judged == []

        # two owners, written as an OR of Owner terms, with a marker box
        # that tells each observation's corners apart
        crew = [
            Observation(i // 3, ("arm", "cart", "crane")[i % 3],
                        (Box(0, 0, 1, 1), Box(9, i, 9, i)))
            for i in range(15)
        ]
        index_of = {obs._corners: i for i, obs in enumerate(crew)}
        arm_or_cart = Implies(
            And((Or((ARM, Owner("cart"))), TimeInterval(TimeWindow(1, 3)))), box
        )
        judged.clear()
        assert check_trace(arm_or_cart, crew).holds
        assert [index_of[corners] for corners in judged] == [3, 4, 6, 7, 9, 10]
        # whichever owner's observations come first, the verdict is the
        # smaller of the two owners' violations
        for arm_at, cart_at in ((6, 10), (9, 7)):
            broken = list(crew)
            for i in (arm_at, cart_at):
                broken[i] = Observation(crew[i].time, crew[i].owner, crew[i].occupied[1:])
            verdict = check_trace(arm_or_cart, broken)
            assert verdict == TraceVerdict(holds=False, first_violation=min(arm_at, cart_at))


_crew_formulas = st.recursive(
    st.one_of(
        st.just(TrueAtom()),
        st.just(FalseAtom()),
        st.builds(TimeInterval, st.builds(TimeWindow, _small_ticks, _small_ticks)),
        st.builds(Owner, _crew),
        st.builds(OccupyBox, _small_boxes),
        st.builds(OccupyPoint, _small, _small),
    ),
    lambda children: st.one_of(
        st.builds(Not, children),
        st.builds(Implies, children, children),
        st.lists(children, min_size=1, max_size=3).map(And),
        st.lists(children, min_size=1, max_size=3).map(Or),
    ),
    max_leaves=8,
)
_crew_traces = st.lists(_crew_observations, max_size=8).map(
    lambda obs: sorted(obs, key=lambda o: o.time)
)
_EDITS = ("none", "append", "replace", "decrease", "sort", "equal", "tuple")


class TestSharedRead:
    """A trace read once is read again whenever it is no longer equal."""

    @given(st.data(), _crew_traces, _crew_traces)
    @settings(max_examples=300)
    def test_verdicts_follow_traces_edited_in_place(self, data, first, second):
        traces = [first, second]
        for _ in range(data.draw(st.integers(1, 12), label="calls")):
            trace = traces[data.draw(st.integers(0, 1), label="trace")]
            edit = data.draw(st.sampled_from(_EDITS), label="edit")
            if edit == "append":
                trace.append(data.draw(_crew_observations, label="appended"))
            elif len(trace) > 1 and edit in ("replace", "decrease", "equal"):
                i = data.draw(st.integers(1, len(trace) - 1), label="index")
                obs = trace[i]
                if edit == "replace":
                    trace[i] = data.draw(st.one_of(
                        _crew.map(lambda owner: Observation(obs.time, owner, obs.occupied)),
                        _small_ticks.map(lambda time: Observation(time, obs.owner, obs.occupied)),
                    ), label="replaced")
                elif edit == "decrease":
                    # below every time, so below the one before it
                    trace[i] = Observation(min(o.time for o in trace) - 1, obs.owner, obs.occupied)
                else:
                    trace[i] = Observation(obs.time, obs.owner, obs.occupied)
                    assert trace[i] == obs and trace[i] is not obs
            elif edit == "sort":
                trace.sort(key=lambda o: o.time)
            given_trace = tuple(trace) if edit == "tuple" else trace
            inv = data.draw(_crew_formulas, label="formula")
            if any(b.time < a.time for a, b in zip(trace, trace[1:])):
                with pytest.raises(NonMonotonicTrace):
                    check_trace(inv, given_trace)
            else:
                at = oracle_first_violation(inv, trace)
                verdict = check_trace(inv, given_trace)
                assert verdict == TraceVerdict(holds=at is None, first_violation=at)

    def test_threads_checking_their_own_traces_agree(self):
        # trace k has k + 4 observations and its first bare arm at index
        # k, so times or owners read from another thread's trace show as
        # a wrong verdict or an error; each call yields first, so the
        # threads take turns and most calls replace the memo
        traces = [
            [Observation(t, "arm", (Box(0, 0, 1, 1),)) for t in range(k)]
            + [Observation(k, "arm", ()), Observation(k, "cart", ())]
            + [Observation(k + 1, "arm", ()), Observation(k + 2, "cart", ())]
            for k in range(4)
        ]
        inv = Implies(ARM, OccupyPoint(0, 0))
        start = threading.Barrier(len(traces))
        wrong = []

        def work(k):
            start.wait()
            for _ in range(300):
                time.sleep(0)
                try:
                    verdict = check_trace(inv, traces[k])
                except Exception as err:
                    verdict = err
                if verdict != TraceVerdict(holds=False, first_violation=k):
                    wrong.append((k, verdict))

        threads = [
            threading.Thread(target=work, args=(k,), daemon=True)
            for k in range(len(traces))
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert wrong == []


class TestMonotonicityEverywhere:
    """A decreasing trace is refused even where the formula cannot fail."""

    def test_formula_that_cannot_fail(self):
        trace = [Observation(4, "x", ()), Observation(3, "x", ())]
        with pytest.raises(NonMonotonicTrace) as err:
            check_trace(Implies(Owner("x"), TrueAtom()), trace)
        assert str(err.value) == "observation 1 at time 3 after time 4"

    def test_decrease_outside_the_window(self):
        inv = Implies(TimeInterval(TimeWindow(0, 5)), OccupyPoint(0, 0))
        trace = [
            Observation(t, "arm", (Box(0, 0, 0, 0),)) for t in (1, 2, 100, 99, 120)
        ]
        with pytest.raises(NonMonotonicTrace) as err:
            check_trace(inv, trace)
        assert str(err.value) == "observation 3 at time 99 after time 100"

    def test_decrease_outside_the_owner(self):
        inv = Implies(ARM, OccupyPoint(0, 0))
        trace = [
            Observation(1, "arm", (Box(0, 0, 0, 0),)),
            Observation(5, "cart", ()),
            Observation(3, "cart", ()),
            Observation(6, "arm", (Box(0, 0, 0, 0),)),
        ]
        with pytest.raises(NonMonotonicTrace) as err:
            check_trace(inv, trace)
        assert str(err.value) == "observation 2 at time 3 after time 5"


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
