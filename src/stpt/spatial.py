"""Spatio-temporal invariant language: geometry, formula terms, and satisfaction.

Formulas are trees of logical connectives over three kinds of atoms: time
intervals, component owners, and occupied space. A formula is judged against
an :class:`Observation` (one owner's occupied boxes at one instant); traces
are checked observation by observation.

All coordinates and times are integers. Every interval is closed on both
ends, so boxes include their borders and touching boxes overlap in a
degenerate (zero-width) box.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

class NonMonotonicTrace(ValueError):
    """Raised when trace observation times decrease."""


@dataclass(frozen=True, order=True)
class Box:
    """Axis-aligned rectangle with integer corners, borders included.

    May be constructed with unordered corners; :meth:`normalized` reorders
    them. Zero width or height is legal (a segment or a single point).
    """

    x1: int
    y1: int
    x2: int
    y2: int

    def normalized(self) -> Box:
        if self.is_normalized:
            return self
        return Box(
            min(self.x1, self.x2),
            min(self.y1, self.y2),
            max(self.x1, self.x2),
            max(self.y1, self.y2),
        )

    @property
    def is_normalized(self) -> bool:
        return self.x1 <= self.x2 and self.y1 <= self.y2

    def contains_point(self, x: int, y: int) -> bool:
        return self.x1 <= x <= self.x2 and self.y1 <= y <= self.y2

    def contains_box(self, other: Box) -> bool:
        other = other.normalized()
        return (
            self.x1 <= other.x1
            and self.y1 <= other.y1
            and other.x2 <= self.x2
            and other.y2 <= self.y2
        )

    def cells(self) -> Iterator[tuple[int, int]]:
        for x in range(self.x1, self.x2 + 1):
            for y in range(self.y1, self.y2 + 1):
                yield (x, y)

    def as_tuple(self) -> tuple[int, int, int, int]:
        return (self.x1, self.y1, self.x2, self.y2)


@dataclass(frozen=True, order=True)
class TimeWindow:
    """Closed interval of discrete time ticks."""

    start: int
    end: int

    def normalized(self) -> TimeWindow:
        if self.start <= self.end:
            return self
        return TimeWindow(self.end, self.start)

    @property
    def is_normalized(self) -> bool:
        return self.start <= self.end

    def contains(self, t: int) -> bool:
        return self.start <= t <= self.end

    def ticks(self) -> Iterator[int]:
        return iter(range(self.start, self.end + 1))


def box_intersection(a: Box, b: Box) -> Optional[Box]:
    """Overlap rectangle of two boxes, or None when disjoint.

    Closed-interval semantics: boxes that only touch yield a degenerate
    overlap. Commutative; the result is contained in both arguments.
    """
    a = a.normalized()
    b = b.normalized()
    x1 = max(a.x1, b.x1)
    y1 = max(a.y1, b.y1)
    x2 = min(a.x2, b.x2)
    y2 = min(a.y2, b.y2)
    if x1 > x2 or y1 > y2:
        return None
    return Box(x1, y1, x2, y2)


def window_intersection(a: TimeWindow, b: TimeWindow) -> Optional[TimeWindow]:
    """Closed-interval overlap of two time windows, or None when disjoint."""
    a = a.normalized()
    b = b.normalized()
    start = max(a.start, b.start)
    end = min(a.end, b.end)
    if start > end:
        return None
    return TimeWindow(start, end)


# ---------------------------------------------------------------------------
# Formula terms


class Invariant:
    """Base class for spatio-temporal formula terms. Terms are immutable."""

    __slots__ = ()


@dataclass(frozen=True)
class TrueAtom(Invariant):
    pass


@dataclass(frozen=True)
class FalseAtom(Invariant):
    pass


@dataclass(frozen=True)
class And(Invariant):
    terms: tuple[Invariant, ...]

    def __init__(self, terms: Iterable[Invariant]):
        terms = tuple(terms)
        if not terms:
            raise ValueError("And requires at least one term")
        object.__setattr__(self, "terms", terms)


@dataclass(frozen=True)
class Or(Invariant):
    terms: tuple[Invariant, ...]

    def __init__(self, terms: Iterable[Invariant]):
        terms = tuple(terms)
        if not terms:
            raise ValueError("Or requires at least one term")
        object.__setattr__(self, "terms", terms)


@dataclass(frozen=True)
class Not(Invariant):
    term: Invariant


@dataclass(frozen=True)
class Implies(Invariant):
    antecedent: Invariant
    consequent: Invariant


@dataclass(frozen=True)
class TimeInterval(Invariant):
    """True when the observation's time lies inside the (ordered) window."""

    window: TimeWindow

    def __post_init__(self) -> None:
        object.__setattr__(self, "window", self.window.normalized())


@dataclass(frozen=True)
class Owner(Invariant):
    """True when the observation belongs to the named component."""

    name: str


@dataclass(frozen=True)
class OccupyBox(Invariant):
    """True when the (ordered) box is covered by the observation's occupied space."""

    box: Box

    def __post_init__(self) -> None:
        object.__setattr__(self, "box", self.box.normalized())


@dataclass(frozen=True)
class OccupyPoint(Invariant):
    """True when the point lies inside some occupied box."""

    x: int
    y: int


@dataclass(frozen=True)
class Observation:
    """One owner's occupied space at one instant of discrete time.

    A multi-component scene at time t is a list of Observations sharing t,
    one per owner. ``occupied`` may be empty and is stored sorted and
    deduplicated with every box normalized.
    """

    time: int
    owner: str
    occupied: tuple[Box, ...] = ()

    def __init__(self, time: int, owner: str, occupied: Iterable[Box] = ()):
        object.__setattr__(self, "time", time)
        object.__setattr__(self, "owner", owner)
        boxes = tuple(sorted({b.normalized() for b in occupied}))
        object.__setattr__(self, "occupied", boxes)


@dataclass(frozen=True)
class OccupancyFact:
    """Claim that an owner occupies a box throughout a time window."""

    owner: str
    window: TimeWindow
    box: Box

    def __post_init__(self) -> None:
        object.__setattr__(self, "window", self.window.normalized())
        object.__setattr__(self, "box", self.box.normalized())


@dataclass(frozen=True)
class CollisionWitness:
    """Two distinct owners sharing space during a shared time window."""

    owner_a: str
    owner_b: str
    overlap_window: TimeWindow
    overlap_box: Box

    def __post_init__(self) -> None:
        if self.owner_a == self.owner_b:
            raise ValueError("collision witnesses require distinct owners")


@dataclass(frozen=True)
class TraceVerdict:
    """Outcome of checking one formula against a trace."""

    holds: bool
    first_violation: Optional[int] = None


# ---------------------------------------------------------------------------
# Normalization


def normalize(inv: Invariant) -> Invariant:
    """Canonical form: nested And/Or flattened; atoms are ordered when built.

    Semantics-preserving and idempotent. No other simplification is applied,
    so the term structure stays recognizable.
    """
    atoms = (TrueAtom, FalseAtom, TimeInterval, Owner, OccupyBox, OccupyPoint)
    if isinstance(inv, atoms):
        return inv
    if isinstance(inv, Not):
        return Not(normalize(inv.term))
    if isinstance(inv, Implies):
        return Implies(normalize(inv.antecedent), normalize(inv.consequent))
    if isinstance(inv, And):
        flat: list[Invariant] = []
        for term in inv.terms:
            term = normalize(term)
            if isinstance(term, And):
                flat.extend(term.terms)
            else:
                flat.append(term)
        return And(flat)
    if isinstance(inv, Or):
        flat = []
        for term in inv.terms:
            term = normalize(term)
            if isinstance(term, Or):
                flat.extend(term.terms)
            else:
                flat.append(term)
        return Or(flat)
    raise TypeError(f"unknown invariant term: {inv!r}")


# ---------------------------------------------------------------------------
# Satisfaction


def _subtract(rect: Box, hole: Box) -> list[Box]:
    """Remove ``hole`` from ``rect``, returning up to four remainder rects."""
    overlap = box_intersection(rect, hole)
    if overlap is None:
        return [rect]
    pieces = []
    if rect.x1 < overlap.x1:
        pieces.append(Box(rect.x1, rect.y1, overlap.x1 - 1, rect.y2))
    if overlap.x2 < rect.x2:
        pieces.append(Box(overlap.x2 + 1, rect.y1, rect.x2, rect.y2))
    if rect.y1 < overlap.y1:
        pieces.append(Box(overlap.x1, rect.y1, overlap.x2, overlap.y1 - 1))
    if overlap.y2 < rect.y2:
        pieces.append(Box(overlap.x1, overlap.y2 + 1, overlap.x2, rect.y2))
    return pieces


def box_covered(target: Box, boxes: Sequence[Box]) -> bool:
    """Whether ``target`` is fully covered by the union of ``boxes``.

    Subtracts each box in turn from what is left of the target and stops
    as soon as nothing is left. Every remainder piece is a closed integer
    rectangle, so the answer is exact on the integer grid, and its cost
    grows with the number of pieces rather than with the target's area.
    """
    pending = [target.normalized()]
    for b in boxes:
        pending = [piece for rect in pending for piece in _subtract(rect, b)]
        if not pending:
            return True
    return False


def evaluate(inv: Invariant, obs: Observation) -> bool:
    """Whether one observation satisfies the formula, judged as given. Total."""
    if isinstance(inv, TrueAtom):
        return True
    if isinstance(inv, FalseAtom):
        return False
    if isinstance(inv, And):
        return all(evaluate(t, obs) for t in inv.terms)
    if isinstance(inv, Or):
        return any(evaluate(t, obs) for t in inv.terms)
    if isinstance(inv, Not):
        return not evaluate(inv.term, obs)
    if isinstance(inv, Implies):
        return not evaluate(inv.antecedent, obs) or evaluate(inv.consequent, obs)
    if isinstance(inv, TimeInterval):
        return inv.window.contains(obs.time)
    if isinstance(inv, Owner):
        return inv.name == obs.owner
    if isinstance(inv, OccupyBox):
        return box_covered(inv.box, obs.occupied)
    if isinstance(inv, OccupyPoint):
        return any(b.contains_point(inv.x, inv.y) for b in obs.occupied)
    raise TypeError(f"unknown invariant term: {inv!r}")


def check_trace(inv: Invariant, trace: Sequence[Observation]) -> TraceVerdict:
    """Check every observation of a time-ordered trace against the formula.

    Raises :class:`NonMonotonicTrace` if observation times decrease. The
    verdict carries the smallest violating index, if any.
    """
    previous = None
    for index, obs in enumerate(trace):
        if previous is not None and obs.time < previous:
            raise NonMonotonicTrace(
                f"observation {index} at time {obs.time} after time {previous}"
            )
        previous = obs.time
    for index, obs in enumerate(trace):
        if not evaluate(inv, obs):
            return TraceVerdict(holds=False, first_violation=index)
    return TraceVerdict(holds=True)


def detect_collisions(facts: Sequence[OccupancyFact]) -> list[CollisionWitness]:
    """All pairwise space-and-time overlaps between facts of distinct owners.

    One witness per unordered pair of facts whose windows and boxes both
    intersect; the witness carries the intersections with its owners in
    lexicographic order. Output is sorted, so it is invariant under
    permutation of the input.
    """
    witnesses = []
    for i in range(len(facts)):
        for j in range(i + 1, len(facts)):
            a, b = facts[i], facts[j]
            if a.owner == b.owner:
                continue
            window = window_intersection(a.window, b.window)
            if window is None:
                continue
            box = box_intersection(a.box, b.box)
            if box is None:
                continue
            owner_a, owner_b = sorted((a.owner, b.owner))
            witnesses.append(CollisionWitness(owner_a, owner_b, window, box))
    witnesses.sort(
        key=lambda w: (w.owner_a, w.owner_b, w.overlap_window, w.overlap_box)
    )
    return witnesses
