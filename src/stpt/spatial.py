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
from typing import Callable, Iterable, Iterator, Optional, Sequence, Union


def is_int(value: object) -> bool:
    """Whether ``value`` is an int and not a bool, which is no time or coordinate."""
    return isinstance(value, int) and not isinstance(value, bool)


class NonMonotonicTrace(ValueError):
    """Raised when trace observation times decrease."""


@dataclass(frozen=True, order=True)
class Box:
    """Axis-aligned rectangle with integer corners, borders included.

    The corners are stored in order, ``x1 <= x2`` and ``y1 <= y2``,
    whatever order they were given in, so a box equals and hashes like
    its swapped twin. Zero width or height is legal (a segment or a
    single point).
    """

    x1: int
    y1: int
    x2: int
    y2: int

    def __post_init__(self) -> None:
        x1, y1, x2, y2 = self.x1, self.y1, self.x2, self.y2
        if not all(map(is_int, (x1, y1, x2, y2))):
            raise TypeError(f"box corners must be integers, got {self.as_tuple()}")
        if x1 > x2:
            object.__setattr__(self, "x1", x2)
            object.__setattr__(self, "x2", x1)
        if y1 > y2:
            object.__setattr__(self, "y1", y2)
            object.__setattr__(self, "y2", y1)

    def normalized(self) -> Box:
        # the identity, kept only because bench/run.py still calls it
        return self

    def contains_box(self, other: Box) -> bool:
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
    """Closed interval of discrete time ticks, stored with ``start <= end``."""

    start: int
    end: int

    def __post_init__(self) -> None:
        start, end = self.start, self.end
        if start > end:
            object.__setattr__(self, "start", end)
            object.__setattr__(self, "end", start)

    def contains(self, t: int) -> bool:
        return self.start <= t <= self.end


def box_intersection(a: Box, b: Box) -> Optional[Box]:
    """Overlap rectangle of two boxes, or None when disjoint.

    Closed-interval semantics: boxes that only touch yield a degenerate
    overlap. Commutative; the result is contained in both arguments.
    """
    x1 = max(a.x1, b.x1)
    y1 = max(a.y1, b.y1)
    x2 = min(a.x2, b.x2)
    y2 = min(a.y2, b.y2)
    if x1 > x2 or y1 > y2:
        return None
    return Box(x1, y1, x2, y2)


def window_intersection(a: TimeWindow, b: TimeWindow) -> Optional[TimeWindow]:
    """Closed-interval overlap of two time windows, or None when disjoint."""
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
    """True when the observation's time lies inside the window."""

    window: TimeWindow


@dataclass(frozen=True)
class Owner(Invariant):
    """True when the observation belongs to the named component."""

    name: str


@dataclass(frozen=True)
class OccupyBox(Invariant):
    """True when the box is covered by the observation's occupied space."""

    box: Box


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
    deduplicated.
    """

    time: int
    owner: str
    occupied: tuple[Box, ...] = ()

    def __init__(self, time: int, owner: str, occupied: Iterable[Box] = ()):
        object.__setattr__(self, "time", time)
        object.__setattr__(self, "owner", owner)
        boxes = tuple(sorted(set(occupied)))
        object.__setattr__(self, "occupied", boxes)


@dataclass(frozen=True)
class OccupancyFact:
    """Claim that an owner occupies a box throughout a time window."""

    owner: str
    window: TimeWindow
    box: Box


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


Predicate = Callable[[Observation], bool]


def always_true(obs: Observation) -> bool:
    """The predicate of every term that folds to TRUE."""
    return True


def always_false(obs: Observation) -> bool:
    """The predicate of every term that folds to FALSE."""
    return False


def box_covered(target: Box, boxes: Sequence[Box]) -> bool:
    """Whether ``target`` is fully covered by the union of ``boxes``.

    Subtracts each box in turn from what is left of the target and stops
    as soon as nothing is left. Every remainder piece is a closed integer
    rectangle, held as an ``(x1, y1, x2, y2)`` tuple, so the answer is
    exact on the integer grid, and its cost grows with the number of
    pieces rather than with the target's area.
    """
    pending = [target.as_tuple()]
    for box in boxes:
        bx1, by1, bx2, by2 = box.x1, box.y1, box.x2, box.y2
        rest = []
        for piece in pending:
            px1, py1, px2, py2 = piece
            if bx1 > px2 or bx2 < px1 or by1 > py2 or by2 < py1:
                rest.append(piece)
                continue
            # the overlap is [ox1, ox2] x [oy1, oy2]; keep what lies around it
            ox1 = bx1 if bx1 > px1 else px1
            ox2 = bx2 if bx2 < px2 else px2
            oy1 = by1 if by1 > py1 else py1
            oy2 = by2 if by2 < py2 else py2
            if px1 < ox1:
                rest.append((px1, py1, ox1 - 1, py2))
            if ox2 < px2:
                rest.append((ox2 + 1, py1, px2, py2))
            if py1 < oy1:
                rest.append((ox1, py1, ox2, oy1 - 1))
            if oy2 < py2:
                rest.append((ox1, oy2 + 1, ox2, py2))
        if not rest:
            return True
        pending = rest
    return False


def compile_invariant(inv: Invariant) -> Predicate:
    """The formula as a predicate over observations, built in one walk.

    Constants fold bottom-up: ``Implies(_, TRUE)``, ``Implies(FALSE, _)``,
    ``Or(..., TRUE, ...)`` and ``Not(FALSE)`` fold to TRUE, their duals to
    FALSE, TRUE (FALSE) operands drop out of ``And`` (``Or``), and
    ``Implies(f, FALSE)`` becomes ``Not(f)``. A term
    that folds to a constant compiles to :func:`always_true` or
    :func:`always_false`. Every subterm is compiled, even one that folds
    away, so an unknown term raises ``TypeError`` here and never when the
    predicate runs. Nothing is stored on the terms.
    """
    compiled = _compile(inv)
    if compiled is True:
        return always_true
    if compiled is False:
        return always_false
    return compiled


def _compile(inv: Invariant) -> Union[bool, Predicate]:
    """A constant the term folds to, or its predicate."""
    for cls in type(inv).__mro__:
        compiler = _COMPILERS.get(cls)
        if compiler is not None:
            return compiler(inv)
    raise TypeError(f"unknown invariant term: {inv!r}")


def _negate(compiled: Union[bool, Predicate]) -> Union[bool, Predicate]:
    if isinstance(compiled, bool):
        return not compiled
    return lambda obs: not compiled(obs)


def _compile_implies(inv: Implies) -> Union[bool, Predicate]:
    antecedent = _compile(inv.antecedent)
    consequent = _compile(inv.consequent)
    if antecedent is False or consequent is True:
        return True
    if antecedent is True:
        return consequent
    if consequent is False:
        return _negate(antecedent)
    return lambda obs: not antecedent(obs) or consequent(obs)


def _junction(
    terms: tuple[Invariant, ...],
    absorbing: bool,
    combine: Callable[[list[Predicate]], Predicate],
) -> Union[bool, Predicate]:
    """``And`` (``absorbing`` False) or ``Or`` (True) of the compiled terms.

    Every term is compiled. The absorbing constant decides the whole, the
    other constant drops out, and ``combine`` joins the predicates left.
    """
    preds = []
    decided = False
    for term in terms:
        compiled = _compile(term)
        if compiled is absorbing:
            decided = True
        elif not isinstance(compiled, bool):
            preds.append(compiled)
    if decided:
        return absorbing
    if not preds:
        return not absorbing
    return preds[0] if len(preds) == 1 else combine(preds)


def _all_of(preds: list[Predicate]) -> Predicate:
    if len(preds) == 2:
        a, b = preds
        return lambda obs: a(obs) and b(obs)
    if len(preds) == 3:
        a, b, c = preds
        return lambda obs: a(obs) and b(obs) and c(obs)

    def conjunction(obs: Observation) -> bool:
        for p in preds:
            if not p(obs):
                return False
        return True

    return conjunction


def _any_of(preds: list[Predicate]) -> Predicate:
    if len(preds) == 2:
        a, b = preds
        return lambda obs: a(obs) or b(obs)
    if len(preds) == 3:
        a, b, c = preds
        return lambda obs: a(obs) or b(obs) or c(obs)

    def disjunction(obs: Observation) -> bool:
        for p in preds:
            if p(obs):
                return True
        return False

    return disjunction


def _compile_time(inv: TimeInterval) -> Predicate:
    start, end = inv.window.start, inv.window.end
    return lambda obs: start <= obs.time <= end


def _compile_owner(inv: Owner) -> Predicate:
    name = inv.name
    return lambda obs: obs.owner == name


def _compile_box(inv: OccupyBox) -> Predicate:
    box = inv.box
    return lambda obs: box_covered(box, obs.occupied)


def _compile_point(inv: OccupyPoint) -> Predicate:
    x, y = inv.x, inv.y

    def occupies_point(obs: Observation) -> bool:
        for b in obs.occupied:
            if b.x1 <= x <= b.x2 and b.y1 <= y <= b.y2:
                return True
        return False

    return occupies_point


_COMPILERS = {
    TrueAtom: lambda inv: True,
    FalseAtom: lambda inv: False,
    And: lambda inv: _junction(inv.terms, False, _all_of),
    Or: lambda inv: _junction(inv.terms, True, _any_of),
    Not: lambda inv: _negate(_compile(inv.term)),
    Implies: _compile_implies,
    TimeInterval: _compile_time,
    Owner: _compile_owner,
    OccupyBox: _compile_box,
    OccupyPoint: _compile_point,
}


def evaluate(inv: Invariant, obs: Observation) -> bool:
    """Whether one observation satisfies the formula, judged as given.

    The one-off form of :func:`compile_invariant`; compile once to judge
    many observations.
    """
    return compile_invariant(inv)(obs)


def check_trace(inv: Invariant, trace: Sequence[Observation]) -> TraceVerdict:
    """Check every observation of a time-ordered trace against the formula.

    Raises :class:`NonMonotonicTrace` if observation times decrease. The
    verdict carries the smallest violating index, if any.
    """
    holds = compile_invariant(inv)
    previous = None
    for index, obs in enumerate(trace):
        if previous is not None and obs.time < previous:
            raise NonMonotonicTrace(
                f"observation {index} at time {obs.time} after time {previous}"
            )
        previous = obs.time
    for index, obs in enumerate(trace):
        if not holds(obs):
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
