"""Spatio-temporal invariant language: geometry, formula terms, and satisfaction.

Formulas are trees of logical connectives over three kinds of atoms: time
intervals, component owners, and occupied space. A formula is judged against
an :class:`Observation` (one owner's occupied boxes at one instant); a
trace is checked at the observations where the formula can fail.

All coordinates and times are integers. Every interval is closed on both
ends, so boxes include their borders and touching boxes overlap in a
degenerate (zero-width) box. A construct of the formula language is its
term class, its row in ``_CONSTRUCTS`` (which holds its compiler), and its
case in the satisfaction oracle of the tests.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import total_ordering
from math import inf
from operator import attrgetter
from typing import Callable, Iterable, NamedTuple, Optional, Sequence, Union


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
        # the chained type test lets four plain ints skip the is_int calls,
        # as in Observation: a trace builds a box per occupied rectangle
        if not (type(x1) is type(y1) is type(x2) is type(y2) is int) and not all(
            map(is_int, (x1, y1, x2, y2))
        ):
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

    def as_tuple(self) -> tuple[int, int, int, int]:
        return (self.x1, self.y1, self.x2, self.y2)


class _Record:
    """An immutable record, with the methods a frozen ``dataclass`` has.

    A subclass names its fields, in constructor order, in ``_fields``,
    holds them in ``__slots__`` and sets each once in its own
    ``__init__``, through ``object.__setattr__`` or its slot's
    descriptor. Equality holds field by field between instances of one
    class only, the hash is that of the fields' tuple, ``repr`` is
    ``Name(field=value, ...)``, assigning or deleting an attribute raises
    ``AttributeError``, and pickle and copies rebuild an instance through
    its constructor. A record takes weak references. It writes these
    once, where ``dataclass`` compiles them for every class at import.
    """

    __slots__ = ("__weakref__",)
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        fields = cls._fields
        # the fields' tuple, read by one C call when there are several
        if len(fields) > 1:
            values = attrgetter(*fields)
        else:
            values = lambda record: tuple([getattr(record, name) for name in fields])
        cls._values = staticmethod(values)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == other._values(other)

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        inner = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({inner})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values(self)


@total_ordering
class TimeWindow(_Record):
    """Closed interval of discrete time ticks, stored with ``start <= end``.

    Windows order as their ``(start, end)`` pairs.
    """

    __slots__ = _fields = ("start", "end")

    def __init__(self, start: int, end: int) -> None:
        if not (is_int(start) and is_int(end)):
            raise TypeError(f"time window bounds must be integers, got {(start, end)}")
        if start > end:
            start, end = end, start
        object.__setattr__(self, "start", start)
        object.__setattr__(self, "end", end)

    def __lt__(self, other: TimeWindow) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.start, self.end) < (other.start, other.end)

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


class Invariant(_Record):
    """Base class for spatio-temporal formula terms. Terms are immutable."""

    __slots__ = ()


class TrueAtom(Invariant):
    __slots__ = ()


class FalseAtom(Invariant):
    __slots__ = ()


class Junction(Invariant):
    """A connective over one or more terms: :class:`And` or :class:`Or`."""

    __slots__ = _fields = ("terms",)

    def __init__(self, terms: Iterable[Invariant]):
        terms = tuple(terms)
        if not terms:
            raise ValueError(f"{type(self).__name__} requires at least one term")
        object.__setattr__(self, "terms", terms)


class And(Junction):
    """True when every term holds."""

    __slots__ = ()


class Or(Junction):
    """True when some term holds."""

    __slots__ = ()


class Not(Invariant):
    __slots__ = _fields = ("term",)

    def __init__(self, term: Invariant):
        object.__setattr__(self, "term", term)


class Implies(Invariant):
    __slots__ = _fields = ("antecedent", "consequent")

    def __init__(self, antecedent: Invariant, consequent: Invariant):
        object.__setattr__(self, "antecedent", antecedent)
        object.__setattr__(self, "consequent", consequent)


class TimeInterval(Invariant):
    """True when the observation's time lies inside the window."""

    __slots__ = _fields = ("window",)

    def __init__(self, window: TimeWindow):
        if not isinstance(window, TimeWindow):
            raise TypeError(f"time interval must hold a TimeWindow, got {window!r}")
        object.__setattr__(self, "window", window)


class Owner(Invariant):
    """True when the observation belongs to the named component."""

    __slots__ = _fields = ("name",)

    def __init__(self, name: str):
        if not isinstance(name, str):
            raise TypeError(f"owner name must be a string, got {name!r}")
        object.__setattr__(self, "name", name)


class OccupyBox(Invariant):
    """True when the box is covered by the observation's occupied space."""

    __slots__ = _fields = ("box",)

    def __init__(self, box: Box):
        if not isinstance(box, Box):
            raise TypeError(f"occupied box must be a Box, got {box!r}")
        object.__setattr__(self, "box", box)


class OccupyPoint(Invariant):
    """True when the point lies inside some occupied box."""

    __slots__ = _fields = ("x", "y")

    def __init__(self, x: int, y: int):
        if not (is_int(x) and is_int(y)):
            raise TypeError(f"point coordinates must be integers, got {(x, y)}")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)


class Observation(_Record):
    """One owner's occupied space at one instant of discrete time.

    A multi-component scene at time t is a list of Observations sharing t,
    one per owner. ``occupied`` may be empty and is stored sorted and
    deduplicated. The same boxes are also kept as ``(x1, y1, x2, y2)``
    tuples in ``_corners``, which the compiled ``OccupyBox`` and
    ``OccupyPoint`` predicates unpack; it is not a field, so equality,
    hashing, ``repr`` and the constructor see only the three above.
    ``time`` must be an integer, not a bool, and ``owner`` a ``str``
    (``TypeError``).
    """

    _fields = ("time", "owner", "occupied")
    __slots__ = _fields + ("_corners",)

    def __init__(self, time: int, owner: str, occupied: Iterable[Box] = ()):
        # the type test lets a plain int skip the is_int call: a campaign
        # builds an observation per owner at every step it judges
        if type(time) is not int and not is_int(time):
            raise TypeError(f"time must be an integer, got {time!r}")
        if not isinstance(owner, str):
            raise TypeError(f"owner must be a string, got {owner!r}")
        object.__setattr__(self, "time", time)
        object.__setattr__(self, "owner", owner)
        boxes = tuple(sorted(set(occupied)))
        object.__setattr__(self, "occupied", boxes)
        object.__setattr__(self, "_corners", tuple(box.as_tuple() for box in boxes))


class OccupancyFact(_Record):
    """Claim that an owner occupies a box throughout a time window."""

    __slots__ = _fields = ("owner", "window", "box")

    def __init__(self, owner: str, window: TimeWindow, box: Box):
        object.__setattr__(self, "owner", owner)
        object.__setattr__(self, "window", window)
        object.__setattr__(self, "box", box)


class CollisionWitness(_Record):
    """Two distinct owners sharing space during a shared time window."""

    __slots__ = _fields = ("owner_a", "owner_b", "overlap_window", "overlap_box")

    def __init__(self, owner_a: str, owner_b: str, overlap_window: TimeWindow, overlap_box: Box):
        if owner_a == owner_b:
            raise ValueError("collision witnesses require distinct owners")
        object.__setattr__(self, "owner_a", owner_a)
        object.__setattr__(self, "owner_b", owner_b)
        object.__setattr__(self, "overlap_window", overlap_window)
        object.__setattr__(self, "overlap_box", overlap_box)


class TraceVerdict(_Record):
    """Outcome of checking one formula against a trace."""

    __slots__ = _fields = ("holds", "first_violation")

    def __init__(self, holds: bool, first_violation: Optional[int] = None):
        object.__setattr__(self, "holds", holds)
        object.__setattr__(self, "first_violation", first_violation)


# ---------------------------------------------------------------------------
# Normalization


def normalize(inv: Invariant) -> Invariant:
    """Canonical form: nested And/Or flattened; atoms are ordered when built.

    Semantics-preserving and idempotent. No other simplification is applied,
    so the term structure stays recognizable. A subclass of ``And`` (say)
    normalizes to an ``And``. The terms are rebuilt bottom-up by their
    rows, whose ``And`` and ``Or`` flatten through :func:`_junction`.
    """
    row = _construct(inv)
    if row.kind != "term" or row.arity == 0:
        return inv
    return row.build(*map(normalize, row.args(inv)))


def _junction(cls: type[Junction], terms: Iterable[Invariant]) -> Junction:
    """``cls`` over ``terms``, with each term that is exactly a ``cls`` spliced in.

    AND and OR are associative, so splicing keeps the meaning, and over
    terms in normal form it gives the normal form. It is how the rows of
    ``_CONSTRUCTS`` build both, so ``normalize`` and the parser share it.
    """
    flat: list[Invariant] = []
    for term in terms:
        if type(term) is cls:
            flat += term.terms
        else:
            flat.append(term)
    return cls(flat)


# ---------------------------------------------------------------------------
# Satisfaction


Predicate = Callable[[Observation], bool]


def always_true(obs: Observation) -> bool:
    """The predicate of every term that folds to TRUE."""
    return True


def always_false(obs: Observation) -> bool:
    """The predicate of every term that folds to FALSE."""
    return False


_Corners = tuple[int, int, int, int]


def box_covered(target: Box, boxes: Sequence[Box]) -> bool:
    """Whether ``target`` is fully covered by the union of ``boxes``.

    The boolean form of the coverage kernel that a compiled ``OccupyBox``
    runs (see :func:`_coverage_kernel`), over the boxes' corners.
    """
    return _coverage_kernel(target)([box.as_tuple() for box in boxes])


def _coverage_kernel(target: Box) -> Callable[[Sequence[_Corners]], bool]:
    """The coverage test of ``target``, as a function of the boxes' corners.

    The test takes ``(x1, y1, x2, y2)`` tuples, such as an observation's
    ``_corners``, and holds what is left of the target, the piece, as one
    rectangle in locals. A box that contains the piece decides "covered",
    a disjoint box is skipped, and a box that spans the piece across and
    overlaps one side moves that side. Only a box that would split the
    piece hands it, with the boxes from there on, to :func:`_subtract`.
    So a judgment costs a few comparisons per box and allocates nothing
    until a split, and it is exact on the integer grid either way.
    """
    tx1, ty1, tx2, ty2 = target.x1, target.y1, target.x2, target.y2

    def covered(corners: Sequence[_Corners]) -> bool:
        x1, y1, x2, y2 = tx1, ty1, tx2, ty2
        for bx1, by1, bx2, by2 in corners:
            if bx1 > x2 or bx2 < x1 or by1 > y2 or by2 < y1:
                continue
            if by1 <= y1 and by2 >= y2:
                # the box spans the piece's height: it covers it or cuts
                # its left or right side, unless it lies strictly inside
                if bx1 <= x1:
                    if bx2 >= x2:
                        return True
                    x1 = bx2 + 1
                    continue
                if bx2 >= x2:
                    x2 = bx1 - 1
                    continue
            elif bx1 <= x1 and bx2 >= x2:
                # the box spans the piece's width
                if by1 <= y1:
                    y1 = by2 + 1
                    continue
                if by2 >= y2:
                    y2 = by1 - 1
                    continue
            # from the first box equal to this one on: every box not yet
            # subtracted, and subtracting a box twice changes nothing
            at = corners.index((bx1, by1, bx2, by2))
            return _subtract([(x1, y1, x2, y2)], corners[at:])
        return False

    return covered


def _subtract(pending: list[_Corners], boxes: Sequence[_Corners]) -> bool:
    """Whether subtracting ``boxes`` in turn leaves nothing of ``pending``.

    Every remainder piece is a closed integer rectangle, so the answer is
    exact on the integer grid, and its cost grows with the number of
    pieces rather than with the area. Stops as soon as nothing is left.
    """
    for bx1, by1, bx2, by2 in boxes:
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
    return _predicate(_compile(inv)[0])


# A scope is ``(start, end, owners)``: the observations at times
# ``start..end``, closed, of the owners in the frozenset ``owners``, or of
# any owner when ``owners`` is None. Either end may be infinite. A scope
# with ``start > end`` or no owners holds no observation.
_Scope = tuple[float, float, Optional[frozenset]]
_EVERYWHERE: _Scope = (-inf, inf, None)
_NO_OWNERS: frozenset = frozenset()
_NOWHERE: _Scope = (inf, -inf, _NO_OWNERS)

# What _compile gives: the constant the term folds to or its predicate,
# then the scopes outside which the term cannot hold and cannot fail.
_Compiled = tuple[Union[bool, Predicate], _Scope, _Scope]


def _meet(a: _Scope, b: _Scope) -> _Scope:
    """The observations in both scopes."""
    a_start, a_end, a_owners = a
    b_start, b_end, b_owners = b
    if a_owners is None:
        owners = b_owners
    elif b_owners is None:
        owners = a_owners
    else:
        owners = a_owners & b_owners
    start = a_start if a_start > b_start else b_start
    return start, a_end if a_end < b_end else b_end, owners


def _hull(a: _Scope, b: _Scope) -> _Scope:
    """The least scope holding both; an empty scope adds nothing."""
    a_start, a_end, a_owners = a
    b_start, b_end, b_owners = b
    if a_start > a_end or a_owners == _NO_OWNERS:
        return b
    if b_start > b_end or b_owners == _NO_OWNERS:
        return a
    if a_owners is None or b_owners is None:
        owners = None
    else:
        owners = a_owners | b_owners
    start = a_start if a_start < b_start else b_start
    return start, a_end if a_end > b_end else b_end, owners


def _predicate(compiled: Union[bool, Predicate]) -> Predicate:
    if compiled is True:
        return always_true
    if compiled is False:
        return always_false
    return compiled


def _compile(inv: Invariant) -> _Compiled:
    """A constant the term folds to, or its predicate, and its two scopes.

    Outside the first scope the term is false, and outside the second it
    is true: ``TimeInterval`` may hold only in its window and ``Owner``
    only for its owner, ``TrueAtom`` never fails and ``FalseAtom`` never
    holds, ``Not`` swaps the two, and the connectives combine them as
    their truth tables say. Both scopes may be wider than the truth, never
    narrower. An ``OccupyBox`` compiles to one coverage kernel for its box
    (:func:`_coverage_kernel`), and it and ``OccupyPoint`` read the corner
    tuples that an :class:`Observation` prepares when built, so judging
    them reads no ``Box`` attribute.
    """
    return _construct(inv).compile(inv)


def _negate(compiled: Union[bool, Predicate]) -> Union[bool, Predicate]:
    if isinstance(compiled, bool):
        return not compiled
    return lambda obs: not compiled(obs)


def _compile_not(inv: Not) -> _Compiled:
    compiled, may_hold, may_fail = _compile(inv.term)
    return _negate(compiled), may_fail, may_hold


def _compile_implies(inv: Implies) -> _Compiled:
    # Implies(a, c) is Or(Not(a), c)
    antecedent, a_holds, a_fails = _compile(inv.antecedent)
    consequent, c_holds, c_fails = _compile(inv.consequent)
    may_hold, may_fail = _hull(a_fails, c_holds), _meet(a_holds, c_fails)
    if antecedent is False or consequent is True:
        return True, may_hold, may_fail
    if antecedent is True:
        return consequent, may_hold, may_fail
    if consequent is False:
        return _negate(antecedent), may_hold, may_fail
    return (lambda obs: not antecedent(obs) or consequent(obs)), may_hold, may_fail


def _compile_junction(inv: Junction) -> _Compiled:
    """``And`` or ``Or`` of the compiled terms.

    Every term is compiled. The absorbing constant (FALSE for ``And``,
    TRUE for ``Or``) decides the whole, the other constant drops out, and
    the predicates left are joined. ``And`` may hold where all its terms
    may and fail where any may, and ``Or`` is the dual; both start from
    the scopes of the constant that drops out. It is the compiler of both
    directly, so compiling a nested formula takes two frames per level,
    whatever the connective (``formula_text`` bounds the nesting by it).
    """
    preds = []
    decided = False
    absorbing = isinstance(inv, Or)
    if absorbing:
        combine, join_holds, join_fails = _any_of, _hull, _meet
        may_hold, may_fail = _NOWHERE, _EVERYWHERE
    else:
        combine, join_holds, join_fails = _all_of, _meet, _hull
        may_hold, may_fail = _EVERYWHERE, _NOWHERE
    for term in inv.terms:
        compiled, holds, fails = _compile(term)
        may_hold = join_holds(may_hold, holds)
        may_fail = join_fails(may_fail, fails)
        if compiled is absorbing:
            decided = True
        elif not isinstance(compiled, bool):
            preds.append(compiled)
    if decided:
        return absorbing, may_hold, may_fail
    if not preds:
        return not absorbing, may_hold, may_fail
    return preds[0] if len(preds) == 1 else combine(preds), may_hold, may_fail


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


def _compile_time(inv: TimeInterval) -> _Compiled:
    start, end = inv.window.start, inv.window.end
    return (lambda obs: start <= obs.time <= end), (start, end, None), _EVERYWHERE


def _compile_owner(inv: Owner) -> _Compiled:
    name = inv.name
    return (lambda obs: obs.owner == name), (-inf, inf, frozenset((name,))), _EVERYWHERE


def _compile_box(inv: OccupyBox) -> _Compiled:
    covered = _coverage_kernel(inv.box)
    return (lambda obs: covered(obs._corners)), _EVERYWHERE, _EVERYWHERE


def _compile_point(inv: OccupyPoint) -> _Compiled:
    x, y = inv.x, inv.y

    def occupies_point(obs: Observation) -> bool:
        for x1, y1, x2, y2 in obs._corners:
            if x1 <= x <= x2 and y1 <= y <= y2:
                return True
        return False

    return occupies_point, _EVERYWHERE, _EVERYWHERE


class _Construct(NamedTuple):
    """A construct's text ``name``, the one ``kind`` of its arguments
    (``"term"``, ``"int"`` or ``"string"``), their ``arity`` (``0`` for a
    bare name, ``None`` for one or more), how to ``build`` the term from
    them (in normal form, if they are: see :func:`_junction`) and read its
    ``args`` back, and how to ``compile`` it (see :func:`_compile`)."""

    name: str
    kind: str
    arity: Optional[int]
    build: Callable[..., Invariant]
    args: Callable[[Invariant], tuple]
    compile: Callable[[Invariant], _Compiled]


# The grammar, a row per term class: parsing, printing, normalize and
# compilation read it
_CONSTRUCTS: dict[type, _Construct] = {
    TrueAtom: _Construct(
        "TRUE", "term", 0, TrueAtom, lambda inv: (), lambda inv: (True, _EVERYWHERE, _NOWHERE)
    ),
    FalseAtom: _Construct(
        "FALSE", "term", 0, FalseAtom, lambda inv: (),
        lambda inv: (False, _NOWHERE, _EVERYWHERE),
    ),
    And: _Construct(
        "AND", "term", None, lambda *terms: _junction(And, terms), attrgetter("terms"),
        _compile_junction,
    ),
    Or: _Construct(
        "OR", "term", None, lambda *terms: _junction(Or, terms), attrgetter("terms"),
        _compile_junction,
    ),
    Not: _Construct("NOT", "term", 1, Not, lambda inv: (inv.term,), _compile_not),
    Implies: _Construct(
        "IMPLIES", "term", 2, Implies, attrgetter("antecedent", "consequent"), _compile_implies
    ),
    TimeInterval: _Construct(
        "TimeInterval", "int", 2, lambda *ends: TimeInterval(TimeWindow(*ends)),
        lambda inv: (inv.window.start, inv.window.end), _compile_time,
    ),
    Owner: _Construct("Owner", "string", 1, Owner, lambda inv: (inv.name,), _compile_owner),
    OccupyBox: _Construct(
        "OccupyBox", "int", 4, lambda *corners: OccupyBox(Box(*corners)),
        lambda inv: inv.box.as_tuple(), _compile_box,
    ),
    OccupyPoint: _Construct(
        "OccupyPoint", "int", 2, OccupyPoint, attrgetter("x", "y"), _compile_point
    ),
}


def _construct(inv: Invariant) -> _Construct:
    """The row of ``inv``'s class, or of the nearest base class that has one."""
    for cls in type(inv).__mro__:
        row = _CONSTRUCTS.get(cls)
        if row is not None:
            return row
    raise TypeError(f"unknown invariant term: {inv!r}")


def evaluate(inv: Invariant, obs: Observation) -> bool:
    """Whether one observation satisfies the formula, judged as given.

    The one-off form of :func:`compile_invariant`; compile once to judge
    many observations.
    """
    return compile_invariant(inv)(obs)


# The last trace read, swapped whole: a copy of its observations, their
# times, and for each owner the times and trace indices of that owner's
# observations. A trace whose times decrease is never stored.
_last_read: tuple[list, list, dict] = ([], [], {})


def _read(trace: Sequence[Observation]) -> tuple[list, dict]:
    """The times of ``trace`` and its observations by owner, read once.

    The trace is compared element by element with the copy of the last
    trace read, one C-level list comparison that tries identity before
    equality; an equal trace is not read again, and one that was
    mutated, extended or replaced is. :class:`NonMonotonicTrace` is
    raised if the times decrease anywhere.
    """
    global _last_read
    items = trace if type(trace) is list else list(trace)
    last = _last_read
    if last[0] == items:
        return last[1], last[2]
    # on CPython 3.11 (a shared 2-vCPU Xeon) and 600 observations, the
    # comprehension takes about 12 us against 22 us for
    # map(attrgetter("time")), and the sorted comparison about 6 us
    # against 24 us for a pairwise all(map(le, ...))
    times = [obs.time for obs in items]
    if times != sorted(times):
        index = next(i for i in range(1, len(times)) if times[i] < times[i - 1])
        raise NonMonotonicTrace(
            f"observation {index} at time {times[index]} after time {times[index - 1]}"
        )
    by_owner: dict = {}
    for index, obs in enumerate(items):
        entry = by_owner.get(obs.owner)
        if entry is None:
            entry = by_owner[obs.owner] = ([], [])
        entry[0].append(obs.time)
        entry[1].append(index)
    # a copy, so that the caller's list mutated in place no longer matches
    _last_read = (items if items is not trace else list(items), times, by_owner)
    return times, by_owner


def check_trace(inv: Invariant, trace: Sequence[Observation]) -> TraceVerdict:
    """Check a time-ordered trace against the formula, where it can fail.

    The formula is compiled once, with its failure scope: a closed time
    window, either end perhaps unbounded, and a set of owners or any
    owner, outside which the formula cannot be false. For
    ``IMPLIES(AND(TimeInterval(a, b), Owner(o)), f)`` that is ``o``'s
    observations at times ``a..b``, and a formula without such a shape
    has the whole trace as its scope. The first call on a trace reads
    it: its times, checked to never decrease anywhere in the trace, in
    scope or not (else :class:`NonMonotonicTrace` is raised, on every
    call), and each owner's times and indices. The last trace read is
    remembered, one trace only, and a later call on an equal trace costs
    one list comparison instead. The window is then found by bisection,
    in the whole trace's times or in each scoped owner's, and only the
    observations in scope are judged, in index order, up to the first
    violation. So a call on an unchanged trace costs the comparison plus
    one judgment per observation in scope. A judgment of ``OccupyBox``
    runs the box's coverage kernel over the observation's corner tuples,
    a few comparisons per occupied box until one would split what is
    left of the box. The verdict carries the smallest violating index,
    if any.
    """
    compiled, _, (start, end, owners) = _compile(inv)
    times, by_owner = _read(trace)
    if owners is None:
        scope = range(bisect_left(times, start), bisect_right(times, end))
    else:
        scope = []
        for owner in owners:
            if owner in by_owner:
                owner_times, indices = by_owner[owner]
                first = bisect_left(owner_times, start)
                scope += indices[first:bisect_right(owner_times, end)]
        scope.sort()
    holds = _predicate(compiled)
    for index in scope:
        if not holds(trace[index]):
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
