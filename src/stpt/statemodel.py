"""Behavioral specifications as init-state sets plus guarded actions.

A :class:`StateModel` declares its variables, a finite set of initial
states, and named actions (guard plus deterministic effect). An operation
with several same-named actions is nondeterministic: stepping it yields
every enabled effect result. Bounded enumeration produces all behaviours
up to a depth; a consistency scan flags suspicious specifications.
"""

from __future__ import annotations

import weakref
from typing import Callable, Iterable, Mapping, Optional, Sequence, Union

from .spatial import _Record, is_int

Value = Union[bool, int, str]

DEFAULT_STATE_CAP = 100_000


class StateCapExceeded(RuntimeError):
    """Explicit enumeration met more distinct states, or behaviours, than it allows."""

    def __init__(self, cap: int, visited: int, what: str = "distinct states"):
        super().__init__(f"visited {visited} {what}, cap is {cap}")
        self.cap = cap
        self.visited = visited


def _check_value(name: str, value: Value) -> None:
    if not isinstance(value, (bool, int, str)):
        raise TypeError(f"variable {name!r} bound to unsupported value {value!r}")


# Each live State by its tagged bindings. Weak, so it keeps no state alive:
# a SUT that answers at random leaves nothing behind.
_live: weakref.WeakValueDictionary[tuple, State] = weakref.WeakValueDictionary()


class State:
    """Immutable binding of variable names to values, one object per value.

    Equality is structural and variant-exact: an int binding never equals a
    bool binding even when Python would compare the raw values equal.
    Building a state returns the live equal one, if any, wherever it is
    built, so lookups and matches hit on identity. Identity is only a
    shortcut: two threads may both build an equal state at once.
    """

    # (name, value class name, value) per variable, sorted by name. bool is
    # an int subclass, so equality and ordering go through the class name
    # to keep True distinct from 1. The hash is taken once, since the
    # transition memo hashes a state on every lookup.
    __slots__ = ("_tagged", "_hash", "__weakref__")

    def __new__(cls, bindings: Mapping[str, Value]) -> State:
        tagged = tuple(sorted((k, type(v).__name__, v) for k, v in bindings.items()))
        # before the lookup, which would raise its own TypeError
        for name, _, value in tagged:
            _check_value(name, value)
        state = _live.get(tagged)
        if state is None:
            state = object.__new__(cls)
            state._tagged = tagged
            state._hash = hash(tagged)
            state = _live.setdefault(tagged, state)
        return state

    def __getitem__(self, name: str) -> Value:
        for key, _, value in self._tagged:
            if key == name:
                return value
        raise KeyError(name)

    def get(self, name: str, default: Optional[Value] = None) -> Optional[Value]:
        try:
            return self[name]
        except KeyError:
            return default

    def __contains__(self, name: str) -> bool:
        return any(key == name for key, _, _ in self._tagged)

    def __iter__(self):
        return iter(self.variables)

    def __len__(self) -> int:
        return len(self._tagged)

    @property
    def variables(self) -> tuple[str, ...]:
        return tuple(name for name, _, _ in self._tagged)

    def items(self) -> tuple[tuple[str, Value], ...]:
        return tuple((name, value) for name, _, value in self._tagged)

    def assign(self, **changes: Value) -> State:
        """New state with the given existing variables rebound."""
        bindings = dict(self.items())
        for name, value in changes.items():
            if name not in bindings:
                raise KeyError(f"cannot assign undeclared variable {name!r}")
            bindings[name] = value
        return State(bindings)

    @property
    def sort_key(self) -> tuple:
        """Total, deterministic ordering key (repr-based across variants)."""
        return tuple((k, tag, repr(v)) for k, tag, v in self._tagged)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, State) and self._tagged == other._tagged

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # rebuilt, not copied: a string's hash differs between processes,
        # and the rebuilt state is the live equal one
        return State, (dict(self.items()),)

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v!r}" for k, _, v in self._tagged)
        return f"State({inner})"


class ActionSpec(_Record):
    """Named guarded transition. Guard and effect must be pure.

    Two specs are equal only if they are one object, as guards and
    effects are functions.
    """

    __slots__ = _fields = ("name", "guard", "effect")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(
        self, name: str, guard: Callable[[State], bool], effect: Callable[[State], State]
    ):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "guard", guard)
        object.__setattr__(self, "effect", effect)


class Behaviour(_Record):
    """A legal run: states starting in init, one action name per step."""

    __slots__ = _fields = ("states", "actions")

    def __init__(self, states: tuple[State, ...], actions: tuple[str, ...] = ()):
        if not states:
            raise ValueError("a behaviour has at least one state")
        if len(actions) != len(states) - 1:
            raise ValueError("need exactly one action name per transition")
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "actions", actions)


class StateModel(_Record):
    """Declared variables, finite init set, and guarded named actions.

    Init is stored deduplicated in a canonical order so every derived
    collection is deterministic. An empty init is constructible (the
    consistency scan reports it) but yields no behaviours.

    Guards and effects are pure, so each instance memoises its transition
    relation, one row per state: the first time a state's row is asked
    for, it runs every guard, and the effect of every enabled action, once.
    The memo is not a field, so equality and ``repr`` ignore it, nor is
    ``action_names``, the distinct action names in declaration order, built
    once with the model.
    """

    _fields = ("variables", "init", "actions")
    __slots__ = _fields + ("action_names", "_names", "_rows")

    def __init__(
        self,
        variables: Iterable[str],
        init: Iterable[State],
        actions: Iterable[ActionSpec] = (),
    ):
        variables = tuple(variables)
        if len(set(variables)) != len(variables):
            raise ValueError("duplicate variable names")
        object.__setattr__(self, "variables", variables)
        states = []
        for s in init:
            self.check_state(s)
            if s not in states:
                states.append(s)
        states.sort(key=lambda s: s.sort_key)
        object.__setattr__(self, "init", tuple(states))
        object.__setattr__(self, "actions", tuple(actions))
        names = tuple(dict.fromkeys(a.name for a in self.actions))
        object.__setattr__(self, "action_names", names)
        object.__setattr__(self, "_names", frozenset(names))
        # State -> {op: successors}, see _row. Filled from any thread: a
        # racing fill stores an equal row twice.
        object.__setattr__(self, "_rows", {})

    def check_state(self, s: State) -> None:
        if set(s.variables) != set(self.variables):
            raise ValueError(
                f"state binds {s.variables}, model declares {self.variables}"
            )


# ---------------------------------------------------------------------------
# Warnings from the consistency scan


class SpecWarning(_Record):
    __slots__ = ()


class EmptyInit(SpecWarning):
    __slots__ = ()


class NeverEnabled(SpecWarning):
    __slots__ = _fields = ("action",)

    def __init__(self, action: str):
        object.__setattr__(self, "action", action)


class NoOpEffect(SpecWarning):
    __slots__ = _fields = ("action",)

    def __init__(self, action: str):
        object.__setattr__(self, "action", action)


# ---------------------------------------------------------------------------
# Operations


def step(model: StateModel, s: State, op_name: str) -> Optional[list[State]]:
    """What ``successors(model, [s], op_name)`` answers, worked out afresh.

    None when the model declares no action with that name, an empty list
    when none of them is enabled at ``s``, else the distinct effect results
    of the enabled ones in declaration order. Not memoised: the reference
    that :func:`successors` and :func:`enabled_actions` agree with.
    """
    model.check_state(s)
    named = [a for a in model.actions if a.name == op_name]
    if not named:
        return None
    states: list[State] = []
    for action in named:
        if action.guard(s):
            result = action.effect(s)
            model.check_state(result)
            if result not in states:
                states.append(result)
    return states


def _row(model: StateModel, s: State) -> dict[str, tuple[State, ...]]:
    """The operations enabled at ``s``, each with its distinct successors.

    First true guard first, successors in declaration order. Filled, and
    ``s`` checked, on the first call for a state equal to ``s``, which is
    ``s`` itself unless two threads built it at once (see :class:`State`).
    """
    row = model._rows.get(s)
    if row is None:
        model.check_state(s)
        fill: dict[str, list[State]] = {}
        for action in model.actions:
            if action.guard(s):
                result = action.effect(s)
                model.check_state(result)
                nexts = fill.setdefault(action.name, [])
                if result not in nexts:
                    nexts.append(result)
        row = model._rows[s] = {op: tuple(nexts) for op, nexts in fill.items()}
    return row


def successors(
    model: StateModel, states: Iterable[State], op_name: str
) -> Optional[list[State]]:
    """Distinct successors of ``op_name`` from any of ``states``, first seen first.

    None when the model declares no action with that name; an empty list
    when the operation is disabled in every one of ``states``.
    """
    if op_name not in model._names:
        return None
    found: list[State] = []
    for s in states:
        for nxt in _row(model, s).get(op_name, ()):
            if nxt not in found:
                found.append(nxt)
    return found


def enabled_actions(model: StateModel, s: State) -> list[str]:
    """Names of the actions enabled at ``s``, once each, in first-true-guard order."""
    return list(_row(model, s))


def _visit(visited: set[State], s: State, state_cap: int) -> bool:
    """Add ``s`` to ``visited``; whether it was new. Raises past the cap."""
    if s in visited:
        return False
    visited.add(s)
    if len(visited) > state_cap:
        raise StateCapExceeded(state_cap, len(visited))
    return True


def _check_int(name: str, value: object, least: int) -> None:
    """Raise ValueError unless ``value`` is an int, not a bool, of at least ``least``."""
    if not is_int(value) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


def correct_behaviours(
    model: StateModel, depth: int, state_cap: int = DEFAULT_STATE_CAP
) -> tuple[Behaviour, ...]:
    """All behaviours with at most ``depth`` transitions, prefixes included.

    Breadth-first from every init state, expanding every enabled action.
    Output is ordered lexicographically by action-name sequence. Raises
    :class:`StateCapExceeded` when the behaviours built pass the cap.
    Every state met ends a behaviour built, so the cap bounds the states
    through the behaviours; a model with few states can still have more
    behaviours than memory holds.
    """
    _check_int("depth", depth, 0)
    _check_int("state_cap", state_cap, 1)
    frontier = [Behaviour((s,), ()) for s in model.init]
    out = list(frontier)
    if len(out) > state_cap:
        raise StateCapExceeded(state_cap, len(out), "behaviours")
    names = sorted(set(model.action_names))
    for _ in range(depth):
        grown = []
        for behaviour in frontier:
            last = behaviour.states[-1]
            for name in names:
                for nxt in successors(model, (last,), name):
                    grown.append(
                        Behaviour(
                            behaviour.states + (nxt,),
                            behaviour.actions + (name,),
                        )
                    )
                    if len(out) + len(grown) > state_cap:
                        raise StateCapExceeded(state_cap, len(out) + len(grown), "behaviours")
        out.extend(grown)
        frontier = grown
        if not frontier:
            break
    out.sort(key=lambda b: b.actions)
    return tuple(out)


def _reachable_states(model: StateModel, state_cap: int) -> list[State]:
    """Closure of init under all enabled actions, in first-visit order."""
    visited: set[State] = set()
    seen = [s for s in model.init if _visit(visited, s, state_cap)]
    for current in seen:  # breadth first: ``seen`` grows while it is walked
        for nexts in _row(model, current).values():
            seen.extend(nxt for nxt in nexts if _visit(visited, nxt, state_cap))
    return seen


def spec_consistency(
    model: StateModel,
    state_cap: int = DEFAULT_STATE_CAP,
    suppress_noop: Iterable[str] = (),
) -> list[SpecWarning]:
    """Scan every reachable state for specification smells.

    Reports an empty init set, actions whose guard never holds, and actions
    that never change the state anywhere they are enabled. Operations that
    are deliberate observers can be excluded from the no-op check through
    ``suppress_noop``.
    """
    _check_int("state_cap", state_cap, 1)
    suppress = set(suppress_noop)
    warnings: list[SpecWarning] = []
    if not model.init:
        warnings.append(EmptyInit())
    reachable = _reachable_states(model, state_cap)
    never_enabled: list[SpecWarning] = []
    no_op: list[SpecWarning] = []
    for name in model.action_names:
        # _reachable_states filled the row of every reachable state
        moves = [(s, nxt) for s in reachable for nxt in _row(model, s).get(name, ())]
        if not moves:
            never_enabled.append(NeverEnabled(name))
        elif name not in suppress and all(nxt == s for s, nxt in moves):
            no_op.append(NoOpEffect(name))
    return warnings + never_enabled + no_op


# ---------------------------------------------------------------------------
# Deterministic export


_CONTROL_ESCAPES = {"\n": "\\n", "\t": "\\t", "\r": "\\r"}


def _escape(char: str) -> str:
    """The escape of one character that ``str.isprintable`` rejects."""
    code = ord(char)
    return _CONTROL_ESCAPES.get(char) or (
        f"\\u{code:04x}" if code <= 0xFFFF else f"\\U{code:08x}"
    )


def _format_value(value: Value) -> str:
    """A value as one line: a string is quoted, and every character that
    ``str.isprintable`` rejects escaped as in a Python string literal."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    text = value.replace("\\", "\\\\").replace('"', '\\"')
    if not text.isprintable():
        text = "".join(c if c.isprintable() else _escape(c) for c in text)
    return '"' + text + '"'


def format_state(s: State) -> str:
    return " ".join(f"{k}={_format_value(v)}" for k, v in s.items())


def format_behaviours(behaviours: Sequence[Behaviour]) -> str:
    """Stable text rendering of a behaviour set, one record per behaviour."""
    lines = [f"# behaviours: {len(behaviours)}"]
    for index, behaviour in enumerate(behaviours):
        lines.append(f"behaviour {index}")
        lines.append(f"  init: {format_state(behaviour.states[0])}")
        actions = ", ".join(behaviour.actions) if behaviour.actions else "(none)"
        lines.append(f"  actions: {actions}")
        states = " | ".join(format_state(s) for s in behaviour.states)
        lines.append(f"  states: {states}")
    return "\n".join(lines) + "\n"
