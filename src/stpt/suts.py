"""Executable stand-ins for two systems under test, with ready-made suites.

Both simulators implement the adapter contract (reset / apply returning a
:class:`~stpt.conformance.Deferred`) and carry switchable faults so the
harness has something real to catch:

* a radiation-therapy-style mode/beam terminal whose optional defect
  leaves the beam at the photon level when the operator switches to
  electron mode too quickly after a photon selection, and
* a planar robot arm travelling between named waypoints, optionally
  miscalibrated at startup or landing at a wrong target.

A :class:`Suite` bundles the model, abstraction, invariants, default
operation weights, and an adapter factory for one named scenario.
"""

from __future__ import annotations

import json
from bisect import bisect_right, insort
from copy import deepcopy
from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional

from .conformance import Abstraction, Deferred, RawObservation, SutAdapter
from .genrand import Command
from .spatial import (
    And,
    Box,
    FalseAtom,
    Implies,
    Invariant,
    OccupancyFact,
    OccupyBox,
    Owner,
    TimeInterval,
    TimeWindow,
    TrueAtom,
    is_int,
)
from .statemodel import ActionSpec, State, StateModel

FAULT_NONE = "none"
FAULT_WRONG_INIT = "wrongInit"
FAULT_WRONG_MOVE = "wrongMove"
FAULT_SEQUENCE_BUG = "sequenceBug"

# the most answers one table keeps, a suite's or a simulator's; a full
# one is emptied
ANSWER_TABLE_CAP = 1024


class UnknownWaypoint(ValueError):
    pass


def _check_fault(fault: str, faults: tuple[str, ...]) -> None:
    if fault not in faults:
        raise ValueError(f"unknown fault {fault!r}; choose one of {faults}")


@dataclass(frozen=True)
class Suite:
    """One named test scenario, ready for the property runner and CLI.

    ``make_adapter`` builds a fresh simulator on each call, and every
    simulator it builds answers through the suite's one answer table.
    """

    name: str
    model: StateModel
    abstraction: Abstraction
    st_invariants: tuple[Invariant, ...]
    default_weights: Mapping[str, int]
    intended_noops: frozenset[str]
    make_adapter: Callable[[], SutAdapter]


class _Simulator:
    """A simulator that answers through a table of the answers built before.

    An answer is keyed by all it depends on, the clock last: mode, beam and
    clock for the terminal, position and clock for the arm. ``_observe(key)``
    builds it on a miss; a hit gets the resolved
    :class:`~stpt.conformance.Deferred` built before, which never changes,
    so it equals a fresh build. Replays reset the clock to 0 and issue with
    delays of 1 to 5, so keys come back replay after replay. A simulator
    built directly has a table of its own. A suite's simulators all
    answer through the suite's one table, passed as ``_answers``: they read
    the same deployment, so an answer is a pure function of its key, and a
    campaign, each adapter that replaces one after a ``Timeout`` and a
    ``--replay`` find the answers built before. No two suites share one,
    since a robot answer carries its deployment's footprint. A table is
    emptied when it holds :data:`ANSWER_TABLE_CAP` entries. A clock that is
    not an ``int`` is never looked up, since ``2.0`` would find the entry
    of ``2``.
    """

    def __init__(self, *, _answers: Optional[dict] = None) -> None:
        self._answers: dict[tuple, Deferred[RawObservation]] = (
            {} if _answers is None else _answers
        )
        self.reset()

    def _answer(self, key: tuple) -> Deferred[RawObservation]:
        if type(key[-1]) is not int:
            return Deferred.successful(self._observe(key))
        answers = self._answers
        answer = answers.get(key)
        if answer is None:
            if len(answers) >= ANSWER_TABLE_CAP:
                answers.clear()
            answer = answers[key] = Deferred.successful(self._observe(key))
        return answer


# ---------------------------------------------------------------------------
# Mode/beam terminal

MODE_NONE = "NoMode"
MODE_PHOTON = "Photon25MeV"
MODE_ELECTRON = "Electron25MeV"
BEAM_OFF = "Off"
BEAM_PHOTON = "PhotonLevel"
BEAM_ELECTRON = "ElectronLevel"

OP_SELECT_PHOTON = "Select25MevPhotonMode"
OP_SELECT_ELECTRON = "Select25MevElectronMode"
OP_CURSOR_UP = "CursorUp"
OP_OTHER = "OtherKindOfOperation"


class TheracSim(_Simulator):
    """Terminal controller for a two-mode beam device.

    With ``sequence_bug`` enabled, switching to electron mode within
    :data:`EDIT_WINDOW_TICKS` of a photon selection, with at least one
    cursor movement strictly in between, updates the displayed mode but
    leaves the beam at the photon level. "In between" compares issue
    times, so a cursor movement issued before the photon selection at a
    later time counts too. The trigger is checked from the time of the
    last selection, if it was a photon one, and the sorted times of every
    cursor movement since the reset.
    """

    EDIT_WINDOW_TICKS = 8

    def __init__(self, sequence_bug: bool = False, *, _answers: Optional[dict] = None):
        self.sequence_bug = sequence_bug
        super().__init__(_answers=_answers)

    def reset(self) -> Deferred[RawObservation]:
        self._mode = MODE_NONE
        self._beam = BEAM_OFF
        self._photon_at: Optional[int] = None
        self._cursor_times: list[int] = []
        return self._answer((self._mode, self._beam, 0))

    def vocabulary(self) -> tuple[str, ...]:
        # kept only because bench/tracing.py still copies it
        return (OP_SELECT_PHOTON, OP_SELECT_ELECTRON, OP_CURSOR_UP, OP_OTHER)

    def _observe(self, key: tuple[str, str, int]) -> RawObservation:
        mode, beam, clock = key
        return RawObservation({"mode": mode, "beam": beam}, (), clock)

    def _bug_fires(self, at_time: int) -> bool:
        # the last selection must be a photon one, close enough in time,
        # with a cursor movement at a time strictly between the two
        t = self._photon_at
        if t is None or at_time - t > self.EDIT_WINDOW_TICKS:
            return False
        cursors = self._cursor_times
        after = bisect_right(cursors, t)
        return after < len(cursors) and cursors[after] < at_time

    def apply(self, command: Command, at_time: int) -> Deferred[RawObservation]:
        op = command.op
        if op == OP_SELECT_PHOTON:
            self._mode = MODE_PHOTON
            self._beam = BEAM_PHOTON
            self._photon_at = at_time
        elif op == OP_SELECT_ELECTRON:
            if not (self.sequence_bug and self._bug_fires(at_time)):
                self._beam = BEAM_ELECTRON
            self._mode = MODE_ELECTRON
            self._photon_at = None
        elif op == OP_CURSOR_UP:
            insort(self._cursor_times, at_time)
        elif op != OP_OTHER:
            return Deferred.failed(ValueError(f"unsupported operation {op!r}"))
        return self._answer((self._mode, self._beam, at_time))


def _payload_abstraction(model: StateModel) -> Abstraction:
    """The suite abstraction: the State of each model variable read from the payload.

    Equal states are one object, so the State it builds for a state the
    model has met is the model's own, and the match in ``check_against``
    and every row lookup hit on identity. A payload with an unsupported
    value raises as ``State`` does. It keeps no state: ``check_against``
    remembers what it made of each answer on the answer's Deferred, so an
    answer a suite's simulators hand out again is read only once.
    """
    names = model.variables
    return lambda raw: State({name: raw.payload[name] for name in names})


def _therac_model() -> StateModel:
    def select(mode: str, beam: str) -> Callable[[State], State]:
        return lambda s: s.assign(mode=mode, beam=beam)

    always = lambda s: True
    identity = lambda s: s
    return StateModel(
        variables=("mode", "beam"),
        init=(State({"mode": MODE_NONE, "beam": BEAM_OFF}),),
        actions=(
            ActionSpec(OP_SELECT_PHOTON, always, select(MODE_PHOTON, BEAM_PHOTON)),
            ActionSpec(OP_SELECT_ELECTRON, always, select(MODE_ELECTRON, BEAM_ELECTRON)),
            ActionSpec(OP_CURSOR_UP, always, identity),
            ActionSpec(OP_OTHER, always, identity),
        ),
    )


def therac_suite(fault: str = FAULT_NONE) -> Suite:
    _check_fault(fault, (FAULT_NONE, FAULT_SEQUENCE_BUG))
    bug = fault == FAULT_SEQUENCE_BUG
    model = _therac_model()
    answers: dict = {}
    return Suite(
        name="therac25",
        model=model,
        abstraction=_payload_abstraction(model),
        st_invariants=(),
        default_weights={
            OP_SELECT_PHOTON: 3,
            OP_SELECT_ELECTRON: 3,
            OP_CURSOR_UP: 2,
            OP_OTHER: 1,
        },
        intended_noops=frozenset({OP_CURSOR_UP, OP_OTHER}),
        make_adapter=lambda: TheracSim(sequence_bug=bug, _answers=answers),
    )


# ---------------------------------------------------------------------------
# Planar robot arm

OP_INITIALISE = "initialisePosition"
MOVE_PREFIX = "moveTo"
ARM_OWNER = "arm"
# the documented home position initialisePosition always returns to
HOME_WAYPOINT = "Y"

# undocumented positions the faults land on; deliberately not waypoints
WRONG_INIT_POSITION = "K"
WRONG_MOVE_POSITION = "M"

_ROBOT_FAULTS = (FAULT_NONE, FAULT_WRONG_INIT, FAULT_WRONG_MOVE)


@dataclass(frozen=True)
class Waypoint:
    at: tuple[int, int]
    footprint: Box


def _default_waypoints() -> dict[str, Waypoint]:
    return {
        "Y": Waypoint(at=(10, 10), footprint=Box(8, 8, 12, 12)),
        "Q": Waypoint(at=(40, 10), footprint=Box(38, 8, 42, 12)),
        "R": Waypoint(at=(70, 10), footprint=Box(68, 8, 72, 12)),
        "S": Waypoint(at=(40, 60), footprint=Box(38, 58, 42, 62)),
    }


@dataclass
class RobotConfig:
    """Workspace geometry plus the waypoint catalogue of one deployment.

    The arm starts at ``init``; ``initialisePosition`` always homes to the
    fixed waypoint "Y", which every catalogue must therefore declare.
    """

    workspace: Box = Box(0, 0, 100, 100)
    waypoints: dict[str, Waypoint] = field(default_factory=_default_waypoints)
    init: str = "Y"
    motion_duration: int = 3
    horizon: int = 1_000_000

    def __post_init__(self) -> None:
        if HOME_WAYPOINT not in self.waypoints:
            raise ValueError(
                f"waypoint catalogue must include the home position {HOME_WAYPOINT!r}"
            )
        if not isinstance(self.init, str) or self.init not in self.waypoints:
            raise ValueError(f"init position {self.init!r} is not a waypoint")
        if not all(is_int(n) and n >= 0 for n in (self.motion_duration, self.horizon)):
            raise ValueError("motion_duration and horizon must be integers >= 0")


def load_robot_config(path: str) -> RobotConfig:
    """Read a deployment description from a JSON file.

    Schema: ``{"workspace": [x1, y1, x2, y2], "waypoints": {name:
    {"at": [x, y], "footprint": [x1, y1, x2, y2]}}, "init": name,
    "motionDuration": int, "horizon": int}``; all top-level keys optional,
    both waypoint keys required, every number an integer. Other input,
    unknown keys included, raises ValueError or TypeError.
    """
    with open(path, encoding="utf-8") as fh:
        return robot_config_from_json(json.load(fh))


def robot_config_to_json(config: RobotConfig) -> dict:
    """The canonical JSON form of ``config``: every key, waypoints by name."""
    return {
        "workspace": list(config.workspace.as_tuple()),
        "waypoints": {
            name: {"at": list(waypoint.at), "footprint": list(waypoint.footprint.as_tuple())}
            for name, waypoint in sorted(config.waypoints.items())
        },
        "init": config.init,
        "motionDuration": config.motion_duration,
        "horizon": config.horizon,
    }


def _ints(value: object, count: int) -> bool:
    """Whether ``value`` is a JSON array of ``count`` integers."""
    return isinstance(value, list) and len(value) == count and all(map(is_int, value))


def robot_config_from_json(data: object) -> RobotConfig:
    """The deployment a decoded JSON document describes; see :func:`load_robot_config`."""
    if not isinstance(data, dict):
        raise ValueError("robot config must be a JSON object")
    known = {"workspace", "waypoints", "init", "motionDuration", "horizon"}
    unknown = set(data) - known
    if unknown:
        raise ValueError(f"unknown robot config keys: {sorted(unknown)}")
    kwargs: dict = {}
    if "workspace" in data:
        if not _ints(data["workspace"], 4):
            raise TypeError(
                f"workspace must be an integer [x1, y1, x2, y2]: {data['workspace']!r}"
            )
        kwargs["workspace"] = Box(*data["workspace"])
    if "waypoints" in data:
        if not isinstance(data["waypoints"], dict):
            raise TypeError("waypoints must be a JSON object")
        waypoints = {}
        for name, spec in data["waypoints"].items():
            at = spec.get("at") if isinstance(spec, dict) else None
            if not _ints(at, 2):
                raise TypeError(f"waypoint {name!r} needs an integer [x, y] at: {spec!r}")
            unknown = set(spec) - {"at", "footprint"}
            if unknown:
                raise ValueError(f"unknown keys in waypoint {name!r}: {sorted(unknown)}")
            if not _ints(spec.get("footprint"), 4):
                raise TypeError(
                    f"waypoint {name!r} needs an integer [x1, y1, x2, y2] footprint: {spec!r}"
                )
            waypoints[name] = Waypoint(at=tuple(at), footprint=Box(*spec["footprint"]))
        kwargs["waypoints"] = waypoints
    if "init" in data:
        kwargs["init"] = data["init"]
    if "motionDuration" in data:
        kwargs["motion_duration"] = data["motionDuration"]
    if "horizon" in data:
        kwargs["horizon"] = data["horizon"]
    return RobotConfig(**kwargs)


class RobotSim(_Simulator):
    """Arm travelling between waypoints on a plane.

    Moves take ``motion_duration`` ticks; the deferred completes carrying
    the arrival clock. While parked on a documented waypoint the arm
    reports an occupancy fact for that waypoint's footprint; on an
    undocumented position it reports nothing. The footprints, init position
    and motion duration are copied from ``config`` when the simulator is
    built, so a later change to ``config`` is not seen.
    """

    def __init__(
        self, config: RobotConfig, fault: str = FAULT_NONE, *, _answers: Optional[dict] = None
    ):
        _check_fault(fault, _ROBOT_FAULTS)
        self._fault = fault
        self._footprints = {name: w.footprint for name, w in config.waypoints.items()}
        self._moves = {MOVE_PREFIX + name: name for name in self._footprints}
        # wrongInit parks the arm on an undocumented position instead
        wrong = fault == FAULT_WRONG_INIT
        self._init = WRONG_INIT_POSITION if wrong else config.init
        self._home = WRONG_INIT_POSITION if wrong else HOME_WAYPOINT
        self._motion_duration = config.motion_duration
        super().__init__(_answers=_answers)

    def reset(self) -> Deferred[RawObservation]:
        self._position = self._init
        return self._answer((self._position, 0))

    def vocabulary(self) -> tuple[str, ...]:
        # kept only because bench/tracing.py still copies it
        return (OP_INITIALISE,) + tuple(sorted(self._moves))

    def _observe(self, key: tuple[str, int]) -> RawObservation:
        position, clock = key
        footprint = self._footprints.get(position)
        occupancy = ()
        if footprint is not None:
            occupancy = (OccupancyFact(ARM_OWNER, TimeWindow(clock, clock), footprint),)
        return RawObservation({"position": position}, occupancy, clock)

    def apply(self, command: Command, at_time: int) -> Deferred[RawObservation]:
        op = command.op
        if op == OP_INITIALISE:
            self._position = self._home
            return self._answer((self._position, at_time))
        target = self._moves.get(op)
        if target is not None:
            arrival = at_time + self._motion_duration
            if self._fault == FAULT_WRONG_MOVE:
                self._position = WRONG_MOVE_POSITION
            else:
                self._position = target
            return self._answer((self._position, arrival))
        if op.startswith(MOVE_PREFIX):
            return Deferred.failed(UnknownWaypoint(op[len(MOVE_PREFIX) :]))
        return Deferred.failed(ValueError(f"unsupported operation {op!r}"))


def _robot_model(config: RobotConfig) -> StateModel:
    always = lambda s: True
    actions = [
        ActionSpec(
            OP_INITIALISE,
            always,
            lambda s: s.assign(position=HOME_WAYPOINT),
        )
    ]
    for name in sorted(config.waypoints):
        actions.append(
            ActionSpec(
                MOVE_PREFIX + name,
                guard=lambda s, n=name: s["position"] != n,
                effect=lambda s, n=name: s.assign(position=n),
            )
        )
    return StateModel(
        variables=("position",),
        init=(State({"position": config.init}),),
        actions=tuple(actions),
    )


def _workspace_invariants(config: RobotConfig) -> tuple[Invariant, ...]:
    """One obligation per waypoint: visiting it keeps the arm in bounds.

    The footprint-inside-workspace judgment is precomputed, so a bad
    waypoint turns its obligation's consequent into an outright
    falsehood that trips the moment the arm occupies that footprint.
    """
    window = TimeWindow(0, config.horizon)
    out = []
    for name in sorted(config.waypoints):
        footprint = config.waypoints[name].footprint
        inside = config.workspace.contains_box(footprint)
        out.append(
            Implies(
                And(
                    (
                        TimeInterval(window),
                        Owner(ARM_OWNER),
                        OccupyBox(footprint),
                    )
                ),
                TrueAtom() if inside else FalseAtom(),
            )
        )
    return tuple(out)


def robot_suite(
    fault: str = FAULT_NONE, config: Optional[RobotConfig] = None
) -> Suite:
    """The robot scenario on a copy of ``config`` (the default deployment
    for None), which its model, obligations and adapters all read."""
    _check_fault(fault, _ROBOT_FAULTS)
    config = RobotConfig() if config is None else deepcopy(config)
    model = _robot_model(config)
    answers: dict = {}
    return Suite(
        name="robot",
        model=model,
        abstraction=_payload_abstraction(model),
        st_invariants=_workspace_invariants(config),
        default_weights=dict.fromkeys(model.action_names, 1),
        intended_noops=frozenset({OP_INITIALISE}),
        make_adapter=lambda: RobotSim(config, fault, _answers=answers),
    )
