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
from dataclasses import dataclass, field
from operator import itemgetter
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
from .statemodel import ActionSpec, State, StateModel, has_met

FAULT_NONE = "none"
FAULT_WRONG_INIT = "wrongInit"
FAULT_WRONG_MOVE = "wrongMove"
FAULT_SEQUENCE_BUG = "sequenceBug"


class UnknownWaypoint(ValueError):
    pass


@dataclass(frozen=True)
class Suite:
    """One named test scenario, ready for the property runner and CLI."""

    name: str
    model: StateModel
    abstraction: Abstraction
    st_invariants: tuple[Invariant, ...]
    default_weights: Mapping[str, int]
    intended_noops: frozenset[str]
    make_adapter: Callable[[], SutAdapter]


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

_SELECTIONS = (OP_SELECT_PHOTON, OP_SELECT_ELECTRON)


class TheracSim:
    """Terminal controller for a two-mode beam device.

    With ``sequence_bug`` enabled, switching to electron mode within
    :data:`EDIT_WINDOW_TICKS` of a photon selection, with at least one
    cursor movement strictly in between, updates the displayed mode but
    leaves the beam at the photon level.
    """

    EDIT_WINDOW_TICKS = 8

    def __init__(self, sequence_bug: bool = False):
        self.sequence_bug = sequence_bug
        self.reset()

    def reset(self) -> Deferred[RawObservation]:
        self._mode = MODE_NONE
        self._beam = BEAM_OFF
        self._history: list[tuple[str, int]] = []
        return Deferred.successful(self._observe(0))

    def vocabulary(self) -> tuple[str, ...]:
        return (OP_SELECT_PHOTON, OP_SELECT_ELECTRON, OP_CURSOR_UP, OP_OTHER)

    def _observe(self, clock: int) -> RawObservation:
        payload = {"mode": self._mode, "beam": self._beam}
        return RawObservation(payload=payload, occupancy=(), clock=clock)

    def _bug_fires(self, at_time: int) -> bool:
        # most recent selection must be a photon one, close enough in time,
        # with a cursor movement strictly between the two selections
        for op, t in reversed(self._history):
            if op not in _SELECTIONS:
                continue
            if op != OP_SELECT_PHOTON:
                return False
            if at_time - t > self.EDIT_WINDOW_TICKS:
                return False
            return any(
                o == OP_CURSOR_UP and t < u < at_time for o, u in self._history
            )
        return False

    def apply(self, command: Command, at_time: int) -> Deferred[RawObservation]:
        op = command.op
        if op == OP_SELECT_PHOTON:
            self._mode = MODE_PHOTON
            self._beam = BEAM_PHOTON
        elif op == OP_SELECT_ELECTRON:
            stale = self.sequence_bug and self._bug_fires(at_time)
            self._mode = MODE_ELECTRON
            if not stale:
                self._beam = BEAM_ELECTRON
        elif op not in (OP_CURSOR_UP, OP_OTHER):
            return Deferred.failed(ValueError(f"unsupported operation {op!r}"))
        self._history.append((op, at_time))
        return Deferred.successful(self._observe(at_time))


def _interning_abstraction(model: StateModel) -> Abstraction:
    """The suite abstraction: each model variable read from the payload.

    A payload whose state the model has met gives the same State object
    every time, looked up by each value with its class, so ``True``, ``1``
    and ``1.0`` never share an entry. Only such states are kept, so a SUT
    that answers at random cannot grow the table. Any other payload
    builds a fresh State, which raises on an unsupported value.
    """
    names = model.variables
    pick = itemgetter(*names)
    # itemgetter gives the value itself for one name, a tuple for several
    read = pick if len(names) > 1 else lambda payload: (pick(payload),)
    known: dict[tuple, State] = {}

    def abstraction(raw: RawObservation) -> State:
        values = read(raw.payload)
        key = (values, tuple(map(type, values)))
        try:
            observed = known.get(key)
        except TypeError:  # unhashable, so unsupported: State says so below
            observed = None
        if observed is None:
            observed = State(dict(zip(names, values)))
            if has_met(model, observed):
                known[key] = observed
        return observed

    return abstraction


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
    if fault not in (FAULT_NONE, FAULT_SEQUENCE_BUG):
        raise ValueError(
            f"unknown fault {fault!r}; choose {FAULT_NONE!r} or {FAULT_SEQUENCE_BUG!r}"
        )
    bug = fault == FAULT_SEQUENCE_BUG
    model = _therac_model()
    return Suite(
        name="therac25",
        model=model,
        abstraction=_interning_abstraction(model),
        st_invariants=(),
        default_weights={
            OP_SELECT_PHOTON: 3,
            OP_SELECT_ELECTRON: 3,
            OP_CURSOR_UP: 2,
            OP_OTHER: 1,
        },
        intended_noops=frozenset({OP_CURSOR_UP, OP_OTHER}),
        make_adapter=lambda: TheracSim(sequence_bug=bug),
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
        if self.init not in self.waypoints:
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
        kwargs["workspace"] = Box(*data["workspace"])
    if "waypoints" in data:
        if not isinstance(data["waypoints"], dict):
            raise TypeError("waypoints must be a JSON object")
        waypoints = {}
        for name, spec in data["waypoints"].items():
            at = spec.get("at") if isinstance(spec, dict) else None
            if not (isinstance(at, list) and len(at) == 2 and all(map(is_int, at))):
                raise TypeError(f"waypoint {name!r} needs an integer [x, y] at: {spec!r}")
            unknown = set(spec) - {"at", "footprint"}
            if unknown:
                raise ValueError(f"unknown keys in waypoint {name!r}: {sorted(unknown)}")
            waypoints[name] = Waypoint(at=tuple(at), footprint=Box(*spec["footprint"]))
        kwargs["waypoints"] = waypoints
    if "init" in data:
        kwargs["init"] = data["init"]
    if "motionDuration" in data:
        kwargs["motion_duration"] = data["motionDuration"]
    if "horizon" in data:
        kwargs["horizon"] = data["horizon"]
    return RobotConfig(**kwargs)


class RobotSim:
    """Arm travelling between waypoints on a plane.

    Moves take ``motion_duration`` ticks; the deferred completes carrying
    the arrival clock. While parked on a documented waypoint the arm
    reports an occupancy fact for that waypoint's footprint; on an
    undocumented position it reports nothing.
    """

    def __init__(self, config: RobotConfig, fault: str = FAULT_NONE):
        if fault not in _ROBOT_FAULTS:
            raise ValueError(
                f"unknown fault {fault!r}; choose one of {_ROBOT_FAULTS}"
            )
        self._config = config
        self._fault = fault
        self.reset()

    def reset(self) -> Deferred[RawObservation]:
        if self._fault == FAULT_WRONG_INIT:
            self._position = WRONG_INIT_POSITION
        else:
            self._position = self._config.init
        return Deferred.successful(self._observe(0))

    def vocabulary(self) -> tuple[str, ...]:
        moves = tuple(MOVE_PREFIX + name for name in sorted(self._config.waypoints))
        return (OP_INITIALISE,) + moves

    def _observe(self, clock: int) -> RawObservation:
        waypoint = self._config.waypoints.get(self._position)
        occupancy = ()
        if waypoint is not None:
            occupancy = (
                OccupancyFact(
                    ARM_OWNER, TimeWindow(clock, clock), waypoint.footprint
                ),
            )
        return RawObservation(
            payload={"position": self._position},
            occupancy=occupancy,
            clock=clock,
        )

    def apply(self, command: Command, at_time: int) -> Deferred[RawObservation]:
        op = command.op
        if op == OP_INITIALISE:
            if self._fault == FAULT_WRONG_INIT:
                self._position = WRONG_INIT_POSITION
            else:
                self._position = HOME_WAYPOINT
            return Deferred.successful(self._observe(at_time))
        if op.startswith(MOVE_PREFIX):
            target = op[len(MOVE_PREFIX) :]
            if target not in self._config.waypoints:
                return Deferred.failed(UnknownWaypoint(target))
            arrival = at_time + self._config.motion_duration
            if self._fault == FAULT_WRONG_MOVE:
                self._position = WRONG_MOVE_POSITION
            else:
                self._position = target
            return Deferred.successful(self._observe(arrival))
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
    if fault not in _ROBOT_FAULTS:
        raise ValueError(
            f"unknown fault {fault!r}; choose one of {_ROBOT_FAULTS}"
        )
    if config is None:
        config = RobotConfig()
    weights = {OP_INITIALISE: 1}
    for name in sorted(config.waypoints):
        weights[MOVE_PREFIX + name] = 1
    model = _robot_model(config)
    return Suite(
        name="robot",
        model=model,
        abstraction=_interning_abstraction(model),
        st_invariants=_workspace_invariants(config),
        default_weights=weights,
        intended_noops=frozenset({OP_INITIALISE}),
        make_adapter=lambda: RobotSim(config, fault),
    )
