"""A planar robot arm travelling between named waypoints, and its suite.

:class:`RobotSim` can be miscalibrated at startup or land at a wrong
target. A :class:`RobotConfig` deployment gives the workspace and the
waypoints, and :func:`robot_suite` checks that the arm stays inside it.
"""

from __future__ import annotations

from copy import deepcopy
from dataclasses import dataclass
from typing import Optional

from .conformance import Deferred, RawObservation
from .genrand import Command
from .records import _Record, is_int
from .spatial import (
    And, Box, FalseAtom, Implies, Invariant, OccupancyFact, OccupyBox, Owner, TimeInterval,
    TimeWindow, TrueAtom,
)
from .statemodel import ActionSpec, State, StateModel
from .suts import (
    FAULT_NONE, FAULT_WRONG_INIT, FAULT_WRONG_MOVE, Suite, _Simulator, _check_fault,
    _payload_abstraction,
)

OP_INITIALISE = "initialisePosition"
MOVE_PREFIX = "moveTo"
ARM_OWNER = "arm"
# the documented home position initialisePosition always returns to
HOME_WAYPOINT = "Y"

# undocumented positions the faults land on; deliberately not waypoints
WRONG_INIT_POSITION = "K"
WRONG_MOVE_POSITION = "M"

_ROBOT_FAULTS = (FAULT_NONE, FAULT_WRONG_INIT, FAULT_WRONG_MOVE)


class UnknownWaypoint(ValueError):
    pass


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


class RobotConfig(_Record):
    """Workspace geometry plus the waypoint catalogue of one deployment.

    The arm starts at ``init``; ``initialisePosition`` always homes to the
    fixed waypoint "Y", which every catalogue must therefore declare. A
    config is mutable, so it has no hash; ``waypoints`` defaults to a
    fresh catalogue of four.
    """

    __slots__ = _fields = ("workspace", "waypoints", "init", "motion_duration", "horizon")
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None  # type: ignore[assignment]

    def __init__(
        self,
        workspace: Box = Box(0, 0, 100, 100),
        waypoints: Optional[dict[str, Waypoint]] = None,
        init: str = "Y",
        motion_duration: int = 3,
        horizon: int = 1_000_000,
    ) -> None:
        if waypoints is None:
            waypoints = _default_waypoints()
        if HOME_WAYPOINT not in waypoints:
            raise ValueError(
                f"waypoint catalogue must include the home position {HOME_WAYPOINT!r}"
            )
        if not isinstance(init, str) or init not in waypoints:
            raise ValueError(f"init position {init!r} is not a waypoint")
        if not all(is_int(n) and n >= 0 for n in (motion_duration, horizon)):
            raise ValueError("motion_duration and horizon must be integers >= 0")
        self.workspace = workspace
        self.waypoints = waypoints
        self.init = init
        self.motion_duration = motion_duration
        self.horizon = horizon


def load_robot_config(path: str) -> RobotConfig:
    """Read a deployment description from a JSON file.

    Schema: ``{"workspace": [x1, y1, x2, y2], "waypoints": {name:
    {"at": [x, y], "footprint": [x1, y1, x2, y2]}}, "init": name,
    "motionDuration": int, "horizon": int}``; all top-level keys optional,
    both waypoint keys required, every number an integer. Other input,
    unknown keys included, raises ValueError or TypeError.
    """
    # imported on first use: no campaign reads a file
    import json

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

    A command waits for the move in progress; a move arrives
    ``motion_duration`` ticks after its start, and each answer carries
    its clock. While parked on a documented waypoint the arm
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
        self._arrival = 0
        return self._answer((self._position, 0))

    def vocabulary(self) -> tuple[str, ...]:
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
        start = at_time if at_time > self._arrival else self._arrival
        if op == OP_INITIALISE:
            self._position = self._home
            return self._answer((self._position, start))
        target = self._moves.get(op)
        if target is not None:
            arrival = self._arrival = start + self._motion_duration
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
        make_adapter=lambda: RobotSim(config, fault, _answers=answers),
    )
