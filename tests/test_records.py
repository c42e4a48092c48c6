"""The record contract of the package's value types.

Every record class keeps what a frozen dataclass gives: construction by
position and by keyword, equality and hash over the fields, equality
only within one class, the ``Name(field=value, ...)`` repr, fields that
cannot be assigned or deleted, and copies and pickles that are equal.
``ActionSpec`` compares by identity and ``RobotConfig`` is mutable.
"""

from __future__ import annotations

import copy
import pickle

import pytest

from stpt import (
    ActionSpec,
    And,
    Behaviour,
    Box,
    CollisionWitness,
    Command,
    EmptyInit,
    Fail,
    FailKind,
    FailureRecord,
    FalseAtom,
    Generator,
    Implies,
    NeverEnabled,
    NoOpEffect,
    Not,
    Observation,
    OccupancyFact,
    OccupyBox,
    OccupyPoint,
    Or,
    Owner,
    Pass,
    RawObservation,
    Rng,
    RobotConfig,
    RunReport,
    State,
    StateModel,
    Suite,
    TimeInterval,
    TimeWindow,
    TraceVerdict,
    TrueAtom,
    Waypoint,
    Witness,
)
from stpt.spatial import Junction
from stpt.statemodel import SpecWarning


# module-level, so that pickle finds them by name
def never(state):
    return False


def same(state):
    return state


def draw_nothing(rng):
    return (), rng


def read_payload(raw):
    return State({"x": raw.payload})


def no_adapter():
    return None


ON = State({"x": 1})
OFF = State({"x": 0})
WINDOW = TimeWindow(1, 3)
BOX = Box(0, 0, 1, 1)
OBSERVATION = Observation(1, "arm", (BOX,))
WITNESS = Witness((Command("a", 1),), 0, (ON,), OFF, TrueAtom(), OBSERVATION, "note")
RECORD = FailureRecord(2, FailKind.SUT_MISMATCH, "suspect", WITNESS, WITNESS)
MODEL = StateModel(("x",), (OFF,))

# each record class with its fields, in constructor order; the values are
# stored as given, and classes whose fields match are twins that must not
# compare equal
RECORDS = [
    (TimeWindow, {"start": 1, "end": 3}),
    (TrueAtom, {}),
    (FalseAtom, {}),
    (Junction, {"terms": (TrueAtom(),)}),
    (And, {"terms": (TrueAtom(),)}),
    (Or, {"terms": (TrueAtom(),)}),
    (Not, {"term": TrueAtom()}),
    (Implies, {"antecedent": TrueAtom(), "consequent": FalseAtom()}),
    (TimeInterval, {"window": WINDOW}),
    (Owner, {"name": "arm"}),
    (OccupyBox, {"box": BOX}),
    (OccupyPoint, {"x": 1, "y": 2}),
    (Observation, {"time": 1, "owner": "arm", "occupied": (BOX,)}),
    (OccupancyFact, {"owner": "arm", "window": WINDOW, "box": BOX}),
    (CollisionWitness, {"owner_a": "a", "owner_b": "b", "overlap_window": WINDOW,
                        "overlap_box": BOX}),
    (TraceVerdict, {"holds": False, "first_violation": 3}),
    (ActionSpec, {"name": "a", "guard": never, "effect": same}),
    (Behaviour, {"states": (OFF, ON), "actions": ("a",)}),
    (StateModel, {"variables": ("x",), "init": (OFF,), "actions": ()}),
    (SpecWarning, {}),
    (EmptyInit, {}),
    (NeverEnabled, {"action": "a"}),
    (NoOpEffect, {"action": "a"}),
    (RawObservation, {"payload": 1, "occupancy": (), "clock": 4}),
    (Witness, {"sequence": (Command("a", 1),), "fail_index": 0, "expected_states": (ON,),
               "observed_state": OFF, "invariant": TrueAtom(), "observation": OBSERVATION,
               "note": "note"}),
    (Pass, {}),
    (Fail, {"kind": FailKind.TIMEOUT, "witness": WITNESS}),
    (FailureRecord, {"test_index": 2, "kind": FailKind.SUT_MISMATCH,
                     "classification": "suspect", "original": WITNESS, "shrunk": WITNESS}),
    (RunReport, {"seed": 7, "tests_run": 3, "tests_failed": 1, "failures": (RECORD,),
                 "wall_ms": 1.5}),
    (Rng, {"state": 5, "gamma": 7}),
    (Generator, {"run": draw_nothing}),
    (Command, {"op": "a", "delay": 2}),
    (Suite, {"name": "s", "model": MODEL, "abstraction": read_payload,
             "st_invariants": (TrueAtom(),), "default_weights": {"a": 1},
             "make_adapter": no_adapter}),
    (RobotConfig, {"workspace": Box(0, 0, 50, 50),
                   "waypoints": {"Y": Waypoint((1, 1), Box(0, 0, 2, 2))}, "init": "Y",
                   "motion_duration": 2, "horizon": 10}),
]


@pytest.mark.parametrize(
    "cls, fields", RECORDS, ids=[cls.__name__ for cls, _ in RECORDS]
)
def test_record_contract(cls, fields):
    record = cls(**fields)
    assert cls(*fields.values()) == record or cls is ActionSpec
    assert {name: getattr(record, name) for name in fields} == fields
    twin = cls(**fields)
    values = tuple(fields.values())
    if cls is ActionSpec:
        # guards and effects are functions, so a spec equals only itself
        assert record == record and twin != record
        assert hash(record) == object.__hash__(record)
    elif cls is RobotConfig:
        assert twin == record
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert twin == record
        try:
            want = hash(values)
        except TypeError:
            with pytest.raises(TypeError):
                hash(record)
        else:
            assert hash(record) == hash(twin) == want
    for other, other_fields in RECORDS:
        if other is not cls and other_fields == fields:
            assert other(**other_fields) != record
            assert record != other(**other_fields)
    inner = ", ".join(f"{name}={value!r}" for name, value in fields.items())
    assert repr(record) == f"{cls.__qualname__}({inner})"
    if cls is RobotConfig:
        # a deployment is edited in place
        twin.init = "Y"
        twin.horizon = 11
        assert twin != record
    else:
        for name in fields:
            with pytest.raises(AttributeError):
                setattr(record, name, None)
            with pytest.raises(AttributeError):
                delattr(record, name)
        assert {name: getattr(record, name) for name in fields} == fields
    for copied in (pickle.loads(pickle.dumps(record)), copy.copy(record), copy.deepcopy(record)):
        assert type(copied) is cls
        assert repr(copied) == repr(record)
        assert copied == record or cls is ActionSpec


def test_twins_are_in_the_table():
    # the pairs the contract's class check must see
    twins = {
        (cls.__name__, other.__name__)
        for cls, fields in RECORDS
        for other, other_fields in RECORDS
        if other is not cls and other_fields == fields
    }
    for pair in [("NeverEnabled", "NoOpEffect"), ("TrueAtom", "FalseAtom"), ("And", "Or"),
                 ("EmptyInit", "Pass")]:
        assert pair in twins
