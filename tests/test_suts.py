from __future__ import annotations

import gc
import json
import random
import weakref
from collections.abc import Mapping
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import ReferenceRobotSim, ReferenceTheracSim, therac_first_disagreement
from stpt import (
    ActionSpec,
    And,
    Box,
    Command,
    Deferred,
    Fail,
    FailKind,
    FalseAtom,
    Implies,
    Observation,
    OccupancyFact,
    OccupyBox,
    Owner,
    Pass,
    RawObservation,
    RobotConfig,
    RobotSim,
    Rng,
    State,
    StateModel,
    TheracSim,
    TimeInterval,
    TimeWindow,
    TrueAtom,
    Waypoint,
    check_against,
    compile_invariant,
    correct_behaviours,
    gen_enabled_commands,
    load_robot_config,
    robot_suite,
    spec_consistency,
    step,
    therac_suite,
)
from stpt import suts
from stpt.spatial import always_false, always_true
from stpt.robot import (
    ARM_OWNER,
    OP_INITIALISE,
    UnknownWaypoint,
    robot_config_from_json,
    robot_config_to_json,
)
from stpt.statemodel import _live
from stpt.suts import (
    ANSWER_TABLE_CAP,
    BEAM_ELECTRON,
    BEAM_OFF,
    BEAM_PHOTON,
    FAULT_NONE,
    FAULT_SEQUENCE_BUG,
    FAULT_WRONG_INIT,
    FAULT_WRONG_MOVE,
    MODE_ELECTRON,
    MODE_NONE,
    MODE_PHOTON,
    OP_CURSOR_UP,
    OP_OTHER,
    OP_SELECT_ELECTRON,
    OP_SELECT_PHOTON,
    _payload_abstraction,
)

THERAC_VOCAB = (OP_SELECT_PHOTON, OP_SELECT_ELECTRON, OP_CURSOR_UP, OP_OTHER)

CONSISTENT_PAIRS = {
    (MODE_NONE, BEAM_OFF),
    (MODE_PHOTON, BEAM_PHOTON),
    (MODE_ELECTRON, BEAM_ELECTRON),
}


def play_therac(ops_with_times, *, bug: bool):
    """Apply timed operations to a fresh sim, returning each payload."""
    sim = TheracSim(sequence_bug=bug)
    sim.reset()
    payloads = []
    for op, at_time in ops_with_times:
        status, raw = sim.apply(Command(op, 1), at_time).wait(0)
        assert status == "ok"
        payloads.append(raw.payload)
    return payloads


def first_disagreement(payloads):
    for index, payload in enumerate(payloads):
        if (payload["mode"], payload["beam"]) not in CONSISTENT_PAIRS:
            return index
    return None


class TestTheracSim:
    def test_reset_state(self):
        sim = TheracSim()
        status, raw = sim.reset().wait(0)
        assert status == "ok"
        assert raw.payload == {"mode": MODE_NONE, "beam": BEAM_OFF}
        assert raw.clock == 0

    def test_trigger_inside_window_leaves_stale_beam(self):
        payloads = play_therac(
            [(OP_SELECT_PHOTON, 1), (OP_CURSOR_UP, 4), (OP_SELECT_ELECTRON, 8)],
            bug=True,
        )
        assert payloads[-1] == {"mode": MODE_ELECTRON, "beam": BEAM_PHOTON}

    def test_window_exceeded_behaves_correctly(self):
        payloads = play_therac(
            [(OP_SELECT_PHOTON, 1), (OP_CURSOR_UP, 4), (OP_SELECT_ELECTRON, 12)],
            bug=True,
        )
        assert payloads[-1] == {"mode": MODE_ELECTRON, "beam": BEAM_ELECTRON}

    def test_trigger_needs_a_cursor_movement_between_selections(self):
        payloads = play_therac(
            [(OP_SELECT_PHOTON, 1), (OP_SELECT_ELECTRON, 3)], bug=True
        )
        assert payloads[-1] == {"mode": MODE_ELECTRON, "beam": BEAM_ELECTRON}
        # cursor before the photon selection does not count
        payloads = play_therac(
            [(OP_CURSOR_UP, 1), (OP_SELECT_PHOTON, 2), (OP_SELECT_ELECTRON, 4)],
            bug=True,
        )
        assert payloads[-1] == {"mode": MODE_ELECTRON, "beam": BEAM_ELECTRON}

    def test_intervening_selection_disarms_the_trigger(self):
        payloads = play_therac(
            [
                (OP_SELECT_PHOTON, 1),
                (OP_CURSOR_UP, 2),
                (OP_SELECT_ELECTRON, 3),
                (OP_CURSOR_UP, 4),
                (OP_SELECT_ELECTRON, 5),
            ],
            bug=True,
        )
        # index 2 fires; the later electron selection follows an electron one
        assert first_disagreement(payloads) == 2
        assert payloads[-1] == {"mode": MODE_ELECTRON, "beam": BEAM_ELECTRON}

    def test_trigger_sequence_is_harmless_with_bug_off(self):
        payloads = play_therac(
            [(OP_SELECT_PHOTON, 1), (OP_CURSOR_UP, 4), (OP_SELECT_ELECTRON, 8)],
            bug=False,
        )
        assert payloads[-1] == {"mode": MODE_ELECTRON, "beam": BEAM_ELECTRON}

    def test_unsupported_operation_fails_the_deferred(self):
        sim = TheracSim()
        status, error = sim.apply(Command("fireEverything", 1), 1).wait(0)
        assert status == "failed"
        assert isinstance(error, ValueError)

    def test_vocabulary(self):
        assert set(TheracSim().vocabulary()) == set(THERAC_VOCAB)

    def test_determinism(self):
        script = [(OP_SELECT_PHOTON, 2), (OP_CURSOR_UP, 3), (OP_SELECT_ELECTRON, 7)]
        assert play_therac(script, bug=True) == play_therac(script, bug=True)


def random_timed_sequences(seed: int, count: int):
    rnd = random.Random(seed)
    for _ in range(count):
        clock = 0
        script = []
        for _ in range(rnd.randint(1, 12)):
            clock += rnd.randint(1, 5)
            script.append((rnd.choice(THERAC_VOCAB), clock))
        yield script


class TestTheracProperties:
    def test_bug_off_never_disagrees(self):
        for script in random_timed_sequences(2024, 10_000):
            payloads = play_therac(script, bug=False)
            assert first_disagreement(payloads) is None

    def test_bug_on_matches_sliding_window_oracle(self):
        hits = 0
        for script in random_timed_sequences(4048, 10_000):
            payloads = play_therac(script, bug=True)
            expected = therac_first_disagreement(script)
            assert first_disagreement(payloads) == expected
            if expected is not None:
                hits += 1
                assert payloads[expected] == {
                    "mode": MODE_ELECTRON,
                    "beam": BEAM_PHOTON,
                }
        assert hits > 100  # the pattern does occur in random traffic


class TestTheracSuite:
    def test_model_step_from_init(self):
        model = therac_suite().model
        (init,) = model.init
        assert init == State({"mode": MODE_NONE, "beam": BEAM_OFF})
        assert step(model, init, OP_SELECT_PHOTON) == [
            State({"mode": MODE_PHOTON, "beam": BEAM_PHOTON})
        ]

    def test_depth_two_matches_oracle(self):
        from helpers import oracle_behaviours

        model = therac_suite().model
        behaviours = correct_behaviours(model, 2)
        assert {(b.states, b.actions) for b in behaviours} == oracle_behaviours(
            model, 2
        )

    def test_consistency_scan_is_clean(self):
        suite = therac_suite()
        assert spec_consistency(suite.model, suppress_noop={OP_CURSOR_UP, OP_OTHER}) == []

    def test_suite_packaging(self):
        suite = therac_suite(FAULT_SEQUENCE_BUG)
        assert suite.name == "therac25"
        assert suite.st_invariants == ()
        assert set(suite.default_weights) == set(THERAC_VOCAB)
        adapter = suite.make_adapter()
        assert isinstance(adapter, TheracSim) and adapter.sequence_bug

    def test_unknown_fault_rejected(self):
        with pytest.raises(ValueError):
            therac_suite("wrongMove")

    def test_bug_surfaces_as_sut_mismatch(self):
        suite = therac_suite(FAULT_SEQUENCE_BUG)
        seq = (
            Command(OP_SELECT_PHOTON, 1),
            Command(OP_CURSOR_UP, 3),
            Command(OP_SELECT_ELECTRON, 4),
        )
        result = check_against(
            suite.model, suite.make_adapter(), suite.abstraction, seq
        )
        assert isinstance(result, Fail)
        assert result.kind == FailKind.SUT_MISMATCH
        assert result.witness.fail_index == 2
        assert result.witness.expected_states == (
            State({"mode": MODE_ELECTRON, "beam": BEAM_ELECTRON}),
        )
        assert result.witness.observed_state == State(
            {"mode": MODE_ELECTRON, "beam": BEAM_PHOTON}
        )


def payload(s: State) -> RawObservation:
    return RawObservation(dict(s.items()))


class CountingPayload(Mapping):
    """A payload that counts the values read from it."""

    def __init__(self, values: dict) -> None:
        self.values = values
        self.reads = 0

    def __getitem__(self, name):
        self.reads += 1
        return self.values[name]

    def __iter__(self):
        return iter(self.values)

    def __len__(self) -> int:
        return len(self.values)


class FixedAnswers:
    """An adapter that answers the reset with ``reset`` and every command
    with ``apply``; where one is None, each call gets a fresh Deferred
    around a fresh observation of ``INIT`` or ``PHOTON``."""

    def __init__(self, reset=None, apply=None) -> None:
        self._reset = reset
        self._apply = apply
        self.handed: list[Deferred] = []

    def _hand(self, answer, values: dict) -> Deferred:
        if answer is None:
            answer = Deferred.successful(RawObservation(dict(values)))
        self.handed.append(answer)
        return answer

    def reset(self) -> Deferred:
        return self._hand(self._reset, INIT)

    def apply(self, command: Command, at_time: int) -> Deferred:
        return self._hand(self._apply, PHOTON)


PHOTON_ONCE = (Command(OP_SELECT_PHOTON, 1),)
INIT = {"mode": MODE_NONE, "beam": BEAM_OFF}
PHOTON = {"mode": MODE_PHOTON, "beam": BEAM_PHOTON}
# a state the therac model never reaches
STALE_BEAM = {"mode": MODE_ELECTRON, "beam": BEAM_PHOTON}


class TestInternedAbstraction:
    @pytest.mark.parametrize(
        "suite, off_model",
        [
            (
                therac_suite(FAULT_SEQUENCE_BUG),
                State({"mode": MODE_ELECTRON, "beam": BEAM_PHOTON}),
            ),
            (robot_suite(FAULT_WRONG_MOVE), State({"position": "M"})),
            (robot_suite(FAULT_WRONG_INIT), State({"position": "K"})),
        ],
        ids=["therac25", "robot", "robot-wrongInit"],
    )
    def test_states_equal_those_built_fresh(self, suite, off_model):
        # the scan fills the model's row of every reachable state
        spec_consistency(suite.model)
        reachable = {s for b in correct_behaviours(suite.model, 2) for s in b.states}
        rows = len(suite.model._rows)
        for s in sorted(reachable | {off_model}, key=lambda s: s.sort_key):
            got = suite.abstraction(payload(s))
            fresh = State(dict(s.items()))
            assert got == fresh and hash(got) == hash(fresh)
            assert repr(got) == repr(fresh)
            # a met or unmet state is handed out again as the same object,
            # and a met one is the model's own
            assert suite.abstraction(payload(s)) is got
            assert got is s
        # the abstraction taught the model no state
        assert off_model not in suite.model._rows
        assert len(suite.model._rows) == rows

    def test_values_of_different_classes_stay_apart(self):
        values = (True, 1, "1")
        model = StateModel(
            ["v"],
            [State({"v": v}) for v in values],
            [ActionSpec("stay", lambda s: True, lambda s: s)],
        )
        spec_consistency(model)
        abstraction = _payload_abstraction(model)
        got = [abstraction(RawObservation({"v": v})) for v in values]
        for v, s in zip(values, got):
            assert s == State({"v": v}) and type(s["v"]) is type(v)
            assert abstraction(RawObservation({"v": v})) is s
        assert {id(s) for s in got} == {id(s) for s in model.init}
        assert got[0] != got[1] != got[2] != got[0]
        with pytest.raises(TypeError, match="unsupported value 1.0"):
            abstraction(RawObservation({"v": 1.0}))

    @pytest.mark.parametrize(
        "raw, error",
        [
            (RawObservation({"mode": 1.0, "beam": BEAM_OFF}), TypeError),
            (RawObservation({"mode": [MODE_NONE], "beam": BEAM_OFF}), TypeError),
            (RawObservation({"mode": None, "beam": BEAM_OFF}), TypeError),
            (RawObservation({"mode": MODE_NONE}), KeyError),
            (RawObservation(None), TypeError),
        ],
        ids=["float", "unhashable", "none", "missing-key", "no-payload"],
    )
    def test_unsupported_values_still_fail(self, raw, error):
        suite = therac_suite()
        spec_consistency(suite.model)
        with pytest.raises(error) as got:
            suite.abstraction(raw)
        with pytest.raises(error) as built:
            State({"mode": raw.payload["mode"], "beam": raw.payload["beam"]})
        assert str(got.value) == str(built.value)

    @staticmethod
    def therac():
        suite = therac_suite()
        spec_consistency(suite.model)
        return suite

    def test_an_observation_is_read_once(self):
        suite = self.therac()
        answers = [
            Deferred.successful(RawObservation(CountingPayload(values)))
            for values in (INIT, PHOTON)
        ]
        adapter = FixedAnswers(*answers)
        for _ in range(3):
            assert check_against(suite.model, adapter, suite.abstraction, PHOTON_ONCE) == Pass()
        assert [answer.wait(0)[1].payload.reads for answer in answers] == [2, 2]

    def test_check_against_keeps_no_answer_alive(self):
        suite = self.therac()
        adapter = FixedAnswers()
        assert check_against(suite.model, adapter, suite.abstraction, PHOTON_ONCE) == Pass()
        # a Deferred takes no weak reference, but it holds its observation
        held = [weakref.ref(answer.wait(0)[1]) for answer in adapter.handed]
        assert len(held) == 2
        adapter.handed.clear()
        gc.collect()
        assert [ref() for ref in held] == [None, None]

    def test_a_model_with_no_variables_gives_its_own_init(self):
        # its one state is empty, so falsy: only ``is None`` tells it apart
        model = StateModel(
            (), [State({})], [ActionSpec("stay", lambda s: True, lambda s: s)]
        )
        abstraction = _payload_abstraction(model)
        (init,) = model.init
        raw = RawObservation({})
        assert abstraction(raw) is init
        assert abstraction(raw) is init
        assert abstraction(RawObservation({})) is init

    def test_a_state_the_model_has_not_met_is_remembered_on_its_answer(self):
        suite = self.therac()
        rows = len(suite.model._rows)
        values = CountingPayload(STALE_BEAM)
        raw = RawObservation(values)
        adapter = FixedAnswers(apply=Deferred.successful(raw))
        first, again = (
            check_against(suite.model, adapter, suite.abstraction, PHOTON_ONCE)
            for _ in range(2)
        )
        assert first.kind is again.kind is FailKind.SUT_MISMATCH
        observed = first.witness.observed_state
        fresh = State(STALE_BEAM)
        assert observed == fresh and hash(observed) == hash(fresh)
        assert repr(observed) == repr(fresh)
        assert again.witness.observed_state is observed
        assert values.reads == 2
        # a direct call reads the payload again, and gets the one object
        assert suite.abstraction(raw) is observed
        assert values.reads == 4
        # the model has still not met it
        assert fresh not in suite.model._rows
        assert len(suite.model._rows) == rows

    def test_random_answers_do_not_grow_the_table(self):
        suite = robot_suite()
        spec_consistency(suite.model)
        reachable = sorted(
            {s for b in correct_behaviours(suite.model, 2) for s in b.states},
            key=lambda s: s.sort_key,
        )
        rows = len(suite.model._rows)
        gc.collect()
        live = len(_live)
        rnd = random.Random(5)
        for n in range(10_000):
            position = f"P{n}-{rnd.randrange(10**6)}"
            assert suite.abstraction(RawObservation({"position": position})) == State(
                {"position": position}
            )
            assert suite.abstraction(payload(rnd.choice(reachable))) in reachable
        assert len(suite.model._rows) == rows
        gc.collect()
        assert len(_live) == live


class TestRobotSim:
    def test_reset_reports_init_waypoint_with_footprint(self):
        sim = RobotSim(RobotConfig())
        status, raw = sim.reset().wait(0)
        assert status == "ok"
        assert raw.payload == {"position": "Y"}
        assert raw.clock == 0
        (fact,) = raw.occupancy
        assert fact.owner == ARM_OWNER
        assert fact.window == TimeWindow(0, 0)
        assert fact.box == Box(8, 8, 12, 12)

    def test_initialise_homes_immediately(self):
        sim = RobotSim(RobotConfig(init="Q"))
        sim.reset()
        status, raw = sim.apply(Command(OP_INITIALISE, 1), 5).wait(0)
        assert status == "ok"
        assert raw.payload == {"position": "Y"}
        assert raw.clock == 5  # no motion delay for homing

    def test_move_takes_motion_duration(self):
        sim = RobotSim(RobotConfig())
        sim.reset()
        status, raw = sim.apply(Command("moveToQ", 1), 10).wait(0)
        assert status == "ok"
        assert raw.payload == {"position": "Q"}
        assert raw.clock == 13
        (fact,) = raw.occupancy
        assert fact.window == TimeWindow(13, 13)
        assert fact.box == Box(38, 8, 42, 12)

    def test_a_command_waits_for_the_move_in_progress(self):
        sim = RobotSim(RobotConfig())
        sim.reset()
        clocks = [
            sim.apply(Command(op, 1), at_time).wait(0)[1].clock
            for op, at_time in ((OP_INITIALISE, 1), ("moveToQ", 4), (OP_INITIALISE, 6),
                                ("moveToR", 8), ("moveToS", 9))
        ]
        # homing issued at 6 starts when the move to Q arrives at 7
        assert clocks == [1, 7, 7, 11, 14]
        sim.reset()
        _, raw = sim.apply(Command(OP_INITIALISE, 1), 1).wait(0)
        assert raw.clock == 1  # the reset forgot the arrival at 14

    def test_zero_motion_duration(self):
        sim = RobotSim(RobotConfig(motion_duration=0))
        sim.reset()
        _, raw = sim.apply(Command("moveToS", 1), 4).wait(0)
        assert raw.clock == 4

    def test_wrong_init_fault_lands_off_catalogue(self):
        sim = RobotSim(RobotConfig(), fault=FAULT_WRONG_INIT)
        _, raw = sim.reset().wait(0)
        assert raw.payload == {"position": "K"}
        assert raw.occupancy == ()  # K is not a documented waypoint
        _, raw = sim.apply(Command(OP_INITIALISE, 1), 2).wait(0)
        assert raw.payload == {"position": "K"}

    def test_wrong_move_fault_lands_off_catalogue(self):
        sim = RobotSim(RobotConfig(init="Q"), fault=FAULT_WRONG_MOVE)
        sim.reset()
        _, raw = sim.apply(Command("moveToR", 1), 1).wait(0)
        assert raw.payload == {"position": "M"}
        assert raw.occupancy == ()

    def test_undeclared_waypoint_fails_the_deferred(self):
        sim = RobotSim(RobotConfig())
        sim.reset()
        status, error = sim.apply(Command("moveToZ", 1), 1).wait(0)
        assert status == "failed"
        assert isinstance(error, UnknownWaypoint) and error.args == ("Z",)

    def test_unsupported_operation_fails_the_deferred(self):
        sim = RobotSim(RobotConfig())
        sim.reset()
        status, error = sim.apply(Command("dance", 1), 1).wait(0)
        assert status == "failed"
        assert type(error) is ValueError and str(error) == "unsupported operation 'dance'"

    def test_vocabulary_lists_initialise_plus_sorted_moves(self):
        assert RobotSim(RobotConfig()).vocabulary() == (
            OP_INITIALISE,
            "moveToQ",
            "moveToR",
            "moveToS",
            "moveToY",
        )

    def test_fault_validation(self):
        with pytest.raises(ValueError):
            RobotSim(RobotConfig(), fault=FAULT_SEQUENCE_BUG)


def outcome(call) -> tuple:
    """What a SUT call gives: its observation's fields, its failure, or what it raised."""
    try:
        status, value = call().wait(0)
    except Exception as err:
        return "raised", type(err), str(err)
    if status == "ok":
        return status, value.payload, value.occupancy, value.clock, type(value.clock)
    return status, type(value), str(value)


ROBOT_OPS = (OP_INITIALISE, "moveToQ", "moveToR", "moveToS", "moveToY", "moveToZ", "dance")

# each interned simulator beside its reference, with the operations it is
# driven by, unsupported ones included
SIM_PAIRS = {
    "therac": (lambda: TheracSim(), lambda: ReferenceTheracSim(), THERAC_VOCAB + ("fire",)),
    "therac-bug": (
        lambda: TheracSim(sequence_bug=True),
        lambda: ReferenceTheracSim(sequence_bug=True),
        THERAC_VOCAB + ("fire",),
    ),
    **{
        f"robot-{fault}": (
            lambda fault=fault: RobotSim(RobotConfig(), fault),
            lambda fault=fault: ReferenceRobotSim(RobotConfig(), fault),
            ROBOT_OPS,
        )
        for fault in (FAULT_NONE, FAULT_WRONG_INIT, FAULT_WRONG_MOVE)
    },
    "robot-still": (
        lambda: RobotSim(RobotConfig(init="Q", motion_duration=0)),
        lambda: ReferenceRobotSim(RobotConfig(init="Q", motion_duration=0)),
        ROBOT_OPS,
    ),
}

# the suite whose adapters answer as each pair's simulator does
SIM_SUITES = {
    "therac": lambda: therac_suite(FAULT_NONE),
    "therac-bug": lambda: therac_suite(FAULT_SEQUENCE_BUG),
    **{
        f"robot-{fault}": lambda fault=fault: robot_suite(fault)
        for fault in (FAULT_NONE, FAULT_WRONG_INIT, FAULT_WRONG_MOVE)
    },
    "robot-still": lambda: robot_suite(
        FAULT_NONE, RobotConfig(init="Q", motion_duration=0)
    ),
}

# a sim with an operation that leaves its state as it is
STAYS = [("therac-bug", OP_OTHER), ("robot-none", OP_INITIALISE)]


def moved_q(dx: int) -> RobotConfig:
    """The default deployment with waypoint Q's footprint shifted by ``dx``."""
    config = RobotConfig()
    config.waypoints["Q"] = Waypoint(at=(40, 10), footprint=Box(38 + dx, 8, 42 + dx, 12))
    return config


class TestInternedAnswers:
    @pytest.mark.parametrize("cap", [ANSWER_TABLE_CAP, 3], ids=["cap", "tiny-cap"])
    @pytest.mark.parametrize("pair", sorted(SIM_PAIRS))
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_answers_equal_those_built_fresh(self, pair, cap, data):
        make, make_reference, ops = SIM_PAIRS[pair]
        # each op with the step from the last time, which may go back, so
        # (state, clock) keys come back replay after replay
        replays = data.draw(
            st.lists(
                st.lists(st.tuples(st.sampled_from(ops), st.integers(-2, 5)), max_size=40),
                min_size=1,
                max_size=8,
            )
        )
        # the replays also run spread over a suite's adapters: each picks
        # one made before, or a fresh one past the last, as after a Timeout
        picks = data.draw(
            st.lists(st.integers(0, 3), min_size=len(replays), max_size=len(replays))
        )
        with patch.object(suts, "ANSWER_TABLE_CAP", cap):
            sim, reference = make(), make_reference()
            suite = SIM_SUITES[pair]()
            adapters = [suite.make_adapter()]
            for replay, pick in zip(replays, picks):
                if pick >= len(adapters):
                    adapters.append(suite.make_adapter())
                adapter = adapters[min(pick, len(adapters) - 1)]
                want = outcome(reference.reset)
                assert outcome(sim.reset) == want
                assert outcome(adapter.reset) == want
                at_time = 0
                for op, shift in replay:
                    at_time = max(0, at_time + shift)
                    command = Command(op, 1)
                    want = outcome(lambda: reference.apply(command, at_time))
                    assert outcome(lambda: sim.apply(command, at_time)) == want
                    assert outcome(lambda: adapter.apply(command, at_time)) == want
                    assert len(sim._answers) <= cap
                    assert len(adapter._answers) <= cap

    @pytest.mark.parametrize("pair", sorted(SIM_PAIRS))
    def test_a_clock_that_is_no_int_is_never_served_from_the_table(self, pair):
        make, make_reference, ops = SIM_PAIRS[pair]
        sim, reference = make(), make_reference()
        for at_time in (2, 2.0, 1, True, 2):
            for op in ops:
                command = Command(op, 1)
                assert outcome(lambda: sim.apply(command, at_time)) == outcome(
                    lambda: reference.apply(command, at_time)
                )

    @pytest.mark.parametrize("pair, op", STAYS)
    def test_a_key_met_again_gets_the_same_deferred(self, pair, op):
        make = SIM_PAIRS[pair][0]
        sim = make()
        assert sim.reset() is sim.reset()
        first = sim.apply(Command(op, 1), 5)
        assert sim.apply(Command(op, 1), 5) is first
        assert sim.apply(Command(op, 1), 6) is not first
        # each simulator has a table of its own
        assert make().apply(Command(op, 1), 5) is not first

    @pytest.mark.parametrize("pair, op", STAYS)
    def test_adapters_of_one_suite_share_their_answers(self, pair, op):
        suite = SIM_SUITES[pair]()
        first, second = suite.make_adapter(), suite.make_adapter()
        assert first._answers is second._answers
        assert first.reset() is second.reset()
        answer = first.apply(Command(op, 1), 5)
        assert second.apply(Command(op, 1), 5) is answer
        # a table belongs to its suite: no other suite, nor a simulator
        # built directly, finds its answers
        other = SIM_SUITES[pair]().make_adapter()
        assert other._answers is not first._answers
        assert other.apply(Command(op, 1), 5) is not answer
        assert SIM_PAIRS[pair][0]().apply(Command(op, 1), 5) is not answer

    @pytest.mark.parametrize("fault", [FAULT_NONE, FAULT_WRONG_INIT])
    def test_no_two_suites_share_an_answer(self, fault):
        # one waypoint, two footprints: the same (position, clock) key
        # must give each suite the footprint of its own deployment
        suites = [robot_suite(fault, moved_q(dx)) for dx in (0, 10)]
        references = [ReferenceRobotSim(moved_q(dx), fault) for dx in (0, 10)]
        for _ in range(2):
            for suite, reference in zip(suites, references):
                sim = suite.make_adapter()
                assert outcome(sim.reset) == outcome(reference.reset)
                for at_time, op in enumerate(("moveToQ", OP_INITIALISE, "moveToQ"), start=1):
                    command = Command(op, 1)
                    assert outcome(lambda: sim.apply(command, at_time)) == outcome(
                        lambda: reference.apply(command, at_time)
                    )
        # the arm parks on Q at clock 4 in both, with footprints apart
        got = [suite.make_adapter().apply(Command("moveToQ", 1), 1) for suite in suites]
        footprints = [answer.wait(0)[1].occupancy[0].box for answer in got]
        assert footprints == [Box(38, 8, 42, 12), Box(48, 8, 52, 12)]

    @pytest.mark.parametrize("pair, op", STAYS)
    def test_table_never_exceeds_the_cap(self, pair, op):
        make, make_reference, _ = SIM_PAIRS[pair]
        sim, reference = make(), make_reference()
        sizes = []
        for clock in range(3 * ANSWER_TABLE_CAP + 5):
            command = Command(op, 1)
            assert outcome(lambda: sim.apply(command, clock)) == outcome(
                lambda: reference.apply(command, clock)
            )
            sizes.append(len(sim._answers))
        assert max(sizes) == ANSWER_TABLE_CAP
        # emptied when full, and filling again
        assert sizes[-1] < ANSWER_TABLE_CAP

    @pytest.mark.parametrize("fault", [FAULT_NONE, FAULT_WRONG_INIT, FAULT_WRONG_MOVE])
    def test_the_deployment_is_read_once(self, fault):
        config = RobotConfig()
        suite = robot_suite(fault, config)
        sims = [suite.make_adapter(), RobotSim(config, fault)]
        built = robot_suite(fault, RobotConfig())
        # every part of the deployment changes: a footprint, the position
        # the wrongInit fault parks on becomes a waypoint, a waypoint goes,
        # and the init position, motion, workspace and horizon all move
        config.waypoints["Q"] = Waypoint(at=(40, 10), footprint=Box(30, 0, 50, 20))
        config.waypoints["K"] = Waypoint(at=(0, 0), footprint=Box(0, 0, 2, 2))
        del config.waypoints["R"]
        config.init = "Q"
        config.motion_duration = 7
        config.workspace = Box(0, 0, 10, 10)
        config.horizon = 5
        sims.append(suite.make_adapter())

        assert suite.model.init == built.model.init
        assert correct_behaviours(suite.model, 2) == correct_behaviours(built.model, 2)
        assert suite.st_invariants == built.st_invariants
        ops = ("moveToQ", "moveToR", "moveToK", OP_INITIALISE, "moveToQ")
        want = built.make_adapter()
        for sim in sims:
            assert sim.vocabulary() == want.vocabulary()
            assert outcome(sim.reset) == outcome(want.reset)
            for at_time, op in enumerate(ops, start=1):
                command = Command(op, 1)
                assert outcome(lambda: sim.apply(command, at_time)) == outcome(
                    lambda: want.apply(command, at_time)
                )


class TestRobotConfig:
    def test_defaults_are_valid(self):
        config = RobotConfig()
        assert config.init == "Y"
        assert set(config.waypoints) == {"Y", "Q", "R", "S"}

    def test_rejects_empty_catalogue(self):
        with pytest.raises(ValueError):
            RobotConfig(waypoints={})

    def test_requires_home_waypoint(self):
        only_q = {"Q": Waypoint((1, 1), Box(0, 0, 2, 2))}
        with pytest.raises(ValueError):
            RobotConfig(waypoints=only_q, init="Q")

    def test_init_must_be_declared(self):
        with pytest.raises(ValueError):
            RobotConfig(init="Z")

    def test_motion_duration_nonnegative(self):
        with pytest.raises(ValueError):
            RobotConfig(motion_duration=-1)

    def test_load_from_json(self, tmp_path):
        path = tmp_path / "robot.json"
        path.write_text(
            json.dumps(
                {
                    "workspace": [0, 0, 50, 50],
                    "waypoints": {
                        "Y": {"at": [5, 5], "footprint": [4, 4, 6, 6]},
                        "P": {"at": [20, 20], "footprint": [19, 19, 21, 21]},
                    },
                    "init": "P",
                    "motionDuration": 2,
                    "horizon": 500,
                }
            )
        )
        config = load_robot_config(str(path))
        assert config.workspace == Box(0, 0, 50, 50)
        assert config.waypoints["P"] == Waypoint((20, 20), Box(19, 19, 21, 21))
        assert config.init == "P"
        assert config.motion_duration == 2
        assert config.horizon == 500

    @pytest.mark.parametrize(
        "config",
        [
            RobotConfig(),
            RobotConfig(
                workspace=Box(50, 50, 0, 0),
                waypoints={
                    "Y": Waypoint((5, 5), Box(6, 6, 4, 4)),
                    "P": Waypoint((20, 20), Box(19, 19, 21, 21)),
                },
                init="P",
                motion_duration=0,
                horizon=7,
            ),
        ],
        ids=["default", "custom"],
    )
    def test_json_form_reads_back(self, tmp_path, config):
        doc = robot_config_to_json(config)
        assert robot_config_from_json(doc) == config
        # every key, so the form does not lean on the defaults
        assert list(doc) == ["workspace", "waypoints", "init", "motionDuration", "horizon"]
        assert list(doc["waypoints"]) == sorted(config.waypoints)
        path = tmp_path / "robot.json"
        path.write_text(json.dumps(doc))
        assert load_robot_config(str(path)) == config

    def test_load_partial_file_keeps_defaults(self, tmp_path):
        path = tmp_path / "robot.json"
        path.write_text(json.dumps({"motionDuration": 7}))
        config = load_robot_config(str(path))
        assert config.motion_duration == 7
        assert config.init == "Y"
        assert set(config.waypoints) == {"Y", "Q", "R", "S"}

    def test_load_rejects_unknown_keys(self, tmp_path):
        path = tmp_path / "robot.json"
        path.write_text(json.dumps({"velocity": 9}))
        with pytest.raises(ValueError):
            load_robot_config(str(path))

    @pytest.mark.parametrize(
        "doc",
        [
            {"waypoints": []},
            {"workspace": [0, 0, 100.5, 100]},
            {"waypoints": {"Y": {"at": [10, 10], "footprint": [8, 8, 12.5, 12]}}},
            {"waypoints": {"Y": {"at": [10, 10.5], "footprint": [8, 8, 12, 12]}}},
            {"waypoints": {"Y": {"at": [10, 10, 10], "footprint": [8, 8, 12, 12]}}},
            {"waypoints": {"Y": {"footprint": [8, 8, 12, 12]}}},
            {"waypoints": {"Y": {"at": [10, 10], "footprint": [8, 8, 12, 12], "size": 4}}},
            {"horizon": True},
            {"horizon": -5},
            {"motionDuration": 2.5},
            {"waypoints": {"Y": {"at": [10, 10]}}},
            {"workspace": {"x": 1}},
            {"init": ["Y"]},
        ],
        ids=["list-waypoints", "float-workspace", "float-footprint", "float-at",
             "three-at", "missing-at", "unknown-waypoint-key", "bool-horizon", "negative-horizon",
             "float-duration", "missing-footprint", "object-workspace", "list-init"],
    )
    def test_load_rejects_malformed_values(self, tmp_path, doc):
        path = tmp_path / "robot.json"
        path.write_text(json.dumps(doc))
        with pytest.raises((ValueError, TypeError)):
            load_robot_config(str(path))


class TestRobotSuite:
    def test_cannot_move_to_current_position(self):
        model = robot_suite(config=RobotConfig(init="Q")).model
        assert step(model, State({"position": "Q"}), "moveToQ") == []

    def test_packaging(self):
        suite = robot_suite()
        assert suite.name == "robot"
        assert set(suite.default_weights) == {
            OP_INITIALISE,
            "moveToQ",
            "moveToR",
            "moveToS",
            "moveToY",
        }
        assert len(suite.st_invariants) == 4

    def test_workspace_invariants_precompute_the_verdict(self):
        good = robot_suite()
        assert all(inv.consequent == TrueAtom() for inv in good.st_invariants)

        waypoints = dict(RobotConfig().waypoints)
        waypoints["B"] = Waypoint(at=(200, 200), footprint=Box(199, 199, 201, 201))
        bad = robot_suite(config=RobotConfig(waypoints=waypoints))
        verdicts = {
            inv.antecedent.terms[2].box: inv.consequent
            for inv in bad.st_invariants
        }
        assert verdicts[Box(199, 199, 201, 201)] == FalseAtom()
        assert verdicts[Box(8, 8, 12, 12)] == TrueAtom()

    def test_unknown_fault_rejected(self):
        with pytest.raises(ValueError):
            robot_suite("sequenceBug")

    def test_consistency_scan_is_clean(self):
        suite = robot_suite()
        assert spec_consistency(suite.model, suppress_noop={OP_INITIALISE}) == []

    def test_single_waypoint_catalogue_flags_the_stuck_move(self):
        from stpt import NeverEnabled

        config = RobotConfig(
            waypoints={"Y": Waypoint((1, 1), Box(0, 0, 2, 2))}
        )
        suite = robot_suite(config=config)
        warnings = spec_consistency(suite.model, suppress_noop={OP_INITIALISE})
        assert warnings == [NeverEnabled("moveToY")]


class TestTableRows:
    """The four canonical init-formula evaluation scenarios."""

    def run_row(self, fault, init, ops):
        suite = robot_suite(fault, config=RobotConfig(init=init))
        seq = tuple(Command(op, 1) for op in ops)
        return check_against(
            suite.model,
            suite.make_adapter(),
            suite.abstraction,
            seq,
            st_invariants=suite.st_invariants,
        )

    def test_row_1_healthy_initialise_passes(self):
        assert self.run_row(FAULT_NONE, "Y", [OP_INITIALISE]) == Pass()

    def test_row_2_wrong_init_is_an_init_mismatch(self):
        result = self.run_row(FAULT_WRONG_INIT, "Y", [OP_INITIALISE])
        assert isinstance(result, Fail)
        assert result.kind == FailKind.INIT_MISMATCH
        assert result.witness.observed_state == State({"position": "K"})

    def test_row_3_bad_spec_is_a_disabled_action(self):
        result = self.run_row(FAULT_NONE, "Q", ["moveToQ"])
        assert isinstance(result, Fail)
        assert result.kind == FailKind.DISABLED_ACTION
        assert result.witness.fail_index == 0

    def test_row_4_wrong_move_is_a_sut_mismatch(self):
        result = self.run_row(FAULT_WRONG_MOVE, "Q", ["moveToR"])
        assert isinstance(result, Fail)
        assert result.kind == FailKind.SUT_MISMATCH
        assert result.witness.expected_states == (State({"position": "R"}),)
        assert result.witness.observed_state == State({"position": "M"})


class TestRobotProperties:
    def test_fault_free_robot_passes_generated_sequences(self):
        suite = robot_suite()
        gen = gen_enabled_commands(suite.model, suite.default_weights, max_len=10)
        adapter = suite.make_adapter()
        for seed in range(200):
            seq, _ = gen.run(Rng.from_seed(seed))
            result = check_against(
                suite.model,
                adapter,
                suite.abstraction,
                seq,
                st_invariants=suite.st_invariants,
            )
            assert result == Pass()

    def test_escaping_footprint_is_a_spatial_violation(self):
        waypoints = dict(RobotConfig().waypoints)
        waypoints["B"] = Waypoint(at=(200, 200), footprint=Box(199, 199, 201, 201))
        config = RobotConfig(waypoints=waypoints)
        suite = robot_suite(config=config)
        escaping = Implies(
            And(
                (
                    TimeInterval(TimeWindow(0, config.horizon)),
                    Owner(ARM_OWNER),
                    OccupyBox(Box(199, 199, 201, 201)),
                )
            ),
            FalseAtom(),
        )
        (obligation,) = [inv for inv in suite.st_invariants if inv == escaping]
        # the in-bounds obligations fold to TRUE; the FALSE consequent
        # leaves the negated antecedent to judge
        for inv in suite.st_invariants:
            if inv is not obligation:
                assert compile_invariant(inv) is always_true
        assert compile_invariant(obligation) not in (always_true, always_false)

        seq = (Command("moveToB", 1),)
        result = check_against(
            suite.model,
            suite.make_adapter(),
            suite.abstraction,
            seq,
            st_invariants=suite.st_invariants,
        )
        assert isinstance(result, Fail)
        assert result.kind == FailKind.SPATIAL_VIOLATION
        assert result.witness.fail_index == 0
        assert result.witness.invariant is obligation
        arrival = 1 + config.motion_duration
        assert result.witness.observation == Observation(
            arrival, ARM_OWNER, (Box(199, 199, 201, 201),)
        )

    @settings(max_examples=200, deadline=None)
    @given(
        motion_duration=st.integers(0, 6),
        steps=st.lists(
            st.tuples(st.sampled_from((OP_INITIALISE, "moveToQ", "moveToR", "moveToS",
                                       "moveToY")), st.integers(1, 8)),
            max_size=12,
        ),
    )
    def test_honest_clocks_never_decrease_nor_precede_their_issue(self, motion_duration, steps):
        sim = RobotSim(RobotConfig(motion_duration=motion_duration))

        def run() -> list[int]:
            _, raw = sim.reset().wait(0)
            assert raw.clock == 0
            clocks, at_time = [0], 0
            for op, delay in steps:
                at_time += delay
                _, raw = sim.apply(Command(op, delay), at_time).wait(0)
                assert raw.clock >= at_time
                assert raw.clock >= clocks[-1]
                clocks.append(raw.clock)
            return clocks

        # the second run checks that the reset forgot the last arrival
        assert run() == run()

    def test_simulators_are_deterministic(self):
        def trace(fault):
            suite = robot_suite(fault)
            sim = suite.make_adapter()
            sim.reset()
            out = []
            clock = 0
            for op in (OP_INITIALISE, "moveToQ", "moveToR", OP_INITIALISE):
                clock += 2
                _, raw = sim.apply(Command(op, 2), clock).wait(0)
                out.append((raw.payload, raw.occupancy, raw.clock))
            return out

        for fault in (FAULT_NONE, FAULT_WRONG_INIT, FAULT_WRONG_MOVE):
            assert trace(fault) == trace(fault)
