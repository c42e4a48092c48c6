from __future__ import annotations

import asyncio
import random
import re
import threading
import time
from concurrent.futures import Future
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    gen_int_in_range,
    greedy_shrink_reference,
    oracle_check,
    random_model,
    weighted,
    with_delay,
    without,
)
from stpt import (
    ActionSpec,
    And,
    Box,
    Command,
    Deferred,
    Fail,
    FailKind,
    Generator,
    Implies,
    NotAFailure,
    Observation,
    OccupancyFact,
    OccupyBox,
    Owner,
    Pass,
    RawObservation,
    RobotConfig,
    RunReport,
    State,
    StateModel,
    TimeInterval,
    TimeWindow,
    Waypoint,
    Witness,
    check_against,
    classify,
    gen_enabled_commands,
    robot_suite,
    run_property,
    therac_suite,
)
from stpt import conformance
from stpt.reports import config_echo, report_to_json
from stpt.statemodel import step, successors
from stpt.suts import BEAM_ELECTRON, MODE_ELECTRON, OP_CURSOR_UP, OP_OTHER
from stpt.suts import OP_SELECT_ELECTRON, OP_SELECT_PHOTON
from stpt.suts import RobotSim, TheracSim, _payload_abstraction


def unguarded_commands(vocab, max_len, rng) -> tuple[Command, ...]:
    """A weighted random sequence drawn blind to the model's guards."""
    length, rng = gen_int_in_range(1, max_len).run(rng)
    ops, delays = weighted(vocab), gen_int_in_range(1, 5)
    commands = []
    for _ in range(length):
        op, rng = ops.run(rng)
        delay, rng = delays.run(rng)
        commands.append(Command(op, delay))
    return tuple(commands)


def toggle_model() -> StateModel:
    return StateModel(
        variables=["on"],
        init=[State({"on": False})],
        actions=[
            ActionSpec(
                "turnOn",
                guard=lambda s: not s["on"],
                effect=lambda s: s.assign(on=True),
            ),
            ActionSpec(
                "turnOff",
                guard=lambda s: s["on"],
                effect=lambda s: s.assign(on=False),
            ),
        ],
    )


def toggle_abstraction(raw: RawObservation) -> State:
    return State({"on": raw.payload})


class ToggleSut:
    """In-memory toggle with optional scripted defects.

    ``lie_times`` makes the reported value wrong whenever a command lands
    on one of those absolute ticks — a defect that is deterministic per
    sequence, so replays and parallel runs agree.
    """

    def __init__(self, *, init_value: bool = False, lie_times=(), facts=()):
        self.init_value = init_value
        self.lie_times = set(lie_times)
        self.facts = tuple(facts)
        self.value = init_value
        self.applied: list[tuple[str, int]] = []
        self.resets = 0

    def reset(self) -> Deferred[RawObservation]:
        self.resets += 1
        self.value = self.init_value
        return Deferred.successful(RawObservation(self.value, self.facts, 0))

    def apply(self, command: Command, at_time: int) -> Deferred[RawObservation]:
        self.applied.append((command.op, at_time))
        if command.op == "turnOn":
            self.value = True
        elif command.op == "turnOff":
            self.value = False
        reported = (not self.value) if at_time in self.lie_times else self.value
        return Deferred.successful(RawObservation(reported, self.facts, at_time))


class RandomSut(ToggleSut):
    """Toggle whose answers are drawn from a seeded stream: right, wrong or an error."""

    def __init__(self, seed: int):
        super().__init__()
        self.rnd = random.Random(seed)

    def apply(self, command: Command, at_time: int) -> Deferred[RawObservation]:
        reply = super().apply(command, at_time)
        roll = self.rnd.random()
        if roll < 0.2:
            return Deferred.failed(RuntimeError("flaky"))
        if roll < 0.5:
            return Deferred.successful(RawObservation(not self.value, (), at_time))
        return reply


def later(answer: Deferred[RawObservation], delay: float = 0.01) -> Future:
    """A Future that a timer thread settles with ``answer``'s outcome ``delay`` s later."""
    future: Future = Future()
    status, value = answer.wait()
    settle = future.set_result if status == "ok" else future.set_exception
    threading.Timer(delay, settle, args=(value,)).start()
    return future


class LateToggle(ToggleSut):
    """A toggle whose every answer is a Future that settles 10 ms later."""

    def reset(self) -> Future:
        return later(super().reset())

    def apply(self, command: Command, at_time: int) -> Future:
        return later(super().apply(command, at_time))


class TestDeferred:
    def test_fail_then_wait(self):
        boom = RuntimeError("boom")
        assert Deferred.failed(boom).wait(0) == ("failed", boom)

    @pytest.mark.parametrize(
        "made, outcome",
        [
            (lambda: Deferred.successful(5), ("ok", 5)),
            (lambda: Deferred.failed(KeyError("k")), ("failed", KeyError)),
        ],
        ids=["successful", "failed"],
    )
    def test_resolved_from_start(self, made, outcome):
        d = made()
        for timeout in (None, 0, -1):
            started = time.monotonic()
            status, value = d.wait(timeout)
            assert time.monotonic() - started < 0.5
            assert status == outcome[0]
            if status == "ok":
                assert value == outcome[1]
            else:
                assert isinstance(value, outcome[1])
        assert d.wait(0)[0] == outcome[0]


class TestCheckAgainst:
    def run_toggle(self, sut, ops, **kwargs):
        seq = tuple(Command(op, 1) for op in ops)
        return check_against(
            toggle_model(), sut, toggle_abstraction, seq, **kwargs
        )

    def test_faithful_sut_passes(self):
        assert self.run_toggle(ToggleSut(), ["turnOn", "turnOff", "turnOn"]) == Pass()

    def test_empty_sequence_passes_on_good_init(self):
        assert self.run_toggle(ToggleSut(), []) == Pass()

    def test_init_mismatch_even_for_empty_sequence(self):
        result = self.run_toggle(ToggleSut(init_value=True), [])
        assert isinstance(result, Fail) and result.kind == FailKind.INIT_MISMATCH
        assert result.witness.fail_index is None
        assert result.witness.expected_states == (State({"on": False}),)
        assert result.witness.observed_state == State({"on": True})

    def test_unknown_operation_never_reaches_the_sut(self):
        sut = ToggleSut()
        result = self.run_toggle(sut, ["turnOn", "flyToMoon"])
        assert isinstance(result, Fail)
        assert result.kind == FailKind.UNKNOWN_OPERATION
        assert result.witness.fail_index == 1
        assert "flyToMoon" in result.witness.note
        assert sut.applied == [("turnOn", 1)]

    def test_disabled_action_blames_the_spec_not_the_sut(self):
        sut = ToggleSut()
        result = self.run_toggle(sut, ["turnOff"])
        assert isinstance(result, Fail)
        assert result.kind == FailKind.DISABLED_ACTION
        assert result.witness.fail_index == 0
        assert "specification inconsistency" in result.witness.note
        assert sut.applied == []

    def test_sut_mismatch_carries_expected_and_observed(self):
        result = self.run_toggle(ToggleSut(lie_times={2}), ["turnOn", "turnOff"])
        assert isinstance(result, Fail)
        assert result.kind == FailKind.SUT_MISMATCH
        assert result.witness.fail_index == 1
        assert result.witness.expected_states == (State({"on": False}),)
        assert result.witness.observed_state == State({"on": True})

    def test_sut_error_is_reported_not_raised(self):
        class Exploding(ToggleSut):
            def apply(self, command, at_time):
                return Deferred.failed(RuntimeError("boom"))

        result = self.run_toggle(Exploding(), ["turnOn"])
        assert isinstance(result, Fail)
        assert result.kind == FailKind.SUT_ERROR
        assert result.witness.fail_index == 0
        assert "boom" in result.witness.note

    def test_reset_error_fails_before_index_zero(self):
        class BadReset(ToggleSut):
            def reset(self):
                return Deferred.failed(RuntimeError("no reset"))

        result = self.run_toggle(BadReset(), ["turnOn"])
        assert isinstance(result, Fail)
        assert result.kind == FailKind.SUT_ERROR
        assert result.witness.fail_index is None

    def test_raising_abstraction_is_an_abstraction_error(self):
        seq = (Command("turnOn", 1), Command("turnOff", 2))
        for fail_at, fail_index, expected in [
            (1, None, (State({"on": False}),)),
            (3, 1, (State({"on": False}),)),
        ]:
            calls = 0

            def abstraction(raw):
                nonlocal calls
                calls += 1
                if calls == fail_at:
                    raise RuntimeError("cannot read")
                return toggle_abstraction(raw)

            result = check_against(toggle_model(), ToggleSut(), abstraction, seq)
            call = "reset" if fail_index is None else "apply 'turnOff'"
            assert result == Fail(
                FailKind.ABSTRACTION_ERROR,
                Witness(
                    seq,
                    fail_index,
                    expected,
                    note=(
                        "abstraction raised RuntimeError('cannot read') "
                        f"on the observation of {call}"
                    ),
                ),
            )

    def test_apply_timeout(self):
        class Hanging(ToggleSut):
            def apply(self, command, at_time):
                return Future()

        result = self.run_toggle(Hanging(), ["turnOn"], timeout=0.05)
        assert isinstance(result, Fail)
        assert result.kind == FailKind.TIMEOUT
        assert result.witness.fail_index == 0

    @pytest.mark.parametrize(
        "timeout", [2.0, float("inf"), threading.TIMEOUT_MAX * 2],
        ids=["in-time", "inf", "twice-max"],
    )
    def test_a_future_completed_late_within_the_timeout_passes(self, timeout):
        # beyond threading.TIMEOUT_MAX the wait has no limit
        result = self.run_toggle(LateToggle(), ["turnOn", "turnOff"], timeout=timeout)
        assert result == Pass()

    @pytest.mark.parametrize("when", ["at-once", "late"])
    @pytest.mark.parametrize(
        "settle, raised",
        [
            (lambda f: f.set_exception(RuntimeError("boom")), "RuntimeError('boom')"),
            (lambda f: f.set_exception(TimeoutError("sut gave up")),
             "TimeoutError('sut gave up')"),
            (lambda f: f.cancel(), "CancelledError()"),
        ],
        ids=["runtime-error", "timeout-error", "cancelled"],
    )
    def test_a_future_settled_with_an_error_is_a_sut_error(self, settle, raised, when):
        # a SUT's own TimeoutError is its error, not the harness's Timeout
        class Erring(ToggleSut):
            def apply(self, command, at_time):
                answer: Future = Future()
                if when == "at-once":
                    settle(answer)
                else:
                    threading.Timer(0.01, settle, args=(answer,)).start()
                return answer

        result = self.run_toggle(Erring(), ["turnOn"], timeout=2.0)
        assert result == Fail(
            FailKind.SUT_ERROR,
            Witness(
                (Command("turnOn", 1),), 0, (State({"on": True}),),
                note=f"SUT apply 'turnOn' raised {raised}",
            ),
        )

    def test_reset_timeout(self):
        class HangingReset(ToggleSut):
            def reset(self):
                return Future()

        result = self.run_toggle(HangingReset(), [], timeout=0.05)
        assert isinstance(result, Fail)
        assert result.kind == FailKind.TIMEOUT
        assert result.witness.fail_index is None

    def test_rejects_a_nan_timeout_before_the_reset(self):
        # a pending Future would be polled under NaN, and its SUT blamed
        # for a Timeout
        class Pending(ToggleSut):
            def reset(self):
                self.resets += 1
                return Future()

            def apply(self, command, at_time):
                self.applied.append((command.op, at_time))
                return Future()

        sut = Pending()
        with pytest.raises(ValueError, match="timeout must not be NaN"):
            self.run_toggle(sut, ["turnOn"], timeout=float("nan"))
        assert sut.resets == 0 and sut.applied == []

    @pytest.mark.parametrize("timeout", ["1", None, True], ids=["str", "none", "bool"])
    def test_rejects_a_timeout_that_is_no_number_before_the_reset(self, timeout):
        # the reset answers late, so a timeout that reached its wait would
        # be blamed on the SUT ("1"), wait without limit (None), or be
        # taken as one second (True)
        class LateReset(ToggleSut):
            def reset(self):
                return later(super().reset())

        sut = LateReset()
        with pytest.raises(ValueError) as refused:
            self.run_toggle(sut, ["turnOn"], timeout=timeout)
        assert str(refused.value) == (
            f"timeout must be an int or float of seconds, got {timeout!r}"
        )
        assert sut.resets == 0 and sut.applied == []

    @pytest.mark.parametrize("timeout", [0, -1, 0.0, -0.5])
    def test_a_timeout_of_zero_or_less_polls(self, timeout):
        class HangingReset(ToggleSut):
            def reset(self):
                return Future()

        started = time.monotonic()
        result = self.run_toggle(HangingReset(), [], timeout=timeout)
        assert time.monotonic() - started < 0.5
        assert isinstance(result, Fail) and result.kind == FailKind.TIMEOUT
        # a resolved answer is read whatever the timeout
        assert self.run_toggle(ToggleSut(), ["turnOn"], timeout=timeout) == Pass()


class TestSpatialChecking:
    ARM_FACT = OccupancyFact("arm", TimeWindow(0, 100), Box(0, 0, 4, 4))
    WANT_BIG = Implies(
        And((TimeInterval(TimeWindow(0, 100)), Owner("arm"))),
        OccupyBox(Box(0, 0, 9, 9)),
    )

    def check(self, sut, ops, invariants):
        seq = tuple(Command(op, 1) for op in ops)
        return check_against(
            toggle_model(), sut, toggle_abstraction, seq, st_invariants=invariants
        )

    def test_violation_carries_invariant_and_observation(self):
        # the fact holds from tick 1, so the reset observation has nothing to judge
        sut = ToggleSut(
            facts=(OccupancyFact("arm", TimeWindow(1, 100), Box(0, 0, 4, 4)),)
        )
        result = self.check(sut, ["turnOn"], (self.WANT_BIG,))
        assert isinstance(result, Fail)
        assert result.kind == FailKind.SPATIAL_VIOLATION
        assert result.witness.fail_index == 0
        assert result.witness.invariant == self.WANT_BIG
        obs = result.witness.observation
        assert obs is not None
        assert obs.owner == "arm" and obs.time == 1
        assert obs.occupied == (Box(0, 0, 4, 4),)

    def test_reset_occupancy_is_judged(self):
        sut = ToggleSut(facts=(self.ARM_FACT,))
        for ops in ([], ["turnOn"]):
            result = self.check(sut, ops, (self.WANT_BIG,))
            assert result == Fail(
                FailKind.SPATIAL_VIOLATION,
                Witness(
                    sequence=tuple(Command(op, 1) for op in ops),
                    fail_index=None,
                    expected_states=(State({"on": False}),),
                    observed_state=State({"on": False}),
                    invariant=self.WANT_BIG,
                    observation=Observation(0, "arm", (Box(0, 0, 4, 4),)),
                    note="spatial obligation violated",
                ),
            )
        assert sut.applied == []

    def test_covered_obligation_passes(self):
        small = Implies(
            And((TimeInterval(TimeWindow(0, 100)), Owner("arm"))),
            OccupyBox(Box(0, 0, 4, 4)),
        )
        sut = ToggleSut(facts=(self.ARM_FACT,))
        assert self.check(sut, ["turnOn", "turnOff"], (small,)) == Pass()

    def test_other_owner_is_vacuous(self):
        cart_only = ToggleSut(
            facts=(OccupancyFact("cart", TimeWindow(0, 100), Box(0, 0, 1, 1)),)
        )
        assert self.check(cart_only, ["turnOn"], (self.WANT_BIG,)) == Pass()

    def test_invariant_is_judged_and_reported_as_given(self):
        # a reversed window, corners in the wrong order and a nested And
        given = Implies(
            And((And((TimeInterval(TimeWindow(100, 0)),)), Owner("arm"))),
            OccupyBox(Box(9, 9, 0, 0)),
        )
        sut = ToggleSut(facts=(self.ARM_FACT,))
        result = self.check(sut, ["turnOn"], (given,))
        assert isinstance(result, Fail)
        assert result.kind == FailKind.SPATIAL_VIOLATION
        assert result.witness.invariant is given

    def test_judged_fact_whose_owner_is_no_string_is_a_sut_error(self):
        # the owner 7 is outside the obligation's scope, but it cannot be
        # the owner of an observation, so the occupancy is never judged
        sut = ToggleSut(facts=(OccupancyFact(7, TimeWindow(0, 100), Box(0, 0, 4, 4)),))
        result = self.check(sut, ["turnOn"], (self.WANT_BIG,))
        assert isinstance(result, Fail)
        assert result.kind == FailKind.SUT_ERROR
        assert result.witness.fail_index is None
        assert result.witness.note == (
            "reset reported occupancy that cannot be judged: "
            "TypeError('owner must be a string, got 7')"
        )

    def test_stale_facts_outside_window_are_ignored(self):
        later = ToggleSut(
            facts=(OccupancyFact("arm", TimeWindow(50, 100), Box(0, 0, 4, 4)),)
        )
        # command lands at tick 1, before the fact's window opens
        assert self.check(later, ["turnOn"], (self.WANT_BIG,)) == Pass()


def fork_model() -> StateModel:
    """Two init states, 0 and 5. From 0, ``fork`` reaches 2 and then 1, an
    order that is not ``sort_key`` order; ``back`` returns to 0 from any
    other state; ``never`` is enabled nowhere."""
    return StateModel(
        ["x"],
        [State({"x": 5}), State({"x": 0})],
        [
            ActionSpec("fork", lambda s: s["x"] == 0, lambda s: s.assign(x=2)),
            ActionSpec("fork", lambda s: s["x"] == 0, lambda s: s.assign(x=1)),
            ActionSpec("back", lambda s: s["x"] != 0, lambda s: s.assign(x=0)),
            ActionSpec("never", lambda s: False, lambda s: s),
        ],
    )


def fork_abstraction(raw: RawObservation) -> State:
    if raw.payload == "garbled":
        raise ValueError("garbled")
    return State({"x": raw.payload})


class ScriptedSut:
    """Answers the reset and then each apply from a script, one entry each.

    An entry is ``(how, payload)``: "ok" completes with the payload, "arm"
    also reports ``ARM_FACT``, "raise" raises from the call, "fail"
    returns a failed Deferred and "hang" a Future that never completes.
    """

    ARM_FACT = OccupancyFact("arm", TimeWindow(0, 100), Box(0, 0, 4, 4))

    def __init__(self, script):
        self.script = list(script)

    def _answer(self, call: str, clock: int) -> Deferred[RawObservation]:
        how, payload = self.script.pop(0)
        if how == "raise":
            raise RuntimeError(f"{call} raised")
        if how == "fail":
            return Deferred.failed(RuntimeError(f"{call} failed"))
        if how == "hang":
            return Future()
        facts = (self.ARM_FACT,) if how == "arm" else ()
        return Deferred.successful(RawObservation(payload, facts, clock))

    def reset(self) -> Deferred[RawObservation]:
        return self._answer("reset", 0)

    def apply(self, command: Command, at_time: int) -> Deferred[RawObservation]:
        return self._answer("apply", at_time)


X = {n: State({"x": n}) for n in (0, 1, 2, 5, 7, 9)}
WANT_BIG = Implies(
    And((TimeInterval(TimeWindow(0, 100)), Owner("arm"))), OccupyBox(Box(0, 0, 9, 9))
)
ARM_AT = {t: Observation(t, "arm", (Box(0, 0, 4, 4),)) for t in (0, 2)}
FORK = (Command("fork", 1),)
FORK_BACK = (Command("fork", 1), Command("back", 1))
FORK_NOPE = (Command("fork", 1), Command("nope", 1))
FORK_NEVER = (Command("fork", 1), Command("never", 1))
K = FailKind

# (sequence, script, the whole failure check_against must return)
WITNESS_TABLE = {
    "reset-timeout": (
        FORK, [("hang", None)],
        Fail(K.TIMEOUT, Witness(
            FORK, None, (X[0], X[5]), note="reset did not complete within 0.01s")),
    ),
    "reset-raises": (
        FORK, [("raise", None)],
        Fail(K.SUT_ERROR, Witness(
            FORK, None, (X[0], X[5]),
            note="SUT reset raised RuntimeError('reset raised')")),
    ),
    "reset-fails": (
        FORK, [("fail", None)],
        Fail(K.SUT_ERROR, Witness(
            FORK, None, (X[0], X[5]),
            note="SUT reset raised RuntimeError('reset failed')")),
    ),
    "reset-abstraction": (
        FORK, [("ok", "garbled")],
        Fail(K.ABSTRACTION_ERROR, Witness(
            FORK, None, (X[0], X[5]),
            note="abstraction raised ValueError('garbled') on the observation of reset")),
    ),
    "reset-init-mismatch": (
        FORK, [("ok", 7)],
        Fail(K.INIT_MISMATCH, Witness(
            FORK, None, (X[0], X[5]), X[7],
            note="initial SUT state is not an init state of the model")),
    ),
    "reset-spatial": (
        FORK, [("arm", 5)],
        Fail(K.SPATIAL_VIOLATION, Witness(
            FORK, None, (X[5],), X[5], WANT_BIG, ARM_AT[0],
            note="spatial obligation violated")),
    ),
    "unknown-operation": (
        FORK_NOPE, [("ok", 0), ("ok", 1)],
        Fail(K.UNKNOWN_OPERATION, Witness(
            FORK_NOPE, 1, (X[1],), note="operation 'nope' not declared in model")),
    ),
    "disabled-action": (
        FORK_NEVER, [("ok", 0), ("ok", 1)],
        Fail(K.DISABLED_ACTION, Witness(
            FORK_NEVER, 1, (X[1],),
            note="specification inconsistency: operation 'never' not enabled in model")),
    ),
    "apply-timeout": (
        FORK, [("ok", 0), ("hang", None)],
        Fail(K.TIMEOUT, Witness(
            FORK, 0, (X[2], X[1]), note="apply 'fork' did not complete within 0.01s")),
    ),
    "apply-raises": (
        FORK, [("ok", 0), ("raise", None)],
        Fail(K.SUT_ERROR, Witness(
            FORK, 0, (X[2], X[1]),
            note="SUT apply 'fork' raised RuntimeError('apply raised')")),
    ),
    "apply-fails": (
        FORK, [("ok", 0), ("fail", None)],
        Fail(K.SUT_ERROR, Witness(
            FORK, 0, (X[2], X[1]),
            note="SUT apply 'fork' raised RuntimeError('apply failed')")),
    ),
    "apply-abstraction": (
        FORK, [("ok", 0), ("ok", "garbled")],
        Fail(K.ABSTRACTION_ERROR, Witness(
            FORK, 0, (X[2], X[1]),
            note="abstraction raised ValueError('garbled') on the observation of apply 'fork'")),
    ),
    "sut-mismatch": (
        FORK, [("ok", 0), ("ok", 9)],
        Fail(K.SUT_MISMATCH, Witness(
            FORK, 0, (X[1], X[2]), X[9], note="observed state matches no model successor")),
    ),
    "apply-spatial": (
        FORK_BACK, [("ok", 0), ("ok", 1), ("arm", 0)],
        Fail(K.SPATIAL_VIOLATION, Witness(
            FORK_BACK, 1, (X[0],), X[0], WANT_BIG, ARM_AT[2],
            note="spatial obligation violated")),
    ),
}


class TestWitnessTable:
    """Every failure kind, at the reset and at a command, field by field."""

    @pytest.mark.parametrize("case", sorted(WITNESS_TABLE))
    def test_failure_is_exactly(self, case):
        seq, script, want = WITNESS_TABLE[case]
        sut = ScriptedSut(script)
        result = check_against(
            fork_model(), sut, fork_abstraction, seq, (WANT_BIG,), timeout=0.01
        )
        assert result == want
        # the replay stops at the failure: no call after it was made
        assert sut.script == []

    def test_no_note_holds_an_address(self):
        # an object's repr holds its address, which differs between runs
        notes = []
        for seq, script, _ in WITNESS_TABLE.values():
            result = check_against(
                fork_model(), ScriptedSut(script), fork_abstraction, seq, (WANT_BIG,),
                timeout=0.01,
            )
            notes.append(result.witness.note)
        for made, _ in ODD_ANSWERS.values():
            for call in ("reset", "apply"):
                result = check_against(
                    toggle_model(), OddSut(made, call), toggle_abstraction,
                    (Command("turnOn", 1),),
                )
                notes.append(result.witness.note)
        assert len(notes) == len(WITNESS_TABLE) + 2 * len(ODD_ANSWERS)
        assert [note for note in notes if re.search("0x[0-9a-f]", note)] == []


class TestSerialization:
    def test_apply_waits_for_the_previous_completion(self):
        model = StateModel(
            ["n"],
            [State({"n": 0})],
            [ActionSpec("inc", lambda s: True, lambda s: s.assign(n=s["n"] + 1))],
        )

        class AsyncCounter:
            def __init__(self):
                self.count = 0
                self.pending = 0
                self.overlap = False
                self.lock = threading.Lock()

            def reset(self):
                with self.lock:
                    self.count = 0
                return Deferred.successful(RawObservation(0))

            def apply(self, command, at_time):
                with self.lock:
                    if self.pending:
                        self.overlap = True
                    self.pending += 1
                    self.count += 1
                    value = self.count
                answer: Future = Future()

                def finish():
                    with self.lock:
                        self.pending -= 1
                    answer.set_result(RawObservation(value))

                threading.Timer(0.002, finish).start()
                return answer

        sut = AsyncCounter()
        seq = tuple(Command("inc", 1) for _ in range(20))
        result = check_against(
            model, sut, lambda raw: State({"n": raw.payload}), seq
        )
        assert result == Pass()
        assert not sut.overlap


class TestClassify:
    @pytest.mark.parametrize(
        "kind,expected",
        [
            (FailKind.INIT_MISMATCH, "suspect: specification"),
            (FailKind.DISABLED_ACTION, "suspect: specification"),
            (FailKind.UNKNOWN_OPERATION, "suspect: specification"),
            (
                FailKind.SUT_MISMATCH,
                "suspect: system under test (or spec; engineer judgment)",
            ),
            (
                FailKind.SUT_ERROR,
                "suspect: system under test (or spec; engineer judgment)",
            ),
            (
                FailKind.TIMEOUT,
                "suspect: system under test (or spec; engineer judgment)",
            ),
            (
                FailKind.SPATIAL_VIOLATION,
                "suspect: system under test spatial behaviour",
            ),
            (
                FailKind.ABSTRACTION_ERROR,
                "suspect: specification or adapter (abstraction)",
            ),
        ],
    )
    def test_kind_to_suspect(self, kind, expected):
        assert classify(kind) == expected

    def test_accepts_full_fail_values(self):
        sut = ToggleSut()
        seq = (Command("turnOff", 1),)
        result = check_against(toggle_model(), sut, toggle_abstraction, seq)
        assert classify(result) == "suspect: specification"

    def test_pass_is_not_a_failure(self):
        with pytest.raises(NotAFailure):
            classify(Pass())

    def test_garbage_rejected(self):
        with pytest.raises(TypeError):
            classify("SutMismatch")


class TestNondeterministicModels:
    def spin_model(self) -> StateModel:
        return StateModel(
            ["x"],
            [State({"x": 0})],
            [
                ActionSpec("spin", lambda s: s["x"] == 0, lambda s: s.assign(x=1)),
                ActionSpec("spin", lambda s: s["x"] == 0, lambda s: s.assign(x=2)),
                ActionSpec("fromOne", lambda s: s["x"] == 1, lambda s: s.assign(x=3)),
                ActionSpec("fromTwo", lambda s: s["x"] == 2, lambda s: s.assign(x=4)),
            ],
        )

    class SpinSut:
        def __init__(self, spin_lands_on: int):
            self.spin_lands_on = spin_lands_on
            self.value = 0

        def reset(self):
            self.value = 0
            return Deferred.successful(RawObservation(0))

        def apply(self, command, at_time):
            if command.op == "spin":
                self.value = self.spin_lands_on
            elif command.op == "fromOne":
                self.value = 3
            elif command.op == "fromTwo":
                self.value = 4
            return Deferred.successful(RawObservation(self.value))

    @staticmethod
    def abstraction(raw: RawObservation) -> State:
        return State({"x": raw.payload})

    def test_either_branch_is_accepted(self):
        seq = (Command("spin", 1),)
        for landing in (1, 2):
            result = check_against(
                self.spin_model(), self.SpinSut(landing), self.abstraction, seq
            )
            assert result == Pass()

    def test_observation_narrows_the_consistent_set(self):
        # spin landed on 2, so fromOne is disabled in every surviving state
        seq = (Command("spin", 1), Command("fromOne", 1))
        result = check_against(
            self.spin_model(), self.SpinSut(2), self.abstraction, seq
        )
        assert isinstance(result, Fail)
        assert result.kind == FailKind.DISABLED_ACTION
        assert result.witness.fail_index == 1
        seq = (Command("spin", 1), Command("fromTwo", 1))
        assert (
            check_against(self.spin_model(), self.SpinSut(2), self.abstraction, seq)
            == Pass()
        )

    def test_mismatch_reports_every_model_hypothesis(self):
        class Liar(self.SpinSut):
            def apply(self, command, at_time):
                super().apply(command, at_time)
                return Deferred.successful(RawObservation(9))

        seq = (Command("spin", 1),)
        result = check_against(
            self.spin_model(), Liar(1), self.abstraction, seq
        )
        assert isinstance(result, Fail)
        assert result.kind == FailKind.SUT_MISMATCH
        assert result.witness.expected_states == (
            State({"x": 1}),
            State({"x": 2}),
        )
        assert result.witness.observed_state == State({"x": 9})


class BranchingSut:
    """Walks a model, taking at each call the branch its script names.

    Script entries are read in turn, round robin. Below 14 an entry picks
    one of the model's outcomes from the SUT's current state, or stays
    when there is none; 14 stays put, and 15 reports a state off the model.
    With ``fresh`` the payload is a State built anew for every report,
    never the model's own object; otherwise it is a dict for the suites'
    abstraction to read. ``times`` records the issue time of each apply.
    """

    def __init__(self, model, script, fresh):
        self.model, self.script, self.fresh = model, script, fresh
        self.off = State(dict.fromkeys(model.variables, -1))

    def _report(self, choices):
        entry = self.script[self.calls % len(self.script)]
        self.calls += 1
        if entry < 14:
            self.state = choices[entry % len(choices)]
        elif entry == 15:
            self.state = self.off
        bindings = dict(self.state.items())
        return Deferred.successful(RawObservation(State(bindings) if self.fresh else bindings))

    def reset(self):
        self.calls = 0
        self.times = []
        self.state = self.off
        return self._report(self.model.init)

    def apply(self, command, at_time):
        self.times.append(at_time)
        # a replay stops at the first report off the model, so the state is the model's
        return self._report(step(self.model, self.state, command.op) or [self.state])


class TestReplayOracle:
    """``check_against`` against the brute-force replay of ``helpers.oracle_check``.

    The random models have up to three init states and nondeterministic
    operations. The commands are drawn blind to the guards, one in ten of
    them an operation no model declares.
    """

    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        script=st.lists(st.integers(0, 15), min_size=1, max_size=12),
        commands=st.lists(st.tuples(st.integers(0, 9), st.integers(1, 5)), max_size=8),
        fresh=st.booleans(),
    )
    # model 4's first operation leads from its first init state to three
    # states out of sort order, and the SUT then reports one off the model
    @example(seed=4, script=[0, 15], commands=[(0, 1)], fresh=False)
    @example(seed=4, script=[0, 15], commands=[(0, 1)], fresh=True)
    def test_agrees_with_the_oracle(self, seed, script, commands, fresh):
        model = random_model(seed)
        abstraction = (lambda raw: raw.payload) if fresh else _payload_abstraction(model)
        names = model.action_names
        seq = tuple(
            Command(names[pick % len(names)] if pick < 9 else "omega", delay)
            for pick, delay in commands
        )
        reference = BranchingSut(model, script, fresh)
        want = oracle_check(model, reference, abstraction, seq)
        # the oracle fills no row, so the first replay meets a cold model
        for _ in ("cold", "warm"):
            sut = BranchingSut(model, script, fresh)
            got = check_against(model, sut, abstraction, seq)
            assert sut.times == reference.times
            if want is None:
                assert got == Pass()
            else:
                assert isinstance(got, Fail)
                witness = got.witness
                assert (
                    got.kind, witness.fail_index, witness.expected_states,
                    witness.observed_state,
                ) == want


class TestPassImpliesConformance:
    def test_abstracted_trace_replays_as_a_model_behaviour(self):
        model = toggle_model()
        observed: list[State] = []

        def logging_abstraction(raw: RawObservation) -> State:
            state = toggle_abstraction(raw)
            observed.append(state)
            return state

        from stpt import Rng

        gen = gen_enabled_commands(model, {"turnOn": 1, "turnOff": 1}, max_len=8)
        for seed in range(25):
            observed.clear()
            seq, _ = gen.run(Rng.from_seed(seed))
            result = check_against(model, ToggleSut(), logging_abstraction, seq)
            assert result == Pass()
            assert observed[0] in model.init
            current = observed[0]
            for state, command in zip(observed[1:], seq):
                assert state in step(model, current, command.op)
                current = state

    @pytest.mark.parametrize("seed", range(10))
    def test_kinds_excluded_for_complete_vocabulary_and_no_invariants(self, seed):
        from stpt import Rng

        model = random_model(seed)

        class ModelBackedSut:
            """Tracks one concrete model state; occasionally picks a branch."""

            def __init__(self):
                self.state = model.init[0] if model.init else None

            def reset(self):
                self.state = model.init[0]
                return Deferred.successful(RawObservation(self.state))

            def apply(self, command, at_time):
                outcome = step(model, self.state, command.op)
                if outcome:
                    self.state = outcome[at_time % len(outcome)]
                return Deferred.successful(RawObservation(self.state))

        vocab = {name: 1 for name in model.action_names}
        sut = ModelBackedSut()
        for case in range(10):
            seq = unguarded_commands(vocab, 6, Rng.from_seed(seed * 100 + case))
            result = check_against(model, sut, lambda raw: raw.payload, seq)
            if isinstance(result, Fail):
                assert result.kind not in (
                    FailKind.SPATIAL_VIOLATION,
                    FailKind.UNKNOWN_OPERATION,
                )


class RaisingWait(Deferred):
    """A settled answer whose wait raises."""

    def wait(self, timeout=None):
        raise RuntimeError("wait broke")


def asyncio_future() -> asyncio.Future:
    """An asyncio Future, which is no concurrent.futures Future, on a closed loop."""
    loop = asyncio.new_event_loop()
    loop.close()
    return asyncio.Future(loop=loop)


# an odd answer: how to make it, and the note of the SutError it gives
ODD_ANSWERS = {
    "none": (lambda: None, "SUT {} returned NoneType, not a Deferred or a Future"),
    "object": (lambda: 7, "SUT {} returned int, not a Deferred or a Future"),
    "bare-object": (object, "SUT {} returned object, not a Deferred or a Future"),
    "asyncio-future": (
        asyncio_future,
        f"SUT {{}} returned {asyncio.Future.__module__}.Future, not a Deferred or a Future",
    ),
    "raising-wait": (
        lambda: RaisingWait.successful(RawObservation(False)),
        "SUT {} raised RuntimeError('wait broke')",
    ),
}


class OddSut(ToggleSut):
    """A toggle that answers its reset, or every apply, with ``made()``."""

    def __init__(self, made, call: str) -> None:
        super().__init__()
        self.made, self.call = made, call

    def reset(self):
        answer = super().reset()
        return self.made() if self.call == "reset" else answer

    def apply(self, command, at_time):
        answer = super().apply(command, at_time)
        return self.made() if self.call == "apply" else answer


class TestRunProperty:
    GEN = gen_enabled_commands(
        toggle_model(), {"turnOn": 1, "turnOff": 1}, max_len=8
    )

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            run_property(
                toggle_model(), ToggleSut(), toggle_abstraction, self.GEN, num_tests=0
            )
        with pytest.raises(ValueError):
            run_property(toggle_model(), None, toggle_abstraction, self.GEN)

    @pytest.mark.parametrize(
        "name, value",
        [
            ("num_tests", 2.5),
            ("num_tests", True),
            ("seed", 1.0),
            ("seed", True),
        ],
    )
    def test_rejects_an_argument_that_is_no_integer_before_any_work(self, name, value):
        sut = ToggleSut()
        with pytest.raises(ValueError) as refused:
            run_property(
                toggle_model(), sut, toggle_abstraction, self.GEN, **{name: value}
            )
        assert str(refused.value) == f"{name} must be an integer, got {value!r}"
        assert sut.resets == 0

    def test_rejects_a_nan_timeout_before_the_first_test(self):
        # a settled Deferred never waits, so this adapter would otherwise
        # run the campaign as if no timeout were set
        sut = ToggleSut()
        with pytest.raises(ValueError, match="timeout"):
            run_property(
                toggle_model(), sut, toggle_abstraction, self.GEN, timeout=float("nan")
            )
        assert sut.resets == 0

    @pytest.mark.parametrize("timeout", ["1", None, True], ids=["str", "none", "bool"])
    def test_rejects_a_timeout_that_is_no_number_before_the_first_test(self, timeout):
        sut = ToggleSut()
        with pytest.raises(ValueError) as refused:
            run_property(toggle_model(), sut, toggle_abstraction, self.GEN, timeout=timeout)
        assert str(refused.value) == (
            f"timeout must be an int or float of seconds, got {timeout!r}"
        )
        assert sut.resets == 0

    @pytest.mark.parametrize("timeout", [1, 0, -1, float("inf")])
    def test_an_int_zero_negative_or_infinite_timeout_runs(self, timeout):
        report = run_property(
            toggle_model(), ToggleSut(), toggle_abstraction, self.GEN,
            num_tests=3, timeout=timeout,
        )
        assert report.tests_run == 3 and report.tests_failed == 0

    def test_passing_sut_reports_clean(self):
        report = run_property(
            toggle_model(), ToggleSut(), toggle_abstraction, self.GEN, num_tests=1
        )
        assert report.tests_run == 1
        assert report.tests_failed == 0
        assert report.failures == ()
        assert report.wall_ms >= 0

    def test_resets_between_tests(self):
        sut = ToggleSut()
        run_property(
            toggle_model(), sut, toggle_abstraction, self.GEN, num_tests=7
        )
        assert sut.resets >= 7

    def lying_report(self, *, seed=0, workers=1, num_tests=60):
        factory = lambda: ToggleSut(lie_times={7, 14, 21, 28, 35})  # noqa: E731
        return run_property(
            toggle_model(),
            factory() if workers == 1 else None,
            toggle_abstraction,
            self.GEN,
            num_tests=num_tests,
            seed=seed,
            workers=workers,
            adapter_factory=factory if workers > 1 else None,
        )

    def test_failures_are_found_shrunk_and_classified(self):
        report = self.lying_report()
        assert report.tests_failed == len(report.failures) > 0
        for record in report.failures:
            assert record.kind == FailKind.SUT_MISMATCH
            assert record.classification == (
                "suspect: system under test (or spec; engineer judgment)"
            )
            assert len(record.shrunk.sequence) <= len(record.original.sequence)

    def test_shrunk_witnesses_replay_and_are_one_minimal(self):
        report = self.lying_report()
        sut = ToggleSut(lie_times={7, 14, 21, 28, 35})

        def same_kind(seq):
            result = check_against(toggle_model(), sut, toggle_abstraction, seq)
            return isinstance(result, Fail) and result.kind == FailKind.SUT_MISMATCH

        for record in report.failures[:5]:
            replayed = check_against(
                toggle_model(), sut, toggle_abstraction, record.shrunk.sequence
            )
            assert isinstance(replayed, Fail)
            assert replayed.kind == record.kind
            assert replayed.witness.fail_index == record.shrunk.fail_index
            shrunk = record.shrunk.sequence
            for i in range(len(shrunk)):
                assert not same_kind(without(shrunk, i))
                delay = shrunk[i].delay
                if delay > 1:
                    assert not same_kind(with_delay(shrunk, i, delay // 2))

    def test_deterministic_for_fixed_seed(self):
        a = self.lying_report(seed=5)
        b = self.lying_report(seed=5)
        assert a.tests_failed == b.tests_failed
        assert [
            (r.test_index, r.kind, r.shrunk.sequence) for r in a.failures
        ] == [(r.test_index, r.kind, r.shrunk.sequence) for r in b.failures]

    def test_worker_count_does_not_change_results(self):
        serial = self.lying_report(seed=3, workers=1)
        parallel = self.lying_report(seed=3, workers=4)
        pick = lambda rep: [  # noqa: E731
            (r.test_index, r.kind, r.original.sequence, r.shrunk.sequence)
            for r in rep.failures
        ]
        assert pick(serial) == pick(parallel)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_answers_never_crash_the_campaign(self, seed):
        notes = {
            FailKind.SUT_MISMATCH: "observed state matches no model successor",
            FailKind.SUT_ERROR: "raised RuntimeError('flaky')",
        }
        report = run_property(
            toggle_model(),
            RandomSut(seed),
            toggle_abstraction,
            self.GEN,
            num_tests=50,
            seed=seed,
        )
        assert isinstance(report, RunReport)
        assert report.tests_failed == len(report.failures) > 0
        for record in report.failures:
            # the shrunk witness comes from a failure of the recorded kind
            assert notes[record.kind] in record.shrunk.note

    def test_each_failure_costs_one_reset_per_shrink_call(self, monkeypatch):
        calls = []
        shrink = conformance.shrink_sequence

        def counting_shrink(seq, fails):
            count = 0

            def counted(candidate):
                nonlocal count
                count += 1
                return fails(candidate)

            try:
                return shrink(seq, counted)
            finally:
                calls.append(count)

        monkeypatch.setattr(conformance, "shrink_sequence", counting_shrink)
        sut = ToggleSut(lie_times={7, 14, 21, 28, 35})
        report = run_property(
            toggle_model(), sut, toggle_abstraction, self.GEN, num_tests=60
        )
        assert len(calls) == report.tests_failed > 0
        assert any(
            len(r.shrunk.sequence) < len(r.original.sequence) for r in report.failures
        )
        # every test replays once; a failing one once more per shrink call,
        # and never again after the shrinker returns
        assert sut.resets == report.tests_run + sum(calls)

    def test_failure_that_never_recurs_keeps_its_cut_witness(self):
        class OnceLyingSut(ToggleSut):
            """Lies about the second command it is ever sent, and never again."""

            applies = 0

            def apply(self, command, at_time):
                self.applies += 1
                if self.applies == 2:
                    self.lie_times = {at_time}
                reply = super().apply(command, at_time)
                self.lie_times = set()
                return reply

        report = run_property(
            toggle_model(), OnceLyingSut(), toggle_abstraction, self.GEN, num_tests=20
        )
        (record,) = report.failures
        assert record.kind is FailKind.SUT_MISMATCH
        original = record.original
        assert original.fail_index == 1 < len(original.sequence) - 1
        # no shrink candidate fails, so the witness is the original failure
        # cut after its failing command
        cut = original.sequence[:2]
        assert record.shrunk == Witness(
            cut, original.fail_index, original.expected_states, original.observed_state,
            original.invariant, original.observation, original.note,
        )

    @staticmethod
    def count_shrink_calls(monkeypatch) -> list[int]:
        """Replays each shrink of a campaign asks for, one entry per failure.

        The shrinker is wrapped through the module global that
        ``run_property`` calls, as the benchmark counts replays.
        """
        calls = []
        shrink = conformance.shrink_sequence

        def counting_shrink(seq, fails):
            count = 0

            def counted(candidate):
                nonlocal count
                count += 1
                return fails(candidate)

            try:
                return shrink(seq, counted)
            finally:
                calls.append(count)

        monkeypatch.setattr(conformance, "shrink_sequence", counting_shrink)
        return calls

    def test_wrong_move_campaign_makes_no_opening_shrink_call(self, monkeypatch):
        calls = self.count_shrink_calls(monkeypatch)
        report = suite_campaign(robot_suite("wrongMove"), seed=7, num_tests=100, max_len=12)
        assert report.tests_failed == len(calls) == 97
        # a shrinker that replays each failure before shrinking it made
        # 434 calls here, one per failure more, one that also offered the
        # deletions of the cut's tail made 337, and one that halved each
        # delay before trying one tick for all made 153
        assert sum(calls) == 112

    def test_sequence_bug_campaign_skips_the_tail_deletions(self, monkeypatch):
        calls = self.count_shrink_calls(monkeypatch)
        report = suite_campaign(therac_suite("sequenceBug"), seed=7, num_tests=100, max_len=30)
        assert report.tests_failed == len(calls) == 19
        # a shrinker that also offered the deletions of the cut's tail,
        # proper prefixes the failing replay already decided, made 266,
        # and one that halved each delay before trying one tick for all,
        # and offered deletions equal to such a prefix by value, made 214
        assert sum(calls) == 146

    def test_one_adapter_runs_every_test_on_the_calling_thread(self):
        built, resets = [], []

        class RecordingSut(ToggleSut):
            def reset(self):
                resets.append(threading.get_ident())
                return super().reset()

        def factory():
            built.append(None)
            return RecordingSut(lie_times={7, 14, 21, 28, 35})

        report = run_property(
            toggle_model(),
            None,
            toggle_abstraction,
            self.GEN,
            num_tests=60,
            seed=3,
            workers=3,
            adapter_factory=factory,
        )
        assert report.tests_failed > 0
        assert len(built) == 1
        assert len(resets) > report.tests_run
        assert set(resets) == {threading.get_ident()}

    def test_failures_arrive_in_test_order(self):
        report = self.lying_report(seed=1)
        indexes = [r.test_index for r in report.failures]
        assert indexes == sorted(indexes)

    def test_adapter_raising_on_apply_becomes_a_sut_error(self):
        class RaisingSut(ToggleSut):
            calls = 0

            def apply(self, command, at_time):
                self.calls += 1
                if self.calls == 7:
                    raise RuntimeError("apply broke")
                return super().apply(command, at_time)

        report = run_property(
            toggle_model(), RaisingSut(), toggle_abstraction, self.GEN, num_tests=20
        )
        assert [r.kind for r in report.failures] == [FailKind.SUT_ERROR]
        (record,) = report.failures
        assert record.original.fail_index is not None
        op = record.original.sequence[record.original.fail_index].op
        assert record.original.note == (
            f"SUT apply {op!r} raised RuntimeError('apply broke')"
        )

    def test_adapter_raising_on_reset_becomes_a_sut_error(self):
        class RaisingSut(ToggleSut):
            def reset(self):
                if self.resets >= 2:
                    raise RuntimeError("reset broke")
                return super().reset()

        report = run_property(
            toggle_model(), RaisingSut(), toggle_abstraction, self.GEN, num_tests=20
        )
        assert report.tests_failed == 18
        for record in report.failures:
            assert record.kind == FailKind.SUT_ERROR
            assert record.original.fail_index is None
            assert record.original.note == "SUT reset raised RuntimeError('reset broke')"
            # a reset-level failure needs no command at all
            assert record.shrunk.sequence == ()

    @pytest.mark.parametrize("call", ["reset", "apply"])
    @pytest.mark.parametrize("answer", sorted(ODD_ANSWERS))
    def test_an_answer_that_is_no_deferred_becomes_a_sut_error(self, answer, call):
        made, want = ODD_ANSWERS[answer]
        sut = OddSut(made, call)
        seq = (Command("turnOn", 1), Command("turnOff", 1))
        result = check_against(toggle_model(), sut, toggle_abstraction, seq)
        assert isinstance(result, Fail) and result.kind is FailKind.SUT_ERROR
        assert result.witness.fail_index == (None if call == "reset" else 0)
        named = "reset" if call == "reset" else "apply 'turnOn'"
        assert result.witness.note == want.format(named)

        report = run_property(
            toggle_model(), OddSut(made, call), toggle_abstraction, self.GEN, num_tests=5
        )
        assert report.tests_failed == 5
        for record in report.failures:
            assert record.kind is FailKind.SUT_ERROR
            at = record.shrunk.fail_index
            assert (at is None) == (call == "reset")
            named = "reset" if at is None else f"apply {record.shrunk.sequence[at].op!r}"
            assert record.shrunk.note == want.format(named)

    def test_raising_abstraction_ends_the_campaign_with_records(self):
        suite = therac_suite("sequenceBug")
        calls = 0

        def abstraction(raw):
            nonlocal calls
            calls += 1
            if calls == 7:
                raise RuntimeError("abstraction broke")
            return suite.abstraction(raw)

        report = run_property(
            suite.model,
            suite.make_adapter(),
            abstraction,
            gen_enabled_commands(suite.model, suite.default_weights, max_len=12),
            num_tests=20,
        )
        kinds = [r.kind for r in report.failures]
        assert kinds.count(FailKind.ABSTRACTION_ERROR) == 1
        assert kinds.count(FailKind.SUT_MISMATCH) == len(kinds) - 1 > 0
        for record in report.failures:
            if record.kind is FailKind.SUT_MISMATCH:
                replay_with = suite.abstraction
            else:
                assert record.classification == (
                    "suspect: specification or adapter (abstraction)"
                )
                # the later replays read every observation, so nothing shrinks
                assert record.shrunk == record.original
                # an abstraction that breaks on the same observation
                replay_calls = 0
                breaks_at = record.shrunk.fail_index + 2

                def replay_with(raw):
                    nonlocal replay_calls
                    replay_calls += 1
                    if replay_calls == breaks_at:
                        raise RuntimeError("abstraction broke")
                    return suite.abstraction(raw)

            replayed = check_against(
                suite.model, suite.make_adapter(), replay_with, record.shrunk.sequence
            )
            assert replayed == Fail(record.kind, record.shrunk)

    def test_timeout_replaces_the_adapter(self, monkeypatch):
        late_threads: list[threading.Thread] = []
        built: list[ToggleSut] = []
        reused_after_timeout = []

        class LateSut(ToggleSut):
            """A late turnOn completes from a thread once the harness gave up,
            and leaves the adapter reporting the toggle on after each reset."""

            def __init__(self):
                super().__init__()
                self.gave_up = threading.Event()

            def reset(self):
                if self.gave_up.is_set():
                    reused_after_timeout.append(self)
                return super().reset()

            def apply(self, command, at_time):
                if command.op != "turnOn" or at_time < 6:
                    return super().apply(command, at_time)
                answer: Future = Future()

                def complete_late():
                    self.gave_up.wait(5)
                    self.init_value = True
                    answer.set_result(RawObservation(True, (), at_time))

                late_threads.append(threading.Thread(target=complete_late))
                late_threads[-1].start()
                return answer

        def factory():
            built.append(LateSut())
            return built[-1]

        results = []
        check = conformance.check_against

        def recording_check(model, adapter, *args, **kwargs):
            results.append(check(model, adapter, *args, **kwargs))
            if isinstance(results[-1], Fail) and results[-1].kind is FailKind.TIMEOUT:
                adapter.gave_up.set()
            return results[-1]

        monkeypatch.setattr(conformance, "check_against", recording_check)
        try:
            report = run_property(
                toggle_model(),
                None,
                toggle_abstraction,
                self.GEN,
                num_tests=12,
                seed=2,
                timeout=0.01,
                adapter_factory=factory,
            )
        finally:
            for adapter in built:
                adapter.gave_up.set()
            for thread in late_threads:
                thread.join(5)
        assert not any(thread.is_alive() for thread in late_threads)
        assert report.failures
        assert {r.kind for r in report.failures} == {FailKind.TIMEOUT}
        timeouts = [
            isinstance(r, Fail) and r.kind is FailKind.TIMEOUT for r in results
        ]
        # one adapter to start with, and a fresh one after every replay
        # that timed out and was followed by another
        assert len(built) == 1 + sum(timeouts[:-1]) > 2
        assert reused_after_timeout == []

    def test_a_future_that_never_completes_is_a_timeout_and_its_adapter_is_dropped(self):
        built = []

        class Hanging(ToggleSut):
            """A late turnOn answers with a Future that never completes."""

            hung = 0

            def apply(self, command, at_time):
                if command.op == "turnOn" and at_time >= 6:
                    self.hung += 1
                    return Future()
                return super().apply(command, at_time)

        def factory():
            built.append(Hanging())
            return built[-1]

        report = run_property(
            toggle_model(), None, toggle_abstraction, self.GEN,
            num_tests=12, seed=2, timeout=0.01, adapter_factory=factory,
        )
        assert {r.kind for r in report.failures} == {FailKind.TIMEOUT}
        # each adapter is dropped after the one replay that timed out on it
        assert len(built) > 2
        assert [sut.hung for sut in built[:-1]] == [1] * (len(built) - 1)
        assert built[-1].hung <= 1

    def test_timeout_resets_the_lone_adapter_for_the_next_replay(self, monkeypatch):
        class HangingSut(ToggleSut):
            """A late turnOn never completes."""

            def apply(self, command, at_time):
                if command.op == "turnOn" and at_time >= 6:
                    return Future()
                return super().apply(command, at_time)

        sut = HangingSut()
        replays = []
        check = conformance.check_against

        def recording_check(model, adapter, *args, **kwargs):
            resets = adapter.resets
            result = check(model, adapter, *args, **kwargs)
            replays.append((adapter, adapter.resets - resets, result))
            return result

        monkeypatch.setattr(conformance, "check_against", recording_check)
        report = run_property(
            toggle_model(), sut, toggle_abstraction, self.GEN,
            num_tests=12, seed=2, timeout=0.01,
        )
        assert {r.kind for r in report.failures} == {FailKind.TIMEOUT}
        timed_out = [
            isinstance(result, Fail) and result.kind is FailKind.TIMEOUT
            for _, _, result in replays
        ]
        # some replay timed out and another followed it
        assert any(timed_out[:-1])
        # every replay, those after a timeout too, reset the one adapter once
        assert all(adapter is sut and resets == 1 for adapter, resets, _ in replays)

    def test_invariants_compile_once_per_campaign(self, monkeypatch):
        compiled = []
        compile_invariant = conformance.compile_invariant

        def counting_compile(invariant):
            compiled.append(invariant)
            return compile_invariant(invariant)

        monkeypatch.setattr(conformance, "compile_invariant", counting_compile)
        # a waypoint outside the workspace, so one obligation stays to judge
        waypoints = dict(RobotConfig().waypoints)
        waypoints["B"] = Waypoint(at=(200, 200), footprint=Box(199, 199, 201, 201))
        suite = robot_suite(config=RobotConfig(waypoints=waypoints))
        report = suite_campaign(suite, seed=3, num_tests=40, max_len=12)
        assert {r.kind for r in report.failures} == {FailKind.SPATIAL_VIOLATION}
        assert len(report.failures) > 1
        assert compiled == list(suite.st_invariants)
        # a one-off replay still compiles its own, once per call
        compiled.clear()
        seq = (Command("initialisePosition", 1),)
        for _ in range(2):
            assert check_against(
                suite.model,
                suite.make_adapter(),
                suite.abstraction,
                seq,
                suite.st_invariants,
            ) == Pass()
        assert compiled == list(suite.st_invariants) * 2


TRIGGER = (
    Command(OP_SELECT_PHOTON, 1),
    Command(OP_CURSOR_UP, 3),
    Command(OP_SELECT_ELECTRON, 4),
)


class TestEntryPoints:
    """A sequence may be any iterable of commands; every witness holds a tuple."""

    @pytest.mark.parametrize(
        "make", [list, tuple, lambda commands: (c for c in commands)],
        ids=["list", "tuple", "generator"],
    )
    def test_check_against_takes_any_iterable_of_commands(self, make):
        suite = therac_suite("sequenceBug")

        def check(seq):
            return check_against(suite.model, suite.make_adapter(), suite.abstraction, seq)

        want = check(TRIGGER)
        assert isinstance(want, Fail) and want.kind is FailKind.SUT_MISMATCH
        got = check(make(TRIGGER))
        assert got == want and hash(got.witness) == hash(want.witness)
        assert type(got.witness.sequence) is tuple and got.witness.sequence == TRIGGER

    @pytest.mark.parametrize("make", [list, tuple], ids=["list", "tuple"])
    def test_run_property_takes_a_generator_that_draws_any_iterable(self, make):
        suite = therac_suite("sequenceBug")
        drawn = gen_enabled_commands(suite.model, suite.default_weights, max_len=12)

        def go(rng):
            seq, rng = drawn.run(rng)
            return make(seq), rng

        def campaign(gen) -> RunReport:
            report = run_property(
                suite.model, suite.make_adapter(), suite.abstraction, gen,
                num_tests=40, seed=7,
            )
            return RunReport(
                report.seed, report.tests_run, report.tests_failed, report.failures, 0.0
            )

        want = campaign(drawn)
        got = campaign(Generator(go))
        assert got == want and want.tests_failed > 0
        for record in got.failures:
            for witness in (record.original, record.shrunk):
                assert type(witness.sequence) is tuple
                hash(witness)


class HandingSut(ToggleSut):
    """A toggle that answers each value with the Deferred ``answers`` holds for it."""

    def __init__(self, answers: dict) -> None:
        super().__init__()
        self.answers = answers

    def reset(self) -> Deferred[RawObservation]:
        super().reset()
        return self.answers[self.value]

    def apply(self, command: Command, at_time: int) -> Deferred[RawObservation]:
        super().apply(command, at_time)
        return self.answers[self.value]


def settled_toggles(cls=Deferred) -> dict:
    """A resolved answer of class ``cls`` for each toggle value."""
    return {value: cls.successful(RawObservation(value)) for value in (False, True)}


def counting(calls: list, abstraction=toggle_abstraction):
    """``abstraction``, appending each observation it is called on to ``calls``."""

    def counted(raw: RawObservation) -> State:
        calls.append(raw)
        return abstraction(raw)

    return counted


class ReusingTherac:
    """A terminal adapter that keeps one observation for all its answers.

    It passes each call on to a :class:`TheracSim`, rewrites the payload of
    its one observation to the simulator's, and answers with that
    observation in a fresh Deferred.
    """

    def __init__(self) -> None:
        self.sim = TheracSim()
        self.raw = RawObservation({})

    def _rewrite(self, answer: Deferred[RawObservation]) -> Deferred[RawObservation]:
        self.raw.payload.clear()
        self.raw.payload.update(answer.wait(0)[1].payload)
        return Deferred.successful(self.raw)

    def reset(self) -> Deferred[RawObservation]:
        return self._rewrite(self.sim.reset())

    def apply(self, command: Command, at_time: int) -> Deferred[RawObservation]:
        return self._rewrite(self.sim.apply(command, at_time))


class TestAnswerMemo:
    """``check_against`` remembers an abstraction's state on the answer's Deferred."""

    SEQ = tuple(Command(op, 1) for op in ("turnOn", "turnOff", "turnOn"))

    def test_an_answer_handed_out_again_is_abstracted_once(self):
        model, calls = toggle_model(), []
        abstraction = counting(calls)
        sut = HandingSut(settled_toggles())
        for _ in range(2):
            assert check_against(model, sut, abstraction, self.SEQ) == Pass()
        assert [raw.payload for raw in calls] == [False, True]
        # a fresh Deferred with an equal payload is read afresh
        sut.answers = settled_toggles()
        assert check_against(model, sut, abstraction, self.SEQ) == Pass()
        assert [raw.payload for raw in calls] == [False, True, False, True]

    def test_each_abstraction_gets_its_own_state(self):
        model, right_calls, wrong_calls = toggle_model(), [], []
        right = counting(right_calls)
        wrong = counting(wrong_calls, lambda raw: State({"on": not raw.payload}))
        sut = HandingSut(settled_toggles())
        empty = ()
        assert check_against(model, sut, right, empty) == Pass()
        result = check_against(model, sut, wrong, empty)
        assert result.kind is FailKind.INIT_MISMATCH
        assert result.witness.observed_state == State({"on": True})
        assert (len(right_calls), len(wrong_calls)) == (1, 1)
        # the answer holds one state, the last abstraction's, so the
        # first abstraction reads it again and gets its own state back
        assert check_against(model, sut, right, empty) == Pass()
        assert (len(right_calls), len(wrong_calls)) == (2, 1)

    def test_an_abstraction_that_raised_is_not_remembered(self):
        model, calls = toggle_model(), []

        def missing(raw: RawObservation) -> State:
            raise KeyError("on")

        abstraction = counting(calls, missing)
        sut = HandingSut(settled_toggles())
        for _ in range(2):
            result = check_against(model, sut, abstraction, self.SEQ)
            assert result.kind is FailKind.ABSTRACTION_ERROR
            assert result.witness.fail_index is None
        assert len(calls) == 2

    def test_a_subclass_of_deferred_is_abstracted_at_every_step(self):
        class Settled(Deferred):
            """Resolved from the start, without any slot of Deferred's but the outcome."""

            def __init__(self, value) -> None:
                self._outcome = ("ok", value)

            @classmethod
            def successful(cls, value):
                return cls(value)

        model, calls = toggle_model(), []
        abstraction = counting(calls)
        sut = HandingSut(settled_toggles(Settled))
        for _ in range(2):
            assert check_against(model, sut, abstraction, self.SEQ) == Pass()
        assert [raw.payload for raw in calls] == [False, True, False, True] * 2

    def test_a_reused_observation_is_read_afresh_in_a_fresh_deferred(self):
        suite = therac_suite()
        seq = (Command(OP_SELECT_PHOTON, 1), Command(OP_SELECT_ELECTRON, 1))
        adapter = ReusingTherac()
        assert check_against(suite.model, adapter, suite.abstraction, seq) == Pass()
        assert adapter.raw.payload == {"mode": MODE_ELECTRON, "beam": BEAM_ELECTRON}


class TestResetOccupancy:
    """A deployment whose arm starts on a footprint outside the workspace."""

    @staticmethod
    def escaping_suite():
        waypoints = {
            "Y": Waypoint(at=(10, 10), footprint=Box(8, 8, 12, 12)),
            "Z": Waypoint(at=(100, 100), footprint=Box(98, 98, 103, 103)),
        }
        return robot_suite(config=RobotConfig(waypoints=waypoints, init="Z"))

    def test_empty_sequence_fails_at_reset(self):
        suite = self.escaping_suite()
        result = check_against(
            suite.model,
            suite.make_adapter(),
            suite.abstraction,
            (),
            suite.st_invariants,
        )
        assert isinstance(result, Fail)
        assert result.kind == FailKind.SPATIAL_VIOLATION
        witness = result.witness
        assert witness.fail_index is None
        assert witness.expected_states == suite.model.init
        assert witness.observed_state == State({"position": "Z"})
        assert witness.observation == Observation(0, "arm", (Box(98, 98, 103, 103),))
        assert witness.invariant in suite.st_invariants

    def test_every_test_fails_and_shrinks_to_the_empty_sequence(self):
        suite = self.escaping_suite()
        report = suite_campaign(suite, seed=0, num_tests=50, max_len=1)
        assert report.tests_failed == 50
        for record in report.failures:
            assert record.kind == FailKind.SPATIAL_VIOLATION
            assert record.shrunk.fail_index is None
            assert record.shrunk.sequence == ()
            assert record.shrunk.expected_states == suite.model.init


MALFORMED_OCCUPANCY = {
    "junk-fact": lambda raw: RawObservation(raw.payload, ("junk",), raw.clock),
    "tuple-box": lambda raw: RawObservation(
        raw.payload,
        tuple(OccupancyFact(f.owner, f.window, f.box.as_tuple()) for f in raw.occupancy),
        raw.clock,
    ),
    "string-clock": lambda raw: RawObservation(raw.payload, raw.occupancy, str(raw.clock)),
}


class MalformedRobot:
    """The robot SUT, with what the reset or every apply reports mangled."""

    def __init__(self, config, mangle, at_reset: bool):
        self.inner = RobotSim(config)
        self.mangle = mangle
        self.at_reset = at_reset

    def _report(self, deferred, mangled: bool) -> Deferred[RawObservation]:
        raw = deferred.wait(0)[1]
        return Deferred.successful(self.mangle(raw) if mangled else raw)

    def reset(self) -> Deferred[RawObservation]:
        return self._report(self.inner.reset(), self.at_reset)

    def apply(self, command: Command, at_time: int) -> Deferred[RawObservation]:
        return self._report(self.inner.apply(command, at_time), not self.at_reset)


class TestMalformedOccupancy:
    """Occupancy that cannot be grouped or judged fails as SutError."""

    @staticmethod
    def deployment(extra: bool) -> RobotConfig:
        waypoints = dict(RobotConfig().waypoints)
        if extra:
            # outside the workspace, so its obligation stays live
            waypoints["Z"] = Waypoint(at=(100, 100), footprint=Box(98, 98, 103, 103))
        return RobotConfig(waypoints=waypoints)

    def campaign(self, config, mangle, at_reset: bool):
        """The robot suite on ``config`` and a 10-test campaign against it."""
        suite = robot_suite("none", config)
        report = run_property(
            suite.model,
            MalformedRobot(config, mangle, at_reset),
            suite.abstraction,
            gen_enabled_commands(suite.model, suite.default_weights, max_len=6),
            st_invariants=suite.st_invariants,
            num_tests=10,
            seed=1,
        )
        return suite, report

    @pytest.mark.parametrize("at_reset", [True, False], ids=["reset", "command"])
    @pytest.mark.parametrize("mangling", sorted(MALFORMED_OCCUPANCY))
    def test_campaign_reports_a_sut_error(self, mangling, at_reset):
        config = self.deployment(extra=True)
        mangle = MALFORMED_OCCUPANCY[mangling]
        suite, report = self.campaign(config, mangle, at_reset)
        assert isinstance(report, RunReport)
        # every apply is mangled, so each test fails at reset or at its first command
        assert report.tests_failed == 10
        for record in report.failures:
            assert record.kind == FailKind.SUT_ERROR
            original = record.original
            # the SUT is faithful, so it reaches the one state the model allows
            if at_reset:
                assert original.fail_index is None
                consistent, call = suite.model.init, "reset"
            else:
                assert original.fail_index == 0
                op = original.sequence[0].op
                consistent = tuple(successors(suite.model, suite.model.init, op))
                call = f"apply {op!r}"
            assert original.expected_states == consistent
            assert (original.observed_state,) == consistent
            assert original.note.startswith(
                f"{call} reported occupancy that cannot be judged: "
            )
            replayed = check_against(
                suite.model,
                MalformedRobot(config, mangle, at_reset),
                suite.abstraction,
                record.shrunk.sequence,
                suite.st_invariants,
            )
            assert replayed == Fail(record.kind, record.shrunk)

    @pytest.mark.parametrize("at_reset", [True, False], ids=["reset", "command"])
    @pytest.mark.parametrize("mangling", sorted(MALFORMED_OCCUPANCY))
    def test_obligations_folded_to_true_never_read_it(self, mangling, at_reset):
        # every waypoint of the default deployment lies inside the workspace
        mangle = MALFORMED_OCCUPANCY[mangling]
        _, report = self.campaign(self.deployment(extra=False), mangle, at_reset)
        assert report.tests_failed == 0


class HostileSut:
    """A suite's SUT that misbehaves on drawn triggers.

    ``triggers`` maps an operation and its issue time modulo 5 to a
    fault: "raise" raises from ``apply``, "never" returns a Future
    that never completes, and "late" one that the next call through any
    adapter sharing ``late`` completes, after the harness gave up on it.
    ``reset_fault``, if set, does the same to every ``reset``. A trigger
    reads only the command and its issue time, so a replay with a fresh
    adapter meets the same fault.
    """

    def __init__(self, inner, reset_fault, triggers, late: list):
        self.inner = inner
        self.reset_fault = reset_fault
        self.triggers = triggers
        self.late = late

    def _complete_late(self) -> None:
        while self.late:
            self.late.pop().set_result(RawObservation({"mode": "late", "beam": "late"}))

    def _misbehave(self, fault: str, call: str) -> Future:
        if fault == "raise":
            raise RuntimeError(f"hostile {call}")
        pending: Future = Future()
        if fault == "late":
            self.late.append(pending)
        return pending

    def reset(self) -> Deferred[RawObservation]:
        self._complete_late()
        if self.reset_fault is not None:
            return self._misbehave(self.reset_fault, "reset")
        return self.inner.reset()

    def apply(self, command: Command, at_time: int) -> Deferred[RawObservation]:
        self._complete_late()
        fault = self.triggers.get((command.op, at_time % 5))
        if fault is not None:
            return self._misbehave(fault, f"apply {command.op!r}")
        return self.inner.apply(command, at_time)


HOSTILE_FAULTS = st.sampled_from(["raise", "never", "late"])
THERAC_OPS = (OP_SELECT_PHOTON, OP_SELECT_ELECTRON, OP_CURSOR_UP, OP_OTHER)


class TestHostileSut:
    # the kinds each therac25 fault gives with no hostile trigger
    PLAIN_KINDS = {"none": set(), "sequenceBug": {FailKind.SUT_MISMATCH}}
    TIMEOUT_S = 0.005

    @settings(max_examples=20, deadline=None)
    @given(
        fault=st.sampled_from(sorted(PLAIN_KINDS)),
        reset_fault=st.sampled_from([None, None, None, "raise", "never", "late"]),
        triggers=st.dictionaries(
            st.tuples(st.sampled_from(THERAC_OPS), st.integers(0, 4)),
            HOSTILE_FAULTS,
            max_size=6,
        ),
        seed=st.integers(0, 2**16),
    )
    def test_campaign_survives_and_witnesses_replay(
        self, fault, reset_fault, triggers, seed
    ):
        suite = therac_suite(fault)
        late: list = []

        def factory() -> HostileSut:
            return HostileSut(suite.make_adapter(), reset_fault, triggers, late)

        report = run_property(
            suite.model,
            None,
            suite.abstraction,
            gen_enabled_commands(suite.model, suite.default_weights, max_len=8),
            num_tests=5,
            seed=seed,
            timeout=self.TIMEOUT_S,
            adapter_factory=factory,
        )
        assert isinstance(report, RunReport)
        allowed = {FailKind.SUT_ERROR, FailKind.TIMEOUT} | self.PLAIN_KINDS[fault]
        for record in report.failures:
            assert record.kind in allowed
            replayed = check_against(
                suite.model,
                factory(),
                suite.abstraction,
                record.shrunk.sequence,
                timeout=self.TIMEOUT_S,
            )
            assert isinstance(replayed, Fail)
            assert (replayed.kind, replayed.witness.fail_index) == (
                record.kind,
                record.shrunk.fail_index,
            )


def settle(answer: Deferred[RawObservation]) -> RawObservation:
    """What a blocking call returns, or raises, for a settled answer."""
    status, value = answer.wait()
    if status != "ok":
        raise value
    return value


class BlockingSim:
    """A suite's simulator as a client whose calls block: each returns
    its observation or raises its error. ``slow`` names an operation whose
    apply first waits for ``wake``, for at most 5 s."""

    def __init__(self, sim, slow=None, wake=None) -> None:
        self.sim, self.slow, self.wake = sim, slow, wake

    def reset(self) -> RawObservation:
        return settle(self.sim.reset())

    def apply(self, command: Command, at_time: int) -> RawObservation:
        if command.op == self.slow:
            self.wake.wait(5)
        return settle(self.sim.apply(command, at_time))


def readme_executor_adapter():
    """README's ``ExecutorAdapter``, run as written there."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    (block,) = [
        block.split("```", 1)[0]
        for block in readme.split("```python\n")[1:]
        if "class ExecutorAdapter" in block.split("```", 1)[0]
    ]
    scope: dict = {}
    exec(block, scope)
    return scope["ExecutorAdapter"]


class TestExecutorAdapter:
    """A SUT whose blocking calls run on one worker thread, answering with Futures."""

    @pytest.mark.parametrize(
        "make_suite, fault",
        [(therac_suite, "sequenceBug"), (robot_suite, "wrongMove")],
        ids=["therac25-sequenceBug", "robot-wrongMove"],
    )
    def test_report_is_the_plain_suites_byte_for_byte(self, make_suite, fault):
        suite = make_suite(fault)
        adapter_class = readme_executor_adapter()
        built = []

        def executor_adapter():
            built.append(adapter_class(BlockingSim(suite.make_adapter())))
            return built[-1]

        # the CLI's defaults, at seed 7 with 200 tests
        weights, max_len, timeout_ms = suite.default_weights, 12, 5000
        config = config_echo(suite.name, fault, 200, max_len, timeout_ms, weights)
        reports = []
        for factory in (suite.make_adapter, executor_adapter):
            report = run_property(
                suite.model, None, suite.abstraction,
                gen_enabled_commands(suite.model, weights, max_len),
                st_invariants=suite.st_invariants, num_tests=200, seed=7,
                timeout=timeout_ms / 1000, adapter_factory=factory,
            )
            reports.append(report_to_json(report, config))
        for adapter in built:
            adapter.pool.shutdown()
        assert len(built) == 1
        assert reports[1] == reports[0]
        assert '"kind": "' in reports[0]

    def test_an_apply_that_sleeps_past_the_timeout_is_a_timeout(self):
        adapter_class = readme_executor_adapter()
        suite = therac_suite()
        wake = threading.Event()
        built = []

        def factory():
            built.append(adapter_class(BlockingSim(suite.make_adapter(), OP_CURSOR_UP, wake)))
            return built[-1]

        started = time.monotonic()
        try:
            report = run_property(
                suite.model, None, suite.abstraction,
                gen_enabled_commands(suite.model, suite.default_weights, max_len=8),
                num_tests=10, seed=7, timeout=0.005, adapter_factory=factory,
            )
        finally:
            wake.set()
            for adapter in built:
                adapter.pool.shutdown()
        # no replay waited for a sleeping apply
        assert time.monotonic() - started < 4
        assert report.failures
        assert {r.kind for r in report.failures} == {FailKind.TIMEOUT}
        for record in report.failures:
            witness = record.shrunk
            assert witness.sequence[witness.fail_index].op == OP_CURSOR_UP
        assert len(built) > 1


SHRINK_SEEDS = [0, 7, 42]


def suite_campaign(suite, seed: int, num_tests: int, max_len: int) -> RunReport:
    gen = gen_enabled_commands(suite.model, suite.default_weights, max_len)
    return run_property(
        suite.model,
        suite.make_adapter(),
        suite.abstraction,
        gen,
        st_invariants=suite.st_invariants,
        num_tests=num_tests,
        seed=seed,
    )


class TestShrunkWitness:
    @pytest.mark.parametrize("seed", SHRINK_SEEDS)
    @pytest.mark.parametrize(
        "suite", [therac_suite("sequenceBug"), robot_suite("wrongMove")],
        ids=["therac25-sequenceBug", "robot-wrongMove"],
    )
    def test_shrunk_witness_is_what_its_replay_gives(self, suite, seed):
        report = suite_campaign(suite, seed, num_tests=300, max_len=30)
        assert report.failures
        for record in report.failures:
            replayed = check_against(
                suite.model,
                suite.make_adapter(),
                suite.abstraction,
                record.shrunk.sequence,
                suite.st_invariants,
            )
            assert replayed == Fail(record.kind, record.shrunk)

    @pytest.mark.parametrize("seed", SHRINK_SEEDS)
    def test_therac_witnesses_match_the_greedy_reference(self, seed):
        suite = therac_suite("sequenceBug")
        report = suite_campaign(suite, seed, num_tests=300, max_len=30)
        adapter = suite.make_adapter()

        def same_kind(seq: tuple[Command, ...]) -> bool:
            result = check_against(suite.model, adapter, suite.abstraction, seq)
            return isinstance(result, Fail) and result.kind == FailKind.SUT_MISMATCH

        assert report.failures
        for record in report.failures:
            reference = greedy_shrink_reference(record.original.sequence, same_kind)
            assert record.shrunk.sequence == reference
