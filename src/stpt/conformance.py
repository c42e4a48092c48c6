"""Conformance checking of a running system against a state model.

A command sequence is replayed against both the model and the system
under test (SUT). The SUT side is asynchronous: every applied command
yields a :class:`Deferred` that completes with a raw observation. An
abstraction function maps raw observations back into model states, and a
subset construction tracks which model states remain consistent. Spatial
obligations are evaluated against the occupancy facts each observation
reports. Failures carry a witness and a coarse classification of where
the blame likely lies.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, replace
from enum import Enum
from typing import Any, Callable, Generic, Optional, Protocol, TypeVar, Union

from .genrand import Command, CommandSequence, Generator, Rng, shrink_sequence
from .spatial import (
    Invariant,
    Observation,
    OccupancyFact,
    Predicate,
    always_true,
    compile_invariant,
)
from .statemodel import State, StateModel, successors

A = TypeVar("A")


class AlreadyCompleted(RuntimeError):
    """A deferred result can be resolved exactly once."""


class NotAFailure(ValueError):
    """classify() was handed a passing result."""


class Deferred(Generic[A]):
    """Single-assignment asynchronous result.

    Resolve once with :meth:`complete` or :meth:`fail`; a second
    resolution, from any thread, raises :class:`AlreadyCompleted`.
    Consume with :meth:`wait`, which blocks until the outcome is set or
    the timeout passes. :meth:`successful` and :meth:`failed` build one
    that is resolved from the start, with no lock to take.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        # Held while unresolved; each waiter that gets it passes it on.
        self._pending = threading.Lock()
        self._pending.acquire()
        self._outcome: Optional[tuple[str, Any]] = None

    @classmethod
    def _resolved(cls, outcome: tuple[str, Any]) -> Deferred[A]:
        d: Deferred[A] = cls.__new__(cls)
        # An outcome is never unset, so neither lock is ever taken
        d._lock = d._pending = None
        d._outcome = outcome
        return d

    @classmethod
    def successful(cls, value: A) -> Deferred[A]:
        return cls._resolved(("ok", value))

    @classmethod
    def failed(cls, error: BaseException) -> Deferred[A]:
        return cls._resolved(("failed", error))

    def complete(self, value: A) -> None:
        self._resolve(("ok", value))

    def fail(self, error: BaseException) -> None:
        self._resolve(("failed", error))

    def _resolve(self, outcome: tuple[str, Any]) -> None:
        if self._outcome is None:
            with self._lock:
                if self._outcome is None:
                    self._outcome = outcome
                    self._pending.release()
                    return
        raise AlreadyCompleted("deferred already resolved")

    def wait(self, timeout: Optional[float] = None) -> Optional[tuple[str, Any]]:
        """Outcome tuple ("ok", value) / ("failed", error), or None on timeout.

        A timeout of zero or less polls without blocking.
        """
        if self._outcome is None:
            # Lock.acquire reads -1 as "forever", so a negative timeout polls
            limit = -1 if timeout is None else max(timeout, 0)
            if self._pending.acquire(timeout=limit):
                self._pending.release()
        # None only on timeout: a poll that lost the lock to another waiter
        # still finds the outcome, which is set before the lock is released
        return self._outcome


@dataclass(frozen=True)
class RawObservation:
    """What the SUT reports after a step: payload, occupancy claims, clock."""

    payload: Any
    occupancy: tuple[OccupancyFact, ...] = ()
    clock: int = 0


class SutAdapter(Protocol):
    def reset(self) -> Deferred[RawObservation]: ...

    def apply(self, command: Command, at_time: int) -> Deferred[RawObservation]: ...

    def vocabulary(self) -> tuple[str, ...]: ...


Abstraction = Callable[[RawObservation], State]


class FailKind(str, Enum):
    SUT_MISMATCH = "SutMismatch"
    INIT_MISMATCH = "InitMismatch"
    DISABLED_ACTION = "DisabledAction"
    UNKNOWN_OPERATION = "UnknownOperation"
    SPATIAL_VIOLATION = "SpatialViolation"
    TIMEOUT = "Timeout"
    SUT_ERROR = "SutError"
    ABSTRACTION_ERROR = "AbstractionError"


@dataclass(frozen=True)
class Witness:
    """Everything needed to understand (and replay) one failure."""

    sequence: CommandSequence
    fail_index: Optional[int]  # None when the initial state already diverges
    expected_states: tuple[State, ...] = ()
    observed_state: Optional[State] = None
    invariant: Optional[Invariant] = None
    observation: Optional[Observation] = None
    note: str = ""


@dataclass(frozen=True)
class Pass:
    pass


@dataclass(frozen=True)
class Fail:
    kind: FailKind
    witness: Witness


CheckResult = Union[Pass, Fail]


def _spatial_observations(raw: RawObservation) -> list[Observation]:
    """Current occupancy grouped per owner, at the observation's clock."""
    per_owner: dict[str, list] = {}
    for fact in raw.occupancy:
        if fact.window.contains(raw.clock):
            per_owner.setdefault(fact.owner, []).append(fact.box)
    return [
        Observation(time=raw.clock, owner=owner, occupied=tuple(boxes))
        for owner, boxes in sorted(per_owner.items())
    ]


def _compile_obligations(
    st_invariants: tuple[Invariant, ...],
) -> list[tuple[Invariant, Predicate]]:
    """Each invariant with its compiled predicate, less those that fold to TRUE."""
    out = []
    for invariant in st_invariants:
        holds = compile_invariant(invariant)
        if holds is not always_true:
            out.append((invariant, holds))
    return out


def _not_settled(
    settled: Optional[tuple[str, Any]],
    timeout: float,
    call: str,
    seq: CommandSequence,
    fail_index: Optional[int],
    expected: tuple[State, ...],
) -> Fail:
    """The Timeout (``settled`` is None) or SutError of a failed ``call``."""
    if settled is None:
        kind, note = FailKind.TIMEOUT, f"{call} did not complete within {timeout}s"
    else:
        kind, note = FailKind.SUT_ERROR, f"SUT {call} raised {settled[1]!r}"
    return Fail(kind, Witness(seq, fail_index, expected, note=note))


def _abstraction_failed(
    err: Exception,
    call: str,
    seq: CommandSequence,
    fail_index: Optional[int],
    expected: tuple[State, ...],
) -> Fail:
    """The AbstractionError of reading what ``call`` completed with."""
    note = f"abstraction raised {err!r} on the observation of {call}"
    return Fail(FailKind.ABSTRACTION_ERROR, Witness(seq, fail_index, expected, note=note))


def _spatial_failure(
    obligations: list[tuple[Invariant, Predicate]],
    raw: RawObservation,
    seq: CommandSequence,
    fail_index: Optional[int],
    consistent: list[State],
    observed: State,
) -> Optional[Fail]:
    """The SpatialViolation of the first obligation ``raw``'s occupancy breaks."""
    observations = _spatial_observations(raw)
    for invariant, holds in obligations:
        for observation in observations:
            if not holds(observation):
                return Fail(
                    FailKind.SPATIAL_VIOLATION,
                    Witness(
                        sequence=seq,
                        fail_index=fail_index,
                        expected_states=tuple(consistent),
                        observed_state=observed,
                        invariant=invariant,
                        observation=observation,
                        note="spatial obligation violated",
                    ),
                )
    return None


def check_against(
    model: StateModel,
    adapter: SutAdapter,
    abstraction: Abstraction,
    seq: CommandSequence,
    st_invariants: tuple[Invariant, ...] = (),
    timeout: float = 5.0,
    *,
    _obligations: Optional[list[tuple[Invariant, Predicate]]] = None,
) -> CheckResult:
    """Replay ``seq`` against model and SUT; first divergence wins.

    Per command the model side is consulted first, so an operation the
    model rejects (unknown or disabled everywhere in the consistent set)
    fails before it ever reaches the SUT. A reset or apply that raises
    instead of returning a Deferred fails as ``SutError``, like one whose
    Deferred fails; an abstraction that raises fails as
    ``AbstractionError``. Invariants are judged as given, on the reset
    observation's occupancy (a failure there has no ``fail_index``) and
    on each command's; one that folds to TRUE is never judged. A one-off
    call compiles them once, right after the init match. ``_obligations``
    is what ``_compile_obligations`` made of ``st_invariants``, for a
    caller that replays many sequences.
    """
    try:
        deferred = adapter.reset()
    except Exception as err:
        deferred = Deferred.failed(err)
    settled = deferred.wait(timeout)
    if settled is None or settled[0] != "ok":
        return _not_settled(settled, timeout, "reset", seq, None, model.init)
    raw = settled[1]
    try:
        observed = abstraction(raw)
    except Exception as err:
        return _abstraction_failed(err, "reset", seq, None, model.init)
    consistent = [s for s in model.init if s == observed]
    if not consistent:
        return Fail(
            FailKind.INIT_MISMATCH,
            Witness(
                sequence=seq,
                fail_index=None,
                expected_states=model.init,
                observed_state=observed,
                note="initial SUT state is not an init state of the model",
            ),
        )
    obligations = _obligations
    if obligations is None:
        obligations = _compile_obligations(st_invariants)
    if obligations:
        violated = _spatial_failure(obligations, raw, seq, None, consistent, observed)
        if violated is not None:
            return violated
    for index, (command, at_time) in enumerate(zip(seq, seq.timestamps)):
        expected = successors(model, consistent, command.op)
        if expected is None:
            return Fail(
                FailKind.UNKNOWN_OPERATION,
                Witness(
                    sequence=seq,
                    fail_index=index,
                    expected_states=tuple(consistent),
                    note=f"operation {command.op!r} not declared in model",
                ),
            )
        if not expected:
            return Fail(
                FailKind.DISABLED_ACTION,
                Witness(
                    sequence=seq,
                    fail_index=index,
                    expected_states=tuple(consistent),
                    note=(
                        "specification inconsistency: operation "
                        f"{command.op!r} not enabled in model"
                    ),
                ),
            )
        try:
            deferred = adapter.apply(command, at_time)
        except Exception as err:
            deferred = Deferred.failed(err)
        settled = deferred.wait(timeout)
        if settled is None or settled[0] != "ok":
            return _not_settled(
                settled, timeout, f"apply {command.op!r}", seq, index, tuple(expected)
            )
        raw = settled[1]
        try:
            observed = abstraction(raw)
        except Exception as err:
            return _abstraction_failed(
                err, f"apply {command.op!r}", seq, index, tuple(expected)
            )
        consistent = [s for s in expected if s == observed]
        if not consistent:
            return Fail(
                FailKind.SUT_MISMATCH,
                Witness(
                    sequence=seq,
                    fail_index=index,
                    expected_states=tuple(
                        sorted(expected, key=lambda s: s.sort_key)
                    ),
                    observed_state=observed,
                    note="observed state matches no model successor",
                ),
            )
        if obligations:
            violated = _spatial_failure(
                obligations, raw, seq, index, consistent, observed
            )
            if violated is not None:
                return violated
    return Pass()


_SPEC_SUSPECT = "suspect: specification"
_SUT_SUSPECT = "suspect: system under test (or spec; engineer judgment)"
_SPATIAL_SUSPECT = "suspect: system under test spatial behaviour"
_ABSTRACTION_SUSPECT = "suspect: specification or adapter (abstraction)"

_CLASSIFICATION = {
    FailKind.INIT_MISMATCH: _SPEC_SUSPECT,
    FailKind.DISABLED_ACTION: _SPEC_SUSPECT,
    FailKind.UNKNOWN_OPERATION: _SPEC_SUSPECT,
    FailKind.SUT_MISMATCH: _SUT_SUSPECT,
    FailKind.SUT_ERROR: _SUT_SUSPECT,
    FailKind.TIMEOUT: _SUT_SUSPECT,
    FailKind.SPATIAL_VIOLATION: _SPATIAL_SUSPECT,
    FailKind.ABSTRACTION_ERROR: _ABSTRACTION_SUSPECT,
}


def classify(result) -> str:
    """Rough blame assignment for a failure; raises on a passing result."""
    if isinstance(result, Pass):
        raise NotAFailure("cannot classify a passing result")
    if isinstance(result, Fail):
        return _CLASSIFICATION[result.kind]
    if isinstance(result, FailKind):
        return _CLASSIFICATION[result]
    raise TypeError(f"expected a check result, got {result!r}")


@dataclass(frozen=True)
class FailureRecord:
    test_index: int
    kind: FailKind
    classification: str
    original: Witness
    shrunk: Witness


@dataclass(frozen=True)
class RunReport:
    seed: int
    tests_run: int
    tests_failed: int
    failures: tuple[FailureRecord, ...]
    wall_ms: float


def run_property(
    model: StateModel,
    adapter: Optional[SutAdapter],
    abstraction: Abstraction,
    cmd_gen: Generator[CommandSequence],
    st_invariants: tuple[Invariant, ...] = (),
    num_tests: int = 100,
    seed: int = 0,
    timeout: float = 5.0,
    workers: int = 1,
    adapter_factory: Optional[Callable[[], SutAdapter]] = None,
) -> RunReport:
    """Run ``num_tests`` random sequences; shrink and record every failure.

    Each test draws from its own split of the root Rng, so results depend
    only on the seed. One adapter, from ``adapter_factory`` if given, runs
    every test in order on the calling thread. ``workers`` is validated but
    starts no thread; above 1 it needs an ``adapter_factory``, one adapter
    per worker process for a process-sharded run. A replay that times out
    leaves its SUT with work in flight, so with an ``adapter_factory`` that
    adapter is dropped and the next replay, of a test or of a shrink
    candidate, builds a fresh one; a late completion then cannot reach it.
    Without a factory the one ``adapter`` is reused, and its ``reset``
    alone must keep such work out of the next replay. The invariants are
    compiled once, and every replay judges the compiled ones.

    A failing sequence is cut after its failing command (to nothing for a
    reset-level failure), since the replay never ran the commands behind
    it, and the cut is shrunk by replaying candidates; the failure already
    seen is not replayed again. A candidate is accepted when its replay
    fails with the original kind, and is cut the same way. The shrunk
    witness is the failure of the last accepted replay, or the original
    failure if none was accepted, with the last cut as its sequence, which
    is what a replay of the cut gives.
    """
    if num_tests < 1:
        raise ValueError("num_tests must be >= 1")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if adapter is None and adapter_factory is None:
        raise ValueError("need an adapter or an adapter_factory")
    if workers > 1 and adapter_factory is None:
        raise ValueError("workers > 1 needs an adapter_factory")

    started = time.monotonic()
    root = Rng.from_seed(seed)
    obligations = _compile_obligations(st_invariants)
    sut = adapter if adapter_factory is None else None

    def replay(seq: CommandSequence) -> CheckResult:
        nonlocal sut
        if sut is None:
            sut = adapter_factory()
        result = check_against(
            model, sut, abstraction, seq, st_invariants, timeout,
            _obligations=obligations,
        )
        if adapter_factory is not None and isinstance(result, Fail) and (
            result.kind is FailKind.TIMEOUT
        ):
            sut = None
        return result

    def run_one(test_index: int, rng: Rng) -> Optional[FailureRecord]:
        seq, _ = cmd_gen.run(rng)
        result = replay(seq)
        if isinstance(result, Pass):
            return None
        kind = result.kind
        shrunk = result
        at = result.witness.fail_index
        failing = CommandSequence(seq.commands[: 0 if at is None else at + 1])

        def still_fails(candidate: CommandSequence) -> Optional[int]:
            nonlocal shrunk
            rerun = replay(candidate)
            if not isinstance(rerun, Fail) or rerun.kind != kind:
                return None
            shrunk = rerun
            at = rerun.witness.fail_index
            return 0 if at is None else at + 1

        cut = shrink_sequence(failing, still_fails)
        # ``cut`` ends where the last accepted replay diverged (or the
        # original failure, if none was), and that replay never ran the
        # commands behind it, so a replay of the cut fails the same way
        shrunk = Fail(kind, replace(shrunk.witness, sequence=cut))
        return FailureRecord(
            test_index=test_index,
            kind=kind,
            classification=classify(result),
            original=result.witness,
            shrunk=shrunk.witness,
        )

    records = []
    for test_index in range(num_tests):
        root, rng = root.split()
        records.append(run_one(test_index, rng))
    failures = tuple(r for r in records if r is not None)
    wall_ms = (time.monotonic() - started) * 1000.0
    return RunReport(
        seed=seed,
        tests_run=num_tests,
        tests_failed=len(failures),
        failures=failures,
        wall_ms=wall_ms,
    )
