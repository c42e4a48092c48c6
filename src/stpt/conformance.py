"""Conformance checking of a running system against a state model.

A command sequence is replayed against both the model and the system
under test (SUT). The SUT side is asynchronous: every applied command
yields a :class:`Deferred` that completes with a raw observation. An
abstraction function maps raw observations back into model states, and
the replay tracks the model state consistent with what it saw. Spatial
obligations are evaluated against the occupancy facts each observation
reports. Failures carry a witness and a coarse classification of where
the blame likely lies.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, replace
from enum import Enum
from itertools import chain
from typing import Any, Callable, Generic, Iterable, Optional, Protocol, TypeVar, Union

from .genrand import Command, Generator, Rng, shrink_sequence
from .spatial import (
    Invariant,
    Observation,
    OccupancyFact,
    Predicate,
    always_true,
    compile_invariant,
    is_int,
)
from .statemodel import State, StateModel, _row

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
    that is resolved from the start: an outcome is never unset, so it
    needs no lock, and each builds it in one frame. A replay can make one
    per step, so the four fields are slots; ``_abstracted`` is the memo
    of :func:`check_against`. A resolved one never changes, so an adapter
    may hand the same one out for several calls, as the suites'
    simulators do for an answer they have built before.
    """

    __slots__ = ("_lock", "_pending", "_outcome", "_abstracted")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        # Held while unresolved; each waiter that gets it passes it on.
        self._pending = threading.Lock()
        self._pending.acquire()
        self._outcome: Optional[tuple[str, Any]] = None
        self._abstracted: Optional[tuple[Abstraction, State]] = None

    @classmethod
    def successful(cls, value: A) -> Deferred[A]:
        d: Deferred[A] = cls.__new__(cls)
        d._lock = d._pending = d._abstracted = None
        d._outcome = ("ok", value)
        return d

    @classmethod
    def failed(cls, error: BaseException) -> Deferred[A]:
        d: Deferred[A] = cls.__new__(cls)
        d._lock = d._pending = d._abstracted = None
        d._outcome = ("failed", error)
        return d

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

        A timeout of zero or less polls without blocking, and one above
        ``threading.TIMEOUT_MAX``, infinity included, waits without limit.
        """
        if self._outcome is None:
            # Lock.acquire reads -1 as "forever", so a negative timeout polls
            unlimited = timeout is None or timeout > threading.TIMEOUT_MAX
            limit = -1 if unlimited else max(timeout, 0)
            if self._pending.acquire(timeout=limit):
                self._pending.release()
        # None only on timeout: a poll that lost the lock to another waiter
        # still finds the outcome, which is set before the lock is released
        return self._outcome


@dataclass(frozen=True)
class RawObservation:
    """What the SUT reports after a step: payload, occupancy claims, clock.

    The harness remembers what it made of one on its :class:`Deferred`, so
    an adapter may rewrite an observation and hand it out in a fresh one.
    """

    payload: Any
    occupancy: tuple[OccupancyFact, ...] = ()
    clock: int = 0


class SutAdapter(Protocol):
    def reset(self) -> Deferred[RawObservation]: ...

    def apply(self, command: Command, at_time: int) -> Deferred[RawObservation]: ...


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

    sequence: tuple[Command, ...]
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


def _fail(
    kind: FailKind,
    seq: tuple[Command, ...],
    fail_index: Optional[int],
    expected: Iterable[State],
    observed: Optional[State] = None,
    note: str = "",
    invariant: Optional[Invariant] = None,
    observation: Optional[Observation] = None,
) -> Fail:
    """The one constructor of every failure ``check_against`` returns."""
    witness = Witness(
        seq, fail_index, tuple(expected), observed, invariant, observation, note
    )
    return Fail(kind, witness)


def _call(command: Optional[Command]) -> str:
    """How a note names the SUT call of a step: the reset or one apply."""
    return "reset" if command is None else f"apply {command.op!r}"


def _check_timeout(timeout: object) -> None:
    """Raise ValueError unless ``timeout`` is an int or float, not a bool, and not NaN."""
    if not isinstance(timeout, (int, float)) or isinstance(timeout, bool):
        raise ValueError(f"timeout must be an int or float of seconds, got {timeout!r}")
    if timeout != timeout:  # only NaN differs from itself
        raise ValueError("timeout must not be NaN")


def check_against(
    model: StateModel,
    adapter: SutAdapter,
    abstraction: Abstraction,
    seq: Iterable[Command],
    st_invariants: tuple[Invariant, ...] = (),
    timeout: float = 5.0,
    *,
    _obligations: Optional[list[tuple[Invariant, Predicate]]] = None,
) -> CheckResult:
    """Replay ``seq`` against model and SUT; first divergence wins.

    ``seq`` is any iterable of commands, read once into a tuple, which
    every witness of the replay holds.
    The replay is one loop: the reset is its first step and each command
    one more. A command step asks the model first, so an operation it
    rejects (unknown, or disabled in the consistent state) never reaches
    the SUT. Then every step runs the same body: the SUT call
    (``Timeout`` if it does not settle, ``SutError`` if it raises, answers
    with anything but a :class:`Deferred`, or its Deferred fails or
    raises from ``wait``), the abstraction (``AbstractionError`` if it raises),
    the match (``InitMismatch`` at the reset, ``SutMismatch`` after it)
    and the invariants, judged as given on the step's occupancy
    (``SpatialViolation``, or ``SutError`` if the occupancy cannot be
    grouped or judged). One that folds to TRUE is never judged, so it
    never reads the occupancy. A reset-step failure has no ``fail_index``.
    A one-off call compiles the invariants once, right after the init
    match; ``_obligations`` is what ``_compile_obligations`` made of
    ``st_invariants``, for a caller that replays many sequences.

    The model's expected states are distinct, so the match leaves at most
    one consistent state: its memoised row is the whole subset step. The
    match tries identity before equality, and equal states are one object
    (see :class:`~stpt.statemodel.State`), so whatever the abstraction, a
    match hits on identity unless two threads built the state at once. An
    answer of type :class:`Deferred` (no subclass) keeps ``(abstraction,
    state)`` in its ``_abstracted`` slot, unless the abstraction raised, so
    a step that gets it back with the same abstraction skips the call. The
    key is the Deferred, which never changes once resolved and lives as
    long as its memo, not the observation, which an adapter may rewrite
    for a fresh Deferred. The issue time of each command is kept as a
    running clock.
    A ``timeout`` is seconds: ``inf`` waits without limit and zero or less
    polls. One that is not an ``int`` or ``float``, is a ``bool`` or is
    NaN raises ValueError before the reset, as in :func:`run_property`,
    rather than failing the first ``wait`` as if the SUT had.
    """
    _check_timeout(timeout)
    seq = tuple(seq)
    obligations = _obligations
    rows = model._rows
    at_time = 0
    # the reset is step (None, None): no fail_index and no command; its
    # match sets ``state`` before any command step reads it
    for at, command in chain(((None, None),), enumerate(seq)):
        if command is None:
            expected = model.init
        else:
            at_time += command.delay
            row = rows.get(state)
            if row is None:
                row = _row(model, state)
            expected = row.get(command.op, ())
            if not expected:
                if command.op not in model._names:
                    note = f"operation {command.op!r} not declared in model"
                    return _fail(FailKind.UNKNOWN_OPERATION, seq, at, (state,), note=note)
                note = (
                    "specification inconsistency: operation "
                    f"{command.op!r} not enabled in model"
                )
                return _fail(FailKind.DISABLED_ACTION, seq, at, (state,), note=note)
        try:
            answer = adapter.reset() if command is None else adapter.apply(command, at_time)
            # a resolved Deferred is read in place; any other is waited on
            if type(answer) is Deferred and answer._outcome is not None:
                settled = answer._outcome
            elif isinstance(answer, Deferred):
                settled = answer.wait(timeout)
            else:
                note = f"SUT {_call(command)} returned {answer!r}, not a Deferred"
                return _fail(FailKind.SUT_ERROR, seq, at, expected, note=note)
        except Exception as err:
            settled = ("failed", err)
        if settled is None:
            note = f"{_call(command)} did not complete within {timeout}s"
            return _fail(FailKind.TIMEOUT, seq, at, expected, note=note)
        if settled[0] != "ok":
            note = f"SUT {_call(command)} raised {settled[1]!r}"
            return _fail(FailKind.SUT_ERROR, seq, at, expected, note=note)
        raw = settled[1]
        exact = type(answer) is Deferred
        known = answer._abstracted if exact else None
        if known is not None and known[0] is abstraction:
            observed = known[1]
        else:
            try:
                observed = abstraction(raw)
            except Exception as err:
                note = f"abstraction raised {err!r} on the observation of {_call(command)}"
                return _fail(FailKind.ABSTRACTION_ERROR, seq, at, expected, note=note)
            if exact:
                answer._abstracted = (abstraction, observed)
        for state in expected:
            if state is observed or state == observed:
                break
        else:
            if command is None:
                note = "initial SUT state is not an init state of the model"
                return _fail(FailKind.INIT_MISMATCH, seq, at, expected, observed, note)
            # a sort key spells out every binding, and each failing shrink
            # candidate reaches this line again
            if len(expected) > 1:
                expected = sorted(expected, key=lambda s: s.sort_key)
            note = "observed state matches no model successor"
            return _fail(FailKind.SUT_MISMATCH, seq, at, expected, observed, note)
        if obligations is None:
            obligations = _compile_obligations(st_invariants)
        if not obligations:
            continue
        try:
            observations = _spatial_observations(raw)
            for invariant, holds in obligations:
                for observation in observations:
                    if not holds(observation):
                        note = "spatial obligation violated"
                        return _fail(
                            FailKind.SPATIAL_VIOLATION, seq, at, (state,),
                            observed, note, invariant, observation,
                        )
        except Exception as err:
            note = f"{_call(command)} reported occupancy that cannot be judged: {err!r}"
            return _fail(FailKind.SUT_ERROR, seq, at, (state,), observed, note)
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
    cmd_gen: Generator[Iterable[Command]],
    st_invariants: tuple[Invariant, ...] = (),
    num_tests: int = 100,
    seed: int = 0,
    timeout: float = 5.0,
    workers: int = 1,
    adapter_factory: Optional[Callable[[], SutAdapter]] = None,
) -> RunReport:
    """Run ``num_tests`` random sequences; shrink and record every failure.

    Each test draws from its own split of the root Rng, so results depend
    only on the seed. ``cmd_gen`` may draw any iterable of commands; each is
    read once into a tuple. One adapter, from ``adapter_factory`` if given,
    runs every test in order on the calling thread. ``workers`` is ignored;
    it stays only because bench/run.py still passes it. A replay that times
    out leaves its SUT with work in flight, so that adapter is dropped and
    the next replay, of a test or of a shrink candidate, asks the factory
    for one; a late completion then cannot reach a fresh one. A lone
    ``adapter`` is its own factory, so it is handed back, and its ``reset``
    alone must keep such work out of the next replay. The invariants are
    compiled once, and every replay judges the compiled ones.

    A failing sequence is cut after its failing command (to nothing for a
    reset-level failure), since the replay never ran the commands behind
    it, and the cut is shrunk by replaying candidates; the failure already
    seen is not replayed again, nor is a deletion that leaves a proper
    prefix of the cut, which the failing replay showed to pass. A
    candidate is accepted when its replay fails with the original kind,
    and is cut the same way. The shrunk witness is the failure of the last
    accepted replay, or the original failure if none was accepted, with
    the last cut as its sequence, which is what a replay of the cut gives.
    Against a SUT that is not deterministic the witness is still that
    replay's failure; only the verdict on a deletion that leaves a prefix
    is taken from an earlier replay instead of a new one.
    """
    for name, value in (("num_tests", num_tests), ("seed", seed)):
        if not is_int(value):
            raise ValueError(f"{name} must be an integer, got {value!r}")
    if num_tests < 1:
        raise ValueError("num_tests must be >= 1")
    _check_timeout(timeout)
    if adapter is None and adapter_factory is None:
        raise ValueError("need an adapter or an adapter_factory")

    started = time.monotonic()
    root = Rng.from_seed(seed)
    obligations = _compile_obligations(st_invariants)
    factory = adapter_factory or (lambda: adapter)
    sut = None

    def replay(seq: tuple[Command, ...]) -> CheckResult:
        nonlocal sut
        if sut is None:
            sut = factory()
        result = check_against(
            model, sut, abstraction, seq, st_invariants, timeout,
            _obligations=obligations,
        )
        if isinstance(result, Fail) and result.kind is FailKind.TIMEOUT:
            sut = None
        return result

    def run_one(test_index: int, rng: Rng) -> Optional[FailureRecord]:
        seq = tuple(cmd_gen.run(rng)[0])
        result = replay(seq)
        if isinstance(result, Pass):
            return None
        kind = result.kind
        shrunk = result
        at = result.witness.fail_index
        failing = seq[: 0 if at is None else at + 1]

        def still_fails(candidate: tuple[Command, ...]) -> Optional[int]:
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
        # commands behind it, so a replay of the cut fails the same way;
        # ``replace`` rebuilds the frozen witness field by field
        witness = shrunk.witness
        if witness.sequence != cut:
            witness = replace(witness, sequence=cut)
        return FailureRecord(
            test_index=test_index,
            kind=kind,
            classification=classify(result),
            original=result.witness,
            shrunk=witness,
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
