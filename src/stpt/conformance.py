"""Conformance checking of a running system against a state model.

A command sequence is replayed against both the model and the system
under test (SUT). Each SUT call answers with a raw observation: settled,
in a :class:`Deferred`, or late, in a :class:`concurrent.futures.Future`. An
abstraction function maps raw observations back into model states, and
the replay tracks the model state consistent with what it saw. Spatial
obligations are evaluated against the occupancy facts each observation
reports. Failures carry a witness and a coarse classification of where
the blame likely lies.
"""

from __future__ import annotations

import threading
import time
from enum import Enum
from itertools import chain
from typing import (
    TYPE_CHECKING, Any, Callable, Generic, Iterable, Optional, Protocol, TypeVar, Union,
)

from .genrand import Command, Generator, Rng, shrink_sequence
from .spatial import (
    Invariant,
    Observation,
    OccupancyFact,
    Predicate,
    _Record,
    always_true,
    compile_invariant,
    is_int,
)
from .statemodel import State, StateModel, _row

if TYPE_CHECKING:
    from concurrent.futures import Future

A = TypeVar("A")


class NotAFailure(ValueError):
    """classify() was handed a passing result."""


class Deferred(Generic[A]):
    """A settled answer, built by :meth:`successful` or :meth:`failed`.

    A late answer is a :class:`concurrent.futures.Future` instead. A replay
    can make one per step, so the fields are slots; ``_abstracted`` is the
    memo of :func:`check_against`. One never changes, so an adapter may
    hand the same one out for several calls, as the suites' simulators do.
    """

    __slots__ = ("_outcome", "_abstracted")

    @classmethod
    def successful(cls, value: A) -> Deferred[A]:
        d: Deferred[A] = cls.__new__(cls)
        d._outcome = ("ok", value)
        d._abstracted = None
        return d

    @classmethod
    def failed(cls, error: BaseException) -> Deferred[A]:
        d: Deferred[A] = cls.__new__(cls)
        d._outcome = ("failed", error)
        d._abstracted = None
        return d

    def wait(self, timeout: Optional[float] = None) -> tuple[str, Any]:
        """The outcome: ("ok", value) or ("failed", error). It never waits."""
        return self._outcome


class RawObservation(_Record):
    """What the SUT reports after a step: payload, occupancy claims, clock.

    The harness remembers what it made of one on its :class:`Deferred`, so
    an adapter may rewrite an observation and hand it out in a fresh one.
    """

    __slots__ = _fields = ("payload", "occupancy", "clock")

    def __init__(
        self, payload: Any, occupancy: tuple[OccupancyFact, ...] = (), clock: int = 0
    ) -> None:
        object.__setattr__(self, "payload", payload)
        object.__setattr__(self, "occupancy", occupancy)
        object.__setattr__(self, "clock", clock)


class SutAdapter(Protocol):
    """Each call answers with a :class:`Deferred`, or a late one with a Future."""

    def reset(self) -> Deferred[RawObservation] | Future[RawObservation]: ...

    def apply(
        self, command: Command, at_time: int
    ) -> Deferred[RawObservation] | Future[RawObservation]: ...


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


class Witness(_Record):
    """Everything needed to understand (and replay) one failure.

    ``fail_index`` is None when the initial state already diverges.
    """

    __slots__ = _fields = (
        "sequence", "fail_index", "expected_states", "observed_state", "invariant",
        "observation", "note",
    )

    def __init__(
        self,
        sequence: tuple[Command, ...],
        fail_index: Optional[int],
        expected_states: tuple[State, ...] = (),
        observed_state: Optional[State] = None,
        invariant: Optional[Invariant] = None,
        observation: Optional[Observation] = None,
        note: str = "",
    ) -> None:
        _set_sequence(self, sequence)
        _set_fail_index(self, fail_index)
        _set_expected_states(self, expected_states)
        _set_observed_state(self, observed_state)
        _set_invariant(self, invariant)
        _set_observation(self, observation)
        _set_note(self, note)


class Pass(_Record):
    __slots__ = ()


class Fail(_Record):
    __slots__ = _fields = ("kind", "witness")

    def __init__(self, kind: FailKind, witness: Witness) -> None:
        _set_kind(self, kind)
        _set_witness(self, witness)


# a replay builds a failure for every failing candidate, so these records
# are built through their slots' own descriptors
_set_sequence = Witness.sequence.__set__
_set_fail_index = Witness.fail_index.__set__
_set_expected_states = Witness.expected_states.__set__
_set_observed_state = Witness.observed_state.__set__
_set_invariant = Witness.invariant.__set__
_set_observation = Witness.observation.__set__
_set_note = Witness.note.__set__
_set_kind = Fail.kind.__set__
_set_witness = Fail.witness.__set__

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
    the SUT. Then every step runs the same body: the SUT call (``SutError``
    if it raises, answers with neither a :class:`Deferred` nor a Future, or
    its answer fails, is cancelled or raises from ``wait``; ``Timeout`` if
    a Future is not done in time), the abstraction (``AbstractionError``),
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
    key is the Deferred, which never changes and lives as long as its
    memo, not the observation, which an adapter may rewrite for a fresh
    Deferred. A Future is abstracted at every step. The issue time of each
    command is kept as a running clock.
    A ``timeout`` is seconds: ``inf`` waits without limit and zero or less
    polls. One that is not an ``int`` or ``float``, is a ``bool`` or is
    NaN raises ValueError before the reset, as in :func:`run_property`,
    rather than failing the first wait as if the SUT had.
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
            # a Deferred is settled: an exact one is read in place, a
            # subclass through its wait; a Future is waited on
            if type(answer) is Deferred:
                settled = answer._outcome
            elif isinstance(answer, Deferred):
                settled = answer.wait(timeout)
            else:
                # imported on first use: at the top it adds about 6 ms to set-up
                from concurrent.futures import Future, TimeoutError as FutureTimeout
                if not isinstance(answer, Future):
                    got = type(answer).__qualname__
                    # the module tells, say, an asyncio Future from a Future
                    if type(answer).__module__ != "builtins":
                        got = f"{type(answer).__module__}.{got}"
                    note = f"SUT {_call(command)} returned {got}, not a Deferred or a Future"
                    return _fail(FailKind.SUT_ERROR, seq, at, expected, note=note)
                try:
                    error = answer.exception(None if timeout > threading.TIMEOUT_MAX else timeout)
                except FutureTimeout:
                    settled = None
                else:
                    settled = ("ok", answer.result()) if error is None else ("failed", error)
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


class FailureRecord(_Record):
    __slots__ = _fields = ("test_index", "kind", "classification", "original", "shrunk")

    def __init__(
        self,
        test_index: int,
        kind: FailKind,
        classification: str,
        original: Witness,
        shrunk: Witness,
    ) -> None:
        object.__setattr__(self, "test_index", test_index)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "classification", classification)
        object.__setattr__(self, "original", original)
        object.__setattr__(self, "shrunk", shrunk)


class RunReport(_Record):
    __slots__ = _fields = ("seed", "tests_run", "tests_failed", "failures", "wall_ms")

    def __init__(
        self,
        seed: int,
        tests_run: int,
        tests_failed: int,
        failures: tuple[FailureRecord, ...],
        wall_ms: float,
    ) -> None:
        object.__setattr__(self, "seed", seed)
        object.__setattr__(self, "tests_run", tests_run)
        object.__setattr__(self, "tests_failed", tests_failed)
        object.__setattr__(self, "failures", failures)
        object.__setattr__(self, "wall_ms", wall_ms)


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
        # commands behind it, so a replay of the cut fails the same way
        witness = shrunk.witness
        if witness.sequence != cut:
            witness = Witness(
                cut, witness.fail_index, witness.expected_states, witness.observed_state,
                witness.invariant, witness.observation, witness.note,
            )
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
