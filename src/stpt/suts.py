"""The mode/beam terminal, a stand-in system under test, and what every suite shares.

:class:`TheracSim` implements the adapter contract (reset / apply
returning a :class:`~stpt.conformance.Deferred`): a radiation-therapy-style
mode/beam terminal whose optional defect leaves the beam at the photon
level when the operator switches to electron mode too quickly after a
photon selection. The planar robot arm, the other simulated system, is in
:mod:`stpt.robot`; both answer through :class:`_Simulator`.

A :class:`Suite` bundles the model, abstraction, invariants, default
operation weights, and an adapter factory for one named scenario.
"""

from __future__ import annotations

from bisect import bisect_right, insort
from typing import TYPE_CHECKING, Callable, Mapping, Optional

from .conformance import Abstraction, Deferred, RawObservation, SutAdapter
from .genrand import Command
from .records import _Record
from .statemodel import ActionSpec, State, StateModel

if TYPE_CHECKING:
    from .spatial import Invariant

FAULT_NONE = "none"
FAULT_WRONG_INIT = "wrongInit"
FAULT_WRONG_MOVE = "wrongMove"
FAULT_SEQUENCE_BUG = "sequenceBug"

# the most answers one table keeps, a suite's or a simulator's; a full
# one is emptied
ANSWER_TABLE_CAP = 1024


def _check_fault(fault: str, faults: tuple[str, ...]) -> None:
    if fault not in faults:
        raise ValueError(f"unknown fault {fault!r}; choose one of {faults}")


class Suite(_Record):
    """One named test scenario, ready for the property runner and CLI.

    ``make_adapter`` builds a fresh simulator on each call, and every
    simulator it builds answers through the suite's one answer table.
    """

    __slots__ = _fields = (
        "name", "model", "abstraction", "st_invariants", "default_weights", "make_adapter",
    )

    def __init__(
        self,
        name: str,
        model: StateModel,
        abstraction: Abstraction,
        st_invariants: tuple[Invariant, ...],
        default_weights: Mapping[str, int],
        make_adapter: Callable[[], SutAdapter],
    ) -> None:
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "model", model)
        object.__setattr__(self, "abstraction", abstraction)
        object.__setattr__(self, "st_invariants", st_invariants)
        object.__setattr__(self, "default_weights", default_weights)
        object.__setattr__(self, "make_adapter", make_adapter)


class _Simulator:
    """A simulator that answers through a table of the answers built before.

    An answer is keyed by all it depends on, the clock last: mode, beam and
    clock for the terminal, position and clock for the arm. ``_observe(key)``
    builds it on a miss; a hit gets the settled
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
        make_adapter=lambda: TheracSim(sequence_bug=bug, _answers=answers),
    )
