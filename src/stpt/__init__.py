"""Property testing of running systems against state models, in space and time.

The pieces: a state-model layer (finite init set plus guarded named
actions, bounded behaviour enumeration), a spatio-temporal invariant
language over time windows, owners, and occupied boxes, a splittable
functional PRNG feeding timed command generators, a conformance harness
that replays commands against both model and system, classifies every
divergence, and shrinks the witness, and two simulated systems under
test with switchable faults.
"""

from .conformance import (
    AlreadyCompleted,
    CheckResult,
    Deferred,
    Fail,
    FailKind,
    FailureRecord,
    NotAFailure,
    Pass,
    RawObservation,
    RunReport,
    Witness,
    check_against,
    classify,
    run_property,
)
from .formula_text import FormulaParseError, format_invariant, parse_invariant
from .genrand import (
    Command,
    CommandSequence,
    Generator,
    InvalidRange,
    Rng,
    gen_enabled_commands,
    shrink_sequence,
)
from .spatial import (
    And,
    Box,
    CollisionWitness,
    FalseAtom,
    Implies,
    Invariant,
    NonMonotonicTrace,
    Not,
    Observation,
    OccupancyFact,
    OccupyBox,
    OccupyPoint,
    Or,
    Owner,
    TimeInterval,
    TimeWindow,
    TraceVerdict,
    TrueAtom,
    box_covered,
    box_intersection,
    check_trace,
    compile_invariant,
    detect_collisions,
    evaluate,
    normalize,
    window_intersection,
)
from .statemodel import (
    ActionSpec,
    Behaviour,
    EmptyInit,
    NeverEnabled,
    NoOpEffect,
    State,
    StateCapExceeded,
    StateModel,
    correct_behaviours,
    enabled_actions,
    format_behaviours,
    format_state,
    spec_consistency,
    step,
    successors,
)
from .suts import (
    RobotConfig,
    RobotSim,
    Suite,
    TheracSim,
    Waypoint,
    load_robot_config,
    robot_suite,
    therac_suite,
)

__version__ = "0.1.0"
