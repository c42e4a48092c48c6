"""Property testing of running systems against state models, in space and time.

The pieces: a state-model layer (finite init set plus guarded named
actions, bounded behaviour enumeration), a spatio-temporal invariant
language over time windows, owners, and occupied boxes, a splittable
functional PRNG feeding timed command generators, a conformance harness
that replays commands against both model and system, classifies every
divergence, and shrinks the witness, and two simulated systems under
test with switchable faults.

Importing the package runs none of its modules: each name below is
imported from its home module when it is first read (PEP 562), and kept.
So checking a trace against formula text loads only ``records``,
``spatial`` and ``formula_text``, and a therac campaign loads ``records``,
``statemodel``, ``genrand``, ``conformance`` and ``suts``: no formula
layer and no robot.
"""

# Each exported name and the module that defines it.
_HOME = {
    name: module
    for module, names in (
        ("conformance", """CheckResult Deferred Fail FailKind FailureRecord
            NotAFailure Pass RawObservation RunReport Witness check_against classify
            run_property"""),
        ("formula_text", "FormulaParseError format_invariant parse_invariant"),
        ("genrand", "Command Generator InvalidRange Rng gen_enabled_commands shrink_sequence"),
        ("spatial", """And Box CollisionWitness FalseAtom Implies Invariant NonMonotonicTrace
            Not Observation OccupancyFact OccupyBox OccupyPoint Or Owner TimeInterval
            TimeWindow TraceVerdict TrueAtom box_covered box_intersection check_trace
            compile_invariant detect_collisions evaluate normalize window_intersection"""),
        ("statemodel", """ActionSpec Behaviour EmptyInit NeverEnabled NoOpEffect State
            StateCapExceeded StateModel correct_behaviours enabled_actions format_behaviours
            format_state spec_consistency step successors"""),
        ("robot", "RobotConfig RobotSim Waypoint load_robot_config robot_suite"),
        ("suts", "Suite TheracSim therac_suite"),
    )
    for name in names.split()
}

__all__ = list(_HOME)

__version__ = "0.1.0"


def __getattr__(name: str):
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # the import statement's own machinery, unlike importlib.import_module,
    # is what -X importtime reports
    value = getattr(__import__(f"{__name__}.{home}", fromlist=(name,)), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
