"""End-to-end acceptance checks.

Each test prints one ``criterion N: PASS/FAIL`` line with its headline
numbers, then asserts. The randomized-discovery campaign (criterion 3)
is module-scoped so the shrinking audit (criterion 4) can reuse the same
failures instead of re-running the search.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass
from unittest.mock import patch

import pytest

from helpers import oracle_behaviours, oracle_collisions, random_model, without
from stpt import (
    And,
    Box,
    Command,
    CommandSequence,
    Fail,
    FailKind,
    FalseAtom,
    Implies,
    Not,
    Observation,
    OccupancyFact,
    OccupyBox,
    OccupyPoint,
    Or,
    Owner,
    Pass,
    RobotConfig,
    State,
    TimeInterval,
    TimeWindow,
    TrueAtom,
    check_against,
    cli,
    correct_behaviours,
    detect_collisions,
    evaluate,
    gen_enabled_commands,
    normalize,
    robot_suite,
    run_property,
    therac_suite,
)
from stpt import suts
from stpt.reports import config_echo, report_to_json
from stpt.suts import OP_CURSOR_UP, OP_SELECT_ELECTRON, OP_SELECT_PHOTON

# frozen ahead of the build from a 100-seed pilot of the therac campaign:
# numTests=25 found the defect on 95/100 seeds, 50 on 100/100, 100 on
# 100/100 — so 100 tests per seed comfortably clears the >=90 threshold
CAMPAIGN_TESTS_PER_SEED = 100
CAMPAIGN_SEEDS = 100
CAMPAIGN_THRESHOLD = 90
TRIGGER = (OP_SELECT_PHOTON, OP_CURSOR_UP, OP_SELECT_ELECTRON)


def report_line(number: int, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"criterion {number}: {verdict} — {detail}")


def test_criterion_1_table_reproduction():
    started = time.perf_counter()

    def run_row(fault, init, op):
        suite = robot_suite(fault, config=RobotConfig(init=init))
        seq = CommandSequence((Command(op, 1),))
        return check_against(
            suite.model,
            suite.make_adapter(),
            suite.abstraction,
            seq,
            st_invariants=suite.st_invariants,
        )

    rows = [
        run_row("none", "Y", "initialisePosition"),
        run_row("wrongInit", "Y", "initialisePosition"),
        run_row("none", "Q", "moveToQ"),
        run_row("wrongMove", "Q", "moveToR"),
    ]
    elapsed = time.perf_counter() - started
    ok = (
        rows[0] == Pass()
        and isinstance(rows[1], Fail)
        and rows[1].kind == FailKind.INIT_MISMATCH
        and isinstance(rows[2], Fail)
        and rows[2].kind == FailKind.DISABLED_ACTION
        and isinstance(rows[3], Fail)
        and rows[3].kind == FailKind.SUT_MISMATCH
        and rows[3].witness.observed_state == State({"position": "M"})
        and elapsed < 1.0
    )
    report_line(
        1,
        ok,
        "four init-formula scenarios -> "
        f"[Pass, InitMismatch, DisabledAction, SutMismatch] in {elapsed:.3f}s",
    )
    assert ok


def test_criterion_2_deterministic_trigger():
    started = time.perf_counter()
    suite = therac_suite("sequenceBug")

    def run(t3: int):
        seq = CommandSequence(
            (
                Command(OP_SELECT_PHOTON, 1),
                Command(OP_CURSOR_UP, 3),
                Command(OP_SELECT_ELECTRON, t3 - 4),
            )
        )
        assert seq.timestamps == (1, 4, t3)
        return check_against(
            suite.model, suite.make_adapter(), suite.abstraction, seq
        )

    inside = run(8)
    outside = run(12)
    elapsed = time.perf_counter() - started
    ok = (
        isinstance(inside, Fail)
        and inside.kind == FailKind.SUT_MISMATCH
        and outside == Pass()
        and elapsed < 1.0
    )
    report_line(
        2,
        ok,
        "Photon@1/CursorUp@4/Electron@8 -> SutMismatch, Electron@12 -> Pass "
        f"in {elapsed:.3f}s",
    )
    assert ok


@dataclass
class Campaign:
    seeds_with_hit: int
    failures: list
    elapsed: float


@pytest.fixture(scope="module")
def therac_campaign() -> Campaign:
    suite = therac_suite("sequenceBug")
    gen = gen_enabled_commands(suite.model, suite.default_weights, max_len=12)
    started = time.perf_counter()
    hits = 0
    failures = []
    for seed in range(CAMPAIGN_SEEDS):
        report = run_property(
            suite.model,
            suite.make_adapter(),
            suite.abstraction,
            gen,
            num_tests=CAMPAIGN_TESTS_PER_SEED,
            seed=seed,
        )
        mismatches = [
            r for r in report.failures if r.kind == FailKind.SUT_MISMATCH
        ]
        if mismatches:
            hits += 1
        failures.extend(mismatches)
    return Campaign(hits, failures, time.perf_counter() - started)


def test_criterion_3_randomized_discovery(therac_campaign):
    ok = (
        therac_campaign.seeds_with_hit >= CAMPAIGN_THRESHOLD
        and therac_campaign.elapsed < 60.0
    )
    report_line(
        3,
        ok,
        f"defect found on {therac_campaign.seeds_with_hit}/{CAMPAIGN_SEEDS} seeds "
        f"(threshold {CAMPAIGN_THRESHOLD}, {CAMPAIGN_TESTS_PER_SEED} tests/seed) "
        f"in {therac_campaign.elapsed:.1f}s",
    )
    assert ok


def test_criterion_4_shrinking_minimality(therac_campaign):
    suite = therac_suite("sequenceBug")
    adapter = suite.make_adapter()

    def same_kind_fail(seq: CommandSequence) -> bool:
        result = check_against(suite.model, adapter, suite.abstraction, seq)
        return isinstance(result, Fail) and result.kind == FailKind.SUT_MISMATCH

    audited = 0
    bad = []
    for record in therac_campaign.failures:
        seq = record.shrunk.sequence
        stamps = seq.timestamps
        if len(seq) != 3:
            bad.append(("length", seq))
            continue
        if tuple(c.op for c in seq) != TRIGGER:
            bad.append(("ops", seq))
            continue
        if stamps[2] - stamps[0] > 8:
            bad.append(("window", seq))
            continue
        for i in range(len(seq)):
            if same_kind_fail(without(seq, i)):
                bad.append(("deletable", seq))
                break
            delay = seq.commands[i].delay
            if delay > 1 and same_kind_fail(seq.with_delay(i, delay // 2)):
                bad.append(("halvable", seq))
                break
        else:
            audited += 1
    ok = audited > 0 and not bad
    report_line(
        4,
        ok,
        f"{audited} shrunk witnesses audited: all are the 3-command trigger, "
        f"t3-t1 <= 8, no deletion or delay-halving still fails "
        f"({len(bad)} offenders)",
    )
    assert ok


def test_criterion_5_enumeration_oracle_equivalence():
    started = time.perf_counter()
    checked = 0
    for seed in range(25):
        model = random_model(seed)
        depth = 6 if seed < 5 else 4
        behaviours = correct_behaviours(model, depth)
        expected = oracle_behaviours(model, depth)
        assert len(behaviours) == len(expected)
        assert {(b.states, b.actions) for b in behaviours} == expected
        checked += 1
    elapsed = time.perf_counter() - started
    ok = checked >= 20 and elapsed < 10.0
    report_line(
        5,
        ok,
        f"{checked} randomized models match the recursive oracle "
        f"(count and content) in {elapsed:.2f}s",
    )
    assert ok


# -- criterion 6 input builders (plain stdlib randomness, no hypothesis) ----


def random_invariant(rnd: random.Random, depth: int = 3):
    choice = rnd.randrange(8 if depth > 0 else 6)
    if choice == 0:
        return TrueAtom()
    if choice == 1:
        return FalseAtom()
    if choice == 2:
        return Owner(rnd.choice(["arm", "cart", "gantry", "AreaOfInterest"]))
    if choice == 3:
        t1, t2 = rnd.randint(-20, 20), rnd.randint(-20, 20)
        return TimeInterval(TimeWindow(t1, t2))
    if choice == 4:
        return OccupyPoint(rnd.randint(-8, 8), rnd.randint(-8, 8))
    if choice == 5:
        coords = [rnd.randint(-8, 8) for _ in range(4)]
        return OccupyBox(Box(*coords))
    if choice == 6:
        if rnd.random() < 0.5:
            return Not(random_invariant(rnd, depth - 1))
        return Implies(
            random_invariant(rnd, depth - 1), random_invariant(rnd, depth - 1)
        )
    terms = tuple(
        random_invariant(rnd, depth - 1) for _ in range(rnd.randint(1, 3))
    )
    return And(terms) if rnd.random() < 0.5 else Or(terms)


def random_observation(rnd: random.Random) -> Observation:
    boxes = tuple(
        Box(*(rnd.randint(-8, 8) for _ in range(4)))
        for _ in range(rnd.randrange(4))
    )
    owner = rnd.choice(["arm", "cart", "gantry", "AreaOfInterest"])
    return Observation(rnd.randint(-20, 20), owner, boxes)


def random_facts(rnd: random.Random) -> list[OccupancyFact]:
    facts = []
    for _ in range(rnd.randint(4, 8)):
        x1, y1 = rnd.randrange(32), rnd.randrange(32)
        x2, y2 = rnd.randrange(32), rnd.randrange(32)
        t1, t2 = rnd.randrange(16), rnd.randrange(16)
        owner = rnd.choice(["a", "b", "c", "d"])
        facts.append(
            OccupancyFact(owner, TimeWindow(t1, t2), Box(x1, y1, x2, y2))
        )
    return facts


def test_criterion_6_logic_kernel_properties():
    started = time.perf_counter()
    rnd = random.Random(0xBE5BACED)
    violations = {"idempotent": 0, "eval": 0, "implies": 0, "collisions": 0}
    for _ in range(1000):
        inv = random_invariant(rnd)
        once = normalize(inv)
        if normalize(once) != once:
            violations["idempotent"] += 1
        obs = random_observation(rnd)
        if evaluate(once, obs) != evaluate(inv, obs):
            violations["eval"] += 1
        other = random_invariant(rnd)
        if evaluate(Implies(inv, other), obs) != evaluate(
            Or((Not(inv), other)), obs
        ):
            violations["implies"] += 1
    for _ in range(1000):
        facts = random_facts(rnd)
        if detect_collisions(facts) != oracle_collisions(facts):
            violations["collisions"] += 1
    elapsed = time.perf_counter() - started
    ok = not any(violations.values()) and elapsed < 30.0
    report_line(
        6,
        ok,
        "1000 cases each: normalize idempotence, eval/normalize equivalence, "
        f"implication rewrite, collision oracle — violations {violations} "
        f"in {elapsed:.1f}s",
    )
    assert ok


def test_criterion_7_byte_identical_reports(tmp_path):
    campaigns = {
        "therac": [
            "--suite", "therac25",
            "--fault", "sequenceBug",
            "--seed", "7",
            "--num-tests", "150",
        ],
        "robot": [
            "--suite", "robot",
            "--fault", "wrongMove",
            "--seed", "42",
            "--num-tests", "40",
        ],
    }
    identical = {}
    for name, args in campaigns.items():
        first = tmp_path / f"{name}-a.json"
        second = tmp_path / f"{name}-b.json"
        cli.main(args + ["--report", "json", "--out", str(first)])
        cli.main(args + ["--report", "json", "--out", str(second)])
        identical[name] = first.read_bytes() == second.read_bytes()
        json.loads(first.read_text())  # and it is valid JSON
    ok = all(identical.values())
    report_line(
        7,
        ok,
        "repeated CLI campaigns are byte-identical: "
        + ", ".join(f"{k}={v}" for k, v in sorted(identical.items())),
    )
    assert ok


WARMTH_CAMPAIGNS = {
    "therac25-sequenceBug": (therac_suite, "sequenceBug"),
    "robot-wrongMove": (robot_suite, "wrongMove"),
    "robot-none": (robot_suite, "none"),
}


@pytest.mark.parametrize("cap", [suts.ANSWER_TABLE_CAP, 3], ids=["cap", "tiny-cap"])
@pytest.mark.parametrize("name", sorted(WARMTH_CAMPAIGNS))
def test_a_report_does_not_depend_on_how_warm_the_answer_table_is(tmp_path, name, cap):
    # these campaigns meet at most a few hundred keys, so the real cap is
    # never reached, and a cap of 3 empties the table every few answers
    make_suite, fault = WARMTH_CAMPAIGNS[name]
    seed, num_tests, max_len = 11, 150, 30
    flags = ["--suite", make_suite().name, "--fault", fault, "--seed", str(seed),
             "--num-tests", str(num_tests), "--max-len", str(max_len)]
    reference = tmp_path / "cli.json"
    cli.main(flags + ["--report", "json", "--out", str(reference)])

    def campaign(suite) -> str:
        generator = gen_enabled_commands(suite.model, suite.default_weights, max_len)
        report = run_property(
            suite.model, None, suite.abstraction, generator,
            st_invariants=suite.st_invariants, num_tests=num_tests, seed=seed,
            adapter_factory=suite.make_adapter,
        )
        config = config_echo(
            suite.name, fault, num_tests, max_len, 5000, suite.default_weights, 1
        )
        return report_to_json(report, config)

    with patch.object(suts, "ANSWER_TABLE_CAP", cap):
        suite = make_suite(fault)
        # cold, then warm on the same suite, then on a fresh one
        reports = [campaign(suite), campaign(suite), campaign(make_suite(fault))]
        assert all(report == reference.read_text() for report in reports)
        replayed = tmp_path / "replay.txt"
        status = cli.main(["--replay", str(reference), "--out", str(replayed)])
    failed = json.loads(reference.read_text())["testsFailed"]
    assert (failed > 0) == (fault != "none") and status == (failed > 0)
    last = replayed.read_text().splitlines()[-1]
    assert last == f"reproduced {failed} of {failed} failures"
