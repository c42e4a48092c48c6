"""Campaign benchmark for stpt: throughput, set-up cost and memory per workload.

Usage:
    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

The program is imported from ``src/`` next to this directory, and the run
stops with an error if it is not there. Each workload runs whole rounds
of the same operations for ``--seconds`` seconds with tracing off, and
checks every output against the oracles in ``oracles.py`` outside the
timed region. With ``--trace 1`` one more round runs with every layer
boundary wrapped, its spans are written under ``bench/out/`` and the
per-layer metrics are reported instead of the end-to-end ones. The last
line of output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
import threading
import traceback
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path
from time import perf_counter

import oracles
import tracing
import workloads
from workloads import CAMPAIGNS, TIMEOUT_MS, TRACE_CHECK, WORKLOADS

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
OUT = BENCH / "out"
SETUP_PROBES = 9
# The traced round covers at most this many chunks, which keeps its spans
# (about 330 per therac-seqbug test) to a few hundred thousand.
TRACED_CHUNKS = 18

FIRES = {
    "therac-seqbug": oracles.therac_stale_beam,
    "robot-clean": lambda seq: None,
    "robot-wrongmove-2w": oracles.robot_wrong_move,
}
# A command that each suite's model allows anywhere, used to pad a
# witness in the self-test of the minimality check.
PAD = {"therac25": "OtherKindOfOperation", "robot": oracles.INITIALISE}


def say(line: str) -> None:
    print(line, flush=True)


def load_stpt() -> dict:
    """The ``stpt`` package and its modules, imported from ``src/`` only."""
    sys.path.insert(0, str(SRC))
    try:
        import stpt
    except ImportError as err:
        sys.exit(f"cannot import stpt from {SRC}: {err}")
    if Path(stpt.__file__).resolve().parent != SRC / "stpt":
        sys.exit(f"stpt was imported from {stpt.__file__}, not from {SRC}")
    modules = {"": stpt}
    for name in tracing.MODULES:
        modules[name] = importlib.import_module(f"stpt.{name}")
    return modules


def setup_probe(workload: str, seed: int) -> float:
    """Seconds one fresh interpreter takes to set the workload up."""

    def probe():
        done = subprocess.run(
            [sys.executable, str(BENCH / "setup_probe.py"), workload, str(seed)],
            capture_output=True, text=True, timeout=120,
        )
        if done.returncode != 0:
            sys.exit(f"set-up probe failed: {done.stderr.strip()}")
        return float(done.stdout.split()[-1]), None

    return reference_seconds(probe)[0]


def cpu_seconds() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int) -> None:
        self.a = a
        self.b = b

    def step(self, x: int) -> _Pair:
        return _Pair(self.b, x + self.a)


def _calibration_work() -> None:
    total = 0
    table = {}
    for i in range(20000):
        total += i * i % 7
        table[i & 255] = total
    pair = _Pair(0, 1)
    kept = []
    for i in range(6000):
        pair = pair.step(i)
        kept.append((pair.a, str(i)[:1]))
        if len(kept) > 64:
            kept = sorted(kept)[:8]


def calibration_s(threads: int = 1) -> float:
    """Seconds a fixed piece of pure-Python work takes right now.

    Loops, dict stores, small objects, method calls, tuples and sorting:
    the interpreter work the program does, with none of its code. With
    several threads each does the whole work, contending for the
    interpreter lock as the program's worker threads do.
    """
    started = perf_counter()
    if threads == 1:
        _calibration_work()
    else:
        workers = [threading.Thread(target=_calibration_work) for _ in range(threads)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
    return perf_counter() - started


# calibration_s() on the reference machine (README) at its full speed; the
# interpreter lock makes n threads take n times as long at best
CALIBRATION_REFERENCE_S = 0.006


def reference_seconds(measure, threads: int = 1) -> tuple[float, object]:
    """``measure()`` -> (seconds, output), rescaled to the reference speed.

    The processor of a shared machine runs for tens of seconds at one
    speed and then at down to half of it, for the whole process alike
    (process CPU time tracks wall time throughout). The calibration, on
    as many threads as the measured work uses, is timed right before and
    right after, and the measured seconds are scaled by the reference
    calibration time over their mean.
    """
    before = calibration_s(threads)
    seconds, out = measure()
    after = calibration_s(threads)
    return seconds * CALIBRATION_REFERENCE_S * threads * 2.0 / (before + after), out


class Rounds:
    """Timed rounds of fixed chunks of work.

    Each chunk's time is rescaled to the reference speed, and a round's
    time is the sum over chunks of each chunk's median over the rounds.
    """

    def __init__(self, chunks: list, threads: int = 1) -> None:
        self.chunks = chunks
        self.threads = threads
        self.times: list[list[float]] = [[] for _ in chunks]
        self.count = 0
        self.wall = 0.0
        self.cpu = 0.0

    def _time(self, chunk):
        c0 = cpu_seconds()
        t0 = perf_counter()
        out = chunk()
        seconds = perf_counter() - t0
        self.cpu += cpu_seconds() - c0
        self.wall += seconds
        return seconds, out

    def run(self, seconds: int, after) -> None:
        """Run rounds until ``seconds`` have passed; ``after`` runs untimed."""
        started = perf_counter()
        while True:
            outputs = []
            for index, chunk in enumerate(self.chunks):
                scaled, out = reference_seconds(lambda: self._time(chunk), self.threads)
                self.times[index].append(scaled)
                outputs.append(out)
            self.count += 1
            after(outputs)
            if perf_counter() - started >= seconds:
                return

    @property
    def round_s(self) -> float:
        return self.round_s_of(len(self.chunks))

    def round_s_of(self, chunks: int) -> float:
        """Round time of the first ``chunks`` chunks."""
        return sum(statistics.median(times) for times in self.times[:chunks])

    @property
    def cpu_per_wall(self) -> float:
        return self.cpu / self.wall


def guarded(fn):
    """``fn()``, or the exception it raised, with its traceback logged."""
    try:
        return fn()
    except Exception as err:  # the run goes on; the chunk's operations fail
        traceback.print_exc()
        return err


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# Campaign workloads


def pairs(seq) -> list[tuple[str, int]]:
    return [(c.op, c.delay) for c in seq]


def generated_sequences(stpt, gen, seed: int, tests: int) -> list[list[tuple[str, int]]]:
    """The sequence of every test, drawn as ``run_property`` documents:
    test ``i`` runs the generator on the ``i``-th split of the seed's Rng."""
    root = stpt.Rng.from_seed(seed)
    out = []
    for _ in range(tests):
        root, child = root.split()
        seq, _ = gen.run(child)
        out.append(pairs(seq))
    return out


def campaign_problems(report, seqs, expected, fires, single_move) -> tuple[dict, list]:
    """Tests whose outcome the oracle rejects, and faults of the report as a whole."""
    records = {r.test_index: r for r in report.failures}
    whole = []
    if report.tests_run != len(seqs) or report.tests_failed != len(report.failures):
        whole.append("report counts do not match its tests and failures")
    if set(records) - set(range(len(seqs))) or len(records) != len(report.failures):
        whole.append("report has failures outside its tests or twice for one test")
    bad = {}
    for index, (seq, at) in enumerate(zip(seqs, expected)):
        record = records.get(index)
        if at is None:
            if record is not None:
                bad[index] = f"failed with {record.kind.value}; the oracle passes it"
            continue
        if record is None:
            bad[index] = f"passed; the oracle fails it at command {at}"
            continue
        reasons = []
        if record.kind.value != "SutMismatch":
            reasons.append(f"kind {record.kind.value}, expected SutMismatch")
        if pairs(record.original.sequence) != seq:
            reasons.append("original witness is not the generated sequence")
        if record.original.fail_index != at:
            reasons.append(f"original failIndex {record.original.fail_index}, oracle {at}")
        shrunk = pairs(record.shrunk.sequence)
        reasons += oracles.witness_problems(shrunk, record.shrunk.fail_index, fires)
        if single_move and not (
            len(shrunk) == 1 and shrunk[0][0].startswith(oracles.MOVE) and shrunk[0][1] == 1
        ):
            reasons.append(f"shrunk witness {shrunk} is not one move with delay 1")
        if reasons:
            bad[index] = "; ".join(reasons)
    return bad, whole


def failure_keys(report) -> list[tuple]:
    return [
        (r.test_index, r.kind.value, tuple(pairs(r.shrunk.sequence)),
         r.original.fail_index, r.shrunk.fail_index)
        for r in report.failures
    ]


@contextmanager
def counting_replays(conformance):
    """Count the ``check_against`` replays ``run_property`` makes while shrinking."""
    original = conformance.shrink_sequence
    count = {"replays": 0}
    lock = threading.Lock()

    def shrink_sequence(seq, fails):
        def counted(candidate):
            with lock:
                count["replays"] += 1
            return fails(candidate)

        return original(seq, counted)

    conformance.shrink_sequence = shrink_sequence
    try:
        yield count
    finally:
        conformance.shrink_sequence = original


def footprint_problems(config) -> list[str]:
    workspace = config.workspace.normalized().as_tuple()
    return [
        f"footprint of {name} leaves the workspace"
        for name, waypoint in sorted(config.waypoints.items())
        if not oracles.box_inside(waypoint.footprint.normalized().as_tuple(), workspace)
    ]


def run_campaign(name: str, seed: int, seconds: int, trace: bool, mods: dict) -> dict:
    stpt = mods[""]
    render = mods["reports"].report_to_json
    spec = CAMPAIGNS[name]
    suite = workloads.build_suite(stpt, spec)
    gen = stpt.gen_enabled_commands(suite.model, suite.default_weights, spec.max_len)
    config = mods["reports"].config_echo(
        suite.name, spec.fault, spec.chunk_tests, spec.max_len, TIMEOUT_MS,
        suite.default_weights, spec.workers,
    )
    fires = FIRES[name]
    single_move = name == "robot-wrongmove-2w"
    seeds = [workloads.chunk_seed(seed, j) for j in range(spec.chunks)]
    seqs = [generated_sequences(stpt, gen, s, spec.chunk_tests) for s in seeds]
    expected = [[fires(seq) for seq in chunk] for chunk in seqs]

    def campaign(j, workers=spec.workers, cmd_gen=gen, factory=suite.make_adapter,
                 abstraction=suite.abstraction):
        return mods["conformance"].run_property(
            suite.model, None, abstraction, cmd_gen,
            st_invariants=suite.st_invariants, num_tests=spec.chunk_tests, seed=seeds[j],
            timeout=TIMEOUT_MS / 1000.0, workers=workers, adapter_factory=factory,
        )

    problems: list[str] = []
    reference, replays = [], []
    with counting_replays(mods["conformance"]) as count:
        for j in range(spec.chunks):
            reference.append(campaign(j))
            replays.append(count["replays"])
    reference_json = [render(report, config) for report in reference]
    shrunk = [r.shrunk for report in reference for r in report.failures]
    shrink_calls = replays[-1] / len(shrunk) if shrunk else 0.0
    witness_len = statistics.fmean(len(w.sequence) for w in shrunk) if shrunk else 0.0
    if spec.workers > 1:
        for j, report in enumerate(reference):
            if failure_keys(campaign(j, workers=1)) != failure_keys(report):
                problems.append(f"chunk {j}: failures differ from the same campaign at 1 worker")
    if suite.name == "robot":
        problems += footprint_problems(stpt.RobotConfig())
    j = next((j for j, report in enumerate(reference) if report.failures), 0)
    missed = self_test_campaign(
        stpt, reference[j], seqs[j], expected[j], fires, single_move, suite.name
    )
    say(f"self-tests: {len(missed)} broken inputs went unnoticed")
    problems += missed

    tally = {"attempted": 0, "failed": 0}

    def after(reports):
        for j, report in enumerate(reports):
            tally["attempted"] += spec.chunk_tests
            if isinstance(report, Exception):
                tally["failed"] += spec.chunk_tests
                continue
            bad, whole = campaign_problems(report, seqs[j], expected[j], fires, single_move)
            tally["failed"] += len(bad)
            problems.extend(f"chunk {j} test {i}: {why}" for i, why in sorted(bad.items())[:3])
            problems.extend(f"chunk {j}: {why}" for why in whole)
            if render(report, config) != reference_json[j]:
                problems.append(f"chunk {j}: a same-seed run rendered a different JSON report")

    rounds = Rounds(
        [lambda j=j: guarded(lambda: campaign(j)) for j in range(spec.chunks)], spec.workers
    )
    setup = timed(rounds, seconds, after, name, seed, probe=not trace)
    say(f"workload {name} seed {seed}: {rounds.count} rounds of {spec.chunks} chunks "
        f"of {spec.chunk_tests} tests; {len(shrunk)} of {spec.tests} tests fail")
    figures = {
        "ops_per_s": spec.tests / rounds.round_s,
        "shrink_calls_per_failure": shrink_calls,
        "witness_len": witness_len,
    }
    if not trace:
        return finish(tally, problems, figures, setup, None)

    tracer = tracing.Tracer()
    generate = tracer.wrap("genrand.generate", gen.run)

    def run_generator(rng):
        tracer.begin_test()
        out = generate(rng)
        tracer.last_span()[tracing.VALUE] = len(out[0])
        return out

    traced_chunks = min(spec.chunks, TRACED_CHUNKS)
    speed = calibration_s(spec.workers)
    with tracing.instrument(tracer, mods):
        t0 = perf_counter()
        traced = [
            campaign(
                j,
                cmd_gen=stpt.Generator(run_generator),
                factory=lambda: tracing.TracedAdapter(tracer, suite.make_adapter()),
                abstraction=tracer.wrap("suts.abstraction", suite.abstraction),
            )
            for j in range(traced_chunks)
        ]
        t1 = perf_counter()
        tracer.end_tests()
        rendered = [mods["reports"].report_to_json(report, config) for report in traced]
    if rendered != reference_json[:traced_chunks]:
        problems.append("the traced run rendered a different JSON report")
    spans = tracer.spans()
    layers = layer_metrics(spans, t0, t1, spec.workers)
    if layers["genrand.shrink_attempts"][0] != replays[traced_chunks - 1]:
        problems.append("traced shrink replays differ from the counted ones")
    layers.update({
        "conformance.cpu_per_wall": (rounds.cpu_per_wall, "s/s"),
        "trace.overhead_ratio": (overhead(t1 - t0, speed, rounds, traced_chunks), "ratio"),
        "shrink_calls_per_failure": (shrink_calls, "calls"),
        "witness_len": (witness_len, "commands"),
        "judgments_per_s": (0.0, "judgments/s"),
    })
    write_spans(tracer, name, seed)
    return finish(tally, problems, figures, None, layers)


def self_test_campaign(stpt, reference, seqs, expected, fires, single_move, suite) -> list[str]:
    """Feed the checks broken inputs; each must be caught."""
    missed = []
    flipped = list(expected)
    flipped[0] = 0 if expected[0] is None else None
    bad, _ = campaign_problems(reference, seqs, flipped, fires, single_move)
    if 0 not in bad:
        missed.append("a verdict the oracle contradicts went unnoticed")
    if reference.failures:
        witness = reference.failures[0].shrunk
        padded = [(PAD[suite], 1)] + pairs(witness.sequence)
        if not oracles.witness_problems(padded, witness.fail_index + 1, fires):
            missed.append("a witness with one extra command went unnoticed")
    if suite == "robot":
        config = stpt.RobotConfig()
        name, waypoint = sorted(config.waypoints.items())[0]
        far = replace(waypoint.footprint, x1=waypoint.footprint.x1 + 1000,
                      x2=waypoint.footprint.x2 + 1000)
        config.waypoints[name] = replace(waypoint, footprint=far)
        if not footprint_problems(config):
            missed.append("a footprint outside the workspace went unnoticed")
    return [f"self-test: {m}" for m in missed]


# ---------------------------------------------------------------------------
# trace-check


def verdict_problems(verdicts, expected) -> dict:
    bad = {}
    for index, (verdict, at) in enumerate(zip(verdicts, expected)):
        if isinstance(verdict, Exception):
            bad[index] = f"check_trace raised {verdict!r}"
        elif verdict.holds != (at is None) or verdict.first_violation != at:
            bad[index] = f"{verdict}, but the oracle finds the first violation at {at}"
    return bad


def run_trace_check(seed: int, seconds: int, trace: bool, mods: dict) -> dict:
    stpt = mods[""]
    inputs = workloads.trace_inputs(seed)
    parse = mods["formula_text"].parse_invariant
    parse_bad = {}
    formulas = []
    for index, (text, canonical) in enumerate(zip(inputs.texts, inputs.canonical)):
        try:
            formula = parse(text)
        except Exception as err:  # counted as a failed operation
            parse_bad[index] = f"parse raised {err!r}"
            formula = None
        else:
            if mods["formula_text"].format_invariant(formula) != canonical:
                parse_bad[index] = "format(parse(text)) is not the normal form"
        formulas.append(formula)
    observations = workloads.build_trace(stpt, inputs.trace)
    expected = [oracles.first_violation(f, inputs.trace) for f in inputs.formulas]
    judgments = sum(len(observations) if at is None else at + 1 for at in expected)
    violated = sum(at is not None for at in expected)
    check_trace = mods["spatial"].check_trace

    def check(batch):
        verdicts = []
        for formula in batch:
            try:
                verdicts.append(check_trace(formula, observations))
            except Exception as err:  # counted as a failed operation
                verdicts.append(err)
        return verdicts

    problems = []
    flipped = list(expected)
    flipped[0] = 0 if expected[0] is None else None
    missed = 0 not in verdict_problems(check(formulas), flipped)
    say(f"self-tests: {int(missed)} broken inputs went unnoticed")
    if missed:
        problems.append("self-test: a verdict the oracle contradicts went unnoticed")
    tally = {"attempted": 0, "failed": 0}

    def after(outputs):
        verdicts = [v for chunk in outputs for v in chunk]
        bad = {**verdict_problems(verdicts, expected), **parse_bad}
        tally["attempted"] += len(formulas)
        tally["failed"] += len(bad)
        problems.extend(f"formula {i}: {why}" for i, why in sorted(bad.items())[:3])

    size = workloads.CHUNK_FORMULAS
    batches = [formulas[i:i + size] for i in range(0, len(formulas), size)]
    rounds = Rounds([lambda b=b: check(b) for b in batches])
    setup = timed(rounds, seconds, after, TRACE_CHECK, seed, probe=not trace)
    normal = sum(t == c for t, c in zip(inputs.texts, inputs.canonical))
    say(f"workload trace-check seed {seed}: {rounds.count} rounds of {len(formulas)} "
        f"formulas ({normal} already in normal form, {violated} violated) "
        f"over {len(observations)} observations")
    figures = {
        "ops_per_s": len(formulas) / rounds.round_s,
        "judgments_per_s": judgments / rounds.round_s,
    }
    if not trace:
        return finish(tally, problems, figures, setup, None)

    tracer = tracing.Tracer()
    speed = calibration_s()
    with tracing.instrument(tracer, mods):
        t0 = perf_counter()
        parsed = []
        for text in inputs.texts:
            tracer.begin_test()
            parsed.append(mods["formula_text"].parse_invariant(text))
        t1 = perf_counter()
        verdicts = []
        for formula in parsed:
            tracer.begin_test()
            verdicts.append(mods["spatial"].check_trace(formula, observations))
        t2 = perf_counter()
        tracer.end_tests()
    if parsed != formulas or verdict_problems(verdicts, expected):
        problems.append("the traced run gave different formulas or verdicts")
    layers = layer_metrics(tracer.spans(), t0, t2, 1)
    layers.update({
        "conformance.cpu_per_wall": (rounds.cpu_per_wall, "s/s"),
        "trace.overhead_ratio": (overhead(t2 - t1, speed, rounds, len(batches)), "ratio"),
        "shrink_calls_per_failure": (0.0, "calls"),
        "witness_len": (0.0, "commands"),
        "judgments_per_s": (figures["judgments_per_s"], "judgments/s"),
    })
    write_spans(tracer, TRACE_CHECK, seed)
    return finish(tally, problems, figures, None, layers)


# ---------------------------------------------------------------------------
# Timing, per-layer metrics and the result


def timed(rounds: Rounds, seconds: int, after, name: str, seed: int, probe: bool):
    """Run the rounds; with ``probe``, time a fresh set-up after each round.

    Returns the median set-up seconds, or None without ``probe``. The
    probes are spread over the run, so its median set-up time sees the
    same mix of processor speeds as its rounds; the first probe, which
    may compile bytecode, is not counted.
    """
    samples = []

    def after_round(outputs):
        after(outputs)
        if probe:
            samples.append(setup_probe(name, seed))

    if probe:
        setup_probe(name, seed)
    rounds.run(seconds, after_round)
    while probe and len(samples) < SETUP_PROBES:
        samples.append(setup_probe(name, seed))
    return statistics.median(samples) if probe else None


def overhead(traced_s: float, speed_before: float, rounds: Rounds, chunks: int) -> float:
    """Traced time of the first ``chunks`` chunks over their untraced time,
    both at the reference speed."""
    speed = (speed_before + calibration_s(rounds.threads)) / 2.0
    untraced = rounds.round_s_of(chunks)
    return traced_s * CALIBRATION_REFERENCE_S * rounds.threads / speed / untraced


def layer_metrics(spans, t0: float, t1: float, workers: int) -> dict:
    """Counts and self times per layer from one traced round's spans.

    ``trace.accounted_share`` is the layers' summed self time over the
    traced wall time of the round times the worker count: the share of
    the round the spans explain.
    """
    totals = tracing.layer_totals(spans)

    def calls(span):
        return totals.get(span, {}).get("calls", 0)

    def ms(span):
        return totals.get(span, {}).get("self_s", 0.0) * 1000.0

    attempts = tracing.calls_under(spans, "conformance.check_against", "genrand.shrink_sequence")
    accepted = totals.get("genrand.shrink_sequence", {}).get("value", 0)
    explained = sum(
        entry["self_s"] for span, entry in totals.items()
        if span not in (tracing.ROOT, "reports.report_to_json")
    )
    return {
        "genrand.generate_ms": (ms("genrand.generate"), "ms"),
        "genrand.commands_generated": (totals.get("genrand.generate", {}).get("value", 0), "count"),
        "genrand.shrink_ms": (ms("genrand.shrink_sequence"), "ms"),
        "genrand.shrink_attempts": (attempts, "count"),
        "genrand.shrink_accepted": (accepted, "count"),
        "genrand.shrink_accept_ratio": (accepted / attempts if attempts else 0.0, "ratio"),
        "statemodel.step_calls": (calls("statemodel.step"), "count"),
        "statemodel.step_ms": (ms("statemodel.step"), "ms"),
        "statemodel.enabled_calls": (calls("statemodel.enabled_actions"), "count"),
        "statemodel.enabled_ms": (ms("statemodel.enabled_actions"), "ms"),
        "conformance.check_calls": (calls("conformance.check_against"), "count"),
        "conformance.check_self_ms": (ms("conformance.check_against"), "ms"),
        "conformance.wait_ms": (ms("conformance.Deferred.wait"), "ms"),
        "suts.apply_calls": (calls("suts.apply"), "count"),
        "suts.apply_ms": (ms("suts.apply"), "ms"),
        "suts.reset_calls": (calls("suts.reset"), "count"),
        "suts.reset_ms": (ms("suts.reset"), "ms"),
        "suts.abstraction_ms": (ms("suts.abstraction"), "ms"),
        "spatial.normalize_calls": (calls("spatial.normalize"), "count"),
        "spatial.normalize_ms": (ms("spatial.normalize"), "ms"),
        "spatial.evaluate_calls": (calls("spatial.evaluate"), "count"),
        "spatial.evaluate_ms": (ms("spatial.evaluate"), "ms"),
        "spatial.box_covered_calls": (calls("spatial.box_covered"), "count"),
        "spatial.box_covered_ms": (ms("spatial.box_covered"), "ms"),
        "spatial.check_trace_ms": (ms("spatial.check_trace"), "ms"),
        "formula_text.parse_calls": (calls("formula_text.parse_invariant"), "count"),
        "formula_text.parse_ms": (ms("formula_text.parse_invariant"), "ms"),
        "reports.render_ms": (ms("reports.report_to_json"), "ms"),
        "trace.accounted_share": (explained / ((t1 - t0) * workers), "ratio"),
    }


def write_spans(tracer, name: str, seed: int) -> None:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{name}-seed{seed}.spans.jsonl.gz"
    count = tracer.write(str(path), {"workload": name, "seed": seed})
    say(f"wrote {count} spans to {path.relative_to(BENCH.parent)}")


def finish(tally, problems, figures, setup, layers) -> dict:
    for problem in problems[:20]:
        say(f"PROBLEM: {problem}")
    if layers is None:
        for key, value in figures.items():
            if key != "ops_per_s":
                say(f"  {key} = {value!r}")
        metrics = {
            "ops_per_s": (figures["ops_per_s"], "ops/s"),
            "setup_s": (setup, "s"),
            "peak_rss_mb": (peak_rss_mb(), "MiB"),
        }
    else:
        metrics = layers
    for key, (value, unit) in metrics.items():
        say(f"  {key} = {value!r} {unit}")
    say(f"  attempted = {tally['attempted']}, failed = {tally['failed']}")
    return {
        "correct": not problems,
        "attempted": tally["attempted"],
        "failed": tally["failed"],
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if args.workload == "all":
        status = 0
        for name in WORKLOADS:
            done = subprocess.run(
                [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                timeout=600,
            )
            status = status or done.returncode
        return status
    mods = load_stpt()
    if args.workload == TRACE_CHECK:
        result = run_trace_check(args.seed, args.seconds, bool(args.trace), mods)
    else:
        result = run_campaign(args.workload, args.seed, args.seconds, bool(args.trace), mods)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
