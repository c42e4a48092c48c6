"""Command-line front end: run campaigns, replay failures, check traces.

Exit codes: 0 when everything passed, 1 when failures or violations were
found, 2 for configuration or input errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional

from .conformance import Fail, FailKind, check_against, run_property
from .formula_text import FormulaParseError, parse_invariant
from .genrand import gen_enabled_commands
from .reports import (
    RESET_POSITION,
    commands_from_json,
    config_echo,
    load_report,
    report_to_json,
    report_to_text,
)
from .spatial import Box, Invariant, NonMonotonicTrace, Observation, check_trace, is_int
from .statemodel import StateCapExceeded, correct_behaviours, format_behaviours
from .suts import (
    FAULT_NONE,
    RobotConfig,
    Suite,
    load_robot_config,
    robot_config_from_json,
    robot_config_to_json,
    robot_suite,
    therac_suite,
)


class CliError(Exception):
    pass


_MODEL_SUITES = ("therac25", "robot")
_SUITES = _MODEL_SUITES + ("trace-check",)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stpt",
        description=(
            "Model-based property testing with spatio-temporal invariants: "
            "random timed command sequences checked against a state model "
            "and a running system."
        ),
    )
    parser.add_argument("--suite", choices=_SUITES, help="scenario to run")
    parser.add_argument(
        "--seed",
        type=int,
        default=None,
        help="campaign seed (default: $STPT_SEED or 0)",
    )
    parser.add_argument("--num-tests", type=int, default=100)
    parser.add_argument("--max-len", type=int, default=12)
    parser.add_argument(
        "--depth", type=int, default=3, help="for --dump-behaviours"
    )
    parser.add_argument("--fault", default=FAULT_NONE)
    parser.add_argument(
        "--weights",
        default=None,
        metavar="OP=W,...",
        help="override operation weights, e.g. CursorUp=5,OtherKindOfOperation=1",
    )
    parser.add_argument("--timeout-ms", type=int, default=5000)
    parser.add_argument("--report", choices=("text", "json"), default="text")
    parser.add_argument("--out", default=None, help="write output here instead of stdout")
    parser.add_argument(
        "--replay",
        default=None,
        metavar="REPORT",
        help="re-run the shrunk failures of a JSON report",
    )
    parser.add_argument(
        "--invariants", default=None, help="formula file for trace-check"
    )
    parser.add_argument(
        "--trace", default=None, help="observation trace (JSON) for trace-check"
    )
    parser.add_argument(
        "--dump-behaviours",
        action="store_true",
        help="enumerate model behaviours up to --depth instead of testing",
    )
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument(
        "--robot-config", default=None, help="JSON deployment file for the robot suite"
    )
    return parser


def _emit(text: str, out: Optional[str]) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _resolve_seed(args: argparse.Namespace) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("STPT_SEED")
    if env is None:
        return 0
    try:
        return int(env)
    except ValueError:
        raise CliError(f"STPT_SEED must be an integer, got {env!r}")


def _build_suite(name: str, fault: str, deployment: Optional[RobotConfig]) -> Suite:
    try:
        if name == "therac25":
            return therac_suite(fault)
        return robot_suite(fault, deployment)
    except (ValueError, KeyError, TypeError) as err:
        raise CliError(str(err))


def _check_robot_config(suite: str, path: Optional[str]) -> None:
    """Only the robot suite reads a deployment file."""
    if path is not None and suite != "robot":
        raise CliError(f"--robot-config applies only to the robot suite, not {suite}")


def _load_deployment(path: Optional[str]) -> Optional[RobotConfig]:
    """The robot deployment in the file at ``path``, None for no file."""
    if path is None:
        return None
    try:
        return load_robot_config(path)
    except (ValueError, KeyError, TypeError, OSError) as err:
        raise CliError(str(err))


def _parse_weights(text: str) -> dict[str, int]:
    weights: dict[str, int] = {}
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        op, sep, value = chunk.partition("=")
        op = op.strip()
        if not sep or not op:
            raise CliError(f"bad weight entry {chunk!r}; expected op=weight")
        try:
            weight = int(value)
        except ValueError:
            raise CliError(f"weight for {op!r} must be an integer")
        if weight <= 0:
            raise CliError(f"weight for {op!r} must be positive")
        weights[op] = weight
    if not weights:
        raise CliError("no weights given")
    return weights


def _run_campaign(
    suite: Suite, args: argparse.Namespace, deployment: Optional[RobotConfig]
) -> int:
    if args.num_tests < 1:
        raise CliError("--num-tests must be >= 1")
    if args.max_len < 1:
        raise CliError("--max-len must be >= 1")
    if args.workers < 1:
        raise CliError("--workers must be >= 1")
    if args.timeout_ms < 1:
        raise CliError("--timeout-ms must be >= 1")
    seed = _resolve_seed(args)
    if args.weights is None:
        weights = dict(suite.default_weights)
    else:
        weights = _parse_weights(args.weights)
        unknown = set(weights) - set(suite.model.action_names)
        if unknown:
            raise CliError(
                f"weights name operations the model lacks: {sorted(unknown)}"
            )
    report = run_property(
        suite.model,
        None,
        suite.abstraction,
        gen_enabled_commands(suite.model, weights, args.max_len),
        st_invariants=suite.st_invariants,
        num_tests=args.num_tests,
        seed=seed,
        timeout=args.timeout_ms / 1000.0,
        workers=args.workers,
        adapter_factory=suite.make_adapter,
    )
    config = config_echo(
        suite.name,
        args.fault,
        args.num_tests,
        args.max_len,
        args.timeout_ms,
        weights,
        args.workers,
    )
    if deployment is not None:
        # recorded only when given, so a default report keeps its bytes
        config["robotConfig"] = robot_config_to_json(deployment)
    if args.report == "json":
        rendered = report_to_json(report, config)
    else:
        rendered = report_to_text(report, config)
    _emit(rendered, args.out)
    return 1 if report.tests_failed else 0


def _run_dump(suite: Suite, args: argparse.Namespace) -> int:
    if args.depth < 0:
        raise CliError("--depth must be >= 0")
    try:
        behaviours = correct_behaviours(suite.model, args.depth)
    except StateCapExceeded as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    _emit(format_behaviours(behaviours), args.out)
    return 0


def _position(fail_index: Optional[int]) -> str:
    """A failure's command index, or where the text report puts a reset failure."""
    return RESET_POSITION if fail_index is None else str(fail_index)


def _replay_deployment(recorded: object, path: Optional[str]) -> Optional[RobotConfig]:
    """The deployment a robot report recorded, else the one in ``path``.

    A deployment given as well as recorded must be the same one.
    """
    given = _load_deployment(path)
    if recorded is None:
        return given
    try:
        deployment = robot_config_from_json(recorded)
    except (ValueError, KeyError, TypeError) as err:
        raise CliError(f"report robotConfig is malformed: {err}")
    if given is not None and given != deployment:
        raise CliError(
            f"--robot-config {path} differs from the deployment recorded in the report"
        )
    return deployment


# a replay takes everything else from the report it replays
_REPLAY_FLAGS = ("replay", "robot_config", "out")


def _check_replay_flags(
    parser: argparse.ArgumentParser, argv: Optional[list[str]], args: argparse.Namespace
) -> None:
    """Refuse a flag that a replay would ignore, even one given its default value."""
    unset = object()
    # parsed again over a namespace that already holds every option, so
    # argparse fills in no default and what is not ``unset`` was given
    given = parser.parse_args(argv, argparse.Namespace(**dict.fromkeys(vars(args), unset)))
    stray = sorted(
        "--" + dest.replace("_", "-")
        for dest, value in vars(given).items()
        if value is not unset and dest not in _REPLAY_FLAGS
    )
    if stray:
        raise CliError(
            f"--replay reads only --robot-config and --out; {', '.join(stray)} "
            "cannot be given with it"
        )


def _run_replay(args: argparse.Namespace) -> int:
    try:
        doc = load_report(args.replay)
    except (OSError, ValueError) as err:
        raise CliError(f"cannot load report: {err}")
    config = doc.get("config", {})
    if not isinstance(config, dict):
        raise CliError(f"report config must be an object, got {config!r}")
    suite_name = config.get("suite")
    if suite_name not in _MODEL_SUITES:
        raise CliError(f"report names unknown suite {suite_name!r}")
    _check_robot_config(suite_name, args.robot_config)
    deployment = None
    if suite_name == "robot":
        deployment = _replay_deployment(config.get("robotConfig"), args.robot_config)
    suite = _build_suite(suite_name, config.get("fault", FAULT_NONE), deployment)
    timeout_ms = config.get("timeoutMs", 5000)
    if not is_int(timeout_ms) or timeout_ms < 1:
        raise CliError(f"report timeoutMs must be a positive integer, got {timeout_ms!r}")
    failures = doc.get("failures", [])
    if not isinstance(failures, list):
        raise CliError(f"report failures must be a list, got {failures!r}")
    reproduced = failed = 0
    lines = []
    for index, failure in enumerate(failures):
        try:
            seq = commands_from_json(failure["shrunkCommands"])
            at = failure["failIndex"]
            if not (at is None or is_int(at) and at >= 0):
                raise ValueError(f"failIndex must be null or an integer >= 0, got {at!r}")
            recorded = (FailKind(failure["kind"]).value, at)
        except (KeyError, TypeError, ValueError) as err:
            raise CliError(f"bad failure record {index}: {err}")
        result = check_against(
            suite.model,
            suite.make_adapter(),
            suite.abstraction,
            seq,
            suite.st_invariants,
            timeout_ms / 1000.0,
        )
        if not isinstance(result, Fail):
            lines.append(f"failure {index}: did not reproduce")
            continue
        failed += 1
        got = (result.kind.value, result.witness.fail_index)
        if got == recorded:
            reproduced += 1
            lines.append(f"failure {index}: reproduced ({got[0]})")
        else:
            lines.append(
                f"failure {index}: different failure ({got[0]} at {_position(got[1])}; "
                f"recorded {recorded[0]} at {_position(recorded[1])})"
            )
    lines.append(f"reproduced {reproduced} of {len(failures)} failures")
    _emit("\n".join(lines) + "\n", args.out)
    return 1 if failed else 0


def _load_invariants(path: str) -> list[tuple[int, Invariant]]:
    try:
        with open(path, encoding="utf-8") as fh:
            raw_lines = fh.read().splitlines()
    except OSError as err:
        raise CliError(str(err))
    out = []
    for lineno, line in enumerate(raw_lines, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        try:
            out.append((lineno, parse_invariant(stripped)))
        except FormulaParseError as err:
            raise CliError(f"{path}:{lineno}: {err}")
    if not out:
        raise CliError(f"{path}: no formulas found")
    return out


def _load_trace(path: str) -> list[Observation]:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as err:
        raise CliError(str(err))
    except json.JSONDecodeError as err:
        raise CliError(f"{path}: {err}")
    if not isinstance(data, list):
        raise CliError(f"{path}: trace must be a JSON array of observations")
    observations = []
    for index, entry in enumerate(data):
        try:
            time, owner = entry["time"], entry["owner"]
            if not is_int(time):
                raise TypeError(f"time must be an integer, got {time!r}")
            if not isinstance(owner, str):
                raise TypeError(f"owner must be a string, got {owner!r}")
            occupied = [Box(*box) for box in entry.get("boxes", [])]
            observations.append(Observation(time=time, owner=owner, occupied=occupied))
        except (AttributeError, KeyError, TypeError) as err:
            raise CliError(f"{path}: bad observation {index}: {err}")
    return observations


def _run_trace_check(args: argparse.Namespace) -> int:
    if args.invariants is None or args.trace is None:
        raise CliError("trace-check needs --invariants and --trace")
    invariants = _load_invariants(args.invariants)
    trace = _load_trace(args.trace)
    lines = []
    violated = 0
    for lineno, invariant in invariants:
        try:
            verdict = check_trace(invariant, trace)
        except NonMonotonicTrace as err:
            raise CliError(f"trace is not time-ordered: {err}")
        if verdict.holds:
            lines.append(f"line {lineno}: holds")
        else:
            violated += 1
            lines.append(
                f"line {lineno}: violated at observation {verdict.first_violation}"
            )
    _emit("\n".join(lines) + "\n", args.out)
    return 1 if violated else 0


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        if args.replay is not None:
            _check_replay_flags(parser, argv, args)
            return _run_replay(args)
        if args.suite is None:
            raise CliError("--suite is required (or use --replay)")
        _check_robot_config(args.suite, args.robot_config)
        if args.suite == "trace-check":
            return _run_trace_check(args)
        deployment = _load_deployment(args.robot_config)
        suite = _build_suite(args.suite, args.fault, deployment)
        if args.dump_behaviours:
            return _run_dump(suite, args)
        return _run_campaign(suite, args, deployment)
    except CliError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


def main_entry() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    main_entry()
