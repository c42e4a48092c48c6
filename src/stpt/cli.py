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
from .genrand import InvalidRange, gen_enabled_commands
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

# The flags each mode reads, and those it needs, in the order main picks a mode.
# Any other flag is an input error; --robot-config is read only with the robot suite.
_MODES = {
    "--replay": ("--replay --robot-config --out", ""),
    "--suite trace-check": ("--suite --invariants --trace --out", "--invariants --trace"),
    "--dump-behaviours": ("--dump-behaviours --suite --depth --out --robot-config", "--suite"),
    "a campaign": ("--suite --fault --seed --num-tests --max-len --weights --timeout-ms --report "
                   "--out --workers --robot-config", "--suite"),
}
# The integer flags, each with its least value (None for any). A given value
# stays text until the mode table has accepted its flag, so a flag the mode
# does not read is named as such whatever its value.
_INTEGERS = {
    "--seed": None, "--num-tests": 1, "--max-len": 1, "--depth": 0, "--timeout-ms": 1,
    "--workers": 1,
}


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
        default=None,
        help="campaign seed (default: $STPT_SEED or 0)",
    )
    parser.add_argument("--num-tests", default=100)
    parser.add_argument("--max-len", default=12)
    parser.add_argument("--depth", default=3, help="--dump-behaviours: most transitions")
    parser.add_argument("--fault", default=FAULT_NONE)
    parser.add_argument(
        "--weights",
        default=None,
        metavar="OP=W,...",
        help="override operation weights, e.g. CursorUp=5,OtherKindOfOperation=1",
    )
    parser.add_argument("--timeout-ms", default=5000)
    parser.add_argument("--report", choices=("text", "json"), default="text")
    parser.add_argument("--out", default=None, help="write output here instead of stdout")
    parser.add_argument(
        "--replay",
        default=None,
        metavar="REPORT",
        help="re-run the shrunk failures of a JSON report",
    )
    parser.add_argument(
        "--invariants", default=None, help="--suite trace-check: formula file, one a line"
    )
    parser.add_argument(
        "--trace", default=None, help="--suite trace-check: observation trace (JSON)"
    )
    parser.add_argument(
        "--dump-behaviours",
        action="store_true",
        help="enumerate model behaviours up to --depth instead of testing",
    )
    parser.add_argument("--workers", default=1)
    parser.add_argument(
        "--robot-config", default=None, help="JSON deployment file for the robot suite"
    )
    return parser


def _emit(text: str, out: Optional[str]) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as err:
            raise CliError(f"cannot write --out {out}: {err.strerror}")


def _check_out(out: Optional[str]) -> None:
    """Refuse an ``--out`` that :func:`_emit` could not open, before any work.

    The file is opened for appending, which leaves one that exists as it
    was, and one that did not exist is removed again.
    """
    if out is None:
        return
    existed = os.path.lexists(out)
    try:
        open(out, "a", encoding="utf-8").close()
    except OSError as err:
        raise CliError(f"cannot write --out {out}: {err.strerror}")
    if not existed:
        os.remove(out)


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
        if op in weights:
            raise CliError(f"weight for {op!r} given twice")
        weights[op] = weight
    if not weights:
        raise CliError("no weights given")
    return weights


def _timeout_s(ms: object, name: str) -> float:
    """``ms`` milliseconds in seconds, refusing ``name`` unless ``ms`` is an
    integer >= 1 whose seconds fit in a float."""
    if is_int(ms) and ms >= 1:
        try:
            return ms / 1000
        except OverflowError:
            pass
    raise CliError(f"{name}: must be an integer >= 1 whose seconds fit in a float, got {ms!r}")


def _run_campaign(
    suite: Suite, args: argparse.Namespace, deployment: Optional[RobotConfig]
) -> int:
    timeout = _timeout_s(args.timeout_ms, "argument --timeout-ms")
    seed = _resolve_seed(args)
    if args.weights is None:
        weights = dict(suite.default_weights)
    else:
        weights = _parse_weights(args.weights)
    try:
        generator = gen_enabled_commands(suite.model, weights, args.max_len)
    except InvalidRange as err:
        raise CliError(str(err))
    unknown = set(weights).difference(suite.model.action_names)
    if unknown:
        raise CliError(f"weights name operations the model lacks: {sorted(unknown)}")
    report = run_property(
        suite.model,
        None,
        suite.abstraction,
        generator,
        st_invariants=suite.st_invariants,
        num_tests=args.num_tests,
        seed=seed,
        timeout=timeout,
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


def _run_replay(args: argparse.Namespace, given: set[str]) -> int:
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
    _check_flags("--replay", given, args, suite_name)
    deployment = None
    if suite_name == "robot":
        deployment = _replay_deployment(config.get("robotConfig"), args.robot_config)
    suite = _build_suite(suite_name, config.get("fault", FAULT_NONE), deployment)
    timeout = _timeout_s(config.get("timeoutMs", 5000), "report timeoutMs")
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
            timeout,
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
    except UnicodeDecodeError as err:
        raise CliError(f"{path}: {err}")
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
    except (json.JSONDecodeError, UnicodeDecodeError) as err:
        raise CliError(f"{path}: {err}")
    if not isinstance(data, list):
        raise CliError(f"{path}: trace must be a JSON array of observations")
    observations = []
    for index, entry in enumerate(data):
        try:
            time, owner = entry["time"], entry["owner"]
            boxes = entry.get("boxes", [])
            if not isinstance(boxes, list) or not all(
                isinstance(box, list) and len(box) == 4 for box in boxes
            ):
                raise TypeError(
                    f"boxes must be an array of [x1, y1, x2, y2] arrays, got {boxes!r}"
                )
            occupied = [Box(*box) for box in boxes]
            observations.append(Observation(time=time, owner=owner, occupied=occupied))
        except (AttributeError, KeyError, TypeError) as err:
            raise CliError(f"{path}: bad observation {index}: {err}")
    return observations


def _run_trace_check(args: argparse.Namespace) -> int:
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


def _check_flags(
    mode: str, given: set[str], args: argparse.Namespace, suite: Optional[str]
) -> None:
    """Refuse each flag that ``mode`` does not read, and ask for those it needs.

    Then read each integer flag given, refusing text that is not an
    integer or a value out of range, and refuse an ``--out`` that cannot
    be written. Every mode calls this before its work starts.
    """
    reads, needs = (row.split() for row in _MODES[mode])
    if not given.issuperset(needs):
        raise CliError(f"{mode} needs {' and '.join(needs)}")
    reads = [flag for flag in reads if flag != "--robot-config" or suite == "robot"]
    stray = sorted(given.difference(reads))
    if stray == ["--robot-config"]:
        raise CliError(f"--robot-config applies only to the robot suite, not {suite}")
    if stray:
        raise CliError(
            f"{mode} reads only {', '.join(reads)}; {', '.join(stray)} cannot be given with it"
        )
    for flag, least in _INTEGERS.items():
        if flag not in given:
            continue
        dest = flag[2:].replace("-", "_")
        text = getattr(args, dest)
        try:
            value = int(text)
        except ValueError:
            raise CliError(f"argument {flag}: invalid integer value: {text!r}")
        if least is not None and value < least:
            raise CliError(f"argument {flag}: must be >= {least}, got {text}")
        setattr(args, dest, value)
    _check_out(args.out)


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    unset = object()
    # parsed again over a namespace that already holds every option, so argparse
    # fills in no default and what is not ``unset`` was given, at its default too
    again = vars(parser.parse_args(argv, argparse.Namespace(**dict.fromkeys(vars(args), unset))))
    given = {"--" + dest.replace("_", "-") for dest in again if again[dest] is not unset}
    try:
        if args.replay is not None:
            return _run_replay(args, given)
        mode = "--suite trace-check" if args.suite == "trace-check" else (
            "--dump-behaviours" if args.dump_behaviours else "a campaign")
        _check_flags(mode, given, args, args.suite)
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
