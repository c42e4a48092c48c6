"""Rendering of campaign results to JSON and text.

The JSON form is byte-stable for a given seed and configuration: key
order is fixed, the weight table is sorted, and wall-clock duration is
rendered as null. Rerunning the same campaign therefore produces an
identical file, which makes reports diffable and replayable.
"""

from __future__ import annotations

import json
from typing import Any, Mapping

from .conformance import FailureRecord, RunReport, Witness
from .genrand import Command, CommandSequence
from .spatial import is_int
from .statemodel import format_state

SCHEMA_VERSION = 1
# Where a failure that happened before any command took place is reported.
RESET_POSITION = "(reset)"


def command_to_json(command: Command) -> dict:
    return {"op": command.op, "delay": command.delay}


def commands_from_json(items: Any) -> CommandSequence:
    """The commands :func:`command_to_json` wrote; TypeError or ValueError otherwise."""
    return CommandSequence(tuple(Command(item["op"], item["delay"]) for item in items))


def config_echo(
    suite: str,
    fault: str,
    num_tests: int,
    max_len: int,
    timeout_ms: int,
    weights: Mapping[str, int],
    workers: int,
) -> dict:
    return {
        "suite": suite,
        "fault": fault,
        "numTests": num_tests,
        "maxLen": max_len,
        "timeoutMs": timeout_ms,
        "weights": {op: weights[op] for op in sorted(weights)},
        "workers": workers,
    }


def report_to_json(report: RunReport, config: Mapping[str, Any]) -> str:
    failures = []
    for record in report.failures:
        failures.append(
            {
                "testIndex": record.test_index,
                "kind": record.kind.value,
                "classification": record.classification,
                "originalLength": len(record.original.sequence),
                "shrunkCommands": [
                    command_to_json(c) for c in record.shrunk.sequence
                ],
                "failIndex": record.shrunk.fail_index,
            }
        )
    doc = {
        "schemaVersion": SCHEMA_VERSION,
        "seed": report.seed,
        "config": dict(config),
        "testsRun": report.tests_run,
        "testsFailed": report.tests_failed,
        "failures": failures,
        "durationMs": None,
    }
    return json.dumps(doc, indent=2) + "\n"


def format_sequence(seq: CommandSequence) -> str:
    """Commands with their absolute issue times, e.g. ``CursorUp@4``."""
    parts = [f"{c.op}@{t}" for c, t in zip(seq, seq.timestamps)]
    return " ".join(parts) if parts else "(empty)"


def _api_code(witness: Witness) -> str:
    if witness.fail_index is None:
        return RESET_POSITION
    return witness.sequence.commands[witness.fail_index].op


def _expected_column(witness: Witness) -> str:
    if not witness.expected_states:
        return "(none)"
    return " | ".join(format_state(s) for s in witness.expected_states)


def _result_column(witness: Witness) -> str:
    if witness.observed_state is None:
        return "(none)"
    return format_state(witness.observed_state)


def _failure_table(failures: tuple[FailureRecord, ...]) -> list[str]:
    # same columns the conformance verdicts are usually summarized with:
    # which call, what the model allowed, what came back, what went wrong
    header = ("API code", "expected (spec)", "result", "error")
    rows = [header]
    for record in failures:
        w = record.shrunk
        rows.append(
            (_api_code(w), _expected_column(w), _result_column(w), record.kind.value)
        )
    widths = [max(len(row[i]) for row in rows) for i in range(len(header))]
    lines = []
    for index, row in enumerate(rows):
        lines.append(
            "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip()
        )
        if index == 0:
            continue
        record = failures[index - 1]
        lines.append(
            f"    test {record.test_index}: shrunk "
            f"{format_sequence(record.shrunk.sequence)}  [{record.classification}]"
        )
    return lines


def report_to_text(report: RunReport, config: Mapping[str, Any]) -> str:
    lines = [
        f"suite: {config['suite']}  fault: {config['fault']}  seed: {report.seed}",
        (
            f"tests run: {report.tests_run}  failed: {report.tests_failed}"
            f"  wall: {report.wall_ms:.0f} ms"
        ),
    ]
    if report.failures:
        lines.append("")
        lines.extend(_failure_table(report.failures))
    return "\n".join(lines) + "\n"


def load_report(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    version = doc.get("schemaVersion") if isinstance(doc, dict) else None
    if not (is_int(version) and version == SCHEMA_VERSION):
        raise ValueError("not a recognised report file")
    return doc
