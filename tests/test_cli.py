from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import stpt
from helpers import oracle_behaviours
from stpt import Deferred, StateModel, cli, run_property, spatial, therac_suite
from stpt.genrand import InvalidRange, gen_enabled_commands
from stpt.reports import report_to_text
from stpt.robot import load_robot_config, robot_config_to_json
from stpt.suts import OP_CURSOR_UP, OP_SELECT_ELECTRON, OP_SELECT_PHOTON

DATA = Path(__file__).resolve().parent / "data"

PAPER_FORMULA = (
    'IMPLIES(AND(TimeInterval(300,605),Owner("AreaOfInterest")),'
    "OccupyBox(1051,3056,1505,3603))"
)


def run_json_campaign(tmp_path, args, name="report.json"):
    out = tmp_path / name
    code = cli.main(args + ["--report", "json", "--out", str(out)])
    return code, json.loads(out.read_text())


class TestExitCodes:
    def test_clean_robot_campaign_exits_zero(self):
        code = cli.main(
            ["--suite", "robot", "--fault", "none", "--seed", "42", "--num-tests", "50"]
        )
        assert code == 0

    def test_faulty_therac_campaign_exits_one_with_tiny_witness(self, tmp_path):
        code, report = run_json_campaign(
            tmp_path,
            [
                "--suite", "therac25",
                "--fault", "sequenceBug",
                "--seed", "7",
                "--num-tests", "500",
                "--max-len", "12",
            ],
        )
        assert code == 1
        assert report["testsFailed"] >= 1
        witness = report["failures"][0]["shrunkCommands"]
        assert [c["op"] for c in witness] == [
            OP_SELECT_PHOTON,
            OP_CURSOR_UP,
            OP_SELECT_ELECTRON,
        ]

    def test_zero_tests_is_a_configuration_error(self, capsys):
        assert cli.main(["--suite", "robot", "--num-tests", "0"]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["--suite", "robot", "--fault", "sequenceBug"],
            ["--suite", "therac25", "--fault", "wrongMove"],
            ["--suite", "starship"],
            ["--suite", "robot", "--max-len", "0"],
            ["--suite", "robot", "--workers", "0"],
            ["--suite", "robot", "--timeout-ms", "0"],
            ["--suite", "robot", "--dump-behaviours", "--depth", "-1"],
            ["--suite", "therac25", "--weights", "CursorUp"],
            ["--suite", "therac25", "--weights", "CursorUp=0"],
            ["--suite", "therac25", "--weights", "CursorUp=two"],
            ["--suite", "therac25", "--weights", "flyToMoon=3"],
            ["--suite", "therac25", "--weights", ","],
            [],
        ],
    )
    def test_configuration_errors_exit_two(self, argv, capsys):
        assert cli.main(argv) == 2
        capsys.readouterr()  # swallow diagnostics


class TestSeedHandling:
    def test_env_seed_is_the_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv("STPT_SEED", "99")
        code, report = run_json_campaign(
            tmp_path, ["--suite", "robot", "--num-tests", "2"]
        )
        assert code == 0
        assert report["seed"] == 99

    def test_flag_overrides_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("STPT_SEED", "99")
        _, report = run_json_campaign(
            tmp_path, ["--suite", "robot", "--num-tests", "2", "--seed", "5"]
        )
        assert report["seed"] == 5

    def test_missing_everything_defaults_to_zero(self, tmp_path, monkeypatch):
        monkeypatch.delenv("STPT_SEED", raising=False)
        _, report = run_json_campaign(
            tmp_path, ["--suite", "robot", "--num-tests", "2"]
        )
        assert report["seed"] == 0

    def test_garbage_env_seed_is_an_error(self, monkeypatch, capsys):
        monkeypatch.setenv("STPT_SEED", "lots")
        assert cli.main(["--suite", "robot", "--num-tests", "2"]) == 2
        assert "STPT_SEED" in capsys.readouterr().err


class TestJsonReport:
    def campaign(self, tmp_path, name="report.json"):
        return run_json_campaign(
            tmp_path,
            [
                "--suite", "therac25",
                "--fault", "sequenceBug",
                "--seed", "11",
                "--num-tests", "60",
            ],
            name,
        )

    def test_schema_shape(self, tmp_path):
        _, report = self.campaign(tmp_path)
        assert list(report) == [
            "schemaVersion",
            "seed",
            "config",
            "testsRun",
            "testsFailed",
            "failures",
            "durationMs",
        ]
        assert report["schemaVersion"] == 1
        assert list(report["config"]) == [
            "suite",
            "fault",
            "numTests",
            "maxLen",
            "timeoutMs",
            "weights",
            "workers",
        ]
        assert report["durationMs"] is None
        assert report["testsFailed"] == len(report["failures"])
        for failure in report["failures"]:
            assert list(failure) == [
                "testIndex",
                "kind",
                "classification",
                "originalLength",
                "shrunkCommands",
                "failIndex",
            ]
            assert failure["originalLength"] >= len(failure["shrunkCommands"])

    def test_weights_echo_is_sorted(self, tmp_path):
        _, report = self.campaign(tmp_path)
        weights = report["config"]["weights"]
        assert list(weights) == sorted(weights)

    def test_byte_identical_across_runs(self, tmp_path):
        args = [
            "--suite", "therac25",
            "--fault", "sequenceBug",
            "--seed", "11",
            "--num-tests", "60",
            "--report", "json",
        ]
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        assert cli.main(args + ["--out", str(first)]) == 1
        assert cli.main(args + ["--out", str(second)]) == 1
        assert first.read_bytes() == second.read_bytes()

    # Reports the CLI wrote at an earlier commit: a campaign must keep
    # every byte and its exit code whatever makes its replays cheaper.
    @pytest.mark.parametrize(
        "suite, fault, code",
        [("therac25", "sequenceBug", 1), ("robot", "wrongMove", 1), ("robot", "none", 0)],
    )
    def test_reproduces_the_golden_report(self, tmp_path, suite, fault, code):
        out = tmp_path / "report.json"
        args = [
            "--suite", suite,
            "--fault", fault,
            "--seed", "7",
            "--num-tests", "50",
            "--max-len", "30",
            "--report", "json",
            "--out", str(out),
        ]
        assert cli.main(args) == code
        assert out.read_bytes() == (DATA / f"golden-{suite}-{fault}.json").read_bytes()

    # The CI spatial smoke's deployment: "Z" leaves the default workspace,
    # so the text report carries SpatialViolation rows.
    ESCAPING = {
        "waypoints": {
            "Y": {"at": [10, 10], "footprint": [8, 8, 12, 12]},
            "Z": {"at": [99, 99], "footprint": [103, 103, 98, 98]},
        },
        "init": "Y",
    }

    # Text reports the CLI wrote at an earlier commit, for the expected and
    # result columns the JSON form leaves out. Only the wall time may differ.
    @pytest.mark.parametrize(
        "suite, fault, golden, code",
        [
            ("therac25", "sequenceBug", "therac25-sequenceBug", 1),
            ("robot", "wrongMove", "robot-wrongMove", 1),
            ("robot", "none", "robot-none", 0),
            ("robot", "escaping", "robot-escaping", 1),
        ],
    )
    def test_reproduces_the_golden_text_report(self, tmp_path, suite, fault, golden, code):
        out = tmp_path / "report.txt"
        args = [
            "--suite", suite,
            "--seed", "7",
            "--num-tests", "50",
            "--max-len", "30",
            "--report", "text",
            "--out", str(out),
        ]
        if fault == "escaping":
            deployment = tmp_path / "deploy.json"
            deployment.write_text(json.dumps(self.ESCAPING))
            args += ["--robot-config", str(deployment)]
        else:
            args += ["--fault", fault]
        assert cli.main(args) == code
        wall = re.compile(rb"wall: \d+ ms")
        got = wall.sub(b"wall: N ms", out.read_bytes())
        assert got == wall.sub(b"wall: N ms", (DATA / f"golden-{golden}.txt").read_bytes())

    def test_out_file_leaves_stdout_quiet(self, tmp_path, capsys):
        self.campaign(tmp_path)
        assert capsys.readouterr().out == ""


class TestTextReport:
    def test_mirrors_the_table_columns(self, capsys):
        code = cli.main(
            [
                "--suite", "robot",
                "--fault", "wrongMove",
                "--seed", "3",
                "--num-tests", "4",
            ]
        )
        out = capsys.readouterr().out
        assert code == 1
        header, *_ = [line for line in out.splitlines() if "API code" in line]
        assert "expected (spec)" in header
        assert "result" in header and "error" in header
        assert "SutMismatch" in out
        assert 'position="M"' in out

    def test_clean_run_summary(self, capsys):
        code = cli.main(
            ["--suite", "robot", "--seed", "1", "--num-tests", "3"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "failed: 0" in out

    # an empty init expects no state, and a reset that fails observes none
    @pytest.mark.parametrize(
        "empty_init, row",
        [
            (True, '(reset)   (none)           beam="Off" mode="NoMode"  InitMismatch'),
            (False, '(reset)   beam="Off" mode="NoMode"  (none)  SutError'),
        ],
        ids=["no-expected-state", "no-observed-state"],
    )
    def test_a_missing_state_reads_none(self, empty_init, row):
        suite = therac_suite()
        model, adapter = suite.model, suite.make_adapter()
        if empty_init:
            model = StateModel(model.variables, (), model.actions)
        else:
            adapter.reset = lambda: Deferred.failed(RuntimeError("down"))
        report = run_property(
            model, adapter, suite.abstraction,
            gen_enabled_commands(suite.model, suite.default_weights, 3), num_tests=1,
        )
        text = report_to_text(report, {"suite": "therac25", "fault": "none"})
        assert text.splitlines()[4] == row


class TestReplay:
    def test_reproduces_recorded_failures(self, tmp_path, capsys):
        _, report = run_json_campaign(
            tmp_path,
            [
                "--suite", "therac25",
                "--fault", "sequenceBug",
                "--seed", "7",
                "--num-tests", "200",
            ],
        )
        count = len(report["failures"])
        assert count >= 1
        code = cli.main(["--replay", str(tmp_path / "report.json")])
        out = capsys.readouterr().out
        assert code == 1
        assert f"reproduced {count} of {count} failures" in out
        assert "reproduced (SutMismatch)" in out

    def test_clean_report_replays_clean(self, tmp_path, capsys):
        run_json_campaign(
            tmp_path, ["--suite", "robot", "--seed", "1", "--num-tests", "5"]
        )
        code = cli.main(["--replay", str(tmp_path / "report.json")])
        out = capsys.readouterr().out
        assert code == 0
        assert "reproduced 0 of 0 failures" in out

    def test_report_of_no_model_suite_is_refused(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        path.write_text(json.dumps(
            {"schemaVersion": 1, "config": {"suite": "trace-check"}, "failures": []}
        ))
        assert cli.main(["--replay", str(path)]) == 2
        assert capsys.readouterr() == ("", "error: report names unknown suite 'trace-check'\n")

    def test_fixed_sut_no_longer_reproduces(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        run_json_campaign(
            tmp_path,
            [
                "--suite", "therac25",
                "--fault", "sequenceBug",
                "--seed", "7",
                "--num-tests", "200",
            ],
        )
        doc = json.loads(path.read_text())
        doc["config"]["fault"] = "none"  # pretend the defect was repaired
        path.write_text(json.dumps(doc))
        code = cli.main(["--replay", str(path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "did not reproduce" in out

    @pytest.mark.parametrize("change", ["kind", "abstraction-error-kind", "failIndex"])
    def test_changed_record_is_a_different_failure(self, tmp_path, capsys, change):
        path = tmp_path / "report.json"
        run_json_campaign(
            tmp_path,
            [
                "--suite", "therac25",
                "--fault", "sequenceBug",
                "--seed", "7",
                "--num-tests", "200",
            ],
        )
        doc = json.loads(path.read_text())
        first = doc["failures"][0]
        kind, at = first["kind"], first["failIndex"]
        field, value = {
            "kind": ("kind", "Timeout"),
            "abstraction-error-kind": ("kind", "AbstractionError"),
            "failIndex": ("failIndex", at + 1),
        }[change]
        first[field] = value
        path.write_text(json.dumps(doc))
        code = cli.main(["--replay", str(path)])
        out = capsys.readouterr().out
        assert code == 1
        recorded = (first["kind"], first["failIndex"])
        assert (
            f"failure 0: different failure ({kind} at {at}; "
            f"recorded {recorded[0]} at {recorded[1]})"
        ) in out
        count = len(doc["failures"])
        assert f"reproduced {count - 1} of {count} failures" in out

    def test_reset_failure_prints_its_position_as_reset(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        run_json_campaign(
            tmp_path,
            ["--suite", "robot", "--fault", "wrongInit", "--seed", "1", "--num-tests", "3"],
        )
        doc = json.loads(path.read_text())
        first = doc["failures"][0]
        assert (first["kind"], first["failIndex"]) == ("InitMismatch", None)
        first["kind"] = "Timeout"
        path.write_text(json.dumps(doc))
        code = cli.main(["--replay", str(path)])
        out = capsys.readouterr().out
        assert code == 1
        assert (
            "failure 0: different failure "
            "(InitMismatch at (reset); recorded Timeout at (reset))"
        ) in out
        assert "None" not in out

    @pytest.mark.parametrize(
        "path, value",
        [
            (("config", "timeoutMs"), "5000"),
            (("config", "timeoutMs"), 10**400),
            (("config",), [1]),
            (("failures",), 5),
            (("failures", 0, "shrunkCommands", 0, "delay"), 2.5),
            (("failures", 0, "shrunkCommands", 0, "delay"), True),
            (("failures", 0, "shrunkCommands", 0, "op"), 5),
            (("failures", 0, "failIndex"), "2"),
            (("failures", 0, "failIndex"), True),
            (("failures", 0, "failIndex"), -1),
            (("failures", 0, "failIndex"), 2.0),
            (("failures", 0, "kind"), 7),
            (("failures", 0, "kind"), "Bogus"),
            (("schemaVersion",), True),
            (("schemaVersion",), 1.0),
        ],
        ids=["string-timeout", "huge-timeout", "list-config", "int-failures", "float-delay",
             "bool-delay", "int-op", "string-index", "bool-index",
             "negative-index", "float-index", "int-kind", "unknown-kind",
             "bool-schema-version", "float-schema-version"],
    )
    def test_malformed_report_is_an_input_error(self, tmp_path, capsys, path, value):
        _, doc = run_json_campaign(
            tmp_path,
            [
                "--suite", "therac25",
                "--fault", "sequenceBug",
                "--seed", "7",
                "--num-tests", "200",
            ],
        )
        owner = doc
        for key in path[:-1]:
            owner = owner[key]
        owner[path[-1]] = value
        report_path = tmp_path / "report.json"
        report_path.write_text(json.dumps(doc))
        assert cli.main(["--replay", str(report_path)]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "extra, named",
        [
            (["--suite", "robot", "--fault", "wrongMove", "--seed", "3"],
             ["--suite", "--fault", "--seed"]),
            # given at its default value, it is still not read
            (["--max-len", "12"], ["--max-len"]),
            (["--dump-behaviours"], ["--dump-behaviours"]),
        ],
        ids=["campaign", "default-value", "switch"],
    )
    def test_campaign_flags_are_an_input_error(self, tmp_path, capsys, extra, named):
        run_json_campaign(
            tmp_path,
            [
                "--suite", "therac25",
                "--fault", "sequenceBug",
                "--seed", "7",
                "--num-tests", "200",
            ],
        )
        assert cli.main(["--replay", str(tmp_path / "report.json")] + extra) == 2
        captured = capsys.readouterr()
        # nothing is replayed, and every ignored flag is named
        assert captured.out == ""
        assert all(flag in captured.err for flag in named)

    def test_missing_report_is_an_error(self, tmp_path, capsys):
        assert cli.main(["--replay", str(tmp_path / "nope.json")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_wrong_schema_rejected(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schemaVersion": 99, "failures": []}))
        assert cli.main(["--replay", str(path)]) == 2
        capsys.readouterr()


class TestTraceCheck:
    def write_inputs(self, tmp_path, formula_lines, trace):
        inv = tmp_path / "inv.txt"
        inv.write_text("\n".join(formula_lines) + "\n")
        tr = tmp_path / "trace.json"
        tr.write_text(json.dumps(trace))
        return [
            "--suite", "trace-check",
            "--invariants", str(inv),
            "--trace", str(tr),
        ]

    OCCUPIED = {
        "time": 400,
        "owner": "AreaOfInterest",
        "boxes": [[1051, 3056, 1505, 3603]],
    }
    EMPTY = {"time": 400, "owner": "AreaOfInterest", "boxes": []}

    def test_holding_trace_exits_zero(self, tmp_path, capsys):
        argv = self.write_inputs(tmp_path, [PAPER_FORMULA], [self.OCCUPIED])
        assert cli.main(argv) == 0
        assert "line 1: holds" in capsys.readouterr().out

    def test_violation_reports_observation_index(self, tmp_path, capsys):
        argv = self.write_inputs(tmp_path, [PAPER_FORMULA], [self.EMPTY])
        assert cli.main(argv) == 1
        assert "line 1: violated at observation 0" in capsys.readouterr().out

    def test_comments_and_blanks_keep_line_numbers(self, tmp_path, capsys):
        argv = self.write_inputs(
            tmp_path, ["# heading", "", PAPER_FORMULA], [self.EMPTY]
        )
        assert cli.main(argv) == 1
        assert "line 3: violated" in capsys.readouterr().out

    def test_malformed_formula_exits_two(self, tmp_path, capsys):
        argv = self.write_inputs(tmp_path, ["OWNER("], [self.OCCUPIED])
        assert cli.main(argv) == 2
        assert "inv.txt:1:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "formula,message",
        [
            ("OWNER(", "unknown construct 'OWNER' (at position 0)"),
            ('IMPLIES(Owner("arm"), $)', "unexpected character '$' (at position 22)"),
            ("AND()", "expected at least 1 argument(s), found 0 (at position 4)"),
        ],
        ids=["unknown-construct", "stray-character-after-space", "empty-and"],
    )
    def test_malformed_formula_names_line_and_position(
        self, tmp_path, capsys, formula, message
    ):
        argv = self.write_inputs(tmp_path, ["# first", formula], [self.OCCUPIED])
        assert cli.main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {tmp_path / 'inv.txt'}:2: {message}\n"

    def test_unsorted_trace_exits_two(self, tmp_path, capsys):
        argv = self.write_inputs(
            tmp_path,
            [PAPER_FORMULA],
            [self.OCCUPIED, {**self.OCCUPIED, "time": 300}],
        )
        assert cli.main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (
            "error: trace is not time-ordered: "
            "observation 1 at time 300 after time 400\n"
        )

    def test_empty_formula_file_exits_two(self, tmp_path, capsys):
        argv = self.write_inputs(tmp_path, ["# nothing here"], [self.OCCUPIED])
        assert cli.main(argv) == 2
        capsys.readouterr()

    def test_missing_flags_exit_two(self, capsys):
        assert cli.main(["--suite", "trace-check"]) == 2
        capsys.readouterr()

    def test_non_utf8_formula_file_exits_two(self, tmp_path, capsys):
        argv = self.write_inputs(tmp_path, [PAPER_FORMULA], [self.OCCUPIED])
        inv = tmp_path / "inv.txt"
        inv.write_bytes(b"# caf\xe9\n" + PAPER_FORMULA.encode())
        assert cli.main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (
            f"error: {inv}: 'utf-8' codec can't decode byte 0xe9 in position 5: "
            "invalid continuation byte\n"
        )

    def test_non_utf8_trace_exits_two(self, tmp_path, capsys):
        argv = self.write_inputs(tmp_path, [PAPER_FORMULA], [self.OCCUPIED])
        trace = tmp_path / "trace.json"
        trace.write_bytes(b"\xff" + json.dumps([self.OCCUPIED]).encode())
        assert cli.main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (
            f"error: {trace}: 'utf-8' codec can't decode byte 0xff in position 0: "
            "invalid start byte\n"
        )

    @pytest.mark.parametrize("flag", ["--invariants", "--trace"])
    def test_missing_input_file_exits_two(self, tmp_path, capsys, flag):
        argv = self.write_inputs(tmp_path, [PAPER_FORMULA], [self.OCCUPIED])
        missing = str(tmp_path / "absent")
        argv[argv.index(flag) + 1] = missing
        assert cli.main(argv) == 2
        assert capsys.readouterr() == (
            "", f"error: [Errno 2] No such file or directory: {missing!r}\n"
        )

    def test_trace_that_is_no_array_exits_two(self, tmp_path, capsys):
        argv = self.write_inputs(tmp_path, [PAPER_FORMULA], self.OCCUPIED)
        trace = tmp_path / "trace.json"
        assert cli.main(argv) == 2
        assert capsys.readouterr() == (
            "", f"error: {trace}: trace must be a JSON array of observations\n"
        )

    def test_deeply_nested_formula_exits_two(self, tmp_path, capsys):
        deep = "NOT(" * 1200 + "TRUE" + ")" * 1200
        argv = self.write_inputs(tmp_path, ["# deep", deep], [self.OCCUPIED])
        assert cli.main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        # the 491st parenthesis is refused, before any recursion
        assert err == f"error: {tmp_path / 'inv.txt'}:2: nested too deeply (at position 1963)\n"

    @pytest.mark.parametrize(
        "formula",
        [
            "NOT(" * 490 + "TRUE" + ")" * 490,
            'IMPLIES(Owner("AreaOfInterest"),' * 489
            + "OccupyBox(1051,3056,1505,3603)" + ")" * 489,
            "AND(" + "NOT(AND(" * 244 + "OccupyPoint(1060,3060)" + ",TRUE))" * 244 + ")",
        ],
        ids=["not", "implies", "and-not"],
    )
    def test_formulas_at_the_nesting_limit_are_judged(self, tmp_path, formula):
        # in a process of its own, as the command runs, so the test
        # runner's frames do not count against the recursion limit
        argv = self.write_inputs(tmp_path, [formula], [self.OCCUPIED])
        src = os.path.dirname(os.path.dirname(stpt.__file__))
        done = subprocess.run(
            [sys.executable, "-m", "stpt", *argv],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": src},
            timeout=120,
        )
        assert (done.returncode, done.stderr) == (0, "")
        assert done.stdout == "line 1: holds\n"

    @pytest.mark.parametrize(
        "time", ["2", 2.0, True, None, [2]],
        ids=["string", "float", "bool", "null", "list"],
    )
    def test_non_integer_time_exits_two(self, tmp_path, capsys, time):
        argv = self.write_inputs(
            tmp_path, [PAPER_FORMULA], [{**self.OCCUPIED, "time": time}]
        )
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert "bad observation 0" in err
        assert "time must be an integer" in err

    @pytest.mark.parametrize(
        "box", [[1.5, 1, 5, 5], [True, 1, 5, 5], [1, "1", 5, 5], [1, 1, 5, None]],
        ids=["float", "bool", "string", "null"],
    )
    def test_non_integer_box_corner_exits_two(self, tmp_path, capsys, box):
        argv = self.write_inputs(
            tmp_path, [PAPER_FORMULA], [{**self.OCCUPIED, "boxes": [box]}]
        )
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert "bad observation 0" in err
        assert "box corners must be integers" in err

    @pytest.mark.parametrize(
        "boxes",
        ["abcd", [{"a": 1}], None, [[1, 1, 5]]],
        ids=["string", "object", "null", "three-corners"],
    )
    def test_boxes_not_an_array_of_corner_arrays_exits_two(self, tmp_path, capsys, boxes):
        argv = self.write_inputs(
            tmp_path, [PAPER_FORMULA], [{**self.OCCUPIED, "boxes": boxes}]
        )
        assert cli.main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (
            f"error: {tmp_path / 'trace.json'}: bad observation 0: boxes must be an "
            f"array of [x1, y1, x2, y2] arrays, got {boxes!r}\n"
        )

    @pytest.mark.parametrize(
        "owner", [7, None, ["AreaOfInterest"]], ids=["int", "null", "list"]
    )
    def test_non_string_owner_exits_two(self, tmp_path, capsys, owner):
        argv = self.write_inputs(
            tmp_path, [PAPER_FORMULA], [{**self.OCCUPIED, "owner": owner}]
        )
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert "bad observation 0" in err
        assert "owner must be a string" in err


class TestDumpBehaviours:
    def dump(self, capsys, *argv):
        code = cli.main(["--dump-behaviours", *argv])
        return code, capsys.readouterr().out

    def test_therac_depth_zero_is_the_single_init_record(self, capsys):
        code, out = self.dump(capsys, "--suite", "therac25", "--depth", "0")
        assert code == 0
        assert out.startswith("# behaviours: 1\n")
        assert 'beam="Off"' in out and 'mode="NoMode"' in out

    def test_therac_depth_three_count_matches_oracle(self, capsys):
        expected = len(oracle_behaviours(therac_suite().model, 3))
        code, out = self.dump(capsys, "--suite", "therac25", "--depth", "3")
        assert code == 0
        assert out.startswith(f"# behaviours: {expected}\n")

    def test_robot_depth_one_counts_enabled_actions_plus_prefix(self, capsys):
        # from "Y": initialisePosition, moveToQ, moveToR, moveToS (+ the empty prefix)
        code, out = self.dump(capsys, "--suite", "robot", "--depth", "1")
        assert code == 0
        assert out.startswith("# behaviours: 5\n")
        assert "moveToY" not in out

    def test_past_the_behaviour_cap_exits_one(self, capsys):
        assert cli.main(["--dump-behaviours", "--suite", "therac25", "--depth", "9"]) == 1
        assert capsys.readouterr() == ("", "error: visited 100001 behaviours, cap is 100000\n")

    def test_output_file(self, tmp_path, capsys):
        target = tmp_path / "behaviours.txt"
        code = cli.main(
            [
                "--dump-behaviours",
                "--suite", "therac25",
                "--depth", "1",
                "--out", str(target),
            ]
        )
        assert code == 0
        assert capsys.readouterr().out == ""
        assert target.read_text().startswith("# behaviours: 5\n")


class TestRobotConfigFlag:
    def write_config(self, tmp_path, doc):
        path = tmp_path / "deploy.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def test_campaign_uses_the_catalogue(self, tmp_path, capsys):
        path = self.write_config(
            tmp_path,
            {
                "waypoints": {
                    "Y": {"at": [5, 5], "footprint": [4, 4, 6, 6]},
                    "Z": {"at": [9, 9], "footprint": [8, 8, 10, 10]},
                },
            },
        )
        code = cli.main(
            [
                "--suite", "robot",
                "--robot-config", path,
                "--dump-behaviours",
                "--depth", "1",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "moveToZ" in out
        assert "moveToQ" not in out

    # the arm starts on "Z", whose footprint leaves the default workspace
    ESCAPING = {
        "waypoints": {
            "Y": {"at": [10, 10], "footprint": [8, 8, 12, 12]},
            "Z": {"at": [100, 100], "footprint": [98, 98, 103, 103]},
        },
        "init": "Z",
    }

    def test_reset_violation_replays(self, tmp_path, capsys):
        path = self.write_config(tmp_path, self.ESCAPING)
        code, report = run_json_campaign(
            tmp_path,
            ["--suite", "robot", "--robot-config", path, "--num-tests", "20"],
        )
        assert code == 1
        assert report["testsFailed"] == 20
        for failure in report["failures"]:
            assert failure["kind"] == "SpatialViolation"
            assert failure["failIndex"] is None
            assert failure["shrunkCommands"] == []
        replay = ["--replay", str(tmp_path / "report.json"), "--robot-config", path]
        assert cli.main(replay) == 1
        out = capsys.readouterr().out
        assert out.endswith("reproduced 20 of 20 failures\n")
        argv = ["--suite", "robot", "--robot-config", path, "--num-tests", "3"]
        assert cli.main(argv) == 1
        assert "(reset)" in capsys.readouterr().out

    def escaping_report(self, tmp_path):
        """A 20-test campaign on ESCAPING: the report's path and its document."""
        path = self.write_config(tmp_path, self.ESCAPING)
        code, report = run_json_campaign(
            tmp_path,
            ["--suite", "robot", "--robot-config", path, "--num-tests", "20"],
        )
        assert code == 1
        return str(tmp_path / "report.json"), report

    def test_report_records_the_deployment(self, tmp_path):
        _, report = self.escaping_report(tmp_path)
        config = load_robot_config(self.write_config(tmp_path, self.ESCAPING))
        assert report["config"]["robotConfig"] == robot_config_to_json(config)
        _, default = run_json_campaign(
            tmp_path, ["--suite", "robot", "--num-tests", "5"], name="default.json"
        )
        assert "robotConfig" not in default["config"]

    def test_replay_without_the_flag_uses_the_recorded_deployment(self, tmp_path, capsys):
        report_path, _ = self.escaping_report(tmp_path)
        assert cli.main(["--replay", report_path]) == 1
        assert capsys.readouterr().out.endswith("reproduced 20 of 20 failures\n")

    def test_replay_on_another_deployment_is_refused(self, tmp_path, capsys):
        report_path, _ = self.escaping_report(tmp_path)
        (tmp_path / "other").mkdir()
        other = self.write_config(tmp_path / "other", dict(self.ESCAPING, init="Y"))
        assert cli.main(["--replay", report_path, "--robot-config", other]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "differs from the deployment recorded in the report" in captured.err
        # the same deployment with its corners written the other way round
        (tmp_path / "same").mkdir()
        reversed_doc = {
            "waypoints": {
                name: dict(spec, footprint=spec["footprint"][::-1])
                for name, spec in self.ESCAPING["waypoints"].items()
            },
            "init": "Z",
        }
        same = self.write_config(tmp_path / "same", reversed_doc)
        assert cli.main(["--replay", report_path, "--robot-config", same]) == 1
        assert capsys.readouterr().out.endswith("reproduced 20 of 20 failures\n")

    def test_malformed_recorded_deployment_is_an_input_error(self, tmp_path, capsys):
        report_path, report = self.escaping_report(tmp_path)
        report["config"]["robotConfig"]["waypoints"] = []
        Path(report_path).write_text(json.dumps(report))
        assert cli.main(["--replay", report_path]) == 2
        assert "robotConfig" in capsys.readouterr().err

    @pytest.mark.parametrize("fault", ["none", "wrongMove"])
    def test_reversed_corners_give_the_same_report(self, tmp_path, fault):
        reports = []
        for name, order in (("ordered", 1), ("reversed", -1)):
            doc = {
                "workspace": [0, 0, 100, 100][::order],
                "waypoints": {
                    "Y": {"at": [10, 10], "footprint": [8, 8, 12, 12][::order]},
                    "Z": {"at": [99, 99], "footprint": [98, 98, 103, 103][::order]},
                },
            }
            (tmp_path / name).mkdir()
            path = self.write_config(tmp_path / name, doc)
            code, _ = run_json_campaign(
                tmp_path,
                [
                    "--suite", "robot",
                    "--fault", fault,
                    "--robot-config", path,
                    "--num-tests", "50",
                ],
                name=f"{name}.json",
            )
            reports.append((code, (tmp_path / f"{name}.json").read_bytes()))
        assert reports[0] == reports[1]
        assert reports[0][0] == 1

    def test_bad_catalogue_is_a_configuration_error(self, tmp_path, capsys):
        path = self.write_config(
            tmp_path,
            {"waypoints": {"Q": {"at": [1, 1], "footprint": [0, 0, 2, 2]}}},
        )
        assert cli.main(["--suite", "robot", "--robot-config", path]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize(
        "doc",
        [
            {"waypoints": []},
            {"workspace": [0, 0, 100.5, 100]},
            {"horizon": True},
            {
                "waypoints": {
                    "Y": {
                        "at": [10, 10],
                        "footprint": [8, 8, 12, 12],
                        "footprnt": [0, 0, 500, 500],
                    }
                }
            },
        ],
        ids=["list-waypoints", "float-workspace", "bool-horizon", "misspelt-waypoint-key"],
    )
    def test_malformed_file_is_a_configuration_error(self, tmp_path, capsys, doc):
        path = self.write_config(tmp_path, doc)
        assert cli.main(["--suite", "robot", "--robot-config", path]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "doc,message",
        [
            (
                {"waypoints": {"Y": {"at": [10, 10]}}},
                "waypoint 'Y' needs an integer [x1, y1, x2, y2] footprint: {'at': [10, 10]}",
            ),
            (
                {"waypoints": {"Y": {"at": [10, 10], "footprint": [8, 8, 12, True]}}},
                "waypoint 'Y' needs an integer [x1, y1, x2, y2] footprint: "
                "{'at': [10, 10], 'footprint': [8, 8, 12, True]}",
            ),
            ({"workspace": {"x": 1}}, "workspace must be an integer [x1, y1, x2, y2]: {'x': 1}"),
            ({"workspace": [0, 0, 100]}, "workspace must be an integer [x1, y1, x2, y2]: [0, 0, 100]"),
            ({"init": ["Y"]}, "init position ['Y'] is not a waypoint"),
            ([], "robot config must be a JSON object"),
        ],
        ids=["missing-footprint", "bool-footprint", "object-workspace", "three-workspace",
             "list-init", "array-document"],
    )
    def test_malformed_file_names_the_key(self, tmp_path, capsys, doc, message):
        path = self.write_config(tmp_path, doc)
        assert cli.main(["--suite", "robot", "--robot-config", path]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")
        # the same document recorded in a report
        report_path, report = self.escaping_report(tmp_path)
        report["config"]["robotConfig"] = doc
        Path(report_path).write_text(json.dumps(report))
        assert cli.main(["--replay", report_path]) == 2
        assert capsys.readouterr() == ("", f"error: report robotConfig is malformed: {message}\n")

    def test_unreadable_file_is_a_configuration_error(self, tmp_path, capsys):
        missing = str(tmp_path / "absent.json")
        assert cli.main(["--suite", "robot", "--robot-config", missing]) == 2
        capsys.readouterr()

    # a deployment file, malformed too, that no suite but robot may be given
    BOGUS = {"bogus": 1}
    THERAC = ["--suite", "therac25", "--fault", "sequenceBug", "--num-tests", "20"]

    def assert_refused(self, argv, capsys):
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--robot-config applies only to the robot suite" in captured.err

    def test_therac_campaign_refuses_a_deployment(self, tmp_path, capsys):
        path = self.write_config(tmp_path, self.BOGUS)
        self.assert_refused(self.THERAC + ["--robot-config", path], capsys)

    def test_trace_check_refuses_a_deployment(self, tmp_path, capsys):
        path = self.write_config(tmp_path, self.BOGUS)
        formulas, trace = tmp_path / "inv.txt", tmp_path / "trace.json"
        formulas.write_text(PAPER_FORMULA + "\n")
        trace.write_text(json.dumps([TestTraceCheck.OCCUPIED]))
        argv = ["--suite", "trace-check", "--invariants", str(formulas)]
        argv += ["--trace", str(trace)]
        assert cli.main(argv) == 0
        capsys.readouterr()
        self.assert_refused(argv + ["--robot-config", path], capsys)

    def test_therac_replay_refuses_a_deployment(self, tmp_path, capsys):
        code, _ = run_json_campaign(tmp_path, self.THERAC)
        assert code == 1
        path = self.write_config(tmp_path, self.BOGUS)
        replay = ["--replay", str(tmp_path / "report.json")]
        self.assert_refused(replay + ["--robot-config", path], capsys)


class TestFlagTable:
    """Each mode reads the flags in its row of the table and refuses any other."""

    # each flag at its default value, or at one its own mode would accept
    VALUES = {
        "--suite": ["robot"],
        "--seed": ["0"],
        "--num-tests": ["100"],
        "--max-len": ["12"],
        "--depth": ["3"],
        "--fault": ["none"],
        "--weights": ["moveToQ=1"],
        "--timeout-ms": ["5000"],
        "--report": ["text"],
        "--invariants": ["inv.txt"],
        "--trace": ["trace.json"],
        "--dump-behaviours": [],
    }
    # --replay and --dump-behaviours choose a mode, so a campaign never meets
    # them, and trace-check refuses --robot-config under its own message
    UNREAD = {
        "campaign": ["--depth", "--invariants", "--trace"],
        "dump": [
            "--seed", "--num-tests", "--max-len", "--fault", "--weights",
            "--timeout-ms", "--report", "--invariants", "--trace",
        ],
        "trace-check": [
            "--seed", "--num-tests", "--max-len", "--depth", "--fault", "--weights",
            "--timeout-ms", "--report", "--dump-behaviours",
        ],
        "replay": [
            "--suite", "--seed", "--num-tests", "--max-len", "--depth", "--fault",
            "--weights", "--timeout-ms", "--report", "--invariants", "--trace",
            "--dump-behaviours",
        ],
    }

    @pytest.fixture(scope="class")
    def inputs(self, tmp_path_factory):
        """A directory holding a formula file, a trace and a robot report."""
        where = tmp_path_factory.mktemp("flags")
        (where / "inv.txt").write_text(PAPER_FORMULA + "\n")
        (where / "trace.json").write_text(json.dumps([TestTraceCheck.OCCUPIED]))
        argv = ["--suite", "robot", "--fault", "wrongMove", "--num-tests", "3"]
        assert cli.main(argv + ["--report", "json", "--out", str(where / "r.json")]) == 1
        return where

    def mode_argv(self, mode, where):
        return {
            "campaign": ["--suite", "robot", "--num-tests", "2"],
            "dump": ["--suite", "robot", "--dump-behaviours", "--depth", "1"],
            "trace-check": [
                "--suite", "trace-check",
                "--invariants", str(where / "inv.txt"),
                "--trace", str(where / "trace.json"),
            ],
            "replay": ["--replay", str(where / "r.json")],
        }[mode]

    @pytest.mark.parametrize(
        "mode, flag",
        [(mode, flag) for mode, flags in UNREAD.items() for flag in flags],
        ids=[f"{mode}{flag}" for mode, flags in UNREAD.items() for flag in flags],
    )
    def test_unread_flag_is_an_input_error(self, inputs, capsys, mode, flag):
        argv = self.mode_argv(mode, inputs) + [flag, *self.VALUES[flag]]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert flag in captured.err

    def test_readme_table_matches_the_modes(self):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        section = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
        rows = [line for line in section.splitlines() if line.startswith("| ")][1:]
        assert len(rows) == len(cli._MODES)
        for row, (mode, (reads, needs)) in zip(rows, cli._MODES.items()):
            flags = re.findall(r"(\*\*)?`(--[a-z-]+)`", row.split("|")[2])
            assert [flag for _, flag in flags] == reads.split(), mode
            # a flag in the mode's own name is needed too, and shown bold
            bold = [flag for flag in reads.split() if flag in needs.split() + mode.split()]
            assert [flag for stars, flag in flags if stars] == bold, mode

    def test_workers_is_no_flag(self, tmp_path, capsys):
        # a campaign runs on one thread, so no flag sets a worker count
        out = tmp_path / "out.json"
        argv = ["--suite", "robot", "--workers", "2", "--out", str(out)]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments: --workers 2" in captured.err
        assert not out.exists()

    def test_every_stray_flag_is_named(self, inputs, capsys):
        argv = self.mode_argv("dump", inputs) + ["--fault", "none", "--seed", "3"]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: --dump-behaviours reads only --dump-behaviours, --suite, --depth, "
            "--out, --robot-config; --fault, --seed cannot be given with it\n"
        )

    @pytest.mark.parametrize(
        "argv, flag, message",
        [
            (["--suite", "robot", "--dump-behaviours", "--depth", "-1"], "--depth", "must be >= 0"),
            (["--suite", "robot", "--num-tests", "0"], "--num-tests", "must be >= 1"),
            (["--suite", "robot", "--max-len", "0"], "--max-len", "must be >= 1"),
            (["--suite", "robot", "--timeout-ms", "-5"], "--timeout-ms", "must be >= 1"),
            pytest.param(
                ["--suite", "robot", "--timeout-ms", "1" + "0" * 400], "--timeout-ms",
                "must be an integer >= 1 whose seconds fit in a float, got 1" + "0" * 400,
                id="timeout-seconds-past-a-float",
            ),
            (["--suite", "robot", "--max-len", "two"], "--max-len", "invalid integer value"),
        ],
    )
    def test_out_of_range_is_refused_where_the_flag_is_declared(
        self, capsys, argv, flag, message
    ):
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument {flag}: {message}" in captured.err

    @pytest.mark.parametrize("mode", ["campaign", "dump", "trace-check", "replay"])
    @pytest.mark.parametrize("target", ["missing/out.txt", "."], ids=["no-dir", "a-dir"])
    def test_unwritable_out_is_an_input_error(self, inputs, capsys, mode, target):
        out = str(inputs / target)
        assert cli.main(self.mode_argv(mode, inputs) + ["--out", out]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot write --out {out}: ")

    @pytest.mark.parametrize(
        "mode, flag, value",
        [
            ("trace-check", "--num-tests", "-1"),
            ("dump", "--max-len", "0"),
            ("campaign", "--depth", "-1"),
            ("replay", "--timeout-ms", "-5"),
            ("dump", "--seed", "x"),
        ],
    )
    def test_unread_flag_is_named_before_its_value(self, inputs, capsys, mode, flag, value):
        assert cli.main(self.mode_argv(mode, inputs) + [flag, value]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(f"; {flag} cannot be given with it\n")

    # the call that starts each mode's work, and the module it is read from
    WORK = {
        "campaign": (cli, "run_property"),
        "dump": (cli, "correct_behaviours"),
        "trace-check": (spatial, "check_trace"),
        "replay": (cli, "check_against"),
    }

    @pytest.mark.parametrize("mode", list(WORK))
    def test_unwritable_out_is_refused_before_the_work(self, inputs, capsys, monkeypatch, mode):
        def work(*args, **kwargs):
            raise AssertionError(f"{mode} started its work")

        monkeypatch.setattr(*self.WORK[mode], work)
        out = str(inputs / "missing" / "out.txt")
        assert cli.main(self.mode_argv(mode, inputs) + ["--out", out]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: cannot write --out {out}: No such file or directory\n"

    def test_refused_run_leaves_out_as_it_was(self, tmp_path, capsys):
        argv = ["--suite", "therac25", "--weights", "CursorUp=0"]
        new, old = tmp_path / "new.txt", tmp_path / "old.txt"
        old.write_text("kept\n")
        for out in (new, old):
            assert cli.main(argv + ["--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: weight for 'CursorUp' must be positive\n" * 2
        assert not new.exists()
        assert old.read_text() == "kept\n"

    def test_weight_given_twice_is_an_input_error(self, capsys):
        argv = ["--suite", "therac25", "--weights", "CursorUp=1,CursorUp=2"]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: weight for 'CursorUp' given twice\n"

    @pytest.mark.parametrize(
        "weights, op", [("CursorUp=0", "CursorUp"), ("flyToMoon=-3", "flyToMoon")]
    )
    def test_weight_positivity_is_checked_by_the_generator(
        self, capsys, monkeypatch, weights, op
    ):
        raised = []

        def generator(*args):
            try:
                return gen_enabled_commands(*args)
            except InvalidRange as err:
                raised.append(str(err))
                raise

        monkeypatch.setattr(cli, "gen_enabled_commands", generator)
        assert cli.main(["--suite", "therac25", "--weights", weights]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: weight for {op!r} must be positive\n"
        assert raised == [f"weight for {op!r} must be positive"]


class TestModuleEntry:
    ARGV = [
        "--suite", "therac25",
        "--fault", "sequenceBug",
        "--seed", "7",
        "--num-tests", "40",
        "--report", "json",
    ]

    @pytest.mark.parametrize("module", ["stpt", "stpt.cli"])
    def test_runs_the_cli(self, module, capsys):
        assert cli.main(self.ARGV) == 1
        expected = capsys.readouterr().out
        src = os.path.dirname(os.path.dirname(stpt.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        done = subprocess.run(
            [sys.executable, "-m", module, *self.ARGV],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert done.returncode == 1, done.stderr
        assert done.stdout == expected
