"""The package namespace: each name is imported from its home module on first use.

Every check runs in a fresh interpreter, since the test session itself
has long since loaded every module.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

import stpt

SRC = os.path.dirname(os.path.dirname(stpt.__file__))


def fresh(code: str):
    """What ``code``, run in a fresh interpreter, prints as JSON on its last line."""
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": SRC},
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def loaded_after(code: str) -> list[str]:
    """The ``stpt`` modules loaded once ``code`` has run in a fresh interpreter."""
    return fresh(
        f"{code}\nimport json, sys\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'stpt')))"
    )


def test_import_loads_no_module():
    assert loaded_after("import stpt") == ["stpt"]


def test_a_trace_check_loads_only_spatial_and_formula_text():
    code = (
        "import stpt\n"
        "formula = stpt.parse_invariant('IMPLIES(Owner(\"arm\"),OccupyBox(0,0,4,4))')\n"
        "trace = [stpt.Observation(1, 'arm', [stpt.Box(0, 0, 4, 4)])]"
    )
    assert loaded_after(code) == ["stpt", "stpt.formula_text", "stpt.spatial"]


def test_every_exported_name_is_the_object_of_its_home_module():
    code = (
        "import importlib, json, stpt\n"
        "names = list(stpt.__all__)\n"
        "wrong = [n for n in names if getattr(stpt, n) is not\n"
        "         getattr(importlib.import_module('stpt.' + stpt._HOME[n]), n)]\n"
        "print(json.dumps([names, wrong, sorted(set(names) - set(dir(stpt)))]))"
    )
    names, wrong, undir = fresh(code)
    assert len(names) == len(set(names))
    assert wrong == []
    assert undir == []


def test_an_unknown_name_is_an_attribute_error():
    code = (
        "import json, stpt\n"
        "try:\n"
        "    stpt.parse_formula\n"
        "except AttributeError as err:\n"
        "    print(json.dumps([str(err), hasattr(stpt, 'parse_formula')]))"
    )
    assert fresh(code) == ["module 'stpt' has no attribute 'parse_formula'", False]


@pytest.mark.parametrize("module", ["conformance", "reports", "cli"])
def test_submodules_import_from_the_package(module):
    code = f"import json\nfrom stpt import {module}\nprint(json.dumps({module}.__name__))"
    assert fresh(code) == f"stpt.{module}"


def test_a_campaign_set_up_loads_no_json_and_builds_two_dataclasses():
    code = (
        "import sys, stpt\n"
        "suite = stpt.therac_suite('sequenceBug')\n"
        "stpt.robot_suite()\n"
        "stpt.gen_enabled_commands(suite.model, suite.default_weights, 30)\n"
        "json_loaded = 'json' in sys.modules\n"
        "import dataclasses, json\n"
        "exported = [getattr(stpt, name) for name in stpt.__all__]\n"
        "built = sorted(c.__name__ for c in exported\n"
        "               if isinstance(c, type) and dataclasses.is_dataclass(c))\n"
        "print(json.dumps([json_loaded, built]))"
    )
    assert fresh(code) == [False, ["Box", "Waypoint"]]
