"""The reachability gate: ``src/stpt`` keeps only code that a user path reaches.

One fresh interpreter sets a profile hook, imports ``stpt`` and runs
:data:`INVOCATIONS`, a fixed list of command lines through
``stpt.cli.main``, then ``python -m stpt`` through ``runpy``. Every
``def`` under ``src/stpt`` that no invocation entered must be listed in
``tests/data/unreached.txt`` with one reason from :data:`REASONS`; a
listed function that a run enters, that is gone, or whose ``bench``
reason ``bench/`` no longer names fails the gate too. So a function
whose only callers are tests fails it, and an entry falls due as soon as
a run enters it or ``bench/`` stops naming it.
"""

from __future__ import annotations

import ast
import io
import json
import os
import re
import subprocess
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "stpt"
BENCH = ROOT / "bench"
ALLOWLIST = Path(__file__).resolve().parent / "data" / "unreached.txt"

# Why an unreached function stays. There is no "test-only": a function
# whose only callers are tests is deleted, or moved to tests/helpers.py.
#   error-path       only a refusal reaches it, and no cheap invocation does
#   record-contract  a dunder that pickling, copying, hashing or repr use
#   library          an entry point users call directly, not a reference or an oracle
#   bench            only bench/ calls it; it goes when bench/ stops
#   item-N           kept for open ROADMAP item N, on the condition the entry states
REASONS = re.compile(r"(error-path|record-contract|library|bench|item-[1-9][0-9]*)\Z")

# The deployments and files the invocations read, written to a scratch
# directory first. ESCAPING's waypoint Z leaves the workspace, so its
# obligation is judged and fails; TABBED names a waypoint with a tab,
# which the behaviour dump escapes.
ESCAPING = {
    "waypoints": {
        "Y": {"at": [10, 10], "footprint": [8, 8, 12, 12]},
        "Z": {"at": [99, 99], "footprint": [103, 103, 98, 98]},
    },
    "init": "Y",
}
TABBED = {
    "waypoints": {
        "Y": {"at": [10, 10], "footprint": [8, 8, 12, 12]},
        "Q\tR": {"at": [40, 10], "footprint": [38, 8, 42, 12]},
    },
}
# every construct, AND and OR with four terms (their general predicates),
# and TRACE's first observation, whose first box lies inside
# OccupyBox(0,0,10,10) and would split it, so the coverage test
# subtracts boxes (spatial._subtract)
FORMULAS = "\n".join([
    "# every construct",
    'IMPLIES(AND(TimeInterval(0,100),Owner("arm")),OccupyBox(0,0,10,10))',
    'IMPLIES(Owner("arm"),NOT(OccupyPoint(50,50)))',
    "FALSE",
    "TRUE",
    'AND(Owner("arm"),TimeInterval(0,9),OccupyPoint(1,1),NOT(Owner("cart")))',
    'OR(Owner("cart"),TimeInterval(50,60),OccupyPoint(90,90),OccupyBox(0,0,1,1))',
    "",
])
TRACE = [
    {"time": 0, "owner": "arm", "boxes": [[0, 0, 3, 3], [0, 0, 10, 10]]},
    {"time": 5, "owner": "cart", "boxes": []},
    {"time": 9, "owner": "arm", "boxes": [[3, 3, 0, 0]]},
]
UNSORTED = [{"time": 5, "owner": "arm"}, {"time": 1, "owner": "arm"}]
# a therac witness whose failIndex was edited from 2 to 0, so the replay
# reports a different failure
EDITED = {
    "schemaVersion": 1,
    "config": {"suite": "therac25", "fault": "sequenceBug", "timeoutMs": 5000},
    "failures": [{
        "kind": "SutMismatch",
        "failIndex": 0,
        "shrunkCommands": [
            {"op": "Select25MevPhotonMode", "delay": 1},
            {"op": "CursorUp", "delay": 1},
            {"op": "Select25MevElectronMode", "delay": 1},
        ],
    }],
}
FILES = {
    "escaping.json": json.dumps(ESCAPING),
    "tabbed.json": json.dumps(TABBED),
    "formulas.txt": FORMULAS,
    "malformed.txt": "IMPLIES(TRUE\n",
    "trace.json": json.dumps(TRACE),
    "unsorted.json": json.dumps(UNSORTED),
    "edited.json": json.dumps(EDITED),
}

# Each command line, run in order in one interpreter ({d} is the scratch
# directory), and the exit code it must give: a run that stops giving it
# no longer takes the route it is listed for.
INVOCATIONS = [
    # campaigns: every suite and fault, both report forms, a deployment
    # and a weights override
    ("--suite therac25 --num-tests 30", 0),
    ("--suite therac25 --fault sequenceBug --num-tests 200 --seed 7 "
     "--report json --out {d}/therac.json", 1),
    ("--suite therac25 --fault sequenceBug --num-tests 200 --seed 7 --max-len 30", 1),
    # weights summing past 2**64 make every pick two words, which only
    # genrand._draw reads
    ("--suite therac25 --fault sequenceBug --num-tests 20 --weights "
     "Select25MevPhotonMode=18446744073709551617,Select25MevElectronMode=18446744073709551617,"
     "CursorUp=9223372036854775808,OtherKindOfOperation=1", 1),
    ("--suite robot --num-tests 30 --weights moveToQ=2,moveToR=1,moveToS=1,moveToY=1,"
     "initialisePosition=1", 0),
    ("--suite robot --fault wrongInit --num-tests 20 --report json --out {d}/wrong-init.json", 1),
    ("--suite robot --fault wrongMove --num-tests 20 --report json --out {d}/wrong-move.json", 1),
    ("--suite robot --fault wrongMove --num-tests 20", 1),
    ("--suite robot --robot-config {d}/escaping.json --num-tests 30 --report json "
     "--out {d}/escaping-report.json", 1),
    # replays: each report, a recorded deployment given again, an edited witness
    ("--replay {d}/therac.json", 1),
    ("--replay {d}/wrong-init.json", 1),
    ("--replay {d}/wrong-move.json --out {d}/replayed.txt", 1),
    ("--replay {d}/escaping-report.json --robot-config {d}/escaping.json", 1),
    ("--replay {d}/edited.json", 1),
    # behaviour dumps
    ("--suite therac25 --dump-behaviours --depth 2", 0),
    ("--suite robot --dump-behaviours --depth 1 --robot-config {d}/tabbed.json", 0),
    # trace checks
    ("--suite trace-check --invariants {d}/formulas.txt --trace {d}/trace.json", 1),
    ("--suite trace-check --invariants {d}/malformed.txt --trace {d}/trace.json", 2),
    ("--suite trace-check --invariants {d}/formulas.txt --trace {d}/unsorted.json", 2),
    # refusals
    ("--suite therac25 --depth 2", 2),
    ("--suite robot --num-tests 0", 2),
    ("--suite therac25 --num-tests many", 2),
    ("--suite therac25 --weights CursorUp", 2),
    ("--suite therac25 --weights flyToMoon=1", 2),
    ("--suite robot --fault sequenceBug", 2),
    ("--suite therac25 --timeout-ms 0", 2),
    ("--suite therac25 --robot-config {d}/escaping.json", 2),
    ("--suite therac25 --out {d}/no-such-directory/report.txt", 2),
    ("--replay {d}/formulas.txt", 2),
    ("--dump-behaviours", 2),
    ("--no-such-flag", 2),
]
# ``python -m stpt`` with these arguments, through runpy, must exit 0
MODULE_ARGV = "--suite therac25 --num-tests 5"

# Runs in the fresh interpreter: argv[1] is the scratch directory, stdin
# the invocations as JSON. It prints the exit codes, and then the file,
# first line and name of each code object entered.
PROBE = r"""
import sys

entered = set()


def hook(frame, event, arg):
    if event == "call":
        entered.add(frame.f_code)


sys.setprofile(hook)

import contextlib, io, json, runpy

import stpt.cli

directory = sys.argv[1]
invocations, module_argv = json.load(sys.stdin)
codes = []
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    for line in invocations:
        codes.append(stpt.cli.main(line.replace("{d}", directory).split()))
    sys.argv = ["stpt", *module_argv.split()]
    try:
        runpy.run_module("stpt", run_name="__main__", alter_sys=True)
    except SystemExit as done:
        codes.append(done.code)
sys.setprofile(None)
print(json.dumps({
    "codes": codes,
    "entered": sorted({(c.co_filename, c.co_firstlineno, c.co_name) for c in entered}),
}))
"""


def first_line(node: ast.FunctionDef | ast.AsyncFunctionDef) -> int:
    """The first line of the code object ``node`` compiles to.

    ``ast`` gives a decorated function the line of its ``def``, while its
    code object starts at the first decorator.
    """
    return min([node.lineno] + [d.lineno for d in node.decorator_list])


def defined_functions(source: str, module: str) -> dict[tuple[int, str], str]:
    """Each ``def`` in ``source`` as ``module:qualname``, keyed by first line and name."""
    found = {}

    def walk(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = prefix + child.name
                found[first_line(child), child.name] = f"{module}:{qualname}"
                walk(child, qualname + ".<locals>.")
            elif isinstance(child, ast.ClassDef):
                walk(child, prefix + child.name + ".")
            else:
                walk(child, prefix)

    walk(ast.parse(source), "")
    return found


def read_allowlist(text: str) -> dict[str, tuple[str, str]]:
    """The entries of the allowlist ``text``: name to (reason, condition).

    A line is a name, a reason and what would let the function go;
    ``#`` starts a comment line. A malformed line or a name given twice
    raises ``ValueError``.
    """
    entries: dict[str, tuple[str, str]] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip() or line.startswith("#"):
            continue
        name, reason, condition = (line.split(None, 2) + ["", ""])[:3]
        if ":" not in name or not REASONS.match(reason) or not condition:
            raise ValueError(f"line {lineno}: want 'module:qualname reason condition': {line!r}")
        if name in entries:
            raise ValueError(f"line {lineno}: {name} is listed twice")
        entries[name] = (reason, condition)
    return entries


def bench_words(sources: list[str]) -> set[str]:
    """The names and the words of string literals in ``sources``; comments do not count."""
    words: set[str] = set()
    for source in sources:
        for token in tokenize.generate_tokens(io.StringIO(source).readline):
            if token.type == tokenize.NAME:
                words.add(token.string)
            elif token.type == tokenize.STRING:
                words.update(re.findall(r"\w+", token.string))
    return words


def compare(
    defined: set[str],
    entered: set[str],
    listed: dict[str, tuple[str, str]],
    bench: set[str],
) -> list[str]:
    """What keeps the gate from passing, one line per function.

    ``defined`` names every function, ``entered`` those a run entered,
    ``listed`` the allowlist and ``bench`` the words of ``bench/``.
    """
    problems = []
    for name in sorted(defined - entered - set(listed)):
        problems.append(f"{name}: no run enters it, and it is not listed")
    for name, (reason, _) in sorted(listed.items()):
        if name not in defined:
            problems.append(f"{name}: listed, but there is no such function")
        elif name in entered:
            problems.append(f"{name}: listed, but a run enters it")
        elif reason == "bench" and re.split(r"[:.]", name)[-1] not in bench:
            problems.append(f"{name}: listed for bench, but bench/ no longer names it")
    return problems


def src_functions() -> dict[tuple[str, int, str], str]:
    """Every function under ``src/stpt``, keyed by file, first line and name."""
    functions = {}
    for path in sorted(SRC.rglob("*.py")):
        module = ".".join(path.relative_to(SRC).with_suffix("").parts)
        for (line, name), qualname in defined_functions(path.read_text("utf-8"), module).items():
            functions[str(path), line, name] = qualname
    return functions


def probe(directory: Path) -> tuple[list, set[tuple[str, int, str]]]:
    """The exit codes of the invocations, and the code objects they entered."""
    for name, content in FILES.items():
        (directory / name).write_text(content, encoding="utf-8")
    # a fixed hash seed, so that the order of a set of owners, and with
    # it the functions a run enters, is the same on every run
    env = dict(os.environ, PYTHONPATH=str(SRC.parent), PYTHONHASHSEED="0")
    env.pop("STPT_SEED", None)
    done = subprocess.run(
        [sys.executable, "-c", PROBE, str(directory)],
        input=json.dumps([[line for line, _ in INVOCATIONS], MODULE_ARGV]),
        capture_output=True, text=True, env=env, cwd=directory, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout)
    return result["codes"], {tuple(code) for code in result["entered"]}


def test_every_unreached_function_is_listed_with_a_reason(tmp_path):
    codes, entered = probe(tmp_path)
    assert codes == [code for _, code in INVOCATIONS] + [0]
    functions = src_functions()
    # the hook also sees lambdas, comprehensions, class bodies and
    # modules, which are no defs
    reached = {functions[key] for key in entered if key in functions}
    listed = read_allowlist(ALLOWLIST.read_text("utf-8"))
    bench = bench_words([p.read_text("utf-8") for p in sorted(BENCH.rglob("*.py"))])
    assert compare(set(functions.values()), reached, listed, bench) == []


# ---------------------------------------------------------------------------
# The gate's own parts, on synthetic inputs


class TestCompare:
    DEFINED = {"m:f", "m:C.g", "m:h"}

    def test_a_listed_unreached_function_passes(self):
        listed = {"m:h": ("bench", "goes with bench/")}
        assert compare(self.DEFINED, {"m:f", "m:C.g"}, listed, {"h"}) == []

    def test_an_unreached_function_must_be_listed(self):
        assert compare(self.DEFINED, {"m:f", "m:C.g"}, {}, set()) == [
            "m:h: no run enters it, and it is not listed"
        ]

    def test_a_listed_function_a_run_enters_fails(self):
        listed = {"m:C.g": ("library", "documented")}
        assert compare(self.DEFINED, self.DEFINED, listed, set()) == [
            "m:C.g: listed, but a run enters it"
        ]

    def test_a_listed_function_that_is_gone_fails(self):
        listed = {"m:gone": ("error-path", "a refusal")}
        assert compare(self.DEFINED, self.DEFINED, listed, set()) == [
            "m:gone: listed, but there is no such function"
        ]

    def test_a_bench_entry_that_bench_no_longer_names_fails(self):
        listed = {"m:C.g": ("bench", "goes with bench/")}
        assert compare(self.DEFINED, {"m:f", "m:h"}, listed, {"f", "C"}) == [
            "m:C.g: listed for bench, but bench/ no longer names it"
        ]


class TestAllowlist:
    def test_reads_name_reason_and_condition(self):
        text = "# comment\n\nm:f  item-3  goes unless item 3 starts\nm:C.g bench run.py\n"
        assert read_allowlist(text) == {
            "m:f": ("item-3", "goes unless item 3 starts"),
            "m:C.g": ("bench", "run.py"),
        }

    def test_refuses_a_reason_outside_the_closed_set(self):
        for reason in ("test-only", "item-0", "item-", "benchmark", "Library"):
            try:
                read_allowlist(f"m:f {reason} because\n")
            except ValueError:
                continue
            raise AssertionError(f"{reason!r} was accepted")

    def test_refuses_an_entry_without_a_condition_or_module(self):
        for line in ("m:f bench", "f bench run.py", "m:f"):
            try:
                read_allowlist(line + "\n")
            except ValueError:
                continue
            raise AssertionError(f"{line!r} was accepted")

    def test_refuses_a_name_listed_twice(self):
        try:
            read_allowlist("m:f bench a\nm:f library b\n")
        except ValueError as err:
            assert "twice" in str(err)
        else:
            raise AssertionError("a name listed twice was accepted")


def test_bench_words_skip_comments():
    source = '# evaluate\nx = tracing.wrap("spatial.normalize", step)\n'
    words = bench_words([source])
    assert {"x", "tracing", "wrap", "spatial", "normalize", "step"} <= words
    assert "evaluate" not in words


def test_qualnames_and_first_lines_match_the_code_objects():
    source = (
        "import functools\n"
        "\n"
        "@functools.lru_cache\n"
        "@staticmethod\n"
        "def decorated():\n"
        "    def inner():\n"
        "        pass\n"
        "    return inner\n"
        "\n"
        "class Outer:\n"
        "    @property\n"
        "    def value(self):\n"
        "        return 1\n"
        "\n"
        "    class Inner:\n"
        "        async def run(self):\n"
        "            pass\n"
    )
    defined = defined_functions(source, "m")
    assert sorted(defined.values()) == [
        "m:Outer.Inner.run", "m:Outer.value", "m:decorated", "m:decorated.<locals>.inner",
    ]
    # every code object compiled from the source has the key ast gave its def
    codes, pending = [], [compile(source, "<reach>", "exec")]
    while pending:
        code = pending.pop()
        codes.append(code)
        pending += [c for c in code.co_consts if hasattr(c, "co_firstlineno")]
    keys = {(c.co_firstlineno, c.co_name) for c in codes}
    assert set(defined) <= keys
    assert (3, "decorated") in defined and (11, "value") in defined
