"""Workload definitions and seeded input generation for the benchmark.

Nothing here imports ``stpt``: the set-up probe generates its inputs
before it starts the clock on the program's import, and the oracles work
on the plain tuples made here, apart from the program's own types.

Campaign workloads hand ``run_property`` only a seed; the program's own
generator draws the command sequences from it. The ``trace-check``
workload's formulas and trace are made here from ``random.Random(seed)``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Campaign:
    """One campaign: a suite and fault, its size, and the worker count.

    A round is ``chunks`` calls of ``run_property`` with ``chunk_tests``
    tests each, chunk ``j`` on the campaign seed :func:`chunk_seed` gives
    it. Every round runs the same chunks, so rounds differ only in their
    timing, and each chunk is short enough to fall inside one spell of
    steady processor speed.
    """

    suite: str
    fault: str
    max_len: int
    chunk_tests: int
    chunks: int
    workers: int

    @property
    def tests(self) -> int:
        return self.chunk_tests * self.chunks


CAMPAIGNS = {
    # Longer sequences than the CLI default, so about 30% of tests fail and
    # shrinking dominates; spatial is idle (the suite has no invariants).
    "therac-seqbug": Campaign("therac25", "sequenceBug", 30, 40, 72, 1),
    # Nothing fails or shrinks; spatial.evaluate on 5x5 footprints (the
    # raster route of box_covered) takes about half the wall time.
    "robot-clean": Campaign("robot", "none", 12, 80, 12, 1),
    # Almost every test fails and shrinks to one move, replaying
    # check_against (and re-normalising the invariants) many times; the
    # only workload on the parallel path.
    "robot-wrongmove-2w": Campaign("robot", "wrongMove", 12, 60, 16, 2),
}


def chunk_seed(seed: int, chunk: int) -> int:
    return seed * 1000 + chunk


TRACE_CHECK = "trace-check"
WORKLOADS = tuple(CAMPAIGNS) + (TRACE_CHECK,)

TIMEOUT_MS = 5000

# ---------------------------------------------------------------------------
# trace-check inputs
#
# Formulas are plain tuples:
#   ("true",) ("false",) ("time", a, b) ("owner", name) ("box", x1, y1, x2, y2)
#   ("point", x, y) ("not", f) ("implies", f, g) ("and", [f, ...]) ("or", [f, ...])
# A trace is a list of (time, owner, ((x1, y1, x2, y2), ...)).

OWNERS = ("arm", "cart", "crane", "drone")
TRACE_LEN = 600
FORMULAS = 480
CHUNK_FORMULAS = 40
WORLD = 2000
# Every formula box spans more than RASTER_AREA_CAP (4096) cells, so the
# program decides its coverage by rectangle subtraction.
MIN_SIDE = 70
CORE_SIDE = 340
# One observation in DEFECT_EVERY has a gap in its owner's core.
DEFECT_EVERY = 125


@dataclass(frozen=True)
class TraceInputs:
    texts: tuple[str, ...]       # formula texts as handed to parse_invariant
    canonical: tuple[str, ...]   # the same formulas in normal form
    formulas: tuple              # the tuple form of each formula
    trace: tuple                 # (time, owner, boxes) per observation


def _core(rng: random.Random) -> tuple[int, int, int, int, int]:
    """An owner's core region and the column where its two halves meet."""
    x1 = rng.randint(0, WORLD - CORE_SIDE)
    y1 = rng.randint(0, WORLD - CORE_SIDE)
    seam = x1 + rng.randint(CORE_SIDE // 3, 2 * CORE_SIDE // 3)
    return x1, y1, x1 + CORE_SIDE, y1 + CORE_SIDE, seam


def _observation_boxes(rng: random.Random, core, defect: bool) -> list[tuple[int, int, int, int]]:
    """The core as two halves meeting at the seam, plus one stray box.

    With ``defect`` the right half starts one column late, leaving column
    seam+1 uncovered: that is what the formulas over the core can catch.
    """
    x1, y1, x2, y2, seam = core
    right = seam + 2 if defect else seam + 1 - rng.randint(0, 6)
    w = rng.randint(20, 300)
    h = rng.randint(20, 300)
    bx = rng.randint(0, WORLD - w)
    by = rng.randint(0, WORLD - h)
    boxes = [(x1, y1, seam, y2), (right, y1, x2, y2), (bx, by, bx + w, by + h)]
    rng.shuffle(boxes)
    return boxes


def _sub_box(rng: random.Random, core) -> tuple[int, int, int, int]:
    x1, y1, x2, y2, _ = core
    w = rng.randint(MIN_SIDE, x2 - x1)
    h = rng.randint(MIN_SIDE, y2 - y1)
    bx = rng.randint(x1, x2 - w)
    by = rng.randint(y1, y2 - h)
    return bx, by, bx + w, by + h


def _random_box(rng: random.Random) -> tuple[int, int, int, int]:
    w = rng.randint(MIN_SIDE, 400)
    h = rng.randint(MIN_SIDE, 400)
    bx = rng.randint(0, WORLD - w)
    by = rng.randint(0, WORLD - h)
    return bx, by, bx + w, by + h


def _window(rng: random.Random, horizon: int) -> tuple[str, int, int]:
    a = rng.randint(0, horizon)
    b = rng.randint(a, min(horizon, a + rng.randint(horizon // 8, horizon)))
    return ("time", a, b)


def _formula(rng: random.Random, cores: dict, horizon: int, kind: float):
    owner = rng.choice(OWNERS)
    scope = ("and", [_window(rng, horizon), ("owner", owner)])
    if kind < 0.45:
        # coverage of part of the owner's core: holds unless a defect at
        # the seam falls inside the window and under the box
        return ("implies", scope, ("box", *_sub_box(rng, cores[owner])))
    if kind < 0.6:
        other = rng.choice([o for o in OWNERS if o != owner])
        either = ("or", [("owner", owner), ("owner", other)])
        return (
            "implies",
            ("and", [_window(rng, horizon), either]),
            ("or", [("box", *_sub_box(rng, cores[owner])),
                    ("box", *_sub_box(rng, cores[other]))]),
        )
    if kind < 0.72:
        # a point outside the world is never occupied
        return (
            "implies",
            scope,
            ("and", [("box", *_sub_box(rng, cores[owner])),
                     ("not", ("point", WORLD + 50, rng.randint(0, WORLD)))]),
        )
    if kind < 0.82:
        return ("or", [("not", ("owner", owner)), ("box", *_sub_box(rng, cores[owner]))])
    if kind < 0.92:
        # a box anywhere: usually violated early
        return ("implies", scope, ("box", *_random_box(rng)))
    return ("not", ("and", [("owner", owner), ("box", *_random_box(rng))]))


def _text(f, canonical: bool, rng: random.Random | None = None) -> str:
    """Formula text; the raw form may swap corners and wrap conjunctions."""
    tag = f[0]
    swap = not canonical and rng is not None and rng.random() < 0.15
    if tag == "true":
        return "TRUE"
    if tag == "false":
        return "FALSE"
    if tag == "time":
        a, b = (f[2], f[1]) if swap else (f[1], f[2])
        return f"TimeInterval({a},{b})"
    if tag == "owner":
        return f'Owner("{f[1]}")'
    if tag == "box":
        x1, y1, x2, y2 = f[1:]
        if swap:
            x1, x2 = x2, x1
        return f"OccupyBox({x1},{y1},{x2},{y2})"
    if tag == "point":
        return f"OccupyPoint({f[1]},{f[2]})"
    if tag == "not":
        return f"NOT({_text(f[1], canonical, rng)})"
    if tag == "implies":
        return f"IMPLIES({_text(f[1], canonical, rng)},{_text(f[2], canonical, rng)})"
    word = "AND" if tag == "and" else "OR"
    inner = word + "(" + ",".join(_text(t, canonical, rng) for t in f[1]) + ")"
    if swap:
        # a nested conjunction of one term flattens away in normal form
        return f"{word}({inner})"
    return inner


def trace_inputs(seed: int) -> TraceInputs:
    """The seeded formulas and time-ordered trace of ``trace-check``."""
    rng = random.Random(seed)
    cores = {owner: _core(rng) for owner in OWNERS}
    trace = []
    clock = 0
    offset = rng.randrange(DEFECT_EVERY)
    for index in range(TRACE_LEN):
        clock += rng.randint(0, 2)
        owner = rng.choice(OWNERS)
        defect = (index + offset) % DEFECT_EVERY == 0
        trace.append((clock, owner, tuple(_observation_boxes(rng, cores[owner], defect))))
    # the kinds are spread evenly, so every seed has the same mix
    formulas = [_formula(rng, cores, clock, (i + 0.5) / FORMULAS) for i in range(FORMULAS)]
    texts = [_text(f, canonical=False, rng=rng) for f in formulas]
    canonical = [_text(f, canonical=True) for f in formulas]
    return TraceInputs(tuple(texts), tuple(canonical), tuple(formulas), tuple(trace))


def build_suite(stpt, campaign: Campaign):
    if campaign.suite == "therac25":
        return stpt.therac_suite(campaign.fault)
    return stpt.robot_suite(campaign.fault)


def build_trace(stpt, trace) -> list:
    return [
        stpt.Observation(time, owner, [stpt.Box(*box) for box in boxes])
        for time, owner, boxes in trace
    ]
