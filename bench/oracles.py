"""Oracles that judge the program's outputs by other means than its own.

Command sequences are lists of ``(op, delay)`` pairs. Every oracle here
is written from the documented behaviour of the simulated systems and
of the formula language, not from the program's code, and none imports
``stpt``.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

Seq = Sequence[tuple[str, int]]

# ---------------------------------------------------------------------------
# therac25 with sequenceBug

SELECT_PHOTON = "Select25MevPhotonMode"
SELECT_ELECTRON = "Select25MevElectronMode"
CURSOR_UP = "CursorUp"
# The documented edit window: an electron selection at most this many
# ticks after a photon selection, with a cursor move strictly between
# them, leaves the beam at the photon level.
EDIT_WINDOW = 8


def therac_stale_beam(seq: Seq) -> Optional[int]:
    """Index of the first command that leaves the beam stale, or None.

    A sliding window over the command stream: it remembers when the
    latest selection was a photon one and whether a cursor move came
    after it. Until the bug fires the simulator and the model agree, and
    the firing command is the first one they disagree on.
    """
    clock = 0
    photon_at = None
    cursor_since = False
    for index, (op, delay) in enumerate(seq):
        clock += delay
        if op == SELECT_PHOTON:
            photon_at, cursor_since = clock, False
        elif op == SELECT_ELECTRON:
            if photon_at is not None and cursor_since and clock - photon_at <= EDIT_WINDOW:
                return index
            photon_at = None
        elif op == CURSOR_UP and photon_at is not None:
            cursor_since = True
    return None


# ---------------------------------------------------------------------------
# robot arm with wrongMove

INITIALISE = "initialisePosition"
MOVE = "moveTo"
HOME = "Y"


def robot_wrong_move(seq: Seq) -> Optional[int]:
    """Index of the first move the model allows, or None.

    Under wrongMove every move lands off the waypoint catalogue, so the
    first move the model allows is where the arm and the model part. A
    move to where the model already stands is disabled in the model,
    which is another failure kind, so the oracle stops there.
    """
    position = HOME
    for index, (op, _delay) in enumerate(seq):
        if op == INITIALISE:
            position = HOME
            continue
        target = op[len(MOVE):]
        if target == position:
            return None
        return index
    return None


def box_inside(inner: Sequence[int], outer: Sequence[int]) -> bool:
    return (
        outer[0] <= inner[0] <= inner[2] <= outer[2]
        and outer[1] <= inner[1] <= inner[3] <= outer[3]
    )


# ---------------------------------------------------------------------------
# Witness minimality


def witness_problems(
    seq: Seq, fail_index: Optional[int], fires: Callable[[Seq], Optional[int]]
) -> list[str]:
    """Why ``seq`` is not a 1-minimal witness under ``fires`` (empty if it is).

    It must trigger the oracle at ``fail_index``, and removing any one
    command, or halving any one delay, must stop the trigger.
    """
    problems = []
    at = fires(seq)
    if at is None:
        return ["witness does not trigger the oracle"]
    if at != fail_index:
        problems.append(f"oracle fires at {at}, witness says {fail_index}")
    for index in range(len(seq)):
        if fires(list(seq[:index]) + list(seq[index + 1:])) is not None:
            problems.append(f"still triggers without command {index}")
        op, delay = seq[index]
        if delay > 1:
            halved = list(seq)
            halved[index] = (op, delay // 2)
            if fires(halved) is not None:
                problems.append(f"still triggers with delay {index} halved")
    return problems


# ---------------------------------------------------------------------------
# Formula evaluation by coordinate compression


def covered(target: Sequence[int], boxes: Sequence[Sequence[int]]) -> bool:
    """Whether the union of closed integer boxes covers ``target``.

    The target is cut at every box edge into elementary rectangles, each
    wholly inside or wholly outside every box, and one corner of each is
    tested. The program decides the same question by rectangle
    subtraction or cell by cell.
    """
    x1, y1, x2, y2 = target
    clipped = []
    for bx1, by1, bx2, by2 in boxes:
        cx1, cy1, cx2, cy2 = max(bx1, x1), max(by1, y1), min(bx2, x2), min(by2, y2)
        if cx1 <= cx2 and cy1 <= cy2:
            clipped.append((cx1, cy1, cx2, cy2))
    xs = sorted({x1} | {b[0] for b in clipped} | {b[2] + 1 for b in clipped if b[2] < x2})
    ys = sorted({y1} | {b[1] for b in clipped} | {b[3] + 1 for b in clipped if b[3] < y2})
    for x in xs:
        for y in ys:
            if not any(b[0] <= x <= b[2] and b[1] <= y <= b[3] for b in clipped):
                return False
    return True


def holds(f, time: int, owner: str, boxes) -> bool:
    tag = f[0]
    if tag == "true":
        return True
    if tag == "false":
        return False
    if tag == "time":
        return f[1] <= time <= f[2]
    if tag == "owner":
        return f[1] == owner
    if tag == "box":
        return covered(f[1:], boxes)
    if tag == "point":
        return any(b[0] <= f[1] <= b[2] and b[1] <= f[2] <= b[3] for b in boxes)
    if tag == "not":
        return not holds(f[1], time, owner, boxes)
    if tag == "implies":
        return not holds(f[1], time, owner, boxes) or holds(f[2], time, owner, boxes)
    if tag == "and":
        return all(holds(t, time, owner, boxes) for t in f[1])
    if tag == "or":
        return any(holds(t, time, owner, boxes) for t in f[1])
    raise ValueError(f"unknown formula tag {tag!r}")


def first_violation(f, trace) -> Optional[int]:
    """Index of the first observation that falsifies ``f``, or None."""
    for index, (time, owner, boxes) in enumerate(trace):
        if not holds(f, time, owner, boxes):
            return index
    return None
