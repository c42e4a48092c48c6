"""Splittable pure PRNG, and the generation and shrinking of timed command sequences.

The random source is a splitmix64-style state/gamma pair. Splitting gives
two independent streams, so each test case draws from its own stream,
whatever ran before it. A generator is a pure function from an Rng to a
(value, next-Rng) pair. A campaign draws timed command sequences that walk
the model's enabled operations, and shrinks the failing ones.

A command sequence is a plain tuple of :class:`Command` in issue order.

Determinism contract: for a fixed seed and fixed draw order, every value
produced here is identical across runs and platforms.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import cache
from itertools import accumulate
from struct import Struct
from typing import Callable, Generic, Mapping, Optional, Sequence, TypeVar

from .spatial import _Record, is_int
from .statemodel import State, StateModel, enabled_actions, successors

A = TypeVar("A")

_MASK64 = (1 << 64) - 1
_GOLDEN_GAMMA = 0x9E3779B97F4A7C15


class InvalidRange(ValueError):
    pass


def _mix64(z: int) -> int:
    # splitmix64 finalizer
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK64
    return z ^ (z >> 31)


def _mix_gamma(z: int) -> int:
    # murmur3-style finalizer, then force odd and enough bit transitions
    z = (z ^ (z >> 33)) * 0xFF51AFD7ED558CCD & _MASK64
    z = (z ^ (z >> 33)) * 0xC4CEB9FE1A85EC53 & _MASK64
    z = (z ^ (z >> 33)) | 1
    if (z ^ (z >> 1)).bit_count() < 24:
        z ^= 0xAAAAAAAAAAAAAAAA
    return z & _MASK64


class Rng(_Record):
    """Immutable splittable random source. Every draw returns the next Rng."""

    __slots__ = _fields = ("state", "gamma")

    def __init__(self, state: int, gamma: int = _GOLDEN_GAMMA) -> None:
        _set_state(self, state)
        _set_gamma(self, gamma)

    @classmethod
    def from_seed(cls, seed: int) -> Rng:
        return cls(state=seed & _MASK64, gamma=_GOLDEN_GAMMA)

    def split(self) -> tuple[Rng, Rng]:
        """(advanced self, independent child) pair."""
        gamma = self.gamma
        s1 = (self.state + gamma) & _MASK64
        s2 = (s1 + gamma) & _MASK64
        return Rng(s2, gamma), Rng(_mix64(s1), _mix_gamma(s2))


class Generator(_Record, Generic[A]):
    """Pure ``Rng -> (value, Rng)``."""

    __slots__ = _fields = ("run",)

    def __init__(self, run: Callable[[Rng], tuple[A, Rng]]) -> None:
        object.__setattr__(self, "run", run)


# ---------------------------------------------------------------------------
# Timed commands


class Command(_Record):
    """One operation call, issued ``delay`` ticks after the previous one.

    ``op`` must be a ``str`` and ``delay`` an integer, not a bool
    (``TypeError``), of at least 1 (``ValueError``).
    """

    __slots__ = _fields = ("op", "delay")

    def __init__(self, op: str, delay: int) -> None:
        # the type test lets a plain int skip the is_int call: the shrinker
        # builds a Command for every candidate delay
        if not isinstance(op, str) or type(delay) is not int and not is_int(delay):
            raise TypeError(
                f"need a string op and an integer delay, got op {op!r} and delay {delay!r}"
            )
        if delay < 1:
            raise ValueError("delay must be >= 1")
        _set_op(self, op)
        _set_delay(self, delay)


# the hot records are built through their slots' own descriptors, which
# skip the name lookup of object.__setattr__
_set_state = Rng.state.__set__
_set_gamma = Rng.gamma.__set__
_set_op = Command.op.__set__
_set_delay = Command.delay.__set__


def _rejection(span: int) -> tuple[int, int]:
    """(limit, words) of a uniform draw over ``span`` values by rejection.

    A draw packs ``words`` 64-bit outputs into one integer, and keeps it
    only below ``limit``, the largest multiple of ``span`` that fits.
    """
    words = max(1, (span.bit_length() + 63) // 64)
    return (1 << (64 * words)) // span * span, words


# the most lanes one pass of the kernel computes; a longer run of outputs
# takes several passes, so the lane constants stay tens of kilobytes and
# a sequence computes at most one pass ahead of the lanes it reads
_MAX_LANES = 256


@cache
def _block(size: int) -> tuple[int, int, int, Struct]:
    """The constants of one kernel pass over ``size`` 128-bit lanes.

    Lane ``i`` (from the least significant end) of ``ones`` holds 1, of
    ``ramp`` holds ``i + 1`` and of ``mask`` the low 64 bits set; the
    ``Struct`` reads each lane's low word and skips its high one. Built
    on first use, for powers of two up to ``_MAX_LANES`` only.
    """
    ones = sum(1 << (128 * i) for i in range(size))
    ramp = sum((i + 1) << (128 * i) for i in range(size))
    return ones, ramp, ones * _MASK64, Struct("<" + "Q8x" * size)


def _extend(lanes: list[int], state: int, gamma: int, count: int) -> None:
    """Append at least ``count`` more outputs of the stream to ``lanes``.

    ``lanes`` holds the outputs after stream state ``state``: output
    ``j`` (from 1) is ``_mix64(state + j * gamma)``, a pure function of
    ``j`` (Steele, Lea and Flood, OOPSLA 2014). So one pass puts the
    next outputs' states side by side in the 128-bit lanes of one
    integer and runs the splitmix64 finalizer on all of them at once;
    masking each lane to its low word before every multiply keeps the
    lanes from carrying into one another, and the last xor-shift's spill
    into a lane's high word is never read. A pass covers a power of two
    of lanes, so it may append more than ``count``, all of them true
    outputs of the stream.
    """
    while count > 0:
        size = min(1 << (count - 1).bit_length(), _MAX_LANES)
        ones, ramp, mask, words = _block(size)
        start = (state + len(lanes) * gamma) & _MASK64
        z = (start * ones + gamma * ramp) & mask
        z = ((z ^ (z >> 30)) & mask) * 0xBF58476D1CE4E5B9 & mask
        z = ((z ^ (z >> 27)) & mask) * 0x94D049BB133111EB & mask
        z ^= z >> 31
        lanes += words.unpack(z.to_bytes(16 * size, "little"))
        count -= size


def _draw(
    lanes: list[int],
    at: int,
    state: int,
    gamma: int,
    span: int,
    limit: int,
    words: int,
    ahead: int,
) -> tuple[int, int]:
    """A value uniform in [0, span) read from ``lanes`` at ``at``, and the index after it.

    ``lanes`` holds the outputs after stream state ``state`` (see
    :func:`_extend`). A draw packs ``words`` of them into one integer and
    keeps it only below ``limit``; a rejected one reads the next.
    ``ahead`` is how many lanes the caller reads after the draw if none
    is rejected. Lanes are computed on demand: a pass that has to run
    computes up to ``ahead`` more, at most ``_MAX_LANES``, and when
    ``ahead`` is positive one lane is left behind the draw, so the
    caller may read it without a check.
    """
    while True:
        short = at + words + (ahead > 0) - len(lanes)
        if short > 0:
            _extend(lanes, state, gamma, max(short, min(ahead, _MAX_LANES)))
        acc = 0
        for word in lanes[at : at + words]:
            acc = (acc << 64) | word
        at += words
        if acc < limit:
            return acc % span, at


_UNSEEN = object()


class _Pick:
    """The weighted pick at one tuple of states the run could be in.

    ``bounds`` are the running sums of the enabled operations' weights,
    in ``repr`` order of the operations, and ``commands`` their commands,
    one per delay. ``nexts`` fills lazily, per operation, with the pick
    at the states that operation leads to (None when nothing weighted is
    enabled there). ``lane_limit`` is the bound below which one lane is
    a pick by itself: ``limit`` for a one-word pick, and 0 for a
    multi-word one, whose every pick goes through ``_draw``.
    """

    __slots__ = (
        "states", "ops", "bounds", "span", "limit", "words", "lane_limit", "commands", "nexts"
    )

    def __init__(self, states, items, commands) -> None:
        self.states = states
        self.ops = [op for op, _ in items]
        self.bounds = list(accumulate(weight for _, weight in items))
        self.span = self.bounds[-1]
        self.limit, self.words = _rejection(self.span)
        self.lane_limit = self.limit if self.words == 1 else 0
        self.commands = [commands[op] for op in self.ops]
        self.nexts = [_UNSEEN] * len(items)


def gen_enabled_commands(
    model: StateModel,
    weights: Mapping[str, int],
    max_len: int,
) -> Generator[tuple[Command, ...]]:
    """Model-aware sequence generator: only currently enabled ops are drawn.

    Draws a length uniform in [1, max_len], then an (operation, delay)
    pair per command, the delay uniform in [1, 5], so a seed pins the
    whole sequence. Walks the model alongside generation. The states the
    run could be in start at the model's init states, and each drawn
    operation moves them to their :func:`~stpt.statemodel.successors`.
    Each weighted pick is restricted to operations enabled in at least
    one of those states, so such sequences never trip the harness's
    disabled-operation check. Generation stops early when no weighted
    operation is enabled, so sequences may be shorter than the drawn
    length (or empty). ``weights`` is read, and ``max_len`` and every
    weight checked to be a positive integer (a ``bool`` is none), once,
    when the generator is built.

    Every draw reads whole 64-bit outputs of the ``Rng``'s stream from
    one list of lanes, which one kernel, :func:`_extend`, fills by
    running splitmix64 on many outputs at once in a packed integer; the
    ``Rng`` returned is built at the end, after the outputs read. The
    length is drawn first. Each command reads two lanes, one for its pick
    and one for its delay; when fewer are left, one pass computes those
    of the commands still to come, up to ``_MAX_LANES``, so a sequence
    that stops early computes few beyond those it reads. A pick or delay
    whose lane is below its bound takes that lane; a rejected draw, or a
    pick whose weights sum to 2**64 or more, goes through ``_draw``,
    which reads further lanes and computes more on demand. The draws,
    and their order, are those of the composed reference generator in
    ``tests/helpers.py``: a weighted pick walks the enabled operations
    in ``repr`` order. The pick at each tuple of states,
    and where each operation leads from it, is memoised for every run of
    this generator, and each ``(op, delay)`` command is built once.
    """
    if not is_int(max_len) or max_len < 1:
        raise InvalidRange(f"max_len must be an integer >= 1, got {max_len!r}")
    if not weights:
        raise InvalidRange("weights must be nonempty")
    ranked = sorted(weights.items(), key=lambda kv: repr(kv[0]))
    for op, weight in ranked:
        if not is_int(weight):
            raise InvalidRange(f"weight for {op!r} must be an integer, got {weight!r}")
        if weight <= 0:
            raise InvalidRange(f"weight for {op!r} must be positive")
    # indexed by the drawn delay less one
    commands = {op: tuple(Command(op, d) for d in range(1, 6)) for op, _ in ranked}
    length_limit, length_words = _rejection(max_len)
    delay_limit = _rejection(5)[0]
    picks: dict[tuple[State, ...], Optional[_Pick]] = {}

    def pick_at(states: tuple[State, ...]) -> Optional[_Pick]:
        try:
            return picks[states]
        except KeyError:
            pass
        enabled = {name for s in states for name in enabled_actions(model, s)}
        items = [(op, weight) for op, weight in ranked if op in enabled]
        pick = picks[states] = _Pick(states, items, commands) if items else None
        return pick

    def go(rng: Rng) -> tuple[tuple[Command, ...], Rng]:
        state, gamma = rng.state, rng.gamma
        # how many lanes to compute rests on the length, so its first
        # word is the stream's first output, worked out alone
        lanes = [_mix64((state + gamma) & _MASK64)]
        length, at = _draw(lanes, 0, state, gamma, max_len, length_limit, length_words, 0)
        pick = pick_at(model.init)
        out = []
        # ``rest`` lanes are read after this command's two if no draw is
        # rejected
        for rest in range(2 * length, -1, -2):
            if pick is None:
                break
            if len(lanes) - at < 2:
                _extend(lanes, state, gamma, min(rest + 2, _MAX_LANES))
            z = lanes[at]
            if z < pick.lane_limit:
                at += 1
                value = z % pick.span
            else:
                value, at = _draw(
                    lanes, at, state, gamma, pick.span, pick.limit, pick.words, rest + 1
                )
            index = bisect_right(pick.bounds, value)
            z = lanes[at]
            if z < delay_limit:
                at += 1
                delay = z % 5
            else:
                delay, at = _draw(lanes, at, state, gamma, 5, delay_limit, 1, rest)
            out.append(pick.commands[index][delay])
            nxt = pick.nexts[index]
            if nxt is _UNSEEN:
                nxt = pick.nexts[index] = pick_at(
                    tuple(successors(model, pick.states, pick.ops[index]))
                )
            pick = nxt
        return tuple(out), Rng((state + at * gamma) & _MASK64, gamma)

    return Generator(go)


# ---------------------------------------------------------------------------
# Shrinking


def shrink_sequence(
    seq: Sequence[Command],
    fails: Callable[[tuple[Command, ...]], Optional[int]],
) -> tuple[Command, ...]:
    """Minimize ``seq`` while ``fails`` still reports a failure.

    ``fails`` returns None for a passing candidate, and otherwise how many
    leading commands its failure needed (0 for a failure before the first
    command): ``fails(c) == k`` means ``c[:k]`` fails and no shorter
    prefix of ``c`` does. A replay that stops at its first divergence
    meets this. ``seq``, read into a tuple, already fails and is cut after
    the command its failure needed, so ``fails`` is never called on it.
    Every failing candidate is cut to that prefix at no further call.

    Time shrinks first: when some delay is above 1, the cut with every
    delay set to one tick is offered before anything else, as an integer
    shrink tries its floor first. Then contiguous chunks of half, a
    quarter, ... of the length, down to 2, are deleted left to right.
    Last, the same deletion with chunks of one command and a
    delay-halving pass alternate until neither changes anything. The
    result is 1-minimal: no single deletion and no single delay halving
    still fails. It is the cut of the last candidate on which ``fails``
    did not return None, or ``seq`` if there was none.

    The contract also decides every proper prefix of the current cut: it
    passes. So a chunk deletion that leaves such a prefix is never
    offered, whether it deletes the tail or, in a cut that repeats itself
    with the chunk's period, leaves commands equal to a prefix by value.
    For a ``fails`` that is not deterministic, only the verdict on such a
    deletion rests on the contract instead of a call.
    """
    current = tuple(seq)

    def accept(candidate: tuple[Command, ...]) -> bool:
        nonlocal current
        kept = fails(candidate)
        if kept is None:
            return False
        current = candidate[:kept]
        return True

    def delete_chunks(size: int) -> bool:
        """Delete runs of ``size`` commands left to right; whether any went.

        What a deletion leaves equals the proper prefix of the cut
        ``size`` commands shorter exactly when the commands after the run
        equal those from its start, which always holds at the tail. Such
        a deletion passes, so it is never offered.
        """
        changed = False
        start = 0
        while start + size <= len(current):
            rest = current[start + size :]
            if rest != current[start : len(current) - size] and accept(
                current[:start] + rest
            ):
                changed = True
            else:
                start += size
        return changed

    if any(c.delay > 1 for c in current):
        accept(tuple(Command(c.op, 1) for c in current))
    size = len(current) // 2
    while size >= 2:
        delete_chunks(size)
        size //= 2
    while True:
        changed = delete_chunks(1)
        # an accepted halving may move the failure earlier and cut the
        # sequence, so the bound is read again after every candidate
        index = 0
        while index < len(current):
            command = current[index]
            halved = command.delay // 2
            if halved and accept(
                current[:index] + (Command(command.op, halved),) + current[index + 1 :]
            ):
                changed = True
            else:
                index += 1
        if not changed:
            return current
