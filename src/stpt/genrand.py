"""Splittable pure PRNG, and the generation and shrinking of timed command sequences.

The random source is a splitmix64-style state/gamma pair. Splitting gives
two independent streams, so each test case draws from its own stream,
whatever ran before it. A generator is a pure function from an Rng to a
(value, next-Rng) pair. A campaign draws timed command sequences that walk
the model's enabled operations, and shrinks the failing ones.

Determinism contract: for a fixed seed and fixed draw order, every value
produced here is identical across runs, platforms, and worker counts.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate
from typing import Callable, Generic, Mapping, Optional, TypeVar

from .spatial import is_int
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
    if bin(z ^ (z >> 1)).count("1") < 24:
        z ^= 0xAAAAAAAAAAAAAAAA
    return z & _MASK64


@dataclass(frozen=True)
class Rng:
    """Immutable splittable random source. Every draw returns the next Rng."""

    state: int
    gamma: int = _GOLDEN_GAMMA

    @classmethod
    def from_seed(cls, seed: int) -> Rng:
        return cls(state=seed & _MASK64, gamma=_GOLDEN_GAMMA)

    def split(self) -> tuple[Rng, Rng]:
        """(advanced self, independent child) pair."""
        s1 = (self.state + self.gamma) & _MASK64
        s2 = (s1 + self.gamma) & _MASK64
        child = Rng(state=_mix64(s1), gamma=_mix_gamma(s2))
        return Rng(s2, self.gamma), child


@dataclass(frozen=True)
class Generator(Generic[A]):
    """Pure ``Rng -> (value, Rng)``."""

    run: Callable[[Rng], tuple[A, Rng]]


# ---------------------------------------------------------------------------
# Timed commands


@dataclass(frozen=True)
class Command:
    """One operation call, issued ``delay`` ticks after the previous one.

    ``op`` must be a ``str`` and ``delay`` an integer, not a bool
    (``TypeError``), of at least 1 (``ValueError``).
    """

    op: str
    delay: int

    def __post_init__(self) -> None:
        op, delay = self.op, self.delay
        # the type test lets a plain int skip the is_int call: the shrinker
        # builds a Command for every candidate delay
        if not isinstance(op, str) or type(delay) is not int and not is_int(delay):
            raise TypeError(
                f"need a string op and an integer delay, got op {op!r} and delay {delay!r}"
            )
        if delay < 1:
            raise ValueError("delay must be >= 1")


@dataclass(frozen=True)
class CommandSequence:
    commands: tuple[Command, ...] = ()

    def __len__(self) -> int:
        return len(self.commands)

    def __iter__(self):
        return iter(self.commands)

    @property
    def timestamps(self) -> tuple[int, ...]:
        """Absolute issue time of each command (prefix sums of delays)."""
        out = []
        clock = 0
        for command in self.commands:
            clock += command.delay
            out.append(clock)
        return tuple(out)

    def with_delay(self, index: int, delay: int) -> CommandSequence:
        if not 0 <= index < len(self.commands):
            raise IndexError(index)
        replaced = Command(self.commands[index].op, delay)
        return CommandSequence(
            self.commands[:index] + (replaced,) + self.commands[index + 1 :]
        )


def _rejection(span: int) -> tuple[int, int]:
    """(limit, words) of a uniform draw over ``span`` values by rejection.

    A draw packs ``words`` 64-bit outputs into one integer, and keeps it
    only below ``limit``, the largest multiple of ``span`` that fits.
    """
    words = max(1, (span.bit_length() + 63) // 64)
    return (1 << (64 * words)) // span * span, words


def _draw(state: int, gamma: int, span: int, limit: int, words: int) -> tuple[int, int]:
    """A value uniform in [0, span), and the stream state after it."""
    while True:
        acc = 0
        for _ in range(words):
            state = (state + gamma) & _MASK64
            acc = (acc << 64) | _mix64(state)
        if acc < limit:
            return acc % span, state


_UNSEEN = object()


class _Pick:
    """The weighted pick at one tuple of states the run could be in.

    ``bounds`` are the running sums of the enabled operations' weights,
    in ``repr`` order of the operations, and ``commands`` their commands,
    one per delay. ``nexts`` fills lazily, per operation, with the pick
    at the states that operation leads to (None when nothing weighted is
    enabled there).
    """

    __slots__ = ("states", "ops", "bounds", "span", "limit", "words", "commands", "nexts")

    def __init__(self, states, items, commands) -> None:
        self.states = states
        self.ops = [op for op, _ in items]
        self.bounds = list(accumulate(weight for _, weight in items))
        self.span = self.bounds[-1]
        self.limit, self.words = _rejection(self.span)
        self.commands = [commands[op] for op in self.ops]
        self.nexts = [_UNSEEN] * len(items)


def gen_enabled_commands(
    model: StateModel,
    weights: Mapping[str, int],
    max_len: int,
) -> Generator[CommandSequence]:
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
    length (or empty). ``weights`` is read, and every weight checked to
    be a positive integer (a ``bool`` is none), once, when the generator
    is built.

    One kernel makes every draw on the raw state of the ``Rng``, each by
    rejection over whole 64-bit outputs, and builds the ``Rng`` it returns
    only at the end. The pick and the delay of each command, one-word
    draws both, run the splitmix64 step in place; the length, and a pick
    whose weights sum to 2**64 or more, go through ``_draw``. The draws,
    and their order, are those of the composed reference generator in
    ``tests/helpers.py``: a weighted pick walks the enabled operations
    in ``repr`` order. The pick at each tuple of states,
    and where each operation leads from it, is memoised for every run of
    this generator, and each ``(op, delay)`` command is built once.
    """
    if max_len < 1:
        raise InvalidRange("max_len must be >= 1")
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

    def go(rng: Rng) -> tuple[CommandSequence, Rng]:
        state, gamma = rng.state, rng.gamma
        length, state = _draw(state, gamma, max_len, length_limit, length_words)
        pick = pick_at(model.init)
        out = []
        for _ in range(length + 1):
            if pick is None:
                break
            # the pick and the delay are one-word draws, each with the
            # splitmix64 step of _draw and _mix64 written out in place
            if pick.words == 1:
                limit = pick.limit
                while True:
                    state = (state + gamma) & _MASK64
                    z = (state ^ (state >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
                    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK64
                    z ^= z >> 31
                    if z < limit:
                        break
                value = z % pick.span
            else:
                value, state = _draw(state, gamma, pick.span, pick.limit, pick.words)
            index = bisect_right(pick.bounds, value)
            while True:
                state = (state + gamma) & _MASK64
                z = (state ^ (state >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
                z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK64
                z ^= z >> 31
                if z < delay_limit:
                    break
            out.append(pick.commands[index][z % 5])
            nxt = pick.nexts[index]
            if nxt is _UNSEEN:
                nxt = pick.nexts[index] = pick_at(
                    tuple(successors(model, pick.states, pick.ops[index]))
                )
            pick = nxt
        return CommandSequence(tuple(out)), Rng(state, gamma)

    return Generator(go)


# ---------------------------------------------------------------------------
# Shrinking


def shrink_sequence(
    seq: CommandSequence,
    fails: Callable[[CommandSequence], Optional[int]],
) -> CommandSequence:
    """Minimize ``seq`` while ``fails`` still reports a failure.

    ``fails`` returns None for a passing candidate, and otherwise how many
    leading commands its failure needed (0 for a failure before the first
    command): ``fails(c) == k`` means ``c[:k]`` fails and no shorter
    prefix of ``c`` does. A replay that stops at its first divergence
    meets this. ``seq`` already fails, and is already cut after the
    command its failure needed, so ``fails`` is never called on it. Every
    failing candidate is cut to that prefix, which costs no further call.

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
    current = seq

    def accept(candidate: CommandSequence) -> bool:
        nonlocal current
        kept = fails(candidate)
        if kept is None:
            return False
        current = CommandSequence(candidate.commands[:kept])
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
            commands = current.commands
            rest = commands[start + size :]
            if rest != commands[start : len(commands) - size] and accept(
                CommandSequence(commands[:start] + rest)
            ):
                changed = True
            else:
                start += size
        return changed

    if any(c.delay > 1 for c in current.commands):
        accept(CommandSequence(tuple(Command(c.op, 1) for c in current.commands)))
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
            halved = current.commands[index].delay // 2
            if halved and accept(current.with_delay(index, halved)):
                changed = True
            else:
                index += 1
        if not changed:
            return current
