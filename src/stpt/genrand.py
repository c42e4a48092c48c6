"""Splittable pure PRNG, value generators, and timed command sequences.

The random source is a splitmix64-style state/gamma pair. Splitting gives
two independent streams, so each test case draws from its own stream,
whatever ran before it. Generators are pure functions from an Rng to a
(value, next-Rng) pair. A campaign draws timed command sequences that walk
the model's enabled operations, and shrinks the failing ones.

Determinism contract: for a fixed seed and fixed draw order, every value
produced here is identical across runs, platforms, and worker counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Generic, Mapping, Optional, TypeVar

from .statemodel import State, StateModel, enabled_actions, successors

A = TypeVar("A")

_MASK64 = (1 << 64) - 1
_GOLDEN_GAMMA = 0x9E3779B97F4A7C15


class InvalidRange(ValueError):
    pass


class NotFailing(ValueError):
    """Shrinking was asked to minimize a sequence the predicate accepts."""


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

    def next_u64(self) -> tuple[int, Rng]:
        state = (self.state + self.gamma) & _MASK64
        return _mix64(state), Rng(state, self.gamma)

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


def gen_int_in_range(lo: int, hi: int) -> Generator[int]:
    """Uniform integer in the closed interval [lo, hi], by rejection."""
    if lo > hi:
        raise InvalidRange(f"empty range [{lo}, {hi}]")
    span = hi - lo + 1
    words = max(1, (span.bit_length() + 63) // 64)
    limit = (1 << (64 * words)) // span * span

    def go(rng: Rng) -> tuple[int, Rng]:
        while True:
            acc = 0
            for _ in range(words):
                u, rng = rng.next_u64()
                acc = (acc << 64) | u
            if acc < limit:
                return lo + acc % span, rng

    return Generator(go)


def weighted(choices: Mapping[A, int]) -> Generator[A]:
    """Pick a key with probability proportional to its positive weight.

    Keys are walked in sorted order so dict insertion order never matters.
    """
    items = sorted(choices.items(), key=lambda kv: repr(kv[0]))
    if not items:
        raise InvalidRange("weighted() needs at least one choice")
    for key, weight in items:
        if weight <= 0:
            raise InvalidRange(f"weight for {key!r} must be positive")
    total = sum(weight for _, weight in items)
    pick_gen = gen_int_in_range(0, total - 1)

    def go(rng: Rng) -> tuple[A, Rng]:
        pick, rng = pick_gen.run(rng)
        for key, weight in items:
            pick -= weight
            if pick < 0:
                return key, rng
        raise AssertionError("unreachable")

    return Generator(go)


# ---------------------------------------------------------------------------
# Timed commands


@dataclass(frozen=True)
class Command:
    """One operation call, issued ``delay`` ticks after the previous one."""

    op: str
    delay: int
    params: tuple = ()

    def __post_init__(self) -> None:
        if self.delay < 1:
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

    def without(self, index: int) -> CommandSequence:
        if not 0 <= index < len(self.commands):
            raise IndexError(index)
        return CommandSequence(
            self.commands[:index] + self.commands[index + 1 :]
        )

    def with_delay(self, index: int, delay: int) -> CommandSequence:
        if not 0 <= index < len(self.commands):
            raise IndexError(index)
        command = self.commands[index]
        replaced = Command(command.op, delay, command.params)
        return CommandSequence(
            self.commands[:index] + (replaced,) + self.commands[index + 1 :]
        )


# Every command's delay, drawn after its operation.
_DELAYS = gen_int_in_range(1, 5)


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
    length (or empty). ``weights`` is read once, when the generator is
    built.
    """
    if max_len < 1:
        raise InvalidRange("max_len must be >= 1")
    if not weights:
        raise InvalidRange("weights must be nonempty")
    weights = dict(weights)
    length_gen = gen_int_in_range(1, max_len)
    # One weighted pick per distinct tuple of current states, None when
    # nothing weighted is enabled in any of them; shared by every run of
    # this generator.
    picks: dict[tuple[State, ...], Optional[Generator[str]]] = {}

    def go(rng: Rng) -> tuple[CommandSequence, Rng]:
        length, rng = length_gen.run(rng)
        current = model.init
        commands = []
        for _ in range(length):
            key = tuple(current)
            try:
                pick = picks[key]
            except KeyError:
                enabled = {name for s in current for name in enabled_actions(model, s)}
                table = {op: w for op, w in weights.items() if op in enabled}
                pick = picks[key] = weighted(table) if table else None
            if pick is None:
                break
            op, rng = pick.run(rng)
            delay, rng = _DELAYS.run(rng)
            commands.append(Command(op, delay))
            current = successors(model, current, op)
        return CommandSequence(tuple(commands)), rng

    return Generator(go)


# ---------------------------------------------------------------------------
# Shrinking


def shrink_sequence(
    seq: CommandSequence,
    fails: Callable[[CommandSequence], Optional[int]],
) -> CommandSequence:
    """Minimize ``seq`` while ``fails`` still reports a failure.

    ``fails`` returns None for a passing candidate, and otherwise how
    many leading commands its failure needed (0 for a failure before the
    first command). Every failing candidate, the original included, is
    cut to that prefix, which costs no further call. Then contiguous
    chunks of half, a quarter, ... of the cut length, down to 2, are
    deleted left to right. Last, a single-command deletion pass and a
    delay-halving pass alternate until neither changes anything. The
    result is 1-minimal: no single deletion and no single delay halving
    still fails. It is always the cut of the last sequence on which
    ``fails`` did not return None.
    """
    current = seq

    def accept(candidate: CommandSequence) -> bool:
        nonlocal current
        kept = fails(candidate)
        if kept is None:
            return False
        current = CommandSequence(candidate.commands[:kept])
        return True

    if not accept(seq):
        raise NotFailing("initial sequence does not fail")
    size = len(current) // 2
    while size >= 2:
        start = 0
        while start + size <= len(current):
            commands = current.commands
            if not accept(
                CommandSequence(commands[:start] + commands[start + size :])
            ):
                start += size
        size //= 2
    while True:
        changed = False
        index = 0
        while index < len(current):
            if accept(current.without(index)):
                changed = True
            else:
                index += 1
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
