"""Splittable pure PRNG, value generators, and timed command sequences.

The random source is a splitmix64-style state/gamma pair. Splitting gives
two independent streams, so each test case draws from its own stream,
whatever ran before it. Generators are pure functions from an Rng to a
(value, next-Rng) pair, composed with map/bind.

Determinism contract: for a fixed seed and fixed draw order, every value
produced here is identical across runs, platforms, and worker counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Generic, Mapping, Optional, Sequence, TypeVar

from .spatial import And, Box, Implies, Invariant, OccupyBox, Owner, TimeInterval, TimeWindow
from .statemodel import StateModel, enabled_actions, successors

A = TypeVar("A")
B = TypeVar("B")

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
    """Pure ``Rng -> (value, Rng)`` with functor/monad composition."""

    run: Callable[[Rng], tuple[A, Rng]]

    def map(self, f: Callable[[A], B]) -> Generator[B]:
        def go(rng: Rng) -> tuple[B, Rng]:
            value, rng = self.run(rng)
            return f(value), rng

        return Generator(go)

    def bind(self, f: Callable[[A], Generator[B]]) -> Generator[B]:
        def go(rng: Rng) -> tuple[B, Rng]:
            value, rng = self.run(rng)
            return f(value).run(rng)

        return Generator(go)


def constant(value: A) -> Generator[A]:
    return Generator(lambda rng: (value, rng))


def gen_int() -> Generator[int]:
    """Uniform signed 64-bit integer."""

    def go(rng: Rng) -> tuple[int, Rng]:
        u, rng = rng.next_u64()
        return u - (1 << 64) if u >= (1 << 63) else u, rng

    return Generator(go)


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


def default_delay_gen() -> Generator[int]:
    return gen_int_in_range(1, 5)


def gen_commands(
    vocab: Mapping[str, int],
    max_len: int,
    delay_gen: Optional[Generator[int]] = None,
) -> Generator[CommandSequence]:
    """Random command sequence: uniform length in [1, max_len], weighted ops.

    Draw order is fixed — length first, then (op, delay) per command — so a
    seed pins the whole sequence.
    """
    if max_len < 1:
        raise InvalidRange("max_len must be >= 1")
    delays = delay_gen if delay_gen is not None else default_delay_gen()
    length_gen = gen_int_in_range(1, max_len)
    op_gen = weighted(vocab)

    def go(rng: Rng) -> tuple[CommandSequence, Rng]:
        length, rng = length_gen.run(rng)
        commands = []
        for _ in range(length):
            op, rng = op_gen.run(rng)
            delay, rng = delays.run(rng)
            commands.append(Command(op, delay))
        return CommandSequence(tuple(commands)), rng

    return Generator(go)


def gen_enabled_commands(
    model: StateModel,
    weights: Mapping[str, int],
    max_len: int,
    delay_gen: Optional[Generator[int]] = None,
) -> Generator[CommandSequence]:
    """Model-aware sequence generator: only currently enabled ops are drawn.

    Walks the model alongside generation. The states the run could be in
    start at the model's init states, and each drawn operation moves them
    to their :func:`~stpt.statemodel.successors`. Each weighted pick is
    restricted to operations enabled in at least one of those states, so
    such sequences never trip the harness's disabled-operation check.
    Generation stops early when no weighted operation is enabled, so
    sequences may be shorter than the drawn length (or empty). ``weights``
    is read once, when the generator is built.
    """
    if max_len < 1:
        raise InvalidRange("max_len must be >= 1")
    if not weights:
        raise InvalidRange("weights must be nonempty")
    weights = dict(weights)
    delays = delay_gen if delay_gen is not None else default_delay_gen()
    length_gen = gen_int_in_range(1, max_len)
    # One weighted pick per distinct enabled set, None when nothing weighted
    # is enabled; shared by every run of this generator.
    picks: dict[frozenset[str], Optional[Generator[str]]] = {}

    def go(rng: Rng) -> tuple[CommandSequence, Rng]:
        length, rng = length_gen.run(rng)
        current = list(model.init)
        commands = []
        for _ in range(length):
            enabled = frozenset(
                name for s in current for name in enabled_actions(model, s)
            )
            if enabled not in picks:
                table = {op: w for op, w in weights.items() if op in enabled}
                picks[enabled] = weighted(table) if table else None
            pick = picks[enabled]
            if pick is None:
                break
            op, rng = pick.run(rng)
            delay, rng = delays.run(rng)
            commands.append(Command(op, delay))
            current = successors(model, current, op)
        return CommandSequence(tuple(commands)), rng

    return Generator(go)


def gen_invariant(
    coord_range: tuple[int, int],
    time_range: tuple[int, int],
    owner_pool: Sequence[str],
) -> Generator[Invariant]:
    """Random owner-scoped coverage obligation over a random time window."""
    if not owner_pool:
        raise InvalidRange("owner_pool must be nonempty")
    coord = gen_int_in_range(*coord_range)
    tick = gen_int_in_range(*time_range)
    owner_index = gen_int_in_range(0, len(owner_pool) - 1)

    def go(rng: Rng) -> tuple[Invariant, Rng]:
        t1, rng = tick.run(rng)
        t2, rng = tick.run(rng)
        x1, rng = coord.run(rng)
        y1, rng = coord.run(rng)
        x2, rng = coord.run(rng)
        y2, rng = coord.run(rng)
        index, rng = owner_index.run(rng)
        inv = Implies(
            And((TimeInterval(TimeWindow(t1, t2)), Owner(owner_pool[index]))),
            OccupyBox(Box(x1, y1, x2, y2)),
        )
        return inv, rng

    return Generator(go)


# ---------------------------------------------------------------------------
# Shrinking


def shrink_sequence(
    seq: CommandSequence,
    fails: Callable[[CommandSequence], bool],
) -> CommandSequence:
    """Greedy minimization preserving ``fails``.

    Alternates a single-command deletion pass with a delay-halving pass
    until neither changes anything. The result is 1-minimal: no single
    deletion and no single delay halving still fails. It is always the
    last sequence on which ``fails`` returned true.
    """
    if not fails(seq):
        raise NotFailing("initial sequence does not fail")
    current = seq
    while True:
        changed = False
        index = 0
        while index < len(current):
            candidate = current.without(index)
            if fails(candidate):
                current = candidate
                changed = True
            else:
                index += 1
        for index in range(len(current)):
            delay = current.commands[index].delay
            while delay > 1:
                smaller = delay // 2
                candidate = current.with_delay(index, smaller)
                if not fails(candidate):
                    break
                current = candidate
                delay = smaller
                changed = True
        if not changed:
            return current
