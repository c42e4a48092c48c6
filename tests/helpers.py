"""Independent oracles and data builders shared across the test modules.

Everything here deliberately re-derives results by the dumbest correct
means available (recursive path walks, per-cell rasterization, sliding
window scans) so the library code is checked against something that does
not share its shortcuts.
"""

from __future__ import annotations

import json
import random
import re
from itertools import accumulate
from typing import Callable, Optional

from hypothesis import strategies as st

from stpt import (
    ActionSpec,
    Command,
    Generator,
    Rng,
    And,
    Box,
    CollisionWitness,
    Deferred,
    EmptyInit,
    FailKind,
    FalseAtom,
    Implies,
    NeverEnabled,
    NoOpEffect,
    Not,
    Observation,
    OccupancyFact,
    OccupyBox,
    OccupyPoint,
    Or,
    Owner,
    RawObservation,
    RobotSim,
    State,
    StateModel,
    TimeInterval,
    TimeWindow,
    TrueAtom,
)
from stpt.formula_text import _MAX_DEPTH, FormulaParseError
from stpt.genrand import InvalidRange, _mix64, _MASK64
from stpt.spatial import _CONSTRUCTS, Invariant, normalize
from stpt.statemodel import enabled_actions, step, successors
from stpt.suts import (
    BEAM_ELECTRON,
    BEAM_OFF,
    BEAM_PHOTON,
    MODE_ELECTRON,
    MODE_NONE,
    MODE_PHOTON,
    OP_CURSOR_UP,
    OP_OTHER,
    OP_SELECT_ELECTRON,
    OP_SELECT_PHOTON,
)


# ---------------------------------------------------------------------------
# Behaviour enumeration oracle


def oracle_behaviours(model: StateModel, depth: int) -> set:
    """Depth-first recursive enumeration of (states, actions) pairs.

    Mirrors the declared step semantics from scratch: per operation name,
    the distinct effect results of enabled same-named actions.
    """
    names = sorted({a.name for a in model.actions})

    def successors(s, name):
        out = []
        for action in model.actions:
            if action.name == name and action.guard(s):
                nxt = action.effect(s)
                if nxt not in out:
                    out.append(nxt)
        return out

    seen = set()

    def walk(states, actions, remaining):
        seen.add((states, actions))
        if remaining == 0:
            return
        for name in names:
            for nxt in successors(states[-1], name):
                walk(states + (nxt,), actions + (name,), remaining - 1)

    for s0 in model.init:
        walk((s0,), (), depth)
    return seen


def random_model(seed: int) -> StateModel:
    """Small random modular-arithmetic model, at most 100 reachable states.

    Mixes always-true, sometimes-true, and never-true guards, identity
    effects, and the occasional repeated action name (nondeterminism).
    """
    rnd = random.Random(seed)
    two_vars = rnd.random() < 0.4
    if two_vars:
        domain = rnd.randint(2, 10)  # domain^2 <= 100
        variables = ("x", "y")
    else:
        domain = rnd.randint(2, 100)
        variables = ("x",)

    def make_state(values):
        return State(dict(zip(variables, values)))

    init_count = rnd.randint(1, 3)
    init = []
    for _ in range(init_count):
        init.append(
            make_state([rnd.randrange(domain) for _ in variables])
        )

    def make_guard():
        kind = rnd.random()
        if kind < 0.5:
            return lambda s: True
        if kind < 0.9:
            k = rnd.randint(2, 4)
            r = rnd.randrange(k)
            return lambda s, k=k, r=r: s["x"] % k == r
        return lambda s: False

    def make_effect():
        if rnd.random() < 0.15:
            return lambda s: s
        a = rnd.randint(1, domain - 1) if domain > 1 else 1
        b = rnd.randrange(domain)
        if two_vars and rnd.random() < 0.5:
            return lambda s, a=a, b=b: s.assign(y=(s["y"] * a + b) % domain)
        return lambda s, a=a, b=b: s.assign(x=(s["x"] * a + b) % domain)

    names = ["alpha", "beta", "gamma", "delta"]
    action_count = rnd.randint(2, 6)
    actions = []
    for _ in range(action_count):
        actions.append(
            ActionSpec(rnd.choice(names), make_guard(), make_effect())
        )
    return StateModel(variables, init, actions)


def oracle_spec_consistency(model: StateModel, suppress_noop=()) -> list:
    """The consistency scan by calling every guard and effect directly.

    Reachable states by a plain breadth-first walk, then per action: is its
    guard true somewhere, and does its effect change some such state.
    """
    reachable = list(model.init)
    for s in reachable:
        for action in model.actions:
            if action.guard(s):
                nxt = action.effect(s)
                if nxt not in reachable:
                    reachable.append(nxt)
    enabled = {a.name for a in model.actions for s in reachable if a.guard(s)}
    changed = {
        a.name for a in model.actions for s in reachable
        if a.guard(s) and a.effect(s) != s
    }
    names = list(dict.fromkeys(a.name for a in model.actions))
    warnings = [EmptyInit()] if not model.init else []
    warnings += [NeverEnabled(n) for n in names if n not in enabled]
    warnings += [
        NoOpEffect(n) for n in names
        if n in enabled and n not in changed and n not in suppress_noop
    ]
    return warnings


# ---------------------------------------------------------------------------
# Replay oracle


def oracle_check(model: StateModel, adapter, abstraction, seq: tuple[Command, ...]):
    """What ``check_against`` answers with no invariants, by brute force.

    None for a pass, else ``(kind, fail_index, expected_states,
    observed_state)``. Tracks the whole set of consistent model states
    through the unmemoised ``step``, compares states with ``==`` only,
    and takes issue times as running sums of the delays. The adapter must
    settle every call at once and without error.
    """

    def observe(deferred):
        settled = deferred.wait(0)
        assert settled is not None and settled[0] == "ok", settled
        return abstraction(settled[1])

    observed = observe(adapter.reset())
    consistent = [s for s in model.init if s == observed]
    if not consistent:
        return FailKind.INIT_MISMATCH, None, model.init, observed
    for index, (command, at_time) in enumerate(zip(seq, accumulate(c.delay for c in seq))):
        outcomes = [step(model, s, command.op) for s in consistent]
        if all(outcome is None for outcome in outcomes):
            return FailKind.UNKNOWN_OPERATION, index, tuple(consistent), None
        expected = []
        for outcome in outcomes:
            for nxt in outcome:
                if nxt not in expected:
                    expected.append(nxt)
        if not expected:
            return FailKind.DISABLED_ACTION, index, tuple(consistent), None
        observed = observe(adapter.apply(command, at_time))
        consistent = [s for s in expected if s == observed]
        if not consistent:
            if len(expected) > 1:
                expected.sort(key=lambda s: s.sort_key)
            return FailKind.SUT_MISMATCH, index, tuple(expected), observed
    return None


# ---------------------------------------------------------------------------
# Collision detection oracle


def oracle_collisions(facts) -> list[CollisionWitness]:
    """Brute force over every (tick, cell) pair of every two-owner fact pair."""
    out = []
    for i in range(len(facts)):
        for j in range(i + 1, len(facts)):
            a, b = facts[i], facts[j]
            if a.owner == b.owner:
                continue
            ticks = [
                t
                for t in range(
                    min(a.window.start, b.window.start),
                    max(a.window.end, b.window.end) + 1,
                )
                if a.window.contains(t) and b.window.contains(t)
            ]
            shared = sorted(set(cells(a.box)) & set(cells(b.box)))
            if not ticks or not shared:
                continue
            xs = [c[0] for c in shared]
            ys = [c[1] for c in shared]
            owner_a, owner_b = sorted((a.owner, b.owner))
            out.append(
                CollisionWitness(
                    owner_a,
                    owner_b,
                    TimeWindow(min(ticks), max(ticks)),
                    Box(min(xs), min(ys), max(xs), max(ys)),
                )
            )
    out.sort(
        key=lambda w: (w.owner_a, w.owner_b, w.overlap_window, w.overlap_box)
    )
    return out


def cells(box: Box) -> list[tuple[int, int]]:
    """Every integer point of ``box``, borders included, column by column."""
    xs, ys = range(box.x1, box.x2 + 1), range(box.y1, box.y2 + 1)
    return [(x, y) for x in xs for y in ys]


def covered_cells_bruteforce(boxes) -> set:
    covered = set()
    for box in boxes:
        covered.update(cells(box))
    return covered


# ---------------------------------------------------------------------------
# Formula satisfaction oracle


def oracle_evaluate(inv, obs: Observation) -> bool:
    """Satisfaction read off the semantics, term by term, with no folding.

    Time and space are decided on ticks and cells: a window contains the
    time when one of its ticks equals it, and a box is covered when each
    of its cells is in the rasterized union of the occupied boxes.
    """
    occupied = covered_cells_bruteforce(obs.occupied)

    def holds(term) -> bool:
        if isinstance(term, TrueAtom):
            return True
        if isinstance(term, FalseAtom):
            return False
        if isinstance(term, And):
            return all([holds(t) for t in term.terms])
        if isinstance(term, Or):
            return any([holds(t) for t in term.terms])
        if isinstance(term, Not):
            return not holds(term.term)
        if isinstance(term, Implies):
            return (not holds(term.antecedent)) or holds(term.consequent)
        if isinstance(term, TimeInterval):
            low, high = sorted((term.window.start, term.window.end))
            return obs.time in range(low, high + 1)
        if isinstance(term, Owner):
            return term.name == obs.owner
        if isinstance(term, OccupyBox):
            return set(cells(term.box)) <= occupied
        if isinstance(term, OccupyPoint):
            return (term.x, term.y) in occupied
        raise TypeError(f"unknown invariant term: {term!r}")

    return holds(inv)


def oracle_first_violation(inv, trace) -> int | None:
    """Index of the first observation the oracle says violates ``inv``."""
    for index, obs in enumerate(trace):
        if not oracle_evaluate(inv, obs):
            return index
    return None


# ---------------------------------------------------------------------------
# Formula text oracle: the first tokenizer and parser, kept as they were


# Every token is one group; a character that starts none is ``bad``, and
# the end of the text, after any whitespace, is ``eof``.
_TOKEN_RE = re.compile(
    r"""\s*(?:
        (?P<int>-?[0-9]+)
      | (?P<name>[A-Za-z][A-Za-z0-9]*)
      | (?P<string>"(?:[^"\\]|\\.)*")
      | (?P<punct>[(),])
      | (?P<eof>\Z)
      | (?P<bad>.)
    )""",
    re.VERBOSE | re.DOTALL,
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """The tokens of ``text``, refused past ``_MAX_DEPTH`` nested parentheses."""
    tokens = []
    depth = 0
    for match in _TOKEN_RE.finditer(text):
        kind = match.lastgroup
        value = match[kind]
        pos = match.start(kind)
        if kind == "bad":
            raise FormulaParseError(f"unexpected character {value!r}", pos)
        tokens.append((kind, value, pos))
        if kind == "eof":
            break
        if value == "(":
            depth += 1
            if depth > _MAX_DEPTH:
                raise FormulaParseError("nested too deeply", pos)
        elif value == ")":
            depth -= 1
    return tokens


_BY_NAME = {row.name: row for row in _CONSTRUCTS.values()}


class _Parser:
    """Recursive descent over the whole token list, one method per kind."""

    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.index = 0

    def take(self, kind: str, value: str | None = None) -> tuple[str, str, int]:
        tok_kind, tok_value, pos = self.tokens[self.index]
        if tok_kind != kind or (value is not None and tok_value != value):
            expected = value if value is not None else kind
            raise FormulaParseError(
                f"expected {expected}, found {tok_value or tok_kind!r}", pos
            )
        self.index += 1
        return tok_kind, tok_value, pos

    def parse_int(self) -> int:
        _, value, pos = self.take("int")
        try:
            return int(value)
        except ValueError:  # past the interpreter's limit on integer digits
            raise FormulaParseError("integer literal too long", pos) from None

    def parse_string(self) -> str:
        _, value, pos = self.take("string")
        try:
            return json.loads(value)
        except json.JSONDecodeError:
            raise FormulaParseError("bad string literal", pos) from None

    def parse_term(self) -> Invariant:
        _, name, pos = self.take("name")
        row = _BY_NAME.get(name)
        if row is None:
            raise FormulaParseError(f"unknown construct {name!r}", pos)
        if row.arity == 0:
            return row.build()
        parse_one = getattr(self, f"parse_{row.kind}")
        self.take("punct", "(")
        args = []
        # only punctuation tokens have the value "," or ")"
        if self.tokens[self.index][1] != ")":
            args.append(parse_one())
            while self.tokens[self.index][1] == ",":
                self.index += 1
                args.append(parse_one())
        _, _, pos = self.take("punct", ")")
        if row.arity is None and not args:
            raise FormulaParseError("expected at least 1 argument(s), found 0", pos)
        if row.arity is not None and len(args) != row.arity:
            raise FormulaParseError(f"expected {row.arity} argument(s), found {len(args)}", pos)
        return row.build(*args)


def oracle_parse(text: str) -> Invariant:
    """``text`` tokenized whole, then parsed to a tree, then normalized.

    Every token is classified, with its position, before the parser
    starts, so a bad character or a nesting too deep anywhere is refused
    before any parse error, as ``parse_invariant`` must refuse it.
    """
    parser = _Parser(text)
    term = parser.parse_term()
    kind, value, pos = parser.tokens[parser.index]
    if kind != "eof":
        raise FormulaParseError(f"trailing input {value!r}", pos)
    return normalize(term)


# ---------------------------------------------------------------------------
# Therac trigger oracle


def therac_first_disagreement(ops_with_times, window=8):
    """Index of the first electron selection hit by the stale-beam defect.

    Sliding scan over (op, time) pairs: the latest selection before an
    electron one must be a photon selection at most ``window`` ticks
    earlier, with a cursor-up strictly between the two. None if the
    defect never fires.
    """
    for k, (op, t3) in enumerate(ops_with_times):
        if op != OP_SELECT_ELECTRON:
            continue
        prior = [
            (o, t)
            for o, t in ops_with_times[:k]
            if o in (OP_SELECT_PHOTON, OP_SELECT_ELECTRON)
        ]
        if not prior or prior[-1][0] != OP_SELECT_PHOTON:
            continue
        t1 = prior[-1][1]
        if t3 - t1 > window:
            continue
        if any(
            o == OP_CURSOR_UP and t1 < t < t3 for o, t in ops_with_times[:k]
        ):
            return k
    return None


# ---------------------------------------------------------------------------
# Reference simulators: every answer built fresh


class ReferenceTheracSim:
    """The terminal of :class:`~stpt.suts.TheracSim`, keeping no answer.

    Each step builds its payload and observation anew, and the trigger is
    found by scanning the whole (op, time) history since the reset.
    """

    EDIT_WINDOW_TICKS = 8

    def __init__(self, sequence_bug: bool = False):
        self.sequence_bug = sequence_bug
        self.reset()

    def reset(self) -> Deferred:
        self._mode = MODE_NONE
        self._beam = BEAM_OFF
        self._history: list[tuple[str, int]] = []
        return Deferred.successful(self._observe(0))

    def _observe(self, clock: int) -> RawObservation:
        payload = {"mode": self._mode, "beam": self._beam}
        return RawObservation(payload=payload, occupancy=(), clock=clock)

    def _bug_fires(self, at_time: int) -> bool:
        # most recent selection must be a photon one, close enough in time,
        # with a cursor movement strictly between the two selections
        for op, t in reversed(self._history):
            if op not in (OP_SELECT_PHOTON, OP_SELECT_ELECTRON):
                continue
            if op != OP_SELECT_PHOTON:
                return False
            if at_time - t > self.EDIT_WINDOW_TICKS:
                return False
            return any(
                o == OP_CURSOR_UP and t < u < at_time for o, u in self._history
            )
        return False

    def apply(self, command: Command, at_time: int) -> Deferred:
        op = command.op
        if op == OP_SELECT_PHOTON:
            self._mode = MODE_PHOTON
            self._beam = BEAM_PHOTON
        elif op == OP_SELECT_ELECTRON:
            stale = self.sequence_bug and self._bug_fires(at_time)
            self._mode = MODE_ELECTRON
            if not stale:
                self._beam = BEAM_ELECTRON
        elif op not in (OP_CURSOR_UP, OP_OTHER):
            return Deferred.failed(ValueError(f"unsupported operation {op!r}"))
        self._history.append((op, at_time))
        return Deferred.successful(self._observe(at_time))


class ReferenceRobotSim(RobotSim):
    """:class:`~stpt.robot.RobotSim` with every answer built fresh."""

    def _answer(self, key: tuple) -> Deferred:
        return Deferred.successful(self._observe(key))


# ---------------------------------------------------------------------------
# Composed generation reference


def next_u64(rng: Rng) -> tuple[int, Rng]:
    """One 64-bit output of ``rng``'s stream, and the source after it."""
    state = (rng.state + rng.gamma) & _MASK64
    return _mix64(state), Rng(state, rng.gamma)


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
                u, rng = next_u64(rng)
                acc = (acc << 64) | u
            if acc < limit:
                return lo + acc % span, rng

    return Generator(go)


def weighted(choices) -> Generator:
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

    def go(rng: Rng):
        pick, rng = pick_gen.run(rng)
        for key, weight in items:
            pick -= weight
            if pick < 0:
                return key, rng
        raise AssertionError("unreachable")

    return Generator(go)


# Every command's delay, drawn after its operation.
_DELAYS = gen_int_in_range(1, 5)


def reference_enabled_commands(model, weights, max_len) -> Generator[tuple[Command, ...]]:
    """``gen_enabled_commands`` composed from the generators above.

    A length from ``gen_int_in_range``, then per command a ``weighted``
    pick among the operations enabled in some state the run could be in,
    and a delay; the fused kernel must make the same draws in the same
    order. A weight is checked only when its operation is first enabled.
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
    picks = {}

    def go(rng: Rng) -> tuple[tuple[Command, ...], Rng]:
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
        return tuple(commands), rng

    return Generator(go)


# ---------------------------------------------------------------------------
# Greedy shrinking reference


def without(seq: tuple[Command, ...], index: int) -> tuple[Command, ...]:
    """``seq`` less its command at ``index``; IndexError out of range."""
    if not 0 <= index < len(seq):
        raise IndexError(index)
    return seq[:index] + seq[index + 1 :]


def with_delay(seq: tuple[Command, ...], index: int, delay: int) -> tuple[Command, ...]:
    """``seq`` with the command at ``index`` issued ``delay`` ticks after the one before."""
    if not 0 <= index < len(seq):
        raise IndexError(index)
    return seq[:index] + (Command(seq[index].op, delay),) + seq[index + 1 :]


def greedy_shrink_reference(seq, fails):
    """1-minimal shrink of ``seq`` under the bool predicate ``fails``.

    Only single steps: a pass deleting one command at a time, then a pass
    halving one delay at a time, repeated until neither changes anything.
    Nothing is cut or deleted in chunks, so every accepted step costs a
    replay of the whole remaining candidate.
    """
    assert fails(seq), "initial sequence does not fail"
    current = seq
    while True:
        changed = False
        index = 0
        while index < len(current):
            candidate = without(current, index)
            if fails(candidate):
                current = candidate
                changed = True
            else:
                index += 1
        for index in range(len(current)):
            delay = current[index].delay
            while delay > 1:
                candidate = with_delay(current, index, delay // 2)
                if not fails(candidate):
                    break
                current = candidate
                delay //= 2
                changed = True
        if not changed:
            return current


# ---------------------------------------------------------------------------
# Shrinking reference that offers every chunk deletion


def reference_shrink(
    seq: tuple[Command, ...],
    fails: Callable[[tuple[Command, ...]], Optional[int]],
) -> tuple[Command, ...]:
    """``shrink_sequence`` as it was before it skipped prefix deletions.

    Kept verbatim as the reference: it offers every chunk deletion, those
    that leave a proper prefix of the cut included, and it does not open
    with the cut with every delay set to one tick.

    ``seq`` already fails, and is already cut after the command its
    failure needed, so ``fails`` is never called on it. ``fails`` returns
    None for a passing candidate, and otherwise how many leading commands
    its failure needed (0 for a failure before the first command). Every
    failing candidate is cut to that prefix, which costs no further call.
    Contiguous chunks of half, a quarter, ... of the length, down to 2,
    are deleted left to right. Last, the same deletion with chunks of one
    command and a delay-halving pass alternate until neither changes
    anything. The result is 1-minimal: no single deletion and no single
    delay halving still fails. It is the cut of the last candidate on
    which ``fails`` did not return None, or ``seq`` if there was none.
    """
    current = seq

    def accept(candidate: tuple[Command, ...]) -> bool:
        nonlocal current
        kept = fails(candidate)
        if kept is None:
            return False
        current = candidate[:kept]
        return True

    def delete_chunks(size: int) -> bool:
        """Delete runs of ``size`` commands left to right; whether any went."""
        changed = False
        start = 0
        while start + size <= len(current):
            if accept(current[:start] + current[start + size :]):
                changed = True
            else:
                start += size
        return changed

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
            halved = current[index].delay // 2
            if halved and accept(with_delay(current, index, halved)):
                changed = True
            else:
                index += 1
        if not changed:
            return current


coords = st.integers(min_value=-50, max_value=50)
ticks = st.integers(min_value=-100, max_value=100)
owner_names = st.sampled_from(["arm", "gantry", "AreaOfInterest", "cart"])

boxes = st.builds(Box, coords, coords, coords, coords)
windows = st.builds(TimeWindow, ticks, ticks)

_atoms = st.one_of(
    st.just(TrueAtom()),
    st.just(FalseAtom()),
    st.builds(TimeInterval, windows),
    st.builds(Owner, owner_names),
    st.builds(OccupyBox, boxes),
    st.builds(OccupyPoint, coords, coords),
)

invariants = st.recursive(
    _atoms,
    lambda children: st.one_of(
        st.builds(Not, children),
        st.builds(Implies, children, children),
        st.lists(children, min_size=1, max_size=4).map(And),
        st.lists(children, min_size=1, max_size=4).map(Or),
    ),
    max_leaves=25,
)

observations = st.builds(
    Observation,
    ticks,
    owner_names,
    st.lists(boxes, max_size=4).map(tuple),
)

occupancy_facts = st.builds(OccupancyFact, owner_names, windows, boxes)
