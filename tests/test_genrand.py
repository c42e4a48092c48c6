from __future__ import annotations

from collections import Counter
from itertools import accumulate

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import (
    gen_int_in_range,
    greedy_shrink_reference,
    next_u64,
    random_model,
    reference_enabled_commands,
    reference_shrink,
    weighted,
    with_delay,
    without,
)
from stpt import (
    Command,
    Rng,
    gen_enabled_commands,
    shrink_sequence,
)
from stpt import genrand
from stpt.genrand import _GOLDEN_GAMMA, _MASK64, _MAX_LANES, InvalidRange, _extend, _mix64
from stpt.reports import format_sequence
from stpt.statemodel import enabled_actions, step
from stpt.suts import OP_CURSOR_UP, OP_SELECT_PHOTON, robot_suite, therac_suite


@st.composite
def weights_summing_to(draw, low: int, high: int) -> dict[str, int]:
    """Weights of the names a random model declares, summing to [low, high],
    and a small one for "epsilon", which none declares."""
    total = draw(st.integers(min_value=low, max_value=high))
    cuts = draw(
        st.lists(st.integers(min_value=1, max_value=total - 1), min_size=3, max_size=3, unique=True)
    )
    bounds = [0, *sorted(cuts), total]
    names = ("alpha", "beta", "gamma", "delta")
    weights = {name: hi - lo for name, lo, hi in zip(names, bounds, bounds[1:])}
    return dict(weights, epsilon=draw(st.integers(min_value=1, max_value=20)))


def draw_many(gen, rng: Rng, count: int) -> list:
    out = []
    for _ in range(count):
        value, rng = gen.run(rng)
        out.append(value)
    return out


class TestRng:
    def test_known_first_output_for_seed_zero(self):
        # first output of the reference 64-bit split-mix stream seeded with 0
        value, _ = next_u64(Rng.from_seed(0))
        assert value == 0xE220A8397B1DCDAF

    def test_draws_are_pure(self):
        rng = Rng.from_seed(42)
        assert next_u64(rng) == next_u64(rng)
        assert rng.split() == rng.split()

    def test_draw_advances_the_returned_source(self):
        rng = Rng.from_seed(42)
        a, rng2 = next_u64(rng)
        b, _ = next_u64(rng2)
        assert a != b

    def test_split_children_are_pairwise_distinct(self):
        rng = Rng.from_seed(9)
        firsts = []
        for _ in range(100):
            rng, child = rng.split()
            value, _ = next_u64(child)
            firsts.append(value)
        assert len(set(firsts)) == 100

    def test_split_child_stream_is_uniform(self):
        _, child = Rng.from_seed(7).split()
        counts = Counter(draw_many(gen_int_in_range(0, 9), child, 10_000))
        assert set(counts) == set(range(10))
        for value in range(10):
            assert 800 <= counts[value] <= 1200

    # a split child's gamma is not the default one; from the last two
    # states the stream's state wraps around 2**64 at its first output
    @pytest.mark.parametrize("gamma", [_GOLDEN_GAMMA, Rng.from_seed(3).split()[1].gamma])
    @pytest.mark.parametrize(
        "state", [0, 12345, (1 << 64) - 1, (1 << 64) - 7 * _GOLDEN_GAMMA % (1 << 64)]
    )
    def test_lanes_are_successive_outputs(self, state, gamma):
        def outputs(count):
            return [_mix64((state + j * gamma) & _MASK64) for j in range(1, count + 1)]

        for count in [*range(1, 131), _MAX_LANES + 1, 3 * _MAX_LANES]:
            lanes: list[int] = []
            _extend(lanes, state, gamma, count)
            assert count <= len(lanes) and lanes == outputs(len(lanes))
            # a second pass goes on where the first stopped
            _extend(lanes, state, gamma, count)
            assert 2 * count <= len(lanes) and lanes == outputs(len(lanes))


class TestGenerators:
    def test_same_seed_same_value(self):
        gen = gen_int_in_range(-(1 << 63), (1 << 63) - 1)
        assert gen.run(Rng.from_seed(5)) == gen.run(Rng.from_seed(5))

    def test_int_covers_both_signs(self):
        gen = gen_int_in_range(-(1 << 63), (1 << 63) - 1)
        values = draw_many(gen, Rng.from_seed(1), 200)
        assert any(v < 0 for v in values) and any(v >= 0 for v in values)

    def test_range_frequencies_within_tolerance(self):
        counts = Counter(draw_many(gen_int_in_range(0, 9), Rng.from_seed(3), 10_000))
        for value in range(10):
            assert 800 <= counts[value] <= 1200

    def test_range_is_inclusive(self):
        values = set(draw_many(gen_int_in_range(-2, 2), Rng.from_seed(0), 500))
        assert values == {-2, -1, 0, 1, 2}

    def test_singleton_range(self):
        assert draw_many(gen_int_in_range(7, 7), Rng.from_seed(1), 20) == [7] * 20

    def test_empty_range_rejected(self):
        with pytest.raises(InvalidRange):
            gen_int_in_range(5, 4)

    def test_spans_wider_than_one_word(self):
        lo, hi = -(1 << 70), 1 << 70
        values = draw_many(gen_int_in_range(lo, hi), Rng.from_seed(11), 200)
        assert all(lo <= v <= hi for v in values)
        assert any(abs(v) > (1 << 64) for v in values)

class TestWeighted:
    def test_nine_to_one_fraction(self):
        values = draw_many(weighted({"a": 9, "b": 1}), Rng.from_seed(17), 10_000)
        fraction = values.count("a") / len(values)
        assert 0.87 <= fraction <= 0.93

    def test_insertion_order_never_matters(self):
        rng = Rng.from_seed(4)
        forward = draw_many(weighted({"a": 2, "b": 3, "c": 5}), rng, 300)
        backward = draw_many(weighted({"c": 5, "b": 3, "a": 2}), rng, 300)
        assert forward == backward

    def test_single_choice_is_constant(self):
        assert set(draw_many(weighted({"only": 3}), Rng.from_seed(0), 50)) == {"only"}

    def test_rejects_empty_and_nonpositive(self):
        with pytest.raises(InvalidRange):
            weighted({})
        with pytest.raises(InvalidRange):
            weighted({"a": 0})
        with pytest.raises(InvalidRange):
            weighted({"a": 1, "b": -2})


class TestCommands:
    def test_delay_must_be_positive(self):
        with pytest.raises(ValueError):
            Command("op", 0)

    @pytest.mark.parametrize(
        "op, delay",
        # a delay below 1 of the wrong type is a TypeError too
        [("x", 2.5), ("x", True), ("x", "2"), ("x", 0.5), ("x", False), (5, 1), (None, 1)],
        ids=["float-delay", "bool-delay", "str-delay", "small-float-delay", "false-delay",
             "int-op", "none-op"],
    )
    def test_op_must_be_a_string_and_delay_an_integer(self, op, delay):
        with pytest.raises(TypeError, match="need a string op and an integer delay"):
            Command(op, delay)

    def test_issue_times_are_prefix_sums_of_the_delays(self):
        seq = (Command("a", 2), Command("b", 3), Command("c", 1))
        assert format_sequence(seq) == "a@2 b@5 c@6"

    def test_the_delay_halving_pass_halves_one_delay_at_a_time(self):
        seq = (Command("a", 2), Command("b", 9))
        offered = []

        def fails(s: tuple[Command, ...]):
            offered.append(s)
            return 2 if len(s) == 2 and s[1].delay >= 3 else None

        assert shrink_sequence(seq, fails) == (Command("a", 1), Command("b", 4))
        # the opening all-ones cut, the one deletion that leaves no prefix,
        # then each halving is its predecessor with one delay replaced
        assert offered[:5] == [
            (Command("a", 1), Command("b", 1)),
            (Command("b", 9),),
            with_delay(seq, 0, 1),
            with_delay(with_delay(seq, 0, 1), 1, 4),
            with_delay(with_delay(seq, 0, 1), 1, 2),
        ]
        with pytest.raises(IndexError):
            with_delay(seq, 2, 1)

    def test_reference_without_drops_one_command(self):
        seq = (Command("a", 2), Command("b", 3))
        assert without(seq, 0) == (Command("b", 3),)
        with pytest.raises(IndexError):
            without(seq, 2)
        with pytest.raises(IndexError):
            without(seq, -1)

    def test_empty_sequence_is_legal(self):
        assert format_sequence(()) == "(empty)"


class TestGenEnabledCommands:
    @pytest.mark.parametrize("seed", range(12))
    def test_never_emits_a_disabled_operation(self, seed):
        model = random_model(seed)
        weights = {name: 1 for name in model.action_names}
        gen = gen_enabled_commands(model, weights, max_len=8)
        seq, _ = gen.run(Rng.from_seed(seed * 31 + 1))
        current = list(model.init)
        for command in seq:
            assert any(
                command.op in enabled_actions(model, s) for s in current
            )
            successors = []
            for s in current:
                for nxt in step(model, s, command.op):
                    if nxt not in successors:
                        successors.append(nxt)
            current = successors

    @pytest.mark.parametrize("seed", range(20))
    def test_draws_match_a_step_walk_reference(self, seed):
        # The same draws, in the same order, made by walking the model with
        # the unmemoised reference `step`: a length, then per command a
        # weighted pick among the enabled operations and a delay in [1, 5].
        model = random_model(seed)
        weights = {
            name: 1 + i % 3 for i, name in enumerate(model.action_names)
        }
        gen = gen_enabled_commands(model, weights, max_len=8)
        rng = Rng.from_seed(seed * 17 + 3)

        length, expected_rng = gen_int_in_range(1, 8).run(rng)
        current = list(model.init)
        expected = []
        for _ in range(length):
            outcomes = {
                op: [step(model, s, op) for s in current]
                for op in model.action_names
            }
            table = {
                op: w
                for op, w in weights.items()
                if any(outcomes[op])
            }
            if not table:
                break
            op, expected_rng = weighted(table).run(expected_rng)
            delay, expected_rng = gen_int_in_range(1, 5).run(expected_rng)
            expected.append(Command(op, delay))
            nexts = []
            for outcome in outcomes[op]:
                nexts.extend(n for n in outcome if n not in nexts)
            current = nexts

        assert gen.run(rng) == (tuple(expected), expected_rng)

    def test_always_enabled_model_fills_drawn_length(self):
        suite = therac_suite("none")
        gen = gen_enabled_commands(suite.model, suite.default_weights, max_len=10)
        lengths = {len(gen.run(Rng.from_seed(s))[0]) for s in range(100)}
        assert lengths <= set(range(1, 11))
        assert len(lengths) > 3

    def test_rejects_empty_weights(self):
        with pytest.raises(InvalidRange):
            gen_enabled_commands(therac_suite("none").model, {}, max_len=5)

    @pytest.mark.parametrize("op", [OP_SELECT_PHOTON, "neverDeclared"])
    def test_zero_weight_is_rejected_when_built(self, op):
        # the composed reference rejected it only once the op was enabled;
        # the kernel checks every weight before drawing anything
        weights = dict(therac_suite("none").default_weights, **{op: 0})
        with pytest.raises(InvalidRange):
            gen_enabled_commands(therac_suite("none").model, weights, max_len=5)

    @pytest.mark.parametrize("weight", [0.5, "3", True], ids=["float", "str", "bool"])
    def test_weight_that_is_no_integer_is_rejected_when_built(self, weight):
        suite = therac_suite("none")
        weights = dict(suite.default_weights, **{OP_CURSOR_UP: weight})
        with pytest.raises(InvalidRange) as refused:
            gen_enabled_commands(suite.model, weights, max_len=5)
        assert str(refused.value) == (
            f"weight for {OP_CURSOR_UP!r} must be an integer, got {weight!r}"
        )

    def test_weight_beyond_64_bits_is_valid(self):
        suite = therac_suite("none")
        weights = dict(suite.default_weights, **{OP_CURSOR_UP: 2**70})
        gen = gen_enabled_commands(suite.model, weights, max_len=5)
        seqs = [gen.run(Rng.from_seed(s))[0] for s in range(20)]
        # the other weights sum to 7, so nearly every pick is the cursor
        assert all(c.op == OP_CURSOR_UP for seq in seqs for c in seq)
        assert seqs[0]

    @settings(max_examples=300, deadline=None)
    @given(
        model_seed=st.integers(min_value=0, max_value=10_000),
        # "epsilon" is declared by no random model, so it is never enabled;
        # some models give a name to several actions (nondeterminism) or
        # guard one that is never true
        weights=st.one_of(
            st.fixed_dictionaries(
                {
                    name: st.one_of(
                        st.integers(min_value=1, max_value=20),
                        st.integers(min_value=1, max_value=1 << 70),
                    )
                    for name in ("alpha", "beta", "gamma", "delta", "epsilon")
                }
            ),
            # a pick over every declared name is rejected a quarter to half
            # of the time, so draws run past the lanes computed first
            weights_summing_to(1 << 63, 3 << 62),
            # and a pick over such weights takes two words
            weights_summing_to((1 << 64) + 1, 1 << 70),
        ),
        max_len=st.integers(min_value=1, max_value=60),
        seeds=st.lists(
            st.integers(min_value=0, max_value=(1 << 64) - 1), min_size=1, max_size=6
        ),
    )
    def test_kernel_draws_what_the_composed_reference_draws(
        self, model_seed, weights, max_len, seeds
    ):
        model = random_model(model_seed)
        kernel = gen_enabled_commands(model, weights, max_len)
        reference = reference_enabled_commands(model, weights, max_len)
        for seed in seeds:
            # a split child has a gamma other than the default one
            for rng in (Rng.from_seed(seed), Rng.from_seed(seed).split()[1]):
                assert kernel.run(rng) == reference.run(rng)

    @pytest.mark.parametrize(
        "cursor", [1, 1 << 63, (1 << 64) + 1], ids=["plain", "rejecting", "two-word"]
    )
    def test_long_sequences_span_several_kernel_passes(self, cursor):
        # every therac operation is always enabled, so a sequence as long
        # as this needs several passes of _MAX_LANES lanes
        suite = therac_suite("none")
        weights = dict(suite.default_weights, **{OP_CURSOR_UP: cursor})
        max_len = 3 * _MAX_LANES
        kernel = gen_enabled_commands(suite.model, weights, max_len)
        reference = reference_enabled_commands(suite.model, weights, max_len)
        lengths = set()
        for seed in range(12):
            for rng in (Rng.from_seed(seed), Rng.from_seed(seed).split()[1]):
                drawn = kernel.run(rng)
                assert drawn == reference.run(rng)
                lengths.add(len(drawn[0]))
        assert max(lengths) > _MAX_LANES

    def test_a_sequence_that_stops_early_computes_a_bounded_number_of_lanes(
        self, monkeypatch
    ):
        # a robot at Q cannot move to Q, so under this weighting every
        # sequence stops after one command, whatever length was drawn
        suite = robot_suite("none")
        computed = []

        def counted(lanes, state, gamma, count):
            before = len(lanes)
            _extend(lanes, state, gamma, count)
            computed[-1] += len(lanes) - before

        monkeypatch.setattr(genrand, "_extend", counted)
        gen = gen_enabled_commands(suite.model, {"moveToQ": 1}, max_len=10**9)
        rng = Rng.from_seed(3)
        for _ in range(50):
            computed.append(0)
            seq, rng = gen.run(rng)
            assert [c.op for c in seq] == ["moveToQ"]
        assert max(computed) <= _MAX_LANES + 2

    # On the therac model every operation is always enabled, so a sequence
    # is as long as its drawn length.
    THERAC = therac_suite("none")

    def therac_gen(self, max_len):
        return gen_enabled_commands(
            self.THERAC.model, self.THERAC.default_weights, max_len
        )

    def test_shape_and_defaults(self):
        gen = self.therac_gen(max_len=12)
        for seed in range(50):
            seq, _ = gen.run(Rng.from_seed(seed))
            assert 1 <= len(seq) <= 12
            for command in seq:
                assert command.op in self.THERAC.default_weights
                assert 1 <= command.delay <= 5

    def test_delays_are_one_to_five(self):
        gen = self.therac_gen(max_len=12)
        delays = {
            command.delay
            for seed in range(50)
            for command in gen.run(Rng.from_seed(seed))[0]
        }
        assert delays == {1, 2, 3, 4, 5}

    def test_deterministic_per_seed(self):
        gen = self.therac_gen(max_len=12)
        assert gen.run(Rng.from_seed(99)) == gen.run(Rng.from_seed(99))

    def test_max_len_must_be_positive(self):
        with pytest.raises(InvalidRange):
            self.therac_gen(max_len=0)

    @pytest.mark.parametrize("max_len", [2.5, "3", True], ids=["float", "str", "bool"])
    def test_max_len_that_is_no_integer_is_rejected(self, max_len):
        with pytest.raises(InvalidRange) as refused:
            self.therac_gen(max_len=max_len)
        assert str(refused.value) == f"max_len must be an integer >= 1, got {max_len!r}"

    def test_length_spread_is_uniform_ish(self):
        gen = self.therac_gen(max_len=4)
        lengths = Counter(
            len(gen.run(Rng.from_seed(seed))[0]) for seed in range(2000)
        )
        assert set(lengths) == {1, 2, 3, 4}
        for length in (1, 2, 3, 4):
            assert 400 <= lengths[length] <= 600


def whole(pred):
    """The shrink predicate of a replay that fails where ``pred`` first holds.

    It reports the shortest failing prefix, the least ``k`` with
    ``pred(s[:k])``, as ``check_against`` stops at the first divergence.
    """

    def fails(s: tuple[Command, ...]):
        for k in range(len(s) + 1):
            if pred(s[:k]):
                return k
        return None

    return fails


def seq_of(spec: str) -> tuple[Command, ...]:
    """``"a4 b1"`` is op ``a`` after 4 ticks, then op ``b`` after 1."""
    return tuple(Command(word[0], int(word[1:])) for word in spec.split())


def first_completion(pattern: str, window: int):
    """Predicate failing where ``pattern`` first completes within ``window`` ticks.

    The failure sits at the first index that ends an embedding of
    ``pattern`` as a subsequence whose first and last commands are at most
    ``window`` ticks apart; the predicate reports that prefix.
    """

    def fails(s: tuple[Command, ...]):
        ops, stamps = [c.op for c in s], list(accumulate(c.delay for c in s))
        for end in range(len(ops)):
            if ops[end] != pattern[-1]:
                continue
            # match the rest backwards as late as possible: the latest
            # start gives the shortest span among embeddings ending here
            k, start = len(pattern) - 2, end
            for j in range(end - 1, -1, -1):
                if k < 0:
                    break
                if ops[j] == pattern[k]:
                    k, start = k - 1, j
            if k < 0 and stamps[end] - stamps[start] <= window:
                return end + 1
        return None

    return fails


FIRST_COMPLETION_CASES = dict(
    pattern=st.text(alphabet="abc", min_size=1, max_size=3),
    window=st.integers(min_value=0, max_value=12),
    commands=st.lists(
        st.tuples(st.sampled_from("abc"), st.integers(min_value=1, max_value=6)),
        max_size=16,
    ),
)


class TestShrinkSequence:
    def test_length_predicate_shrinks_to_exact_bound(self):
        seq = tuple(Command(op, 5) for op in "yyxxxyx")
        seq = seq + seq  # make it long
        shrunk = shrink_sequence(seq, whole(lambda s: len(s) >= 4))
        assert len(shrunk) == 4
        assert all(c.delay == 1 for c in shrunk)

    def test_a_list_is_shrunk_as_a_tuple(self):
        # the all-ones cut passes, so the halving pass edits the input itself
        def fails(s: tuple[Command, ...]):
            return len(s) if any(c.delay >= 2 for c in s) else None

        shrunk = shrink_sequence([Command("a", 4), Command("b", 1)], fails)
        assert shrunk == (Command("a", 2), Command("b", 1))

    def test_result_is_one_minimal(self):
        def fails(s: tuple[Command, ...]) -> bool:
            return sum(c.delay for c in s) >= 10

        start = tuple(Command("tick", 4) for _ in range(6))
        shrunk = shrink_sequence(start, whole(fails))
        assert fails(shrunk)
        for i in range(len(shrunk)):
            assert not fails(without(shrunk, i))
            delay = shrunk[i].delay
            if delay > 1:
                assert not fails(with_delay(shrunk, i, delay // 2))

    def test_preserves_order_of_survivors(self):
        seq = (Command("a", 1), Command("b", 1), Command("c", 1), Command("b", 1))

        def fails(s: tuple[Command, ...]) -> bool:
            ops = [c.op for c in s]
            return "b" in ops and "c" in ops and ops.index("b") < ops.index("c")

        shrunk = shrink_sequence(seq, whole(fails))
        assert [c.op for c in shrunk] == ["b", "c"]

    def test_reported_prefix_cuts_the_tail_without_a_call(self):
        seen = []

        # an "x" fails unless the command before it is a "b"
        def fails(s: tuple[Command, ...]):
            seen.append(s)
            ops = [c.op for c in s]
            for index, op in enumerate(ops):
                if op == "x" and (index == 0 or ops[index - 1] != "b"):
                    return index + 1
            return None

        shrunk = shrink_sequence(seq_of("b1 x1 x1"), fails)
        assert shrunk == seq_of("x1")
        # the input is never offered; deleting "b" fails at the first "x",
        # so the second "x" is cut without a call, and deleting the last
        # "x" would leave a proper prefix of the cut, which passes
        assert seen == [seq_of("x1 x1")]

    def test_reset_level_failure_shrinks_to_nothing(self):
        calls = []

        def fails(s: tuple[Command, ...]):
            calls.append(s)
            return 0

        # a reset-level failure is cut to nothing before it is shrunk, and
        # nothing is left to delete or halve
        assert shrink_sequence((), fails) == ()
        assert calls == []

    def test_halving_that_moves_the_failure_earlier_cuts_safely(self):
        # "b" fails where it follows an "a"; an "a" issued one tick after
        # its predecessor fails at once, before any "b"
        def fails(s: tuple[Command, ...]):
            seen_a = False
            for index, command in enumerate(s):
                if command.op == "a" and command.delay == 1:
                    return index + 1
                if command.op == "b" and seen_a:
                    return index + 1
                seen_a = seen_a or command.op == "a"
            return None

        # halving "a" to one tick cuts "b" off while the delay pass is at
        # index 0 of a sequence that had two commands
        assert shrink_sequence(seq_of("a2 b1"), fails) == seq_of("a1")

    def test_chunk_deletion_beats_single_steps_on_a_long_sequence(self):
        def contains_x(s: tuple[Command, ...]) -> bool:
            return any(c.op == "x" for c in s)

        seq = seq_of(" ".join(["a1"] * 17 + ["x1"] + ["a1"] * 6))
        assert len(seq) == 24
        calls = {"chunked": 0, "single": 0}

        def counted(route, pred):
            def fails(s):
                calls[route] += 1
                return pred(s)

            return fails

        shrunk = shrink_sequence(seq, counted("chunked", whole(contains_x)))
        reference = greedy_shrink_reference(seq, counted("single", contains_x))
        assert shrunk == reference == seq_of("x1")
        assert calls["chunked"] < calls["single"]

    @settings(max_examples=200, deadline=None)
    @given(**FIRST_COMPLETION_CASES)
    def test_result_fails_is_cut_and_is_one_minimal(self, pattern, window, commands):
        fails = first_completion(pattern, window)
        seq = tuple(Command(op, delay) for op, delay in commands)
        kept = fails(seq)
        assume(kept is not None)
        # the shrinker takes a cut input, as a replay hands it over
        shrunk = shrink_sequence(seq[:kept], fails)
        assert fails(shrunk) == len(shrunk)
        for i in range(len(shrunk)):
            assert fails(without(shrunk, i)) is None
            delay = shrunk[i].delay
            if delay > 1:
                assert fails(with_delay(shrunk, i, delay // 2)) is None

    @staticmethod
    def logged(fails, cut, log):
        """``fails``, logging each candidate and whether it equals, by value,
        a proper prefix of the cut the shrinker holds when it is offered."""
        current = cut

        def wrapped(candidate: tuple[Command, ...]):
            nonlocal current
            n = len(candidate)
            prefix = n < len(current) and candidate == current[:n]
            log.append((candidate, prefix))
            k = fails(candidate)
            if k is not None:
                current = candidate[:k]
            return k

        return wrapped

    @staticmethod
    def all_ones(seq: tuple[Command, ...]) -> tuple[Command, ...]:
        return tuple(Command(c.op, 1) for c in seq)

    @settings(max_examples=200, deadline=None)
    @given(**FIRST_COMPLETION_CASES)
    def test_matches_the_reference_without_offering_a_prefix_of_the_cut(
        self, pattern, window, commands
    ):
        fails = first_completion(pattern, window)
        seq = tuple(Command(op, delay) for op, delay in commands)
        kept = fails(seq)
        assume(kept is not None)
        cut = seq[:kept]

        offered = []
        shrunk = shrink_sequence(cut, self.logged(fails, cut, offered))
        # the shrinker opens with every delay at one tick, when that
        # changes anything, and goes on from its cut if it fails
        opened = cut
        if any(c.delay > 1 for c in cut):
            ones = self.all_ones(cut)
            assert offered[0] == (ones, False)
            offered = offered[1:]
            kept = fails(ones)
            if kept is not None:
                opened = ones[:kept]
        reference_offered = []
        reference = reference_shrink(opened, self.logged(fails, opened, reference_offered))
        assert shrunk == reference
        assert not any(prefix for _, prefix in offered)
        # the same calls, less the ones the contract decides, so no more
        assert [c for c, _ in offered] == [c for c, prefix in reference_offered if not prefix]

    @settings(max_examples=200, deadline=None)
    @given(
        delays=st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=12),
        bound=st.integers(min_value=2, max_value=20),
    )
    def test_a_passing_opening_costs_one_call_and_changes_nothing(self, delays, bound):
        # fails once the delays add up to ``bound``, so setting every delay
        # of a cut shorter than ``bound`` to one tick passes
        fails = whole(lambda s: sum(c.delay for c in s) >= bound)
        seq = tuple(Command("t", delay) for delay in delays)
        kept = fails(seq)
        assume(kept is not None and kept < bound)
        cut = seq[:kept]

        offered, reference_offered = [], []
        shrunk = shrink_sequence(cut, self.logged(fails, cut, offered))
        reference = reference_shrink(cut, self.logged(fails, cut, reference_offered))
        assert shrunk == reference
        # one call more than the reference makes, less the ones the
        # contract decides
        assert offered[0] == (self.all_ones(cut), False)
        assert offered[1:] == [(c, False) for c, prefix in reference_offered if not prefix]
