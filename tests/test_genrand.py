from __future__ import annotations

from collections import Counter

import pytest

from helpers import random_model
from stpt import (
    Command,
    CommandSequence,
    Rng,
    gen_enabled_commands,
    gen_int_in_range,
    shrink_sequence,
    weighted,
)
from stpt.genrand import InvalidRange, NotFailing
from stpt.statemodel import NextStates, enabled_actions, step
from stpt.suts import therac_suite


def draw_many(gen, rng: Rng, count: int) -> list:
    out = []
    for _ in range(count):
        value, rng = gen.run(rng)
        out.append(value)
    return out


class TestRng:
    def test_known_first_output_for_seed_zero(self):
        # first output of the reference 64-bit split-mix stream seeded with 0
        value, _ = Rng.from_seed(0).next_u64()
        assert value == 0xE220A8397B1DCDAF

    def test_draws_are_pure(self):
        rng = Rng.from_seed(42)
        assert rng.next_u64() == rng.next_u64()
        assert rng.split() == rng.split()

    def test_draw_advances_the_returned_source(self):
        rng = Rng.from_seed(42)
        a, rng2 = rng.next_u64()
        b, _ = rng2.next_u64()
        assert a != b

    def test_split_children_are_pairwise_distinct(self):
        rng = Rng.from_seed(9)
        firsts = []
        for _ in range(100):
            rng, child = rng.split()
            value, _ = child.next_u64()
            firsts.append(value)
        assert len(set(firsts)) == 100

    def test_split_child_stream_is_uniform(self):
        _, child = Rng.from_seed(7).split()
        counts = Counter(draw_many(gen_int_in_range(0, 9), child, 10_000))
        assert set(counts) == set(range(10))
        for value in range(10):
            assert 800 <= counts[value] <= 1200


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

    def test_timestamps_are_prefix_sums(self):
        seq = CommandSequence((Command("a", 2), Command("b", 3), Command("c", 1)))
        assert seq.timestamps == (2, 5, 6)

    def test_without_and_with_delay(self):
        seq = CommandSequence((Command("a", 2), Command("b", 3)))
        assert seq.without(0) == CommandSequence((Command("b", 3),))
        assert seq.with_delay(1, 9) == CommandSequence(
            (Command("a", 2), Command("b", 9))
        )
        with pytest.raises(IndexError):
            seq.without(2)
        with pytest.raises(IndexError):
            seq.with_delay(-1, 1)

    def test_empty_sequence_is_legal(self):
        seq = CommandSequence()
        assert len(seq) == 0 and seq.timestamps == ()


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
                outcome = step(model, s, command.op)
                if isinstance(outcome, NextStates):
                    for nxt in outcome.states:
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
                if any(isinstance(o, NextStates) for o in outcomes[op])
            }
            if not table:
                break
            op, expected_rng = weighted(table).run(expected_rng)
            delay, expected_rng = gen_int_in_range(1, 5).run(expected_rng)
            expected.append(Command(op, delay))
            nexts = []
            for outcome in outcomes[op]:
                if isinstance(outcome, NextStates):
                    nexts.extend(n for n in outcome.states if n not in nexts)
            current = nexts

        assert gen.run(rng) == (CommandSequence(tuple(expected)), expected_rng)

    def test_always_enabled_model_fills_drawn_length(self):
        suite = therac_suite("none")
        gen = gen_enabled_commands(suite.model, suite.default_weights, max_len=10)
        lengths = {len(gen.run(Rng.from_seed(s))[0]) for s in range(100)}
        assert lengths <= set(range(1, 11))
        assert len(lengths) > 3

    def test_rejects_empty_weights(self):
        with pytest.raises(InvalidRange):
            gen_enabled_commands(therac_suite("none").model, {}, max_len=5)

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

    def test_length_spread_is_uniform_ish(self):
        gen = self.therac_gen(max_len=4)
        lengths = Counter(
            len(gen.run(Rng.from_seed(seed))[0]) for seed in range(2000)
        )
        assert set(lengths) == {1, 2, 3, 4}
        for length in (1, 2, 3, 4):
            assert 400 <= lengths[length] <= 600


class TestShrinkSequence:
    def test_passing_input_is_refused(self):
        seq = CommandSequence((Command("a", 1),))
        with pytest.raises(NotFailing):
            shrink_sequence(seq, lambda s: False)

    def test_length_predicate_shrinks_to_exact_bound(self):
        seq = CommandSequence(tuple(Command(op, 5) for op in "yyxxxyx"))
        seq = CommandSequence(seq.commands + seq.commands)  # make it long
        shrunk = shrink_sequence(seq, lambda s: len(s) >= 4)
        assert len(shrunk) == 4
        assert all(c.delay == 1 for c in shrunk)

    def test_result_is_one_minimal(self):
        def fails(s: CommandSequence) -> bool:
            return sum(c.delay for c in s) >= 10

        start = CommandSequence(tuple(Command("tick", 4) for _ in range(6)))
        shrunk = shrink_sequence(start, fails)
        assert fails(shrunk)
        for i in range(len(shrunk)):
            assert not fails(shrunk.without(i))
            delay = shrunk.commands[i].delay
            if delay > 1:
                assert not fails(shrunk.with_delay(i, delay // 2))

    def test_preserves_order_of_survivors(self):
        seq = CommandSequence(
            (Command("a", 1), Command("b", 1), Command("c", 1), Command("b", 1))
        )

        def fails(s: CommandSequence) -> bool:
            ops = [c.op for c in s]
            return "b" in ops and "c" in ops and ops.index("b") < ops.index("c")

        shrunk = shrink_sequence(seq, fails)
        assert [c.op for c in shrunk] == ["b", "c"]
