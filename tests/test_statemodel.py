from __future__ import annotations

import ast
import copy
import gc
import pickle
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import oracle_behaviours, oracle_spec_consistency, random_model
from stpt import (
    ActionSpec,
    Behaviour,
    EmptyInit,
    NeverEnabled,
    NoOpEffect,
    State,
    StateCapExceeded,
    StateModel,
    correct_behaviours,
    enabled_actions,
    format_behaviours,
    format_state,
    spec_consistency,
    step,
    successors,
)
from stpt.statemodel import _live
from stpt.robot import robot_suite
from stpt.suts import OP_CURSOR_UP, OP_OTHER, therac_suite


def counter_model(*, start: int = 0, limit: int = 3) -> StateModel:
    return StateModel(
        variables=["n"],
        init=[State({"n": start})],
        actions=[
            ActionSpec(
                "inc",
                guard=lambda s: s["n"] < limit,
                effect=lambda s: s.assign(n=s["n"] + 1),
            ),
            ActionSpec(
                "reset",
                guard=lambda s: s["n"] > 0,
                effect=lambda s: s.assign(n=0),
            ),
        ],
    )


class TestState:
    def test_mapping_protocol(self):
        s = State({"b": 2, "a": 1})
        assert s["a"] == 1 and s["b"] == 2
        assert "a" in s and "z" not in s
        assert list(s) == ["a", "b"]
        assert len(s) == 2
        assert s.get("z") is None
        with pytest.raises(KeyError):
            s["z"]

    def test_assign_returns_new_state(self):
        s = State({"n": 0})
        t = s.assign(n=5)
        assert t["n"] == 5 and s["n"] == 0

    def test_assign_rejects_undeclared_variable(self):
        with pytest.raises(KeyError):
            State({"n": 0}).assign(m=1)

    def test_booleans_are_not_integers(self):
        # Python's True == 1 must not leak into state identity
        assert State({"x": True}) != State({"x": 1})
        assert len({State({"x": True}), State({"x": 1})}) == 2
        assert State({"x": 1}) == State({"x": 1})

    def test_insertion_order_is_irrelevant(self):
        assert State({"a": 1, "b": 2}) == State({"b": 2, "a": 1})
        assert hash(State({"a": 1, "b": 2})) == hash(State({"b": 2, "a": 1}))

    def test_rejects_nonvalue_payloads(self):
        with pytest.raises(TypeError):
            State({"x": 1.5})
        # checked before the interning lookup, which cannot hash a list
        with pytest.raises(TypeError, match=r"unsupported value \[1\]"):
            State({"x": [1]})

    def test_derived_views_are_sorted_and_variant_exact(self):
        s = State({"c": "x", "b": True, "a": 1})
        assert s.items() == (("a", 1), ("b", True), ("c", "x"))
        assert [type(value) for _, value in s.items()] == [int, bool, str]
        assert repr(s) == "State(a=1, b=True, c='x')"
        assert s.variables == ("a", "b", "c")
        assert s.sort_key == (("a", "int", "1"), ("b", "bool", "True"), ("c", "str", "'x'"))
        assert format_state(s) == 'a=1 b=true c="x"'


class TestStateModel:
    def test_duplicate_variables_rejected(self):
        with pytest.raises(ValueError):
            StateModel(["x", "x"], [State({"x": 0})])

    def test_init_must_bind_declared_variables(self):
        with pytest.raises(ValueError):
            StateModel(["x"], [State({"y": 0})])
        with pytest.raises(ValueError):
            StateModel(["x", "y"], [State({"x": 0})])

    def test_init_is_deduplicated_and_ordered(self):
        model = StateModel(
            ["x"], [State({"x": 2}), State({"x": 1}), State({"x": 2})]
        )
        assert model.init == (State({"x": 1}), State({"x": 2}))

    def test_action_names_are_distinct_in_declaration_order(self):
        noop = ActionSpec("b", lambda s: True, lambda s: s)
        model = StateModel(
            ["x"],
            [State({"x": 0})],
            [noop, ActionSpec("a", lambda s: True, lambda s: s), noop],
        )
        assert model.action_names == ("b", "a")


class TestStep:
    def test_unknown_operation(self):
        model = counter_model()
        assert step(model, State({"n": 0}), "flyToMoon") is None

    def test_disabled_when_no_guard_holds(self):
        model = counter_model()
        assert step(model, State({"n": 0}), "reset") == []

    def test_next_states_for_enabled_action(self):
        model = counter_model()
        assert step(model, State({"n": 0}), "inc") == [State({"n": 1})]

    def test_robot_cannot_move_to_current_position(self):
        model = robot_suite("none").model
        assert step(model, State({"position": "Q"}), "moveToQ") == []
        assert step(model, State({"position": "Y"}), "moveToQ") == [
            State({"position": "Q"})
        ]

    def test_repeated_names_merge_into_one_outcome(self):
        model = StateModel(
            ["x"],
            [State({"x": 0})],
            [
                ActionSpec("flip", lambda s: True, lambda s: s.assign(x=1)),
                ActionSpec("flip", lambda s: True, lambda s: s.assign(x=2)),
                ActionSpec("flip", lambda s: True, lambda s: s.assign(x=1)),
            ],
        )
        outcome = step(model, State({"x": 0}), "flip")
        # duplicates collapse, declaration order survives
        assert outcome == [State({"x": 1}), State({"x": 2})]

    def test_effect_leaving_variable_set_is_an_error(self):
        model = StateModel(
            ["x"],
            [State({"x": 0})],
            [ActionSpec("bad", lambda s: True, lambda s: State({"y": 0}))],
        )
        with pytest.raises(ValueError):
            step(model, State({"x": 0}), "bad")

    def test_state_outside_model_rejected(self):
        with pytest.raises(ValueError):
            step(counter_model(), State({"m": 0}), "inc")

    @given(st.integers(0, 10_000))
    @settings(max_examples=100)
    def test_answers_like_successors_and_runs_the_guards_on_every_call(self, seed):
        model = random_model(seed)
        guard_calls = {op: 0 for op in OPS}

        def counted(action):
            def guard(s):
                guard_calls[action.name] += 1
                return action.guard(s)

            return ActionSpec(action.name, guard, action.effect)

        counting = StateModel(
            model.variables, model.init, [counted(a) for a in model.actions]
        )
        # random_model draws its action names from the first four only
        for s in state_pool(model):
            for op in OPS:
                named = sum(action.name == op for action in model.actions)
                for _ in range(2):
                    before = guard_calls[op]
                    assert step(counting, s, op) == successors(model, [s], op)
                    assert guard_calls[op] - before == named


class TestSuccessors:
    def test_undeclared_operation_is_none(self):
        assert successors(counter_model(), [State({"n": 0})], "jump") is None

    def test_declared_operation_from_no_states_is_empty(self):
        assert successors(counter_model(), [], "inc") == []

    def test_disabled_in_every_state_is_empty(self):
        model = counter_model(limit=2)
        assert successors(model, [State({"n": 2})], "inc") == []
        assert successors(model, [State({"n": 0})], "reset") == []

    def test_first_seen_order_without_duplicates(self):
        model = counter_model()
        states = [State({"n": 2}), State({"n": 1}), State({"n": 2})]
        assert successors(model, states, "inc") == [State({"n": 3}), State({"n": 2})]
        assert successors(model, states, "reset") == [State({"n": 0})]

    @given(st.integers(0, 10_000), st.data())
    @settings(max_examples=200)
    def test_matches_union_of_step_outcomes(self, seed, data):
        model = random_model(seed)
        pool = sorted(
            {s for states, _ in oracle_behaviours(model, 2) for s in states},
            key=lambda s: s.sort_key,
        )
        states = data.draw(st.lists(st.sampled_from(pool), max_size=5))
        # random_model draws its action names from the first four only
        op = data.draw(st.sampled_from(["alpha", "beta", "gamma", "delta", "omega"]))
        got = successors(model, states, op)
        if all(action.name != op for action in model.actions):
            assert got is None
            return
        outcomes = [step(model, s, op) for s in states]
        union = [nxt for o in outcomes for nxt in o]
        assert len(got) == len(set(got))
        assert got == sorted(set(union), key=union.index)
        if all(o == [] for o in outcomes):
            assert got == []


def brute_successors(model, states, op):
    """Union of uncached ``step`` outcomes, first seen first."""
    if all(action.name != op for action in model.actions):
        return None
    union = [nxt for s in states for nxt in step(model, s, op)]
    return sorted(set(union), key=union.index)


def brute_enabled(model, s):
    """Names whose ``step`` is enabled, in the order of the first true guard."""
    names = [a.name for a in model.actions if a.guard(s)]
    assert set(names) == {
        name for name in model.action_names
        if step(model, s, name)
    }
    return sorted(set(names), key=names.index)


OPS = ["alpha", "beta", "gamma", "delta", "omega"]


def state_pool(model, depth=2):
    return sorted(
        {s for states, _ in oracle_behaviours(model, depth) for s in states},
        key=lambda s: s.sort_key,
    )


class TestTransitionMemo:
    @given(st.integers(0, 10_000), st.data())
    @settings(max_examples=100)
    def test_cold_and_warm_match_step(self, seed, data):
        model = random_model(seed)
        pool = state_pool(model)
        states = data.draw(st.lists(st.sampled_from(pool), max_size=5))
        for _ in ("cold", "warm"):
            for op in OPS:
                expected = brute_successors(model, states, op)
                for called in (states, tuple(states)):
                    got = successors(model, called, op)
                    assert got == expected
                    if got is not None:
                        # a caller may do what it likes with its answer
                        got.append(pool[0])
            for s in pool:
                assert enabled_actions(model, s) == brute_enabled(model, s)

    def test_guards_and_effects_run_once_per_state_and_operation(self):
        calls = {"guard": 0, "effect": 0}

        def guard(s):
            calls["guard"] += 1
            return True

        def effect(s):
            calls["effect"] += 1
            return s.assign(n=s["n"] + 1)

        model = StateModel(["n"], [State({"n": 0})], [ActionSpec("inc", guard, effect)])
        zero = State({"n": 0})
        for _ in range(3):
            assert successors(model, [zero], "inc") == [State({"n": 1})]
            assert enabled_actions(model, zero) == ["inc"]
        assert calls == {"guard": 1, "effect": 1}
        # step is the uncached reference
        step(model, zero, "inc")
        assert calls == {"guard": 2, "effect": 2}

    @pytest.mark.parametrize(
        "bad", [State({"m": 0}), State({"n": 0, "m": 0}), State({})]
    )
    def test_misbound_state_raises_after_warm_up(self, bad):
        model = counter_model()
        for s in state_pool(model, 3):
            enabled_actions(model, s)
            for op in ("inc", "reset"):
                successors(model, [s], op)
        with pytest.raises(ValueError):
            successors(model, [State({"n": 0}), bad], "inc")
        with pytest.raises(ValueError):
            enabled_actions(model, bad)

    def test_mutating_a_result_leaves_later_results(self):
        model = counter_model()
        zero = State({"n": 0})
        got = successors(model, [zero], "inc")
        got.append(State({"n": 3}))
        names = enabled_actions(model, zero)
        names.append("reset")
        assert successors(model, [zero], "inc") == [State({"n": 1})]
        assert enabled_actions(model, zero) == ["inc"]

    @pytest.mark.parametrize("seed", [3, 17, 42])
    def test_concurrent_fills_match_one_thread(self, seed):
        def table(model, order):
            return (
                {(s, op): successors(model, [s], op) for s in order for op in OPS},
                {s: enabled_actions(model, s) for s in order},
            )

        pool = state_pool(random_model(seed), 3)
        expected = table(random_model(seed), pool)
        shared = random_model(seed)
        workers = 4
        start = threading.Barrier(workers)
        got = []

        def fill(order):
            start.wait()
            got.append(table(shared, order))

        # each thread walks the pool from a different offset
        threads = [
            threading.Thread(target=fill, args=(pool[i:] + pool[:i],), daemon=True)
            for i in range(workers)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert got == [expected] * workers
        assert table(shared, pool) == expected


class TestCanonicalStates:
    """Equal states are one object, so the model's row keys and successors
    are the objects that building their bindings returns."""

    @given(st.integers(0, 10_000))
    @settings(max_examples=100)
    def test_met_states_are_the_row_keys(self, seed):
        model = random_model(seed)
        # the scan fills the row of every reachable state
        spec_consistency(model)
        for s in model.init:
            assert State(dict(s.items())) is s
        for key, row in model._rows.items():
            assert State(dict(key.items())) is key
            for nexts in row.values():
                for nxt in nexts:
                    assert State(dict(nxt.items())) is nxt

    def test_a_successor_is_met_once_its_row_is_filled(self):
        model = counter_model()
        zero, one = State({"n": 0}), State({"n": 1})
        assert zero is model.init[0]
        # step is the reference and fills nothing
        assert step(model, zero, "inc") == [one]
        assert one not in model._rows
        (got,) = successors(model, [zero], "inc")
        assert got is one
        assert successors(model, [one], "inc")[0] is State({"n": 2})
        # a row asked for with an equal state is keyed by the one object
        assert [s for s in model._rows if s == one][0] is one

    def test_values_of_different_classes_stay_apart(self):
        values = (True, 1, "1")
        model = StateModel(
            ["v"],
            [State({"v": v}) for v in values],
            [ActionSpec("stay", lambda s: True, lambda s: s)],
        )
        spec_consistency(model)
        assert len(model._rows) == 3
        keys = {id(s) for s in model._rows}
        for v in values:
            built = State({"v": v})
            assert type(built["v"]) is type(v) and built["v"] == v
            assert id(built) in keys
            assert successors(model, [built], "stay")[0] is built

    def test_equality_and_repr_ignore_the_tables(self):
        cold = counter_model()
        warm = StateModel(cold.variables, cold.init, cold.actions)
        correct_behaviours(warm, 3)
        assert warm._rows and not cold._rows
        assert warm == cold and hash(warm) == hash(cold)
        assert repr(warm) == repr(cold)


VALUES = st.one_of(st.booleans(), st.integers(), st.text(max_size=3))


class TestInternedState:
    @given(st.dictionaries(st.text(max_size=3), VALUES, max_size=4))
    @settings(max_examples=200)
    def test_equal_bindings_give_one_object(self, bindings):
        s = State(bindings)
        assert State(dict(bindings)) is s
        assert State(dict(reversed(list(bindings.items())))) is s
        assert State(dict(s.items())) is s
        # True, 1 and "1" compare or print alike, and stay three objects
        for name in list(bindings) or ["x"]:
            variants = [State({**bindings, name: v}) for v in (True, 1, "1")]
            assert len({id(v) for v in variants}) == 3
            assert [type(v[name]) for v in variants] == [bool, int, str]
            assert variants[0] != variants[1] != variants[2] != variants[0]

    def test_pickle_and_deepcopy_give_the_interned_object(self):
        s = State({"a": 1, "b": True, "c": "x"})
        assert pickle.loads(pickle.dumps(s)) is s
        assert copy.deepcopy(s) is s
        assert copy.copy(s) is s
        # a state unpickled after its original died is still one object
        data = pickle.dumps(State({"unpickled": 7}))
        gc.collect()
        first = pickle.loads(data)
        assert pickle.loads(data) is first and first == State({"unpickled": 7})

    def test_the_table_keeps_no_state_alive(self):
        gc.collect()
        before = len(_live)
        kept = [State({"fresh": f"s{n}"}) for n in range(10_000)]
        assert len(_live) == before + 10_000
        del kept
        for n in range(10_000):
            State({"fresh": f"t{n}"})
        gc.collect()
        assert len(_live) == before

    def test_threads_building_equal_states_agree(self):
        # 200 states no other test builds, so the threads race to build each
        numbers = range(10_000, 10_200)
        shared = counter_model(limit=10**6)
        workers = 4
        start = threading.Barrier(workers)
        got = [None] * workers

        def build(index):
            order = list(numbers[index * 50 :]) + list(numbers[: index * 50])
            start.wait()
            got[index] = {
                n: (s, enabled_actions(shared, s), successors(shared, [s], "inc"))
                for n in order
                for s in (State({"n": n}),)
            }

        threads = [
            threading.Thread(target=build, args=(i,), daemon=True) for i in range(workers)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert all(g is not None and g == got[0] for g in got)
        assert [s["n"] for s, _, _ in got[0].values()] == list(numbers)
        # the rows one thread fills
        reference = counter_model(limit=10**6)
        for n in numbers:
            successors(reference, [State({"n": n})], "inc")
        assert shared._rows == reference._rows


class TestEnabledActions:
    def test_empty_for_model_without_actions(self):
        model = StateModel(["x"], [State({"x": 0})])
        assert enabled_actions(model, State({"x": 0})) == []

    def test_robot_excludes_current_position(self):
        model = robot_suite("none").model
        names = enabled_actions(model, State({"position": "Q"}))
        assert "moveToQ" not in names
        assert "initialisePosition" in names
        assert {n for n in names if n.startswith("moveTo")} == {
            "moveToY",
            "moveToR",
            "moveToS",
        }

    def test_therac_actions_always_enabled(self):
        model = therac_suite("none").model
        for s in model.init:
            assert enabled_actions(model, s) == list(model.action_names)
            assert len(enabled_actions(model, s)) == 4

    @pytest.mark.parametrize("seed", range(8))
    def test_membership_matches_step_outcome(self, seed):
        model = random_model(seed)
        for s in model.init:
            names = enabled_actions(model, s)
            assert len(names) == len(set(names))
            for name in model.action_names:
                is_next = bool(step(model, s, name))
                assert (name in names) == is_next


class TestCorrectBehaviours:
    def test_depth_zero_without_actions(self):
        model = StateModel(["position"], [State({"position": "Y"})])
        assert correct_behaviours(model, 0) == (
            Behaviour((State({"position": "Y"}),)),
        )

    @pytest.mark.parametrize(
        "states, actions, message",
        [
            ((), (), "a behaviour has at least one state"),
            ((State({"x": 0}),), ("a",), "need exactly one action name per transition"),
            ((State({"x": 0}), State({"x": 1})), (), "need exactly one action name per transition"),
        ],
        ids=["no-state", "an-action-too-many", "an-action-too-few"],
    )
    def test_a_malformed_behaviour_is_refused(self, states, actions, message):
        with pytest.raises(ValueError) as refused:
            Behaviour(states, actions)
        assert str(refused.value) == message

    def test_two_init_two_actions_depth_three_counts_thirty(self):
        # 2 roots, binary branching: 2 * (1 + 2 + 4 + 8) paths including prefixes
        model = StateModel(
            ["x"],
            [State({"x": 0}), State({"x": 100})],
            [
                ActionSpec("a", lambda s: True, lambda s: s.assign(x=s["x"] * 2 + 1)),
                ActionSpec("b", lambda s: True, lambda s: s.assign(x=s["x"] * 2 + 2)),
            ],
        )
        behaviours = correct_behaviours(model, 3)
        assert len(behaviours) == 30
        assert {(b.states, b.actions) for b in behaviours} == oracle_behaviours(
            model, 3
        )

    def test_therac_depth_four_matches_oracle(self):
        model = therac_suite("none").model
        behaviours = correct_behaviours(model, 4)
        assert {(b.states, b.actions) for b in behaviours} == oracle_behaviours(
            model, 4
        )

    def test_output_is_sorted_by_action_names(self):
        behaviours = correct_behaviours(counter_model(), 4)
        actions = [b.actions for b in behaviours]
        assert actions == sorted(actions)

    def test_every_behaviour_replays_under_step(self):
        model = counter_model()
        for b in correct_behaviours(model, 5):
            assert b.states[0] in model.init
            current = b.states[0]
            for name, expected in zip(b.actions, b.states[1:]):
                assert expected in step(model, current, name)
                current = expected

    @pytest.mark.parametrize("seed", range(6))
    def test_prefix_closure(self, seed):
        model = random_model(seed)
        deep = correct_behaviours(model, 4)
        shallow = correct_behaviours(model, 2)
        restricted = sorted(
            (b for b in deep if len(b.actions) <= 2), key=lambda b: b.actions
        )
        assert tuple(restricted) == shallow

    def test_negative_depth_rejected(self):
        with pytest.raises(ValueError):
            correct_behaviours(counter_model(), -1)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"depth": True}, "depth must be an integer >= 0, got True"),
            ({"depth": 2.5}, "depth must be an integer >= 0, got 2.5"),
            ({"depth": 1, "state_cap": True}, "state_cap must be an integer >= 1, got True"),
            ({"depth": 1, "state_cap": 2.5}, "state_cap must be an integer >= 1, got 2.5"),
            ({"depth": 1, "state_cap": 0}, "state_cap must be an integer >= 1, got 0"),
        ],
    )
    def test_rejects_an_argument_that_is_no_integer_in_range(self, kwargs, message):
        with pytest.raises(ValueError) as refused:
            correct_behaviours(counter_model(), **kwargs)
        assert str(refused.value) == message

    def test_state_cap_exceeded(self):
        model = StateModel(
            ["x"],
            [State({"x": 0})],
            [ActionSpec("inc", lambda s: True, lambda s: s.assign(x=s["x"] + 1))],
        )
        with pytest.raises(StateCapExceeded) as err:
            correct_behaviours(model, 10, state_cap=5)
        assert err.value.cap == 5
        assert err.value.visited > 5

    def test_behaviour_cap_bounds_a_model_with_few_states(self):
        # four states, four operations enabled in each: depth 6 builds 5,461
        # behaviours, which no state count would stop
        model = robot_suite().model
        assert len(correct_behaviours(model, 6, state_cap=5461)) == 5461
        with pytest.raises(StateCapExceeded) as err:
            correct_behaviours(model, 6, state_cap=100)
        assert err.value.cap == 100
        assert "behaviours" in str(err.value)

    @pytest.mark.parametrize("depth", [0, 3])
    def test_more_init_states_than_the_cap_raise(self, depth):
        # no action is declared, so only the init behaviours are built
        model = StateModel(["x"], [State({"x": x}) for x in range(4)])
        assert len(correct_behaviours(model, depth, state_cap=4)) == 4
        with pytest.raises(StateCapExceeded) as err:
            correct_behaviours(model, depth, state_cap=3)
        assert err.value.cap == 3

    def test_empty_init_yields_nothing(self):
        model = StateModel(["x"], [])
        assert correct_behaviours(model, 3) == ()


class TestSpecConsistency:
    def test_clean_model_yields_no_warnings(self):
        assert spec_consistency(counter_model()) == []

    def test_empty_init_reported_first(self):
        model = StateModel(
            ["x"], [], [ActionSpec("a", lambda s: True, lambda s: s)]
        )
        warnings = spec_consistency(model)
        assert warnings[0] == EmptyInit()

    def test_stuck_robot_reports_never_enabled(self):
        model = StateModel(
            ["position"],
            [State({"position": "Q"})],
            [
                ActionSpec(
                    "moveToQ",
                    guard=lambda s: s["position"] != "Q",
                    effect=lambda s: s.assign(position="Q"),
                )
            ],
        )
        assert spec_consistency(model) == [NeverEnabled("moveToQ")]

    def test_identity_effect_reports_noop(self):
        model = StateModel(
            ["x"],
            [State({"x": 0})],
            [ActionSpec("look", lambda s: True, lambda s: s)],
        )
        assert spec_consistency(model) == [NoOpEffect("look")]

    def test_suppression_silences_intended_observers(self):
        model = StateModel(
            ["x"],
            [State({"x": 0})],
            [ActionSpec("look", lambda s: True, lambda s: s)],
        )
        assert spec_consistency(model, suppress_noop=["look"]) == []

    def test_therac_model_is_consistent(self):
        suite = therac_suite("none")
        assert spec_consistency(suite.model, suppress_noop={OP_CURSOR_UP, OP_OTHER}) == []

    def test_warning_order_is_declaration_order(self):
        model = StateModel(
            ["x"],
            [State({"x": 0})],
            [
                ActionSpec("zeta", lambda s: False, lambda s: s),
                ActionSpec("alpha", lambda s: False, lambda s: s),
                ActionSpec("mu", lambda s: True, lambda s: s),
            ],
        )
        assert spec_consistency(model) == [
            NeverEnabled("zeta"),
            NeverEnabled("alpha"),
            NoOpEffect("mu"),
        ]

    def test_respects_state_cap(self):
        model = StateModel(
            ["x"],
            [State({"x": 0})],
            [ActionSpec("inc", lambda s: True, lambda s: s.assign(x=s["x"] + 1))],
        )
        with pytest.raises(StateCapExceeded):
            spec_consistency(model, state_cap=3)

    @pytest.mark.parametrize(
        "state_cap, message",
        [
            (True, "state_cap must be an integer >= 1, got True"),
            (2.5, "state_cap must be an integer >= 1, got 2.5"),
            (0, "state_cap must be an integer >= 1, got 0"),
        ],
    )
    def test_rejects_a_state_cap_that_is_no_positive_integer(self, state_cap, message):
        model = counter_model()
        with pytest.raises(ValueError) as refused:
            spec_consistency(model, state_cap=state_cap)
        assert str(refused.value) == message
        assert not model._rows

    @given(st.integers(0, 10_000), st.sets(st.sampled_from(OPS)))
    @settings(max_examples=100)
    def test_matches_a_scan_of_every_guard_and_effect(self, seed, suppress):
        model = random_model(seed)
        assert spec_consistency(model, suppress_noop=suppress) == (
            oracle_spec_consistency(model, suppress)
        )

    def test_scan_reads_the_memo_of_the_reachable_walk(self):
        calls = {"guard": 0, "effect": 0}

        def guard(s):
            calls["guard"] += 1
            return s["n"] < 3

        def effect(s):
            calls["effect"] += 1
            return s.assign(n=s["n"] + 1)

        model = StateModel(["n"], [State({"n": 0})], [ActionSpec("inc", guard, effect)])
        assert spec_consistency(model) == []
        # n = 0..3 reachable: one guard per state, one effect per enabled state
        assert calls == {"guard": 4, "effect": 3}


class TestFormatting:
    def test_format_state_spells_out_variants(self):
        s = State({"flag": True, "count": 3, "name": "Y"})
        assert format_state(s) == 'count=3 flag=true name="Y"'

    def test_format_behaviours_document(self):
        model = StateModel(
            ["x"],
            [State({"x": 0})],
            [ActionSpec("inc", lambda s: True, lambda s: s.assign(x=s["x"] + 1))],
        )
        text = format_behaviours(correct_behaviours(model, 1))
        assert text == (
            "# behaviours: 2\n"
            "behaviour 0\n"
            "  init: x=0\n"
            "  actions: (none)\n"
            "  states: x=0\n"
            "behaviour 1\n"
            "  init: x=0\n"
            "  actions: inc\n"
            "  states: x=0 | x=1\n"
        )

    @settings(max_examples=200, deadline=None)
    @given(st.text(), st.text())
    def test_every_record_stays_one_line_whatever_the_strings(self, start, end):
        model = StateModel(
            ["s"],
            [State({"s": start})],
            [ActionSpec("go", lambda s: s["s"] == start, lambda s: s.assign(s=end))],
        )
        behaviours = correct_behaviours(model, 1)
        lines = format_behaviours(behaviours).splitlines()
        assert len(lines) == 1 + 4 * len(behaviours)
        for line in lines:
            assert line.isprintable()
        # the escapes are a Python string literal's, so the text reads back
        for value in (start, end):
            rendered = format_state(State({"s": value}))
            assert rendered.startswith("s=") and ast.literal_eval(rendered[2:]) == value

    def test_characters_that_break_a_line_are_escaped(self):
        s = State({"s": 'a\nb\tc\rd\u2028e\x00f"g\\h\U000e0001é'})
        assert format_state(s) == 's="a\\nb\\tc\\rd\\u2028e\\u0000f\\"g\\\\h\\U000e0001é"'

    def test_document_is_deterministic(self):
        model = random_model(11)
        doc = format_behaviours(correct_behaviours(model, 3))
        assert doc == format_behaviours(correct_behaviours(model, 3))
