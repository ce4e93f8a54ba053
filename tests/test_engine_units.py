"""Unit tests for params validation, the ir clamp, evaluation, initialize, and run."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from codoa.benchmarks import REGISTRY, make_problem
from codoa.engine import (
    AlgorithmParams,
    ConfigurationError,
    ObjectiveProblem,
    clamp_ir,
    evaluate_swarm,
    initialize,
    reward_best,
    run,
)
from codoa.rng import _BLOCK, RandomStream

from support import PinnedStream, box_problem, make_state


class TestAlgorithmParams:
    def test_defaults_are_reference_settings(self):
        p = AlgorithmParams()
        assert (p.num_particles, p.max_iterations) == (50, 5000)
        assert (p.initial_ir, p.max_ir) == (0.5, 10.0)
        assert (p.maturity_limit, p.rationality_rate) == (3, 2)
        assert p.ir_floor == 1e-6

    def test_needs_at_least_two_particles(self):
        with pytest.raises(ConfigurationError, match="num_particles"):
            AlgorithmParams(num_particles=1)

    def test_rejects_negative_iteration_budget(self):
        with pytest.raises(ConfigurationError, match="max_iterations"):
            AlgorithmParams(max_iterations=-1)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"ir_floor": 0.0},
            {"ir_floor": -0.1},
            {"initial_ir": 20.0},  # above max_ir
            {"ir_floor": 0.9, "initial_ir": 0.5},
        ],
    )
    def test_rejects_bad_interactivity_ordering(self, kwargs):
        with pytest.raises(ConfigurationError, match="ir"):
            AlgorithmParams(**kwargs)

    def test_rejects_negative_rationality(self):
        with pytest.raises(ConfigurationError, match="rationality"):
            AlgorithmParams(rationality_rate=-1)

    def test_maturity_limit_may_be_negative(self):
        assert AlgorithmParams(maturity_limit=-5).maturity_limit == -5

    @pytest.mark.parametrize("field", [
        "num_particles", "max_iterations", "maturity_limit", "rationality_rate",
    ])
    @pytest.mark.parametrize("value", [2.5, 3.0, True, "3", None])
    def test_count_fields_require_real_integers(self, field, value):
        with pytest.raises(ConfigurationError, match=field):
            AlgorithmParams(**{field: value})

    def test_numpy_integers_are_accepted_as_plain_ints(self):
        params = AlgorithmParams(num_particles=np.int64(7), maturity_limit=np.int32(-2))
        assert params.num_particles == 7 and type(params.num_particles) is int
        assert params.maturity_limit == -2 and type(params.maturity_limit) is int

    @pytest.mark.parametrize("field", ["initial_ir", "max_ir", "ir_floor"])
    @pytest.mark.parametrize("value", [
        math.inf, -math.inf, math.nan, 1e309, pytest.param(10**400, id="10**400"), "0.5", None,
        True,
    ])
    def test_interactivity_fields_must_be_finite_numbers(self, field, value):
        with pytest.raises(ConfigurationError, match=field):
            AlgorithmParams(**{field: value})


class TestClampIr:
    def test_upper_clamp(self):
        assert clamp_ir(12.0, AlgorithmParams()) == 10.0

    def test_floor_clamp(self):
        assert clamp_ir(0.0, AlgorithmParams()) == 1e-6

    def test_identity_inside_bounds(self):
        assert clamp_ir(0.5, AlgorithmParams()) == 0.5

    @given(st.floats(allow_nan=False, min_value=-1e12, max_value=1e12))
    def test_always_lands_in_bounds(self, value):
        params = AlgorithmParams()
        out = clamp_ir(value, params)
        assert params.ir_floor <= out <= params.max_ir
        assert clamp_ir(out, params) == out


class TestObjectiveProblem:
    def test_rejects_inverted_bounds(self):
        with pytest.raises(ConfigurationError, match="bounds"):
            ObjectiveProblem(2, [1.0, 0.0], [0.0, 1.0], lambda x: 0.0)

    def test_rejects_bound_shape_mismatch(self):
        with pytest.raises(ConfigurationError, match="shape"):
            ObjectiveProblem(3, [0.0, 0.0], [1.0, 1.0], lambda x: 0.0)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite_bounds(self, bad):
        with pytest.raises(ConfigurationError, match="lower_bounds"):
            ObjectiveProblem(2, [bad, 0.0], [1.0, 1.0], lambda x: 0.0)
        with pytest.raises(ConfigurationError, match="upper_bounds"):
            ObjectiveProblem(2, [0.0, 0.0], [1.0, bad], lambda x: 0.0)

    def test_rejects_nonpositive_dimension(self):
        with pytest.raises(ConfigurationError, match="dimension"):
            ObjectiveProblem(0, [], [], lambda x: 0.0)

    @pytest.mark.parametrize("dimension", [2.0, True])
    def test_rejects_non_integer_dimension(self, dimension):
        with pytest.raises(ConfigurationError, match="dimension"):
            ObjectiveProblem(dimension, [0.0, 0.0], [1.0, 1.0], lambda x: 0.0)


class TestRewardBest:
    def test_boosts_the_fittest_and_credits_experience(self):
        state = make_state(fitness=[3.0, 1.0, 5.0], ir=[0.4, 0.4, 0.4],
                           rng=PinnedStream(0.5))
        reward_best(state, AlgorithmParams())
        assert state.ir[1] == pytest.approx(0.6)
        assert state.ex[1] == 1
        assert state.ir[0] == 0.4 and state.ir[2] == 0.4

    def test_tie_breaks_to_lowest_index_and_zero_rand_keeps_ir(self):
        state = make_state(fitness=[2.0, 2.0], ir=[0.4, 0.4], rng=PinnedStream(0.0))
        reward_best(state, AlgorithmParams())
        assert state.ex[0] == 1 and state.ex[1] == 0
        assert state.ir[0] == 0.4

    def test_archive_updates_only_on_strict_improvement(self):
        state = make_state(fitness=[0.7, 1.2], ir=[0.4, 0.4], rng=PinnedStream(0.5),
                           gbest_pos=[9.0, 9.0], gbest_fit=0.5, holder=1)
        reward_best(state, AlgorithmParams())
        assert state.global_best_fitness == 0.5
        assert state.best_holder_index == 1
        np.testing.assert_array_equal(state.global_best_position, [9.0, 9.0])
        assert state.ir[0] == pytest.approx(0.6)
        assert state.ex[0] == 1

    def test_archive_improves_when_beaten(self):
        state = make_state(fitness=[0.3, 1.2], positions=[[1.0, 1.0], [2.0, 2.0]],
                           rng=PinnedStream(0.5), gbest_pos=[9.0, 9.0], gbest_fit=0.5,
                           holder=1)
        reward_best(state, AlgorithmParams())
        assert state.global_best_fitness == 0.3
        assert state.best_holder_index == 0
        np.testing.assert_array_equal(state.global_best_position, [1.0, 1.0])


class TestEvaluateSwarm:
    def test_sphere_origin_has_zero_fitness(self):
        state = make_state(fitness=[math.inf], positions=[[0.0, 0.0]])
        evaluate_swarm(state, make_problem("sphere", 2), np.array([0]))
        assert state.fit[0] == 0.0
        assert state.eval_count == 1

    def test_only_the_given_rows_are_evaluated(self):
        state = make_state(fitness=[1.0, 2.0, 3.0],
                           positions=[[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]])
        evaluate_swarm(state, make_problem("sphere", 2), np.array([1]))
        assert state.eval_count == 1
        assert state.fit.tolist() == [1.0, 4.0, 3.0]

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_values_become_plus_infinity(self, bad):
        problem = box_problem([-1.0], [1.0], evaluator=lambda x: bad)
        state = make_state(fitness=[0.0], positions=[[0.0]])
        evaluate_swarm(state, problem, np.array([0]))
        assert state.fit[0] == math.inf


class TestEvaluationPaths:
    @staticmethod
    def _unevaluated_state(positions):
        return make_state(fitness=[math.inf] * len(positions), positions=positions)

    def test_batch_form_gets_all_given_rows_in_one_call(self):
        calls = []

        def objective(x):
            raise AssertionError("per-row path taken")

        def batch(points):
            calls.append(points.copy())
            return np.square(points).sum(axis=1)

        objective.batch = batch
        state = self._unevaluated_state([[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]])
        evaluate_swarm(state, box_problem([-5.0, -5.0], [5.0, 5.0], objective), np.array([0, 2]))
        assert len(calls) == 1
        np.testing.assert_array_equal(calls[0], [[1.0, 0.0], [3.0, 0.0]])
        assert state.fit.tolist() == [1.0, math.inf, 9.0]
        assert state.eval_count == 2

    def test_plain_user_evaluator_is_called_row_by_row_in_order(self):
        seen = []

        def objective(x):
            seen.append(float(x[0]))
            return float(x[0])

        state = self._unevaluated_state([[3.0], [1.0], [2.0]])
        evaluate_swarm(state, box_problem([-5.0], [5.0], objective), np.arange(3))
        assert seen == [3.0, 1.0, 2.0]
        assert state.fit.tolist() == [3.0, 1.0, 2.0]
        assert state.eval_count == 3

    def test_wrapped_evaluators_drop_the_inner_batch_form(self):
        def objective(x):
            return float(np.square(x).sum())

        objective.batch = lambda points: np.zeros(len(points))  # deliberately wrong
        plain = box_problem([-5.0, -5.0], [5.0, 5.0], objective)
        swapped = dataclasses.replace(plain, evaluator=lambda x: objective(x) + 1.0)
        state = self._unevaluated_state([[1.0, 0.0], [2.0, 0.0]])
        evaluate_swarm(state, swapped, np.arange(2))
        assert state.fit.tolist() == [2.0, 5.0]

    @pytest.mark.parametrize("path", ["batch", "rows"])
    def test_non_finite_values_become_plus_infinity_on_both_paths(self, path):
        values = [math.nan, math.inf, -math.inf, 1.5]

        def objective(x):
            return values[int(x[0])]

        if path == "batch":
            objective.batch = lambda points: np.array([values[int(r[0])] for r in points])
        state = self._unevaluated_state([[0.0], [1.0], [2.0], [3.0]])
        evaluate_swarm(state, box_problem([-5.0], [5.0], objective), np.arange(4))
        assert state.fit.tolist() == [math.inf, math.inf, math.inf, 1.5]
        assert state.eval_count == 4

    @pytest.mark.parametrize("name", sorted(REGISTRY))
    def test_row_path_matches_batch_path_end_to_end(self, name):
        problem = make_problem(name, REGISTRY[name].fixed_dimension or 5)
        assert hasattr(problem.evaluator, "batch")
        rows_only = dataclasses.replace(problem, evaluator=lambda x: problem.evaluator(x))
        params = AlgorithmParams(num_particles=20, max_iterations=30)
        assert run(params, rows_only, seed=3) == run(params, problem, seed=3)


class TestInitialize:
    def test_scatters_into_the_box_and_counts_evaluations(self):
        params = AlgorithmParams()
        problem = make_problem("booth", 2)
        state = initialize(params, problem, seed=11)
        assert state.pos.shape == (50, 2)
        assert np.all(state.pos >= -10.0) and np.all(state.pos <= 10.0)
        assert state.fit.tolist() == [problem.evaluator(x) for x in state.pos]
        assert state.eval_count == 50

    def test_initial_archive_is_swarm_minimum(self):
        state = initialize(AlgorithmParams(num_particles=20, max_iterations=1),
                           make_problem("sphere", 3), seed=4)
        assert state.global_best_fitness == min(state.fit)
        assert state.best_holder_index is not None

    def test_best_particle_gets_the_initial_reward(self):
        params = AlgorithmParams(num_particles=10)
        state = initialize(params, make_problem("booth", 2), seed=9)
        holder = state.best_holder_index
        for i, (ex, ir) in enumerate(zip(state.ex, state.ir)):
            if i == holder:
                assert ex == 1
                assert ir >= params.initial_ir
            else:
                assert ex == 0
                assert ir == params.initial_ir

    def test_same_seed_reproduces_the_state_exactly(self):
        params = AlgorithmParams(num_particles=12)
        problem = make_problem("beale", 2)
        a = initialize(params, problem, seed=77)
        b = initialize(params, problem, seed=77)
        for name in ("pos", "fit", "ir", "ex"):
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name))
        assert a.global_best_fitness == b.global_best_fitness


class TestRun:
    def test_same_inputs_give_identical_results(self):
        params = AlgorithmParams(num_particles=8, max_iterations=30)
        problem = make_problem("booth", 2)
        assert run(params, problem, seed=3) == run(params, problem, seed=3)

    def test_zero_budget_returns_initial_archive(self):
        params = AlgorithmParams(num_particles=8, max_iterations=0)
        problem = make_problem("booth", 2)
        result = run(params, problem, seed=3)
        state = initialize(params, problem, seed=3)
        assert result.best_fitness == state.global_best_fitness
        assert result.best_per_iteration == ()
        assert result.eval_count == 8

    def test_history_is_non_increasing_and_ends_at_best(self):
        params = AlgorithmParams(num_particles=8, max_iterations=40)
        result = run(params, make_problem("rosenbrock", 2), seed=6)
        history = result.best_per_iteration
        assert len(history) == 40
        assert all(a >= b for a, b in zip(history, history[1:]))
        assert result.best_fitness == history[-1]

    def test_result_echoes_params_and_seed(self):
        params = AlgorithmParams(num_particles=8, max_iterations=5)
        result = run(params, make_problem("sphere", 2), seed=123)
        assert result.params == params
        assert result.seed == 123

    @pytest.mark.parametrize("seed", [2.5, "2", True, None, -1])
    def test_rejects_a_seed_that_is_not_a_non_negative_integer(self, seed):
        params = AlgorithmParams(num_particles=4, max_iterations=2)
        with pytest.raises(ConfigurationError, match="seed"):
            run(params, make_problem("booth", 2), seed)

    def test_numpy_integer_seed_is_reported_as_int(self):
        params = AlgorithmParams(num_particles=4, max_iterations=5)
        problem = make_problem("booth", 2)
        result = run(params, problem, np.int64(3))
        assert type(result.seed) is int
        assert result == run(params, problem, 3)


class TestRandomStream:
    def test_draws_live_in_unit_interval(self):
        rng = RandomStream(5)
        values = [rng.next() for _ in range(500)] + list(rng.draw(500))
        assert all(0.0 <= v < 1.0 for v in values)

    def test_same_seed_same_sequence(self):
        a, b = RandomStream(99), RandomStream(99)
        assert [a.next() for _ in range(20)] == [b.next() for _ in range(20)]

    def test_negative_seed_is_rejected(self):
        with pytest.raises(ValueError):
            RandomStream(-7)

    def test_seeds_are_used_whole(self):
        wide = RandomStream(5 + 2**64)
        assert wide.seed == 5 + 2**64
        assert wide.next() != RandomStream(5).next()

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32),
        calls=st.lists(
            st.one_of(
                st.none(),  # next()
                st.sampled_from([0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 3]),
                st.integers(min_value=0, max_value=3 * _BLOCK),
            ),
            max_size=12,
        ),
    )
    def test_any_interleaving_yields_the_generator_sequence(self, seed, calls):
        stream = RandomStream(seed)
        got = []
        for n in calls:
            if n is None:
                value = stream.next()
                assert type(value) is float
                got.append(value)
            else:
                values = stream.draw(n)
                assert values.shape == (n,)
                got.extend(values.tolist())
        expected = np.random.default_rng(seed).random(len(got))
        assert np.array_equal(np.array(got), expected)

    def test_next_does_not_go_through_draw(self, monkeypatch):
        stream = RandomStream(4)
        monkeypatch.setattr(RandomStream, "draw", lambda self, n: pytest.fail("next() drew"))
        values = [stream.next() for _ in range(_BLOCK + 2)]  # crosses a block boundary
        assert values == np.random.default_rng(4).random(_BLOCK + 2).tolist()

    def test_drawn_arrays_keep_their_values(self):
        stream = RandomStream(8)
        first = stream.draw(_BLOCK - 1)
        kept = first.copy()
        stream.draw(2 * _BLOCK)
        assert np.array_equal(first, kept)

    def test_negative_draw_is_rejected(self):
        with pytest.raises(ValueError):
            RandomStream(1).draw(-1)
