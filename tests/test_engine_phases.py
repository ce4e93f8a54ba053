"""Phase-level tests with the random stream pinned to hand-computable values."""

import importlib.util
import inspect
import math
from pathlib import Path

import numpy as np
import pytest

from codoa import engine
from codoa.benchmarks import make_problem
from codoa.engine import (
    IR_FLOOR,
    AlgorithmParams,
    balancing,
    decay_all_ir,
    initialize,
    iterate,
    maturation,
    mean_fitness,
    move_toward_best,
    rationalizing,
    socialization,
)
from codoa.rng import RandomStream

from support import (
    PinnedStream,
    SequenceStream,
    assert_iteration_boundary,
    box_problem,
    make_state,
    mask,
    sphere_loop,
)


PARAMS = AlgorithmParams()


def test_every_phase_the_benchmark_traces_is_an_engine_function():
    # perfbench wraps engine phases by name; a renamed phase would read "absent" there
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert len(tracer.ENGINE_PHASES) == 10
    for name in tracer.ENGINE_PHASES:
        assert inspect.isfunction(getattr(engine, name, None)), name


class TestSocialization:
    def test_below_mean_gains_experience_and_interactivity(self):
        state = make_state(fitness=[1.0, 3.0], ir=[0.5, 0.5], rng=PinnedStream(0.5))
        socialization(state, PARAMS)
        assert state.ex.tolist() == [1, -1]
        assert state.ir[0] == pytest.approx(0.75)
        assert state.ir[1] == 0.5

    def test_all_equal_fitness_decrements_everyone(self):
        state = make_state(fitness=[4.0, 4.0, 4.0], ir=[0.3, 0.3, 0.3],
                           rng=PinnedStream(0.9))
        socialization(state, PARAMS)
        assert state.ex.tolist() == [-1, -1, -1]
        assert all(v == 0.3 for v in state.ir)

    def test_mean_comparison_uses_strict_below(self):
        state = make_state(fitness=[0.0, 10.0, 10.0])  # mean 6.667
        socialization(state, PARAMS)
        assert state.ex.tolist() == [1, -1, -1]

    def test_zero_rand_keeps_interactivity(self):
        state = make_state(fitness=[1.0, 3.0], ir=[0.5, 0.5], rng=PinnedStream(0.0))
        socialization(state, PARAMS)
        assert state.ir[0] == 0.5

    def test_finite_fitnesses_summing_past_the_float_range(self):
        # fsum raises OverflowError on these
        state = make_state(fitness=[1e308, 1.7e308, 1.3e308, 1.5e308])
        assert mean_fitness(state.fit) == pytest.approx(1.375e308, rel=1e-15)
        socialization(state, PARAMS)
        assert state.ex.tolist() == [1, -1, 1, -1]

    def test_a_run_whose_fitnesses_sum_past_the_float_range(self):
        problem = box_problem([-1.0, -1.0], [1.0, 1.0], lambda x: 1e308 * (1.0 + float(x @ x)))
        result = engine.run(AlgorithmParams(num_particles=4, max_iterations=3), problem, seed=1)
        assert math.isfinite(result.best_fitness)


class TestDecayAllIr:
    def test_halves_under_pinned_half(self):
        state = make_state(fitness=[1.0, 2.0], ir=[0.4, 0.8], rng=PinnedStream(0.5))
        decay_all_ir(state)
        assert state.ir[0] == pytest.approx(0.2)
        assert state.ir[1] == pytest.approx(0.4)

    def test_zero_rand_engages_the_floor(self):
        state = make_state(fitness=[1.0, 2.0], ir=[0.4, 0.4], rng=PinnedStream(0.0))
        decay_all_ir(state)
        assert all(v == IR_FLOOR for v in state.ir)

    def test_decay_never_exceeds_current_value(self):
        state = make_state(fitness=[1.0, 2.0], ir=[10.0, 10.0],
                           rng=PinnedStream(1.0 - 1e-12))
        decay_all_ir(state)
        assert all(v < 10.0 for v in state.ir)


class TestMoveTowardBest:
    def test_steps_half_the_scaled_gap(self):
        problem = box_problem([-10.0], [10.0])
        state = make_state(fitness=[5.0, 0.0], ir=[0.5, 0.5],
                           positions=[[1.0], [3.0]], rng=PinnedStream(0.5), problem=problem)
        move_toward_best(state, mask(2, 0))
        assert state.pos[0, 0] == pytest.approx(1.5)
        assert state.fit.tolist() == [problem.evaluator(state.pos[0]), 0.0]
        assert state.eval_count == 1

    def test_particle_at_the_best_point_stays_put(self):
        problem = box_problem([-10.0, -10.0], [10.0, 10.0])
        state = make_state(fitness=[0.0, 1.0], ir=[7.0, 7.0],
                           positions=[[2.0, -3.0], [2.0, -3.0]],
                           rng=RandomStream(3), problem=problem)
        move_toward_best(state, mask(2, 0, 1))
        np.testing.assert_array_equal(state.pos[1], [2.0, -3.0])

    def test_zero_rand_leaves_positions_unchanged(self):
        problem = box_problem([-10.0, -10.0], [10.0, 10.0])
        state = make_state(fitness=[0.0, 1.0], positions=[[0.0, 0.0], [4.0, -2.0]],
                           rng=PinnedStream(0.0), problem=problem)
        move_toward_best(state, mask(2, 0, 1))
        np.testing.assert_array_equal(state.pos[1], [4.0, -2.0])

    def test_never_overshoots_when_ir_at_most_one(self):
        problem = box_problem([-50.0] * 3, [50.0] * 3)
        rng = np.random.default_rng(17)
        for trial in range(200):
            ir = float(rng.uniform(0.0, 1.0))
            start = rng.uniform(-50, 50, 3)
            goal = rng.uniform(-50, 50, 3)
            state = make_state(fitness=[1.0, 0.0], ir=[max(ir, 1e-6)] * 2,
                               positions=[start.copy(), goal.copy()],
                               rng=RandomStream(trial), problem=problem)
            move_toward_best(state, mask(2, 0))
            moved = state.pos[0]
            # each coordinate lands between its start and the goal
            assert np.all(np.abs(moved - goal) <= np.abs(start - goal) + 1e-12)
            assert np.all((moved - goal) * (start - goal) >= -1e-12)

    def test_selector_excludes_the_best_holder(self):
        problem = box_problem([-10.0, -10.0], [10.0, 10.0])
        state = make_state(fitness=[0.5, 3.0, 4.0], ir=[1.0, 1.0, 1.0],
                           positions=[[5.0, 5.0], [1.0, 1.0], [2.0, 2.0]],
                           gbest_pos=[0.0, 0.0], gbest_fit=0.4, holder=0,
                           rng=PinnedStream(0.5), problem=problem)
        holder = state.best_holder_index
        move_toward_best(state, ~mask(3, holder))
        np.testing.assert_array_equal(state.pos[0], [5.0, 5.0])
        np.testing.assert_array_equal(state.pos[1], [0.5, 0.5])
        np.testing.assert_array_equal(state.pos[2], [1.0, 1.0])
        assert state.fit.tolist() == [0.5, 0.5, 2.0]  # holder keeps its fitness
        assert state.eval_count == 2

    def test_moves_are_clamped_into_the_box(self):
        problem = box_problem([-1.0], [1.0])
        state = make_state(fitness=[1.0, 0.0], ir=[10.0, 10.0],
                           positions=[[-1.0], [1.0]], rng=PinnedStream(0.9), problem=problem)
        move_toward_best(state, mask(2, 0))
        # raw step: -1 + 0.9 * 10 * 2 = 17, clamped to the box edge
        assert state.pos[0, 0] == 1.0

    def test_clamp_engages_per_coordinate(self):
        problem = make_problem("booth", 2)
        state = make_state(fitness=[1.0, 0.0], ir=[10.0, 10.0],
                           positions=[[-10.0, 3.0], [10.0, 3.0]], rng=PinnedStream(0.9),
                           problem=problem)
        move_toward_best(state, mask(2, 0))
        # x would step to 170 and stops at the box edge; y has no gap and stays
        np.testing.assert_array_equal(state.pos[0], [10.0, 3.0])

    def test_clamp_engages_both_bounds(self):
        problem = make_problem("sphere", 2)
        state = make_state(fitness=[1.0, 0.0], ir=[10.0, 10.0],
                           positions=[[100.0, -100.0], [-100.0, 100.0]],
                           rng=PinnedStream(0.9), problem=problem)
        move_toward_best(state, mask(2, 0))
        np.testing.assert_array_equal(state.pos[0], [-100.0, 100.0])

    def test_per_dimension_rand_draws_fresh_factors(self):
        problem = box_problem([-10.0, -10.0], [10.0, 10.0])
        state = make_state(fitness=[1.0, 0.0], ir=[1.0, 1.0],
                           positions=[[0.0, 0.0], [1.0, 1.0]],
                           rng=SequenceStream([0.25, 0.75]), problem=problem)
        move_toward_best(state, mask(2, 0))
        np.testing.assert_allclose(state.pos[0], [0.25, 0.75])


def logged_sphere(path):
    """Sum of squares that logs every point it evaluates, on the batch or the row path."""
    seen = []

    def objective(x):
        seen.append(x.tolist())
        return float(np.square(x).sum())

    if path == "batch":
        def batch(points):
            seen.extend(points.tolist())
            return np.square(points).sum(axis=1)

        objective.batch = batch
    return box_problem([-10.0, -10.0], [10.0, 10.0], objective), seen


class TestEveryMoveIsEvaluated:
    """Every moved particle is evaluated, on the batch path and the row path,
    including one that moves onto the archived point from the archived fitness."""

    @pytest.mark.parametrize("path", ["batch", "rows"])
    @pytest.mark.parametrize("start, ir, u", [
        pytest.param([1.0, 0.0], 0.5, 0.5, id="archive-fitness-onto-its-point"),
        pytest.param([-1.0, 0.0], 4.0, 0.5, id="tied-fitness-elsewhere"),
        pytest.param([-1.0, 0.0], 1.0, 1.0, id="tied-fitness-lands-on-best"),
        pytest.param([3.0, 0.0], 1.0, 1.0, id="other-fitness-lands-on-best"),
    ])
    def test_a_moved_particle_is_evaluated(self, path, start, ir, u):
        problem, seen = logged_sphere(path)
        # the archive is particle 0 at (1, 0), fitness 1; particle 1 moves
        state = make_state(fitness=[1.0, sphere_loop(start)], ir=[ir, ir],
                           positions=[[1.0, 0.0], start], rng=PinnedStream(u), problem=problem)
        move_toward_best(state, mask(2, 1))
        assert seen == [state.pos[1].tolist()]
        assert state.eval_count == 1 and type(state.eval_count) is int
        assert_iteration_boundary(state, PARAMS, box_problem([-10.0, -10.0], [10.0, 10.0]))

    @pytest.mark.parametrize("path", ["batch", "rows"])
    def test_every_moved_row_is_evaluated_in_index_order(self, path):
        problem, seen = logged_sphere(path)
        # particles 0, 1 and 3 sit on the archived point (1, 0) with its fitness
        state = make_state(fitness=[1.0, 1.0, 9.0, 1.0], ir=[0.5] * 4,
                           positions=[[1.0, 0.0], [1.0, 0.0], [3.0, 0.0], [1.0, 0.0]],
                           holder=1, rng=PinnedStream(0.5), problem=problem)
        move_toward_best(state, mask(4, 0, 2, 3))
        assert seen == [[1.0, 0.0], [2.5, 0.0], [1.0, 0.0]]
        assert state.fit.tolist() == [1.0, 1.0, 6.25, 1.0]
        assert state.eval_count == 3

    @pytest.mark.parametrize("path", ["batch", "rows"])
    def test_a_minus_zero_coordinate_turned_plus_zero_is_a_move(self, path):
        problem, seen = logged_sphere(path)
        state = make_state(fitness=[4.0, 4.0], positions=[[-0.0, 2.0], [-0.0, 2.0]],
                           rng=PinnedStream(0.5), problem=problem)
        move_toward_best(state, mask(2, 1))
        # -0.0 + 0.5 * (0.5 * (-0.0 - -0.0)) is -0.0 + 0.0, which is +0.0
        assert not np.signbit(state.pos[1, 0])
        assert seen == [[0.0, 2.0]]
        assert state.eval_count == 1


class TestMaturation:
    def test_boosts_low_experience_then_rewards_best(self):
        state = make_state(fitness=[5.0, 4.0, 3.0], ir=[1.0, 1.0, 1.0],
                           ex=[4, 3, -1], rng=PinnedStream(0.5))
        maturation(state, AlgorithmParams(maturity_limit=3))
        # ex <= 3 boosts particles 1 and 2 to 1.5; the reward then lifts the
        # fittest (particle 2) once more: 1.5 + 0.5 * 1.5 = 2.25
        assert state.ir[0] == 1.0
        assert state.ir[1] == pytest.approx(1.5)
        assert state.ir[2] == pytest.approx(2.25)
        assert state.ex.tolist() == [4, 3, 0]

    def test_empty_selection_still_rewards_best(self):
        state = make_state(fitness=[5.0, 4.0], ir=[1.0, 1.0], ex=[10, 10],
                           rng=PinnedStream(0.5))
        maturation(state, AlgorithmParams(maturity_limit=3))
        assert state.ir[0] == 1.0        # not selected, not best
        assert state.ir[1] == pytest.approx(1.5)  # reward only
        assert state.ex.tolist() == [10, 11]

    def test_zero_rand_is_a_fixed_point_for_interactivity(self):
        state = make_state(fitness=[5.0, 4.0], ir=[1.0, 1.0], ex=[0, 0],
                           rng=PinnedStream(0.0))
        maturation(state, AlgorithmParams(maturity_limit=3))
        assert all(v == 1.0 for v in state.ir)
        assert state.ex.tolist() == [0, 1]


class TestRationalizing:
    def test_negative_experience_boost_scales_by_holder_ratio(self):
        problem = box_problem([-10.0, -10.0], [10.0, 10.0])
        state = make_state(fitness=[2.0, 1.0], ir=[0.5, 2.0], ex=[-1, 0],
                           positions=[[4.0, 4.0], [0.0, 0.0]],
                           gbest_pos=[0.0, 0.0], gbest_fit=1.0, holder=1,
                           rng=PinnedStream(0.5), problem=problem)
        rationalizing(state, AlgorithmParams(rationality_rate=0))
        # 0.5 + 0.5 * (2.0 / 0.5) = 2.5, then the particle moves toward the best
        assert state.ir[0] == pytest.approx(2.5)
        assert state.pos[0, 0] < 4.0
        assert state.fit[0] == problem.evaluator(state.pos[0])
        assert state.eval_count == 1

    def test_zero_rationality_rate_skips_non_negative_particles(self):
        problem = box_problem([-10.0, -10.0], [10.0, 10.0])
        state = make_state(fitness=[2.0, 1.0], ir=[0.7, 2.0], ex=[3, 0],
                           gbest_pos=[0.0, 0.0], gbest_fit=1.0, holder=1,
                           rng=PinnedStream(0.5), problem=problem)
        rationalizing(state, AlgorithmParams(rationality_rate=0))
        assert state.ir[0] == 0.7
        assert state.ir[1] == 2.0

    def test_repeated_boosts_use_the_phase_start_reference(self):
        problem = box_problem([-10.0, -10.0], [10.0, 10.0])
        state = make_state(fitness=[1.0, 2.0], ir=[1.0, 1.0], ex=[0, 0],
                           gbest_pos=[0.0, 0.0], gbest_fit=1.0, holder=0,
                           rng=PinnedStream(1.0), problem=problem)
        rationalizing(state, AlgorithmParams(rationality_rate=2))
        # reference stays 1.0: pass one gives 1 + 1/1 = 2, pass two 2 + 1/2 = 2.5
        assert state.ir[0] == pytest.approx(2.5)
        assert state.ir[1] == pytest.approx(2.5)

    def test_only_moved_particles_are_evaluated(self):
        problem = box_problem([-10.0, -10.0], [10.0, 10.0])
        state = make_state(fitness=[2.0, 1.0, 3.0], ir=[0.5, 2.0, 1.0],
                           ex=[-2, 5, 0],
                           positions=[[4.0, 4.0], [0.0, 0.0], [1.0, 1.0]],
                           gbest_pos=[0.0, 0.0], gbest_fit=1.0, holder=1,
                           rng=PinnedStream(0.5), problem=problem)
        rationalizing(state, PARAMS)
        assert state.fit[0] == problem.evaluator(state.pos[0])  # moved
        assert state.fit[1:].tolist() == [1.0, 3.0]  # ex >= 0, boost only
        assert state.eval_count == 1


class TestBalancing:
    def test_decays_then_rewards_without_evaluating(self):
        state = make_state(fitness=[1.0, 4.0], ir=[0.4, 0.8],
                           positions=[[1.0, 0.0], [2.0, 0.0]],
                           rng=PinnedStream(0.5))
        balancing(state, PARAMS)
        assert state.eval_count == 0
        # decay halves both, then the reward boosts the fittest back up
        assert state.ir[0] == pytest.approx(0.3)
        assert state.ir[1] == pytest.approx(0.4)
        assert state.ex[0] == 1

    def test_archive_never_worsens(self):
        problem = make_problem("booth", 2)
        params = AlgorithmParams(num_particles=10, max_iterations=1)
        for seed in range(15):
            state = initialize(params, problem, seed=seed)
            before = state.global_best_fitness
            balancing(state, params)
            assert state.global_best_fitness <= before


class TestIterate:
    def test_runs_the_full_sequence_and_appends_history(self):
        params = AlgorithmParams(num_particles=10, max_iterations=3)
        problem = make_problem("booth", 2)
        state = initialize(params, problem, seed=2)
        iterate(state, params)
        assert len(state.history) == 1
        assert state.history[0] == state.global_best_fitness

    def test_evaluations_per_iteration_capped_at_twice_the_swarm(self):
        params = AlgorithmParams(num_particles=50, max_iterations=1)
        problem = make_problem("sphere", 5)
        state = initialize(params, problem, seed=8)
        for _ in range(5):
            before = state.eval_count
            iterate(state, params)
            assert state.eval_count - before <= 2 * params.num_particles

    def test_archive_is_monotone_across_iterations(self):
        params = AlgorithmParams(num_particles=10, max_iterations=1)
        problem = make_problem("rosenbrock", 3)
        state = initialize(params, problem, seed=21)
        previous = state.global_best_fitness
        for _ in range(20):
            iterate(state, params)
            assert state.global_best_fitness <= previous
            previous = state.global_best_fitness
