"""Randomized invariant checks over short runs, plus hypothesis properties."""

import dataclasses
import math

import numpy as np
from hypothesis import given, settings, strategies as st

from codoa import engine
from codoa.benchmarks import make_problem
from codoa.engine import (
    AlgorithmParams,
    initialize,
    iterate,
    mean_fitness,
    reward_best,
    run,
    socialization,
)
from codoa.rng import RandomStream

from support import assert_iteration_boundary, make_state

finite_fitness = st.floats(allow_nan=False, allow_infinity=False,
                           min_value=-1e9, max_value=1e9)


def counting_problem(problem):
    """Wrap a problem so objective calls are counted externally."""
    box = {"calls": 0}
    original = problem.evaluator

    def counting(x):
        box["calls"] += 1
        return original(x)

    return dataclasses.replace(problem, evaluator=counting), box


@given(st.lists(finite_fitness, min_size=2, max_size=20))
def test_socialization_conserves_experience_flow(fitnesses):
    state = make_state(fitness=fitnesses)
    before = state.ex.tolist()
    socialization(state, AlgorithmParams())
    mean = math.fsum(fitnesses) / len(fitnesses)
    gained = sum(1 for e, b in zip(state.ex.tolist(), before) if e == b + 1)
    lost = sum(1 for e, b in zip(state.ex.tolist(), before) if e == b - 1)
    assert gained == sum(1 for f in fitnesses if f < mean)
    assert lost == len(fitnesses) - gained
    assert gained + lost == len(state.ex)


@given(st.lists(st.floats(min_value=-1e306, max_value=1e306),
                min_size=2, max_size=20))
def test_mean_fitness_is_fsum_over_n_bit_for_bit(fitnesses):
    mean = mean_fitness(np.array(fitnesses))
    assert mean.hex() == (math.fsum(fitnesses) / len(fitnesses)).hex()


@given(st.lists(finite_fitness, min_size=2, max_size=20),
       st.integers(min_value=0, max_value=2**32))
@settings(max_examples=50)
def test_reward_credits_exactly_one_particle(fitnesses, seed):
    state = make_state(fitness=fitnesses, rng=RandomStream(seed))
    before = state.ex.tolist()
    reward_best(state, AlgorithmParams())
    deltas = [e - b for e, b in zip(state.ex.tolist(), before)]
    assert sorted(deltas) == [0] * (len(deltas) - 1) + [1]


def _random_setup(rng):
    name, dim = [
        ("booth", 2), ("beale", 2), ("goldstein_price", 2), ("mccormick", 2),
        ("three_hump_camel", 2), ("sphere", int(rng.integers(2, 6))),
        ("rosenbrock", int(rng.integers(2, 6))),
    ][rng.integers(0, 7)]
    params = AlgorithmParams(
        num_particles=int(rng.integers(2, 11)),
        max_iterations=int(rng.integers(1, 12)),
        maturity_limit=int(rng.integers(-2, 6)),
        rationality_rate=int(rng.integers(0, 4)),
    )
    return name, dim, params


def test_invariants_hold_through_random_short_runs():
    rng = np.random.default_rng(2024)
    for trial in range(25):
        name, dim, params = _random_setup(rng)
        plain = make_problem(name, dim)
        problem, counter = counting_problem(plain)
        state = initialize(params, problem, seed=trial)
        assert counter["calls"] == params.num_particles
        assert state.eval_count == counter["calls"]
        # boundary checks evaluate the archive position via the uncounted twin
        assert_iteration_boundary(state, params, plain)
        previous_best = state.global_best_fitness
        for _ in range(params.max_iterations):
            before = state.eval_count
            iterate(state, params)
            assert state.eval_count - before <= 2 * params.num_particles
            assert counter["calls"] == state.eval_count
            assert state.global_best_fitness <= previous_best
            previous_best = state.global_best_fitness
            assert_iteration_boundary(state, params, plain)


def test_full_run_accounting_matches_external_count(monkeypatch):
    """Every evaluation is an objective call up to the collapse; after it,
    ``fast_forward`` counts the evaluations that iterating would make."""
    params = AlgorithmParams(num_particles=10, max_iterations=300)
    problem, counter = counting_problem(make_problem("booth", 2))
    iterations = [0]

    def checked_iterate(state, params):
        iterate(state, params)
        assert counter["calls"] == state.eval_count
        iterations[0] += 1

    monkeypatch.setattr(engine, "iterate", checked_iterate)
    result = run(params, problem, seed=5)
    skipped = params.max_iterations - iterations[0]
    assert skipped > 0  # the swarm collapsed (at iteration 208) and was fast-forwarded
    assert result.eval_count - counter["calls"] >= (params.num_particles - 1) * skipped


def test_distinct_seeds_explore_differently():
    params = AlgorithmParams(num_particles=8, max_iterations=10)
    problem = make_problem("rosenbrock", 4)
    a = run(params, problem, seed=1)
    b = run(params, problem, seed=2)
    assert a.best_position != b.best_position


def test_runs_are_bit_identical_across_repeats():
    params = AlgorithmParams(num_particles=6, max_iterations=15)
    problem = make_problem("mccormick", 2)
    results = {run(params, problem, seed=31) for _ in range(5)}
    assert len(results) == 1
