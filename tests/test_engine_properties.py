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


def count_parked(monkeypatch):
    """Count moved rows that keep their fitness without an objective call.

    A row is parked when its fitness before the move equals the archived
    best's and its new position is the archived point bit for bit;
    ``move_toward_best`` is wrapped to count them apart from the engine.
    """
    box = {"parked": 0}
    original = engine.move_toward_best

    def counted(state, problem, selected):
        rows = selected.nonzero()[0]
        prior = state.fit[rows]
        original(state, problem, selected)
        archive = state.global_best_position.view(np.int64)
        for fitness, position in zip(prior.tolist(), state.pos[rows]):
            if fitness == state.global_best_fitness and (position.view(np.int64) == archive).all():
                box["parked"] += 1

    monkeypatch.setattr(engine, "move_toward_best", counted)
    return box


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


def test_invariants_hold_through_random_short_runs(monkeypatch):
    parked = count_parked(monkeypatch)
    parked_in_all_trials = 0
    rng = np.random.default_rng(2024)
    for trial in range(25):
        parked["parked"] = 0
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
            iterate(state, params, problem)
            assert state.eval_count - before <= 2 * params.num_particles
            assert counter["calls"] == state.eval_count - parked["parked"]
            assert state.global_best_fitness <= previous_best
            previous_best = state.global_best_fitness
            assert_iteration_boundary(state, params, plain)
        parked_in_all_trials += parked["parked"]
    assert parked_in_all_trials > 0  # so the reuse is exercised


def test_full_run_accounting_matches_external_count(monkeypatch):
    parked = count_parked(monkeypatch)
    params = AlgorithmParams(num_particles=7, max_iterations=25)
    problem, counter = counting_problem(make_problem("sphere", 3))
    result = run(params, problem, seed=5)
    assert counter["calls"] == result.eval_count - parked["parked"]
    assert parked["parked"] > 0


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
