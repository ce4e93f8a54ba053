"""Lockstep runs: ``run_many`` gives each seed's ``run``, bit for bit."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from codoa import engine, lockstep
from codoa.benchmarks import REGISTRY, make_problem
from codoa.engine import IR_FLOOR, AlgorithmParams, ConfigurationError, run
from codoa.lockstep import run_many

from support import box_problem


def same_runs(params, problem, seeds):
    """``run_many``'s results equal the solo runs', down to each float's bits and sign."""
    many = run_many(params, problem, seeds)
    solo = [run(params, problem, seed) for seed in seeds]
    assert many == solo
    assert repr(many) == repr(solo)  # repr tells -0.0 from 0.0


def unruly(x):
    """An objective that is NaN on one part of the box and inf on another."""
    if x[0] > 0.5:
        return math.nan
    if x[1] < -0.5:
        return math.inf
    return float(x[0] * x[0] + x[1] * x[1])


unruly.batch = lambda points: np.array([unruly(x) for x in points])

PROBLEMS = [make_problem(name, REGISTRY[name].fixed_dimension or 4) for name in sorted(REGISTRY)]
PROBLEMS += [box_problem([-1.0, -1.0], [1.0, 1.0], unruly),
             box_problem([-1.0, -1.0], [1.0, 1.0], lambda x: unruly(x))]  # rows one by one


@st.composite
def interactivity(draw):
    """``(initial_ir, max_ir)``: at the defaults, equal, with ``max_ir`` a few times
    IR_FLOOR (so that ``ir`` sits at both clamps), or anywhere in between."""
    max_ir = draw(st.sampled_from([10.0, 1.0, 3 * IR_FLOOR]) | st.floats(IR_FLOOR, 20.0))
    initial_ir = draw(st.sampled_from([0.5, max_ir, IR_FLOOR]) | st.floats(IR_FLOOR, max_ir))
    return min(initial_ir, max_ir), max_ir


@given(
    num_particles=st.integers(2, 12),
    max_iterations=st.integers(0, 200),
    rationality_rate=st.integers(0, 3),
    maturity_limit=st.integers(0, 4),
    ir=interactivity(),
    problem=st.sampled_from(PROBLEMS),
    seeds=st.lists(st.integers(0, 2**32), min_size=1, max_size=5),
)
@settings(max_examples=120, deadline=None)
def test_run_many_equals_a_run_per_seed(num_particles, max_iterations, rationality_rate,
                                        maturity_limit, ir, problem, seeds):
    params = AlgorithmParams(num_particles=num_particles, max_iterations=max_iterations,
                             initial_ir=ir[0], max_ir=ir[1],
                             rationality_rate=rationality_rate, maturity_limit=maturity_limit)
    same_runs(params, problem, seeds)


def test_seeds_that_collapse_at_different_iterations_leave_the_stack_one_by_one(monkeypatch):
    forwarded = []

    def fast_forward(state, iterations):
        forwarded.append(iterations)
        original(state, iterations)

    original = engine.fast_forward
    monkeypatch.setattr(engine, "fast_forward", fast_forward)
    params = AlgorithmParams(max_iterations=400)
    run_many(params, make_problem("booth"), [1, 2, 3, 4])
    assert len(set(forwarded)) == 4  # four booth swarms, four collapse iterations
    monkeypatch.undo()
    same_runs(params, make_problem("booth"), [1, 2, 3, 4])


def test_repeated_seeds_and_order_are_kept():
    same_runs(AlgorithmParams(num_particles=6, max_iterations=40), make_problem("sphere", 3),
              [5, 2, 5, 0])


def test_no_seeds_make_no_runs():
    assert run_many(AlgorithmParams(), make_problem("booth"), []) == []


@pytest.mark.parametrize("seed", [-1, 1.5, True])
def test_a_bad_seed_is_rejected(seed):
    with pytest.raises(ConfigurationError, match="seed"):
        run_many(AlgorithmParams(max_iterations=5), make_problem("booth"), [1, seed])


def test_a_bad_evaluator_result_is_rejected_naming_it():
    problem = box_problem([-1.0, -1.0], [1.0, 1.0], lambda x: "7")
    with pytest.raises(ConfigurationError, match=r"evaluator must give one real number"):
        run_many(AlgorithmParams(num_particles=4, max_iterations=5), problem, [1, 2])


def flat(x):
    """A plateau: every point of the box has the same fitness."""
    return 1.0


flat.batch = lambda points: np.ones(len(points))


def test_swarms_that_go_flat_without_collapsing_stay_on_one_stack(monkeypatch):
    stacks, forwarded = [], []

    def init(self, *args):
        stacks.append(self)
        original_init(self, *args)

    original_init = lockstep._Stack.__init__
    monkeypatch.setattr(lockstep._Stack, "__init__", init)
    monkeypatch.setattr(engine, "fast_forward", lambda *args: forwarded.append(args))
    params = AlgorithmParams(num_particles=6, max_iterations=30)
    problem = box_problem([-1.0, -1.0], [1.0, 1.0], flat)
    run_many(params, problem, [1, 2, 3])
    # every fitness equals each swarm's best from the first iteration on, yet none collapses
    assert (len(stacks), forwarded) == (1, [])
    monkeypatch.undo()
    same_runs(params, problem, [1, 2, 3])


def test_the_last_running_seed_finishes_on_runs_own_loop(monkeypatch):
    finished = []

    def finish(state, params, problem, done):
        finished.append((state.rng.seed, done))
        original(state, params, problem, done)

    original = engine.finish
    monkeypatch.setattr(engine, "finish", finish)
    params = AlgorithmParams(max_iterations=300)
    run_many(params, make_problem("booth"), [1, 2])
    run_many(params, make_problem("booth"), [7])
    (seed, done), single = finished
    assert seed in (1, 2) and 0 < done < 300  # the other seed collapsed at iteration `done`
    assert single == (7, 0)
    monkeypatch.undo()
    same_runs(params, make_problem("booth"), [1, 2])
