"""Numpy's fast path: ``engine.step`` and rosenbrock's batch form make their results in
new buffers and write into no input, a serial run keeps its box as rows while a problem
stays a plain record of its fields, and the 0-d operands of ``AlgorithmParams`` leave its
value semantics as they were."""

import dataclasses
import pickle
import tracemalloc

import numpy as np
import pytest

from codoa import engine, harness, lockstep
from codoa.benchmarks import _rosenbrock_rows, make_problem, rosenbrock
from codoa.engine import AlgorithmParams, ObjectiveProblem, step
from codoa.harness import ExperimentConfig, run_experiment
from codoa.rng import RandomStream


def _bits(array):
    return np.asarray(array, dtype=float).view(np.int64).tolist()


def _broadcast_step(positions, u, ir, best, lower, upper):
    """The step as one broadcast expression: the reference ``step`` equals bit for bit."""
    return np.minimum(np.maximum(positions + u * (ir[:, None] * (best - positions)), lower),
                      upper)


def _step_args(owner_count):
    """``step``'s arguments for 7 moved rows in d = 4, ``u`` a view of a stream's block:
    the engine's (one best point, its swarm's box rows) for ``owner_count`` 1, else a
    stack's (one best point and one box row per moved row, from ``owner_count`` swarms).
    ``ir`` reaches 10, so that some rows overshoot and are clamped."""
    k, d = 7, 4
    rng = RandomStream(5)
    problems = [make_problem("sphere", d), make_problem("rosenbrock", d)]
    positions = rng.draw(k * d).reshape(k, d) * 60 - 30
    u = rng.draw(k * d).reshape(k, d)
    ir = rng.draw(k) * 10
    if owner_count == 1:
        box = np.repeat(np.stack((problems[1].lower_bounds, problems[1].upper_bounds))[:, None],
                        k, axis=1)
        return positions, u, ir, positions[3].copy(), box[0], box[1]
    owner = np.arange(k) % owner_count
    best = positions.take(owner, axis=0) * 0.5
    lower = np.stack([problems[r % 2].lower_bounds for r in owner])
    upper = np.stack([problems[r % 2].upper_bounds for r in owner])
    return positions, u, ir, best, lower, upper


@pytest.mark.parametrize("owner_count", [1, 3], ids=["engine", "stack"])
def test_step_writes_into_no_input_and_equals_the_broadcast_expression(owner_count):
    args = _step_args(owner_count)
    assert args[1].base is not None  # u is the stream's block, not a copy
    before = [_bits(a) for a in args]
    moved = step(*args)
    assert [_bits(a) for a in args] == before
    assert not any(np.shares_memory(moved, a) for a in args)
    assert _bits(moved) == _bits(_broadcast_step(*args))
    assert moved.shape == args[0].shape


@pytest.mark.parametrize("shape", [(6, 30), (1, 2), (30,)], ids=["rows", "one row", "point"])
def test_rosenbrock_rows_write_into_no_input_and_equal_the_expression(shape):
    x = RandomStream(9).draw(int(np.prod(shape))).reshape(shape) * 4 - 2
    before = _bits(x)
    values = _rosenbrock_rows(x)
    assert _bits(x) == before
    assert not np.shares_memory(values, x)
    head, tail = x[..., :-1], x[..., 1:]
    assert _bits(values) == _bits((100.0 * (tail - head**2) ** 2 + (head - 1.0) ** 2).sum(axis=-1))


@pytest.mark.parametrize("dtype", [np.int64, np.float32])
def test_rosenbrock_batch_of_another_dtype_equals_its_row_form(dtype):
    x = (RandomStream(2).draw(12).reshape(3, 4) * 20 - 10).astype(dtype)
    assert _bits(rosenbrock.batch(x)) == _bits([rosenbrock(row) for row in x])


def test_a_serial_swarm_makes_its_box_rows_on_its_first_move_and_a_stacked_one_none():
    params = AlgorithmParams(num_particles=6, max_iterations=4)
    problem = make_problem("mccormick")  # a box of different bounds per coordinate
    state = engine.initialize(params, problem, 3)
    assert state.box is None
    engine.iterate(state, params, problem)
    assert state.box.shape == (2, 6, 2) and state.box.flags.c_contiguous
    assert state.box.tolist() == [np.tile(problem.lower_bounds, (6, 1)).tolist(),
                                  np.tile(problem.upper_bounds, (6, 1)).tolist()]
    assert problem.lower_bounds.tolist() == [-1.5, -3.0]
    swarms = [(problem, engine.initialize(params, problem, seed)) for seed in range(3)]
    lockstep._Stack(params, swarms).advance()
    assert all(state.history and state.box is None for _, state in swarms)


def test_a_problem_pickles_and_replaces_as_its_fields_before_and_after_a_run():
    params = AlgorithmParams(num_particles=6, max_iterations=20)
    problem = make_problem("rosenbrock", 3)
    pickled = pickle.dumps(problem)
    solo = engine.run(params, problem, 4)
    assert pickle.dumps(problem) == pickled
    copy = pickle.loads(pickled)
    assert _bits(copy.lower_bounds) == _bits(problem.lower_bounds)
    assert _bits(copy.upper_bounds) == _bits(problem.upper_bounds)
    assert copy.dimension == 3 and copy.known_minimum_value == problem.known_minimum_value
    assert engine.run(params, copy, 4) == solo
    narrow = dataclasses.replace(problem, lower_bounds=[-1.0] * 3, upper_bounds=[1.0] * 3)
    fresh = ObjectiveProblem([-1.0] * 3, [1.0] * 3, problem.evaluator)
    assert engine.run(params, narrow, 4) == engine.run(params, fresh, 4)


@pytest.mark.parametrize("workers", [1, 2], ids=["serial", "pooled"])
def test_a_problem_holds_only_its_fields_after_a_run_a_stack_and_an_experiment(
        monkeypatch, workers):
    params = AlgorithmParams(num_particles=6, max_iterations=20)
    names = {f.name for f in dataclasses.fields(ObjectiveProblem)}
    problem = make_problem("sphere", 3)
    engine.run(params, problem, 1)
    lockstep.run_many(params, [(problem, seed) for seed in range(5)])
    assert set(vars(problem)) == names
    built = []

    def recorded(name, dimension):
        built.append(make_problem(name, dimension))
        return built[-1]

    monkeypatch.setattr(harness, "make_problem", recorded)
    run_experiment(ExperimentConfig((("booth", 2), ("sphere", 4)), 2, params=params), workers)
    assert len(built) == 2 and all(set(vars(p)) == names for p in built)


def _traced_peak(entries: int) -> int:
    """The traced peak of a serial experiment of ``entries`` sphere-5000 entries of one run
    of one iteration each."""
    config = ExperimentConfig((("sphere", 5000),) * entries, runs_per_entry=1,
                              params=AlgorithmParams(max_iterations=1))
    tracemalloc.start()
    try:
        run_experiment(config)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_serial_experiment_keeps_no_box_rows_per_entry():
    # each run's box is 2 x 50 x 5000 floats (4 MB), freed with its run
    assert _traced_peak(8) < 1.5 * _traced_peak(1)


def test_params_keep_equality_hash_asdict_and_pickling_once_their_operands_exist():
    params = AlgorithmParams(max_iterations=5, max_ir=7.5, maturity_limit=2)
    fresh = AlgorithmParams(max_iterations=5, max_ir=7.5, maturity_limit=2)
    engine.run(params, make_problem("booth"), 1)  # makes the operands
    assert "_max_ir" in vars(params) and "_maturity_limit" in vars(params)
    assert params._max_ir.shape == () and params._max_ir.dtype == np.float64
    assert params._max_ir == 7.5 and params._maturity_limit == 2
    assert params == fresh and hash(params) == hash(fresh)
    assert dataclasses.asdict(params) == dataclasses.asdict(fresh)
    assert list(dataclasses.asdict(params)) == [f.name for f in dataclasses.fields(params)]
    clone = pickle.loads(pickle.dumps(params))
    assert clone == params and hash(clone) == hash(params)
    assert dataclasses.asdict(clone) == dataclasses.asdict(params)
    assert params != dataclasses.replace(params, max_ir=8.0)


@pytest.mark.parametrize("limit, operand", [
    (10**30, 2**63 - 1), (2**63, 2**63 - 1), (-10**30, -2**63), (-5, -5),
])
def test_a_maturity_limit_past_int64_compares_as_its_nearest_int64(limit, operand):
    params = AlgorithmParams(maturity_limit=limit)
    assert params._maturity_limit.dtype == np.int64 and params._maturity_limit == operand
    assert params.maturity_limit == limit
