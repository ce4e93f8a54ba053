"""Numpy's fast path: ``engine.step`` and rosenbrock's batch form make their results in
new buffers and write into no input, a problem keeps its box as read-only rows, and the
0-d operands of ``AlgorithmParams`` leave its value semantics as they were."""

import dataclasses
import pickle

import numpy as np
import pytest

from codoa import engine
from codoa.benchmarks import _rosenbrock_rows, make_problem, rosenbrock
from codoa.engine import AlgorithmParams, ObjectiveProblem, step
from codoa.rng import RandomStream


def _bits(array):
    return np.asarray(array, dtype=float).view(np.int64).tolist()


def _broadcast_step(positions, u, ir, best, lower, upper):
    """The step as one broadcast expression: the reference ``step`` equals bit for bit."""
    return np.minimum(np.maximum(positions + u * (ir[:, None] * (best - positions)), lower),
                      upper)


def _step_args(owner_count):
    """``step``'s arguments for 7 moved rows in d = 4, ``u`` a view of a stream's block:
    the engine's (one best point, its problem's box rows) for ``owner_count`` 1, else a
    stack's (one best point and one box row per moved row, from ``owner_count`` swarms).
    ``ir`` reaches 10, so that some rows overshoot and are clamped."""
    k, d = 7, 4
    rng = RandomStream(5)
    problems = [make_problem("sphere", d), make_problem("rosenbrock", d)]
    positions = rng.draw(k * d).reshape(k, d) * 60 - 30
    u = rng.draw(k * d).reshape(k, d)
    ir = rng.draw(k) * 10
    if owner_count == 1:
        return positions, u, ir, positions[3].copy(), *problems[1].box_rows(k)
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


def test_box_rows_are_the_tiled_bounds_read_only_below_at_and_above_the_rows_kept():
    problem = make_problem("mccormick")  # a box of different bounds per coordinate
    kept = problem.box_rows(5)
    for k in (3, 5, 9, 1):
        lower, upper = problem.box_rows(k)
        assert lower.tolist() == np.tile(problem.lower_bounds, (k, 1)).tolist()
        assert upper.tolist() == np.tile(problem.upper_bounds, (k, 1)).tolist()
        for rows in (lower, upper):
            assert not rows.flags.writeable
            with pytest.raises(ValueError):
                rows[0, 0] = 0.0
        if k == 3:  # fewer rows than kept are views of the kept ones
            assert np.shares_memory(lower, kept[0]) and np.shares_memory(upper, kept[1])
    assert problem.lower_bounds.tolist() == [-1.5, -3.0]


def test_a_problem_with_box_rows_round_trips_through_pickle_and_replace():
    params = AlgorithmParams(num_particles=6, max_iterations=20)
    problem = make_problem("rosenbrock", 3)
    solo = engine.run(params, problem, 4)
    assert problem.box_rows(6)[0].shape == (6, 3)
    copy = pickle.loads(pickle.dumps(problem))
    assert _bits(copy.lower_bounds) == _bits(problem.lower_bounds)
    assert _bits(copy.upper_bounds) == _bits(problem.upper_bounds)
    assert copy.dimension == 3 and copy.known_minimum_value == problem.known_minimum_value
    assert engine.run(params, copy, 4) == solo
    assert copy.box_rows(6)[0].tolist() == problem.box_rows(6)[0].tolist()
    assert not copy.box_rows(6)[0].flags.writeable
    narrow = dataclasses.replace(problem, lower_bounds=[-1.0] * 3, upper_bounds=[1.0] * 3)
    assert narrow.box_rows(2)[1].tolist() == [[1.0] * 3] * 2  # its own bounds, not the old box
    fresh = ObjectiveProblem([-1.0] * 3, [1.0] * 3, problem.evaluator)
    assert engine.run(params, narrow, 4) == engine.run(params, fresh, 4)


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
