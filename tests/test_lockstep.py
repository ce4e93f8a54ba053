"""Lockstep runs: ``run_many`` gives each run's ``run``, bit for bit."""

import dataclasses
import gc
import math
import re
import sys
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from codoa import engine, lockstep
from codoa.benchmarks import REGISTRY, make_problem
from codoa.engine import IR_FLOOR, MAX_IR, AlgorithmParams, ConfigurationError, run
from codoa.harness import MAX_WORKERS, table2_grid
from codoa.lockstep import MIN_STACK, plan, run_many

from support import box_problem


def same_runs(params, runs):
    """``run_many``'s results equal the solo runs', down to each float's bits and sign."""
    many = run_many(params, runs)
    solo = [run(params, problem, seed) for problem, seed in runs]
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

UNRULY = box_problem([-1.0, -1.0], [1.0, 1.0], unruly)
UNRULY_ROWS = box_problem([-1.0, -1.0], [1.0, 1.0], lambda x: unruly(x))  # rows one by one
PROBLEMS = [make_problem(name, min(REGISTRY[name].dimensions[1], 4)) for name in sorted(REGISTRY)]
PROBLEMS += [UNRULY, UNRULY_ROWS]

BOOTH = make_problem("booth")
TABLE2_D2 = {name: make_problem(name, 2) for name in (
    "booth", "beale", "goldstein_price", "mccormick", "three_hump_camel", "sphere", "rosenbrock")}
SPHERE3 = make_problem("sphere", 3)
# table2's seven problems of dimension 2, booth twice over (two problems built from one
# name), an evaluator without ``batch`` and one that gives NaN and inf
MIXED = [BOOTH, *TABLE2_D2.values(), UNRULY, UNRULY_ROWS]


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
    same_runs(params, [(problem, seed) for seed in seeds])


# at 12 particles booth seeds 0, 1 and 2 collapse at iterations 218, 228 and 251, and
# the stack of six goes on with three
@example(num_particles=12, max_iterations=300, runs=[
    (BOOTH, 0), (TABLE2_D2["beale"], 1), (BOOTH, 1), (TABLE2_D2["booth"], 2),
    (TABLE2_D2["goldstein_price"], 1), (UNRULY_ROWS, 2),
])
@given(
    num_particles=st.integers(2, 8),
    max_iterations=st.integers(0, 120),
    runs=st.lists(st.tuples(st.sampled_from(MIXED), st.integers(0, 2**32)), max_size=9),
)
@settings(max_examples=60, deadline=None)
def test_run_many_of_mixed_problems_equals_a_run_each(num_particles, max_iterations, runs):
    params = AlgorithmParams(num_particles=num_particles, max_iterations=max_iterations)
    same_runs(params, runs)


def finite_everywhere(x):
    """Finite at every point of every box; least where each coordinate is +-sqrt(3)."""
    return float(np.cos(3.0 * np.arctan(x)).sum())


def extreme_box(kind, dimension, max_ir, reach):
    """``(lower, upper)``: ``[-h, h]`` with ``h`` at ``reach`` times the most that
    ``max_ir`` allows (``max_ir * 2h + h`` at the float maximum), a box of adjacent floats
    at 0 (a subnormal span, below one ulp of any normal number) or at 1, or the unit box."""
    if kind == "widest":
        h = reach * (sys.float_info.max / (2 * max_ir + 1))
        return [-h] * dimension, [h] * dimension
    if kind == "unit":
        return [-1.0] * dimension, [1.0] * dimension
    low = 0.0 if kind == "sub_ulp" else 1.0
    return [low] * dimension, [math.nextafter(low, math.inf)] * dimension


# the two configs found to overflow before max_ir was bounded: a boost of initial_ir = max_ir
# = 1e308, and a step in a box of +-8e307 at max_ir = 10, now rejected; and one at MAX_IR
@example(max_ir=1e308, at_max=True, kind="unit", reach=1.0, num_particles=5,
         maturity_limit=3, rationality_rate=2, max_iterations=5, seeds=[3, 4, 5])
@example(max_ir=10.0, at_max=False, kind="widest", reach=8e307 / (sys.float_info.max / 21),
         num_particles=50, maturity_limit=3, rationality_rate=2, max_iterations=5, seeds=[1])
@example(max_ir=MAX_IR, at_max=True, kind="unit", reach=1.0, num_particles=5,
         maturity_limit=3, rationality_rate=2, max_iterations=40, seeds=[3, 4, 5])
@given(
    max_ir=st.sampled_from([10.0, MAX_IR]) | st.floats(MAX_IR / 4, 4 * MAX_IR),
    at_max=st.booleans(),  # initial_ir = max_ir, else 0.5
    kind=st.sampled_from(["widest", "sub_ulp", "one_ulp", "unit"]),
    reach=st.just(1.0) | st.floats(0.25, 4.0),
    num_particles=st.just(2) | st.integers(2, 6),
    maturity_limit=st.sampled_from([3, 2**63, 10**30]),
    rationality_rate=st.integers(0, 3),
    max_iterations=st.integers(0, 40),
    seeds=st.lists(st.integers(0, 2**32), min_size=1, max_size=4),
)
@settings(max_examples=150, deadline=None)
def test_extreme_valid_settings_run_clean_and_the_rest_are_rejected(
        max_ir, at_max, kind, reach, num_particles, maturity_limit, rationality_rate,
        max_iterations, seeds):
    lower, upper = extreme_box(kind, 2, max_ir, reach)
    span, bound = upper[0] - lower[0], max(abs(lower[0]), abs(upper[0]))
    valid = max_ir <= MAX_IR and max_ir * span + bound <= sys.float_info.max
    rejected = None
    # every warning an error, and numpy's overflow, division and invalid value raise;
    # underflow stays ignored, numpy's default: drawing in a box of subnormal span underflows
    with warnings.catch_warnings(), np.errstate(all="raise", under="ignore"):
        warnings.simplefilter("error")
        try:
            params = AlgorithmParams(
                num_particles=num_particles, max_iterations=max_iterations,
                initial_ir=max_ir if at_max else 0.5, max_ir=max_ir,
                maturity_limit=maturity_limit, rationality_rate=rationality_rate)
            problem = box_problem(lower, upper, finite_everywhere)
            runs = [(problem, seed) for seed in seeds]
            many = run_many(params, runs)
            solo = [run(params, problem, seed) for problem, seed in runs]
        except ConfigurationError as exc:
            rejected = str(exc)
    if not valid:
        assert rejected is not None and rejected.startswith("max_ir")
        return
    assert rejected is None
    assert many == solo
    assert all(not math.isnan(r.best_fitness) and r.best_fitness > -math.inf for r in many)


def test_seeds_that_collapse_at_different_iterations_leave_the_stack_one_by_one(monkeypatch):
    forwarded = []

    def fast_forward(state, iterations):
        forwarded.append((state.rng.seed, iterations))
        original(state, iterations)

    original = engine.fast_forward
    monkeypatch.setattr(engine, "fast_forward", fast_forward)
    params = AlgorithmParams(max_iterations=400)
    # the four booth swarms share a stack with a beale and a sphere swarm
    runs = [(BOOTH, 1), (TABLE2_D2["beale"], 5), (BOOTH, 2), (TABLE2_D2["sphere"], 6), (BOOTH, 3),
            (BOOTH, 4)]
    run_many(params, runs)
    booth = dict(item for item in forwarded if item[0] <= 4)
    assert len(booth) == 4 and len(set(booth.values())) == 4  # four collapse iterations
    monkeypatch.undo()
    same_runs(params, runs)


def corner(x):
    """Least at the box's lower corner, where swarms collapse within a few iterations."""
    return float(x[0] + x[1])


corner.batch = lambda points: points[:, 0] + points[:, 1]


def test_each_swarm_collapses_against_its_own_problems_box(monkeypatch):
    forwarded = []

    def fast_forward(state, iterations):
        forwarded.append(state.rng.seed)
        original(state, iterations)

    original = engine.fast_forward
    monkeypatch.setattr(engine, "fast_forward", fast_forward)
    params = AlgorithmParams(num_particles=6, max_iterations=60)
    # (-1, -1), where the corner swarms collapse, lies outside the first problem's box
    inner = box_problem([0.0, 0.0], [2.0, 2.0], lambda x: float(np.square(x - 1.0).sum()))
    outer = box_problem([-1.0, -1.0], [1.0, 1.0], corner)
    runs = [(inner, 10), (inner, 11), (outer, 0), (outer, 1), (outer, 4)]
    run_many(params, runs)
    assert {0, 1, 4} <= set(forwarded)
    monkeypatch.undo()
    same_runs(params, runs)


def test_repeated_seeds_and_order_are_kept():
    sphere = TABLE2_D2["sphere"]
    same_runs(AlgorithmParams(num_particles=6, max_iterations=40),
              [(sphere, 5), (BOOTH, 2), (sphere, 2), (BOOTH, 5), (sphere, 5), (sphere, 0)])


def test_a_stack_holds_the_only_copy_of_its_swarms():
    params = AlgorithmParams(num_particles=5, max_iterations=10)
    runs = [(BOOTH, 1), (TABLE2_D2["beale"], 2), (BOOTH, 3)]
    swarms = [(problem, engine.initialize(params, problem, seed)) for problem, seed in runs]
    stack = lockstep._Stack(params, swarms)
    for when in ("built", "iterated"):
        for r, (_, state) in enumerate(swarms):
            rows = slice(r * 5, r * 5 + 5)
            for name in ("pos", "fit", "ir", "ex"):
                assert np.shares_memory(getattr(state, name), getattr(stack, name)[rows]), (
                    f"{name} of swarm {r}, {when}")
            assert np.shares_memory(state.global_best_position, stack.best_pos[r]), (
                f"global_best_position of swarm {r}, {when}")
        stack.iterate()


def test_a_stack_is_freed_once_the_next_is_built(monkeypatch):
    arrays = []  # weak references to each stack's arrays, in the order the stacks were built
    alive = []  # for each stack built, how many earlier stacks still had an array alive

    def init(self, *args):
        original_init(self, *args)
        gc.collect()
        alive.append(sum(any(ref() is not None for ref in refs) for refs in arrays))
        arrays.append([weakref.ref(getattr(self, name))
                       for name in ("pos", "fit", "ir", "ex", "best_pos")])

    original_init = lockstep._Stack.__init__
    monkeypatch.setattr(lockstep._Stack, "__init__", init)
    params = AlgorithmParams(num_particles=12, max_iterations=300)
    runs = [(BOOTH, seed) for seed in range(12)]
    results = run_many(params, runs)
    # the swarms collapse at several iterations, each leaving the stack it was on behind
    assert len(alive) >= 5 and alive == [0] * len(alive)
    monkeypatch.undo()
    assert results == [run(params, problem, seed) for problem, seed in runs]


@pytest.mark.parametrize("runs", [
    [(BOOTH, 1), (SPHERE3, 2)],
    [(BOOTH, 1), (SPHERE3, 2), (BOOTH, 3)],
], ids=["2 runs", "3 runs"])
def test_runs_of_two_dimensions_are_rejected_before_any_swarm_is_initialized(runs,
                                                                               monkeypatch):
    monkeypatch.setattr(engine, "initialize", lambda *args: pytest.fail("a swarm began"))
    with pytest.raises(ConfigurationError, match=re.escape("got dimensions [2, 3]")):
        run_many(AlgorithmParams(num_particles=4, max_iterations=5), runs)


def test_no_runs_make_no_results():
    assert run_many(AlgorithmParams(), []) == []
    assert plan([], 1) == plan([], MAX_WORKERS) == []


@pytest.mark.parametrize("workers", [0, -1, 2.5, True, "2"])
def test_plan_rejects_a_bad_worker_count_naming_it(workers):
    with pytest.raises(ConfigurationError, match="^workers must be"):
        plan([(BOOTH, 1), (BOOTH, 2)], workers)


@pytest.mark.parametrize("max_iterations", [0, 1, 2])
def test_a_budget_that_builds_no_stack_or_stops_one_is_kept(max_iterations, monkeypatch):
    stacks = []

    def init(self, *args):
        stacks.append(self)
        original_init(self, *args)

    original_init = lockstep._Stack.__init__
    monkeypatch.setattr(lockstep._Stack, "__init__", init)
    params = AlgorithmParams(max_iterations=max_iterations)
    runs = [(BOOTH, seed) for seed in range(4)]
    same_runs(params, runs)
    assert len(stacks) == min(max_iterations, 1)  # 0 builds none; the budget stops the one


@pytest.mark.parametrize("seed", [-1, 1.5, True])
def test_a_bad_seed_is_rejected(seed):
    with pytest.raises(ConfigurationError, match="seed"):
        run_many(AlgorithmParams(max_iterations=5), [(BOOTH, 1), (BOOTH, seed)])


def test_a_bad_evaluator_result_is_rejected_naming_it():
    problem = box_problem([-1.0, -1.0], [1.0, 1.0], lambda x: "7")
    with pytest.raises(ConfigurationError, match=r"evaluator must give one real number"):
        run_many(AlgorithmParams(num_particles=4, max_iterations=5),
                 [(problem, 1), (problem, 2), (problem, 3)])


class CountedBatch:
    """An evaluator whose ``batch`` counts its calls and the rows they pass."""

    def __init__(self, evaluator):
        self.evaluator, self.calls, self.rows = evaluator, 0, 0

    def __call__(self, x):
        return self.evaluator(x)

    def batch(self, points):
        self.calls += 1
        self.rows += len(points)
        return self.evaluator.batch(points)


def test_a_move_makes_one_objective_call_per_problem_it_moves(monkeypatch):
    problems = [dataclasses.replace(make_problem(name, 2), evaluator=CountedBatch(
        make_problem(name, 2).evaluator)) for name in ("sphere", "beale", "rosenbrock")]
    calls = lambda: [p.evaluator.calls for p in problems]  # noqa: E731
    moves = []

    def move(stack, mask):
        before = calls()
        original(stack, mask)
        moved = {stack.swarms[r][0] for r in stack.swarm_of[mask].tolist()}
        moves.append(([after - b for after, b in zip(calls(), before)],
                      [int(p in moved) for p in problems]))

    original = lockstep._Stack.move
    monkeypatch.setattr(lockstep._Stack, "move", move)
    monkeypatch.setattr(engine, "fast_forward", lambda *args: pytest.fail("a swarm collapsed"))
    params = AlgorithmParams(num_particles=5, max_iterations=30)
    runs = [(problem, seed) for problem in problems for seed in (1, 2)]
    results = run_many(params, runs)
    assert len(moves) >= 2 * params.max_iterations  # every move of the budget is stacked
    for made, moved in moves:
        assert made == moved  # one call for each problem with rows in the move, none else
    # initialize's calls and the moves' calls pass every evaluation, and nothing else
    assert sum(p.evaluator.rows for p in problems) == sum(r.eval_count for r in results)
    monkeypatch.undo()
    same_runs(params, runs)


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
    runs = [(box_problem([-1.0, -1.0], [1.0, 1.0], flat), seed) for seed in (1, 2, 3)]
    run_many(params, runs)
    # every fitness equals each swarm's best from the first iteration on, yet none collapses
    assert (len(stacks), forwarded) == (1, [])
    monkeypatch.undo()
    same_runs(params, runs)


def test_swarms_fewer_than_min_stack_finish_on_runs_own_loop(monkeypatch):
    finished = []

    def finish(state, params, problem):
        finished.append((problem, state.rng.seed, len(state.history),
                         engine.collapsed(state, problem)))
        return original(state, params, problem)

    original = engine.finish
    monkeypatch.setattr(engine, "finish", finish)
    params = AlgorithmParams(max_iterations=300)
    runs = [(BOOTH, 1), (BOOTH, 2), (BOOTH, 3), (TABLE2_D2["sphere"], 7)]
    run_many(params, runs)
    run_many(params, [(SPHERE3, 7)])
    assert MIN_STACK == 3
    # every swarm ends in finish, in run order: of the four, the first booth swarm to
    # collapse leaves three, the second two, which finish from there without having
    # collapsed; a swarm alone finishes from the start
    *stacked, alone = finished
    assert [call[:2] for call in stacked] == runs
    pair = [call[:3] for call in stacked if not call[3]]
    assert alone == (SPHERE3, 7, 0, False)
    assert len(pair) == 2 and pair[0][2] == pair[1][2] and 0 < pair[0][2] < 300
    assert {(problem, seed) for problem, seed, _ in pair} < set(runs)
    monkeypatch.undo()
    same_runs(params, runs)
    same_runs(params, [(SPHERE3, 7)])


def test_swarms_too_few_to_stack_keep_no_view_of_the_last_stack(monkeypatch):
    arrays = []  # weak references to the arrays of the last stack built
    finished = []  # for each swarm finished, its seed, whether it had collapsed and any was alive

    def init(self, *args):
        original_init(self, *args)
        arrays[:] = [weakref.ref(getattr(self, name))
                     for name in ("pos", "fit", "ir", "ex", "best_pos")]

    def finish(state, params, problem):
        gc.collect()
        finished.append((state.rng.seed, engine.collapsed(state, problem),
                         any(ref() is not None for ref in arrays)))
        return original_finish(state, params, problem)

    original_init, original_finish = lockstep._Stack.__init__, engine.finish
    monkeypatch.setattr(lockstep._Stack, "__init__", init)
    monkeypatch.setattr(engine, "finish", finish)
    params = AlgorithmParams(num_particles=12, max_iterations=300)
    runs = [(BOOTH, seed) for seed in range(12)]
    results = run_many(params, runs)
    # the swarms collapse one by one until two are left, which finish off the stack; a
    # stopped stack hands every swarm back whole, so none reaches finish with a view of it
    assert [seed for seed, _, _ in finished] == list(range(12))  # in run order
    assert sorted(call[1:] for call in finished) == [(False, False)] * 2 + [(True, False)] * 10
    monkeypatch.undo()
    assert results == [run(params, problem, seed) for problem, seed in runs]


# a box narrower than one ulp: every coordinate drawn in it is 0 or 5e-324, and at N = 2
# seeds 8, 10, 17 and 25 scatter both particles on one point
SUB_ULP = box_problem([0.0, 0.0], [5e-324, 5e-324], lambda x: float(x.sum()))


@pytest.mark.parametrize("num_particles, max_iterations, runs, at_initialize", [
    # the swarms collapse one by one, mid-stack, until two are left, too few to stack
    (12, 300, [(BOOTH, seed) for seed in range(12)], []),
    # four swarms have collapsed at initialize and never enter a stack; the second stack
    # leaves the last swarm alone
    (2, 30, [(SUB_ULP, seed) for seed in range(28)], [8, 10, 17, 25]),
], ids=["booth", "sub-ulp"])
def test_every_run_ends_in_one_finish_in_run_order_with_no_stack_left(
        num_particles, max_iterations, runs, at_initialize, monkeypatch):
    arrays = []  # weak references to the arrays of every stack built
    finished = []  # (problem, seed, iterations, collapsed) of each swarm finished
    reachable = []  # for each swarm finished, how many of those arrays were alive

    def init(self, *args):
        original_init(self, *args)
        arrays.extend(weakref.ref(getattr(self, name))
                      for name in ("pos", "fit", "ir", "ex", "best_pos"))

    def finish(state, params, problem):
        gc.collect()
        reachable.append(sum(ref() is not None for ref in arrays))
        finished.append((problem, state.rng.seed, len(state.history),
                         engine.collapsed(state, problem)))
        return original_finish(state, params, problem)

    original_init, original_finish = lockstep._Stack.__init__, engine.finish
    monkeypatch.setattr(lockstep._Stack, "__init__", init)
    monkeypatch.setattr(engine, "finish", finish)
    params = AlgorithmParams(num_particles=num_particles, max_iterations=max_iterations)
    results = run_many(params, runs)
    assert [call[:2] for call in finished] == runs  # one call per run, in run order
    assert len(arrays) >= 2 * 5 and reachable == [0] * len(runs)  # two stacks or more, freed
    assert [seed for _, seed, done, _ in finished if done == 0] == at_initialize
    mid_stack = [seed for _, seed, done, gone in finished if gone and 0 < done < max_iterations]
    left = [seed for _, seed, done, gone in finished if not gone and done < max_iterations]
    assert len(mid_stack) >= 10 and 0 < len(left) < MIN_STACK
    monkeypatch.undo()
    assert results == [run(params, problem, seed) for problem, seed in runs]


GRID15 = table2_grid().entries


def planned(entries, runs, workers):
    """An experiment's ``(problem, seed)`` pairs, in (entry, seed) order, and their plan."""
    pairs = [(make_problem(name, dim), seed) for name, dim in entries for seed in range(runs)]
    return pairs, plan(pairs, workers)


@pytest.mark.parametrize("entries, runs, workers, shape", [
    # grid15: one task per dimension, largest runs x dimension first; d = 2 holds 14 runs
    (GRID15, 2, 2, [(30, 4), (20, 4), (10, 4), (2, 14), (5, 4)]),
    (GRID15, 1, 2, [(30, 2), (20, 2), (10, 2), (2, 7), (5, 2)]),
    (GRID15, 5, 2, [(30, 10), (20, 10), (10, 10), (2, 35), (5, 10)]),
    # booth-2 and sphere-3: each entry's 3 runs over ceil(min(W, 6) / 2) tasks
    ((("booth", 2), ("sphere", 3)), 3, 7, [(3, 1)] * 3 + [(2, 1)] * 3),
    ((("booth", 2), ("sphere", 3)), 3, MAX_WORKERS, [(3, 1)] * 3 + [(2, 1)] * 3),
])
def test_plan_makes_tasks_of_one_dimension_largest_first(entries, runs, workers, shape):
    pairs, tasks = planned(entries, runs, workers)
    assert [(pairs[ix[0]][0].dimension, len(ix)) for ix in tasks] == shape


@pytest.mark.parametrize("entries, runs, workers, tasks", [
    # one entry at 2 workers: runs[0::2] and runs[1::2], as booth2 and rosenbrock30 send
    ((("booth", 2),), 6, 2, [[0, 2, 4], [1, 3, 5]]),
    # two dimensions at 2 workers: one task each, sphere-3's 15 rows per swarm first
    ((("booth", 2), ("sphere", 3)), 5, 2, [[5, 6, 7, 8, 9], [0, 1, 2, 3, 4]]),
    # two dimensions at 3 workers: each dimension's runs dealt alternately over 2 tasks
    ((("booth", 2), ("sphere", 3), ("beale", 2)), 2, 3, [[0, 4], [1, 5], [2], [3]]),
    # one seed of three entries of one dimension at 2 workers: runs dealt alternately
    ((("booth", 2), ("sphere", 2), ("beale", 2)), 1, 2, [[0, 2], [1]]),
    # one worker: one task per dimension, all its runs in order; 4 x 2 rows before 2 x 3
    ((("booth", 2), ("sphere", 3), ("beale", 2)), 2, 1, [[0, 1, 4, 5], [2, 3]]),
])
def test_plan_deals_each_dimensions_runs_alternately(entries, runs, workers, tasks):
    assert planned(entries, runs, workers)[1] == tasks


@given(entries=st.lists(st.sampled_from(GRID15), min_size=1, max_size=15, unique=True),
       runs=st.integers(1, 4), workers=st.integers(1, MAX_WORKERS))
@settings(max_examples=200, deadline=None)
def test_plan_partitions_the_runs_into_tasks_of_one_dimension(entries, runs, workers):
    pairs, tasks = planned(entries, runs, workers)
    assert sorted(i for ix in tasks for i in ix) == list(range(len(pairs)))
    dims = [{pairs[i][0].dimension for i in ix} for ix in tasks]
    assert all(len(dim) == 1 for dim in dims)
    costs = [len(ix) * pairs[ix[0]][0].dimension for ix in tasks]
    assert costs == sorted(costs, reverse=True)
    share = -(-min(workers, len(pairs)) // len({dim for _, dim in entries}))
    for (dim,) in map(tuple, dims):
        assert dims.count({dim}) == min(share, runs * sum(d == dim for _, d in entries))
