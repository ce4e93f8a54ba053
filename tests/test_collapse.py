"""The collapsed-swarm shortcut of ``run``: same results as iterating, bit for bit.

Once every particle sits on the archived best (see ``engine.collapsed``),
``engine.finish``, where every run ends, finishes the budget with
``engine.fast_forward``.  The reference here is the step-by-step loop:
``initialize``, then ``max_iterations`` calls of ``iterate``, packaged as a
``RunResult``.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from codoa import engine, lockstep
from codoa.benchmarks import REGISTRY, make_problem
from codoa.engine import (
    AlgorithmParams,
    RunResult,
    collapsed,
    fast_forward,
    initialize,
    iterate,
    run,
)
from codoa.lockstep import run_many
from codoa.rng import RandomStream

from support import box_problem, make_state

FUNCTIONS = sorted(REGISTRY)  # all seven, at d = 2


def stepwise(params, problem, seed) -> RunResult:
    """``run`` without the shortcut: every iteration goes through ``iterate``."""
    state = initialize(params, problem, seed)
    for _ in range(params.max_iterations):
        iterate(state, params)
    return engine.result(state)


def counted_run(monkeypatch, params, problem, seed):
    """``run``'s result and the number of ``iterate`` calls it made."""
    calls = [0]

    def counting(*args):
        calls[0] += 1
        iterate(*args)

    monkeypatch.setattr(engine, "iterate", counting)
    result = run(params, problem, seed)
    monkeypatch.undo()
    return result, calls[0]


@pytest.mark.parametrize("name", FUNCTIONS)
def test_run_equals_the_stepwise_loop(monkeypatch, name):
    params = AlgorithmParams(max_iterations=500)
    problem = make_problem(name)
    for seed in (1, 2, 3):
        result, calls = counted_run(monkeypatch, params, problem, seed)
        assert result == stepwise(params, problem, seed)
        assert type(result.eval_count) is int
        if name in ("booth", "mccormick", "beale", "goldstein_price"):
            assert calls < params.max_iterations  # these swarms collapse by ~260 iterations


@pytest.mark.parametrize("by_hand", [0, 3, 20])
def test_finish_iterates_from_the_swarms_history_to_the_budget(by_hand):
    params, problem = AlgorithmParams(max_iterations=20), make_problem("booth")
    state = initialize(params, problem, 1)
    for _ in range(by_hand):
        iterate(state, params)
    result = engine.finish(state, params)
    assert len(result.best_per_iteration) == params.max_iterations
    assert result == run(params, problem, 1)


# a box narrower than one ulp: every coordinate drawn in it is 0 or 5e-324, and at N = 2
# seeds 8, 10, 17, 25, 31 and 34 scatter both particles on one point
SUB_ULP = box_problem([0.0, 0.0], [5e-324, 5e-324], lambda x: float(x.sum()))


def test_a_swarm_collapsed_at_initialize_makes_no_iteration(monkeypatch):
    params = AlgorithmParams(num_particles=2, max_iterations=30)
    assert collapsed(initialize(params, SUB_ULP, 8))
    result, calls = counted_run(monkeypatch, params, SUB_ULP, 8)
    assert result == stepwise(params, SUB_ULP, 8)
    assert calls == 0


def test_swarms_collapsed_at_initialize_give_the_stepwise_results_in_lockstep():
    params = AlgorithmParams(num_particles=2, max_iterations=30)
    seeds = [8, 10, 17, 25, 0]  # and one, seed 0, that does not collapse there
    at_start = [collapsed(initialize(params, SUB_ULP, s)) for s in seeds]
    assert at_start == [True] * 4 + [False]
    assert run_many(params, [(SUB_ULP, s) for s in seeds]) == [
        stepwise(params, SUB_ULP, s) for s in seeds]


def test_swarms_collapsed_at_initialize_never_enter_a_stack(monkeypatch):
    built, iterated = [], []

    def init(self, *args):
        built.append(self)
        original_init(self, *args)

    def iterate_stack(self):
        iterated.append(self)
        original_iterate(self)

    original_init, original_iterate = lockstep._Stack.__init__, lockstep._Stack.iterate
    monkeypatch.setattr(lockstep._Stack, "__init__", init)
    monkeypatch.setattr(lockstep._Stack, "iterate", iterate_stack)
    params = AlgorithmParams(num_particles=2, max_iterations=30)
    seeds = [8, 10, 17, 25]  # four: enough to stack, were they running
    results = run_many(params, [(SUB_ULP, s) for s in seeds])
    assert (len(built), len(iterated)) == (0, 0)
    monkeypatch.undo()
    assert results == [run(params, SUB_ULP, s) for s in seeds]


@st.composite
def small_params(draw):
    max_ir = draw(st.floats(0.5, 10.0))
    initial_ir = draw(st.one_of(st.just(max_ir), st.floats(1e-6, max_ir)))
    return AlgorithmParams(
        num_particles=draw(st.integers(2, 12)),
        max_iterations=draw(st.integers(0, 300)),
        initial_ir=initial_ir,
        max_ir=max_ir,
        maturity_limit=draw(st.integers(0, 5)),
        rationality_rate=draw(st.integers(0, 3)),
    )


@given(small_params(), st.sampled_from(FUNCTIONS), st.integers(0, 2**32))
@settings(max_examples=150, deadline=None)
def test_run_equals_the_stepwise_loop_for_any_small_setting(params, name, seed):
    problem = make_problem(name)
    assert run(params, problem, seed) == stepwise(params, problem, seed)


@given(
    ex=st.lists(st.integers(-12, 12), min_size=2, max_size=8),
    holder=st.integers(0, 7),
    fitness=st.sampled_from([0.0, 0.1, 0.7]),  # 0.1 is below its own mean at N = 3 and 6
    iterations=st.integers(0, 30),
)
@settings(max_examples=200)
def test_fast_forward_equals_iterating_a_collapsed_swarm(ex, holder, fitness, iterations):
    n = len(ex)
    problem = box_problem([-10.0, -10.0], [10.0, 10.0], lambda x: fitness)

    def collapsed_state():
        return make_state(fitness=[fitness] * n, ex=ex, positions=[[1.0, 3.0]] * n,
                          rng=RandomStream(1), gbest_pos=[1.0, 3.0], gbest_fit=fitness,
                          holder=holder % n, problem=problem)

    stepped, forwarded = collapsed_state(), collapsed_state()
    for _ in range(iterations):
        iterate(stepped, AlgorithmParams())
        assert collapsed(stepped)
    fast_forward(forwarded, iterations)
    assert forwarded.ex.tolist() == stepped.ex.tolist()
    assert forwarded.eval_count == stepped.eval_count
    assert forwarded.history == stepped.history


class TestCollapsed:
    """Only a swarm whose every later move lands on the archived point, and gets
    its fitness again, counts as collapsed."""

    BEST = [1.0, 3.0]

    def state(self, best=None, positions=None, fitness=None, problem=None):
        """Three particles in a box from -10 to 10 unless ``problem`` is given."""
        best = self.BEST if best is None else best
        return make_state(
            fitness=[5.0, 5.0, 5.0] if fitness is None else fitness,
            positions=[best] * 3 if positions is None else positions,
            gbest_pos=best, gbest_fit=5.0, holder=1, problem=problem,
        )

    def test_every_particle_on_the_best_is_collapsed(self):
        assert collapsed(self.state())

    def test_a_coordinate_one_ulp_off(self):
        off = [1.0, np.nextafter(3.0, 4.0)]
        assert not collapsed(self.state(positions=[self.BEST, off, self.BEST]))

    def test_one_fitness_differs(self):
        assert not collapsed(self.state(fitness=[5.0, 5.0, 6.0]))

    def test_a_minus_zero_coordinate_on_the_best(self):
        # a move adds +0.0, which turns -0.0 into +0.0: a change of position
        assert not collapsed(self.state(best=[-0.0, 3.0]))

    def test_a_best_one_ulp_outside_the_box(self):
        upper = np.nextafter(3.0, 0.0)
        assert not collapsed(self.state(problem=box_problem([-10.0, -10.0], [10.0, upper])))

    def test_a_plus_zero_best_on_a_minus_zero_lower_bound(self):
        # the clamp is np.maximum, which returns the bound when the two compare equal
        state = self.state(best=[0.0, 3.0], problem=box_problem([-0.0, -10.0], [10.0, 10.0]))
        assert not collapsed(state)
