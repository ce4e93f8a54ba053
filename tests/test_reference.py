"""``run`` and ``run_many`` against the executable spec of a run in ``reference_engine``."""

import math

import numpy as np
from hypothesis import example, given, settings, strategies as st

from codoa import AlgorithmParams, run
from codoa.benchmarks import REGISTRY, make_problem
from codoa.engine import IR_FLOOR
from codoa.lockstep import run_many

from reference_engine import reference_run
from support import box_problem


def unruly(x):
    """NaN on one part of the box, -inf on another and +inf on a third; evaluated row by
    row, as it has no ``batch``."""
    if x[0] > 0.5:
        return math.nan
    if x[1] < -0.5:
        return -math.inf
    if x[1] > 0.8:
        return math.inf
    return float(x[0] * x[0] + x[1] * x[1])


def constant(x):
    """Every point ties, so every comparison of fitnesses is a tie."""
    return 1.0


constant.batch = lambda points: np.ones(len(points))

PROBLEMS = {f"{name}-{d}": make_problem(name, d) for name in sorted(REGISTRY)
            for d in range(REGISTRY[name].dimensions[0], min(REGISTRY[name].dimensions[1], 4) + 1)}
PROBLEMS["unruly-2"] = box_problem([-1.0, -1.0], [1.0, 1.0], unruly)
PROBLEMS["constant-2"] = box_problem([-1.0, -1.0], [1.0, 1.0], constant)
# boxes narrower than one ulp: from 0.0, where swarms collapse within a few iterations or
# at initialize, and from -0.0, where a step that lands on 0.0 is clamped to -0.0, as numpy's
# maximum gives its second operand on a tie
PROBLEMS["sub-ulp-2"] = box_problem([0.0, 0.0], [5e-324, 5e-324], lambda x: float(x.sum()))
PROBLEMS["signed-zero-2"] = box_problem([-0.0, -0.0], [5e-324, 5e-324], lambda x: float(x.sum()))
TWO_D = sorted(name for name, problem in PROBLEMS.items() if problem.dimension == 2)


@st.composite
def algorithm_params(draw):
    """Small swarms and budgets; ``initial_ir`` may equal ``max_ir``, and ``max_ir`` may
    be a few times IR_FLOOR, so that ``ir`` sits at both clamps."""
    max_ir = draw(st.sampled_from([10.0, 1.0, 3 * IR_FLOOR]) | st.floats(IR_FLOOR, 20.0))
    initial_ir = draw(st.sampled_from([0.5, max_ir, IR_FLOOR]) | st.floats(IR_FLOOR, max_ir))
    return AlgorithmParams(num_particles=draw(st.integers(2, 8)),
                           max_iterations=draw(st.integers(0, 60)),
                           initial_ir=min(initial_ir, max_ir), max_ir=max_ir,
                           rationality_rate=draw(st.integers(0, 3)),
                           maturity_limit=draw(st.integers(-1, 4)))


def difference(want, got) -> str:
    """Where ``got`` first departs from ``want``: the first iteration whose best differs,
    else the first other field (by repr, which tells -0.0 from 0.0)."""
    for t, (a, b) in enumerate(zip(want.best_per_iteration, got.best_per_iteration), 1):
        if repr(a) != repr(b):
            return f"the best after iteration {t}: {b!r}, the reference's {a!r}"
    for field in ("best_per_iteration", "best_fitness", "best_position", "eval_count", "seed"):
        a, b = getattr(want, field), getattr(got, field)
        if repr(a) != repr(b):
            return f"{field}: {b!r}, the reference's {a!r}"
    return ""


# three seeds of one problem, or three runs over the 2-D problems, on one run_many call;
# the example's seeds 7 and 8 clamp a step to -0.0
@example(params=AlgorithmParams(num_particles=3, max_iterations=20), names=["signed-zero-2"] * 3,
         seeds=[7, 8, 29])
@given(params=algorithm_params(),
       names=st.sampled_from(sorted(PROBLEMS)).map(lambda name: [name] * 3)
       | st.lists(st.sampled_from(TWO_D), min_size=3, max_size=3),
       seeds=st.lists(st.integers(0, 2**32), min_size=3, max_size=3))
@settings(max_examples=300, deadline=None)
def test_run_and_run_many_equal_the_reference(params, names, seeds):
    runs = [(PROBLEMS[name], seed) for name, seed in zip(names, seeds)]
    expected = [reference_run(params, problem, seed) for problem, seed in runs]
    solo = [run(params, problem, seed) for problem, seed in runs]
    for path, results in (("run", solo), ("run_many", run_many(params, runs))):
        for name, seed, want, got in zip(names, seeds, expected, results):
            where = difference(want, got)
            assert not where, f"{path} on {name}, seed {seed}, departs at {where}"
