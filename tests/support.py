"""Shared test helpers: stub random streams, state builders, naive oracles."""

from __future__ import annotations

import math

import numpy as np

from codoa.engine import ObjectiveProblem, SwarmState


class PinnedStream:
    """Random-stream double that always yields the same value."""

    def __init__(self, value: float) -> None:
        self.value = float(value)

    def next(self) -> float:
        return self.value

    def draw(self, n: int) -> np.ndarray:
        return np.full(n, self.value)


class SequenceStream:
    """Random-stream double yielding a preset sequence of values."""

    def __init__(self, values) -> None:
        self._iter = iter([float(v) for v in values])

    def next(self) -> float:
        return next(self._iter)

    def draw(self, n: int) -> np.ndarray:
        return np.array([next(self._iter) for _ in range(n)])


def box_problem(lower, upper, evaluator=None) -> ObjectiveProblem:
    """Quick box-constrained problem; defaults to a sum-of-squares objective."""
    lower = np.asarray(lower, dtype=float)
    if evaluator is None:
        evaluator = lambda x: float(np.square(x).sum())
    return ObjectiveProblem(
        dimension=lower.size,
        lower_bounds=lower,
        upper_bounds=np.asarray(upper, dtype=float),
        evaluator=evaluator,
    )


def make_state(fitness, ir=None, ex=None, positions=None, rng=None,
               gbest_pos=None, gbest_fit=None, holder=None) -> SwarmState:
    """Assemble a SwarmState by hand for phase-level tests.

    Unless given explicitly, the archive is derived from the fittest
    particle, matching the state right after an initialize.
    """
    n = len(fitness)
    ir = [0.5] * n if ir is None else ir
    ex = [0] * n if ex is None else ex
    if positions is None:
        positions = [np.zeros(2) for _ in range(n)]
    state = SwarmState(
        pos=np.array(positions, dtype=float),
        fit=np.array(fitness, dtype=float),
        ir=np.array(ir, dtype=float),
        ex=np.array(ex, dtype=np.int64),
        rng=rng if rng is not None else PinnedStream(0.5),
    )
    if gbest_fit is None:
        best = min(range(n), key=lambda j: state.fit[j])
        state.global_best_fitness = float(state.fit[best])
        state.global_best_position = state.pos[best].copy()
        state.best_holder_index = best if holder is None else holder
    else:
        state.global_best_fitness = float(gbest_fit)
        state.global_best_position = np.asarray(gbest_pos, dtype=float)
        state.best_holder_index = 0 if holder is None else holder
    return state


def mask(n, *indices) -> np.ndarray:
    """Boolean particle mask of length ``n`` selecting ``indices``."""
    selected = np.zeros(n, dtype=bool)
    selected[list(indices)] = True
    return selected


def sphere_loop(xs) -> float:
    """Independent sum-of-squares oracle (plain loop, no numpy)."""
    return math.fsum(float(x) * float(x) for x in xs)


def rosenbrock_loop(xs) -> float:
    """Independent banana-valley oracle (plain loop, no numpy)."""
    total = 0.0
    for i in range(len(xs) - 1):
        total += 100.0 * (xs[i + 1] - xs[i] ** 2) ** 2 + (xs[i] - 1.0) ** 2
    return total


def naive_mean(xs) -> float:
    return sum(xs) / len(xs)


def naive_median(xs) -> float:
    s = sorted(xs)
    n = len(s)
    mid = n // 2
    return s[mid] if n % 2 else (s[mid - 1] + s[mid]) / 2


def naive_sample_stdev(xs) -> float:
    if len(xs) < 2:
        return 0.0
    m = naive_mean(xs)
    return math.sqrt(sum((x - m) ** 2 for x in xs) / (len(xs) - 1))


def assert_ir_and_bounds(state, params, problem) -> None:
    """Interactivity within [floor, max]; every coordinate inside the box."""
    assert np.all(state.ir >= params.ir_floor), f"ir under the floor: {state.ir.min()}"
    assert np.all(state.ir <= params.max_ir), f"ir over the maximum: {state.ir.max()}"
    assert np.all(state.pos >= problem.lower_bounds), "position under lower bound"
    assert np.all(state.pos <= problem.upper_bounds), "position over upper bound"


def assert_iteration_boundary(state, params, problem) -> None:
    """Full invariant set that must hold between iterations."""
    assert_ir_and_bounds(state, params, problem)
    for i, x in enumerate(state.pos):
        value = float(problem.evaluator(x))
        expected = value if math.isfinite(value) else math.inf
        assert state.fit[i] == expected, f"fit[{i}] is not the fitness of pos[{i}]"
    assert state.global_best_fitness <= state.fit.min(), "archive above swarm minimum"
    value = float(problem.evaluator(state.global_best_position))
    assert abs(state.global_best_fitness - value) <= 1e-12, "archive fitness mismatch"
