"""Core CoDOA engine: swarm state, calculation phases, and the run loop.

The Cognitive Development Optimization Algorithm keeps a swarm of particles,
each carrying a position, its fitness, an interactivity rate ``ir`` (the
step scale toward the best point found so far, kept within
``[IR_FLOOR, max_ir]``) and a signed experience counter ``ex``, which starts
at zero.  Each iteration applies a fixed sequence of phases that grow,
decay, and redistribute interactivity while particles drift toward the
archived global best.  Minimization only; to maximize f, minimize -f.

The swarm is held as arrays with a row per particle (see :class:`SwarmState`),
and each phase is a few masked array expressions.  Random factors are drawn
in particle order, one ``draw(k)`` per step that needs ``k`` of them (the
repeated rationalizing boosts are one step).

A boost (``ir + u * ir`` or ``ir + u * (b / ir)``) never lowers ``ir`` and a
decay (``u * ir`` with ``u < 1``) never raises it, so a boost is capped only
at ``max_ir`` and a decay floored only at ``IR_FLOOR``.

``problem.evaluator`` maps one point to its fitness, and must be pure, as
deterministic runs already require.  It may carry a ``batch`` attribute
mapping a (k, d) array to k fitnesses: the same values, bit for bit, as
calling the evaluator on each row, or else leave it off.  Particles are
evaluated where they move, all moved rows in one call (without ``batch``,
one by one in index order), so ``fit[i] == f(pos[i])`` always.

Swarms collapse: every particle comes to sit on the archived best, bit for
bit (see :func:`collapsed`; booth-2 runs at the reference settings do so at
iterations 155-209).  From then on every move lands on the archived point
and gets its fitness again, so ``run`` finishes the budget with the
bookkeeping of :func:`fast_forward` alone, and its ``RunResult`` is the one
that iterating gives, bit for bit.  ``iterate`` still runs every phase; only
``run``, which exposes neither, stops advancing ``ir`` and the random stream.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass, field, fields
from typing import Callable, Optional

import numpy as np

from codoa.rng import RandomStream


IR_FLOOR = 1e-6  # the least interactivity: positive, so that ratios of it stay finite


class ConfigurationError(ValueError):
    """Invalid algorithm parameters, problem description, or experiment setup."""


def checked(name: str, value, kind: str):
    """``value`` as an ``int`` setting (a real integer, returned as ``int``) or a
    ``float`` one (a finite real); bools are neither, other kinds pass unchecked."""
    if kind == "int":
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ConfigurationError(f"{name} must be an integer, got {value!r}")
        return int(value)
    # compared, not math.isfinite(): that raises OverflowError on a huge int
    if kind == "float" and (isinstance(value, bool) or not (
        isinstance(value, numbers.Real) and abs(value) <= sys.float_info.max
    )):
        raise ConfigurationError(f"{name} must be a finite number, got {value!r}")
    return value


def check_fields(obj) -> None:
    """Apply :func:`checked` to every field of a frozen dataclass, by its annotation."""
    for f in fields(obj):
        object.__setattr__(obj, f.name, checked(f.name, getattr(obj, f.name), f.type))


@dataclass(frozen=True)
class AlgorithmParams:
    """Tunable knobs of the optimizer; the defaults are the reference settings."""

    num_particles: int = 50
    max_iterations: int = 5000
    initial_ir: float = 0.5
    max_ir: float = 10.0
    maturity_limit: int = 3
    rationality_rate: int = 2

    def __post_init__(self) -> None:
        check_fields(self)
        if self.num_particles < 2:
            raise ConfigurationError(
                f"num_particles must be at least 2, got {self.num_particles}"
            )
        if self.max_iterations < 0:
            raise ConfigurationError(
                f"max_iterations must be non-negative, got {self.max_iterations}"
            )
        if not IR_FLOOR <= self.initial_ir <= self.max_ir:
            raise ConfigurationError(
                f"interactivity bounds must satisfy IR_FLOOR ({IR_FLOOR:g}) <= initial_ir <= "
                f"max_ir, got initial_ir={self.initial_ir}, max_ir={self.max_ir}"
            )
        if self.rationality_rate < 0:
            raise ConfigurationError(
                f"rationality_rate must be non-negative, got {self.rationality_rate}"
            )


@dataclass(frozen=True, eq=False)
class ObjectiveProblem:
    """Box-constrained minimization target; its ``dimension`` is ``len(lower_bounds)``."""

    lower_bounds: np.ndarray
    upper_bounds: np.ndarray
    evaluator: Callable[[np.ndarray], float]
    known_minimum_value: Optional[float] = None
    known_minimizer: Optional[np.ndarray] = None
    dimension: int = field(init=False)

    def __post_init__(self) -> None:
        lower = self._point("lower_bounds")
        upper = self._point("upper_bounds")
        if not np.all(lower < upper):
            raise ConfigurationError("lower_bounds must be strictly below upper_bounds")
        with np.errstate(over="ignore"):
            span = upper - lower
        if not np.all(np.isfinite(span)):
            raise ConfigurationError(
                "upper_bounds - lower_bounds must be finite, got lower_bounds="
                f"{lower.tolist()}, upper_bounds={upper.tolist()}"
            )
        if self.known_minimum_value is not None:
            checked("known_minimum_value", self.known_minimum_value, "float")
        if self.known_minimizer is not None:
            self._point("known_minimizer")

    def _point(self, name: str) -> np.ndarray:
        """Store field ``name`` as a finite float array, and return it: ``lower_bounds``, read
        first, of any non-empty 1-D shape, setting ``dimension``; the others of ``(dimension,)``."""
        try:
            point = np.asarray(getattr(self, name), dtype=float)
        except (TypeError, ValueError, OverflowError):
            raise ConfigurationError(
                f"{name} must be an array of numbers, got {getattr(self, name)!r}"
            ) from None
        if name == "lower_bounds":
            if point.ndim != 1 or not point.size:
                raise ConfigurationError(
                    f"lower_bounds must be a non-empty 1-D array, got shape {point.shape}"
                )
            object.__setattr__(self, "dimension", point.size)
        elif point.shape != (self.dimension,):
            raise ConfigurationError(
                f"{name} must have shape ({self.dimension},), got {point.shape}"
            )
        if not np.all(np.isfinite(point)):
            raise ConfigurationError(f"{name} must be finite, got {point.tolist()}")
        object.__setattr__(self, name, point)
        return point


@dataclass(eq=False)
class SwarmState:
    """One run: swarm arrays (row i is particle i), best-so-far archive, counters."""

    pos: np.ndarray
    fit: np.ndarray
    ir: np.ndarray
    ex: np.ndarray
    rng: RandomStream
    global_best_position: Optional[np.ndarray] = None
    global_best_fitness: float = math.inf
    best_holder_index: Optional[int] = None
    eval_count: int = 0
    history: list[float] = field(default_factory=list)


@dataclass(frozen=True)
class RunResult:
    """Outcome of one seeded run; plain tuples so results compare exactly.

    ``eval_count`` counts particle evaluations, including those that
    :func:`fast_forward` accounts for after the swarm :func:`collapsed`; the
    objective was called at most that many times.
    """

    best_fitness: float
    best_position: tuple[float, ...]
    best_per_iteration: tuple[float, ...]
    eval_count: int
    seed: int


def result(state: SwarmState) -> RunResult:
    """The ``RunResult`` of a finished run: its archive, history, evaluations and seed."""
    return RunResult(
        best_fitness=state.global_best_fitness,
        best_position=tuple(state.global_best_position.tolist()),
        best_per_iteration=tuple(state.history),
        eval_count=state.eval_count,
        seed=state.rng.seed,
    )


def reward_best(state: SwarmState, params: AlgorithmParams) -> None:
    """Boost the interactivity of the currently fittest particle and credit it.

    Ties break to the lowest index.  The global-best archive (and with it the
    best-holder index) moves only on strict improvement.
    """
    best_i = state.fit.argmin().item()
    best_f = state.fit.item(best_i)
    ir = state.ir.item(best_i)
    state.ir[best_i] = min(ir + state.rng.next() * ir, params.max_ir)
    state.ex[best_i] += 1
    if state.best_holder_index is None or best_f < state.global_best_fitness:
        state.global_best_position = state.pos[best_i].copy()
        state.global_best_fitness = best_f
        state.best_holder_index = best_i


def mean_fitness(fit: np.ndarray) -> float:
    """``fsum(fit) / len(fit)``, bit for bit; where finite fitnesses sum past the
    float range, the same mean taken over ``fit`` scaled down by a power of two."""
    try:
        return math.fsum(fit.tolist()) / len(fit)
    except OverflowError:  # fsum's "intermediate overflow"
        scale = 2.0 ** len(fit).bit_length()  # above len(fit), so the scaled sum is finite
        return math.fsum((fit / scale).tolist()) / len(fit) * scale


def socialization(state: SwarmState, params: AlgorithmParams) -> None:
    """Shift experience toward particles beating the swarm's mean fitness.

    Particles at or above the mean lose one experience point; particles below
    it gain one and receive an interactivity boost with a fresh random factor
    each.
    """
    below = state.fit < mean_fitness(state.fit)
    state.ex += np.where(below, 1, -1)
    ir = state.ir[below]
    state.ir[below] = np.minimum(ir + state.rng.draw(len(ir)) * ir, params.max_ir)


def decay_all_ir(state: SwarmState, params: AlgorithmParams) -> None:
    """Multiplicatively decay every particle's interactivity."""
    state.ir = np.maximum(state.rng.draw(len(state.ir)) * state.ir, IR_FLOOR)


def move_toward_best(
    state: SwarmState,
    problem: ObjectiveProblem,
    selected: np.ndarray,
) -> None:
    """Pull the particles in the boolean mask ``selected`` toward the archived best.

    They move by :func:`step` and are evaluated; those that land on the
    archived point get its fitness again.
    """
    rows = selected.nonzero()[0]
    k = len(rows)
    if not k:
        return
    positions = state.pos.take(rows, axis=0)  # pos[rows], at a fraction of the indexing cost
    u = state.rng.draw(k * problem.dimension).reshape(k, problem.dimension)
    moved = step(positions, u, state.ir.take(rows), state.global_best_position, problem)
    state.pos[rows] = moved
    evaluate_swarm(state, problem, rows, moved)


def step(positions: np.ndarray, u: np.ndarray, ir: np.ndarray, best: np.ndarray,
         problem: ObjectiveProblem) -> np.ndarray:
    """Move each of the (k, d) ``positions`` a fraction ``u`` of ``ir`` times its gap to
    ``best`` (one point, or one per row), overshooting where ``ir`` > 1; clamp to the box."""
    moved = positions + u * (ir[:, None] * (best - positions))
    np.maximum(moved, problem.lower_bounds, out=moved)  # np.clip without its Python wrapper
    np.minimum(moved, problem.upper_bounds, out=moved)
    return moved


def evaluate_swarm(
    state: SwarmState, problem: ObjectiveProblem, rows: np.ndarray, points: np.ndarray
) -> None:
    """Set the fitness of the particles at index array ``rows`` to that of ``points``.

    ``points`` holds their positions, one row each (see :func:`fitness_of`).
    """
    state.fit[rows] = fitness_of(problem, points)
    state.eval_count += len(rows)


def fitness_of(problem: ObjectiveProblem, points: np.ndarray) -> np.ndarray:
    """The fitnesses of ``points`` (a (k, d) array), with every non-finite value +inf.

    They are evaluated in one ``batch`` call if the evaluator has one, else
    one by one in row order.  Either way the values must be one real number
    per point (a bool is not one), or ConfigurationError names the evaluator.
    """
    batch = getattr(problem.evaluator, "batch", None)
    if batch is None:
        source, given = "evaluator", [problem.evaluator(x) for x in points]
    else:
        source, given = "evaluator.batch", batch(points)
    values = np.asarray(given)
    # numpy stores bools among numbers as numbers, so those are looked for in what was given
    if values.shape != (len(points),) or values.dtype.kind not in "fiu" or not (
        isinstance(given, np.ndarray) or {bool, np.bool_}.isdisjoint(map(type, given))
    ):
        raise ConfigurationError(
            f"{source} must give one real number per point (a bool is not one), shape "
            f"({len(points)},) in all; got shape {values.shape} of dtype {values.dtype}"
        )
    values = values.astype(float, copy=False)
    return np.where(np.isfinite(values), values, math.inf)


def maturation(state: SwarmState, params: AlgorithmParams) -> None:
    """Boost interactivity of low-experience particles, then reward the best."""
    low = state.ex <= params.maturity_limit
    ir = state.ir[low]
    state.ir[low] = np.minimum(ir + state.rng.draw(len(ir)) * ir, params.max_ir)
    reward_best(state, params)


def rationalizing(state: SwarmState, params: AlgorithmParams, problem: ObjectiveProblem) -> None:
    """Rescale interactivity against the best holder's, moving strugglers.

    The reference interactivity is read once up front: the repeated boosts
    for non-negative-experience particles must not chase their own updates.
    Negative-experience particles get one boost and a move toward the best;
    the rest get the boost ``rationality_rate`` times, pass ``r`` taking
    row ``r`` of one draw.
    """
    b = state.ir.item(state.best_holder_index)
    negative = state.ex < 0
    ir = state.ir[negative]
    state.ir[negative] = np.minimum(ir + state.rng.draw(len(ir)) * (b / ir), params.max_ir)
    move_toward_best(state, problem, negative)
    positive = ~negative
    ir = state.ir[positive]
    m = len(ir)
    for u in state.rng.draw(m * params.rationality_rate).reshape(params.rationality_rate, m):
        ir = np.minimum(ir + u * (b / ir), params.max_ir)
    state.ir[positive] = ir


def balancing(state: SwarmState, params: AlgorithmParams) -> None:
    """Decay all interactivity, then reward the fittest."""
    decay_all_ir(state, params)
    reward_best(state, params)


def initialize(params: AlgorithmParams, problem: ObjectiveProblem, seed: int) -> SwarmState:
    """Scatter particles uniformly in the box, evaluate them, reward the best.

    ``seed`` is a non-negative integer.
    """
    seed = checked("seed", seed, "int")
    if seed < 0:
        raise ConfigurationError(f"seed must be non-negative, got {seed}")
    rng = RandomStream(seed)
    n, d = params.num_particles, problem.dimension
    lower = problem.lower_bounds
    span = problem.upper_bounds - lower
    state = SwarmState(
        pos=lower + rng.draw(n * d).reshape(n, d) * span,
        fit=np.full(n, math.inf),
        ir=np.full(n, float(params.initial_ir)),
        ex=np.zeros(n, dtype=np.int64),
        rng=rng,
    )
    evaluate_swarm(state, problem, np.arange(n), state.pos)
    reward_best(state, params)
    return state


def iterate(state: SwarmState, params: AlgorithmParams, problem: ObjectiveProblem) -> None:
    """One full pass of the per-iteration phase sequence.

    Order: socialization, interactivity decay, move (and evaluate) all but the
    best holder, reward, maturation, rationalizing, balancing.
    """
    socialization(state, params)
    decay_all_ir(state, params)
    others = np.arange(len(state.fit)) != state.best_holder_index
    move_toward_best(state, problem, others)
    reward_best(state, params)
    maturation(state, params)
    rationalizing(state, params, problem)
    balancing(state, params)
    state.history.append(state.global_best_fitness)


def collapsed(state: SwarmState, problem: ObjectiveProblem) -> bool:
    """Whether every particle sits on the archived best for good, at an iteration's end.

    True when every fitness is the archived best's, every position is the
    archived point bit for bit, and a zero step from that point, clamped as
    :func:`step` clamps, lands on it bit for bit (so it has no
    ``-0.0`` coordinate and lies in the box): then every later move lands on
    the archived point and gets its fitness again, so it changes no position,
    fitness or archive.  No fitness is below the archive's at an iteration's
    end, so most swarms cost one reduction.
    """
    if state.fit.max() != state.global_best_fitness:
        return False
    best = state.global_best_position
    bits = best.view(np.int64)
    landing = np.minimum(np.maximum(best + 0.0, problem.lower_bounds), problem.upper_bounds)
    return bool(
        (landing.view(np.int64) == bits).all() and (state.pos.view(np.int64) == bits).all()
    )


def fast_forward(state: SwarmState, iterations: int) -> None:
    """Account for ``iterations`` iterations of a :func:`collapsed` swarm.

    Leaves ``ex``, ``eval_count`` and ``history`` as ``iterate`` would; ``ir``
    and the random stream stay put.  In each iteration socialization adds the
    same +1 or -1 to every ``ex`` (the fitnesses are equal), ``reward_best``
    credits index 0 (the argmin of equal values) twice before rationalizing
    and once after, and every move lands on the archived point and gets its
    fitness again: one evaluation each for the N - 1 particles ``iterate``
    moves and the ``count(ex < 0)`` that rationalizing moves.
    """
    rate = np.where(state.fit < mean_fitness(state.fit), 1, -1)
    rate[0] += 3
    # rationalizing in the t-th iteration (t = 1 .. iterations) sees start + rate * t,
    # which is negative for t <= (-start - 1) // rate if rate > 0, and for t > start if rate == -1
    start = state.ex.copy()
    start[0] -= 1  # balancing's credit is still to come
    negative = np.where(rate > 0, (-start - 1) // rate, iterations - start).clip(0, iterations)
    state.eval_count += (len(rate) - 1) * iterations + int(negative.sum())
    state.ex += rate * iterations
    state.history.extend([state.global_best_fitness] * iterations)


def run(params: AlgorithmParams, problem: ObjectiveProblem, seed: int) -> RunResult:
    """Full optimization: initialize, iterate to the budget, package the archive.

    Once the swarm has :func:`collapsed` onto its best, the rest of the budget
    is finished by :func:`fast_forward`, which gives the ``RunResult`` that
    iterating would, bit for bit, without advancing ``ir`` or the random stream.
    """
    state = initialize(params, problem, seed)
    finish(state, params, problem)
    return result(state)


def finish(state: SwarmState, params: AlgorithmParams, problem: ObjectiveProblem,
           done: int = 0) -> None:
    """Iterate ``state``, ``done`` iterations into its run, on to the budget, and
    finish by :func:`fast_forward` once it has :func:`collapsed`."""
    for done in range(done + 1, params.max_iterations + 1):
        iterate(state, params, problem)
        if collapsed(state, problem):
            fast_forward(state, params.max_iterations - done)
            break
