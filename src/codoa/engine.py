"""Core CoDOA engine: swarm state, calculation phases, and the run loop.

The Cognitive Development Optimization Algorithm keeps a swarm of particles,
each carrying a position, its fitness, an interactivity rate ``ir`` (the
step scale toward the best point found so far, kept within
``[IR_FLOOR, max_ir]``) and a signed experience counter ``ex``, which starts
at zero.  Each iteration applies a fixed sequence of phases that grow,
decay, and redistribute interactivity while particles drift toward the
archived global best.  Minimization only; to maximize f, minimize -f.

The swarm is held as arrays with a row per particle (see :class:`SwarmState`), and
each phase is a few masked array expressions on operands of one shape or 0-d, as a
ufunc call on ~50 elements took 0.44-0.47 us so, 0.61-0.68 us with a Python number
(see :func:`step`).  Random factors are drawn in particle order, one ``draw(k)`` per
step that needs ``k`` of them (the repeated rationalizing boosts are one step).

A boost (``ir + u * ir`` or ``ir + u * (b / ir)``) never lowers ``ir`` and a
decay (``u * ir`` with ``u < 1``) never raises it, so a boost is capped only
at ``max_ir`` and a decay floored only at ``IR_FLOOR``.

A swarm (:class:`SwarmState`) carries its problem: no call after :func:`initialize` takes
one.  ``problem.evaluator`` maps one point to its fitness, and must be pure, as
deterministic runs already require.  It may carry a ``batch`` attribute mapping a (k, d)
array to k fitnesses: the same values, bit for bit, as calling the evaluator on each row,
or else leave it off.  Particles are evaluated where they move, all moved rows in one
call (without ``batch``, one by one in index order), so ``fit[i] == f(pos[i])`` always.

Swarms collapse: every particle comes to sit on the archived best, bit for
bit (see :func:`collapsed`; booth-2 runs at the reference settings do so at
iterations 155-209).  From then on every move lands on the archived point
and gets its fitness again.  Every run ends in :func:`finish`, which checks for
the collapse before each iteration and then finishes the budget with the
bookkeeping of :func:`fast_forward` alone, so its ``RunResult`` is the one
that iterating gives, bit for bit.  ``iterate`` still runs every phase; only
``finish``, which exposes neither, stops advancing ``ir`` and the random stream.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass, field, fields
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from codoa.rng import RandomStream


IR_FLOOR = 1e-6  # the least interactivity: positive, so that ratios of it stay finite
# the most max_ir: a boost (below 2 x max_ir) and a ratio b / ir (at most max_ir / IR_FLOOR,
# half the float range) stay finite, so a rationalizing boost ir + u * (b / ir) does too
MAX_IR = sys.float_info.max * IR_FLOOR / 2
# the most uniforms one step of a run draws (n x d to scatter or move, n x rationality_rate
# to rationalize): 40 MB of them
MAX_DRAW = 5_000_000
# the most runs of an entry and of a pooled task, which holds each live swarm whole and the
# results made so far: at most 120-270 KB a run at 5,000 iterations, d = 2 to 30 (tracemalloc)
MAX_RUNS = 1_000
IR_FLOOR_0D, INF_0D, ONE_0D, MINUS_ONE_0D, ZERO_0D = map(np.array, (IR_FLOOR, math.inf, 1, -1, 0))


class ConfigurationError(ValueError):
    """Invalid algorithm parameters, problem description, or experiment setup."""


def checked(name: str, value, kind: str, least=None, most=None):
    """``value`` as an ``int`` setting (a real integer, returned as ``int``) or a
    ``float`` one (a real that is a finite float, returned as ``float``), from ``least``
    to ``most`` where given; bools are neither, and other kinds pass unchecked."""
    if kind == "int":
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ConfigurationError(f"{name} must be an integer, got {value!r}")
        value = int(value)
    elif kind == "float":
        try:  # float() of a real past the float range, such as a huge int, overflows
            number = float(value) if isinstance(value, numbers.Real) else math.nan
        except OverflowError:
            number = math.inf
        if isinstance(value, bool) or not math.isfinite(number):
            raise ConfigurationError(f"{name} must be a finite number, got {value!r}")
        value = number
    if least is not None and value < least:
        raise ConfigurationError(f"{name} must be at least {least}, got {value}")
    if most is not None and value > most:
        raise ConfigurationError(f"{name} must be at most {most}, got {value}")
    return value


def check_fields(obj, **bounds) -> None:
    """Apply :func:`checked` to every field of a frozen dataclass, by its annotation, with
    the least value, or the ``(least, most)`` pair, that ``bounds`` gives under its name."""
    for f in fields(obj):
        least, most = bounds.get(f.name), None
        if isinstance(least, tuple):
            least, most = least
        object.__setattr__(obj, f.name, checked(f.name, getattr(obj, f.name), f.type, least, most))


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
        # a run's history keeps one float per iteration, and fast_forward builds what is left
        # of it at once: MAX_DRAW of them take 40 MB
        check_fields(self, num_particles=(2, MAX_DRAW), max_iterations=(0, MAX_DRAW),
                     initial_ir=IR_FLOOR, max_ir=(None, MAX_IR), rationality_rate=0)
        if self.initial_ir > self.max_ir:
            raise ConfigurationError(f"initial_ir must be at most max_ir ({self.max_ir}), "
                                     f"got {self.initial_ir}")
        checked("rationality_rate * num_particles", self.rationality_rate * self.num_particles,
                "int", most=MAX_DRAW)

    @cached_property  # 0-d operands, cached outside the fields
    def _max_ir(self) -> np.ndarray:
        return np.array(self.max_ir)

    @cached_property  # clipped to int64, which holds any ex: it moves by at most 4 an iteration
    def _maturity_limit(self) -> np.ndarray:
        return np.array(min(max(self.maturity_limit, -2**63), 2**63 - 1))


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
        if not callable(self.evaluator):
            raise ConfigurationError(f"evaluator must be callable, got {self.evaluator!r}")
        batch = getattr(self.evaluator, "batch", None)
        if batch is not None and not callable(batch):
            raise ConfigurationError(f"evaluator.batch must be callable or absent, got {batch!r}")
        if self.known_minimum_value is not None:
            object.__setattr__(self, "known_minimum_value",
                               checked("known_minimum_value", self.known_minimum_value, "float"))
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
    """One run: the problem it was initialized on, swarm arrays (row i is particle i),
    best-so-far archive, counters, and ``box``, its problem's bounds as ``(2, N, d)`` rows,
    made on the swarm's first move (a lockstep stack makes none).  Its best fitness, best
    holder and evaluation count are 0-d views of a lockstep stack's arrays only while it is
    stacked."""

    pos: np.ndarray
    fit: np.ndarray
    ir: np.ndarray
    ex: np.ndarray
    rng: RandomStream
    problem: ObjectiveProblem = field(repr=False)
    global_best_position: Optional[np.ndarray] = None
    global_best_fitness: float = math.inf
    best_holder_index: Optional[int] = None
    eval_count: int = 0
    history: list[float] = field(default_factory=list)
    box: Optional[np.ndarray] = field(default=None, repr=False)


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
    state.ex += np.where(below, ONE_0D, MINUS_ONE_0D)
    ir = state.ir[below]
    state.ir[below] = np.minimum(ir + state.rng.draw(len(ir)) * ir, params._max_ir)


def decay_all_ir(state: SwarmState) -> None:
    """Multiplicatively decay every particle's interactivity."""
    state.ir = np.maximum(state.rng.draw(len(state.ir)) * state.ir, IR_FLOOR_0D)


def move_toward_best(state: SwarmState, selected: np.ndarray) -> None:
    """Pull the particles in the boolean mask ``selected`` toward the archived best.

    They move by :func:`step` and are evaluated; those that land on the
    archived point get its fitness again.
    """
    rows = selected.nonzero()[0]
    k = len(rows)
    if not k:
        return
    positions = state.pos.take(rows, axis=0)  # pos[rows], at a fraction of the indexing cost
    problem = state.problem
    u = state.rng.draw(k * problem.dimension).reshape(k, problem.dimension)
    if state.box is None:
        state.box = np.stack((problem.lower_bounds, problem.upper_bounds))[:, None].repeat(
            len(state.fit), axis=1)
    moved = step(positions, u, state.ir.take(rows), state.global_best_position,
                 state.box[0, :k], state.box[1, :k])
    state.pos[rows] = moved
    evaluate_swarm(state, rows, moved)


def step(positions: np.ndarray, u: np.ndarray, ir: np.ndarray, best: np.ndarray,
         lower: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """Move each of the (k, d) ``positions`` a fraction ``u`` of ``ir`` times its gap to
    ``best``, overshooting where ``ir`` > 1, and clamp it to the box from ``lower`` to ``upper``:
    ``best`` is one point or one per row, the box one row per row, since a ufunc broadcasting a
    point over rows took 1.3-1.7 us, against 0.45.  The move, ``positions + u * (ir * (best -
    positions))`` with operands swapped (the same bits), is made in one new buffer, writing no
    input (``u`` is a view of the random stream's block)."""
    moved = best - positions
    moved *= ir[:, None]
    moved *= u
    moved += positions
    np.maximum(moved, lower, out=moved)  # np.clip without its Python wrapper
    np.minimum(moved, upper, out=moved)
    return moved


def evaluate_swarm(state: SwarmState, rows: np.ndarray, points: np.ndarray) -> None:
    """Set the fitness of the particles at index array ``rows`` to that of ``points``.

    ``points`` holds their positions, one row each (see :func:`fitness_of`).
    """
    state.fit[rows] = fitness_of(state.problem, points)
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
    return np.where(np.isfinite(values), values, INF_0D)


def maturation(state: SwarmState, params: AlgorithmParams) -> None:
    """Boost interactivity of low-experience particles, then reward the best."""
    low = state.ex <= params._maturity_limit
    ir = state.ir[low]
    state.ir[low] = np.minimum(ir + state.rng.draw(len(ir)) * ir, params._max_ir)
    reward_best(state, params)


def rationalizing(state: SwarmState, params: AlgorithmParams) -> None:
    """Rescale interactivity against the best holder's, moving strugglers.

    The reference interactivity is read once up front: the repeated boosts
    for non-negative-experience particles must not chase their own updates.
    Negative-experience particles get one boost and a move toward the best;
    the rest get the boost ``rationality_rate`` times, pass ``r`` taking
    row ``r`` of one draw.
    """
    b = state.ir[state.best_holder_index, ...].copy()  # 0-d
    negative = state.ex < ZERO_0D
    ir = state.ir[negative]
    state.ir[negative] = np.minimum(ir + state.rng.draw(len(ir)) * (b / ir), params._max_ir)
    move_toward_best(state, negative)
    positive = ~negative
    ir = state.ir[positive]
    m = len(ir)
    for u in state.rng.draw(m * params.rationality_rate).reshape(params.rationality_rate, m):
        ir = np.minimum(ir + u * (b / ir), params._max_ir)
    state.ir[positive] = ir


def balancing(state: SwarmState, params: AlgorithmParams) -> None:
    """Decay all interactivity, then reward the fittest."""
    decay_all_ir(state)
    reward_best(state, params)


def initialize(params: AlgorithmParams, problem: ObjectiveProblem, seed: int) -> SwarmState:
    """Scatter particles uniformly in the box, evaluate them, reward the best.

    ``seed`` is a non-negative integer, the swarm at most ``MAX_DRAW`` coordinates, and
    a step finite: ``max_ir`` times the box's widest span, plus its largest bound's
    magnitude, is at most the float maximum.
    """
    seed = checked("seed", seed, "int", least=0)
    n, d = params.num_particles, problem.dimension
    checked("num_particles * dimension", n * d, "int", most=MAX_DRAW)
    lower = problem.lower_bounds
    span = problem.upper_bounds - lower
    # Python floats, which overflow to inf without a warning
    reach = params.max_ir * span.max().item() + np.abs([lower, problem.upper_bounds]).max().item()
    checked("max_ir * span + largest |bound|", reach, "float")
    rng = RandomStream(seed)
    state = SwarmState(
        pos=lower + rng.draw(n * d).reshape(n, d) * span,
        fit=np.full(n, math.inf),
        ir=np.full(n, params.initial_ir),
        ex=np.zeros(n, dtype=np.int64),
        rng=rng,
        problem=problem,
    )
    evaluate_swarm(state, np.arange(n), state.pos)
    reward_best(state, params)
    return state


def iterate(state: SwarmState, params: AlgorithmParams) -> None:
    """One full pass of the per-iteration phase sequence, on the problem ``state`` was
    initialized on.

    Order: socialization, interactivity decay, move (and evaluate) all but the
    best holder, reward, maturation, rationalizing, balancing.
    """
    socialization(state, params)
    decay_all_ir(state)
    others = np.arange(len(state.fit)) != state.best_holder_index
    move_toward_best(state, others)
    reward_best(state, params)
    maturation(state, params)
    rationalizing(state, params)
    balancing(state, params)
    state.history.append(state.global_best_fitness)


def collapsed(state: SwarmState) -> bool:
    """Whether every particle sits on the archived best for good, at the end of an
    iteration or of :func:`initialize`.

    True when every fitness is the archived best's, every position is the
    archived point bit for bit, and a zero step from that point, clamped as
    :func:`step` clamps to the swarm's problem's box, lands on it bit for bit (so it has
    no ``-0.0`` coordinate and lies in the box): then every later move lands on
    the archived point and gets its fitness again, so it changes no position,
    fitness or archive.  No fitness is below the archive's at either end, so
    most swarms cost one reduction.
    """
    if state.fit.max() != state.global_best_fitness:
        return False
    best = state.global_best_position
    bits = best.view(np.int64)
    problem = state.problem
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
    """Full optimization: initialize, then :func:`finish` the budget."""
    return finish(initialize(params, problem, seed), params)


def finish(state: SwarmState, params: AlgorithmParams) -> RunResult:
    """Iterate ``state`` on its problem, from the iterations its ``history`` holds to the
    budget, and give its ``RunResult``; from the first iteration at which the swarm has
    :func:`collapsed` (the 0th, right after :func:`initialize`, too), :func:`fast_forward`
    finishes the budget, as iterating would, bit for bit.  A stopped lockstep stack hands
    every swarm back with numbers and arrays of its own, so none finishes on a view of one."""
    for done in range(len(state.history), params.max_iterations):
        if collapsed(state):
            fast_forward(state, params.max_iterations - done)
            break
        iterate(state, params)
    return result(state)
