"""An executable spec of one CoDOA run, written apart from ``codoa.engine``.

``reference_run(params, problem, seed)`` makes the ``RunResult`` that ``codoa.run`` and
``codoa.lockstep.run_many`` must give, bit for bit.  It holds the swarm as lists of Python
floats, walks the particles one by one, and takes one ``RandomStream.next()`` for each
random factor, in the order the engine draws them.  It iterates every iteration of the
budget, with no collapse shortcut, and shares none of the engine's phases.
"""

from __future__ import annotations

import math

import numpy as np

from codoa.engine import IR_FLOOR, RunResult
from codoa.rng import RandomStream


def fitness(problem, point: list[float]) -> float:
    """``problem.evaluator`` at ``point``, with every non-finite value +inf."""
    value = float(problem.evaluator(np.array(point)))
    return value if math.isfinite(value) else math.inf


def mean(fit: list[float]) -> float:
    """``fsum(fit) / len(fit)``; where finite values sum past the float range, the same
    mean over the values scaled down by the least power of two above ``len(fit)``."""
    try:
        return math.fsum(fit) / len(fit)
    except OverflowError:
        scale = 2.0 ** len(fit).bit_length()
        return math.fsum(f / scale for f in fit) / len(fit) * scale


def reference_run(params, problem, seed: int) -> RunResult:
    """``codoa.run(params, problem, seed)``, one particle and one random factor at a time."""
    n, d, max_ir = params.num_particles, problem.dimension, params.max_ir
    lower, upper = problem.lower_bounds.tolist(), problem.upper_bounds.tolist()
    rng = RandomStream(seed)
    pos = [[lower[j] + rng.next() * (upper[j] - lower[j]) for j in range(d)] for _ in range(n)]
    fit = [fitness(problem, p) for p in pos]
    ir, ex = [params.initial_ir] * n, [0] * n
    best_fit, best_pos, holder, evals = math.inf, None, None, n

    def boost(i: int, by: float) -> None:  # ir + u * by, capped at max_ir
        ir[i] = min(ir[i] + rng.next() * by, max_ir)

    def decay() -> None:  # u * ir, floored at IR_FLOOR
        for i in range(n):
            ir[i] = max(rng.next() * ir[i], IR_FLOOR)

    def reward() -> None:  # the first fittest particle; the archive moves on a strict gain
        nonlocal best_fit, best_pos, holder
        i = min(range(n), key=fit.__getitem__)
        boost(i, ir[i])
        ex[i] += 1
        if holder is None or fit[i] < best_fit:
            best_fit, best_pos, holder = fit[i], list(pos[i]), i

    def move(movers: list[int]) -> None:  # a step toward the archived point, then evaluated
        nonlocal evals
        for i in movers:
            step = [((best_pos[j] - x) * ir[i]) * rng.next() + x for j, x in enumerate(pos[i])]
            # clamped as numpy's maximum and minimum clamp: on a tie (-0.0 against 0.0)
            # each gives its second operand, the bound
            step = [x if x > lo else lo for x, lo in zip(step, lower)]
            pos[i] = [x if x < hi else hi for x, hi in zip(step, upper)]
            fit[i] = fitness(problem, pos[i])
        evals += len(movers)

    reward()
    history = []
    for _ in range(params.max_iterations):
        # socialization
        m = mean(fit)
        for i in range(n):
            if fit[i] < m:
                ex[i] += 1
                boost(i, ir[i])
            else:
                ex[i] -= 1
        # interactivity decay, then move all but the best holder
        decay()
        move([i for i in range(n) if i != holder])
        reward()
        # maturation
        for i in range(n):
            if ex[i] <= params.maturity_limit:
                boost(i, ir[i])
        reward()
        # rationalizing, against the best holder's ir as it stands here
        b = ir[holder]
        negative = [i for i in range(n) if ex[i] < 0]
        for i in negative:
            boost(i, b / ir[i])
        move(negative)
        for _ in range(params.rationality_rate):
            for i in range(n):
                if ex[i] >= 0:
                    boost(i, b / ir[i])
        # balancing
        decay()
        reward()
        history.append(best_fit)
    return RunResult(best_fitness=best_fit, best_position=tuple(best_pos),
                     best_per_iteration=tuple(history), eval_count=evals, seed=rng.seed)
