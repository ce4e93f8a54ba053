"""Seeded runs of one dimension advanced together, phase by phase.

``run_many(params, runs)`` gives ``[run(params, problem, seed) for problem, seed in
runs]``, bit for bit, at a lower cost per run: at small swarms most of the engine's cost
is per-call overhead, which one set of array calls over the stacked swarms shares.  It
holds the runs as swarms from ``initialize`` on, each carrying its own problem.  While at
least ``MIN_STACK`` of them have not :func:`engine.collapsed` and the budget is not spent,
those go on one stack whatever their problems.  A stack holds the only copy of its
swarms: until it stops, every field of a stacked ``SwarmState`` but its stream and
history is a view of the stack, its arrays rows and its numbers 0-d entries.  It steps
every moved row in one :func:`engine.step`, each in its own problem's box, and evaluates
each stretch of adjacent swarms on one problem in one :func:`engine.fitness_of`
call.  Each swarm keeps its own random stream, drawn in the order ``run`` draws it.  A
stack only iterates: it stops at the budget or once some swarm has collapsed, and then
hands every swarm back once, with numbers and arrays of its own, so that the stack is
freed.  Every swarm is checked before a stack is built, right after ``initialize`` too,
so a collapsed one never enters a stack.  Then every run, in run order, ends in
:func:`engine.finish`, ``run``'s own loop, which iterates on from as many iterations as
a swarm's ``history`` holds and fast-forwards a collapsed one, so every ``RunResult`` is
made there.  Three swarms is the least that pays: at 50 particles x 50 iterations
(2 vCPUs), a stack of booth, beale and goldstein_price at d = 2 cost 0.95x their solo
runs, and of booth and beale alone 1.14x.

``plan(runs, workers)`` deals an experiment's runs into tasks of one dimension and at most
``MAX_RUNS`` runs, one ``run_many`` call each, for ``workers`` processes.
"""

from __future__ import annotations

from itertools import groupby

import numpy as np

from codoa import engine
from codoa.engine import MAX_RUNS, AlgorithmParams, ConfigurationError, RunResult, checked

MIN_STACK = 3  # the fewest swarms a stack advances; fewer finish one by one


def plan(runs, workers: int) -> list[list[int]]:
    """The tasks for ``workers`` processes: lists of indices into the ``(problem, seed)``
    pairs ``runs``, one :func:`run_many` call each.

    Each dimension's runs make one task or, with fewer dimensions than ``W = min(workers,
    len(runs))`` or more than ``MAX_RUNS`` runs, are dealt alternately over ``max(ceil(W /
    dimensions), ceil(runs / MAX_RUNS))`` tasks (runs 0, 2, 4, ... and 1, 3, 5, ... at
    W = 2), so that no task holds more than ``MAX_RUNS`` runs.  Tasks go largest first by
    runs x dimension, a proxy for the rows a move evaluates; the sort is stable.
    """
    checked("workers", workers, "int", least=1)
    if not runs:
        return []
    by_dimension = {}  # dimension -> the indices of its runs
    for i, (problem, _) in enumerate(runs):
        by_dimension.setdefault(problem.dimension, []).append(i)
    least = -(-min(workers, len(runs)) // len(by_dimension))  # ceil(W / dimensions) tasks each
    shares = [(ix, max(least, -(-len(ix) // MAX_RUNS))) for ix in by_dimension.values()]
    tasks = [ix[k::share] for ix, share in shares for k in range(min(share, len(ix)))]
    tasks.sort(key=lambda ix: len(ix) * runs[ix[0]][0].dimension, reverse=True)  # stable
    return tasks


def run_many(params: AlgorithmParams, runs) -> list[RunResult]:
    """``[run(params, problem, seed) for problem, seed in runs]``, for runs of one
    dimension, on one lockstep stack; runs of several dimensions are a ConfigurationError."""
    runs = list(runs)
    dimensions = sorted({problem.dimension for problem, _ in runs})
    if len(dimensions) > 1:
        raise ConfigurationError(f"runs must be of one dimension, got dimensions {dimensions}")
    swarms = [engine.initialize(params, problem, seed) for problem, seed in runs]
    live = [s for s in swarms if not engine.collapsed(s)]
    while len(live) >= MIN_STACK and len(live[0].history) < params.max_iterations:
        _Stack(params, live).advance()
        live = [s for s in live if not engine.collapsed(s)]
    return [engine.finish(s, params) for s in swarms]


class _Stack:
    """The swarms ``states``, all of one dimension, as flat arrays: rows ``r * N`` to
    ``r * N + N - 1`` of ``pos``, ``fit``, ``ir`` and ``ex`` are swarm ``r``'s particles,
    and ``best_pos``, ``best_fit``, ``holder``, ``evals``, ``lower`` and ``upper`` (the box
    of its ``problem``) hold one entry per swarm.  Every field of swarm ``r``'s state but
    its problem, stream and history is a view of its rows or entries, until :meth:`advance`
    hands the swarm back once.
    """

    def __init__(self, params: AlgorithmParams, states) -> None:
        self.params, self.states = params, states
        self.rngs = [s.rng for s in states]
        self.n = n = params.num_particles
        self.pos = np.concatenate([s.pos for s in states])
        self.fit = np.concatenate([s.fit for s in states])
        self.ir = np.concatenate([s.ir for s in states])
        self.ex = np.concatenate([s.ex for s in states])
        self.best_pos = np.stack([s.global_best_position for s in states])
        self.best_fit = np.array([s.global_best_fitness for s in states])
        self.holder = np.array([s.best_holder_index for s in states])  # within its swarm
        self.evals = np.array([s.eval_count for s in states])
        self.lower = np.stack([s.problem.lower_bounds for s in states])
        self.upper = np.stack([s.problem.upper_bounds for s in states])
        self.first = np.arange(len(states)) * n  # row of each swarm's particle 0
        self.swarm_of = np.repeat(np.arange(len(states)), n)
        self.everyone = np.ones(len(states) * n, dtype=bool)
        for r, s in enumerate(states):  # views of the stack until advance hands it back
            rows = slice(r * n, (r + 1) * n)
            s.pos, s.fit, s.ir, s.ex = self.pos[rows], self.fit[rows], self.ir[rows], self.ex[rows]
            s.global_best_position, s.global_best_fitness = self.best_pos[r], self.best_fit[r, ...]
            s.best_holder_index, s.eval_count = self.holder[r, ...], self.evals[r, ...]
        # the problem of each stretch of adjacent swarms on one, and the row after it
        # (problems compare by identity)
        adjacent = groupby(s.problem for s in states)
        groups = [(problem, len(list(group))) for problem, group in adjacent]
        self.problems = [problem for problem, _ in groups]
        self.ends = np.cumsum([count for _, count in groups]) * n

    def advance(self) -> None:
        """Iterate until the budget, or until some swarm has :func:`engine.collapsed`; then
        hand every swarm back once, with numbers and arrays of its own, freeing the stack."""
        for _ in range(len(self.states[0].history), self.params.max_iterations):
            self.iterate()
            # a swarm whose fitnesses all equal its best may have collapsed
            if (self.fit.reshape(-1, self.n).max(axis=1) == self.best_fit).any() and any(
                    map(engine.collapsed, self.states)):
                break
        for s, fit, holder, evals in zip(self.states, self.best_fit.tolist(),
                                         self.holder.tolist(), self.evals.tolist()):
            s.pos, s.fit, s.ir, s.ex = s.pos.copy(), s.fit.copy(), s.ir.copy(), s.ex.copy()
            s.global_best_position = s.global_best_position.copy()
            s.global_best_fitness, s.best_holder_index, s.eval_count = fit, holder, evals

    def counts(self, mask: np.ndarray) -> np.ndarray:
        """How many rows of each swarm ``mask`` holds."""
        return mask.reshape(-1, self.n).sum(axis=1)

    def draw(self, counts) -> np.ndarray:
        """``counts[r]`` uniforms from swarm ``r``'s stream, for each swarm in turn."""
        return np.concatenate([rng.draw(k) for rng, k in zip(self.rngs, counts.tolist())])

    def boost(self, mask: np.ndarray) -> None:
        """``ir + u * ir``, capped at ``max_ir``, for the rows in ``mask``."""
        ir = self.ir[mask]
        self.ir[mask] = np.minimum(ir + self.draw(self.counts(mask)) * ir, self.params._max_ir)

    def decay(self) -> None:
        u = np.concatenate([rng.draw(self.n) for rng in self.rngs])
        np.maximum(u * self.ir, engine.IR_FLOOR_0D, out=self.ir)

    def reward(self) -> None:
        """:func:`engine.reward_best` for every swarm."""
        best = self.fit.reshape(-1, self.n).argmin(axis=1) + self.first
        best_fit = self.fit.take(best)
        ir = self.ir.take(best)
        u = np.array([rng.next() for rng in self.rngs])
        self.ir[best] = np.minimum(ir + u * ir, self.params._max_ir)
        self.ex[best] += 1
        better = best_fit < self.best_fit
        if better.any():
            np.copyto(self.best_fit, best_fit, where=better)
            np.copyto(self.holder, best - self.first, where=better)
            self.best_pos[better] = self.pos[best[better]]

    def move(self, mask: np.ndarray) -> None:
        """:func:`engine.move_toward_best` for the rows in ``mask``: one step for them all,
        each in its own swarm's box, and one objective call for each problem's rows."""
        rows = mask.nonzero()[0]
        counts = self.counts(mask)
        owner = self.swarm_of.take(rows)  # the swarm of each moved row
        d = self.pos.shape[1]
        moved = engine.step(self.pos.take(rows, axis=0),
                            self.draw(counts * d).reshape(len(rows), d), self.ir.take(rows),
                            self.best_pos.take(owner, axis=0), self.lower.take(owner, axis=0),
                            self.upper.take(owner, axis=0))
        self.pos[rows] = moved
        start = 0
        for problem, end in zip(self.problems, np.searchsorted(rows, self.ends).tolist()):
            if end > start:
                self.fit[rows[start:end]] = engine.fitness_of(problem, moved[start:end])
            start = end
        self.evals += counts

    def iterate(self) -> None:
        """:func:`engine.iterate` for every swarm."""
        params, n = self.params, self.n
        # socialization
        means = np.array([engine.mean_fitness(fit) for fit in self.fit.reshape(-1, n)])
        below = (self.fit.reshape(-1, n) < means[:, None]).ravel()
        self.ex += np.where(below, engine.ONE_0D, engine.MINUS_ONE_0D)
        self.boost(below)
        # interactivity decay, then move all but each best holder
        self.decay()
        others = self.everyone.copy()
        others[self.first + self.holder] = False
        self.move(others)
        self.reward()
        # maturation
        self.boost(self.ex <= params._maturity_limit)
        self.reward()
        # rationalizing: the reference ir is read once, before any update
        b = self.ir.take(self.first + self.holder)
        negative = self.ex < engine.ZERO_0D
        if negative.any():
            ir = self.ir[negative]
            u = self.draw(self.counts(negative))
            self.ir[negative] = np.minimum(
                ir + u * (b.take(self.swarm_of[negative]) / ir), params._max_ir
            )
            self.move(negative)
        rate, positive = params.rationality_rate, ~negative
        ir = self.ir[positive]
        ref = b.take(self.swarm_of[positive])
        u = np.concatenate([
            rng.draw(m * rate).reshape(rate, m)
            for rng, m in zip(self.rngs, self.counts(positive).tolist())
        ], axis=1)  # pass p takes row p of each swarm's one draw
        for row in u:
            ir = np.minimum(ir + row * (ref / ir), params._max_ir)
        self.ir[positive] = ir
        # balancing
        self.decay()
        self.reward()
        for s, best in zip(self.states, self.best_fit.tolist()):
            s.history.append(best)
