"""Several seeded runs of one problem advanced together, phase by phase.

``run_many(params, problem, seeds)`` gives ``[run(params, problem, s) for s
in seeds]``, bit for bit, at a lower cost per seed: at small swarms most of
the engine's cost is per-call overhead, which one set of array calls over
the stacked swarms shares.  Each swarm is built by :func:`engine.initialize`
and keeps its own random stream, drawn in the order ``run`` draws it.  One
objective call covers the moved particles of every seed, and a seed whose
swarm has :func:`engine.collapsed` leaves the stack through
:func:`engine.fast_forward`.  The last running seed finishes on ``run``'s own
loop, :func:`engine.finish`, which is faster for one swarm.
"""

from __future__ import annotations

import numpy as np

from codoa import engine
from codoa.engine import IR_FLOOR, AlgorithmParams, ObjectiveProblem, RunResult


def run_many(params: AlgorithmParams, problem: ObjectiveProblem, seeds) -> list[RunResult]:
    """``[run(params, problem, seed) for seed in seeds]``, run in lockstep."""
    states = [engine.initialize(params, problem, seed) for seed in seeds]
    running, done = states, 0
    while len(running) > 1 and done < params.max_iterations:
        running, done = _Stack(params, problem, running).advance(done)
    for state in running:  # one seed left, or several at the end of the budget
        engine.finish(state, params, problem, done)
    return [engine.result(state) for state in states]


class _Stack:
    """The swarms of ``states`` as flat arrays: rows ``r * N`` to ``r * N + N - 1``
    of ``pos``, ``fit``, ``ir`` and ``ex`` are swarm ``r``'s particles, and
    ``best_pos``, ``best_fit``, ``holder`` and ``evals`` hold one entry per swarm.
    """

    def __init__(self, params: AlgorithmParams, problem: ObjectiveProblem, states) -> None:
        self.params, self.problem, self.states = params, problem, states
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
        self.first = np.arange(len(states)) * n  # row of each swarm's particle 0
        self.swarm_of = np.repeat(np.arange(len(states)), n)
        self.everyone = np.ones(len(states) * n, dtype=bool)

    def unstack(self) -> None:
        """Write each swarm back into its ``SwarmState`` (histories are kept there)."""
        for r, s in enumerate(self.states):
            rows = slice(r * self.n, (r + 1) * self.n)
            s.pos, s.fit, s.ir, s.ex = self.pos[rows], self.fit[rows], self.ir[rows], self.ex[rows]
            s.global_best_position = self.best_pos[r]
            s.global_best_fitness = self.best_fit.item(r)
            s.best_holder_index = self.holder.item(r)
            s.eval_count = self.evals.item(r)

    def advance(self, done: int) -> tuple[list, int]:
        """Iterate on from ``done`` iterations until the budget, or until some swarm has
        :func:`engine.collapsed` and been fast-forwarded; write every swarm back, and
        return those still running and the new count."""
        budget = self.params.max_iterations
        while done < budget:
            self.iterate()
            done += 1
            # a swarm whose fitnesses all equal its best may have collapsed
            if (self.fit.reshape(-1, self.n).max(axis=1) == self.best_fit).any():
                self.unstack()
                running = []
                for state in self.states:
                    if engine.collapsed(state, self.problem):
                        engine.fast_forward(state, budget - done)
                    else:
                        running.append(state)
                if len(running) < len(self.states):
                    return running, done
        self.unstack()
        return self.states, done

    def counts(self, mask: np.ndarray) -> np.ndarray:
        """How many rows of each swarm ``mask`` holds."""
        return mask.reshape(-1, self.n).sum(axis=1)

    def draw(self, counts) -> np.ndarray:
        """``counts[r]`` uniforms from swarm ``r``'s stream, for each swarm in turn."""
        return np.concatenate([rng.draw(k) for rng, k in zip(self.rngs, counts.tolist())])

    def boost(self, mask: np.ndarray) -> None:
        """``ir + u * ir``, capped at ``max_ir``, for the rows in ``mask``."""
        ir = self.ir[mask]
        self.ir[mask] = np.minimum(ir + self.draw(self.counts(mask)) * ir, self.params.max_ir)

    def decay(self) -> None:
        u = np.concatenate([rng.draw(self.n) for rng in self.rngs])
        self.ir = np.maximum(u * self.ir, IR_FLOOR)

    def reward(self) -> None:
        """:func:`engine.reward_best` for every swarm."""
        best = self.fit.reshape(-1, self.n).argmin(axis=1) + self.first
        best_fit = self.fit.take(best)
        ir = self.ir.take(best)
        u = np.array([rng.next() for rng in self.rngs])
        self.ir[best] = np.minimum(ir + u * ir, self.params.max_ir)
        self.ex[best] += 1
        better = best_fit < self.best_fit
        if better.any():
            self.best_fit = np.where(better, best_fit, self.best_fit)
            self.holder = np.where(better, best - self.first, self.holder)
            self.best_pos[better] = self.pos[best[better]]

    def move(self, mask: np.ndarray) -> None:
        """:func:`engine.move_toward_best` for the rows in ``mask``, in one objective call."""
        rows = mask.nonzero()[0]
        if not len(rows):
            return
        counts = self.counts(mask)
        d = self.problem.dimension
        u = self.draw(counts * d).reshape(len(rows), d)
        best = self.best_pos.take(self.swarm_of.take(rows), axis=0)
        moved = engine.step(self.pos.take(rows, axis=0), u, self.ir.take(rows), best, self.problem)
        self.pos[rows] = moved
        self.fit[rows] = engine.fitness_of(self.problem, moved)
        self.evals += counts

    def iterate(self) -> None:
        """:func:`engine.iterate` for every swarm."""
        params, n = self.params, self.n
        # socialization
        means = np.array([engine.mean_fitness(fit) for fit in self.fit.reshape(-1, n)])
        below = (self.fit.reshape(-1, n) < means[:, None]).ravel()
        self.ex += np.where(below, 1, -1)
        self.boost(below)
        # interactivity decay, then move all but each best holder
        self.decay()
        others = self.everyone.copy()
        others[self.first + self.holder] = False
        self.move(others)
        self.reward()
        # maturation
        self.boost(self.ex <= params.maturity_limit)
        self.reward()
        # rationalizing: the reference ir is read once, before any update
        b = self.ir.take(self.first + self.holder)
        negative = self.ex < 0
        if negative.any():
            ir = self.ir[negative]
            u = self.draw(self.counts(negative))
            self.ir[negative] = np.minimum(
                ir + u * (b.take(self.swarm_of[negative]) / ir), params.max_ir
            )
            self.move(negative)
        rate = params.rationality_rate
        if rate:
            positive = ~negative
            ir = self.ir[positive]
            ref = b.take(self.swarm_of[positive])
            u = np.concatenate([
                rng.draw(m * rate).reshape(rate, m)
                for rng, m in zip(self.rngs, self.counts(positive).tolist())
            ], axis=1)  # pass p takes row p of each swarm's one draw
            for row in u:
                ir = np.minimum(ir + row * (ref / ir), params.max_ir)
            self.ir[positive] = ir
        # balancing
        self.decay()
        self.reward()
        for s, best in zip(self.states, self.best_fit.tolist()):
            s.history.append(best)
