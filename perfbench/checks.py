"""Correctness gate for the benchmark: pinned digests and run invariants.

Every run the benchmark makes is checked, and every violation counts as a
failed run: a raised exception, a non-finite result, a broken invariant, or
a digest that differs from the one pinned in ``digests.json``.
"""

from __future__ import annotations

import hashlib
import math
import sys
import traceback


class Tally:
    """Counts checked runs and spawns and the failed ones, with the first few reasons."""

    MAX_NOTES = 20

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def record(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.notes) < self.MAX_NOTES:
                self.notes.append(f"{label}: {'; '.join(problems)}")


def exception_note(exc: Exception) -> str:
    """Print the traceback of a failed run and return a one-line reason."""
    traceback.print_exception(exc, file=sys.stderr)
    return f"raised {type(exc).__name__}: {exc}"


def digest(result) -> str:
    """SHA-256 over the exact bits of a run's best, position, history and evals."""
    payload = "|".join((
        result.best_fitness.hex(),
        ",".join(v.hex() for v in result.best_position),
        ",".join(v.hex() for v in result.best_per_iteration),
        str(result.eval_count),
    ))
    return hashlib.sha256(payload.encode()).hexdigest()


def run_problems(result, problem, params, seed) -> list[str]:
    """Invariant violations of one ``RunResult``; empty when it is sound."""
    problems = []
    best = result.best_fitness
    history = result.best_per_iteration
    position = result.best_position
    if not math.isfinite(best):
        problems.append(f"best_fitness is {best}")
    if result.seed != seed:
        problems.append(f"seed {result.seed} != {seed}")
    if len(history) != params.max_iterations:
        problems.append(f"history has {len(history)} entries, expected {params.max_iterations}")
    if any(later > earlier for earlier, later in zip(history, history[1:])):
        problems.append("best_per_iteration increases")
    if history and history[-1] != best:
        problems.append("best_fitness differs from the last history entry")
    if len(position) != problem.dimension:
        problems.append(f"best_position has {len(position)} coordinates")
    elif not all(
        lo <= x <= hi
        for x, lo, hi in zip(position, problem.lower_bounds, problem.upper_bounds)
    ):
        problems.append("best_position lies outside the bounds")
    elif math.isfinite(best) and problem.evaluator(position) != best:
        problems.append("re-evaluating best_position does not give best_fitness")
    if result.eval_count < params.num_particles:
        problems.append(f"eval_count {result.eval_count} below the swarm size")
    return problems
