"""CoDOA: Cognitive Development Optimization Algorithm.

A swarm-based single-objective continuous minimizer, the classic benchmark
suite it was evaluated on, and a seeded experiment harness.
"""

from codoa.benchmarks import REGISTRY, make_problem
from codoa.engine import (
    AlgorithmParams,
    ConfigurationError,
    ObjectiveProblem,
    RunResult,
    initialize,
    iterate,
    run,
)
from codoa.harness import (
    EntryReport,
    ExperimentConfig,
    ExperimentReport,
    RunStatistics,
    run_experiment,
    table2_grid,
    write_report,
)
from codoa.rng import RandomStream

__version__ = "0.1.0"

__all__ = [
    "AlgorithmParams",
    "ConfigurationError",
    "EntryReport",
    "ExperimentConfig",
    "ExperimentReport",
    "ObjectiveProblem",
    "REGISTRY",
    "RandomStream",
    "RunResult",
    "RunStatistics",
    "initialize",
    "iterate",
    "make_problem",
    "run",
    "run_experiment",
    "table2_grid",
    "write_report",
]
