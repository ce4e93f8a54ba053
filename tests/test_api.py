"""The public API: the names ``codoa`` exports."""

import codoa

PUBLIC_NAMES = [
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


def test_all_lists_exactly_the_public_names_and_each_resolves():
    assert sorted(codoa.__all__) == PUBLIC_NAMES
    assert [name for name in PUBLIC_NAMES if not hasattr(codoa, name)] == []
