"""Report pins: the exact bytes of a written report and of ``codoa run``.

A small fixed experiment is written as CSV and as JSON, and each file's
SHA-256 is compared with a pinned value; the summary ``codoa run`` prints is
compared whole.  A change to the report types or the CLI must leave these
bytes unchanged.

Like the golden digests, the pins hold on the platform they were taken on
(x86-64 Linux, CPython 3.11, numpy 2.4): booth's ``**`` is the C library's
``pow`` and mccormick's ``sin`` is its ``sin``.
"""

import hashlib

import pytest

from codoa import AlgorithmParams, ExperimentConfig, run_experiment, write_report
from codoa.cli import main

REPORT_SHA256 = {
    "csv": "10f6537104a4944fc975c4d32ffdd87d464ae53e83f6e6e1b5c5578142243edc",
    "json": "0bb01c86f2a0c4421512f680b2ab1a55a217929180320fec6a6384f6ba6dd95f",
}

RUN_STDOUT = (
    "function=booth dimension=2 runs=2 base_seed=1\n"
    "params: N=50 iterations=50 ir0=0.5 max_ir=10 ml=3 r=2\n"
    "best=2.14201052e-16 worst=4.64419059e-16 mean=3.39310055e-16 "
    "median=3.39310055e-16 stddev=1.7693085e-16\n"
    "known_minimum=0 abs_error=2.14201052e-16\n"
)


@pytest.fixture(scope="module")
def pinned_report():
    config = ExperimentConfig(
        entries=(("booth", 2), ("mccormick", 2), ("sphere", 3)),
        runs_per_entry=3,
        base_seed=7,
        params=AlgorithmParams(num_particles=4, max_iterations=8),
    )
    return run_experiment(config)


@pytest.mark.parametrize("fmt", sorted(REPORT_SHA256))
def test_report_bytes_are_pinned(pinned_report, tmp_path, fmt):
    path = tmp_path / f"report.{fmt}"
    write_report(pinned_report, fmt, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == REPORT_SHA256[fmt]


def test_run_summary_is_pinned(capsys):
    assert main(["run", "--function", "booth", "--iterations", "50", "--runs", "2"]) == 0
    assert capsys.readouterr().out == RUN_STDOUT
