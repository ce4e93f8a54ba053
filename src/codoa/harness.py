"""Seeded multi-run experiments with cross-run statistics and report emission.

Runs are reproducible: run ``k`` of every entry uses ``base_seed + k``, so
per-entry results are independent of entry order and of the execution
schedule.  Reports carry best/worst/mean/median plus the sample standard
deviation (n - 1 denominator).
"""

from __future__ import annotations

import atexit
import csv
import json
import os
import statistics
import sys
import threading
from dataclasses import asdict, dataclass, fields
from typing import Optional

from codoa.benchmarks import REGISTRY, make_problem
from codoa.engine import AlgorithmParams, ConfigurationError, RunResult, check_fields, checked, run

REPORT_COLUMNS = (
    "function",
    "dimension",
    "runs",
    "best",
    "worst",
    "mean",
    "median",
    "stddev",
    "known_minimum",
    "abs_error",
    "base_seed",
)

TABLE2_DIMENSIONS = (2, 5, 10, 20, 30)

REPORT_FORMATS = ("csv", "json")


def check_format(fmt) -> None:
    """Raise ConfigurationError unless ``fmt`` is one of REPORT_FORMATS."""
    if fmt not in REPORT_FORMATS:
        raise ConfigurationError(f"output_format must be one of {REPORT_FORMATS}, got {fmt!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: which (function, dimension) entries to run, and how."""

    entries: tuple[tuple[str, int], ...]
    runs_per_entry: int = 10
    base_seed: int = 1
    params: AlgorithmParams = AlgorithmParams()
    output_format: str = "csv"
    output_path: Optional[str] = None

    def __post_init__(self) -> None:
        check_fields(self)
        try:
            pairs = tuple((str(name), dim) for name, dim in self.entries)
        except (TypeError, ValueError) as exc:
            raise ConfigurationError(
                f"each entry must be a (function, dimension) pair: {exc}"
            ) from None
        entries = tuple(
            (name, checked(f"entries dimension of {name!r}", dim, "int")) for name, dim in pairs
        )
        if not entries:
            raise ConfigurationError("entries must hold at least one (function, dimension) pair")
        object.__setattr__(self, "entries", entries)
        for name, dim in entries:
            make_problem(name, dim)  # raises ConfigurationError on a bad entry
        if self.runs_per_entry < 1:
            raise ConfigurationError(
                f"runs_per_entry must be positive, got {self.runs_per_entry}"
            )
        if self.base_seed < 0:
            raise ConfigurationError(f"base_seed must be non-negative, got {self.base_seed}")
        if not isinstance(self.params, AlgorithmParams):
            raise ConfigurationError(f"params must be an AlgorithmParams, got {self.params!r}")
        check_format(self.output_format)
        if not isinstance(self.output_path, (str, type(None))) or self.output_path == "":
            raise ConfigurationError(
                f"output_path must be a non-empty string or null, got {self.output_path!r}"
            )


@dataclass(frozen=True)
class RunStatistics:
    """Cross-run summary for one entry, plus the raw per-run values."""

    best: float
    worst: float
    mean: float
    median: float
    stddev: float
    run_bests: tuple[float, ...]

    @classmethod
    def from_runs(cls, bests) -> "RunStatistics":
        bests = tuple(float(b) for b in bests)
        stddev = statistics.stdev(bests) if len(bests) > 1 else 0.0
        return cls(
            best=min(bests),
            worst=max(bests),
            mean=statistics.fmean(bests),
            median=statistics.median(bests),
            stddev=stddev,
            run_bests=bests,
        )


@dataclass(frozen=True)
class EntryReport:
    """Statistics for one (function, dimension) entry."""

    function: str
    dimension: int
    stats: RunStatistics
    known_minimum: float
    abs_error: float


@dataclass(frozen=True)
class ExperimentReport:
    """Per-entry statistics plus the config that produced them."""

    entries: tuple[EntryReport, ...]
    config: ExperimentConfig


def _run_job(job: tuple[str, int, AlgorithmParams, int]) -> RunResult:
    name, dimension, params, seed = job
    return run(params, make_problem(name, dimension), seed)


_pool = None  # (processes, registry, executor) that pooled calls share, started by the first
_pool_lock = threading.RLock()  # held by each pooled call, so one runs at a time
_parent_pools = []  # in a forked child: the parent's pool, never used nor collected


def _close_pool() -> None:
    """Shut the shared pool down, if one is running, and forget it."""
    global _pool
    with _pool_lock:
        if _pool is not None:
            _pool[2].shutdown(wait=True)  # its threads end here, before any later fork
            _pool = None


def _forget_pool_in_child() -> None:
    """Give a forked child no pool and a free lock; the parent's stay the parent's.

    The child keeps a reference to the parent's pool: collecting it would run
    its wakeup callback, which takes a lock some parent thread may have held
    at the fork and writes into the parent's pipe.
    """
    global _pool, _pool_lock
    _parent_pools.append(_pool)
    _pool, _pool_lock = None, threading.RLock()


atexit.register(_close_pool)
if hasattr(os, "register_at_fork"):  # absent where there is no fork
    os.register_at_fork(after_in_child=_forget_pool_in_child)


def _pool_map(jobs: list, processes: int) -> list:
    """``_run_job`` over ``jobs``, in order, in the shared pool of ``processes``.

    The pool is started on first use and kept for later calls.  A call that
    needs another process count, or finds ``REGISTRY`` changed since the pool
    started (a forked worker would still see the old one), replaces it, and
    so does one that finds it broken as the jobs are submitted (a worker died
    since the last call).  A call that fails while its jobs run drops the pool
    and raises.  Calls from other threads wait for the one running to finish.
    """
    global _pool
    from concurrent.futures import ProcessPoolExecutor  # imports multiprocessing: only here
    from concurrent.futures.process import BrokenProcessPool

    registry = tuple(REGISTRY.items())  # holds the specs, so none is collected
    with _pool_lock:
        if _pool is not None and _pool[:2] != (processes, registry):
            _close_pool()
        if _pool is None:
            _pool = (processes, registry, ProcessPoolExecutor(max_workers=processes))
        try:
            try:
                results = _pool[2].map(_run_job, jobs)  # submits every job before it returns
            except BrokenProcessPool:
                _close_pool()
                _pool = (processes, registry, ProcessPoolExecutor(max_workers=processes))
                results = _pool[2].map(_run_job, jobs)
            return list(results)
        except BaseException:
            _close_pool()
            raise


def run_experiment(config: ExperimentConfig, workers: int = 1) -> ExperimentReport:
    """Execute every entry of the experiment and collect statistics.

    ``workers`` is an integer of at least 1.  Above 1, the independent
    (entry, run) jobs run in a process pool of at most one process per job,
    which later calls needing as many processes reuse; results are collected
    in (entry index, run index) order, so the report is identical to a serial
    execution.
    """
    workers = checked("workers", workers, "int")
    if workers < 1:
        raise ConfigurationError(f"workers must be at least 1, got {workers}")
    jobs = [
        (name, dim, config.params, config.base_seed + k)
        for name, dim in config.entries
        for k in range(config.runs_per_entry)
    ]
    workers = min(workers, len(jobs))  # the pool starts every process it may use at once
    if workers > 1:
        results = _pool_map(jobs, workers)
    else:
        results = [_run_job(job) for job in jobs]

    entry_reports = []
    n = config.runs_per_entry
    for idx, (name, dim) in enumerate(config.entries):
        bests = [r.best_fitness for r in results[idx * n : (idx + 1) * n]]
        stats = RunStatistics.from_runs(bests)
        known = make_problem(name, dim).known_minimum_value
        entry_reports.append(EntryReport(name, dim, stats, known, abs(stats.best - known)))
    return ExperimentReport(entries=tuple(entry_reports), config=config)


def table2_grid() -> ExperimentConfig:
    """The full reference benchmark grid at the reference settings.

    Five two-dimensional functions at dimension 2, plus sphere and
    rosenbrock at dimensions 2, 5, 10, 20, and 30: fifteen entries, ten
    seeded runs each.
    """
    entries = [
        (name, 2)
        for name in ("booth", "beale", "goldstein_price", "mccormick", "three_hump_camel")
    ]
    entries += [("sphere", d) for d in TABLE2_DIMENSIONS]
    entries += [("rosenbrock", d) for d in TABLE2_DIMENSIONS]
    return ExperimentConfig(entries=tuple(entries))


def _cell(value) -> str:
    if isinstance(value, float):
        return format(value, ".9g")
    return str(value)


def _entry_row(report: ExperimentReport, entry: EntryReport) -> dict:
    return {
        "function": entry.function,
        "dimension": entry.dimension,
        "runs": report.config.runs_per_entry,
        "best": entry.stats.best,
        "worst": entry.stats.worst,
        "mean": entry.stats.mean,
        "median": entry.stats.median,
        "stddev": entry.stats.stddev,
        "known_minimum": entry.known_minimum,
        "abs_error": entry.abs_error,
        "base_seed": report.config.base_seed,
    }


def report_to_dict(report: ExperimentReport) -> dict:
    """JSON-ready view of a report; floats are kept exact for round-trips."""
    config = report.config
    seeds = range(config.base_seed, config.base_seed + config.runs_per_entry)
    entries = []
    for entry in report.entries:
        row = _entry_row(report, entry)
        row["run_bests"] = list(entry.stats.run_bests)
        row["seeds"] = list(seeds)
        entries.append(row)
    return {
        "params": asdict(config.params),
        "runs_per_entry": config.runs_per_entry,
        "base_seed": config.base_seed,
        "entries": entries,
    }


def write_report(report: ExperimentReport, output_format: str, destination=None) -> None:
    """Write the report as CSV or JSON to a path, or to stdout if none given."""
    check_format(output_format)
    if destination is None:
        return _emit(report, output_format, sys.stdout)
    if os.path.islink(destination) or os.path.exists(destination) != os.path.isfile(destination):
        with open(destination, "w", newline="") as fh:  # a symlink, device or FIFO: in place
            return _emit(report, output_format, fh)
    partial = f"{destination}.{os.getpid()}.part"  # beside it, so os.replace is atomic
    fh = open(partial, "x", newline="")
    try:
        with fh:
            _emit(report, output_format, fh)
        os.replace(partial, destination)
    except BaseException:
        os.remove(partial)
        raise


def _emit(report: ExperimentReport, output_format: str, fh) -> None:
    if output_format == "json":
        json.dump(report_to_dict(report), fh, indent=2)
        fh.write("\n")
        return
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(REPORT_COLUMNS)
    for entry in report.entries:
        row = _entry_row(report, entry)
        writer.writerow([_cell(row[col]) for col in REPORT_COLUMNS])


_PARAM_KEYS = tuple(f.name for f in fields(AlgorithmParams))
_TOP_KEYS = tuple(f.name for f in fields(ExperimentConfig) if f.name != "params")


def load_config(path) -> ExperimentConfig:
    """Load an experiment configuration from a flat JSON document.

    Recognized keys are the experiment fields (``entries``,
    ``runs_per_entry``, ``base_seed``, ``output_format``, ``output_path``)
    plus the algorithm parameter names inlined at top level.  Unknown keys
    are an error; absent keys take the dataclass defaults.
    """
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ConfigurationError("experiment config must be a JSON object")
    unknown = sorted(set(doc) - set(_TOP_KEYS) - set(_PARAM_KEYS))
    if unknown:
        raise ConfigurationError(f"unknown config keys: {', '.join(unknown)}")
    if "entries" not in doc:
        raise ConfigurationError("experiment config is missing 'entries'")
    params = AlgorithmParams(**{k: doc[k] for k in _PARAM_KEYS if k in doc})
    return ExperimentConfig(params=params, **{k: doc[k] for k in _TOP_KEYS if k in doc})
