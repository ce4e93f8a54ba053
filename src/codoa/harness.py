"""Seeded multi-run experiments with cross-run statistics and report emission.

Runs are reproducible: run ``k`` of every entry uses ``base_seed + k``, so
per-entry results are independent of entry order and of the execution
schedule, serial or pooled (see ``run_experiment``).  Reports carry
best/worst/mean/median plus the sample standard deviation (n - 1
denominator).
"""

from __future__ import annotations

import atexit
import csv
import json
import math
import os
import statistics
import sys
import threading
from dataclasses import asdict, dataclass
from itertools import chain

from codoa.benchmarks import check_entry, make_problem
from codoa.engine import (MAX_DRAW, AlgorithmParams, ConfigurationError, check_fields,
                          checked, run)

TABLE2_DIMENSIONS = (2, 5, 10, 20, 30)

REPORT_FORMATS = ("csv", "json")

# an experiment holds every run's RunResult until it reports, 40-150 KB each at the reference
# 5,000 iterations: 1,000 runs of one entry hold up to 150 MB
MAX_RUNS = 1_000
# one experiment's worker processes, each with its own numpy (about 30 MB); a constant, not
# the host's core count, so that a config valid on one machine is valid on every one
MAX_WORKERS = 64


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: which (function, dimension) entries to run, and how."""

    entries: tuple[tuple[str, int], ...]
    runs_per_entry: int = 10
    base_seed: int = 1
    params: AlgorithmParams = AlgorithmParams()

    def __post_init__(self) -> None:
        check_fields(self, runs_per_entry=(1, MAX_RUNS), base_seed=0)
        try:  # builds no problem; a ConfigurationError is a ValueError
            entries = tuple((str(name), check_entry(name, dim)[1]) for name, dim in self.entries)
        except (TypeError, ValueError) as exc:
            raise ConfigurationError(
                f"entries must be (function, dimension) pairs that a benchmark takes: {exc}"
            ) from None
        if not entries:
            raise ConfigurationError("entries must hold at least one (function, dimension) pair")
        object.__setattr__(self, "entries", entries)
        if not isinstance(self.params, AlgorithmParams):
            raise ConfigurationError(f"params must be an AlgorithmParams, got {self.params!r}")
        for _, dimension in entries:  # as initialize checks it, but before any worker starts
            checked("num_particles * dimension", self.params.num_particles * dimension, "int",
                    most=MAX_DRAW)


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
        finite = all(map(math.isfinite, bests))  # else the spread is undefined: stdev raises
        stddev = (statistics.stdev(bests) if finite else math.nan) if len(bests) > 1 else 0.0
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


_pool = None  # (processes, executor) that pooled calls share, started by the first
_pool_lock = threading.RLock()  # held by each pooled call, so one runs at a time
_parent_pools = []  # in a forked child: the parent's pool, never used nor collected


def _close_pool() -> None:
    """Shut the shared pool down, if one is running, and forget it."""
    global _pool
    with _pool_lock:
        if _pool is not None:
            _pool[1].shutdown(wait=True)  # its threads end here, before any later fork
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


def _pool_map(params: AlgorithmParams, tasks: list, processes: int) -> list:
    """``codoa.lockstep.run_many(params, task)`` for each task, in order, in the
    shared pool of ``processes`` processes.

    Every task is queued at once, and each process takes the next one as it
    frees up.  Each task is pickled, so its problems' evaluators must pickle.
    The pool is started on first use and kept for later calls.  A call with
    another number of processes replaces it, and so does one that finds it
    broken as the tasks are submitted (a worker died since the last call).  A
    call that fails while its tasks run, or whose tasks do not pickle, drops the
    pool and raises.  Calls from other threads wait for the one running to finish.
    """
    global _pool
    from concurrent.futures import ProcessPoolExecutor  # imports multiprocessing: only here
    from concurrent.futures.process import BrokenProcessPool

    from codoa.lockstep import run_many  # only where a pool runs it

    columns = [params] * len(tasks), tasks
    with _pool_lock:
        if _pool is not None and _pool[0] != processes:
            _close_pool()
        if _pool is None:
            _pool = (processes, ProcessPoolExecutor(max_workers=processes))
        try:
            try:
                results = _pool[1].map(run_many, *columns)  # submits every task before it returns
            except BrokenProcessPool:
                _close_pool()
                _pool = (processes, ProcessPoolExecutor(max_workers=processes))
                results = _pool[1].map(run_many, *columns)
            return list(results)
        except BaseException:
            _close_pool()
            raise


def run_experiment(config: ExperimentConfig, workers: int = 1) -> ExperimentReport:
    """Execute every entry of the experiment and collect statistics.

    ``workers`` is an integer from 1 to ``MAX_WORKERS``.  Each entry's problem is built
    once, and the experiment's runs are one list of ``(problem, seed)`` pairs in
    (entry, seed) order.  At 1 worker, each run is one call of ``run``.  Above
    1, :func:`codoa.lockstep.plan` deals the runs into tasks of one dimension
    each, which ``codoa.lockstep.run_many`` advances on one lockstep stack, giving
    each run's result bit for bit.  The tasks are queued in the plan's order,
    largest first, on a pool of ``min(workers, tasks)`` processes that later
    calls with as many processes reuse; each process takes the next task as it frees
    up, so the load balances by cost.  Results go back to their runs' places, so the
    report is identical to a serial execution.
    """
    workers = checked("workers", workers, "int", least=1, most=MAX_WORKERS)
    n = config.runs_per_entry
    seeds = range(config.base_seed, config.base_seed + n)
    problems = [make_problem(name, dim) for name, dim in config.entries]
    runs = [(problem, seed) for problem in problems for seed in seeds]
    workers = min(workers, len(runs))
    if workers > 1:
        from codoa.lockstep import plan  # only where a pool runs the tasks

        tasks = plan(runs, workers)
        done = _pool_map(config.params, [[runs[i] for i in ix] for ix in tasks],
                         min(workers, len(tasks)))
        results = [None] * len(runs)
        for i, result in zip(chain.from_iterable(tasks), chain.from_iterable(done)):
            results[i] = result
    else:
        results = [run(config.params, problem, seed) for problem, seed in runs]
    bests = [result.best_fitness for result in results]

    entry_reports = []
    for idx, ((name, dim), problem) in enumerate(zip(config.entries, problems)):
        stats = RunStatistics.from_runs(bests[idx * n : (idx + 1) * n])
        known = problem.known_minimum_value
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


def _finite_or_none(value):
    """``value``, or None (JSON's ``null``) where it is a float that is not finite."""
    return None if isinstance(value, float) and not math.isfinite(value) else value


def report_to_dict(report: ExperimentReport) -> dict:
    """JSON-ready view of a report: finite floats are kept exact for round-trips, and
    every other float (an infinite best, a NaN spread) is None."""
    config = report.config
    seeds = range(config.base_seed, config.base_seed + config.runs_per_entry)
    entries = []
    for entry in report.entries:
        row = {key: _finite_or_none(value) for key, value in _entry_row(report, entry).items()}
        row["run_bests"] = [_finite_or_none(best) for best in entry.stats.run_bests]
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
    if output_format not in REPORT_FORMATS:
        raise ConfigurationError(
            f"output_format must be one of {REPORT_FORMATS}, got {output_format!r}"
        )
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
        json.dump(report_to_dict(report), fh, indent=2, allow_nan=False)
        fh.write("\n")
        return
    rows = [_entry_row(report, entry) for entry in report.entries]
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerows(rows[:1])  # the header: a row's keys (none for a report of no entries)
    writer.writerows([_cell(value) for value in row.values()] for row in rows)
