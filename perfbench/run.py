"""Benchmark of the codoa minimizer: run time, throughput, set-up and memory.

Run from the repository root:

    python3 perfbench/run.py --workload booth2 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload grid15 --seed 1 --seconds 30 --trace 1
    python3 perfbench/run.py --pin    # re-pin digests.json from the current engine

Workloads are closed loops driven from this one process: run ``k`` uses
``seed + k`` and the next run starts when the previous one returns.

- ``booth2``: ``engine.run`` on booth, d=2, reference parameters at 500
  iterations.  Engine overhead dominates; the evaluator is a small share.
- ``rosenbrock30``: ``engine.run`` on rosenbrock, d=30, at 300 iterations.
  The evaluator is about half the time.
- ``grid15``: the 15 entries of ``table2_grid()`` at 2 runs x 50
  iterations through ``harness.run_experiment`` at 1 and at 2 workers, then
  ``write_report``.  Per-run fixed costs and the pool dominate.

The single-entry workloads alternate a serial block of ``engine.run`` calls
with the same seeds run through ``run_experiment`` at 2 workers, so every
workload reports throughput at 1 and 2 workers.

``--trace 0`` measures untraced runs for ``--seconds`` and prints the
end-to-end metrics.  Their timings are corrected for the machine's speed
drift (see ``calibrate.py``); the raw figures are printed beside them.
``--trace 1`` runs one fixed pass of the workload untraced, traced (see
``tracer.py``), untraced again and at 2 workers, and prints per-layer self
times and counts.  The pass is fixed work, not ``--seconds`` long, so that
its counts repeat exactly for a given seed.  Every run is checked (see
``checks.py``); the last line of standard output is a JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``, listing the
metrics that BENCHMARK.json names for the mode.  Result files and spans go
to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
OUT = BENCH / "out"
DIGESTS = BENCH / "digests.json"

if not (SRC / "codoa" / "__init__.py").is_file():
    sys.exit(f"perfbench: no codoa sources under {SRC}")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import codoa  # noqa: E402
import codoa.engine as engine  # noqa: E402
import codoa.harness as harness  # noqa: E402
import codoa.rng as rng  # noqa: E402
from calibrate import Clock  # noqa: E402
from checks import Tally, digest, exception_note, run_problems  # noqa: E402
from tracer import ENGINE_PHASES, Tracer  # noqa: E402

if Path(codoa.__file__).resolve().parent != SRC / "codoa":
    sys.exit(f"perfbench: imported codoa from {codoa.__file__}, not from {SRC}")

DEFAULT_SEED = 1
GATE_RUNS = 2  # pinned digests cover runs DEFAULT_SEED .. DEFAULT_SEED + GATE_RUNS - 1
MIN_BLOCKS = 3  # a timed loop makes at least this many blocks or passes
TRACE_RUNS = 12  # runs in the traced pass of a single-entry workload
KEEP_SPAN_RUNS = 1  # runs whose every span is written out
SETUP_SPAWNS = 15
CLI_SPAWNS = 3


@dataclass(frozen=True)
class Workload:
    name: str
    entries: tuple[tuple[str, int], ...]
    iterations: int
    runs_per_pass: int  # block size (single entry) or runs per entry (grid)

    @property
    def is_grid(self) -> bool:
        return len(self.entries) > 1

    def params(self):
        return codoa.AlgorithmParams(max_iterations=self.iterations)

    def config(self, base_seed: int, runs: int):
        return codoa.ExperimentConfig(
            entries=self.entries, runs_per_entry=runs, base_seed=base_seed, params=self.params()
        )


WORKLOADS = {
    wl.name: wl
    for wl in (
        Workload("booth2", (("booth", 2),), iterations=500, runs_per_pass=6),
        Workload("rosenbrock30", (("rosenbrock", 30),), iterations=300, runs_per_pass=6),
        Workload("grid15", codoa.table2_grid().entries, iterations=50, runs_per_pass=2),
    )
}


def jobs(wl: Workload, base_seed: int, runs: int) -> list[tuple[tuple[str, int], int]]:
    """(entry, seed) of every run of a config, in the harness's result order."""
    return [(entry, base_seed + k) for entry in wl.entries for k in range(runs)]


@contextlib.contextmanager
def collect_results():
    """Keep every ``RunResult`` the harness produces in this process.

    Only serial passes are seen: pool workers have their own copy of the
    harness.  The wrapper adds one list append per run and takes no times.
    """
    results = []
    original = harness.run

    def run_and_keep(*args, **kwargs):
        result = original(*args, **kwargs)
        results.append(result)
        return result

    harness.run = run_and_keep
    try:
        yield results
    finally:
        harness.run = original


def record_runs(wl, job_list, results, faults, problems, tally: Tally) -> None:
    """Check each run's invariants and count it, with the faults found so far."""
    params = wl.params()
    for i, ((name, dim), seed) in enumerate(job_list):
        if i < len(results):
            faults[i] += run_problems(results[i], problems[(name, dim)], params, seed)
        else:
            faults[i].append("no result")
        tally.record(f"{name}{dim} seed {seed}", faults[i])


def compare_bests(report, results, faults, what: str) -> None:
    """Note runs whose best differs from the one ``report`` holds for them."""
    bests = [b for entry in report.entries for b in entry.stats.run_bests]
    for result, best, run_faults in zip(results, bests, faults):
        if best != result.best_fitness:
            run_faults.append(f"{what} best differs from the serial run")


def default_results(wl: Workload):
    """The pinned runs: every entry at seeds DEFAULT_SEED .. + GATE_RUNS - 1."""
    with collect_results() as results:
        harness.run_experiment(wl.config(DEFAULT_SEED, GATE_RUNS), workers=1)
    keys = [f"{name}/{dim}/seed{seed}" for (name, dim), seed in jobs(wl, DEFAULT_SEED, GATE_RUNS)]
    return keys, results


def gate(wl: Workload, problems, tally: Tally) -> None:
    """Check the default-seed runs bit for bit against the pinned digests."""
    job_list = jobs(wl, DEFAULT_SEED, GATE_RUNS)
    try:
        keys, results = default_results(wl)
    except Exception as exc:  # a failed run is counted, not fatal
        note = exception_note(exc)
        for _ in job_list:
            tally.record("digest gate", [note])
        return
    pinned = json.loads(DIGESTS.read_text()).get(wl.name, {}) if DIGESTS.is_file() else {}
    faults = [[] for _ in job_list]
    for key, result, run_faults in zip(keys, results, faults):
        if pinned.get(key) is None:
            run_faults.append("no pinned digest")
        elif digest(result) != pinned[key]:
            run_faults.append("digest differs from the pinned one")
    record_runs(wl, job_list, results, faults, problems, tally)


def pin_digests() -> None:
    pinned = {}
    for wl in WORKLOADS.values():
        keys, results = default_results(wl)
        pinned[wl.name] = {key: digest(r) for key, r in zip(keys, results)}
    DIGESTS.write_text(json.dumps(pinned, indent=2, sort_keys=True) + "\n")
    print(f"pinned {sum(map(len, pinned.values()))} digests in {DIGESTS}")


def tail(samples):
    """Highest percentile with at least ten samples beyond it, or None."""
    if len(samples) < 11:
        return None
    ordered = sorted(samples)
    index = len(ordered) - 11
    return ordered[index], 100.0 * (index + 1) / len(ordered)


@dataclass
class Samples:
    """What one timed loop measured, before correction for machine speed.

    ``walls`` holds a (timing, runs) pair per serial run (single entry) or
    serial pass (grid); ``serial`` a (timings, runs, evals) triple per
    serial block or pass; ``pool`` a (timing, runs) pair per block or pass
    at 2 workers.
    """

    walls: list = field(default_factory=list)
    serial: list = field(default_factory=list)
    pool: list = field(default_factory=list)
    errors: list = field(default_factory=list)
    samples: str = ""


def measure_single(wl: Workload, seed: int, seconds: float, problems, tally: Tally, clock):
    """Serial ``engine.run`` blocks, each followed by its seeds at 2 workers."""
    entry = wl.entries[0]
    problem, params = problems[entry], wl.params()
    block = wl.runs_per_pass
    found = Samples()
    base = seed
    start = time.perf_counter()
    while len(found.pool) < MIN_BLOCKS or time.perf_counter() - start < seconds:
        job_list = jobs(wl, base, block)
        base += block
        faults = [[] for _ in job_list]
        results = []
        try:
            timings = []
            for _, run_seed in job_list:
                result, timed = clock.time(codoa.run, params, problem, run_seed)
                results.append(result)
                timings.append(timed)
                found.walls.append((timed, 1))
            found.serial.append((timings, block, sum(r.eval_count for r in results)))
            pooled, timed = clock.time(
                harness.run_experiment, wl.config(job_list[0][1], block), workers=2
            )
            found.pool.append((timed, block))
            compare_bests(pooled, results, faults, "pool")
        except Exception as exc:  # a failed run is counted, not fatal
            note = exception_note(exc)
            for run_faults in faults:
                run_faults.append(note)
        record_runs(wl, job_list, results, faults, problems, tally)
        for result in results:
            found.errors.append(abs(result.best_fitness - problem.known_minimum_value))
    found.samples = f"{len(found.walls)} runs in {len(found.serial)} blocks of {block}"
    return found


def measure_grid(wl: Workload, seed: int, seconds: float, problems, tally: Tally, clock):
    """Grid passes: serial, then at 2 workers, then the report written out."""
    runs = wl.runs_per_pass
    per_pass = runs * len(wl.entries)
    found = Samples()
    report_path = OUT / f"report-{os.getpid()}.json"
    base = seed
    start = time.perf_counter()
    while len(found.pool) < MIN_BLOCKS or time.perf_counter() - start < seconds:
        config = wl.config(base, runs)
        job_list = jobs(wl, base, runs)
        base += runs
        faults = [[] for _ in job_list]
        results = []
        try:
            with collect_results() as results:
                serial, timed = clock.time(harness.run_experiment, config, workers=1)
            found.walls.append((timed, per_pass))
            found.serial.append(([timed], per_pass, sum(r.eval_count for r in results)))
            pooled, timed = clock.time(harness.run_experiment, config, workers=2)
            found.pool.append((timed, per_pass))
            harness.write_report(serial, "json", str(report_path))
            compare_bests(pooled, results, faults, "pool")
            written = json.loads(report_path.read_text())
            bests = [b for row in written["entries"] for b in row["run_bests"]]
            for result, best, run_faults in zip(results, bests, faults):
                if best != result.best_fitness:
                    run_faults.append("written report differs from the run")
        except Exception as exc:  # a failed run is counted, not fatal
            note = exception_note(exc)
            for run_faults in faults:
                run_faults.append(note)
        record_runs(wl, job_list, results, faults, problems, tally)
        for (entry, _), result in zip(job_list, results):
            found.errors.append(abs(result.best_fitness - problems[entry].known_minimum_value))
    report_path.unlink(missing_ok=True)
    found.samples = f"{len(found.walls)} passes of {per_pass} runs"
    return found


def spawn_python(code: str) -> dict:
    """Run ``code`` in a fresh interpreter that imports codoa from ``src/``.

    The child prints one JSON object as its last line; it is returned.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=60,
    )
    if done.returncode != 0:
        raise RuntimeError(f"child exited {done.returncode}: {done.stderr.strip()[-300:]}")
    return json.loads(done.stdout.splitlines()[-1])


SETUP_CODE = """\
import json, time
start = time.perf_counter()
import codoa
problem = codoa.make_problem({name!r}, {dim})
codoa.initialize(codoa.AlgorithmParams(max_iterations={iterations}), problem, {seed})
print(json.dumps({{"times": [time.perf_counter() - start], "module": codoa.__file__}}))
"""

CLI_CODE = """\
import contextlib, io, json, time
start = time.perf_counter()
import codoa.cli
imported = time.perf_counter()
out = io.StringIO()
with contextlib.redirect_stdout(out):
    status = codoa.cli.main(["list"])
listed = time.perf_counter()
print(json.dumps({"times": [imported - start, listed - imported], "status": status,
                  "lines": len(out.getvalue().splitlines())}))
"""


def spawn_timings(label: str, code: str, spawns: int, check, tally: Tally, clock=None):
    """Medians of each child time over ``spawns`` fresh interpreters, after a warm-up.

    The warm-up writes the bytecode caches, so every timed child starts
    from the same state.  Returns (corrected medians, raw medians); without
    a clock both are raw.
    """
    children = []
    for i in range(spawns + 1):
        try:
            if clock is None:
                fields, timed = spawn_python(code), None
            else:
                fields, timed = clock.time(spawn_python, code)
        except (RuntimeError, OSError, ValueError, IndexError, subprocess.TimeoutExpired) as exc:
            tally.record(label, [str(exc)])
            continue
        tally.record(label, check(fields))
        if i > 0:
            children.append((fields["times"], timed))
    if not children:
        return None, None
    raw = [times for times, _ in children]
    rows = raw if clock is None else [
        [t * clock.factor(timed) for t in times] for times, timed in children
    ]
    return (
        [statistics.median(col) for col in zip(*rows)],
        [statistics.median(col) for col in zip(*raw)],
    )


def measure_setup(wl: Workload, seed: int, tally: Tally, clock):
    name, dim = wl.entries[0]
    code = SETUP_CODE.format(name=name, dim=dim, iterations=wl.iterations, seed=seed)
    init = str(SRC / "codoa" / "__init__.py")

    def check(fields):
        return [] if fields["module"] == init else [f"child imported {fields['module']}"]

    medians, raw = spawn_timings("setup", code, SETUP_SPAWNS, check, tally, clock)
    return (medians[0], raw[0]) if medians else (None, None)


def measure_cli(tally: Tally):
    functions = len(codoa.REGISTRY)

    def check(fields):
        status, lines = fields["status"], fields["lines"]
        return [] if status == 0 and lines == functions else [
            f"codoa list exited {status} with {lines} lines"
        ]

    medians, _ = spawn_timings("cli list", CLI_CODE, CLI_SPAWNS, check, tally)
    return medians or [None, None]


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0  # Linux reports kilobytes


def median(values):
    return statistics.median(values) if values else None


def end_to_end(wl: Workload, seed: int, seconds: float, problems, tally: Tally):
    """Timed loop, then set-up spawns; timings corrected for machine speed.

    Every timing is a median: over runs (or passes) for ``run_wall_s``,
    over serial blocks (or passes) for the serial rates, and over pool
    blocks (or passes) for ``runs_per_s_w2``.
    """
    clock = Clock()
    measure = measure_grid if wl.is_grid else measure_single
    found = measure(wl, seed, seconds, problems, tally, clock)
    setup, raw_setup = measure_setup(wl, seed, tally, clock)
    figures = {}
    for label, seconds_of in (("corrected", clock.corrected), ("raw", lambda t: t.raw)):
        busy = [(sum(map(seconds_of, timings)), runs, evals)
                for timings, runs, evals in found.serial]
        figures[label] = {
            "walls": [seconds_of(timed) / runs for timed, runs in found.walls],
            "evals_per_s": median([evals / s for s, _, evals in busy]),
            "runs_per_s_w1": median([runs / s for s, runs, _ in busy]),
            "runs_per_s_w2": median([runs / seconds_of(timed) for timed, runs in found.pool]),
        }
    walls = figures["corrected"]["walls"]
    metrics = {
        "run_wall_s": (median(walls), "s"),
        "evals_per_s": (figures["corrected"]["evals_per_s"], "1/s"),
        "runs_per_s_w1": (figures["corrected"]["runs_per_s_w1"], "1/s"),
        "runs_per_s_w2": (figures["corrected"]["runs_per_s_w2"], "1/s"),
        "setup_s": (setup, "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    raw = dict(figures["raw"], run_wall_s=median(figures["raw"]["walls"]), setup_s=raw_setup)
    notes = {name: f"raw {raw[name]:.6g}" for name in metrics if raw.get(name) is not None}
    notes["run_wall_s"] = f"{notes.get('run_wall_s', 'no runs')}; median of {found.samples}"
    notes["setup_s"] = f"{notes.get('setup_s', 'no spawns')}; median of {SETUP_SPAWNS} spawns"
    run_tail = tail(walls)
    if run_tail is None:
        notes["run_wall_s_tail"] = f"needs 11 samples, has {len(walls)}"
    else:
        metrics["run_wall_s_tail"] = (run_tail[0], "s")
        notes["run_wall_s_tail"] = f"p{run_tail[1]:.0f} of {len(walls)} samples"
    if found.errors:
        metrics["abs_err_p50"] = (median(found.errors), "f")
        notes["abs_err_p50"] = f"median over {len(found.errors)} seeds of |best - known minimum|"
    factors = [factor for _, factor in clock.marks]
    metrics["speed_factor"] = (median(factors), "ratio")
    notes["speed_factor"] = (
        f"reference kernel speed; {len(factors)} marks, {min(factors):.3f} to {max(factors):.3f}"
    )
    return metrics, notes, None


def per_layer(wl: Workload, seed: int, problems, tally: Tally):
    """The same fixed pass untraced, traced, untraced again and at 2 workers.

    Untraced passes on both sides of the traced one make the overhead ratio
    less sensitive to the machine's speed drifting during the measurement.
    """
    runs = wl.runs_per_pass if wl.is_grid else TRACE_RUNS
    config = wl.config(seed, runs)
    job_list = jobs(wl, seed, runs)
    faults = [[] for _ in job_list]
    tracer = Tracer(keep_runs=KEEP_SPAN_RUNS)
    report_path = OUT / f"report-{os.getpid()}.json"

    def timed(workers):
        start = time.perf_counter()
        report = harness.run_experiment(config, workers=workers)
        return report, time.perf_counter() - start

    try:
        with collect_results() as reference:
            _, wall_before = timed(1)
        with tracer.installed(engine, harness, rng):
            origin = time.perf_counter()
            traced = tracer.wrap("harness.run_experiment", harness.run_experiment)(
                config, workers=1
            )
            tracer.wrap("harness.write_report", harness.write_report)(
                traced, "json", str(report_path)
            )
            wall_traced = time.perf_counter() - origin
        _, wall_after = timed(1)
        pooled, wall_pool = timed(2)
        wall_serial = (wall_before + wall_after) / 2.0
        report_bytes = report_path.stat().st_size
    except Exception as exc:  # a failed run is counted, not fatal
        note = exception_note(exc)
        for _ in job_list:
            tally.record(f"{wl.name} traced pass", [note])
        return {}, {}, None
    finally:
        report_path.unlink(missing_ok=True)
    compare_bests(pooled, reference, faults, "pool")
    for result, traced_result, run_faults in zip(reference, tracer.results, faults):
        if traced_result != result:
            run_faults.append("traced run differs from the untraced one")
    record_runs(wl, job_list, reference, faults, problems, tally)

    self_sum = sum(tracer.stat(name)[0] for name in tracer.names())
    self_sum_ratio = self_sum / wall_traced
    tally.record("trace self times", [] if abs(self_sum_ratio - 1.0) <= 0.05 else [
        f"self times sum to {self_sum_ratio:.3f} of the traced wall time"
    ])
    evals = sum(r.eval_count for r in reference)
    eval_s, _, eval_calls = tracer.stat("benchmarks.evaluate")
    next_s, _, next_calls = tracer.stat("rng.next")
    draw_s, _, draw_calls = tracer.stat("rng.draw")
    values = next_calls + tracer.counts["values_drawn"]
    job_sum = tracer.stat("engine.run")[1]
    run_experiment_s = tracer.stat("harness.run_experiment")[1]
    engine_self = sum(tracer.stat(n)[0] for n in tracer.names() if n.startswith("engine."))
    cli_import, cli_list = measure_cli(tally)

    metrics = {
        "trace_overhead": (run_experiment_s / wall_serial, "ratio"),
        "trace.self_sum_ratio": (self_sum_ratio, "ratio"),
    }
    for phase in ENGINE_PHASES:
        phase_self, _, phase_calls = tracer.stat(f"engine.{phase}")
        metrics[f"engine.{phase}.self_s"] = (phase_self, "s")
        metrics[f"engine.{phase}.calls"] = (phase_calls, "count")
    metrics.update({
        "engine.self_share": (engine_self / wall_traced, "ratio"),
        "engine.ms_per_iter": (1000.0 * wall_serial / (len(job_list) * wl.iterations), "ms"),
        "benchmarks.eval_calls": (eval_calls, "count"),
        "benchmarks.evals": (evals, "count"),
        "benchmarks.evals_per_call": (evals / eval_calls if eval_calls else None, "ratio"),
        "benchmarks.eval_s": (eval_s, "s"),
        "benchmarks.us_per_eval": (1e6 * eval_s / eval_calls if eval_calls else None, "us"),
        "benchmarks.make_problem_s": (tracer.stat("benchmarks.make_problem")[0], "s"),
        "benchmarks.repeat_eval_ratio": (
            tracer.counts["repeat_evals"] / eval_calls if eval_calls else None, "ratio"
        ),
        "rng.next_calls": (next_calls, "count"),
        "rng.draw_calls": (draw_calls, "count"),
        "rng.values_drawn": (values, "count"),
        "rng.values_per_call": (
            values / (next_calls + draw_calls) if next_calls + draw_calls else None, "ratio"
        ),
        "rng.self_s": (next_s + draw_s, "s"),
        "harness.run_experiment_s": (run_experiment_s, "s"),
        "harness.job_sum_s": (job_sum, "s"),
        "harness.overhead_s": (run_experiment_s - job_sum, "s"),
        "harness.pool_efficiency": (wall_serial / (2.0 * wall_pool), "ratio"),
        "harness.write_report_s": (tracer.stat("harness.write_report")[1], "s"),
        "harness.report_bytes": (report_bytes, "bytes"),
        "cli.import_s": (cli_import, "s"),
        "cli.list_s": (cli_list, "s"),
    })
    notes = {
        "trace_overhead": f"traced {run_experiment_s:.3f} s / untraced {wall_serial:.3f} s "
        f"(mean of the passes before and after) over {len(job_list)} runs",
        "engine.ms_per_iter": "untraced serial passes",
        "harness.pool_efficiency": f"serial {wall_serial:.3f} s / (2 x pool {wall_pool:.3f} s)",
        "cli.import_s": f"median of {CLI_SPAWNS} fresh interpreters",
    }
    for phase in ENGINE_PHASES:
        if not hasattr(engine, phase):
            notes[f"engine.{phase}.self_s"] = "absent"
            notes[f"engine.{phase}.calls"] = "absent"
    return metrics, notes, (tracer, origin)


def git_state():
    """(sha, dirty) of the checkout, or (None, None) outside a git work tree."""
    env = dict(
        os.environ,
        GIT_CEILING_DIRECTORIES=str(ROOT.parent),
        GIT_CONFIG_NOSYSTEM="1",
        GIT_CONFIG_GLOBAL=os.devnull,
    )

    def git(*args):
        return subprocess.run(
            ["git", "--no-optional-locks", *args],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=30,
        )

    try:
        top = git("rev-parse", "--show-toplevel")
        if top.returncode != 0 or Path(top.stdout.strip()).resolve() != ROOT:
            return None, None
        sha = git("rev-parse", "HEAD").stdout.strip() or None
        dirty = bool(git("status", "--porcelain", "--untracked-files=no").stdout.strip())
    except (OSError, subprocess.TimeoutExpired):
        return None, None
    return sha, dirty


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(wl: Workload, args) -> dict:
    sha, dirty = git_state()
    return {
        "cpu_model": cpu_model(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": sha,
        "git_dirty": dirty,
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "iterations": wl.iterations,
        "particles": wl.params().num_particles,
        "entries": len(wl.entries),
    }


def contract_names(trace: bool) -> list[str]:
    """Metric names that BENCHMARK.json lists for this mode."""
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in contract["per_layer" if trace else "end_to_end"]]


def parse_args(argv=None):
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", action="store_true", help="re-pin digests.json and exit")
    args = parser.parse_args(argv)
    if not args.pin and args.workload is None:
        parser.error("--workload is required")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.pin:
        pin_digests()
        return 0
    wl = WORKLOADS[args.workload]
    names = contract_names(bool(args.trace))
    OUT.mkdir(exist_ok=True)
    env = environment(wl, args)
    problems = {entry: codoa.make_problem(*entry) for entry in wl.entries}
    tally = Tally()
    gate(wl, problems, tally)
    if args.trace:
        metrics, notes, trace = per_layer(wl, args.seed, problems, tally)
    else:
        metrics, notes, trace = end_to_end(wl, args.seed, args.seconds, problems, tally)

    print(f"workload {wl.name}: seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    print("environment " + json.dumps(env))
    for name, (value, unit) in metrics.items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"{name:32} {shown:>12} {unit:6} {notes.get(name, '')}")
    for name, note in notes.items():
        if name not in metrics:
            print(f"{name:32} {'n/a':>12} {'':6} {note}")
    print(f"{'fail_frac':32} {tally.failed / max(tally.attempted, 1):>12.6g} {'ratio':6} "
          f"{tally.failed} of {tally.attempted} checked runs and spawns failed")
    for note in tally.notes:
        print(f"failure: {note}")

    stem = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    record = {
        "environment": env,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failures": tally.notes,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "notes": notes,
    }
    (OUT / f"result-{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    if trace is not None:
        tracer, origin = trace
        tracer.write_spans(OUT / f"spans-{stem}.jsonl", origin)

    missing = [n for n in names if metrics.get(n, (None,))[0] is None]
    print(json.dumps({
        "correct": tally.failed == 0 and not missing,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            n: {"value": metrics[n][0], "unit": metrics[n][1]} for n in names if n not in missing
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
