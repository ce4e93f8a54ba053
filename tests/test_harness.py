"""Experiment harness tests: statistics, determinism, reports, config validation."""

import dataclasses
import json
import math
import multiprocessing
import os
import pickle
import signal
import stat
import subprocess
import sys
import threading
import time
import types

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from codoa import benchmarks, harness
from codoa.benchmarks import REGISTRY, make_problem
from codoa.cli import main
from codoa.engine import AlgorithmParams, ConfigurationError, ObjectiveProblem, run
from codoa.harness import (
    ExperimentConfig,
    RunStatistics,
    report_to_dict,
    run_experiment,
    table2_grid,
    write_report,
)

from support import naive_mean, naive_median, naive_sample_stdev

REPORT_COLUMNS = ("function", "dimension", "runs", "best", "worst", "mean", "median", "stddev",
                  "known_minimum", "abs_error", "base_seed")  # the CSV header, pinned

SMALL_PARAMS = AlgorithmParams(num_particles=4, max_iterations=8)
SRC = os.path.dirname(os.path.dirname(os.path.abspath(harness.__file__)))

# booth's row form as a module-level lambda: it runs, but pickle cannot find it by name
LAMBDA_BOOTH = lambda pos: benchmarks.booth(float(pos[0]), float(pos[1]))  # noqa: E731

# argv[1] is the start method; prints "equal" twice when pooled == serial, before and
# after REGISTRY["booth"] is replaced by a spec with sphere's function
POOLED_EQUALS_SERIAL_SCRIPT = """
import dataclasses
import multiprocessing
import sys

from codoa import AlgorithmParams, ExperimentConfig, REGISTRY, run_experiment


def pooled_equals_serial(config):
    serial = run_experiment(config)
    print("equal" if run_experiment(config, workers=2) == serial else "differ")
    return serial


if __name__ == "__main__":
    multiprocessing.set_start_method(sys.argv[1])
    config = ExperimentConfig(entries=(("booth", 2), ("sphere", 3)), runs_per_entry=3,
                              params=AlgorithmParams(num_particles=4, max_iterations=8))
    before = pooled_equals_serial(config)
    REGISTRY["booth"] = dataclasses.replace(REGISTRY["booth"], func=REGISTRY["sphere"].func)
    assert pooled_equals_serial(config) != before
"""


@pytest.fixture()
def small_config():
    return ExperimentConfig(
        entries=(("booth", 2), ("sphere", 3)),
        runs_per_entry=3,
        base_seed=7,
        params=SMALL_PARAMS,
    )


@pytest.fixture(scope="module")
def small_report():
    config = ExperimentConfig(
        entries=(("booth", 2), ("sphere", 3)),
        runs_per_entry=3,
        base_seed=7,
        params=SMALL_PARAMS,
    )
    return run_experiment(config)


@pytest.fixture()
def no_pool_yet():
    """Start with no shared pool, and shut down the one the test leaves."""
    harness._close_pool()
    yield
    harness._close_pool()


@pytest.fixture()
def problems_built(monkeypatch):
    """Every ObjectiveProblem this process constructs, in order."""
    built, post_init = [], ObjectiveProblem.__post_init__

    def counted_post_init(problem):
        post_init(problem)
        built.append(problem)

    monkeypatch.setattr(ObjectiveProblem, "__post_init__", counted_post_init)
    return built


@pytest.fixture()
def pools_made(no_pool_yet, monkeypatch):
    """Every executor the harness constructs, in order; each is a real pool."""
    from concurrent.futures import ProcessPoolExecutor

    made = []

    class CountedPool(ProcessPoolExecutor):
        def __init__(self, max_workers):
            super().__init__(max_workers=max_workers)
            made.append(self)

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", CountedPool)
    return made


class TestRunExperiment:
    def test_statistics_match_direct_engine_runs(self, small_config, small_report):
        assert small_report.config == small_config
        for name, dim in small_config.entries:
            problem = make_problem(name, dim)
            bests = [
                run(SMALL_PARAMS, problem, seed=7 + k).best_fitness for k in range(3)
            ]
            entry = next(e for e in small_report.entries if e.function == name)
            assert entry.stats.run_bests == tuple(bests)
            assert entry.stats.best == min(bests)
            assert entry.stats.worst == max(bests)
            assert entry.stats.mean == pytest.approx(naive_mean(bests))
            assert entry.stats.median == pytest.approx(naive_median(bests))
            assert entry.stats.stddev == pytest.approx(naive_sample_stdev(bests))
            assert entry.abs_error == abs(min(bests) - entry.known_minimum)
        rows = report_to_dict(small_report)["entries"]
        assert [row["seeds"] for row in rows] == [[7, 8, 9], [7, 8, 9]]

    def test_single_run_statistics_collapse(self):
        config = ExperimentConfig(entries=(("booth", 2),), runs_per_entry=1,
                                  base_seed=3, params=SMALL_PARAMS)
        entry = run_experiment(config).entries[0]
        s = entry.stats
        assert s.best == s.worst == s.mean == s.median
        assert s.stddev == 0.0

    def test_same_config_twice_is_identical(self, small_config):
        assert run_experiment(small_config) == run_experiment(small_config)

    def test_entry_order_does_not_change_per_entry_statistics(self, small_config):
        forward = run_experiment(small_config)
        reversed_config = ExperimentConfig(
            entries=tuple(reversed(small_config.entries)),
            runs_per_entry=small_config.runs_per_entry,
            base_seed=small_config.base_seed,
            params=small_config.params,
        )
        backward = run_experiment(reversed_config)
        by_name = {e.function: e for e in backward.entries}
        for entry in forward.entries:
            assert by_name[entry.function] == entry

    @pytest.mark.parametrize("runs", [3, 5])  # 5 runs at 2 workers: chunks of 2 and 3 seeds
    def test_worker_pool_matches_serial_execution(self, small_config, runs):
        config = dataclasses.replace(small_config, runs_per_entry=runs)
        assert run_experiment(config, workers=2) == run_experiment(config)

    def test_serial_runs_are_harness_run_calls_on_one_problem_per_entry(self, small_config,
                                                                         monkeypatch):
        # perfbench patches these two names to see, and to time, every serial run
        problems, runs = [], []

        def counted_make_problem(name, dim):
            problems.append((name, dim, make_problem(name, dim)))
            return problems[-1][2]

        def counted_run(params, problem, seed):
            runs.append((problem, seed))
            return run(params, problem, seed)

        monkeypatch.setattr(harness, "make_problem", counted_make_problem)
        monkeypatch.setattr(harness, "run", counted_run)
        report = run_experiment(small_config, workers=1)
        monkeypatch.undo()
        assert [(name, dim) for name, dim, _ in problems] == list(small_config.entries)
        assert runs == [(problem, seed) for _, _, problem in problems for seed in (7, 8, 9)]
        assert report == run_experiment(small_config)

    @pytest.mark.parametrize("workers", [2.5, "2", 0, -1, True, None])
    def test_rejects_bad_worker_counts_naming_the_field(self, small_config, workers):
        with pytest.raises(ConfigurationError, match="workers"):
            run_experiment(small_config, workers=workers)

    @pytest.mark.parametrize("workers, expected", [(2, 2), (7, 6)])
    def test_pool_holds_at_most_one_process_per_job(self, small_config, no_pool_yet,
                                                     monkeypatch, workers, expected):
        sizes = []

        class SerialPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def map(self, fn, *iterables):
                return map(fn, *iterables)

            def shutdown(self, wait=True):
                pass

        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", SerialPool)
        assert run_experiment(small_config, workers=workers) == run_experiment(small_config)
        assert sizes == [expected]  # 2 entries x 3 runs: 6 jobs

    def test_single_job_runs_without_a_pool(self, no_pool_yet, monkeypatch):
        def no_pool(**kwargs):
            raise AssertionError("a pool was started for one job")

        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", no_pool)
        config = ExperimentConfig(entries=(("booth", 2),), runs_per_entry=1, params=SMALL_PARAMS)
        assert run_experiment(config, workers=2) == run_experiment(config)

    def test_consecutive_pooled_calls_share_one_pool(self, small_config, pools_made):
        serial = run_experiment(small_config)
        assert run_experiment(small_config, workers=2) == serial
        assert run_experiment(small_config, workers=2) == serial
        assert len(pools_made) == 1

    def test_another_process_count_replaces_the_pool(self, small_config, pools_made):
        serial = run_experiment(small_config)
        assert run_experiment(small_config, workers=2) == serial
        assert run_experiment(small_config, workers=3) == serial
        assert len(pools_made) == 2
        with pytest.raises(RuntimeError, match="shutdown"):
            pools_made[0].submit(int)

    def test_pool_whose_worker_died_is_replaced(self, small_config, pools_made):
        from concurrent.futures.process import BrokenProcessPool

        serial = run_experiment(small_config)
        assert run_experiment(small_config, workers=2) == serial
        with pytest.raises(BrokenProcessPool):  # raised once the pool knows it is broken
            pools_made[0].submit(os._exit, 1).result(timeout=60)
        assert run_experiment(small_config, workers=2) == serial
        assert len(pools_made) == 2

    def test_pool_that_breaks_during_a_run_is_dropped(self, small_config, no_pool_yet,
                                                       monkeypatch):
        from concurrent.futures.process import BrokenProcessPool

        closed = []

        class BreakingPool:
            def __init__(self, max_workers):
                pass

            def map(self, fn, *iterables):
                yield fn(*next(zip(*iterables)))
                raise BrokenProcessPool("a worker died")

            def shutdown(self, wait=True):
                closed.append(wait)

        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", BreakingPool)
        with pytest.raises(BrokenProcessPool):
            run_experiment(small_config, workers=2)
        assert closed == [True]
        assert harness._pool is None

    # the caller threads are alive when the first call forks its pool
    @pytest.mark.filterwarnings("ignore:This process:DeprecationWarning")
    def test_pooled_calls_from_threads_match_serial(self, small_config, no_pool_yet):
        serial = run_experiment(small_config)
        got = []

        def call(workers):
            got.append(run_experiment(small_config, workers=workers))

        threads = [threading.Thread(target=call, args=(2 + i % 2,)) for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not any(thread.is_alive() for thread in threads)
        assert got == [serial] * 4

    # the pool's threads, and a thread holding the harness lock, are alive at the fork
    @pytest.mark.filterwarnings("ignore:This process:DeprecationWarning")
    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_starts_its_own_pool(self, small_config, no_pool_yet):
        serial = run_experiment(small_config)
        assert run_experiment(small_config, workers=2) == serial
        held, release = threading.Event(), threading.Event()

        def hold_lock():
            with harness._pool_lock:
                held.set()
                release.wait(timeout=120)

        holder = threading.Thread(target=hold_lock)
        holder.start()
        assert held.wait(timeout=60)
        pid = os.fork()
        if pid == 0:  # the child makes one pooled call and leaves without running pytest on
            code = 1
            try:
                os.setpgid(0, 0)  # its pool joins its group, so a timeout can kill them all
                code = 0 if run_experiment(small_config, workers=2) == serial else 2
                harness._close_pool()
            finally:
                os._exit(code)
        release.set()
        holder.join()
        deadline = time.monotonic() + 60
        while (done := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
            time.sleep(0.05)
        if done[0] == 0:
            os.killpg(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        assert done[0] == pid, "the child's pooled call did not finish within 60 s"
        assert os.waitstatus_to_exitcode(done[1]) == 0
        assert run_experiment(small_config, workers=2) == serial  # the parent's pool still works

    def test_a_replaced_registry_entry_runs_in_the_same_pool(self, small_config, pools_made,
                                                              monkeypatch):
        before = run_experiment(small_config)
        assert run_experiment(small_config, workers=2) == before
        booth = dataclasses.replace(REGISTRY["booth"], func=REGISTRY["sphere"].func)
        monkeypatch.setitem(REGISTRY, "booth", booth)
        serial = run_experiment(small_config)
        assert serial != before
        assert run_experiment(small_config, workers=2) == serial
        assert len(pools_made) == 1

    def test_pooled_runs_use_the_problem_the_harness_built(self, small_config, pools_made,
                                                           monkeypatch):
        before = run_experiment(small_config)
        assert run_experiment(small_config, workers=2) == before  # the workers are running

        def booth_box_with_sphere(name, dim):
            return dataclasses.replace(make_problem(name, dim), evaluator=benchmarks.sphere)

        monkeypatch.setattr(harness, "make_problem", booth_box_with_sphere)
        serial = run_experiment(small_config)
        assert serial != before
        assert run_experiment(small_config, workers=2) == serial
        assert len(pools_made) == 1

    @pytest.mark.parametrize("method", ["spawn", "forkserver"])
    def test_pooled_equals_serial_under_start_method(self, method, tmp_path):
        if method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"no {method} start method here")
        # a file, not -c: spawn and forkserver workers import the parent's __main__
        script = tmp_path / "pooled_equals_serial.py"
        script.write_text(POOLED_EQUALS_SERIAL_SCRIPT)
        done = subprocess.run([sys.executable, str(script), method],
                              env=dict(os.environ, PYTHONPATH=SRC),
                              capture_output=True, text=True, timeout=300)
        assert (done.returncode, done.stderr) == (0, "")
        assert done.stdout.split() == ["equal", "equal"]

    def test_evaluator_that_does_not_pickle_fails_the_pooled_call_and_drops_the_pool(
            self, small_config, no_pool_yet, monkeypatch):
        spec = dataclasses.replace(REGISTRY["booth"], name="lambda_booth", func=LAMBDA_BOOTH)
        monkeypatch.setitem(REGISTRY, "lambda_booth", spec)
        config = dataclasses.replace(small_config, entries=(("lambda_booth", 2),))
        run_experiment(config)  # the spec itself is sound: it runs serially
        with pytest.raises(pickle.PicklingError):
            run_experiment(config, workers=2)
        assert harness._pool is None
        assert run_experiment(small_config, workers=2) == run_experiment(small_config)

    def test_pooled_cli_run_exits_cleanly(self):
        args = ["run", "--function", "booth", "--iterations", "20", "--runs", "4",
                "--workers", "2"]
        done = subprocess.run([sys.executable, "-m", "codoa.cli", *args],
                              env=dict(os.environ, PYTHONPATH=SRC),
                              capture_output=True, text=True, timeout=120)
        assert (done.returncode, done.stderr) == (0, "")
        assert "function=booth" in done.stdout

    def test_importing_codoa_does_not_import_multiprocessing(self):
        code = ("import sys, codoa; print(any(m.startswith('multiprocessing') or m == "
                "'codoa.lockstep' for m in sys.modules))")
        done = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=SRC),
                              capture_output=True, text=True, timeout=60, check=True)
        assert done.stdout.strip() == "False"

    def test_a_replaced_spec_with_a_bad_box_fails_in_run_experiment_before_any_run(
            self, small_config, monkeypatch):
        runs = []
        monkeypatch.setattr(harness, "run", lambda *args: runs.append(args))
        sphere = dataclasses.replace(REGISTRY["sphere"], bounds=((1.0, -1.0),))
        monkeypatch.setitem(REGISTRY, "sphere", sphere)
        config = dataclasses.replace(small_config)  # the entry is known: the config holds
        with pytest.raises(ConfigurationError, match="lower_bounds"):
            run_experiment(config)
        assert runs == []

    def test_invalid_entry_fails_before_any_run(self):
        with pytest.raises(ConfigurationError, match="booth"):
            ExperimentConfig(entries=(("booth", 3),), params=SMALL_PARAMS)

    def test_malformed_entry_shape_is_rejected(self):
        with pytest.raises(ConfigurationError, match="pair"):
            ExperimentConfig(entries=("booth",), params=SMALL_PARAMS)

    def test_rejects_nonpositive_runs(self):
        with pytest.raises(ConfigurationError, match="runs_per_entry"):
            ExperimentConfig(entries=(("booth", 2),), runs_per_entry=0)

    @pytest.mark.parametrize("field, kwargs", [
        ("runs_per_entry", {"runs_per_entry": 1.5}),
        ("runs_per_entry", {"runs_per_entry": "3"}),
        ("base_seed", {"base_seed": "1"}),
        ("base_seed", {"base_seed": -1}),
        ("entries", {"entries": (("sphere", 2.7),)}),
        ("entries", {"entries": (("sphere", True),)}),
        ("entries", {"entries": ()}),
        ("params", {"params": {"num_particles": 4}}),
        ("params", {"params": None}),
    ])
    def test_rejects_ill_typed_settings_naming_the_field(self, field, kwargs):
        with pytest.raises(ConfigurationError, match=field):
            ExperimentConfig(**{"entries": (("booth", 2),), **kwargs})

    def test_huge_entry_dimension_is_rejected_naming_it(self):
        for dimension in (2**64, 2**62):
            with pytest.raises(ConfigurationError, match=f"dimension={dimension}"):
                ExperimentConfig(entries=(("sphere", dimension),))

    def test_numpy_integers_are_accepted_as_plain_ints(self):
        config = ExperimentConfig(entries=(("sphere", np.int64(3)),),
                                  runs_per_entry=np.int32(2), base_seed=np.uint64(2**63))
        assert config.entries == (("sphere", 3),) and type(config.entries[0][1]) is int
        assert type(config.runs_per_entry) is int and config.base_seed == 2**63


class TestWhereProblemsAreBuilt:
    def test_configs_build_no_problem(self, problems_built):
        config = ExperimentConfig(entries=(("booth", 2), ("sphere", 3)), params=SMALL_PARAMS)
        dataclasses.replace(table2_grid(), runs_per_entry=2, base_seed=3)
        dataclasses.replace(config, entries=(("rosenbrock", 30),))
        assert problems_built == []

    @pytest.mark.parametrize("workers", [1, 2])
    def test_run_experiment_builds_one_problem_per_entry(self, problems_built, no_pool_yet,
                                                         workers):
        config = dataclasses.replace(table2_grid(), runs_per_entry=2, params=SMALL_PARAMS)
        run_experiment(config, workers=workers)
        assert [p.dimension for p in problems_built] == [dim for _, dim in config.entries]

    def test_codoa_table2_builds_one_problem_per_entry(self, problems_built, monkeypatch,
                                                        tmp_path):
        # each run is stubbed out: what is counted is the path from the command to the runs
        monkeypatch.setattr(harness, "run",
                            lambda params, problem, seed: types.SimpleNamespace(best_fitness=1.0))
        assert main(["table2", "--runs", "2", "--out", str(tmp_path / "table2.csv")]) == 0
        assert len(problems_built) == len(table2_grid().entries) == 15


class TestTable2Grid:
    def test_has_fifteen_entries(self):
        assert len(table2_grid().entries) == 15

    def test_two_dimensional_functions_appear_only_at_dimension_two(self):
        entries = table2_grid().entries
        for name in ("booth", "beale", "goldstein_price", "mccormick",
                     "three_hump_camel"):
            dims = [d for n, d in entries if n == name]
            assert dims == [2]

    def test_polymorphic_functions_cover_the_dimension_ladder(self):
        entries = table2_grid().entries
        for name in ("sphere", "rosenbrock"):
            assert [d for n, d in entries if n == name] == [2, 5, 10, 20, 30]

    def test_reference_settings_echoed(self):
        config = table2_grid()
        p = config.params
        assert (p.num_particles, p.max_iterations) == (50, 5000)
        assert (p.initial_ir, p.max_ir) == (0.5, 10.0)
        assert (p.maturity_limit, p.rationality_rate) == (3, 2)
        assert config.runs_per_entry == 10
        assert config.base_seed == 1


class TestWriteReport:
    def test_csv_has_header_plus_one_line_per_entry(self, small_report, tmp_path):
        path = tmp_path / "report.csv"
        write_report(small_report, "csv", path)
        lines = path.read_text().splitlines()
        assert len(lines) == 1 + len(small_report.entries)
        assert lines[0] == ",".join(REPORT_COLUMNS)

    def test_csv_carries_known_minimum_and_seed(self, small_report, tmp_path):
        path = tmp_path / "report.csv"
        write_report(small_report, "csv", path)
        booth_row = path.read_text().splitlines()[1].split(",")
        row = dict(zip(REPORT_COLUMNS, booth_row))
        assert row["function"] == "booth"
        assert row["known_minimum"] == "0"
        assert row["base_seed"] == "7"
        assert row["runs"] == "3"

    def test_csv_numbers_carry_at_least_six_significant_digits(self, small_report,
                                                                tmp_path):
        path = tmp_path / "report.csv"
        write_report(small_report, "csv", path)
        row = dict(zip(REPORT_COLUMNS, path.read_text().splitlines()[1].split(",")))
        for col in ("best", "worst", "mean", "median"):
            parsed = float(row[col])
            reference = getattr(small_report.entries[0].stats, col)
            assert math.isclose(parsed, reference, rel_tol=1e-6, abs_tol=1e-12)

    def test_csv_bytes_are_deterministic(self, small_report, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_report(small_report, "csv", a)
        write_report(small_report, "csv", b)
        assert a.read_bytes() == b.read_bytes()

    def test_stdout_mode(self, small_report, capsys):
        write_report(small_report, "csv", None)
        out = capsys.readouterr().out
        assert out.startswith(",".join(REPORT_COLUMNS))
        assert len(out.splitlines()) == 3

    def test_json_round_trips_exactly(self, small_report, tmp_path):
        path = tmp_path / "report.json"
        write_report(small_report, "json", path)
        parsed = json.loads(path.read_text())
        assert parsed == report_to_dict(small_report)
        entry = parsed["entries"][0]
        stats = small_report.entries[0].stats
        assert entry["best"] == stats.best
        assert entry["run_bests"] == list(stats.run_bests)
        assert entry["seeds"] == [7, 8, 9]
        assert parsed["params"]["num_particles"] == 4

    def test_unwritable_destination_raises_with_path(self, small_report, tmp_path):
        missing = tmp_path / "no_such_dir" / "report.csv"
        with pytest.raises(OSError, match="no_such_dir"):
            write_report(small_report, "csv", missing)

    def test_rejects_unknown_format(self, small_report):
        with pytest.raises(ConfigurationError, match="output_format"):
            write_report(small_report, "yaml", None)

    def test_replaces_an_existing_report(self, small_report, tmp_path):
        path = tmp_path / "report.csv"
        path.write_text("previous report\n")
        write_report(small_report, "csv", path)
        assert path.read_text().startswith(",".join(REPORT_COLUMNS))
        assert os.listdir(tmp_path) == ["report.csv"]

    def test_writes_into_a_fifo_in_place(self, small_report, tmp_path):
        fifo = tmp_path / "report.fifo"
        os.mkfifo(fifo)
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)  # so opening to write won't block
        try:
            write_report(small_report, "csv", fifo)
            written = os.read(reader, 1 << 16).decode()
        finally:
            os.close(reader)
        assert written.startswith(",".join(REPORT_COLUMNS))
        assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
        assert os.listdir(tmp_path) == ["report.fifo"]

    def test_writes_through_a_symlink(self, small_report, tmp_path):
        target = tmp_path / "target.csv"
        target.write_text("previous report\n")
        link = tmp_path / "report.csv"
        link.symlink_to(target)
        write_report(small_report, "csv", link)
        assert link.is_symlink()
        assert target.read_text().startswith(",".join(REPORT_COLUMNS))
        assert sorted(os.listdir(tmp_path)) == ["report.csv", "target.csv"]

    @pytest.mark.parametrize("existing", [b"previous report\n", None])
    def test_failed_write_leaves_no_partial_file(self, small_report, tmp_path, monkeypatch,
                                                 existing):
        path = tmp_path / "report.csv"
        if existing is not None:
            path.write_bytes(existing)

        def failing_row(report, entry):  # _emit has written the header by now
            raise OSError("disk full")

        monkeypatch.setattr(harness, "_entry_row", failing_row)
        with pytest.raises(OSError, match="disk full"):
            write_report(small_report, "csv", path)
        if existing is None:
            assert os.listdir(tmp_path) == []
        else:
            assert path.read_bytes() == existing
            assert os.listdir(tmp_path) == ["report.csv"]


class TestRunStatistics:
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False,
                              min_value=-1e6, max_value=1e6),
                    min_size=1, max_size=30))
    @settings(max_examples=100)
    def test_matches_naive_formulas(self, values):
        stats = RunStatistics.from_runs(values)
        assert stats.best == min(values)
        assert stats.worst == max(values)
        assert math.isclose(stats.mean, naive_mean(values), rel_tol=1e-9,
                            abs_tol=1e-9)
        assert math.isclose(stats.median, naive_median(values), rel_tol=1e-12,
                            abs_tol=1e-12)
        assert math.isclose(stats.stddev, naive_sample_stdev(values), rel_tol=1e-6,
                            abs_tol=1e-9)
        assert stats.best <= stats.median <= stats.worst
        assert stats.stddev >= 0.0

    @pytest.mark.parametrize("values", [[math.inf, 1.0], [math.inf, math.inf],
                                        [2.0, math.inf, 0.5]])
    def test_an_infinite_best_makes_the_stddev_nan(self, values):
        stats = RunStatistics.from_runs(values)
        assert (stats.best, stats.worst, stats.mean) == (min(values), math.inf, math.inf)
        assert stats.run_bests == tuple(values)
        assert math.isnan(stats.stddev)

    def test_one_run_has_no_spread_even_at_inf(self):
        assert RunStatistics.from_runs([math.inf]).stddev == 0.0


VALID_DOC = {
    "entries": [["booth", 2], ["sphere", 3]],
    "runs_per_entry": 2,
    "base_seed": 1,
    "num_particles": 4,
    "max_iterations": 8,
    "initial_ir": 0.5,
    "max_ir": 10.0,
    "maturity_limit": 3,
    "rationality_rate": 2,
}

# Integers inside entries stay small: building a problem allocates per
# dimension, so a dimension near 10**9 would exhaust memory.
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-10, 10**4) | st.floats() | st.text(max_size=12)
    | st.sampled_from(["booth", "sphere"]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=6,
)
huge_ints = st.sampled_from([2**64, -(2**64), 10**400])


@st.composite
def perturbed_documents(draw):
    """VALID_DOC with one key dropped, replaced or added, or one entry element replaced."""
    doc = json.loads(json.dumps(VALID_DOC))
    key = draw(st.sampled_from([*VALID_DOC, "one entry", "new key"]))
    if key == "one entry":
        doc["entries"][draw(st.integers(0, 1))][draw(st.integers(0, 1))] = draw(json_values)
    elif key == "new key":
        doc[draw(st.text(max_size=12))] = draw(json_values)
    elif draw(st.booleans()):
        del doc[key]
    else:
        doc[key] = draw(json_values if key == "entries" else json_values | huge_ints)
    return doc


PARAM_KEYS = {f.name for f in dataclasses.fields(AlgorithmParams)}
CONFIG_KEYS = {"entries", "runs_per_entry", "base_seed"}


@given(doc=perturbed_documents())
@settings(max_examples=300, deadline=None)
def test_config_from_a_document_yields_a_config_or_a_configuration_error(doc):
    """Settings parsed from JSON build a config or fail with ConfigurationError.

    A key that neither constructor takes, or no ``entries``, is Python's TypeError.
    """
    rest = {k: v for k, v in doc.items() if k not in PARAM_KEYS}
    try:
        config = ExperimentConfig(
            params=AlgorithmParams(**{k: v for k, v in doc.items() if k in PARAM_KEYS}), **rest
        )
    except ConfigurationError:
        return
    except TypeError:
        assert set(rest) - CONFIG_KEYS or "entries" not in rest
        return
    assert isinstance(config, ExperimentConfig)
