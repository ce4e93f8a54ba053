"""Command-line interface tests: parsing, defaults, outputs, exit codes."""

import dataclasses
import json
import math

import pytest

from codoa.benchmarks import REGISTRY
from codoa.cli import _PARAM_FLAGS, UsageError, main, parse_args
from codoa.engine import AlgorithmParams
from codoa.harness import ExperimentConfig


class TestParsing:
    def test_the_run_flags_set_every_algorithm_parameter(self):
        flagged = {name for _, name, _ in _PARAM_FLAGS}
        assert flagged == {f.name for f in dataclasses.fields(AlgorithmParams)}

    def test_run_defaults_are_the_reference_settings(self):
        ns = parse_args(["run", "--function", "booth", "--seed", "7"])
        assert ns.subcommand == "run"
        assert ns.function == "booth"
        assert ns.dims == 2
        assert ns.particles == 50
        assert ns.iterations == 5000
        assert ns.ir0 == 0.5
        assert ns.max_ir == 10.0
        assert ns.ml == 3
        assert ns.rationality == 2
        assert ns.runs == 10
        assert ns.seed == 7
        assert ns.format == "csv"
        assert ns.out is None
        assert ns.workers == 1

    def test_parse_defaults_match_algorithm_defaults(self):
        ns = parse_args(["run", "--function", "booth"])
        params = AlgorithmParams(
            num_particles=ns.particles,
            max_iterations=ns.iterations,
            initial_ir=ns.ir0,
            max_ir=ns.max_ir,
            maturity_limit=ns.ml,
            rationality_rate=ns.rationality,
        )
        assert params == AlgorithmParams()
        assert ns.seed == 1

    def test_table2_flags(self):
        ns = parse_args(["table2", "--runs", "10", "--format", "csv"])
        assert ns.subcommand == "table2"
        assert ns.runs == 10
        assert ns.format == "csv"

    def test_unknown_flag_raises_usage_error(self):
        with pytest.raises(UsageError):
            parse_args(["run", "--function", "booth", "--bogus", "1"])

    def test_non_numeric_value_raises_usage_error(self):
        with pytest.raises(UsageError):
            parse_args(["run", "--function", "booth", "--seed", "lots"])

    def test_bad_format_choice_raises_usage_error(self):
        with pytest.raises(UsageError):
            parse_args(["table2", "--format", "xml"])

    def test_missing_subcommand_raises_usage_error(self):
        with pytest.raises(UsageError):
            parse_args([])


class TestExitCodes:
    def test_usage_error_exits_one(self, capsys):
        assert main(["run", "--function", "booth", "--seed", "lots"]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_wrong_dimension_exits_one_and_names_the_function(self, capsys):
        assert main(["run", "--function", "booth", "--dims", "3"]) == 1
        err = capsys.readouterr().err
        assert "booth" in err and "dimension" in err

    def test_negative_seed_exits_one_and_names_the_field(self, capsys):
        assert main(["run", "--function", "booth", "--seed", "-1"]) == 1
        assert "base_seed" in capsys.readouterr().err

    def test_unknown_function_exits_one_and_echoes_the_name(self, capsys):
        assert main(["run", "--function", "warp"]) == 1
        assert "warp" in capsys.readouterr().err

    @pytest.mark.parametrize("subcommand", [["run", "--function", "booth"], ["table2"]])
    def test_zero_workers_exits_one_and_names_the_field(self, subcommand, capsys):
        assert main(subcommand + ["--workers", "0"]) == 1
        assert "workers" in capsys.readouterr().err

    def test_interrupt_exits_one_and_leaves_no_report(self, tmp_path, monkeypatch, capsys):
        def interrupted(config, workers):
            raise KeyboardInterrupt

        monkeypatch.setattr("codoa.cli.run_experiment", interrupted)
        target = tmp_path / "grid.csv"
        assert main(["table2", "--runs", "1", "--out", str(target)]) == 1
        assert "interrupted" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []  # neither the report nor a .part file

    @pytest.mark.parametrize("subcommand", [["run", "--function", "booth"], ["table2"]])
    @pytest.mark.parametrize("out, named", [
        ("", "--out"), ("missing/r.csv", "missing"), (".", "is a directory"),
    ])
    def test_bad_destination_exits_one_before_any_run(self, subcommand, out, named, tmp_path,
                                                      monkeypatch, capsys):
        def no_runs(config, workers):
            raise AssertionError("runs started before the destination was checked")

        monkeypatch.setattr("codoa.cli.run_experiment", no_runs)
        monkeypatch.chdir(tmp_path)
        assert main(subcommand + ["--runs", "1", "--out", out]) == 1
        assert named in capsys.readouterr().err

    def test_unwritable_output_exits_one(self, tmp_path, capsys):
        target = tmp_path / "missing_dir" / "r.csv"
        code = main(["run", "--function", "booth", "--particles", "4",
                     "--iterations", "5", "--runs", "1", "--out", str(target)])
        assert code == 1
        assert "missing_dir" in capsys.readouterr().err


class TestCmdRun:
    def test_prints_summary_with_params_echo(self, capsys):
        code = main(["run", "--function", "booth", "--particles", "4",
                     "--iterations", "6", "--runs", "2", "--seed", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "function=booth dimension=2 runs=2 base_seed=3" in out
        assert "N=4" in out and "iterations=6" in out
        assert "ir0=0.5" in out and "max_ir=10" in out
        assert "ml=3" in out and "r=2" in out
        assert "best=" in out and "stddev=" in out
        assert "known_minimum=0" in out

    def test_writes_json_report_when_out_given(self, tmp_path, capsys):
        target = tmp_path / "report.json"
        code = main(["run", "--function", "sphere", "--dims", "4",
                     "--particles", "4", "--iterations", "6", "--runs", "2",
                     "--seed", "3", "--format", "json", "--out", str(target)])
        assert code == 0
        assert capsys.readouterr().out == ""
        parsed = json.loads(target.read_text())
        assert parsed["entries"][0]["function"] == "sphere"
        assert parsed["entries"][0]["dimension"] == 4
        assert parsed["params"]["num_particles"] == 4

    def test_runs_whose_best_is_inf_print_a_nan_stddev(self, monkeypatch, capsys):
        booth = dataclasses.replace(REGISTRY["booth"], func=lambda pos: math.inf)
        monkeypatch.setitem(REGISTRY, "booth", booth)
        assert main(["run", "--function", "booth", "--particles", "4", "--iterations", "6",
                     "--runs", "2"]) == 0
        captured = capsys.readouterr()
        assert "best=inf worst=inf mean=inf median=inf stddev=nan" in captured.out
        assert captured.err == ""

    def test_a_json_report_writes_null_for_each_value_that_is_not_finite(
            self, monkeypatch, tmp_path):
        booth = dataclasses.replace(REGISTRY["booth"], func=lambda pos: math.inf)
        monkeypatch.setitem(REGISTRY, "booth", booth)
        args = ["run", "--function", "booth", "--particles", "4", "--iterations", "6",
                "--runs", "2", "--out"]
        assert main(args + [str(tmp_path / "report.json"), "--format", "json"]) == 0
        assert main(args + [str(tmp_path / "report.csv"), "--format", "csv"]) == 0

        def reject(constant):
            raise ValueError(f"{constant} is not JSON")

        text = (tmp_path / "report.json").read_text()
        [entry] = json.loads(text, parse_constant=reject)["entries"]
        gone = ("best", "worst", "mean", "median", "stddev", "abs_error")
        assert {key: entry[key] for key in gone} == dict.fromkeys(gone)
        assert entry["run_bests"] == [None, None] and entry["known_minimum"] == 0.0
        row = (tmp_path / "report.csv").read_text().splitlines()[1]
        assert row == "booth,2,2,inf,inf,inf,inf,nan,0,inf,1"  # the CSV keeps inf and nan

    def test_worker_pool_prints_the_serial_summary(self, capsys):
        args = ["run", "--function", "booth", "--iterations", "5", "--runs", "3"]
        assert main(args + ["--workers", "1"]) == 0
        serial = capsys.readouterr().out
        assert main(args + ["--workers", "2"]) == 0
        assert capsys.readouterr().out == serial

    def test_seed_controls_reproducibility(self, tmp_path):
        args = ["run", "--function", "beale", "--particles", "4",
                "--iterations", "6", "--runs", "2", "--seed", "9",
                "--format", "csv"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestCmdTable2:
    @pytest.fixture()
    def tiny_grid(self, monkeypatch):
        config = ExperimentConfig(
            entries=(("booth", 2), ("sphere", 2)),
            runs_per_entry=10,
            base_seed=1,
            params=AlgorithmParams(num_particles=4, max_iterations=5),
        )
        monkeypatch.setattr("codoa.cli.table2_grid", lambda: config)
        return config

    def test_overrides_runs_seed_and_output(self, tiny_grid, tmp_path):
        target = tmp_path / "grid.csv"
        code = main(["table2", "--runs", "2", "--seed", "5",
                     "--out", str(target)])
        assert code == 0
        lines = target.read_text().splitlines()
        assert len(lines) == 1 + 2
        assert lines[1].split(",")[-1] == "5"  # base_seed column

    def test_default_output_is_csv_on_stdout(self, tiny_grid, capsys):
        assert main(["table2", "--runs", "1"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("function,dimension,runs,")
        assert len(out.splitlines()) == 3


class TestCmdList:
    def test_lists_all_seven_functions(self, capsys):
        assert main(["list"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 7
        assert lines[0].startswith("booth")

    def test_shows_domains_and_minima(self, capsys):
        main(["list"])
        out = capsys.readouterr().out
        assert "-1.9133" in out
        assert "[-10, 10]" in out
        assert "n >= 2" in out
        assert "at (1, 3)" in out
        assert "[-1.5, 4], [-3, 4]" in out
