"""Command-line front end: single runs, the full benchmark grid, and listing.

Exit codes: 0 on success, 1 on configuration, usage, or I/O errors, or on
an interrupt (Ctrl-C), which leaves no report behind.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from typing import Optional, Sequence

from codoa.benchmarks import REGISTRY
from codoa.engine import AlgorithmParams, ConfigurationError
from codoa.harness import REPORT_FORMATS, ExperimentConfig, run_experiment, table2_grid, write_report


class UsageError(Exception):
    """Bad command line; reported on stderr with exit code 1."""


class _ArgumentParser(argparse.ArgumentParser):
    # argparse exits with code 2 on usage errors; the contract here is 1.
    def error(self, message: str) -> None:
        raise UsageError(message)


# (flag, AlgorithmParams field, help) of each parameter `codoa run` exposes
_PARAM_FLAGS = (
    ("--particles", "num_particles", "swarm size"),
    ("--iterations", "max_iterations", "iteration budget"),
    ("--ir0", "initial_ir", "initial interactivity rate"),
    ("--max-ir", "max_ir", "interactivity upper bound"),
    ("--ml", "maturity_limit", "maturity limit"),
    ("--rationality", "rationality_rate", "rationality rate"),
)


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="codoa",
        description="CoDOA swarm minimizer: run benchmarks and reproduce the "
        "reference result grid.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    run_p = sub.add_parser("run", help="optimize one benchmark function")
    run_p.add_argument("--function", required=True, help="benchmark function name")
    run_p.add_argument("--dims", type=int, default=2, help="problem dimension (default 2)")
    for flag, name, text in _PARAM_FLAGS:
        default = getattr(AlgorithmParams, name)
        run_p.add_argument(flag, type=type(default), default=default,
                           help=f"{text} (default %(default)s)")
    _add_experiment_flags(run_p)
    run_p.set_defaults(handler=cmd_run)

    table_p = sub.add_parser(
        "table2", help="run the full reference grid (15 entries) and write a report"
    )
    _add_experiment_flags(table_p)
    table_p.set_defaults(handler=cmd_table2)

    list_p = sub.add_parser("list", help="list benchmark functions with domains and minima")
    list_p.set_defaults(handler=cmd_list)

    return parser


def _add_experiment_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--runs", type=int, default=ExperimentConfig.runs_per_entry,
                     help="runs per entry (default %(default)s)")
    sub.add_argument("--seed", type=int, default=ExperimentConfig.base_seed,
                     help="base seed; run k uses seed+k (default %(default)s)")
    sub.add_argument("--format", choices=REPORT_FORMATS, default=REPORT_FORMATS[0],
                     help="report format (default %(default)s)")
    sub.add_argument("--out", metavar="PATH", help="report destination (default stdout)")
    sub.add_argument("--workers", type=int, default=1,
                     help="worker processes; 1 runs serially (default %(default)s)")


def parse_args(argv: Optional[Sequence[str]] = None) -> argparse.Namespace:
    """Parse a command line; raises UsageError on malformed input."""
    return build_parser().parse_args(argv)


def _params_line(params: AlgorithmParams) -> str:
    return (
        f"params: N={params.num_particles} iterations={params.max_iterations} "
        f"ir0={params.initial_ir:g} max_ir={params.max_ir:g} "
        f"ml={params.maturity_limit} r={params.rationality_rate}"
    )


def _check_destination(path: Optional[str]) -> None:
    """Fail before any run unless ``path`` is a non-directory in an existing directory."""
    if path is None:
        return
    if path == "":
        raise ConfigurationError("--out must be a non-empty path")
    folder = os.path.dirname(path) or "."
    if not os.path.isdir(folder):
        raise ConfigurationError(f"--out {path!r}: {folder!r} is not an existing directory")
    if os.path.isdir(path):
        raise ConfigurationError(f"--out {path!r} is a directory")


def cmd_run(ns: argparse.Namespace) -> int:
    """Run one (function, dimension) entry and report its statistics."""
    params = AlgorithmParams(
        **{name: getattr(ns, flag[2:].replace("-", "_")) for flag, name, _ in _PARAM_FLAGS}
    )
    config = ExperimentConfig(
        entries=((ns.function, ns.dims),),
        runs_per_entry=ns.runs,
        base_seed=ns.seed,
        params=params,
    )
    _check_destination(ns.out)
    report = run_experiment(config, workers=ns.workers)
    if ns.out is not None:
        write_report(report, ns.format, ns.out)
        return 0
    entry = report.entries[0]
    s = entry.stats
    print(f"function={entry.function} dimension={entry.dimension} "
          f"runs={config.runs_per_entry} base_seed={config.base_seed}")
    print(_params_line(params))
    print(f"best={s.best:.9g} worst={s.worst:.9g} mean={s.mean:.9g} "
          f"median={s.median:.9g} stddev={s.stddev:.9g}")
    print(f"known_minimum={entry.known_minimum:.9g} abs_error={entry.abs_error:.9g}")
    return 0


def cmd_table2(ns: argparse.Namespace) -> int:
    """Run the full reference grid and write the report."""
    config = replace(table2_grid(), runs_per_entry=ns.runs, base_seed=ns.seed)
    _check_destination(ns.out)
    report = run_experiment(config, workers=ns.workers)
    write_report(report, ns.format, ns.out)
    return 0


def cmd_list(ns: argparse.Namespace) -> int:
    """Print one line per benchmark function: dimension, box, known minimum, minimizer.

    A box or minimizer given for one coordinate holds for every coordinate.
    """
    for spec in REGISTRY.values():
        least, most = spec.dimensions
        dims = f"n = {least}" if least == most else f"n >= {least}"
        box = ", ".join(f"[{lo:g}, {hi:g}]" for lo, hi in spec.bounds)
        at = ", ".join(f"{v:g}" for v in spec.minimizer)
        print(f"{spec.name:<18} {dims:<7} {box:<19} min {spec.known_minimum_value:g} at ({at})")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        ns = parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    try:
        return ns.handler(ns)
    except (ConfigurationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:  # reports are written only once every run is done
        print("interrupted", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
