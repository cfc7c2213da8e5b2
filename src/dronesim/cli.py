"""Command-line interface.

Commands:
    run <scenario.scn> [--ticks N] [--out DIR]
    experiment <name> [--speed S] [--initial-charge C] [--leg D]
        [--target A] [--truncate-settle] [--out-dir DIR] [--emit-scenario]
    metrics mse <a.csv> <b.csv> --column NAME
    fit-battery <samples.csv> [--tmax S]

Exit codes: 0 success, 1 usage error, 2 scenario or input error (including
an input file that cannot be read), 3 runtime failure such as an output that
cannot be written. Standard output is stable key=value lines.
Experiment flags: --speed must be finite and > 0, the others finite, and each
experiment takes only its own (else exit 1, as for ``battery --speed``); a scenario
they cannot build, or a run whose guidance velocity, motion or time overflows,
whose tick time stops advancing (as for ``position-legs --leg 1e200``) or that is
longer than ``MAX_DRONE_TICKS`` (as for ``--leg 1e14``), exits 2.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path
from typing import Optional

from .battery import BatteryModelError, fit_discharge_polynomial
from .experiments import EXPERIMENT_NAMES, FlagError, Variant, variants
from .scenario import ScenarioError, load_scenario_file, render_scenario
from .trajectory import Trajectory, export_plot_columns, mse, summarize, write_trajectory
from .world import camera_capture, create_world, run

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_RUNTIME = 3


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors mapped to exit code 1."""

    def error(self, message):
        raise SystemExit(self.usage_error(message))

    def usage_error(self, message) -> int:
        """Print the usage and ``message`` to stderr; return exit code 1."""
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        return EXIT_USAGE


def _tick_count(text: str) -> int:
    try:
        ticks = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if ticks < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {ticks}")
    return ticks


def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    return value


def _positive_float(text: str) -> float:
    value = _finite_float(text)
    if value <= 0.0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {text!r}")
    return value


def build_parser() -> _Parser:
    parser = _Parser(prog="dronesim", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario file")
    p_run.add_argument("scenario", help="scenario document path")
    p_run.add_argument("--ticks", type=_tick_count, default=None,
                       help="override the scenario duration")
    p_run.add_argument("--out", default=".", help="output directory for CSVs")
    p_run.set_defaults(handler=_cmd_run)

    p_exp = sub.add_parser("experiment", help="run a built-in experiment")
    p_exp.add_argument("name", choices=EXPERIMENT_NAMES)
    p_exp.add_argument("--speed", type=_positive_float, default=None,
                       help="commanded speed (m/s) or yaw rate (deg/s)")
    p_exp.add_argument("--initial-charge", type=_finite_float, default=None,
                       help="battery experiment initial charge fraction")
    p_exp.add_argument("--leg", type=_finite_float, default=None,
                       help="position-legs: single leg length in metres")
    p_exp.add_argument("--target", type=_finite_float, default=None,
                       help="yaw-legs: single target yaw in degrees")
    p_exp.add_argument("--truncate-settle", action="store_true",
                       help="shorten settle time to reproduce premature-advance errors")
    p_exp.add_argument("--out-dir", default=".", help="output directory")
    p_exp.add_argument("--emit-scenario", action="store_true",
                       help="print the scenario document instead of running")
    p_exp.set_defaults(handler=_cmd_experiment, usage_error=p_exp.usage_error)

    p_met = sub.add_parser("metrics", help="compare two trajectory CSVs")
    p_met.add_argument("metric", choices=["mse"])
    p_met.add_argument("file_a")
    p_met.add_argument("file_b")
    p_met.add_argument("--column", required=True,
                       help="CSV column name, e.g. charge or x")
    p_met.set_defaults(handler=_cmd_metrics)

    p_fit = sub.add_parser("fit-battery", help="fit a cubic discharge curve")
    p_fit.add_argument("samples", help="CSV with time_s,charge columns")
    p_fit.add_argument("--tmax", type=float, default=None,
                       help="maximum flight time override (seconds)")
    p_fit.set_defaults(handler=_cmd_fit_battery)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.handler(args)
    except (ScenarioError, BatteryModelError, _InputError, UnicodeDecodeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME if isinstance(exc, OSError) else EXIT_INPUT


class _InputError(Exception):
    pass


def _cmd_run(args) -> int:
    try:
        scenario = load_scenario_file(args.scenario)
    except OSError as exc:
        raise _InputError(f"{args.scenario}: {exc.strerror or exc}") from exc
    _run_variant(Variant(scenario, {}, ()), Path(args.out), args.ticks)
    return EXIT_OK


def _cmd_experiment(args) -> int:
    try:
        selected = variants(
            args.name, speed=args.speed, initial_charge=args.initial_charge, leg=args.leg,
            target=args.target, truncate_settle=args.truncate_settle,
        )
    except FlagError as exc:
        return args.usage_error(str(exc))
    if args.emit_scenario:
        if len(selected) != 1:
            return args.usage_error(
                "--emit-scenario needs a single variant; "
                "narrow the selection with --speed/--leg/--target/--initial-charge"
            )
        sys.stdout.write(render_scenario(selected[0].scenario))
        return EXIT_OK
    for variant in selected:
        _run_variant(variant, Path(args.out_dir))
    return EXIT_OK


def _run_variant(variant: Variant, out_dir: Path, ticks: Optional[int] = None) -> None:
    """Run one scenario, write its CSVs and plot columns into ``out_dir``
    and print one summary line per drone; ``ticks`` overrides the duration."""
    scenario = variant.scenario
    world = create_world(scenario)
    if variant.params.get("experiment") == "camera-calibration":
        for det in camera_capture(world, scenario.drones[0].id):
            print(
                f"light={det.source_id} u={det.u} v={det.v} "
                f"color={det.color[0]},{det.color[1]},{det.color[2]}"
            )
    _, trajectories = run(world, scenario.duration if ticks is None else ticks)
    out_dir.mkdir(parents=True, exist_ok=True)
    for drone_id in sorted(trajectories):
        traj = trajectories[drone_id]
        path = out_dir / f"{scenario.name}_{drone_id}.csv"
        _write(path, write_trajectory, traj)
        for projection in variant.projections:
            dat = out_dir / f"{scenario.name}_{drone_id}_{projection}.dat"
            _write(dat, export_plot_columns, [traj], projection)
        summary = summarize(traj, variant.target, variant.target_yaw)
        _print_summary(scenario.name, traj, {**variant.params, "csv": str(path)}, summary)


def _print_summary(name, traj: Trajectory, extra, summary) -> None:
    """One line: the run, its parameters, then every summary field in order.
    Errors without a target are left out; no depletion prints as none.
    Floats get +0.0 first, as in the CSV rows, which folds negative zero."""
    parts = [f"scenario={name}", f"drone={traj.drone_id}", f"rows={len(traj.rows)}"]
    for key, value in extra.items():
        parts.append(f"{key}={value + 0.0:.6f}" if isinstance(value, float) else f"{key}={value}")
    for key, value in summary._asdict().items():
        if key == "final_position":
            parts.append(f"{key}=" + ",".join(f"{v + 0.0:.6f}" for v in value))
        elif value is not None:
            parts.append(f"{key}={value + 0.0:.6f}")
        elif key == "time_to_zero_charge":
            parts.append(f"{key}=none")
    print(" ".join(parts))


def _cmd_metrics(args) -> int:
    (col_a,) = _read_csv_columns(args.file_a, (args.column,))
    (col_b,) = _read_csv_columns(args.file_b, (args.column,))
    if len(col_a) != len(col_b):
        raise _InputError(
            f"row count mismatch: {len(col_a)} vs {len(col_b)}"
        )
    if not col_a:
        raise _InputError("no data rows")
    for path, column in ((args.file_a, col_a), (args.file_b, col_b)):
        if not all(map(math.isfinite, column)):
            raise _InputError(f"{path}: non-finite value in {args.column!r}")
    error = mse(col_a, col_b)
    if not math.isfinite(error):
        raise _InputError(f"mse of {args.column!r} overflows the float range")
    print(f"mse={error:.6f}")
    return EXIT_OK


def _read_csv_columns(path, names):
    """The named columns of a CSV file, each as a list of floats."""
    import csv  # on first use: only `metrics` and `fit-battery` read CSV

    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.DictReader(fh)
            have = reader.fieldnames or []
            rows = list(reader)
    except OSError as exc:
        raise _InputError(f"{path}: {exc.strerror or exc}") from exc
    except (UnicodeDecodeError, csv.Error) as exc:
        raise _InputError(f"{path}: {exc}") from exc
    columns = []
    for name in names:
        if name not in have:
            raise _InputError(f"{path}: column {name!r} not found (have: {','.join(have)})")
        try:
            columns.append([float(row[name]) for row in rows])
        except (TypeError, ValueError) as exc:
            raise _InputError(f"{path}: non-numeric value in {name!r}") from exc
    return columns


def _cmd_fit_battery(args) -> int:
    times, charges = _read_csv_columns(args.samples, ("time_s", "charge"))
    samples = list(zip(times, charges))
    model = fit_discharge_polynomial(samples, t_max=args.tmax)
    fit_mse = mse(charges, [model.poly(t) for t in times])
    c0, c1, c2, c3 = model.coeffs
    print(
        f"c0={c0!r} c1={c1!r} c2={c2!r} c3={c3!r} "
        f"tmax={model.t_max!r} cutoff={model.cutoff_charge!r} mse={fit_mse:.6e}"
    )
    return EXIT_OK


def _write(path: Path, writer, *args) -> None:
    """Call ``writer(*args, sink)`` with ``path`` open as UTF-8 text, LF endings."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        writer(*args, fh)


if __name__ == "__main__":
    sys.exit(main())
