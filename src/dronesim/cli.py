"""Command-line interface.

Commands:
    run <scenario.scn> [--ticks N] [--out DIR]
    experiment <name> [--speed S] [--initial-charge C] [--leg D]
        [--target A] [--truncate-settle] [--out-dir DIR] [--emit-scenario]
    metrics mse <a.csv> <b.csv> --column NAME
    fit-battery <samples.csv> [--tmax S]

Exit codes: 0 success, 1 usage error, 2 scenario or input parse/validation
error, 3 runtime failure. Standard output is stable key=value lines.
"""

from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path

from .battery import BatteryModelError, fit_discharge_polynomial
from .experiments import EXPERIMENT_NAMES, Variant, variants
from .scenario import ScenarioError, load_scenario_file, render_scenario
from .trajectory import Trajectory, export_plot_columns, mse, summarize, trajectory_csv
from .world import ConfigurationError, camera_capture, create_world, run, run_scenario

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_RUNTIME = 3


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors mapped to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _tick_count(text: str) -> int:
    try:
        ticks = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if ticks < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {ticks}")
    return ticks


def build_parser() -> _Parser:
    parser = _Parser(prog="dronesim", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario file")
    p_run.add_argument("scenario", help="scenario document path")
    p_run.add_argument("--ticks", type=_tick_count, default=None,
                       help="override the scenario duration")
    p_run.add_argument("--out", default=".", help="output directory for CSVs")

    p_exp = sub.add_parser("experiment", help="run a built-in experiment")
    p_exp.add_argument("name", choices=EXPERIMENT_NAMES)
    p_exp.add_argument("--speed", type=float, default=None,
                       help="commanded speed (m/s) or yaw rate (deg/s)")
    p_exp.add_argument("--initial-charge", type=float, default=None,
                       help="battery experiment initial charge fraction")
    p_exp.add_argument("--leg", type=float, default=None,
                       help="position-legs: single leg length in metres")
    p_exp.add_argument("--target", type=float, default=None,
                       help="yaw-legs: single target yaw in degrees")
    p_exp.add_argument("--truncate-settle", action="store_true",
                       help="shorten settle time to reproduce premature-advance errors")
    p_exp.add_argument("--out-dir", default=".", help="output directory")
    p_exp.add_argument("--emit-scenario", action="store_true",
                       help="print the scenario document instead of running")

    p_met = sub.add_parser("metrics", help="compare two trajectory CSVs")
    p_met.add_argument("metric", choices=["mse"])
    p_met.add_argument("file_a")
    p_met.add_argument("file_b")
    p_met.add_argument("--column", required=True,
                       help="CSV column name, e.g. charge or x")

    p_fit = sub.add_parser("fit-battery", help="fit a cubic discharge curve")
    p_fit.add_argument("samples", help="CSV with time_s,charge columns")
    p_fit.add_argument("--tmax", type=float, default=None,
                       help="maximum flight time override (seconds)")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "experiment":
            return _cmd_experiment(args)
        if args.command == "metrics":
            return _cmd_metrics(args)
        return _cmd_fit_battery(args)
    except (ScenarioError, ConfigurationError, BatteryModelError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except _InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


class _InputError(Exception):
    pass


def _cmd_run(args) -> int:
    scenario = load_scenario_file(args.scenario)
    _, trajectories = run_scenario(scenario, args.ticks)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for drone_id in sorted(trajectories):
        traj = trajectories[drone_id]
        path = out_dir / f"{scenario.name}_{drone_id}.csv"
        _write_text(path, trajectory_csv(traj))
        _print_summary(scenario.name, traj, {"csv": str(path)})
    return EXIT_OK


def _cmd_experiment(args) -> int:
    selected = variants(
        args.name,
        speed=args.speed,
        initial_charge=args.initial_charge,
        leg=args.leg,
        target=args.target,
        truncate_settle=args.truncate_settle,
    )
    if args.emit_scenario:
        if len(selected) != 1:
            print(
                "error: --emit-scenario needs a single variant; "
                "narrow the selection with --speed/--leg/--target/--initial-charge",
                file=sys.stderr,
            )
            return EXIT_USAGE
        sys.stdout.write(render_scenario(selected[0].scenario))
        return EXIT_OK
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for variant in selected:
        _run_variant(variant, out_dir)
    return EXIT_OK


def _run_variant(variant: Variant, out_dir: Path) -> None:
    scenario = variant.scenario
    if variant.params.get("experiment") == "camera-calibration":
        world = create_world(scenario)
        extra = dict(variant.params)
        for det in camera_capture(world, scenario.drones[0].id):
            print(
                f"light={det.source_id} u={det.u} v={det.v} "
                f"color={det.color[0]},{det.color[1]},{det.color[2]}"
            )
        world, trajectories = run(world, scenario.duration)
    else:
        world, trajectories = run_scenario(scenario)
        extra = dict(variant.params)
    for drone_id in sorted(trajectories):
        traj = trajectories[drone_id]
        path = out_dir / f"{scenario.name}_{drone_id}.csv"
        _write_text(path, trajectory_csv(traj))
        extra["csv"] = str(path)
        for projection in variant.projections:
            dat = out_dir / f"{scenario.name}_{drone_id}_{projection}.dat"
            with open(dat, "w", encoding="utf-8", newline="\n") as fh:
                export_plot_columns([traj], projection, fh)
        summary = summarize(traj, variant.target, variant.target_yaw)
        _print_summary(scenario.name, traj, extra, summary)


def _print_summary(name, traj: Trajectory, extra=None, summary=None) -> None:
    if summary is None:
        summary = summarize(traj)
    parts = [f"scenario={name}", f"drone={traj.drone_id}", f"rows={len(traj.rows)}"]
    for key, value in (extra or {}).items():
        parts.append(f"{key}={_fmt(value)}")
    parts.append(f"peak_speed={summary.peak_speed:.6f}")
    parts.append(f"peak_yaw_rate={summary.peak_yaw_rate:.6f}")
    parts.append(
        "final_position="
        f"{summary.final_position[0]:.6f},"
        f"{summary.final_position[1]:.6f},"
        f"{summary.final_position[2]:.6f}"
    )
    parts.append(f"final_yaw={summary.final_yaw:.6f}")
    if summary.final_position_error is not None:
        parts.append(f"final_position_error={summary.final_position_error:.6f}")
    if summary.final_yaw_error is not None:
        parts.append(f"final_yaw_error={summary.final_yaw_error:.6f}")
    if summary.time_to_zero_charge is not None:
        parts.append(f"time_to_zero_charge={summary.time_to_zero_charge:.6f}")
    else:
        parts.append("time_to_zero_charge=none")
    print(" ".join(parts))


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.6f}"
    return str(value)


def _cmd_metrics(args) -> int:
    col_a = _read_csv_column(args.file_a, args.column)
    col_b = _read_csv_column(args.file_b, args.column)
    if len(col_a) != len(col_b):
        raise _InputError(
            f"row count mismatch: {len(col_a)} vs {len(col_b)}"
        )
    if not col_a:
        raise _InputError("no data rows")
    print(f"mse={mse(col_a, col_b):.6f}")
    return EXIT_OK


def _read_csv_column(path, column):
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None or column not in reader.fieldnames:
                raise _InputError(
                    f"{path}: column {column!r} not found "
                    f"(have: {','.join(reader.fieldnames or [])})"
                )
            try:
                return [float(row[column]) for row in reader]
            except (TypeError, ValueError) as exc:
                raise _InputError(f"{path}: non-numeric value in {column!r}") from exc
    except OSError as exc:
        raise _InputError(f"{path}: {exc.strerror or exc}") from exc


def _cmd_fit_battery(args) -> int:
    samples = []
    try:
        with open(args.samples, "r", encoding="utf-8", newline="") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None or not {"time_s", "charge"} <= set(reader.fieldnames):
                raise _InputError(
                    f"{args.samples}: need columns time_s,charge"
                )
            for row in reader:
                try:
                    samples.append((float(row["time_s"]), float(row["charge"])))
                except (TypeError, ValueError) as exc:
                    raise _InputError(
                        f"{args.samples}: non-numeric sample row"
                    ) from exc
    except OSError as exc:
        raise _InputError(f"{args.samples}: {exc.strerror or exc}") from exc
    try:
        model = fit_discharge_polynomial(samples, t_max=args.tmax)
    except BatteryModelError as exc:
        msg = str(exc)
        if "distinct times" in msg:
            msg = f"underdetermined: {msg}"
        print(f"error: {msg}", file=sys.stderr)
        return EXIT_INPUT
    fitted = [model.poly(t) for t, _ in samples]
    observed = [c for _, c in samples]
    fit_mse = mse(observed, fitted)
    c0, c1, c2, c3 = model.coeffs
    print(
        f"c0={c0!r} c1={c1!r} c2={c2!r} c3={c3!r} "
        f"tmax={model.t_max!r} cutoff={model.cutoff_charge!r} mse={fit_mse:.6e}"
    )
    return EXIT_OK


def _write_text(path: Path, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


if __name__ == "__main__":
    sys.exit(main())
