"""Trajectory records, CSV logging, metrics, and plot-column export.

The CSV schema is a stability contract: header exactly
``tick,time_s,id,x,y,z,yaw_deg,vx,vy,vz,yaw_rate_deg_s,charge``, floats with
six decimal places, LF line endings. Two runs of the same scenario produce
byte-identical files, so golden files can be compared directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

from .geometry import Vec3

CSV_HEADER = "tick,time_s,id,x,y,z,yaw_deg,vx,vy,vz,yaw_rate_deg_s,charge"

PROJECTIONS = ("xy", "xz", "time-z", "time-yaw", "time-charge")


class TrajectoryRow(NamedTuple):
    tick: int
    time_s: float
    x: float
    y: float
    z: float
    yaw_deg: float
    vx: float
    vy: float
    vz: float
    yaw_rate_deg_s: float
    charge: float


@dataclass
class Trajectory:
    drone_id: str
    rows: list[TrajectoryRow]


class Summary(NamedTuple):
    peak_speed: float
    peak_yaw_rate: float
    final_position: Vec3
    final_yaw: float
    final_position_error: Optional[float]
    final_yaw_error: Optional[float]
    time_to_zero_charge: Optional[float]


def _f(value: float) -> str:
    # +0.0 folds negative zero so logs don't flip between 0 and -0.
    return f"{value + 0.0:.6f}"


def format_row(drone_id: str, row: TrajectoryRow) -> str:
    return ",".join(
        (
            str(row.tick),
            _f(row.time_s),
            drone_id,
            _f(row.x),
            _f(row.y),
            _f(row.z),
            _f(row.yaw_deg),
            _f(row.vx),
            _f(row.vy),
            _f(row.vz),
            _f(row.yaw_rate_deg_s),
            _f(row.charge),
        )
    )


def trajectory_csv(traj: Trajectory) -> str:
    lines = [CSV_HEADER]
    lines.extend(format_row(traj.drone_id, row) for row in traj.rows)
    return "\n".join(lines) + "\n"


def write_trajectory(traj: Trajectory, sink) -> None:
    """Write the trajectory as CSV to a text-mode sink."""
    sink.write(trajectory_csv(traj))


def mse(observed: Sequence[float], estimated: Sequence[float]) -> float:
    """Mean square error between two equal-length numeric series."""
    n = len(observed)
    if n == 0:
        raise ValueError("series must be non-empty")
    if n != len(estimated):
        raise ValueError(
            f"series length mismatch: {n} vs {len(estimated)}"
        )
    total = 0.0
    for y, y_hat in zip(observed, estimated):
        diff = y - y_hat
        total += diff * diff
    return total / n


def summarize(
    traj: Trajectory,
    target: Optional[Vec3] = None,
    target_yaw: Optional[float] = None,
) -> Summary:
    """Peak speed/yaw rate, final pose error, and time of battery depletion."""
    if not traj.rows:
        raise ValueError("trajectory is empty")
    peak_speed = 0.0
    peak_rate = 0.0
    depleted_at = None
    for row in traj.rows:
        speed = math.sqrt(row.vx * row.vx + row.vy * row.vy + row.vz * row.vz)
        if speed > peak_speed:
            peak_speed = speed
        rate = abs(row.yaw_rate_deg_s)
        if rate > peak_rate:
            peak_rate = rate
        if depleted_at is None and row.charge == 0.0:
            depleted_at = row.time_s
    last = traj.rows[-1]
    pos_err = None
    if target is not None:
        pos_err = math.sqrt(
            (last.x - target[0]) ** 2
            + (last.y - target[1]) ** 2
            + (last.z - target[2]) ** 2
        )
    yaw_err = None
    if target_yaw is not None:
        # Always through fmod, unlike geometry.wrap_deg (which returns in-range
        # angles unrounded), so reported yaw errors keep their exact bits.
        diff = math.fmod(last.yaw_deg - target_yaw + 180.0, 360.0)
        if diff <= 0.0:
            diff += 360.0
        yaw_err = abs(diff - 180.0)
    return Summary(
        peak_speed=peak_speed,
        peak_yaw_rate=peak_rate,
        final_position=(last.x, last.y, last.z),
        final_yaw=last.yaw_deg,
        final_position_error=pos_err,
        final_yaw_error=yaw_err,
        time_to_zero_charge=depleted_at,
    )


def extract_column(traj: Trajectory, column: str) -> list[float]:
    """A named CSV column as a list of floats (id/tick are not numeric)."""
    if column in ("tick", "id"):
        raise ValueError(f"column {column!r} is not numeric telemetry")
    if column not in TrajectoryRow._fields:
        raise ValueError(f"unknown column {column!r}")
    return [getattr(row, column) for row in traj.rows]


def export_plot_columns(trajectories: Sequence[Trajectory], projection: str, sink) -> None:
    """Write whitespace-separated columns, one blank-line-separated block
    per trajectory, for generic plotting tools."""
    if not trajectories:
        raise ValueError("no trajectories to export")
    if projection not in PROJECTIONS:
        raise ValueError(
            f"unknown projection {projection!r}; choose from {PROJECTIONS}"
        )
    for i, traj in enumerate(trajectories):
        if i:
            sink.write("\n")
        for row in traj.rows:
            if projection == "xy":
                a, b = row.x, row.y
            elif projection == "xz":
                a, b = row.x, row.z
            elif projection == "time-z":
                a, b = row.time_s, row.z
            elif projection == "time-yaw":
                a, b = row.time_s, row.yaw_deg
            else:
                a, b = row.time_s, row.charge
            sink.write(f"{_f(a)} {_f(b)}\n")
