"""Trajectory records, CSV logging, metrics, and plot-column export.

The CSV schema is a stability contract: header exactly
``tick,time_s,id,x,y,z,yaw_deg,vx,vy,vz,yaw_rate_deg_s,charge``, floats with
six decimal places, LF line endings. Two runs of the same scenario produce
byte-identical files, so golden files can be compared directly.
"""

from __future__ import annotations

import math
from operator import attrgetter
from typing import NamedTuple, Optional, Sequence

from ._value import Value
from .geometry import Vec3, _fmod_wrap_deg, wrap_deg

CSV_HEADER = "tick,time_s,id,x,y,z,yaw_deg,vx,vy,vz,yaw_rate_deg_s,charge"

# Plot projection name -> the row fields of its two columns.
_PROJECTION_FIELDS = {
    "xy": ("x", "y"), "xz": ("x", "z"), "time-z": ("time_s", "z"),
    "time-yaw": ("time_s", "yaw_deg"), "time-charge": ("time_s", "charge"),
}
PROJECTIONS = tuple(_PROJECTION_FIELDS)


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


class Trajectory(Value):
    """One drone's ``rows`` of TrajectoryRow; mutable, so not hashable."""

    __slots__ = ("drone_id", "rows")
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None  # type: ignore[assignment]


class Summary(NamedTuple):
    peak_speed: float
    peak_yaw_rate: float
    final_position: Vec3
    final_yaw: float
    final_position_error: Optional[float]
    final_yaw_error: Optional[float]
    time_to_zero_charge: Optional[float]


# One CSV row: the tick, time_s, the drone id, then nine telemetry floats.
# Every float written gets +0.0 first, which folds negative zero so logs
# don't flip between 0 and -0.
_ROW = "%d,%.6f,%s" + ",%.6f" * 9


def format_row(drone_id: str, row: TrajectoryRow) -> str:
    tick, t, x, y, z, yaw, vx, vy, vz, rate, charge = row
    return _ROW % (
        tick, t + 0.0, drone_id, x + 0.0, y + 0.0, z + 0.0, yaw + 0.0,
        vx + 0.0, vy + 0.0, vz + 0.0, rate + 0.0, charge + 0.0,
    )


def trajectory_csv(traj: Trajectory) -> str:
    drone_id = traj.drone_id
    lines = [CSV_HEADER]
    lines += [format_row(drone_id, row) for row in traj.rows]
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
    for _, t, _, _, _, _, vx, vy, vz, rate, charge in traj.rows:
        speed = math.sqrt(vx * vx + vy * vy + vz * vz)
        if speed > peak_speed:
            peak_speed = speed
        rate = abs(rate)
        if rate > peak_rate:
            peak_rate = rate
        if depleted_at is None and charge == 0.0:
            depleted_at = t
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
        # Wrap the target first: subtracting a far target rounds the yaw away.
        yaw_err = abs(_fmod_wrap_deg(last.yaw_deg - wrap_deg(target_yaw)))
    return Summary(
        peak_speed=peak_speed,
        peak_yaw_rate=peak_rate,
        final_position=(last.x, last.y, last.z),
        final_yaw=last.yaw_deg,
        final_position_error=pos_err,
        final_yaw_error=yaw_err,
        time_to_zero_charge=depleted_at,
    )


def export_plot_columns(trajectories: Sequence[Trajectory], projection: str, sink) -> None:
    """Write whitespace-separated columns, one blank-line-separated block
    per trajectory, for generic plotting tools."""
    if not trajectories:
        raise ValueError("no trajectories to export")
    try:
        fields = attrgetter(*_PROJECTION_FIELDS[projection])
    except KeyError:
        raise ValueError(
            f"unknown projection {projection!r}; choose from {PROJECTIONS}"
        ) from None
    for i, traj in enumerate(trajectories):
        if i:
            sink.write("\n")
        for row in traj.rows:
            a, b = fields(row)
            sink.write("%.6f %.6f\n" % (a + 0.0, b + 0.0))
