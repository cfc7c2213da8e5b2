"""Built-in desk-scale experiment scenarios.

Each experiment is a thin builder returning ordinary scenarios, so any
variant can be exported as a document and re-run through the generic
scenario runner with byte-identical trajectory output.

Flight experiments use the stock drone inside the default 3x3x3 m arena,
except the long position legs, which get an arena stretched along x.
Velocity experiments fly waypoint plans (advance within 5 cm, park at the
last point); step profiles and position/yaw legs are time-scripted.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional

from .battery import STOCK_MODEL, battery_time_to_empty
from .camera import CameraConfig
from .control import Command
from .geometry import Vec3
from .scenario import DroneSpec, LightSpec, Scenario, ScenarioError, WaypointPlan

DT = 0.1
DRONE_ID = "cf1"
SETTLE_S = 5.0
TRUNCATED_SETTLE_S = 1.0
WAYPOINT_THRESHOLD = 0.05

VELOCITY_SPEEDS = (0.25, 0.5, 1.0)       # m/s
YAW_RATES = (45.0, 90.0, 180.0)          # deg/s
POSITION_LEGS = (1.0, 2.0, 5.0, 10.0, 25.0, 50.0)   # m
YAW_TARGETS = (180.0, -135.0, 45.0)      # deg
BATTERY_CHARGES = (0.25, 0.5, 0.75, 1.0)

# Calibration cross: four lights 2 m ahead, offset so the extreme pair is
# 1.8652 m apart, i.e. each at the 25-degree half-aperture boundary.
CALIBRATION_DEPTH = 2.0
CALIBRATION_OFFSET = 0.9326


class FlagError(ValueError):
    """A flag given to an experiment that does not take it."""


class Variant(NamedTuple):
    scenario: Scenario
    params: dict
    projections: tuple[str, ...]
    target: Optional[Vec3] = None
    target_yaw: Optional[float] = None


def _ticks(seconds: float) -> int:
    ticks = seconds / DT
    if not math.isfinite(ticks):
        raise ScenarioError("duration must be finite", "[scenario] duration")
    return int(round(ticks))


def _sname(base: str, value: float) -> str:
    """A scenario name for one flag value, distinct for distinct values.

    ``:g`` where it reads back as the same value and has no ``+`` (which the
    name rule rejects); otherwise the shortest round-trip form, without
    the exponent's ``+``.
    """
    text = f"{value:g}"
    if "+" in text or float(text) != value:
        text = repr(value).replace("+", "")
    return f"{base}{text}".replace("-", "m")


def build_line2d(speed: float) -> Variant:
    """One-metre legs along the y and x axes from the origin at fixed speed."""
    points = ((0.0, 1.0, 1.0), (0.0, 0.0, 1.0), (1.0, 0.0, 1.0))
    path_len = 3.0
    scenario = Scenario(
        name=_sname("line2d_s", speed),
        dt=DT,
        duration=_ticks(path_len / speed + 4.0),
        drones=(DroneSpec(id=DRONE_ID, position=(0.0, 0.0, 1.0)),),
        waypoints={
            DRONE_ID: WaypointPlan(
                speed=speed, points=points, threshold=WAYPOINT_THRESHOLD
            )
        },
    )
    return Variant(
        scenario,
        {"experiment": "line2d", "speed": speed, "commanded_speed": speed},
        ("xy",),
        target=points[-1],
    )


def build_line3d(speed: float) -> Variant:
    """Diagonal leg moving one metre along each axis; the commanded velocity
    is ``speed`` per axis, i.e. speed*sqrt(3) along the track."""
    commanded = speed * math.sqrt(3.0)
    target = (0.5, 0.5, 1.5)
    scenario = Scenario(
        name=_sname("line3d_s", speed),
        dt=DT,
        duration=_ticks(1.0 / speed + 4.0),
        drones=(DroneSpec(id=DRONE_ID, position=(-0.5, -0.5, 0.5)),),
        waypoints={
            DRONE_ID: WaypointPlan(
                speed=commanded, points=(target,), threshold=WAYPOINT_THRESHOLD
            )
        },
    )
    return Variant(
        scenario,
        {"experiment": "line3d", "speed": speed, "commanded_speed": commanded},
        ("xy", "xz"),
        target=target,
    )


def _out_and_back(
    name: str, start: Vec3, leg_ticks: int, out: Command, back: Command
) -> Scenario:
    """Fly ``out`` for ``leg_ticks``, hover 2 s, fly ``back`` as long, hover 2 s."""
    turn = leg_ticks + _ticks(2.0)
    stop = Command.velocity((0.0, 0.0, 0.0))
    return Scenario(
        name=name,
        dt=DT,
        duration=2 * turn,
        drones=(DroneSpec(id=DRONE_ID, position=start),),
        scripts={DRONE_ID: ((0, out), (leg_ticks, stop), (turn, back), (turn + leg_ticks, stop))},
    )


def build_altitude_steps(speed: float) -> Variant:
    """Climb one metre, hover, descend back, at a fixed vertical speed."""
    scenario = _out_and_back(
        _sname("altitude_steps_s", speed), (0.0, 0.0, 0.5), _ticks(1.0 / speed),
        Command.velocity((0.0, 0.0, speed)), Command.velocity((0.0, 0.0, -speed)),
    )
    return Variant(
        scenario,
        {"experiment": "altitude-steps", "speed": speed, "commanded_speed": speed},
        ("time-z",),
    )


def build_yaw_steps(rate: float) -> Variant:
    """Rotate 180 degrees and back at a fixed commanded yaw rate."""
    still = (0.0, 0.0, 0.0)
    scenario = _out_and_back(
        _sname("yaw_steps_w", rate), (0.0, 0.0, 1.0), _ticks(180.0 / rate),
        Command.velocity(still, yaw_rate=rate), Command.velocity(still, yaw_rate=-rate),
    )
    return Variant(
        scenario,
        {"experiment": "yaw-steps", "rate": rate, "commanded_rate": rate},
        ("time-yaw",),
    )


def build_position_leg(distance: float, settle_s: float = SETTLE_S) -> Variant:
    """One straight position-controlled leg of the given length along x."""
    target = (distance, 0.0, 1.0)
    limits_speed = 10.0
    scenario = Scenario(
        name=_sname("position_leg_d", distance),
        dt=DT,
        duration=_ticks(distance / limits_speed + settle_s),
        arena_min=(-1.5, -1.5, 0.0),
        arena_max=(max(1.5, distance + 1.5), 1.5, 3.0),
        drones=(DroneSpec(id=DRONE_ID, position=(0.0, 0.0, 1.0)),),
        scripts={DRONE_ID: ((0, Command.position(target, 0.0)),)},
    )
    return Variant(
        scenario,
        {"experiment": "position-legs", "leg": distance},
        ("xy",),
        target=target,
        target_yaw=0.0,
    )


def build_yaw_leg(target_yaw: float, settle_s: float = SETTLE_S) -> Variant:
    """Rotate in place to a target yaw under the position controller."""
    scenario = Scenario(
        name=_sname("yaw_leg_a", target_yaw),
        dt=DT,
        duration=_ticks(abs(target_yaw) / 90.0 + settle_s),
        drones=(DroneSpec(id=DRONE_ID, position=(0.0, 0.0, 1.0)),),
        scripts={
            DRONE_ID: ((0, Command.position((0.0, 0.0, 1.0), target_yaw)),)
        },
    )
    return Variant(
        scenario,
        {"experiment": "yaw-legs", "target": target_yaw},
        ("time-yaw",),
        target=(0.0, 0.0, 1.0),
        target_yaw=target_yaw,
    )


def build_battery(initial_charge: float) -> Variant:
    """Hover from the given initial charge until the battery empties."""
    expected = battery_time_to_empty(STOCK_MODEL, initial_charge)
    scenario = Scenario(
        name=_sname("battery_c", initial_charge),
        dt=DT,
        duration=_ticks(expected + 5.0),
        drones=(
            DroneSpec(id=DRONE_ID, position=(0.0, 0.0, 1.0), charge=initial_charge),
        ),
    )
    return Variant(
        scenario,
        {
            "experiment": "battery",
            "initial_charge": initial_charge,
            "expected_time_to_empty": expected,
        },
        ("time-charge",),
    )


def build_camera_calibration(lateral_offset: Optional[float] = None) -> Variant:
    """Four coloured lights on the aperture boundary, 2 m ahead of the camera.

    ``lateral_offset`` moves the first (red) light sideways, which pushes it
    out of the field of view once the angle passes half the aperture.
    """
    red_y = CALIBRATION_OFFSET if lateral_offset is None else lateral_offset
    z0 = 1.0
    lights = (
        LightSpec("red", (CALIBRATION_DEPTH, red_y, z0), (255, 0, 0)),
        LightSpec("green", (CALIBRATION_DEPTH, 0.0, z0 + CALIBRATION_OFFSET), (0, 255, 0)),
        LightSpec("blue", (CALIBRATION_DEPTH, -CALIBRATION_OFFSET, z0), (0, 0, 255)),
        LightSpec("white", (CALIBRATION_DEPTH, 0.0, z0 - CALIBRATION_OFFSET), (255, 255, 255)),
    )
    scenario = Scenario(
        name="camera_calibration",
        dt=DT,
        duration=1,
        drones=(
            DroneSpec(id=DRONE_ID, position=(0.0, 0.0, z0), camera=CameraConfig()),
        ),
        lights=lights,
    )
    return Variant(
        scenario,
        {"experiment": "camera-calibration"},
        (),
    )


# name -> (builder, the variants() keyword that selects a single variant,
#          the values run without it, whether the builder takes a settle time)
_EXPERIMENTS = {
    "line2d": (build_line2d, "speed", VELOCITY_SPEEDS, False),
    "line3d": (build_line3d, "speed", VELOCITY_SPEEDS, False),
    "altitude-steps": (build_altitude_steps, "speed", VELOCITY_SPEEDS, False),
    "yaw-steps": (build_yaw_steps, "speed", YAW_RATES, False),
    "position-legs": (build_position_leg, "leg", POSITION_LEGS, True),
    "yaw-legs": (build_yaw_leg, "target", YAW_TARGETS, True),
    "battery": (build_battery, "initial_charge", BATTERY_CHARGES, False),
    "camera-calibration": (build_camera_calibration, None, (None,), False),
}
EXPERIMENT_NAMES = tuple(_EXPERIMENTS)


def variants(
    name: str,
    speed: Optional[float] = None,
    initial_charge: Optional[float] = None,
    leg: Optional[float] = None,
    target: Optional[float] = None,
    truncate_settle: bool = False,
) -> list[Variant]:
    """All scenario variants selected by an experiment name and its flags;
    a flag the experiment does not take (see ``_EXPERIMENTS``) raises FlagError."""
    try:
        build, flag, defaults, settles = _EXPERIMENTS[name]
    except KeyError:
        raise ValueError(
            f"unknown experiment {name!r}; valid names: "
            + ", ".join(EXPERIMENT_NAMES)
        ) from None
    given = {"speed": speed, "initial_charge": initial_charge, "leg": leg, "target": target,
             "truncate_settle": truncate_settle or None}
    for key, value in given.items():
        if value is not None and key not in (flag, "truncate_settle" if settles else None):
            raise FlagError(f"argument --{key.replace('_', '-')}: not taken by experiment {name}")
    values = defaults if given.get(flag) is None else (given[flag],)
    if not settles:
        return [build(value) for value in values]
    settle = TRUNCATED_SETTLE_S if truncate_settle else SETTLE_S
    return [build(value, settle) for value in values]
