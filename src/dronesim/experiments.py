"""Built-in desk-scale experiment scenarios.

Each experiment is a thin builder returning ordinary scenarios, so any
variant can be exported as a document and re-run through the generic
scenario runner with byte-identical trajectory output.

Each flies the one stock drone (``_flight``) in the default 3x3x3 m arena;
long position legs stretch it along x on the leg's side. Velocity
experiments fly waypoint plans (advance within the stock 5 cm, park at the
last point); step profiles and position/yaw legs are time-scripted.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional

from .battery import STOCK_MODEL, battery_time_to_empty
from .camera import CameraConfig
from .control import HOVER, Command, ControllerLimits
from .geometry import ZERO3, Vec3
from .scenario import DroneSpec, LightSpec, Scenario, ScenarioError, WaypointPlan

DT = 0.1
DRONE_ID = "cf1"
SETTLE_S = 5.0
TRUNCATED_SETTLE_S = 1.0
_STOCK_LIMITS = ControllerLimits()

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


def _flight(name: str, duration, start: Vec3, params: dict, projections: tuple[str, ...],
            target: Optional[Vec3] = None, target_yaw: Optional[float] = None,
            plan: Optional[WaypointPlan] = None, script: Optional[tuple] = None,
            **fields) -> Variant:
    """One stock drone ``cf1`` starting at ``start`` and flying the waypoint
    ``plan`` or the ``(tick, Command)`` ``script``, if given, as a variant
    reporting ``params`` and errors against ``target``/``target_yaw``.

    ``duration`` is seconds rounded to whole ticks, or an int tick count.
    ``charge`` and ``camera`` go to the drone, other ``fields`` to the scenario.
    """
    if not isinstance(duration, int):
        duration = _ticks(duration)
    drone = {key: fields.pop(key) for key in ("charge", "camera") if key in fields}
    if plan is not None:
        fields["waypoints"] = {DRONE_ID: plan}
    if script is not None:
        fields["scripts"] = {DRONE_ID: script}
    scenario = Scenario(name=name, dt=DT, duration=duration,
                        drones=(DroneSpec(id=DRONE_ID, position=start, **drone),), **fields)
    return Variant(scenario, params, projections, target, target_yaw)


def build_line2d(speed: float) -> Variant:
    """One-metre legs along the y and x axes from the origin at fixed speed."""
    points = ((0.0, 1.0, 1.0), (0.0, 0.0, 1.0), (1.0, 0.0, 1.0))
    return _flight(
        _sname("line2d_s", speed), 3.0 / speed + 4.0, (0.0, 0.0, 1.0),  # a 3 m path
        {"experiment": "line2d", "speed": speed, "commanded_speed": speed}, ("xy",),
        target=points[-1], plan=WaypointPlan(speed=speed, points=points),
    )


def build_line3d(speed: float) -> Variant:
    """Diagonal leg moving one metre along each axis; the commanded velocity
    is ``speed`` per axis, i.e. speed*sqrt(3) along the track."""
    commanded = speed * math.sqrt(3.0)
    target = (0.5, 0.5, 1.5)
    return _flight(
        _sname("line3d_s", speed), 1.0 / speed + 4.0, (-0.5, -0.5, 0.5),
        {"experiment": "line3d", "speed": speed, "commanded_speed": commanded}, ("xy", "xz"),
        target=target, plan=WaypointPlan(speed=commanded, points=(target,)),
    )


def _out_and_back(name: str, start: Vec3, leg_ticks: int, out: Command, back: Command,
                  params: dict, projections: tuple[str, ...]) -> Variant:
    """Fly ``out`` for ``leg_ticks``, hover 2 s, fly ``back`` as long, hover 2 s."""
    turn = leg_ticks + _ticks(2.0)
    return _flight(name, 2 * turn, start, params, projections,
                   script=((0, out), (leg_ticks, HOVER), (turn, back), (turn + leg_ticks, HOVER)))


def build_altitude_steps(speed: float) -> Variant:
    """Climb one metre, hover, descend back, at a fixed vertical speed."""
    return _out_and_back(
        _sname("altitude_steps_s", speed), (0.0, 0.0, 0.5), _ticks(1.0 / speed),
        Command.velocity((0.0, 0.0, speed)), Command.velocity((0.0, 0.0, -speed)),
        {"experiment": "altitude-steps", "speed": speed, "commanded_speed": speed}, ("time-z",),
    )


def build_yaw_steps(rate: float) -> Variant:
    """Rotate 180 degrees and back at a fixed commanded yaw rate."""
    return _out_and_back(
        _sname("yaw_steps_w", rate), (0.0, 0.0, 1.0), _ticks(180.0 / rate),
        Command.velocity(ZERO3, yaw_rate=rate), Command.velocity(ZERO3, yaw_rate=-rate),
        {"experiment": "yaw-steps", "rate": rate, "commanded_rate": rate}, ("time-yaw",),
    )


def build_position_leg(distance: float, settle_s: float = SETTLE_S) -> Variant:
    """One straight position-controlled leg of the given length along x;
    a negative length flies towards -x."""
    target = (distance, 0.0, 1.0)
    return _flight(
        _sname("position_leg_d", distance),
        abs(distance) / _STOCK_LIMITS.max_linear_speed + settle_s, (0.0, 0.0, 1.0),
        {"experiment": "position-legs", "leg": distance}, ("xy",),
        target=target, target_yaw=0.0, script=((0, Command.position(target, 0.0)),),
        arena_min=(min(-1.5, distance - 1.5), -1.5, 0.0),
        arena_max=(max(1.5, distance + 1.5), 1.5, 3.0),
    )


def build_yaw_leg(target_yaw: float, settle_s: float = SETTLE_S) -> Variant:
    """Rotate in place to a target yaw under the position controller."""
    hold = (0.0, 0.0, 1.0)
    return _flight(
        _sname("yaw_leg_a", target_yaw),
        abs(target_yaw) / _STOCK_LIMITS.max_yaw_rate + settle_s, hold,
        {"experiment": "yaw-legs", "target": target_yaw}, ("time-yaw",),
        target=hold, target_yaw=target_yaw, script=((0, Command.position(hold, target_yaw)),),
    )


def build_battery(initial_charge: float) -> Variant:
    """Hover from the given initial charge until the battery empties."""
    expected = battery_time_to_empty(STOCK_MODEL, initial_charge)
    params = {"experiment": "battery", "initial_charge": initial_charge,
              "expected_time_to_empty": expected}
    return _flight(_sname("battery_c", initial_charge), expected + 5.0, (0.0, 0.0, 1.0),
                   params, ("time-charge",), charge=initial_charge)


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
    return _flight("camera_calibration", 1, (0.0, 0.0, z0), {"experiment": "camera-calibration"},
                   (), camera=CameraConfig(), lights=lights)


# name -> (builder, the values run when no flag narrows them, the variants()
#          keywords the experiment takes: first the one that selects a single
#          value, then truncate_settle if the builder takes a settle time)
_EXPERIMENTS = {
    "line2d": (build_line2d, VELOCITY_SPEEDS, ("speed",)),
    "line3d": (build_line3d, VELOCITY_SPEEDS, ("speed",)),
    "altitude-steps": (build_altitude_steps, VELOCITY_SPEEDS, ("speed",)),
    "yaw-steps": (build_yaw_steps, YAW_RATES, ("speed",)),
    "position-legs": (build_position_leg, POSITION_LEGS, ("leg", "truncate_settle")),
    "yaw-legs": (build_yaw_leg, YAW_TARGETS, ("target", "truncate_settle")),
    "battery": (build_battery, BATTERY_CHARGES, ("initial_charge",)),
    "camera-calibration": (build_camera_calibration, (None,), ()),
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
        build, defaults, takes = _EXPERIMENTS[name]
    except KeyError:
        raise ValueError(
            f"unknown experiment {name!r}; valid names: "
            + ", ".join(EXPERIMENT_NAMES)
        ) from None
    flags = {"speed": speed, "initial_charge": initial_charge, "leg": leg, "target": target,
             "truncate_settle": truncate_settle or None}
    for key, value in flags.items():
        if value is not None and key not in takes:
            raise FlagError(f"argument --{key.replace('_', '-')}: not taken by experiment {name}")
    values = defaults if not takes or flags[takes[0]] is None else (flags[takes[0]],)
    settle = TRUNCATED_SETTLE_S if truncate_settle else SETTLE_S
    extra = (settle,) if "truncate_settle" in takes else ()
    return [build(value, *extra) for value in values]
