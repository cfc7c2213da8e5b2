"""Velocity and position PD controllers plus kinematic integration.

The control stack for one drone is two cascaded loops running at the tick
rate:

* the position loop turns a position/yaw setpoint into a desired velocity
  and yaw rate (``position_control_step``);
* the velocity loop turns the desired velocity/yaw rate into acceleration,
  clamped to the configured limits, and integrates it into the new velocity
  state (``velocity_control_step``).

The whole cascade runs in one frame, ``drone_control_step``: the position
loop for position commands, then the velocity and yaw-rate loops with their
clamps written inline. A vector within its limit is only measured there;
``geometry.saturate`` scales one past it. The two loops stay available on
their own as ``position_control_step`` (which the cascade calls) and
``velocity_control_step`` (which runs the cascade on a velocity command).

All of these are pure functions: per-drone derivative memory is passed in
and returned explicitly so that a world snapshot fully determines the next
tick. A stage without a derivative gain returns the memory it was given
(see ``ControllerMemory``).

Default gains were calibrated against the acceptance envelope, not copied
from hardware: the linear velocity loop uses kp = 1/dt (one-tick deadbeat
tracking once the acceleration clamp releases), which makes commanded cruise
speeds attainable exactly; the yaw loop is deliberately slower so that large
commanded turn rates are not fully reached within a short turn.
"""

from __future__ import annotations

import math
from math import sqrt as _sqrt
from typing import NamedTuple, Optional

from ._value import Value
from .geometry import (
    Vec3,
    ZERO3,
    body_to_world,
    is_finite3,
    saturate,
    wrap_deg,
)

VELOCITY = "velocity"
POSITION = "position"
BODY = "body"
WORLD = "world"


class Command(Value):
    """A velocity or position setpoint for one drone.

    ``linear`` is m/s for velocity commands and metres for position commands;
    ``angular`` is deg/s for velocity commands and a target yaw in degrees
    for position commands. ``frame`` selects body-relative or world-absolute
    interpretation of ``linear`` (and of ``angular`` for position commands).
    """

    __slots__ = ("kind", "frame", "linear", "angular")

    def _validate(self):
        if self.kind not in (VELOCITY, POSITION):
            raise ValueError(f"unknown command kind {self.kind!r}")
        if self.frame not in (BODY, WORLD):
            raise ValueError(f"unknown command frame {self.frame!r}")
        if not is_finite3(self.linear) or not math.isfinite(self.angular):
            raise ValueError("command components must be finite")

    @staticmethod
    def velocity(linear: Vec3, yaw_rate: float = 0.0, frame: str = WORLD) -> "Command":
        return Command(VELOCITY, frame, tuple(linear), float(yaw_rate))

    @staticmethod
    def position(target: Vec3, yaw: float = 0.0, frame: str = WORLD) -> "Command":
        return Command(POSITION, frame, tuple(target), float(yaw))


HOVER = Command.velocity(ZERO3)


class PDGains(Value):
    """Proportional gain ``kp`` (1/s) and derivative gain ``kd`` (dimensionless)."""

    __slots__ = ("kp", "kd")
    _defaults = {"kd": 0.0}

    def _validate(self):
        if not self.kp > 0.0:
            raise ValueError("kp must be > 0")
        if self.kd < 0.0:
            raise ValueError("kd must be >= 0")
        if not (math.isfinite(self.kp) and math.isfinite(self.kd)):
            raise ValueError("gains must be finite")


class GainSet(Value):
    """Gains for the four loops: linear/yaw x velocity/position."""

    __slots__ = ("velocity", "velocity_yaw", "position", "position_yaw")
    _defaults = {
        "velocity": PDGains(10.0, 0.0),
        "velocity_yaw": PDGains(3.0, 0.0),
        "position": PDGains(1.0, 0.0),
        "position_yaw": PDGains(1.0, 0.0),
    }


class ControllerLimits(Value):
    """Limits on linear speed (m/s), yaw rate (deg/s) and their accelerations."""

    __slots__ = ("max_linear_speed", "max_yaw_rate", "max_linear_accel", "max_yaw_accel")
    _defaults = {
        "max_linear_speed": 10.0,
        "max_yaw_rate": 90.0,
        "max_linear_accel": 5.0,
        "max_yaw_accel": 720.0,
    }

    def _validate(self):
        for name in self._fields:
            value = getattr(self, name)
            if not value > 0.0:
                raise ValueError(f"{name} must be > 0")
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite")


class DroneState(NamedTuple):
    """Pose, velocity, and battery charge of one drone (world frame).

    The control steps read a state by position, so a plain tuple of these
    five fields, in this order, gives them the same result.
    """

    position: Vec3
    yaw: float
    velocity: Vec3 = ZERO3
    yaw_rate: float = 0.0
    charge: float = 1.0


class ControllerMemory(NamedTuple):
    """Previous-tick errors for the derivative terms.

    ``None`` fields mean "no history yet": the first tick after a command
    change uses a zero derivative instead of a spurious kick.

    Only a stage with a non-zero ``kd`` records its errors; a stage without
    one passes the memory through unchanged, so its fields keep what they
    held (``None`` in a fresh memory). A caller that changes a stage's
    ``kd`` from 0 to non-zero between calls therefore starts that stage
    without history, as after a command change (or, if the stage had a
    derivative gain earlier, from the errors it recorded then).
    """

    vel_err: Optional[Vec3] = None
    yaw_rate_err: Optional[float] = None
    pos_err: Optional[Vec3] = None
    yaw_err: Optional[float] = None


# The memory of a drone without history; immutable, so every reset shares it.
EMPTY_MEMORY = ControllerMemory()


def velocity_control_step(
    state: DroneState,
    memory: ControllerMemory,
    cmd: Command,
    gains: GainSet,
    limits: ControllerLimits,
    dt: float,
) -> tuple[Vec3, float, ControllerMemory]:
    """One tick of the velocity loop: returns (new velocity, new yaw rate, memory).

    The desired world-frame velocity is the command (rotated if body-relative)
    saturated at the speed limit; acceleration is kp*err + kd*d(err)/dt with
    its magnitude clamped to the acceleration limit. Yaw rate is tracked by
    the analogous scalar loop clamped to the yaw acceleration limit.

    This is ``drone_control_step`` on a velocity command, except that a
    drone with an empty battery is flown, not grounded. The memory is
    returned as given, the same object, when ``gains.velocity.kd`` and
    ``gains.velocity_yaw.kd`` are both 0.
    """
    if cmd.kind != VELOCITY:
        raise ValueError("velocity_control_step requires a velocity command")
    if state[4] <= 0.0:
        # The cascade reads the charge only to ground the drone.
        state = (*state[:4], 1.0)
    return drone_control_step(state, memory, cmd, None, gains, limits, dt)


def position_control_step(
    state: DroneState,
    memory: ControllerMemory,
    target: Vec3,
    target_yaw: float,
    gains: GainSet,
    limits: ControllerLimits,
    dt: float,
) -> tuple[Vec3, float, ControllerMemory]:
    """One tick of the position loop: returns (desired velocity, desired yaw rate, memory).

    ``target``/``target_yaw`` must already be resolved to the world frame
    (body-relative position commands are resolved once, when they activate).
    The yaw error wraps to (-180, 180] -- an exact 180 degree error turns in
    the positive (counter-clockwise) direction -- and the desired yaw rate is
    saturated at the position-mode yaw rate limit.

    The memory is returned as given, the same object, when
    ``gains.position.kd`` and ``gains.position_yaw.kd`` are both 0; else its
    position and yaw errors are replaced by this tick's.
    """
    (px, py, pz), yaw, _, _, _ = state
    ex = target[0] - px
    ey = target[1] - py
    ez = target[2] - pz
    kp = gains.position.kp
    kd = gains.position.kd
    if kd != 0.0 and memory.pos_err is not None:
        pex, pey, pez = memory.pos_err
        dx = kp * ex + kd * (ex - pex) / dt
        dy = kp * ey + kd * (ey - pey) / dt
        dz = kp * ez + kd * (ez - pez) / dt
    else:
        dx = kp * ex
        dy = kp * ey
        dz = kp * ez
    v_des = (dx, dy, dz)
    max_speed = limits.max_linear_speed
    if not _sqrt(dx * dx + dy * dy + dz * dz) <= max_speed:
        v_des = saturate(v_des, max_speed)

    yaw_err = wrap_deg(target_yaw - yaw)
    kpy = gains.position_yaw.kp
    kdy = gains.position_yaw.kd
    if kdy != 0.0 and memory.yaw_err is not None:
        rate_des = kpy * yaw_err + kdy * (yaw_err - memory.yaw_err) / dt
    else:
        rate_des = kpy * yaw_err
    max_rate = limits.max_yaw_rate
    if rate_des < -max_rate:
        rate_des = -max_rate
    elif rate_des > max_rate:
        rate_des = max_rate

    if kd == 0.0 and kdy == 0.0:
        return v_des, rate_des, memory  # no derivative term reads it
    return v_des, rate_des, ControllerMemory(
        memory.vel_err, memory.yaw_rate_err, (ex, ey, ez), yaw_err
    )


def drone_control_step(
    state: DroneState,
    memory: ControllerMemory,
    cmd: Command,
    resolved_target: Optional[tuple[Vec3, float]],
    gains: GainSet,
    limits: ControllerLimits,
    dt: float,
) -> tuple[Vec3, float, ControllerMemory]:
    """Full per-tick controller: returns (new velocity, new yaw rate, memory).

    A drone with an empty battery is grounded: both outputs are zero.
    Position commands run the position loop and feed its setpoint into the
    velocity loop; the achieved yaw rate is additionally clamped at the
    position-mode rate limit.

    ``resolved_target`` is ``cmd`` already resolved to the world frame, or
    None to resolve it here: for a position command the (target,
    target_yaw) of ``resolve_position_target``, for a velocity command the
    (linear, yaw_rate) flown in place of ``cmd.linear``/``cmd.angular``
    (a body-frame ``cmd.linear`` is rotated only when it is None).

    The velocity and yaw-rate loops run here, in this frame: each axis and
    the yaw rate get kp*err + kd*d(err)/dt (no derivative term without
    history), clamped to the acceleration limits. A vector within its limit
    is only measured; ``saturate`` is called past it (or for NaN).

    Each stage records its errors only if one of its loops has a non-zero
    ``kd``: the position stage for ``gains.position``/``position_yaw``, the
    velocity stage for ``gains.velocity``/``velocity_yaw``. With no
    derivative gain anywhere on the path, the memory given is returned, the
    same object.
    """
    _, yaw, (vx, vy, vz), rate, charge = state
    if charge <= 0.0:
        return ZERO3, 0.0, memory
    max_speed = limits.max_linear_speed
    velocity_mode = cmd.kind == VELOCITY
    if velocity_mode:
        if resolved_target is None:
            linear = cmd.linear
            if cmd.frame == BODY:
                linear = body_to_world(linear, yaw)
            rate_des = cmd.angular
        else:
            linear, rate_des = resolved_target
        dx, dy, dz = linear
        if not _sqrt(dx * dx + dy * dy + dz * dz) <= max_speed:
            dx, dy, dz = saturate(linear, max_speed)
    else:
        if resolved_target is None:
            target, target_yaw = resolve_position_target(state, cmd)
        else:
            target, target_yaw = resolved_target
        (dx, dy, dz), rate_des, memory = position_control_step(
            state, memory, target, target_yaw, gains, limits, dt
        )

    ex = dx - vx
    ey = dy - vy
    ez = dz - vz
    pd = gains.velocity
    kp = pd.kp
    kd = pd.kd
    prev = memory.vel_err
    if kd != 0.0 and prev is not None:
        ax = kp * ex + kd * (ex - prev[0]) / dt
        ay = kp * ey + kd * (ey - prev[1]) / dt
        az = kp * ez + kd * (ez - prev[2]) / dt
    else:
        ax = kp * ex
        ay = kp * ey
        az = kp * ez
    max_accel = limits.max_linear_accel
    if not _sqrt(ax * ax + ay * ay + az * az) <= max_accel:
        ax, ay, az = saturate((ax, ay, az), max_accel)
    # Defensive cap: tracking approaches the (already saturated) setpoint
    # from below, so this only trims float round-off.
    nx = vx + ax * dt
    ny = vy + ay * dt
    nz = vz + az * dt
    new_velocity = (nx, ny, nz)
    if not _sqrt(nx * nx + ny * ny + nz * nz) <= max_speed:
        new_velocity = saturate(new_velocity, max_speed)

    rate_err = rate_des - rate
    pd = gains.velocity_yaw
    kdy = pd.kd
    prev = memory.yaw_rate_err
    if kdy != 0.0 and prev is not None:
        a = pd.kp * rate_err + kdy * (rate_err - prev) / dt
    else:
        a = pd.kp * rate_err
    max_yaw_accel = limits.max_yaw_accel
    if a < -max_yaw_accel:
        a = -max_yaw_accel
    elif a > max_yaw_accel:
        a = max_yaw_accel
    new_rate = rate + a * dt
    if not velocity_mode:
        max_rate = limits.max_yaw_rate
        if new_rate < -max_rate:
            new_rate = -max_rate
        elif new_rate > max_rate:
            new_rate = max_rate
    if kd == 0.0 and kdy == 0.0:
        return new_velocity, new_rate, memory  # no derivative term reads it
    return new_velocity, new_rate, ControllerMemory(
        (ex, ey, ez), rate_err, memory.pos_err, memory.yaw_err
    )


def resolve_position_target(state: DroneState, cmd: Command) -> tuple[Vec3, float]:
    """Resolve a position command to a world-frame (target, target_yaw)."""
    if cmd.kind != POSITION:
        raise ValueError("not a position command")
    if cmd.frame == BODY:
        (x, y, z), yaw, _, _, _ = state
        off = body_to_world(cmd.linear, yaw)
        target = (x + off[0], y + off[1], z + off[2])
        target_yaw = wrap_deg(yaw + cmd.angular)
    else:
        target = cmd.linear
        target_yaw = wrap_deg(cmd.angular)
    return target, target_yaw


def next_pose(x, y, z, yaw, vx, vy, vz, yaw_rate: float, dt: float):
    """Semi-implicit Euler step of a pose: the new velocity (vx, vy, vz) and
    yaw rate move the new position and yaw. Returns (x, y, z, yaw) with yaw
    wrapped to (-180, 180] and nothing clamped, not even at the ground."""
    return x + vx * dt, y + vy * dt, z + vz * dt, wrap_deg(yaw + yaw_rate * dt)


def integrate(state: DroneState, new_velocity: Vec3, new_yaw_rate: float, dt: float) -> DroneState:
    """Semi-implicit Euler step: the new velocity moves the new position.

    Yaw wraps to (-180, 180]; altitude is floored at the ground (z >= 0).
    """
    vx, vy, vz = new_velocity
    x, y, z, yaw = next_pose(*state.position, state.yaw, vx, vy, vz, new_yaw_rate, dt)
    if z < 0.0:
        z = 0.0
    return DroneState((x, y, z), yaw, new_velocity, new_yaw_rate, state.charge)
