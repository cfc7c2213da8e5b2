import copy
import math
import pickle
import sys
from dataclasses import dataclass
from typing import Optional

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dronesim.control import (
    Command,
    ControllerLimits,
    ControllerMemory,
    DroneState,
    GainSet,
    HOVER,
    PDGains,
    drone_control_step,
    integrate,
    position_control_step,
    resolve_position_target,
    velocity_control_step,
)
from dronesim.scenario import DroneSpec, Scenario, WaypointPlan
from dronesim.world import create_world, step

DT = 0.1


def hover_state(position=(0.0, 0.0, 1.0), yaw=0.0, velocity=(0.0, 0.0, 0.0),
                yaw_rate=0.0, charge=1.0):
    return DroneState(position, yaw, velocity, yaw_rate, charge)


def flat_args(state, memory, cmd, resolved_target, gains, limits, dt):
    """The arguments of ``drone_control_step`` for a state in DroneState
    field order."""
    (x, y, z), yaw, (vx, vy, vz), yaw_rate, charge = state
    return (x, y, z, yaw, vx, vy, vz, yaw_rate, charge,
            memory, cmd, resolved_target, gains, limits, dt)


def tuple_step(*args):
    """``drone_control_step`` in its tuple form: (state, memory, cmd,
    resolved_target, gains, limits, dt) in, (velocity, yaw rate, memory)
    out, as the oracle below takes and returns them."""
    vx, vy, vz, yaw_rate, memory = drone_control_step(*flat_args(*args))
    return (vx, vy, vz), yaw_rate, memory


class TestVelocityStep:
    def test_zero_error_keeps_velocity(self):
        state = hover_state(velocity=(0.4, 0.0, 0.0))
        cmd = Command.velocity((0.4, 0.0, 0.0))
        mem = ControllerMemory(vel_err=(0.0, 0.0, 0.0))
        v, rate, _ = velocity_control_step(
            state, mem, cmd, GainSet(), ControllerLimits(), DT
        )
        assert v == (0.4, 0.0, 0.0)
        assert rate == 0.0

    def test_one_step_hand_computation(self):
        # kp=5, kd=0: raw accel 5*(1-0) = 5, exactly at the clamp, so the
        # velocity steps by 5 * 0.1 = 0.5.
        gains = GainSet(velocity=PDGains(5.0, 0.0))
        state = hover_state()
        cmd = Command.velocity((1.0, 0.0, 0.0))
        v, _, _ = velocity_control_step(
            state, ControllerMemory(), cmd, gains, ControllerLimits(), DT
        )
        assert v == (0.5, 0.0, 0.0)

    def test_accel_clamp_binds(self):
        # kp=5 against a 10 m/s error asks for 50 m/s^2; clamp to 5.
        gains = GainSet(velocity=PDGains(5.0, 0.0))
        state = hover_state()
        cmd = Command.velocity((10.0, 0.0, 0.0))
        v, _, _ = velocity_control_step(
            state, ControllerMemory(), cmd, gains, ControllerLimits(), DT
        )
        assert v == (0.5, 0.0, 0.0)

    def test_default_gains_settle_within_two_seconds(self):
        state = hover_state()
        mem = ControllerMemory()
        cmd = Command.velocity((1.0, 0.0, 0.0))
        gains = GainSet()
        limits = ControllerLimits()
        for _ in range(20):
            v, rate, mem = velocity_control_step(state, mem, cmd, gains, limits, DT)
            state = integrate(state, v, rate, DT)
        assert abs(state.velocity[0] - 1.0) < 0.01

    def test_body_frame_command_rotated_by_yaw(self):
        state = hover_state(yaw=90.0)
        cmd = Command.velocity((1.0, 0.0, 0.0), frame="body")
        v, _, _ = velocity_control_step(
            state, ControllerMemory(), cmd, GainSet(), ControllerLimits(), DT
        )
        # desired is (0, 1, 0); first step is accel-clamped to 0.5 magnitude
        assert v[0] == pytest.approx(0.0, abs=1e-12)
        assert v[1] == pytest.approx(0.5, abs=1e-12)

    def test_desired_speed_saturated(self):
        state = hover_state()
        cmd = Command.velocity((100.0, 0.0, 0.0))
        mem = ControllerMemory()
        gains = GainSet()
        limits = ControllerLimits()
        for _ in range(400):
            v, rate, mem = velocity_control_step(state, mem, cmd, gains, limits, DT)
            state = integrate(state, v, rate, DT)
        speed = math.sqrt(sum(c * c for c in state.velocity))
        assert speed == pytest.approx(10.0, abs=1e-9)

    def test_requires_velocity_command(self):
        with pytest.raises(ValueError):
            velocity_control_step(
                hover_state(), ControllerMemory(),
                Command.position((1.0, 0.0, 1.0)), GainSet(), ControllerLimits(), DT,
            )


class TestPositionStep:
    def test_at_target_at_rest_gives_zero_setpoint(self):
        state = hover_state(position=(1.0, 2.0, 1.0))
        v_des, rate_des, _ = position_control_step(
            state, ControllerMemory(), (1.0, 2.0, 1.0), 0.0,
            GainSet(), ControllerLimits(), DT,
        )
        assert v_des == (0.0, 0.0, 0.0)
        assert rate_des == 0.0

    def test_large_error_saturates_to_speed_limit(self):
        # kp_pos=1, kd_pos=0: raw (50,0,0) m/s, saturated to (10,0,0).
        state = hover_state(position=(0.0, 0.0, 1.0))
        v_des, _, _ = position_control_step(
            state, ControllerMemory(), (50.0, 0.0, 1.0), 0.0,
            GainSet(position=PDGains(1.0, 0.0)), ControllerLimits(), DT,
        )
        assert v_des == pytest.approx((10.0, 0.0, 0.0), abs=1e-12)

    def test_opposite_yaw_saturates_rate_positive(self):
        # 180 degree error: tie-break turns counter-clockwise, rate capped at +90.
        state = hover_state(yaw=0.0)
        _, rate_des, _ = position_control_step(
            state, ControllerMemory(), (0.0, 0.0, 1.0), 180.0,
            GainSet(), ControllerLimits(), DT,
        )
        assert rate_des == 90.0

    def test_yaw_error_wraps_shortest_path(self):
        state = hover_state(yaw=170.0)
        _, rate_des, _ = position_control_step(
            state, ControllerMemory(), (0.0, 0.0, 1.0), -170.0,
            GainSet(), ControllerLimits(), DT,
        )
        # -170 is 20 degrees counter-clockwise from +170
        assert rate_des == pytest.approx(20.0, abs=1e-9)


class TestIntegrate:
    def test_zero_velocity_keeps_position(self):
        state = hover_state()
        new = integrate(state, (0.0, 0.0, 0.0), 0.0, DT)
        assert new.position == state.position

    def test_linear_step(self):
        new = integrate(hover_state(), (1.0, 0.0, 0.0), 0.0, DT)
        assert new.position == (0.1, 0.0, 1.0)

    def test_yaw_wraparound(self):
        state = hover_state(yaw=175.0)
        new = integrate(state, (0.0, 0.0, 0.0), 100.0, DT)
        assert new.yaw == pytest.approx(-175.0, abs=1e-9)

    def test_altitude_floor(self):
        state = hover_state(position=(0.0, 0.0, 0.05))
        new = integrate(state, (0.0, 0.0, -2.0), 0.0, DT)
        assert new.position[2] == 0.0


class TestDroneControlStep:
    def test_empty_battery_grounds_outputs(self):
        cmd = Command.velocity((1.0, 0.0, 0.0))
        mem = ControllerMemory()
        got = drone_control_step(0.0, 0.0, 1.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0,
                                 mem, cmd, None, GainSet(), ControllerLimits(), DT)
        assert got == (0.0, 0.0, 0.0, 0.0, mem) and got[4] is mem

    def test_position_mode_converges_with_default_gains(self):
        state = hover_state()
        mem = ControllerMemory()
        cmd = Command.position((1.5, -0.5, 2.0), 30.0)
        gains = GainSet()
        limits = ControllerLimits()
        target = ((1.5, -0.5, 2.0), 30.0)
        for _ in range(80):  # 8 s
            v, rate, mem = tuple_step(state, mem, cmd, target, gains, limits, DT)
            state = integrate(state, v, rate, DT)
        err = math.dist(state.position, (1.5, -0.5, 2.0))
        assert err < 0.01
        assert abs(state.yaw - 30.0) < 0.5

    def test_position_mode_yaw_rate_stays_below_limit(self):
        state = hover_state()
        mem = ControllerMemory()
        cmd = Command.position((0.0, 0.0, 1.0), 180.0)
        target = ((0.0, 0.0, 1.0), 180.0)
        gains = GainSet()
        limits = ControllerLimits()
        peak = 0.0
        for _ in range(70):
            v, rate, mem = tuple_step(state, mem, cmd, target, gains, limits, DT)
            state = integrate(state, v, rate, DT)
            peak = max(peak, abs(state.yaw_rate))
        assert peak < 90.0
        assert abs(state.yaw - 180.0) < 0.5 or abs(state.yaw + 180.0) < 0.5

    @staticmethod
    def python_calls_inside(*args):
        """Names of the Python functions called during one
        ``drone_control_step`` on ``flat_args(*args)``, the step itself
        left out."""
        args = flat_args(*args)
        names = []

        def profile(frame, event, arg):
            if event == "call" and frame.f_code is not drone_control_step.__code__:
                names.append(frame.f_code.co_name)

        previous = sys.getprofile()
        sys.setprofile(profile)
        try:
            drone_control_step(*args)
        finally:
            sys.setprofile(previous)
        return names

    @pytest.mark.parametrize("yaw_kd", [0.2, 0.0])
    @pytest.mark.parametrize("velocity,linear,memory,pd,limits,dt", [
        ((0.2, -0.1, 0.0), (0.3, -0.2, 0.1), ControllerMemory((0.1, 0.0, 0.0), 1.0),
         PDGains(2.0, 0.1), ControllerLimits(), DT),
        # The setpoint, the acceleration and the new velocity are each
        # exactly at their limit of 5.0.
        ((0.0, 0.0, 0.0), (3.0, 4.0, 0.0), ControllerMemory(),
         PDGains(1.0), ControllerLimits(5.0, 90.0, 5.0, 720.0), 1.0),
    ])
    def test_world_velocity_within_limits_makes_no_python_calls(
            self, velocity, linear, memory, pd, limits, dt, yaw_kd):
        state = hover_state(velocity=velocity, yaw_rate=5.0)
        gains = GainSet(velocity=pd, velocity_yaw=PDGains(3.0, yaw_kd))
        cmd = Command.velocity(linear, 10.0)
        calls = self.python_calls_inside(state, memory, cmd, None, gains, limits, dt)
        if pd.kd or yaw_kd:
            # A stage with a derivative gain records its errors in a new
            # memory: the one call is its constructor.
            assert calls == [ControllerMemory.__new__.__code__.co_name]
        else:  # the stock gains, which every drone without a kd flies on
            assert calls == []

    def test_guided_step_constructs_no_command(self):
        # Guidance writes its setpoint to the drone's target: no frame of
        # a step() builds, checks or returns a Command.
        scenario = Scenario(
            drones=(DroneSpec(id="a", position=(0.0, 0.0, 1.0)),
                    DroneSpec(id="b", position=(1.0, 1.0, 1.0),
                              gains=GainSet(velocity=PDGains(8.0, 0.3)))),
            waypoints={"a": WaypointPlan(speed=0.5, points=((3.0, 0.0, 1.0), (3.0, 3.0, 1.0))),
                       "b": WaypointPlan(speed=2.0, points=((-2.0, 1.0, 2.0),))},
        )
        world = step(create_world(scenario))
        commands = []

        def profile(frame, event, arg):
            if event == "call" and isinstance(frame.f_locals.get("self"), Command):
                commands.append(frame.f_code.co_name)
            elif event == "return" and isinstance(arg, Command):
                commands.append(frame.f_code.co_name)

        previous = sys.getprofile()
        sys.setprofile(profile)
        try:
            stepped = step(world)
        finally:
            sys.setprofile(previous)
        assert commands == []
        for drone in stepped.drones:
            assert drone.command is HOVER and drone.target is not None

    def test_position_within_limits_calls_only_the_position_loop(self):
        state = hover_state(position=(1.0, 2.0, 1.0), yaw=10.0)
        target = ((1.05, 2.02, 1.01), 40.0)
        cmd = Command.position(*target)
        names = self.python_calls_inside(
            state, ControllerMemory(), cmd, target, GainSet(), ControllerLimits(), DT)
        # The one position loop, which position_control_step also runs.
        assert names.count("_position_loop") == 1
        assert set(names) <= {"_position_loop", "wrap_deg"}


def _gains_flat(gains):
    return tuple(x for pd in (gains.velocity, gains.velocity_yaw, gains.position,
                              gains.position_yaw) for x in (pd.kp, pd.kd))


def _limits_flat(limits):
    return (limits.max_linear_speed, limits.max_yaw_rate,
            limits.max_linear_accel, limits.max_yaw_accel)


class TestFlatLoopConstants:
    """``GainSet.flat`` and ``ControllerLimits.flat``, the numbers the
    cascade reads, follow the fields however an instance was built."""

    GAINS = (PDGains(8.0, 0.3), PDGains(3.0, 0.2), PDGains(2.0, 0.5), PDGains(1.5))
    LIMITS = (0.5, 10.0, 1.0, 50.0)

    def built(self, cls, values, other):
        fields = dict(zip(cls._fields, values))
        made = [cls(), cls(*values), cls(**fields), cls()._replace(**fields),
                cls(*values)._replace(**{cls._fields[0]: other})]
        for clone in (copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))):
            made += [clone(value) for value in made[:5]]
        return made

    def test_gain_set(self):
        for gains in self.built(GainSet, self.GAINS, PDGains(4.0, 0.1)):
            assert gains.flat == _gains_flat(gains)
        assert GainSet().flat == (10.0, 0.0, 3.0, 0.0, 1.0, 0.0, 1.0, 0.0)

    def test_controller_limits(self):
        for limits in self.built(ControllerLimits, self.LIMITS, 2.0):
            assert limits.flat == _limits_flat(limits)
        assert ControllerLimits().flat == (10.0, 90.0, 5.0, 720.0)

    @pytest.mark.parametrize("cls,values", [(GainSet, GAINS), (ControllerLimits, LIMITS)])
    def test_equal_fields_compare_and_hash_equal(self, cls, values):
        first = cls(*values)
        for second in (cls(**dict(zip(cls._fields, values))), copy.deepcopy(first),
                       pickle.loads(pickle.dumps(first)), cls()._replace(
                           **dict(zip(cls._fields, values)))):
            assert first == second and hash(first) == hash(second)
            assert repr(first) == repr(second)
        assert "flat" not in cls._fields and "flat" not in repr(first)
        assert first != cls()


class TestCommandValidation:
    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            Command.velocity((float("nan"), 0.0, 0.0))

    def test_rejects_bad_kind(self):
        with pytest.raises(ValueError):
            Command("teleport", "world", (0.0, 0.0, 0.0), 0.0)

    def test_gains_must_be_positive(self):
        with pytest.raises(ValueError):
            PDGains(0.0)
        with pytest.raises(ValueError):
            PDGains(1.0, -0.1)

    def test_limits_must_be_positive(self):
        with pytest.raises(ValueError):
            ControllerLimits(max_linear_speed=0.0)


class TestStateTypes:
    def test_positional_keyword_and_defaults(self):
        state = DroneState((1.0, 2.0, 3.0), 45.0)
        assert state == DroneState(position=(1.0, 2.0, 3.0), yaw=45.0,
                                   velocity=(0.0, 0.0, 0.0), yaw_rate=0.0, charge=1.0)
        assert state == ((1.0, 2.0, 3.0), 45.0, (0.0, 0.0, 0.0), 0.0, 1.0)
        assert ControllerMemory() == (None, None, None, None)
        assert ControllerMemory(pos_err=(1.0, 0.0, 0.0)).pos_err == (1.0, 0.0, 0.0)

    def test_immutable(self):
        state = hover_state()
        with pytest.raises(AttributeError):
            state.yaw = 1.0
        with pytest.raises(AttributeError):
            ControllerMemory().vel_err = (0.0, 0.0, 0.0)
        assert state._replace(yaw=1.0).yaw == 1.0 and state.yaw == 0.0


# --------------------------------------------------------------------------
# Differential oracle: the controller stack as it was before DroneState and
# ControllerMemory became NamedTuples and the PD tracking was folded into
# one velocity loop. Kept verbatim (geometry helpers included) so that any
# change to the live stack must reproduce its outputs bit for bit. Two
# deliberate changes since: ``_o_saturate`` measures a finite vector whose
# norm exceeds the float range in units of its largest component, as
# ``geometry.saturate`` does, and each stage follows
# ``_o_unread_memory_rule``. The live cascade takes and returns plain
# floats; ``tuple_step`` gives it the oracle's tuple form.

def _o_wrap_deg(angle):
    if -180.0 < angle <= 180.0:
        return angle
    r = math.fmod(angle + 180.0, 360.0)
    if r <= 0.0:
        r += 360.0
    return r - 180.0


def _o_norm(v):
    return math.sqrt(v[0] * v[0] + v[1] * v[1] + v[2] * v[2])


def _o_body_to_world(v, yaw_deg):
    rad = math.radians(yaw_deg)
    c = math.cos(rad)
    s = math.sin(rad)
    return (c * v[0] - s * v[1], s * v[0] + c * v[1], v[2])


def _o_saturate(v, vmax):
    n = _o_norm(v)
    if n <= vmax:
        return v
    if n == math.inf:  # overflowed squares: the true norm of a finite vector
        n = math.hypot(*v)
        m = max(abs(v[0]), abs(v[1]), abs(v[2]))
        if n == math.inf and m < math.inf:  # a norm beyond the float range
            v = (v[0] / m, v[1] / m, v[2] / m)
            n = math.hypot(*v)
    s = vmax / n
    return (v[0] * s, v[1] * s, v[2] * s)


def _o_clamp(x, lo, hi):
    if x < lo:
        return lo
    if x > hi:
        return hi
    return x


@dataclass(frozen=True)
class _OState:
    position: tuple
    yaw: float
    velocity: tuple = (0.0, 0.0, 0.0)
    yaw_rate: float = 0.0
    charge: float = 1.0


@dataclass(frozen=True)
class _OMemory:
    vel_err: Optional[tuple] = None
    yaw_rate_err: Optional[float] = None
    pos_err: Optional[tuple] = None
    yaw_err: Optional[float] = None


# A dataclass repr starts with the qualified name; the live types' reprs
# start with their own names.
_OState.__qualname__ = "DroneState"
_OMemory.__qualname__ = "ControllerMemory"


# The unread-memory rule: a stage none of whose loops has a derivative gain
# returns the memory it was given, the same object, instead of recording
# errors that no derivative term reads (with kd = 0 a loop never reads its
# memory field). A stage with a non-zero kd records exactly what it did.
def _o_unread_memory_rule(loops, given, recorded):
    if any(pd.kd != 0.0 for pd in loops):
        return recorded
    return given


def _o_velocity_control_step(state, memory, cmd, gains, limits, dt):
    if cmd.kind != "velocity":
        raise ValueError("velocity_control_step requires a velocity command")
    linear = cmd.linear
    if cmd.frame == "body":
        linear = _o_body_to_world(linear, state.yaw)
    v_des = _o_saturate(linear, limits.max_linear_speed)
    return _o_velocity_loop(state, memory, v_des, cmd.angular, gains, limits, dt)


def _o_position_control_step(state, memory, target, target_yaw, gains, limits, dt):
    ex = target[0] - state.position[0]
    ey = target[1] - state.position[1]
    ez = target[2] - state.position[2]
    kp = gains.position.kp
    kd = gains.position.kd
    if kd != 0.0 and memory.pos_err is not None:
        pex, pey, pez = memory.pos_err
        raw = (
            kp * ex + kd * (ex - pex) / dt,
            kp * ey + kd * (ey - pey) / dt,
            kp * ez + kd * (ez - pez) / dt,
        )
    else:
        raw = (kp * ex, kp * ey, kp * ez)
    v_des = _o_saturate(raw, limits.max_linear_speed)

    yaw_err = _o_wrap_deg(target_yaw - state.yaw)
    kpy = gains.position_yaw.kp
    kdy = gains.position_yaw.kd
    if kdy != 0.0 and memory.yaw_err is not None:
        rate_des = kpy * yaw_err + kdy * (yaw_err - memory.yaw_err) / dt
    else:
        rate_des = kpy * yaw_err
    rate_des = _o_clamp(rate_des, -limits.max_yaw_rate, limits.max_yaw_rate)

    new_memory = _OMemory(
        vel_err=memory.vel_err,
        yaw_rate_err=memory.yaw_rate_err,
        pos_err=(ex, ey, ez),
        yaw_err=yaw_err,
    )
    new_memory = _o_unread_memory_rule(
        (gains.position, gains.position_yaw), memory, new_memory)
    return v_des, rate_des, new_memory


def _o_drone_control_step(state, memory, cmd, resolved_target, gains, limits, dt):
    if state.charge <= 0.0:
        return (0.0, 0.0, 0.0), 0.0, memory
    if cmd.kind == "velocity":
        return _o_velocity_control_step(state, memory, cmd, gains, limits, dt)

    if resolved_target is None:
        target, target_yaw = _o_resolve_position_target(state, cmd)
    else:
        target, target_yaw = resolved_target
    v_des, rate_des, memory = _o_position_control_step(
        state, memory, target, target_yaw, gains, limits, dt
    )
    new_velocity, new_rate, memory = _o_velocity_loop(
        state, memory, v_des, rate_des, gains, limits, dt
    )
    new_rate = _o_clamp(new_rate, -limits.max_yaw_rate, limits.max_yaw_rate)
    return new_velocity, new_rate, memory


def _o_resolve_position_target(state, cmd):
    if cmd.kind != "position":
        raise ValueError("not a position command")
    if cmd.frame == "body":
        off = _o_body_to_world(cmd.linear, state.yaw)
        target = (
            state.position[0] + off[0],
            state.position[1] + off[1],
            state.position[2] + off[2],
        )
        target_yaw = _o_wrap_deg(state.yaw + cmd.angular)
    else:
        target = cmd.linear
        target_yaw = _o_wrap_deg(cmd.angular)
    return target, target_yaw


def _o_integrate(state, new_velocity, new_yaw_rate, dt):
    x = state.position[0] + new_velocity[0] * dt
    y = state.position[1] + new_velocity[1] * dt
    z = state.position[2] + new_velocity[2] * dt
    if z < 0.0:
        z = 0.0
    yaw = _o_wrap_deg(state.yaw + new_yaw_rate * dt)
    return _OState(
        position=(x, y, z),
        yaw=yaw,
        velocity=new_velocity,
        yaw_rate=new_yaw_rate,
        charge=state.charge,
    )


def _o_velocity_loop(state, memory, v_des, rate_des, gains, limits, dt):
    new_velocity, vel_err = _o_track_vector(
        state.velocity, v_des, memory.vel_err, gains.velocity,
        limits.max_linear_accel, limits.max_linear_speed, dt,
    )
    new_rate, rate_err = _o_track_scalar(
        state.yaw_rate, rate_des, memory.yaw_rate_err, gains.velocity_yaw,
        limits.max_yaw_accel, dt,
    )
    new_memory = _OMemory(
        vel_err=vel_err,
        yaw_rate_err=rate_err,
        pos_err=memory.pos_err,
        yaw_err=memory.yaw_err,
    )
    new_memory = _o_unread_memory_rule(
        (gains.velocity, gains.velocity_yaw), memory, new_memory)
    return new_velocity, new_rate, new_memory


def _o_track_vector(current, desired, prev_err, pd, accel_max, speed_max, dt):
    ex = desired[0] - current[0]
    ey = desired[1] - current[1]
    ez = desired[2] - current[2]
    kp = pd.kp
    kd = pd.kd
    if kd != 0.0 and prev_err is not None:
        ax = kp * ex + kd * (ex - prev_err[0]) / dt
        ay = kp * ey + kd * (ey - prev_err[1]) / dt
        az = kp * ez + kd * (ez - prev_err[2]) / dt
    else:
        ax = kp * ex
        ay = kp * ey
        az = kp * ez
    ax, ay, az = _o_saturate((ax, ay, az), accel_max)
    new = (current[0] + ax * dt, current[1] + ay * dt, current[2] + az * dt)
    new = _o_saturate(new, speed_max)
    return new, (ex, ey, ez)


def _o_track_scalar(current, desired, prev_err, pd, accel_max, dt):
    err = desired - current
    if pd.kd != 0.0 and prev_err is not None:
        a = pd.kp * err + pd.kd * (err - prev_err) / dt
    else:
        a = pd.kp * err
    a = _o_clamp(a, -accel_max, accel_max)
    return current + a * dt, err


# Mostly moderate values, sometimes huge or non-finite state: both stacks
# must take the same branch on NaN (``n <= vmax`` is False for NaN).
_finite = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)
_special = st.sampled_from([0.0, -0.0, 1e300, -1e300, math.inf, math.nan])
_value = st.one_of(_finite, _finite, _finite, _special)
_vec = st.tuples(_value, _value, _value)
_cmd_vec = st.tuples(_finite, _finite, _finite)
_yaw = st.floats(min_value=-720.0, max_value=720.0, allow_nan=False)
_kd = st.floats(min_value=0.01, max_value=2.0) | st.just(0.0)
_gains = st.builds(
    GainSet,
    velocity=st.builds(PDGains, st.floats(0.1, 20.0), _kd),
    velocity_yaw=st.builds(PDGains, st.floats(0.1, 20.0), _kd),
    position=st.builds(PDGains, st.floats(0.1, 5.0), _kd),
    position_yaw=st.builds(PDGains, st.floats(0.1, 5.0), _kd),
)
# Small enough that both saturations and the yaw clamp bind.
_limits = st.builds(
    ControllerLimits,
    max_linear_speed=st.floats(0.05, 5.0),
    max_yaw_rate=st.floats(1.0, 120.0),
    max_linear_accel=st.floats(0.1, 10.0),
    max_yaw_accel=st.floats(1.0, 720.0),
)
_commands = st.builds(
    Command,
    kind=st.sampled_from(["velocity", "position"]),
    frame=st.sampled_from(["body", "world"]),
    linear=_cmd_vec,
    angular=_yaw,
)
_memories = st.tuples(
    st.none() | _vec, st.none() | _value, st.none() | _vec, st.none() | _value,
)


@settings(max_examples=500, deadline=None)
@given(
    position=_vec, yaw=_yaw | _value, velocity=_vec, yaw_rate=_value,
    charge=st.floats(-0.5, 1.0) | st.just(0.0), memory=_memories, other=_memories,
    cmd=_commands, resolved=st.none() | st.tuples(_cmd_vec, _yaw),
    gains=_gains, limits=_limits, dt=st.sampled_from([0.1, 0.05]) | st.floats(0.001, 0.5),
)
@example(  # kd on all four loops, every saturation and the yaw clamp binding
    position=(0.0, 0.0, 1.0), yaw=170.0, velocity=(0.5, -0.5, 0.1), yaw_rate=30.0,
    charge=0.5, memory=((0.1, 0.2, 0.3), 5.0, (1.0, -1.0, 0.5), 10.0),
    other=((-0.3, 0.0, 0.1), -2.0, (0.5, 0.5, 0.5), -20.0),
    cmd=Command.position((4.0, -3.0, 2.0), -170.0, "body"), resolved=None,
    gains=GainSet(PDGains(8.0, 0.3), PDGains(3.0, 0.2), PDGains(2.0, 0.5), PDGains(1.5, 0.4)),
    limits=ControllerLimits(0.5, 10.0, 1.0, 50.0), dt=0.1,
)
# The command (or position-loop) setpoint, the acceleration and the new
# velocity each have a norm of exactly 5.0, the limit: sqrt(3*3 + 4*4) is
# exact, and so are kp = 1 and dt = 1.
@example(
    position=(0.0, 0.0, 0.0), yaw=0.0, velocity=(0.0, 0.0, 0.0), yaw_rate=0.0,
    charge=1.0, memory=(None, None, None, None),
    other=((1.0, 2.0, 3.0), 4.0, (5.0, 6.0, 7.0), 8.0),
    cmd=Command.velocity((3.0, 4.0, 0.0)), resolved=None,
    gains=GainSet(PDGains(1.0), PDGains(1.0), PDGains(1.0), PDGains(1.0)),
    limits=ControllerLimits(5.0, 90.0, 5.0, 720.0), dt=1.0,
)
@example(
    position=(0.0, 0.0, 0.0), yaw=0.0, velocity=(0.0, 0.0, 0.0), yaw_rate=0.0,
    charge=1.0, memory=(None, None, None, None),
    other=((1.0, 2.0, 3.0), 4.0, (5.0, 6.0, 7.0), 8.0),
    cmd=Command.position((3.0, 4.0, 0.0)), resolved=((3.0, 4.0, 0.0), 0.0),
    gains=GainSet(PDGains(1.0), PDGains(1.0), PDGains(1.0), PDGains(1.0)),
    limits=ControllerLimits(5.0, 90.0, 5.0, 720.0), dt=1.0,
)
# Each derivative term with history and no limit binding, on values where
# kd * (e - pe) / dt and kd / dt * (e - pe) differ in the last bit: one
# position command for the two outer loops, one velocity command for the
# two inner ones. A zero velocity and yaw rate pass the setpoint into the
# recorded velocity errors unrounded.
@example(
    position=(0.0, 0.0, 1.0), yaw=10.0, velocity=(0.0, 0.0, 0.0), yaw_rate=0.0,
    charge=1.0, memory=((0.24, 0.08, -0.05), -1.4, (0.0, 0.03, -0.36), 2.6),
    other=(None, None, None, None),
    cmd=Command.position((0.49, -0.29, 1.12), 8.8), resolved=None,
    gains=GainSet(PDGains(2.3, 0.22), PDGains(1.7, 0.26), PDGains(0.9, 0.2), PDGains(0.8, 0.32)),
    limits=ControllerLimits(10.0, 90.0, 50.0, 7200.0), dt=0.03,
)
@example(
    position=(0.0, 0.0, 1.0), yaw=10.0, velocity=(0.0, 0.0, 0.0), yaw_rate=0.0,
    charge=1.0, memory=((0.39, 0.35, 0.44), -0.1, None, None),
    other=(None, None, None, None),
    cmd=Command.velocity((-0.41, -0.1, 0.01), 2.9), resolved=None,
    gains=GainSet(PDGains(2.3, 0.49), PDGains(1.7, 0.2), PDGains(0.9, 0.07), PDGains(0.8, 0.07)),
    limits=ControllerLimits(10.0, 90.0, 50.0, 7200.0), dt=0.03,
)
def test_control_matches_parent_oracle(position, yaw, velocity, yaw_rate, charge,
                                       memory, other, cmd, resolved, gains, limits, dt):
    state = DroneState(position, yaw, velocity, yaw_rate, charge)
    o_state = _OState(position, yaw, velocity, yaw_rate, charge)
    mem = ControllerMemory(*memory)
    o_mem = _OMemory(*memory)
    if cmd.kind == "velocity":
        resolved = None
    velocity_kd = gains.velocity.kd != 0.0 or gains.velocity_yaw.kd != 0.0
    position_kd = gains.position.kd != 0.0 or gains.position_yaw.kd != 0.0
    want = _assert_same(tuple_step, _o_drone_control_step,
                        (state, mem), (o_state, o_mem), cmd, resolved, gains, limits, dt)
    if want is not None:
        _assert_same(integrate, _o_integrate, (state,), (o_state,), want[0], want[1], dt)
        # The unread-memory rule, on the live stack: no stage on the path
        # records, so the memory given comes back, the same object.
        got = tuple_step(state, mem, cmd, resolved, gains, limits, dt)
        records = charge > 0.0 and (velocity_kd or (cmd.kind == "position" and position_kd))
        assert (got[2] is mem) == (not records)
        # The fields of a stage without a derivative gain are never read:
        # velocity and yaw rate keep every bit whatever those fields hold.
        unread = ControllerMemory(
            *(other[:2] if not velocity_kd else memory[:2]),
            *(other[2:] if not position_kd else memory[2:]),
        )
        assert repr(tuple_step(state, unread, cmd, resolved, gains, limits, dt)[:2]) \
            == repr(got[:2])
    if cmd.kind == "velocity":
        flown = _assert_same(velocity_control_step, _o_velocity_control_step,
                             (state, mem), (o_state, o_mem), cmd, gains, limits, dt)
        if flown is not None and not velocity_kd:
            assert velocity_control_step(state, mem, cmd, gains, limits, dt)[2] is mem
        return
    target = _assert_same(resolve_position_target, _o_resolve_position_target,
                          (state,), (o_state,), cmd)
    if resolved is not None or target is not None:
        setpoint = _assert_same(position_control_step, _o_position_control_step,
                                (state, mem), (o_state, o_mem), *(resolved or target),
                                gains, limits, dt)
        if setpoint is not None and not position_kd:
            got = position_control_step(state, mem, *(resolved or target), gains, limits, dt)
            assert got[2] is mem


def _assert_same(live, oracle, live_args, oracle_args, *shared):
    """Both functions return results with the same repr, which pins every
    bit of every float, or raise the same exception type. Returns the
    oracle's result (None if it raised)."""
    outcomes = []
    for fn, args in ((live, live_args), (oracle, oracle_args)):
        try:
            outcomes.append((fn(*args, *shared), None))
        except Exception as exc:  # noqa: BLE001 (the type is compared)
            outcomes.append((None, type(exc)))
    assert repr(outcomes[0]) == repr(outcomes[1])
    return outcomes[1][0]


# The tuple-form steps read ``state`` by position: a DroneState and the
# plain tuple of its fields give the same bits.
@settings(max_examples=500, deadline=None)
@given(
    position=_vec, yaw=_yaw | _value, velocity=_vec, yaw_rate=_value,
    charge=st.floats(-0.5, 1.0) | st.just(0.0), memory=_memories,
    cmd=_commands, resolved=st.none() | st.tuples(_cmd_vec, _yaw),
    gains=_gains, limits=_limits, dt=st.sampled_from([0.1, 0.05]) | st.floats(0.001, 0.5),
)
@example(  # kd on all four loops, a body-frame position command, history
    position=(0.0, 0.0, 1.0), yaw=170.0, velocity=(0.5, -0.5, 0.1), yaw_rate=30.0,
    charge=0.5, memory=((0.1, 0.2, 0.3), 5.0, (1.0, -1.0, 0.5), 10.0),
    cmd=Command.position((4.0, -3.0, 2.0), -170.0, "body"), resolved=None,
    gains=GainSet(PDGains(8.0, 0.3), PDGains(3.0, 0.2), PDGains(2.0, 0.5), PDGains(1.5, 0.4)),
    limits=ControllerLimits(0.5, 10.0, 1.0, 50.0), dt=0.1,
)
@example(  # a grounded drone under a body-frame velocity command
    position=(0.0, 0.0, 0.0), yaw=45.0, velocity=(1.0, 0.0, 0.0), yaw_rate=0.0,
    charge=0.0, memory=(None, None, None, None),
    cmd=Command.velocity((1.0, 2.0, 0.0), 10.0, "body"), resolved=None,
    gains=GainSet(), limits=ControllerLimits(), dt=0.1,
)
def test_plain_state_tuple_matches_drone_state(position, yaw, velocity, yaw_rate, charge,
                                               memory, cmd, resolved, gains, limits, dt):
    fields = (position, yaw, velocity, yaw_rate, charge)
    state = DroneState(*fields)
    mem = ControllerMemory(*memory)
    _assert_same(tuple_step, tuple_step,
                 (state, mem), (fields, mem), cmd, resolved, gains, limits, dt)
    _assert_same(resolve_position_target, resolve_position_target,
                 (state,), (fields,), cmd)
    target = resolved or (cmd.linear, cmd.angular)
    _assert_same(position_control_step, position_control_step,
                 (state, mem), (fields, mem), *target, gains, limits, dt)
    if cmd.kind == "velocity":
        _assert_same(velocity_control_step, velocity_control_step,
                     (state, mem), (fields, mem), cmd, gains, limits, dt)


# A velocity command resolved to the world frame: the cascade flies
# ``resolved_target`` = (linear, yaw_rate) in place of the command, as
# waypoint guidance does under HOVER, with the same bits as the command
# itself. Setpoints reach past the speed limit and past the float range
# of their squares.
_setpoint = st.one_of(_finite, st.sampled_from([0.0, -0.0, 1e200, -1e300, 1.7e308]))


@settings(max_examples=500, deadline=None)
@given(
    position=_vec, yaw=_yaw | _value, velocity=_vec, yaw_rate=_value,
    charge=st.floats(-0.5, 1.0) | st.just(0.0), memory=_memories,
    linear=st.tuples(_setpoint, _setpoint, _setpoint),
    gains=_gains, limits=_limits, dt=st.sampled_from([0.1, 0.05]) | st.floats(0.001, 0.5),
)
@example(  # kd on both velocity-stage loops, with history, setpoint past the limit
    position=(0.0, 0.0, 1.0), yaw=170.0, velocity=(0.5, -0.5, 0.1), yaw_rate=30.0,
    charge=0.5, memory=((0.1, 0.2, 0.3), 5.0, None, None), linear=(4.0, -3.0, 2.0),
    gains=GainSet(PDGains(8.0, 0.3), PDGains(3.0, 0.2), PDGains(2.0, 0.5), PDGains(1.5, 0.4)),
    limits=ControllerLimits(0.5, 10.0, 1.0, 50.0), dt=0.1,
)
@example(  # squares that overflow, an empty battery
    position=(0.0, 0.0, 0.0), yaw=0.0, velocity=(0.0, 0.0, 0.0), yaw_rate=0.0,
    charge=0.0, memory=(None, None, None, None), linear=(1e200, -1e300, 1.7e308),
    gains=GainSet(), limits=ControllerLimits(), dt=0.1,
)
def test_resolved_velocity_target_matches_the_command(position, yaw, velocity, yaw_rate, charge,
                                                      memory, linear, gains, limits, dt):
    state = DroneState(position, yaw, velocity, yaw_rate, charge)
    mem = ControllerMemory(*memory)
    flown = []
    for cmd, resolved in ((HOVER, (linear, 0.0)), (Command.velocity(linear), None)):
        try:
            flown.append(tuple_step(state, mem, cmd, resolved, gains, limits, dt))
        except Exception as exc:  # noqa: BLE001 (the type is compared)
            flown.append(type(exc))
    guided, commanded = flown
    if not isinstance(commanded, tuple):
        assert guided is commanded
        return
    assert [c.hex() for c in guided[0]] == [c.hex() for c in commanded[0]]
    assert guided[1].hex() == commanded[1].hex()
    assert repr(guided[2]) == repr(commanded[2])
    assert (guided[2] is mem) == (commanded[2] is mem)
    if gains.velocity.kd == 0.0 and gains.velocity_yaw.kd == 0.0:
        assert guided[2] is mem
