"""Hypothesis property tests for the core invariants."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from dronesim.battery import DEFAULT_T_MAX, BatteryModel, battery_next_charge
from dronesim.control import (
    Command,
    ControllerLimits,
    ControllerMemory,
    DroneState,
    GainSet,
    velocity_control_step,
)
from dronesim.geometry import body_to_world, saturate, wrap_deg
from dronesim.rab import make_reading
from dronesim.trajectory import mse


def norm(v):
    return math.sqrt(v[0] * v[0] + v[1] * v[1] + v[2] * v[2])

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
small = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)
vec3 = st.tuples(small, small, small)
angle = st.floats(min_value=-720.0, max_value=720.0, allow_nan=False)


@given(vec3, st.floats(min_value=1e-3, max_value=100.0))
def test_saturate_direction_and_magnitude(v, vmax):
    clipped = saturate(v, vmax)
    n = norm(v)
    assert norm(clipped) <= vmax + 1e-12
    if n > vmax and n > 0.0:
        cos = sum(a * b for a, b in zip(v, clipped)) / (n * norm(clipped))
        assert abs(cos - 1.0) <= 1e-12
    elif n <= vmax:
        assert clipped == v


@given(angle)
def test_wrap_deg_in_half_open_range(a):
    w = wrap_deg(a)
    assert -180.0 < w <= 180.0


@given(vec3, angle)
def test_body_to_world_preserves_norm(v, yaw):
    rotated = body_to_world(v, yaw)
    assert abs(norm(rotated) - norm(v)) <= 1e-9 * max(1.0, norm(v))
    assert rotated[2] == v[2]


def world_to_body(v, yaw_deg):
    """Inverse of :func:`body_to_world`."""
    return body_to_world(v, -yaw_deg)


@given(vec3, angle)
def test_body_world_round_trip(v, yaw):
    back = world_to_body(body_to_world(v, yaw), yaw)
    for a, b in zip(back, v):
        assert abs(a - b) <= 1e-9 * max(1.0, abs(b))


@given(
    st.lists(st.floats(min_value=-100, max_value=100, allow_nan=False),
             min_size=1, max_size=400),
    st.randoms(),
)
def test_mse_matches_naive_oracle(series, rnd):
    other = [x + rnd.uniform(-1, 1) for x in series]
    naive = sum((a - b) ** 2 for a, b in zip(series, other)) / len(series)
    got = mse(series, other)
    assert abs(got - naive) <= 1e-12 * max(1.0, abs(naive))


@given(
    st.integers(min_value=1, max_value=40),
    st.floats(min_value=0.01, max_value=2.0, allow_nan=False),
)
@settings(max_examples=200, deadline=None)
def test_battery_composition_matches_curve(k, dt):
    model = BatteryModel()
    charge = 1.0
    for _ in range(k):
        charge = battery_next_charge(model, charge, dt)
    assert abs(charge - model.charge_at(k * dt)) <= 1e-9


@given(vec3, vec3, angle, angle)
def test_rab_reading_matches_closed_form(rx, sx, yaw, phi):
    if math.dist(rx, sx) < 1e-9:
        return
    reading = make_reading(rx, yaw, sx, b"", "s")
    assert abs(reading.range_m - math.dist(rx, sx)) <= 1e-9
    rotated = make_reading(rx, yaw + phi, sx, b"", "s")
    diff = wrap_deg(rotated.horizontal_bearing_deg
                    - (reading.horizontal_bearing_deg - phi))
    assert abs(diff) <= 1e-6
    assert -90.0 <= reading.vertical_bearing_deg <= 90.0


@given(vec3, st.floats(min_value=-179.0, max_value=179.0), vec3)
@settings(max_examples=300, deadline=None)
def test_velocity_frame_equivalence(v_cmd, yaw, v0):
    """A body command at yaw theta behaves exactly like the equivalent
    world command, tick for tick."""
    state = DroneState((0.0, 0.0, 1.0), yaw, saturate(v0, 10.0), 0.0, 1.0)
    gains = GainSet()
    limits = ControllerLimits()
    body_cmd = Command.velocity(v_cmd, frame="body")
    world_cmd = Command.velocity(body_to_world(v_cmd, yaw), frame="world")
    sa, sb = state, state
    ma, mb = ControllerMemory(), ControllerMemory()
    for _ in range(10):
        va, ra, ma = velocity_control_step(sa, ma, body_cmd, gains, limits, 0.1)
        vb, rb, mb = velocity_control_step(sb, mb, world_cmd, gains, limits, 0.1)
        assert va == vb and ra == rb
        from dronesim.control import integrate

        sa = integrate(sa, va, ra, 0.1)
        sb = integrate(sb, vb, rb, 0.1)
        assert sa == sb


def _or_default(default, strategy):
    return st.just(default) | strategy


def _draw_battery(data):
    """The stock model, the stock curve with overrides, or a linear curve."""
    shape = data.draw(st.sampled_from(("stock", "stock curve", "linear")))
    if shape == "stock":
        return BatteryModel()
    load = data.draw(_or_default(1.0, st.floats(min_value=0.1, max_value=5.0)))
    if shape == "stock curve":
        t_max = data.draw(
            _or_default(DEFAULT_T_MAX, st.floats(min_value=100.0, max_value=427.0))
        )
        return BatteryModel(t_max=t_max, load_factor=load)
    slope = data.draw(st.floats(min_value=0.001, max_value=0.01))
    t_max = data.draw(st.floats(min_value=10.0, max_value=99.0))
    cutoff = data.draw(
        st.none() | st.floats(min_value=-5e-7, max_value=5e-7).map(
            lambda d: 1.0 - slope * t_max + d
        )
    )
    return BatteryModel(
        coeffs=(1.0, -slope, 0.0, 0.0), t_max=t_max,
        cutoff_charge=cutoff, load_factor=load,
    )


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_scenario_round_trip_random(data):
    """load(render(s)) == s over scenarios that set every scenario key."""
    from dronesim.camera import CameraConfig
    from dronesim.control import PDGains
    from dronesim.rab import RabConfig
    from dronesim.scenario import (
        DroneSpec, LightSpec, Scenario, WaypointPlan,
        load_scenario, render_scenario,
    )

    coord = st.floats(min_value=-1.4, max_value=1.4, allow_nan=False)
    point = st.tuples(coord, coord, st.floats(min_value=0.0, max_value=2.9))
    color = st.tuples(*[st.integers(min_value=0, max_value=255)] * 3)
    positive = st.floats(min_value=0.01, max_value=1000.0)
    stock = GainSet()

    def pd(default):
        return _or_default(default, st.builds(
            PDGains,
            st.floats(min_value=0.1, max_value=20.0),
            st.floats(min_value=0.0, max_value=1.0),
        ))

    n_drones = data.draw(st.integers(min_value=1, max_value=3))
    drones = []
    scripts = {}
    waypoints = {}
    for i in range(n_drones):
        rab = data.draw(st.builds(
            RabConfig,
            range_m=_or_default(0.0, st.floats(min_value=0.0, max_value=10.0)),
            payload_max=_or_default(16, st.integers(min_value=1, max_value=32)),
        ))
        drones.append(
            DroneSpec(
                id=f"d{i}",
                position=data.draw(point),
                yaw=data.draw(st.floats(min_value=-179.0, max_value=180.0)),
                charge=data.draw(st.floats(min_value=0.0, max_value=1.0)),
                gains=data.draw(st.builds(
                    GainSet,
                    velocity=pd(stock.velocity),
                    velocity_yaw=pd(stock.velocity_yaw),
                    position=pd(stock.position),
                    position_yaw=pd(stock.position_yaw),
                )),
                limits=data.draw(st.builds(
                    ControllerLimits,
                    max_linear_speed=_or_default(10.0, positive),
                    max_yaw_rate=_or_default(90.0, positive),
                    max_linear_accel=_or_default(5.0, positive),
                    max_yaw_accel=_or_default(720.0, positive),
                )),
                camera=data.draw(st.none() | st.builds(
                    CameraConfig,
                    aperture_deg=_or_default(
                        50.0, st.floats(min_value=1.0, max_value=179.0)
                    ),
                    mount_yaw_offset_deg=_or_default(
                        0.0, st.floats(min_value=-180.0, max_value=180.0)
                    ),
                )),
                rab=rab,
                rab_broadcast=data.draw(
                    st.none() | st.binary(max_size=rab.payload_max)
                ),
                led_color=data.draw(_or_default((255, 255, 255), color)),
                led_on=data.draw(st.booleans()),
                battery=_draw_battery(data),
            )
        )
        guidance = data.draw(st.sampled_from(("none", "script", "waypoints")))
        if guidance == "script":
            ticks = sorted(data.draw(st.lists(
                st.integers(min_value=0, max_value=100), max_size=3
            )))
            scripts[f"d{i}"] = tuple(
                (tick, Command(
                    data.draw(st.sampled_from(("velocity", "position"))),
                    data.draw(st.sampled_from(("body", "world"))),
                    data.draw(st.tuples(small, small, small)),
                    data.draw(angle),
                ))
                for tick in ticks
            )
        elif guidance == "waypoints":
            waypoints[f"d{i}"] = WaypointPlan(
                speed=data.draw(st.floats(min_value=0.01, max_value=5.0)),
                points=tuple(data.draw(st.lists(point, min_size=1, max_size=3))),
                threshold=data.draw(
                    _or_default(0.05, st.floats(min_value=0.001, max_value=1.0))
                ),
            )
    lights = tuple(
        LightSpec(f"l{k}", data.draw(st.tuples(small, small, small)), data.draw(color))
        for k in range(data.draw(st.integers(min_value=0, max_value=2)))
    )
    scenario = Scenario(
        name="prop",
        dt=data.draw(st.sampled_from((0.05, 0.1, 0.2))),
        duration=data.draw(st.integers(min_value=0, max_value=500)),
        drones=tuple(drones),
        lights=lights,
        scripts=scripts,
        waypoints=waypoints,
        noise_seed=data.draw(_or_default(0, st.integers(min_value=0, max_value=2**31))),
        noise_position_std=data.draw(
            _or_default(0.0, st.floats(min_value=0.0, max_value=0.1))
        ),
    )
    assert load_scenario(render_scenario(scenario)) == scenario
