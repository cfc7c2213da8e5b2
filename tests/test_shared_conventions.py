"""Each convention of the camera pose, the battery inversion and the yaw wrap
has one implementation; these tests hold it to the copies its callers used
to carry, kept here verbatim (the ``_old_*`` functions), bit for bit. The
kernel's inline copies (``next_pose``'s wrap, ``charge_at``'s Horner form)
and its shared battery evaluation are held to the forms they replace."""

import math
import struct

from hypothesis import example, given, settings
from hypothesis import strategies as st

from dronesim.battery import (
    STOCK_MODEL,
    BatteryModel,
    BatteryModelError,
    battery_next_charge,
    battery_time_to_empty,
)
from dronesim.camera import RESOLUTION, CameraConfig, Detection, detect_sources
from dronesim.control import Command, next_pose
from dronesim.geometry import _fmod_wrap_deg, wrap_deg
from dronesim.rab import make_reading
from dronesim.scenario import DroneSpec, Scenario
from dronesim.trajectory import Trajectory, TrajectoryRow, summarize
from dronesim.world import create_world, run, step


def bits(value):
    """The exact bits of a float (tells -0.0 from 0.0), or the value itself."""
    return struct.pack("<d", value) if type(value) is float else value


def outcome(fn, *args):
    """("ok", bits) of what ``fn`` returns, or ("raise", type, message)."""
    try:
        return "ok", bits(fn(*args))
    except Exception as exc:  # compared as type and message
        return "raise", type(exc), str(exc)


# --------------------------------------------------------------------------
# Battery: the range check, the empty charge and t_max live in invert_charge
# and charge_at alone.

def _old_battery_next_charge(model, current_charge, dt):
    if not 0.0 <= current_charge <= 1.0:
        raise BatteryModelError(f"charge {current_charge} outside [0, 1]")
    if dt <= 0.0:
        raise BatteryModelError("dt must be > 0")
    if current_charge == 0.0:
        return 0.0
    t = model.invert_charge(current_charge)
    if t >= model.t_max:
        return 0.0
    return model.charge_at(t + dt * model.load_factor)


def _old_battery_time_to_empty(model, charge):
    if not 0.0 <= charge <= 1.0:
        raise BatteryModelError(f"charge {charge} outside [0, 1]")
    if charge == 0.0:
        return 0.0
    t = model.invert_charge(charge)
    remaining = model.t_max - t
    return remaining if remaining > 0.0 else 0.0


def _old_battery_start(spec):
    """(charge, battery_t, depleted) as _Drone.__init__ set them."""
    charge = spec.charge
    if spec.charge <= 0.0:
        battery_t = spec.battery.t_max
        depleted = True
        charge = 0.0
    else:
        battery_t = spec.battery.invert_charge(spec.charge)
        depleted = battery_t >= spec.battery.t_max
    return charge, battery_t, depleted


# The stock curve, a faster load, and a fitted-style curve whose P(0) = 0.98
# falls short of full charge (so charges in [P(0), 1] all map to t = 0).
MODELS = (
    STOCK_MODEL,
    BatteryModel(load_factor=2.5),
    BatteryModel(coeffs=(0.98, -0.003, 1.42421402327237e-05, -2.5877842137707736e-08)),
)
# Charges named by where they sit on each model's curve.
NAMED = ("cutoff", "below cutoff", "P(0)", "above P(0)")


def charge_on(model, charge):
    if charge == "cutoff":
        return model.cutoff_charge
    if charge == "below cutoff":
        return math.nextafter(model.cutoff_charge, 0.0)
    if charge == "P(0)":
        return model.poly(0.0)
    if charge == "above P(0)":
        return math.nextafter(model.poly(0.0), 2.0)
    return charge


charges = st.one_of(
    st.sampled_from([0.0, -0.0, 0.1, 0.5, 1.0, math.nan, -5e-324, 1.0000000000000002,
                     1.5, math.inf, -math.inf, *NAMED]),
    st.floats(0.0, 1.0),
    st.floats(),
)
dts = st.one_of(
    st.sampled_from([0.1, 0.0, -0.0, -0.1, 5e-324, math.nan, math.inf, -math.inf]),
    st.floats(),
)
models = st.sampled_from(range(len(MODELS)))


@settings(max_examples=1000, deadline=None)
@given(m=models, charge=charges, dt=dts)
@example(m=0, charge=0.0, dt=0.1)
@example(m=0, charge=-0.0, dt=0.1)
@example(m=0, charge=0.0, dt=math.nan)
@example(m=0, charge=-0.0, dt=math.inf)
@example(m=0, charge=0.0, dt=-0.0)
@example(m=1, charge="cutoff", dt=0.1)
@example(m=1, charge="below cutoff", dt=math.nan)
@example(m=2, charge="P(0)", dt=0.1)
@example(m=2, charge="above P(0)", dt=0.1)
@example(m=2, charge=1.0, dt=0.0)
@example(m=0, charge=math.nan, dt=-1.0)
@example(m=0, charge=1.5, dt=0.0)
@example(m=0, charge=-5e-324, dt=math.nan)
@example(m=0, charge=0.5, dt=5e-324)
def test_battery_functions_match_their_old_checks(m, charge, dt):
    model = MODELS[m]
    charge = charge_on(model, charge)
    assert outcome(battery_next_charge, model, charge, dt) == outcome(
        _old_battery_next_charge, model, charge, dt)
    assert outcome(battery_time_to_empty, model, charge) == outcome(
        _old_battery_time_to_empty, model, charge)


@settings(max_examples=300, deadline=None)
@given(m=models, charge=st.one_of(
    st.sampled_from([-0.0, 0.0, 0.1, 1.0, *NAMED]), st.floats(0.0, 1.0)))
@example(m=0, charge=-0.0)
@example(m=0, charge=0.0)
@example(m=0, charge=0.1)
@example(m=0, charge="below cutoff")
@example(m=0, charge=1.0)
@example(m=2, charge="above P(0)")
def test_tick_zero_battery_state_matches_the_old_start(m, charge):
    spec = DroneSpec(id="a", position=(0.0, 0.0, 1.0),  # P(0) may be 1: start at most full
                     charge=min(charge_on(MODELS[m], charge), 1.0), battery=MODELS[m])
    drone = create_world(Scenario(name="s", drones=(spec,))).drones[0]
    expected = _old_battery_start(spec)
    assert (bits(drone.charge), bits(drone.battery_t), drone.depleted) == (
        bits(expected[0]), bits(expected[1]), expected[2])


def test_a_negative_zero_start_reports_positive_zero():
    spec = DroneSpec(id="a", position=(0.0, 0.0, 1.0), charge=-0.0)
    drone = create_world(Scenario(name="s", drones=(spec,))).drones[0]
    assert bits(drone.charge) == bits(0.0) and drone.depleted


# --------------------------------------------------------------------------
# Camera: detect_sources turns the pose into trigonometry itself.

def _old_detect_sources(cam_pos, cos_yaw, sin_yaw, tan_half, sources):
    cx, cy, cz = cam_pos
    last = RESOLUTION - 1
    out = []
    for sx, sy, sz, color, source_id in sources:
        dx = sx - cx
        dy = sy - cy
        # World -> camera frame: x forward, y left, z up.
        xc = cos_yaw * dx + sin_yaw * dy
        if xc <= 0.0:
            continue
        yc = -sin_yaw * dx + cos_yaw * dy
        # Image-plane tangents: right and down are positive.
        ty = -yc / xc
        tz = -(sz - cz) / xc
        if ty < -tan_half or ty > tan_half or tz < -tan_half or tz > tan_half:
            continue
        u = int((ty / tan_half + 1.0) * (RESOLUTION // 2))
        v = int((tz / tan_half + 1.0) * (RESOLUTION // 2))
        out.append(tuple.__new__(Detection, (
            u if u < last else last, v if v < last else last, color, source_id,
        )))
    out.sort(key=lambda d: (d[0], d[1], d[3]))
    return out


def _old_capture(cam_pos, yaw_deg, config, sources):
    """The old caller: the pose's trigonometry, computed before the call."""
    yaw = math.radians(yaw_deg + config.mount_yaw_offset_deg)
    return _old_detect_sources(cam_pos, math.cos(yaw), math.sin(yaw),
                               config.tan_half_aperture, sources)


coord = st.floats(-20.0, 20.0)
angle = st.one_of(st.floats(-720.0, 720.0), st.floats(-1e6, 1e6))
sources = st.lists(
    st.tuples(coord, coord, coord,
              st.tuples(*[st.integers(0, 255)] * 3),
              st.text("abcxyz", min_size=1, max_size=3)),
    max_size=12,
)


@settings(max_examples=1000, deadline=None)
@given(cam=st.tuples(coord, coord, coord), yaw=angle, offset=angle,
       aperture=st.floats(1e-3, 179.999), table=sources)
@example(cam=(0.0, 0.0, 1.0), yaw=0.0, offset=0.0, aperture=50.0,
         table=[(2.0, 0.9326, 1.0, (255, 0, 0), "red"), (2.0, 0.0, 1.0, (0, 0, 0), "c"),
                (0.0, 0.0, 1.0, (1, 1, 1), "self"), (-2.0, 0.0, 1.0, (2, 2, 2), "back")])
@example(cam=(0.0, 0.0, 1.0), yaw=90.0, offset=-90.0, aperture=10.0,
         table=[(5.0, 0.0, 1.0, (1, 2, 3), "a"), (5.0, 0.0, 1.0, (1, 2, 3), "b")])
def test_detect_sources_matches_the_old_argument_form(cam, yaw, offset, aperture, table):
    config = CameraConfig(aperture_deg=aperture, mount_yaw_offset_deg=offset)
    got = detect_sources(cam, yaw, config, table)
    want = _old_capture(cam, yaw, config, table)
    assert all(type(d) is Detection for d in got)
    assert [tuple(d) for d in got] == [tuple(d) for d in want]


# --------------------------------------------------------------------------
# Yaw wrap: geometry's fmod wrap is the reference for wrap_deg out of range,
# summarize's yaw error, and make_reading's inline copy.

def _old_wrap_deg(angle):
    if -180.0 < angle <= 180.0:
        return angle
    r = math.fmod(angle + 180.0, 360.0)
    if r <= 0.0:
        r += 360.0
    return r - 180.0


def _old_yaw_error(yaw_deg, target_yaw):
    diff = math.fmod(yaw_deg - target_yaw + 180.0, 360.0)
    if diff <= 0.0:
        diff += 360.0
    return abs(diff - 180.0)


wide = st.one_of(st.sampled_from([180.0, -180.0, 0.0, -0.0, 360.0, -540.0, 1e15, 1e300,
                                  5e-324, math.nan]),
                 st.floats(-1e3, 1e3), st.floats(allow_infinity=False))


@settings(max_examples=1000, deadline=None)
@given(a=wide, b=wide)
@example(a=180.0, b=-180.0)
@example(a=-180.0, b=180.0)
@example(a=1e15, b=0.0)
@example(a=-0.0, b=0.0)
def test_wraps_match_their_old_copies(a, b):
    assert outcome(wrap_deg, a) == outcome(_old_wrap_deg, a)
    row = TrajectoryRow(0, 0.0, 0.0, 0.0, 1.0, a, 0.0, 0.0, 0.0, 0.0, 1.0)
    # summarize wraps the target before subtracting, so a far target keeps
    # the yaw's bits; in range wrapping is the identity and changes nothing.
    assert outcome(lambda: summarize(Trajectory("a", [row]), None, b).final_yaw_error) \
        == outcome(lambda: _old_yaw_error(a, _old_wrap_deg(b)))


@settings(max_examples=1000, deadline=None)
@given(receiver=st.tuples(coord, coord, coord), sender=st.tuples(coord, coord, coord),
       yaw=st.one_of(st.floats(-180.0, 180.0), st.floats(-1e6, 1e6)))
@example(receiver=(0.0, 0.0, 1.0), sender=(-1.0, 0.0, 1.0), yaw=0.0)
@example(receiver=(0.0, 0.0, 1.0), sender=(-1.0, -0.0, 1.0), yaw=0.0)
@example(receiver=(0.0, 0.0, 1.0), sender=(1.0, 0.0, 1.0), yaw=180.0)
@example(receiver=(0.0, 0.0, 1.0), sender=(1.0, 0.0, 1.0), yaw=-180.0)
@example(receiver=(0.0, 0.0, 1.0), sender=(0.0, 1.0, 1.0), yaw=-90.0)
@example(receiver=(0.0, 0.0, 1.0), sender=(0.0, 0.0, 2.0), yaw=0.0)
@example(receiver=(0.0, 0.0, 1.0), sender=(0.3, 0.7, 1.0), yaw=720.0)
def test_make_reading_wraps_as_the_geometry_helper(receiver, sender, yaw):
    reading = make_reading(receiver, yaw, sender, b"", "s")
    heading = math.atan2(sender[1] - receiver[1], sender[0] - receiver[0])
    expected = _fmod_wrap_deg(heading * (180.0 / math.pi) - yaw)
    assert bits(reading.horizontal_bearing_deg) == bits(expected)


# --------------------------------------------------------------------------
# Kernel inline copies: phase 2's yaw wrap and phase 3's cubic, and phase 3's
# one evaluation per shared battery clock.

def _old_next_pose(x, y, z, yaw, vx, vy, vz, yaw_rate, dt):
    return x + vx * dt, y + vy * dt, z + vz * dt, wrap_deg(yaw + yaw_rate * dt)


def _old_charge_at(model, t):
    if t >= model.t_max:
        return 0.0
    c = model.poly(t)
    return c if c > 0.0 else 0.0


def pose_bits(pose_fn):
    return lambda *args: tuple(map(bits, pose_fn(*args)))


EDGES = (180.0, -180.0, math.nextafter(180.0, 0.0), math.nextafter(180.0, math.inf),
         math.nextafter(-180.0, 0.0), math.nextafter(-180.0, -math.inf))


@settings(max_examples=1000, deadline=None)
@given(yaw=st.one_of(st.sampled_from([*EDGES, math.nan, math.inf, -math.inf]), wide,
                     st.floats()),
       yaw_rate=st.one_of(st.sampled_from([0.0, -0.0, 90.0, math.nan, math.inf]), st.floats()),
       dt=st.one_of(st.sampled_from([0.1, 1.0]), st.floats()),
       move=st.tuples(*[st.floats()] * 6))
@example(yaw=180.0, yaw_rate=0.0, dt=0.1, move=(0.0,) * 6)
@example(yaw=-180.0, yaw_rate=0.0, dt=0.1, move=(0.0,) * 6)
@example(yaw=math.nextafter(180.0, math.inf), yaw_rate=0.0, dt=0.1, move=(0.0,) * 6)
@example(yaw=math.nextafter(180.0, 0.0), yaw_rate=0.0, dt=0.1, move=(0.0,) * 6)
@example(yaw=math.nextafter(-180.0, -math.inf), yaw_rate=0.0, dt=0.1, move=(0.0,) * 6)
@example(yaw=math.nextafter(-180.0, 0.0), yaw_rate=0.0, dt=0.1, move=(0.0,) * 6)
@example(yaw=170.0, yaw_rate=100.0, dt=0.1, move=(0.0,) * 6)
@example(yaw=math.nan, yaw_rate=0.0, dt=0.1, move=(0.0,) * 6)
@example(yaw=math.inf, yaw_rate=0.0, dt=0.1, move=(0.0,) * 6)
@example(yaw=0.0, yaw_rate=-math.inf, dt=0.1, move=(0.0,) * 6)
def test_next_pose_wraps_as_wrap_deg(yaw, yaw_rate, dt, move):
    x, y, z, vx, vy, vz = move
    args = (x, y, z, yaw, vx, vy, vz, yaw_rate, dt)
    got = outcome(pose_bits(next_pose), *args)
    assert got == outcome(pose_bits(_old_next_pose), *args)
    if not math.isfinite(yaw + yaw_rate * dt) and not math.isnan(yaw + yaw_rate * dt):
        assert got == ("raise", ValueError, "math domain error")


@settings(max_examples=1000, deadline=None)
@given(m=models, t=st.one_of(
    st.sampled_from([0.0, -0.0, -1.0, math.nan, math.inf, -math.inf, "t_max", "below t_max",
                     "above t_max"]),
    st.floats(0.0, 500.0), st.floats()))
@example(m=0, t="t_max")
@example(m=0, t="below t_max")
@example(m=1, t="above t_max")
@example(m=2, t=0.0)
@example(m=0, t=math.nan)
@example(m=0, t=-1e300)
def test_charge_at_matches_poly(m, t):
    model = MODELS[m]
    t = {"t_max": model.t_max, "below t_max": math.nextafter(model.t_max, 0.0),
         "above t_max": math.nextafter(model.t_max, math.inf)}.get(t, t)
    assert outcome(model.charge_at, t) == outcome(_old_charge_at, model, t)


def _alone(scenario, drone):
    """``scenario`` with ``drone`` as its only drone."""
    scripts = {k: v for k, v in scenario.scripts.items() if k == drone.id}
    return scenario._replace(drones=(drone,), scripts=scripts)


def _rows(trajectories):
    return {i: [tuple(map(bits, row)) for row in t.rows] for i, t in trajectories.items()}


def _stepped(world, ticks):
    """The rows of a step() loop over ``ticks`` ticks, as run() records them."""
    rows = {d.spec.id: [] for d in world.drones}
    for k in range(ticks + 1):
        if k:
            world = step(world)
        for d in world.drones:
            rows[d.spec.id].append(tuple(map(bits, (
                world.tick, world.time_s, d.x, d.y, d.z, d.yaw,
                d.vx, d.vy, d.vz, d.yaw_rate, d.charge,
            ))))
    return rows


# Shared objects, objects equal to those but distinct (BatteryModel() is
# STOCK_MODEL's equal), other load factors, and a curve that starts at the
# stock one's battery time from a full charge but reads other charges.
BATTERIES = (STOCK_MODEL, BatteryModel(), BatteryModel(load_factor=2.5),
             BatteryModel(load_factor=2.5), BatteryModel(load_factor=0.7), MODELS[2])


@st.composite
def battery_swarms(draw):
    """A scenario whose drones start at charges drawn, interleaved, from a
    few values (so equal charges recur on equal and on distinct models),
    some close enough to the cutoff to deplete mid-run, and its tick count."""
    near_empty = [STOCK_MODEL.charge_at(STOCK_MODEL.t_max - s) for s in (0.05, 3.0, 40.0)]
    pool = draw(st.lists(st.one_of(st.sampled_from([1.0, 0.5, 0.0, *near_empty]),
                                   st.floats(0.0, 1.0)), min_size=1, max_size=3))
    count = draw(st.integers(1, 7))
    drones = []
    scripts = {}
    for i in range(count):
        drones.append(DroneSpec(id=f"d{i}", position=(0.2 * i - 1.0, 0.0, 1.0),
                                charge=draw(st.sampled_from(pool)),
                                battery=draw(st.sampled_from(BATTERIES))))
        if draw(st.booleans()):
            scripts[f"d{i}"] = ((0, Command.velocity((0.1, 0.0, 0.2), 30.0)),)
    dt = draw(st.sampled_from([0.1, 1.0, 5.0]))
    return Scenario(name="batteries", dt=dt, drones=tuple(drones), scripts=scripts), \
        draw(st.integers(0, 30))


@settings(max_examples=300, deadline=None)
@given(case=battery_swarms())
def test_shared_battery_clock_matches_per_drone_evaluation(case):
    # The reference flies each drone in a world of its own, where no other
    # drone can share its evaluation; the drones do not interact.
    scenario, ticks = case
    expected = {}
    for drone in scenario.drones:
        expected.update(_rows(run(create_world(_alone(scenario, drone)), ticks)[1]))
    assert _rows(run(create_world(scenario), ticks)[1]) == expected
    assert _stepped(create_world(scenario), ticks) == expected
