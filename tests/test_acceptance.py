"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; every tolerance is pinned here, nothing is deferred.
"""

import math
import random
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from dronesim.battery import (
    DEFAULT_COEFFS,
    BatteryModel,
    battery_next_charge,
    fit_discharge_polynomial,
)
from dronesim.camera import CameraConfig
from dronesim.control import (
    Command,
    ControllerLimits,
    ControllerMemory,
    DroneState,
    GainSet,
    integrate,
    velocity_control_step,
)
from dronesim.experiments import (
    BATTERY_CHARGES,
    POSITION_LEGS,
    VELOCITY_SPEEDS,
    YAW_RATES,
    YAW_TARGETS,
    build_battery,
    build_camera_calibration,
    build_line2d,
    build_line3d,
    build_position_leg,
    build_yaw_leg,
    build_yaw_steps,
)
from dronesim.geometry import body_to_world, saturate, wrap_deg
from dronesim.rab import make_reading
from dronesim.scenario import (
    DroneSpec,
    LightSpec,
    Scenario,
    WaypointPlan,
    load_scenario,
    load_scenario_file,
    render_scenario,
)
from dronesim.trajectory import mse, summarize, trajectory_csv
from dronesim.world import camera_capture, create_world, run_scenario

REPO = Path(__file__).resolve().parent.parent
SHIPPED = sorted((REPO / "scenarios").glob("*.scn"))


def norm(v):
    return math.sqrt(v[0] * v[0] + v[1] * v[1] + v[2] * v[2])


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({name}): FAIL")
        raise
    print(f"ACCEPTANCE {number} ({name}): PASS")


def test_01_determinism():
    with criterion(1, "determinism"):
        assert SHIPPED, "no shipped scenarios found"
        for path in SHIPPED:
            scenario = load_scenario_file(path)
            started = time.perf_counter()
            _, first = run_scenario(scenario)
            elapsed = time.perf_counter() - started
            _, second = run_scenario(scenario)
            for drone_id in first:
                a = trajectory_csv(first[drone_id]).encode()
                b = trajectory_csv(second[drone_id]).encode()
                assert a == b, f"{path.name}: non-deterministic output"
            assert elapsed < 1.0, f"{path.name}: run took {elapsed:.3f}s"


def test_02_speed_saturation():
    with criterion(2, "speed saturation"):
        started = time.perf_counter()
        for speed in VELOCITY_SPEEDS:
            variant = build_line2d(speed)
            _, trajs = run_scenario(variant.scenario)
            peak = summarize(trajs["cf1"]).peak_speed
            assert abs(peak - speed) <= 1e-6, f"line2d {speed}: peak {peak!r}"

            variant = build_line3d(speed)
            commanded = speed * math.sqrt(3.0)
            _, trajs = run_scenario(variant.scenario)
            peak = summarize(trajs["cf1"]).peak_speed
            assert abs(peak - commanded) <= 1e-6, f"line3d {speed}: peak {peak!r}"
        assert time.perf_counter() - started < 5.0


def test_03_yaw_under_reach():
    with criterion(3, "yaw under-reach"):
        started = time.perf_counter()
        peaks = {}
        for rate in YAW_RATES:
            variant = build_yaw_steps(rate)
            _, trajs = run_scenario(variant.scenario)
            peaks[rate] = summarize(trajs["cf1"]).peak_yaw_rate
        assert abs(peaks[45.0] - 45.0) <= 0.5, peaks
        assert 89.0 <= peaks[90.0] < 90.5, peaks
        assert 150.0 <= peaks[180.0] < 180.0, peaks
        assert time.perf_counter() - started < 5.0


def test_04_position_legs():
    with criterion(4, "position legs"):
        started = time.perf_counter()
        for leg in POSITION_LEGS:
            variant = build_position_leg(leg)
            _, trajs = run_scenario(variant.scenario)
            summary = summarize(trajs["cf1"], target=variant.target,
                                target_yaw=variant.target_yaw)
            error = summary.final_position_error
            assert error < 0.01 * leg, f"leg {leg}: error {error:.4f} m"
            if leg <= 2.0:
                assert error < 0.01, f"leg {leg}: error {error:.4f} m >= 1 cm"
            if leg >= 25.0:
                assert abs(summary.peak_speed - 10.0) <= 1e-6, (
                    f"leg {leg}: peak speed {summary.peak_speed!r}"
                )
            # the speed limit is reached but never exceeded
            assert summary.peak_speed <= 10.0 + 1e-12
        assert time.perf_counter() - started < 10.0


def test_05_yaw_legs():
    with criterion(5, "yaw legs"):
        started = time.perf_counter()
        for target in YAW_TARGETS:
            variant = build_yaw_leg(target)
            _, trajs = run_scenario(variant.scenario)
            summary = summarize(trajs["cf1"], target=variant.target,
                                target_yaw=target)
            assert summary.final_yaw_error < 0.5, (
                f"target {target}: error {summary.final_yaw_error:.3f} deg"
            )
            assert summary.peak_yaw_rate < 90.0, (
                f"target {target}: peak rate {summary.peak_yaw_rate!r}"
            )
        assert time.perf_counter() - started < 5.0


def test_06_battery_depletion():
    with criterion(6, "battery depletion"):
        started = time.perf_counter()
        model = BatteryModel()
        dt = 0.1
        for charge in BATTERY_CHARGES:
            variant = build_battery(charge)
            _, trajs = run_scenario(variant.scenario)
            ttz = summarize(trajs["cf1"]).time_to_zero_charge
            expected = model.t_max - model.invert_charge(charge)
            if expected < 0.0:
                expected = 0.0
            assert ttz is not None, f"charge {charge}: never depleted"
            assert abs(ttz - expected) <= dt + 1e-9, (
                f"charge {charge}: ttz {ttz} vs expected {expected}"
            )

        # simulated charge trace vs direct polynomial evaluation
        _, trajs = run_scenario(build_battery(1.0).scenario)
        rows = trajs["cf1"].rows
        simulated = [row.charge for row in rows]
        direct = [model.charge_at(k * dt) for k in range(len(rows))]
        assert mse(simulated, direct) < 1e-9

        # synthesize-and-recover fit oracle
        samples = [(float(t), _poly(t)) for t in range(0, 428, 2)]
        fitted = fit_discharge_polynomial(samples, t_max=427.21)
        for got, want in zip(fitted.coeffs, DEFAULT_COEFFS):
            assert abs(got - want) <= 1e-9 * abs(want), (got, want)
        assert time.perf_counter() - started < 10.0


def _poly(t):
    c0, c1, c2, c3 = DEFAULT_COEFFS
    return c0 + c1 * t + c2 * t * t + c3 * t * t * t


def test_07_camera_calibration():
    with criterion(7, "camera calibration"):
        started = time.perf_counter()
        world = create_world(build_camera_calibration().scenario)
        detections = {d.source_id: (d.u, d.v) for d in camera_capture(world, "cf1")}
        reported = {
            "red": (0, 159), "green": (160, 0),
            "blue": (319, 159), "white": (160, 318),
        }
        assert set(detections) == set(reported)
        for name, (eu, ev) in reported.items():
            u, v = detections[name]
            assert abs(u - eu) <= 1 and abs(v - ev) <= 1, (name, u, v)

        # moving a light to 1.0 m lateral offset (~26.6 deg) removes it
        moved = create_world(build_camera_calibration(lateral_offset=1.0).scenario)
        remaining = {d.source_id for d in camera_capture(moved, "cf1")}
        assert remaining == {"green", "blue", "white"}
        assert time.perf_counter() - started < 1.0


def test_08_property_suites():
    with criterion(8, "property suites"):
        started = time.perf_counter()
        _suite_saturation(1000)
        _suite_frame_equivalence(1000)
        _suite_rab_geometry(1000)
        _suite_battery_composition(1000)
        _suite_mse_oracle(1000)
        _suite_scenario_round_trip(1000)
        assert time.perf_counter() - started < 30.0


def _suite_saturation(cases):
    rng = random.Random(101)
    for _ in range(cases):
        v = (rng.uniform(-40, 40), rng.uniform(-40, 40), rng.uniform(-40, 40))
        vmax = rng.uniform(0.1, 20.0)
        clipped = saturate(v, vmax)
        n, m = norm(v), norm(clipped)
        assert m <= vmax + 1e-12
        if n > 0.0 and m > 0.0:
            cos = sum(a * b for a, b in zip(v, clipped)) / (n * m)
            assert abs(cos - 1.0) <= 1e-12


def _suite_frame_equivalence(cases):
    rng = random.Random(202)
    gains = GainSet()
    limits = ControllerLimits()
    for _ in range(cases):
        yaw = rng.uniform(-179.0, 179.0)
        cmd = (rng.uniform(-3, 3), rng.uniform(-3, 3), rng.uniform(-1, 1))
        state_a = DroneState((0.0, 0.0, 1.0), yaw, (0.0, 0.0, 0.0), 0.0, 1.0)
        state_b = state_a
        body = Command.velocity(cmd, frame="body")
        world = Command.velocity(body_to_world(cmd, yaw), frame="world")
        mem_a, mem_b = ControllerMemory(), ControllerMemory()
        for _ in range(8):
            va, ra, mem_a = velocity_control_step(state_a, mem_a, body, gains, limits, 0.1)
            vb, rb, mem_b = velocity_control_step(state_b, mem_b, world, gains, limits, 0.1)
            assert va == vb and ra == rb
            state_a = integrate(state_a, va, ra, 0.1)
            state_b = integrate(state_b, vb, rb, 0.1)
            assert state_a == state_b


def _suite_rab_geometry(cases):
    rng = random.Random(303)
    for _ in range(cases):
        rx = (rng.uniform(-5, 5), rng.uniform(-5, 5), rng.uniform(0, 5))
        sx = (rng.uniform(-5, 5), rng.uniform(-5, 5), rng.uniform(0, 5))
        if math.dist(rx, sx) < 1e-6:
            continue
        yaw = rng.uniform(-180.0, 180.0)
        phi = rng.uniform(-360.0, 360.0)
        reading = make_reading(rx, yaw, sx, b"", "s")
        assert abs(reading.range_m - math.dist(rx, sx)) <= 1e-9
        rotated = make_reading(rx, yaw + phi, sx, b"", "s")
        diff = wrap_deg(rotated.horizontal_bearing_deg
                        - (reading.horizontal_bearing_deg - phi))
        assert abs(diff) <= 1e-6 or abs(abs(diff) - 360.0) <= 1e-6


def _suite_battery_composition(cases):
    rng = random.Random(404)
    model = BatteryModel()
    for _ in range(cases):
        k = rng.randint(1, 40)
        dt = rng.uniform(0.01, 1.5)
        charge = 1.0
        for _ in range(k):
            charge = battery_next_charge(model, charge, dt)
        assert abs(charge - model.charge_at(k * dt)) <= 1e-9


def _suite_mse_oracle(cases):
    rng = random.Random(505)
    for _ in range(cases):
        n = rng.randint(1, 10000)
        a = [rng.uniform(-100, 100) for _ in range(n)]
        b = [rng.uniform(-100, 100) for _ in range(n)]
        naive = 0.0
        for x, y in zip(a, b):
            naive += (x - y) * (x - y)
        naive /= n
        got = mse(a, b)
        assert abs(got - naive) <= 1e-12 * max(1.0, abs(naive))


def _suite_scenario_round_trip(cases):
    rng = random.Random(606)
    for _ in range(cases):
        drones = []
        for i in range(rng.randint(1, 3)):
            camera = CameraConfig(aperture_deg=rng.uniform(10.0, 170.0)) \
                if rng.random() < 0.3 else None
            drones.append(
                DroneSpec(
                    id=f"d{i}",
                    position=(rng.uniform(-1.4, 1.4), rng.uniform(-1.4, 1.4),
                              rng.uniform(0.0, 2.9)),
                    yaw=rng.uniform(-179.0, 180.0),
                    charge=rng.uniform(0.0, 1.0),
                    camera=camera,
                    led_on=rng.random() < 0.5,
                    led_color=(rng.randint(0, 255), rng.randint(0, 255),
                               rng.randint(0, 255)),
                )
            )
        scripts = {}
        if rng.random() < 0.5:
            ticks = sorted(rng.randint(0, 100) for _ in range(rng.randint(1, 3)))
            scripts[drones[0].id] = tuple(
                (t, Command.velocity(
                    (rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(-1, 1)),
                    rng.uniform(-90, 90)))
                for t in ticks
            )
        waypoints = {}
        if len(drones) > 1 and rng.random() < 0.5:
            waypoints[drones[1].id] = WaypointPlan(
                speed=rng.uniform(0.1, 2.0),
                points=tuple(
                    (rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(0.2, 2.0))
                    for _ in range(rng.randint(1, 4))
                ),
                threshold=rng.uniform(0.01, 0.2),
            )
        lights = tuple(
            LightSpec(f"l{j}", (rng.uniform(-2, 2), rng.uniform(-2, 2),
                                rng.uniform(0, 3)),
                      (rng.randint(0, 255), rng.randint(0, 255), rng.randint(0, 255)))
            for j in range(rng.randint(0, 2))
        )
        scenario = Scenario(
            name="roundtrip",
            dt=rng.choice((0.05, 0.1, 0.2)),
            duration=rng.randint(0, 300),
            drones=tuple(drones),
            lights=lights,
            scripts=scripts,
            waypoints=waypoints,
        )
        assert load_scenario(render_scenario(scenario)) == scenario


def test_09_throughput():
    with criterion(9, "throughput"):
        drones = tuple(
            DroneSpec(
                id=f"cf{i:02d}",
                position=(-1.2 + 0.26 * i, 0.0, 1.0),
                camera=CameraConfig(),
                rab_broadcast=b"\x01\x02",
                led_on=True,
                led_color=(0, 255, 0),
            )
            for i in range(10)
        )
        scenario = Scenario(
            name="throughput",
            duration=10000,
            drones=drones,
            lights=(LightSpec("beacon", (1.45, 0.0, 1.0), (255, 0, 0)),),
        )
        started = time.perf_counter()
        world, trajs = run_scenario(scenario)
        elapsed = time.perf_counter() - started
        assert len(trajs) == 10
        assert all(len(t.rows) == 10001 for t in trajs.values())
        # sensing actually happened: inboxes and detections are populated
        assert len(world.drone("cf00").inbox) == 9
        assert sum(len(d.detections) for d in world.drones) > 0
        assert elapsed < 5.0, f"throughput run took {elapsed:.2f}s"
