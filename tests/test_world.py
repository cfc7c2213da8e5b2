import math

import pytest

from dronesim.camera import CameraConfig
from dronesim.control import Command
from dronesim.geometry import wrap_deg
from dronesim.scenario import DroneSpec, LightSpec, Scenario
from dronesim.world import (
    CapabilityError,
    ConfigurationError,
    camera_capture,
    create_world,
    rab_read,
    run,
    run_scenario,
    set_led,
    step,
)


def hover_scenario(duration=10, **drone_kwargs):
    drone_kwargs.setdefault("position", (0.0, 0.0, 1.0))
    return Scenario(
        name="hover",
        duration=duration,
        drones=(DroneSpec(id="cf1", **drone_kwargs),),
    )


class TestCreateWorld:
    def test_initial_conditions_preserved(self):
        scenario = Scenario(
            name="init",
            duration=1,
            drones=(DroneSpec(id="cf1", position=(0.0, 0.0, 0.0), charge=1.0),),
        )
        world = create_world(scenario)
        assert world.tick == 0
        state = world.drone("cf1").state()
        assert state.position == (0.0, 0.0, 0.0)
        assert state.charge == 1.0
        assert rab_read(world, "cf1") == []

    def test_duplicate_id_rejected(self):
        # Scenario validation already refuses duplicates; create_world must too.
        scenario = hover_scenario()
        doubled = (scenario.drones[0], scenario.drones[0])
        with pytest.raises((ConfigurationError, ValueError)):
            create_world(
                Scenario(name="dup", duration=1, drones=doubled)
            )

    def test_pose_outside_arena_rejected(self):
        with pytest.raises(ConfigurationError):
            create_world(
                Scenario(
                    name="oob",
                    duration=1,
                    drones=(DroneSpec(id="cf1", position=(100.0, 0.0, 0.0)),),
                )
            )


@pytest.mark.parametrize("yaw", [540.0, -190.0, 1e300])
def test_initial_yaw_wrapped_from_tick_0(yaw):
    _, trajs = run_scenario(hover_scenario(duration=2, yaw=yaw))
    logged = [row.yaw_deg for row in trajs["cf1"].rows]
    assert -180.0 < logged[0] <= 180.0
    assert logged == [wrap_deg(yaw)] * 3


class TestStep:
    def test_hover_is_equilibrium(self):
        world = create_world(hover_scenario())
        nxt = step(world)
        assert nxt.tick == 1
        s0 = world.drone("cf1").state()
        s1 = nxt.drone("cf1").state()
        assert s1.position == s0.position
        assert s1.yaw == s0.yaw
        assert s1.velocity == (0.0, 0.0, 0.0)

    def test_velocity_command_single_step(self):
        # From rest with a 1 m/s command: velocity strictly between 0 and 1,
        # displacement is velocity * dt (semi-implicit Euler).
        scenario = Scenario(
            name="one",
            duration=1,
            drones=(DroneSpec(id="cf1", position=(0.0, 0.0, 1.0)),),
            scripts={"cf1": ((0, Command.velocity((1.0, 0.0, 0.0))),)},
        )
        nxt = step(create_world(scenario))
        state = nxt.drone("cf1").state()
        assert 0.0 < state.velocity[0] < 1.0
        assert state.position[0] == pytest.approx(state.velocity[0] * 0.1, abs=1e-15)

    def test_step_is_pure_and_deterministic(self):
        world = create_world(hover_scenario())
        world2 = world.copy()
        a = step(world)
        b = step(world)
        assert world.tick == 0
        assert world.drone("cf1").state() == world2.drone("cf1").state()
        assert a.drone("cf1").state() == b.drone("cf1").state()
        assert a.tick == b.tick == 1

    def test_arena_clamp(self):
        scenario = Scenario(
            name="clamp",
            duration=30,
            drones=(DroneSpec(id="cf1", position=(1.0, 0.0, 1.0)),),
            scripts={"cf1": ((0, Command.velocity((5.0, 0.0, 0.0))),)},
        )
        _, trajs = run_scenario(scenario)
        xs = [row.x for row in trajs["cf1"].rows]
        assert max(xs) <= 1.5  # arena_max default

    def test_time_is_tick_times_dt(self):
        _, trajs = run_scenario(hover_scenario(duration=25))
        for k, row in enumerate(trajs["cf1"].rows):
            assert row.tick == k
            assert row.time_s == k * 0.1


class TestRun:
    def test_zero_ticks_yields_initial_row_only(self):
        world = create_world(hover_scenario())
        _, trajs = run(world, 0)
        assert len(trajs["cf1"].rows) == 1
        assert trajs["cf1"].rows[0].tick == 0

    def test_hover_rows_all_identical_pose(self):
        _, trajs = run_scenario(hover_scenario(duration=100))
        rows = trajs["cf1"].rows
        assert len(rows) == 101
        for row in rows:
            assert (row.x, row.y, row.z, row.yaw_deg) == (0.0, 0.0, 1.0, 0.0)

    def test_negative_ticks_rejected(self):
        world = create_world(hover_scenario())
        with pytest.raises(ValueError):
            run(world, -1)

    def test_run_composes(self):
        # run(w, a+b) == run(w, a) ++ run(run(w, a).world, b), row for row
        scenario = Scenario(
            name="compose",
            duration=40,
            drones=(DroneSpec(id="cf1", position=(0.0, 0.0, 1.0)),),
            scripts={
                "cf1": (
                    (0, Command.velocity((0.3, 0.1, 0.05), yaw_rate=20.0)),
                    (15, Command.position((0.5, 0.5, 1.5), 45.0)),
                )
            },
        )
        world = create_world(scenario)
        _, full = run(world, 40)
        mid, first = run(world, 17)
        _, second = run(mid, 23)
        joined = first["cf1"].rows + second["cf1"].rows[1:]
        assert joined == full["cf1"].rows

    def test_charge_monotone_nonincreasing(self):
        _, trajs = run_scenario(hover_scenario(duration=200))
        rows = trajs["cf1"].rows
        for a, b in zip(rows, rows[1:]):
            assert b.charge <= a.charge


class TestBatteryInWorld:
    def test_grounded_on_depletion(self):
        # A drone starting below the cutoff drops out of the sky immediately.
        _, trajs = run_scenario(hover_scenario(duration=5, charge=0.25))
        rows = trajs["cf1"].rows
        assert rows[0].charge == 0.25
        assert rows[1].charge == 0.0
        assert rows[1].z == 0.0
        assert (rows[1].vx, rows[1].vy, rows[1].vz) == (0.0, 0.0, 0.0)

    def test_zero_charge_implies_zero_velocity_everywhere(self):
        scenario = Scenario(
            name="deplete",
            duration=40,
            drones=(
                DroneSpec(id="cf1", position=(0.0, 0.0, 1.0), charge=0.3001),
            ),
            scripts={"cf1": ((0, Command.velocity((1.0, 0.0, 0.0))),)},
        )
        _, trajs = run_scenario(scenario)
        for row in trajs["cf1"].rows:
            if row.charge == 0.0:
                assert (row.vx, row.vy, row.vz) == (0.0, 0.0, 0.0)
                assert row.z == 0.0

    def test_sim_trace_matches_polynomial(self):
        from dronesim.battery import BatteryModel

        model = BatteryModel()
        _, trajs = run_scenario(hover_scenario(duration=500))
        for row in trajs["cf1"].rows:
            assert row.charge == pytest.approx(
                model.charge_at(row.time_s), abs=1e-9
            )


class TestLedAndCamera:
    def looking_pair(self):
        return Scenario(
            name="pair",
            duration=5,
            drones=(
                DroneSpec(id="watcher", position=(0.0, 0.0, 1.0),
                          camera=CameraConfig()),
                DroneSpec(id="target", position=(1.0, 0.0, 1.0), yaw=180.0,
                          camera=CameraConfig(), led_on=False),
            ),
        )

    def test_led_visible_next_tick_after_set(self):
        world = create_world(self.looking_pair())
        set_led(world, "target", (255, 0, 0), True)
        assert camera_capture(world, "watcher") == []  # staged, not yet visible
        nxt = step(world)
        detections = camera_capture(nxt, "watcher")
        assert len(detections) == 1
        assert detections[0].color == (255, 0, 0)
        assert detections[0].source_id == "target"

    def test_led_off_is_invisible(self):
        world = step(create_world(self.looking_pair()))
        assert camera_capture(world, "watcher") == []

    def test_facing_drones_detect_each_other(self):
        scenario = Scenario(
            name="face",
            duration=2,
            drones=(
                DroneSpec(id="a", position=(0.0, 0.0, 1.0), yaw=0.0,
                          camera=CameraConfig(), led_on=True),
                DroneSpec(id="b", position=(1.0, 0.0, 1.0), yaw=180.0,
                          camera=CameraConfig(), led_on=True),
            ),
        )
        world = create_world(scenario)
        for drone_id, other in (("a", "b"), ("b", "a")):
            detections = camera_capture(world, drone_id)
            assert [d.source_id for d in detections] == [other]
            # dead ahead, up to trig round-off at the pixel-center boundary
            assert abs(detections[0].u - 160) <= 1

    def test_own_led_never_detected(self):
        scenario = Scenario(
            name="selfie",
            duration=2,
            drones=(
                DroneSpec(id="solo", position=(0.0, 0.0, 1.0),
                          camera=CameraConfig(), led_on=True),
            ),
        )
        world = create_world(scenario)
        assert camera_capture(world, "solo") == []

    def test_scenario_lights_detected(self):
        scenario = Scenario(
            name="lights",
            duration=2,
            drones=(
                DroneSpec(id="cf1", position=(0.0, 0.0, 1.0), camera=CameraConfig()),
            ),
            lights=(LightSpec("lamp", (1.4, 0.0, 1.0), (0, 0, 255)),),
        )
        world = create_world(scenario)
        detections = camera_capture(world, "cf1")
        assert [d.source_id for d in detections] == ["lamp"]
        assert detections[0].color == (0, 0, 255)

    def test_capture_without_camera_raises(self):
        world = create_world(hover_scenario())
        with pytest.raises(CapabilityError):
            camera_capture(world, "cf1")

    def test_set_led_unknown_drone(self):
        world = create_world(hover_scenario())
        with pytest.raises(KeyError):
            set_led(world, "nobody", (255, 255, 255), True)

    def test_detections_sorted(self):
        scenario = Scenario(
            name="sorted",
            duration=1,
            drones=(
                DroneSpec(id="cf1", position=(0.0, 0.0, 1.0), camera=CameraConfig()),
            ),
            lights=(
                LightSpec("right", (1.4, -0.5, 1.0), (255, 0, 0)),
                LightSpec("left", (1.4, 0.5, 1.0), (0, 255, 0)),
                LightSpec("mid", (1.4, 0.0, 1.0), (0, 0, 255)),
            ),
        )
        world = create_world(scenario)
        detections = camera_capture(world, "cf1")
        assert [d.u for d in detections] == sorted(d.u for d in detections)


class TestWaypointGuidance:
    def test_leg_tracks_and_parks(self):
        from dronesim.scenario import WaypointPlan

        scenario = Scenario(
            name="wp",
            duration=80,
            drones=(DroneSpec(id="cf1", position=(0.0, 0.0, 1.0)),),
            waypoints={"cf1": WaypointPlan(speed=1.0, points=((1.0, 0.0, 1.0),))},
        )
        _, trajs = run_scenario(scenario)
        rows = trajs["cf1"].rows
        final = rows[-1]
        assert math.dist((final.x, final.y, final.z), (1.0, 0.0, 1.0)) < 0.01
        peak = max(math.sqrt(r.vx**2 + r.vy**2 + r.vz**2) for r in rows)
        assert peak == pytest.approx(1.0, abs=1e-9)
