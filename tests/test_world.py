import math
import random
import struct
from pathlib import Path

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

import dronesim.world as world_mod
from dronesim.battery import BatteryModel
from dronesim.camera import CameraConfig, detect_sources
from dronesim.control import EMPTY_MEMORY, HOVER, POSITION, Command, GainSet, PDGains
from dronesim.geometry import wrap_deg
from dronesim.rab import RabConfig, make_reading
from dronesim.scenario import DroneSpec, LightSpec, Scenario, WaypointPlan, load_scenario_file
from dronesim.world import (
    CapabilityError,
    ConfigurationError,
    camera_capture,
    create_world,
    rab_read,
    rab_send,
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

    # Without the explain phase: on a failure, its search over this test's
    # many draws ran for minutes before the counterexample was reported.
    @settings(max_examples=60, deadline=None,
              phases=[p for p in Phase if p is not Phase.explain])
    @given(data=st.data())
    def test_run_composes_across_the_tick_paths(self, data):
        # Scripted and waypoint drones side by side, an odd number of jitter
        # draws per tick (3 per drone, odd drone count: a Box-Muller value
        # stays pending across ticks), and one drone grounded mid-run.
        ticks = 40
        n = data.draw(st.sampled_from([3, 5, 7]), label="drones")
        coordinate = st.floats(min_value=-1.2, max_value=1.2)
        point = st.tuples(coordinate, coordinate, st.floats(min_value=0.3, max_value=2.5))
        grounded_at = data.draw(st.integers(min_value=1, max_value=ticks - 1), label="grounded")
        drones, scripts, waypoints = [], {}, {}
        for i in range(n):
            charge = 1.0
            if i == n - 1:  # empties after grounded_at ticks of the stock curve
                charge = BatteryModel().poly(BatteryModel().t_max - grounded_at * 0.1 + 0.05)
            drones.append(DroneSpec(id=f"cf{i}", position=data.draw(point), charge=charge))
            if i % 2:
                waypoints[f"cf{i}"] = WaypointPlan(
                    speed=data.draw(st.floats(min_value=0.2, max_value=3.0)),
                    points=tuple(data.draw(st.lists(point, min_size=1, max_size=4))),
                    threshold=data.draw(st.floats(min_value=0.05, max_value=0.5)),
                )
            else:
                commands = st.sampled_from([
                    Command.velocity((0.4, -0.2, 0.1), 15.0),
                    Command.velocity((0.3, 0.0, 0.0), -10.0, frame="body"),
                    Command.position((0.5, -0.5, 1.5), 30.0),
                    Command.position((0.2, 0.1, -0.3), 90.0, frame="body"),
                ])
                starts = sorted(data.draw(st.lists(
                    st.integers(min_value=0, max_value=ticks), min_size=1, max_size=4)))
                scripts[f"cf{i}"] = tuple((t, data.draw(commands)) for t in starts)
        scenario = Scenario(
            name="mixed", duration=ticks, drones=tuple(drones), scripts=scripts,
            waypoints=waypoints, noise_seed=data.draw(st.integers(0, 2**32)),
            noise_position_std=0.002,
        )
        world = create_world(scenario)
        split = data.draw(st.integers(min_value=0, max_value=ticks), label="split")
        end, full = run(world, ticks)
        mid, first = run(world, split)
        end2, second = run(mid, ticks - split)
        for d in scenario.drones:
            assert first[d.id].rows + second[d.id].rows[1:] == full[d.id].rows
        assert end2.rng.getstate() == end.rng.getstate()
        # Each drone's rows are its own: step() records nothing, so its
        # states check which row went to which trajectory.
        stepped = world
        for tick in range(ticks + 1):
            for d in scenario.drones:
                row = full[d.id].rows[tick]
                assert stepped.drone(d.id).state() == (
                    (row.x, row.y, row.z), row.yaw_deg, (row.vx, row.vy, row.vz),
                    row.yaw_rate_deg_s, row.charge,
                )
            if tick < ticks:
                previous, stepped = stepped, step(stepped)
                for drone_id, plan in waypoints.items():
                    self.check_guidance(plan, previous.drone(drone_id), stepped.drone(drone_id))
        rows = full[f"cf{n - 1}"].rows
        assert rows[grounded_at - 1].charge > 0.0 and rows[grounded_at].charge == 0.0

    @staticmethod
    def check_guidance(plan, before, after):
        """A guided drone flies HOVER with the tick's world-frame velocity
        setpoint in ``target``: ``plan.speed`` towards its current waypoint
        from where the tick started. A parked drone holds a position."""
        if after.waypoint_idx >= len(plan.points):
            assert after.command.kind == POSITION
            return
        assert after.command is HOVER
        wx, wy, wz = plan.points[after.waypoint_idx]
        dx, dy, dz = wx - before.x, wy - before.y, wz - before.z
        dist = math.sqrt(dx * dx + dy * dy + dz * dz)
        if dist == 0.0:
            assert after.target is None
            return
        s = plan.speed / dist
        assert after.target == ((dx * s, dy * s, dz * s), 0.0)
        assert math.hypot(*after.target[0]) == pytest.approx(plan.speed, rel=1e-12)

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

    @settings(max_examples=200, deadline=None)
    @given(
        position=st.tuples(st.floats(-1.5, 1.5), st.floats(-1.5, 1.5), st.floats(0.0, 3.0)),
        yaw=st.floats(-180.0, 180.0),
        camera=st.builds(CameraConfig, aperture_deg=st.floats(1.0, 179.0),
                         mount_yaw_offset_deg=st.floats(-720.0, 720.0)),
    )
    def test_own_led_never_detected(self, position, yaw, camera):
        # The drone's own LED is in the tick's source table, at the camera,
        # so the projection rejects it whatever the yaw and mount offset.
        scenario = Scenario(
            name="selfie",
            duration=2,
            drones=(
                DroneSpec(id="solo", position=position, yaw=yaw,
                          camera=camera, led_on=True),
            ),
        )
        world = create_world(scenario)
        assert camera_capture(world, "solo") == []
        assert [source[4] for source in world._sources] == ["solo"]

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

    @pytest.mark.parametrize("color", [
        (0.9, 254.6, 12.99), (0, 0, 0.5), (255.5, 0, 0), (0, 0, float("nan")),
        (0, 0, float("inf")), (0, 254.0, 12), (-1, 0, 0), (256, 0, 0), (0, 0),
        (0, 0, 0, 0), (True, 0, 0), (0, 0, False),
    ])
    def test_set_led_rejects_bad_channels(self, color):
        # Channels are integers, as in a scenario document. Fractional ones
        # were once truncated: (0.9, 254.6, 12.99) was seen as (0, 254, 12).
        world = create_world(hover_scenario())
        with pytest.raises(ValueError):
            set_led(world, "cf1", color, True)
        assert world.drone("cf1").led_staged_color == (255, 255, 255)

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

    def test_detections_are_the_capture_from_tick_0(self):
        # Tick 0 has no deliveries, but its camera already sees the starting
        # LEDs and lights. ``.detections`` once read [] there while
        # camera_capture projected.
        scenario = Scenario(
            name="start",
            duration=1,
            drones=(
                DroneSpec(id="cf1", position=(0.0, 0.0, 1.0), camera=CameraConfig()),
                DroneSpec(id="lit", position=(1.0, 0.0, 1.0), led_on=True),
            ),
            lights=(LightSpec("lamp", (1.4, 0.5, 1.0), (0, 0, 255)),),
        )
        world = create_world(scenario)
        drone = world.drone("cf1")
        assert sorted(d.source_id for d in drone.detections) == ["lamp", "lit"]
        assert drone.detections == camera_capture(world, "cf1")
        assert drone.inbox == []


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

    def test_waypoint_at_the_drone_hovers_one_tick(self):
        # The first point is reached at once; the second sits where the drone
        # is, so guidance hovers for one tick before steering at the third.
        scenario = Scenario(
            name="wp",
            duration=3,
            drones=(DroneSpec(id="cf1", position=(0.0, 0.0, 1.0)),),
            waypoints={"cf1": WaypointPlan(
                speed=0.5, points=((0.0, 0.0, 1.0), (0.0, 0.0, 1.0), (0.5, 0.0, 1.0)))},
        )
        world, trajs = run_scenario(scenario)
        assert [r.x for r in trajs["cf1"].rows] == [0.0, 0.0, 0.05, 0.1]
        assert [r.vx for r in trajs["cf1"].rows] == [0.0, 0.0, 0.5, 0.5]
        assert world.drone("cf1").waypoint_idx == 2


# --------------------------------------------------------------------------
# Sensing against an eager oracle: the phase-4/5 loops that computed every
# inbox and every camera's detections inside the tick, kept here only.

def eager_capture(world, drone, leds):
    """Phase 5's projection for one drone; ``leds`` maps id -> (color, on)."""
    sources = [
        (light.position[0], light.position[1], light.position[2],
         light.color, light.id)
        for light in world.lights
    ] + [
        (other.x, other.y, other.z, leds[other.spec.id][0], other.spec.id)
        for other in world.drones
        if leds[other.spec.id][1] and other is not drone
    ]
    return detect_sources((drone.x, drone.y, drone.z), drone.yaw, drone.spec.camera, sources)


def eager_sensing(before, after):
    """{id: (inbox, detections, capture)} for ``after``, stepped from ``before``
    (None at tick 0), as the eager phase 4 and 5 computed them; ``capture``
    is what ``camera_capture`` returns (None without a camera)."""
    if before is None:
        # Tick 0: nothing delivered yet, but cameras see the starting LEDs.
        leds = {d.spec.id: (d.led_color, d.led_on) for d in after.drones}
        out = {}
        for d in after.drones:
            capture = None if d.spec.camera is None else eager_capture(after, d, leds)
            out[d.spec.id] = ([], capture or [], capture)
        return out
    # Phase 1 queues each drone's broadcast after what was staged by hand;
    # phase 4 publishes the staged LED states.
    outboxes = {}
    leds = {}
    for d in before.drones:
        outboxes[d.spec.id] = list(d.outbox) + (
            [] if d.spec.rab_broadcast is None else [d.spec.rab_broadcast])
        leds[d.spec.id] = (d.led_staged_color, d.led_staged_on)
    senders = sorted(
        ((d, (d.x, d.y, d.z), d.spec.id, d.spec.rab.range_m, outboxes[d.spec.id])
         for d in after.drones if outboxes[d.spec.id]),
        key=lambda entry: entry[2],
    )
    out = {}
    for receiver in after.drones:
        received = []
        rx, ry, rz = receiver_position = (receiver.x, receiver.y, receiver.z)
        for sender, sender_position, sender_id, rng_limit, outbox in senders:
            if sender is receiver:
                continue
            if rng_limit > 0.0:
                dx = sender_position[0] - rx
                dy = sender_position[1] - ry
                dz = sender_position[2] - rz
                if math.sqrt(dx * dx + dy * dy + dz * dz) > rng_limit:
                    continue
            for payload in outbox:
                received.append(make_reading(
                    receiver_position, receiver.yaw, sender_position, payload, sender_id,
                ))
        capture = None
        if receiver.spec.camera is not None:
            capture = eager_capture(after, receiver, leds)
        out[receiver.spec.id] = (received, capture or [], capture)
    return out


def assert_sensing(world, expected, order):
    """Every sensor read of ``world``, in ``order``, matches ``expected``."""
    for drone_id in order:
        drone = world.drone(drone_id)
        inbox, detections, capture = expected[drone_id]
        for _ in range(2):
            got = rab_read(world, drone_id)
            assert type(got) is list and repr(got) == repr(inbox)
            assert type(drone.inbox) is list and repr(drone.inbox) == repr(inbox)
            assert type(drone.detections) is list
            assert repr(drone.detections) == repr(detections)
            if capture is None:
                with pytest.raises(CapabilityError):
                    camera_capture(world, drone_id)
            else:
                got = camera_capture(world, drone_id)
                assert type(got) is list and repr(got) == repr(capture)
        # The public reads hand out copies.
        assert rab_read(world, drone_id) is not rab_read(world, drone_id)
        if capture is not None:
            assert camera_capture(world, drone_id) is not drone.detections


coord = st.floats(min_value=-1.5, max_value=1.5, allow_nan=False)
channel = st.integers(min_value=0, max_value=255)
colors = st.tuples(channel, channel, channel)
payloads = st.binary(max_size=16)


@st.composite
def sensing_scenarios(draw):
    count = draw(st.integers(min_value=2, max_value=5))
    # Registry order differs from id order, so sorting senders matters.
    ids = draw(st.permutations([f"d{i}" for i in range(count)]))
    drones = []
    scripts = {}
    for drone_id in ids:
        drones.append(DroneSpec(
            id=drone_id,
            position=(draw(coord), draw(coord), draw(st.floats(0.0, 3.0))),
            yaw=draw(st.floats(-180.0, 180.0)),
            camera=draw(st.none() | st.builds(
                CameraConfig,
                aperture_deg=st.floats(10.0, 170.0),
                mount_yaw_offset_deg=st.floats(-180.0, 180.0),
            )),
            rab=RabConfig(range_m=draw(st.just(0.0) | st.floats(0.1, 3.0))),
            rab_broadcast=draw(st.none() | payloads),
            led_color=draw(colors),
            led_on=draw(st.booleans()),
        ))
        if draw(st.booleans()):
            velocity = (draw(st.floats(-1.0, 1.0)), draw(st.floats(-1.0, 1.0)),
                        draw(st.floats(-0.5, 0.5)))
            scripts[drone_id] = ((0, Command.velocity(velocity, draw(st.floats(-90.0, 90.0)))),)
    lights = tuple(
        LightSpec(f"lamp{i}", (draw(coord), draw(coord), draw(st.floats(0.0, 3.0))), draw(colors))
        for i in range(draw(st.integers(min_value=0, max_value=3)))
    )
    return Scenario(
        name="sensing",
        duration=0,
        drones=tuple(drones),
        lights=lights,
        scripts=scripts,
        noise_seed=draw(st.integers(min_value=0, max_value=2**32 - 1)),
        noise_position_std=draw(st.just(0.0) | st.floats(0.001, 0.2)),
    )


@settings(max_examples=150, deadline=None)
@given(scenario=sensing_scenarios(), data=st.data())
def test_sensing_matches_eager_oracle(scenario, data):
    ids = [d.id for d in scenario.drones]
    order = data.draw(st.permutations(ids))
    world = create_world(scenario)
    history = [(world, eager_sensing(None, world))]
    previous = None
    for _ in range(data.draw(st.integers(min_value=0, max_value=6))):
        # Tick k is read now or only later, after worlds derived from it exist.
        if data.draw(st.booleans()):
            assert_sensing(world, history[-1][1], order)
        for _ in range(data.draw(st.integers(min_value=0, max_value=3))):
            drone_id = data.draw(st.sampled_from(ids))
            if data.draw(st.booleans()):
                set_led(world, drone_id, data.draw(colors), data.draw(st.booleans()))
            else:
                rab_send(world, drone_id, data.draw(payloads))
        previous, world = world, step(world)
        history.append((world, eager_sensing(previous, world)))
    for older, expected in history:
        assert_sensing(older, expected, order)
    # run(w, 0) copies the snapshot; its sensing reads as the original's
    # and shares no list with it.
    copy = run(world, 0)[0]
    assert_sensing(copy, history[-1][1], order)
    for drone_id in ids:
        assert copy.drone(drone_id).inbox is not world.drone(drone_id).inbox
        assert copy.drone(drone_id).detections is not world.drone(drone_id).detections
    # run() advances one world in place: what was read for one tick must
    # not be served for the next.
    in_place = world.copy()
    assert_sensing(in_place, history[-1][1], order)
    world_mod._advance(in_place)
    assert_sensing(in_place, eager_sensing(world, in_place), order)

    start = create_world(scenario)
    ticks = data.draw(st.integers(min_value=1, max_value=4))
    before = run(start, ticks - 1)[0]
    final = run(start, ticks)[0]
    assert_sensing(final, eager_sensing(before, final), order)
    assert_sensing(run(final, 0)[0], eager_sensing(before, final), order)


def _count_layer_calls(monkeypatch, charges):
    """Counts of the four layer calls over a 20-tick run of six drones
    starting at ``charges``, then over reading every drone's sensors twice."""
    # The counters wrap the four names that perfbench rebinds to time the
    # control, battery, rab and camera layers, so each must stay a name
    # the kernel calls: inlining one would silently zero its layer.
    calls = dict.fromkeys(("drone_control_step", "charge_at", "make_reading", "_capture"), 0)

    def count(owner, name):
        original = getattr(owner, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)
        monkeypatch.setattr(owner, name, wrapper)

    count(world_mod, "drone_control_step")
    count(BatteryModel, "charge_at")
    count(world_mod, "make_reading")
    count(world_mod, "_capture")
    drones = tuple(
        DroneSpec(id=f"cf{i}", position=(0.3 * i - 1.0, 0.0, 1.0), led_on=True,
                  rab_broadcast=b"hi", camera=CameraConfig() if i % 2 else None,
                  charge=charge)
        for i, charge in enumerate(charges)
    )
    world, _ = run(create_world(Scenario(name="lazy", duration=0, drones=drones)), 20)
    flown = dict(calls)
    for _ in range(2):
        readings = sum(len(world.drone(d.id).inbox) for d in drones)
        for d in drones:
            world.drone(d.id).detections
            rab_read(world, d.id)
            if d.camera is not None:
                camera_capture(world, d.id)
    assert readings == 6 * 5
    return flown, calls


def test_sensing_is_computed_only_when_read(monkeypatch):
    # Six stock drones at full charge share one battery clock: one charge_at
    # per tick, not one per drone.
    flown, read = _count_layer_calls(monkeypatch, [1.0] * 6)
    assert flown == {"drone_control_step": 6 * 20, "charge_at": 20,
                     "make_reading": 0, "_capture": 0}
    assert read == {**flown, "make_reading": 6 * 5, "_capture": 3}


def test_distinct_charges_evaluate_the_battery_per_drone(monkeypatch):
    flown, read = _count_layer_calls(monkeypatch, [1.0, 0.9, 0.8, 0.7, 0.6, 0.5])
    assert flown == {"drone_control_step": 6 * 20, "charge_at": 6 * 20,
                     "make_reading": 0, "_capture": 0}
    assert read == {**flown, "make_reading": 6 * 5, "_capture": 3}


def test_stepping_one_world_twice_after_rab_send():
    # A queued message is a tuple shared with every copy of the world; the
    # tick rebinds the copy's outbox, so the input's queue stays as sent.
    drones = (
        DroneSpec(id="a", position=(0.0, 0.0, 1.0), rab_broadcast=b"beat"),
        DroneSpec(id="b", position=(1.0, 0.0, 1.0)),
    )
    world = step(create_world(Scenario(name="twice", duration=0, drones=drones)))
    rab_send(world, "a", b"one")
    rab_send(world, "b", b"two")
    queued = {d.spec.id: d.outbox for d in world.drones}
    assert queued == {"a": (b"one",), "b": (b"two",)}

    def sensed(stepped):
        return [(d.state(), rab_read(stepped, d.spec.id)) for d in stepped.drones]

    first, second = step(world), step(world)
    assert sensed(first) == sensed(second)
    assert [r.payload for r in rab_read(first, "b")] == [b"one", b"beat"]
    assert [r.payload for r in rab_read(first, "a")] == [b"two"]
    (end_first, rows_first), (end_second, rows_second) = run(world, 3), run(world, 3)
    assert rows_first == rows_second and sensed(end_first) == sensed(end_second)
    assert all(d.outbox is queued[d.spec.id] for d in world.drones)


@pytest.mark.parametrize("route", ["World.copy", "step", "run"])
def test_drone_copy_carries_every_slot(route, monkeypatch):
    # _Drone.copy lists the slots by hand: deriving it from __slots__ made a
    # copy about six times slower. A slot it misses fails here.
    world = create_world(hover_scenario())
    drone = world.drones[0]
    fresh = ("world", "_inbox", "_detections")
    # The outbox is an immutable tuple, so a copy shares it like any value.
    values = {name: object() for name in world_mod._Drone.__slots__ if name != "spec"}
    for name, value in values.items():
        setattr(drone, name, value)
    if route == "World.copy":
        clone = world.copy()
    elif route == "step":
        monkeypatch.setattr(world_mod, "_advance", lambda w: None)
        clone = step(world)
    else:
        clone = run(world, 0)[0]
    other = clone.drones[0]
    assert other.spec is drone.spec
    assert other.world is clone and other._inbox is other._detections is None
    for name, value in values.items():
        if name not in fresh:
            assert getattr(other, name) is value, name
    assert all(getattr(drone, name) is value for name, value in values.items())


def test_world_copy_carries_every_slot():
    # World.copy lists its slots by hand, as _Drone.copy does. A copy shares
    # the run's frame and this tick's tables, and owns its drones and
    # generator; a slot missing from either list fails here.
    scenario = Scenario(
        name="copy", duration=0, noise_seed=3, noise_position_std=0.01,
        drones=tuple(DroneSpec(id=f"cf{i}", position=(0.5 * i, 0.0, 1.0)) for i in range(3)),
    )
    shared = ("scenario", "dt", "index", "lights", "_light_sources", "_programs",
              "tick", "_deliveries", "_sources")
    own = ("drones", "rng")
    assert sorted(shared + own) == sorted(world_mod.World.__slots__)
    world = create_world(scenario)
    clone = world.copy()
    assert clone.drones is not world.drones
    for drone_id in ("cf0", "cf1", "cf2"):
        other = clone.drone(drone_id)
        assert other.world is clone and other.spec.id == drone_id
        assert other is not world.drone(drone_id)
        assert other.state() == world.drone(drone_id).state()
    assert clone.rng is not world.rng and clone.rng.getstate() == world.rng.getstate()
    values = {name: object() for name in shared}
    for name, value in values.items():
        setattr(world, name, value)
    clone = world.copy()
    for name, value in values.items():
        assert getattr(clone, name) is value, name


def camera_row(*positions, lit=True, lights=()):
    """Drones cf0, cf1, ... with cameras and LEDs, all looking along +x."""
    return create_world(Scenario(
        name="row", duration=0,
        drones=tuple(
            DroneSpec(id=f"cf{i}", position=position, camera=CameraConfig(), led_on=lit)
            for i, position in enumerate(positions)
        ),
        lights=lights,
    ))


def test_drone_at_the_camera_position_is_not_detected():
    world = camera_row((0.0, 0.0, 1.0), (0.0, 0.0, 1.0), (1.0, 0.0, 1.0))
    assert [d.source_id for d in camera_capture(world, "cf0")] == ["cf2"]
    assert [d.source_id for d in camera_capture(world, "cf1")] == ["cf2"]


def test_light_sharing_the_drones_id_is_detected():
    # Light and drone ids are separate namespaces: only the position of a
    # source decides whether the camera sees it.
    world = camera_row((0.0, 0.0, 1.0), lights=(LightSpec("cf0", (1.0, 0.0, 1.0), (0, 0, 255)),))
    assert [(d.source_id, d.color) for d in camera_capture(world, "cf0")] == [
        ("cf0", (0, 0, 255))]


def test_reads_of_one_tick_share_its_tables():
    # The first read of a tick builds its sender table or camera source
    # table; later reads and copies of that world use it, and the next
    # tick, stepped or advanced in place, builds its own.
    scenario = Scenario(
        name="tables", duration=0,
        drones=tuple(
            DroneSpec(id=f"cf{i}", position=(0.5 * i, 0.0, 1.0), camera=CameraConfig(),
                      led_on=True, rab_broadcast=b"hi")
            for i in range(3)
        ),
        lights=(LightSpec("lamp", (1.4, 0.0, 2.0)),),
    )
    world = step(create_world(scenario))
    assert world._deliveries is None and world._sources is None
    for drone_id in ("cf0", "cf1", "cf2"):
        rab_read(world, drone_id)
        camera_capture(world, drone_id)
        if drone_id == "cf0":
            deliveries, sources = world._deliveries, world._sources
        assert world._deliveries is deliveries and world._sources is sources
    assert [entry[1] for entry in deliveries] == ["cf0", "cf1", "cf2"]
    assert [source[4] for source in sources] == ["lamp", "cf0", "cf1", "cf2"]
    copy = world.copy()
    assert copy._deliveries is deliveries and copy._sources is sources
    stepped = step(world)
    in_place = world.copy()
    world_mod._advance(in_place)
    for later in (stepped, in_place):
        assert later._deliveries is None and later._sources is None
        rab_read(later, "cf0")
        camera_capture(later, "cf0")
        assert later._deliveries is not deliveries and later._sources is not sources
        assert later._deliveries == deliveries and later._sources == sources
    assert world._deliveries is deliveries and world._sources is sources


def test_overflowing_guidance_is_rejected_not_simulated():
    # speed / dist overflows to inf: the command check still raises instead
    # of letting the velocity loop turn it into NaN.
    scenario = Scenario(
        name="overflow", duration=2,
        drones=(DroneSpec(id="cf1", position=(0.0, 0.0, 1.0)),),
        waypoints={"cf1": WaypointPlan(speed=1e300, points=((0.0, 0.0, 1.0 + 1e-12),),
                                       threshold=1e-15)},
    )
    with pytest.raises(ValueError, match="finite"):
        run_scenario(scenario)


def test_far_position_target_flies_like_a_near_one():
    # The position loop's error norm overflowed to inf in saturate, whose
    # vmax / inf scaled the desired velocity to zero: a target 1e200 m away
    # kept x = vx = 0.0 on every tick while one 1e150 m away flew.
    def fly(distance):
        scenario = Scenario(
            name="far", duration=20,
            arena_min=(-1e300, -1e300, 0.0), arena_max=(1e300, 1e300, 1e300),
            drones=(DroneSpec(id="cf1", position=(0.0, 0.0, 1.0)),),
            scripts={"cf1": ((0, Command.position((distance, 0.0, 1.0))),)},
        )
        _, trajectories = run_scenario(scenario)
        return trajectories["cf1"].rows

    near, far = fly(1e150), fly(1e200)
    assert near[-1].x > 0.0 and near[-1].vx > 0.0
    assert far[-1].x > 0.0 and far[-1].vx > 0.0
    for a, b in zip(near, far):
        assert (a.x, a.vx) == pytest.approx((b.x, b.vx), rel=1e-12)


def test_overflowing_motion_is_rejected_not_simulated():
    # kd * d(err)/dt overflows and saturate turns inf * 0 into NaN; from
    # tick 2 the position would be NaN. Both run() and step() refuse it.
    scenario = Scenario(
        name="kd", duration=5,
        drones=(DroneSpec(id="cf1", position=(0.0, 0.0, 1.0),
                          gains=GainSet(velocity=PDGains(10.0, 1e308))),),
        scripts={"cf1": ((0, Command.velocity((1.0, 0.0, 0.0))),
                         (2, Command.velocity((-1.0, 0.5, 0.0))))},
    )
    with pytest.raises(ConfigurationError) as info:
        run_scenario(scenario)
    assert str(info.value).startswith("[drone cf1]: ") and "tick 2" in str(info.value)
    world = step(create_world(scenario))
    with pytest.raises(ConfigurationError, match=r"^\[drone cf1\]: "):
        step(world)
    # An infinite yaw, which wrap_deg cannot wrap, is refused the same way.
    spinning = Scenario(
        name="spin", dt=1e200, duration=3,
        drones=(DroneSpec(id="cf1", position=(0.0, 0.0, 1.0)),),
        scripts={"cf1": ((0, Command.velocity((1.0, 0.0, 0.0), 10.0)),)},
    )
    with pytest.raises(ConfigurationError, match=r"^\[drone cf1\]: .*tick 1"):
        run_scenario(spinning)


def test_overflowing_time_is_rejected_before_the_first_tick():
    # time_s = tick * dt must stay finite; it was inf from tick 2 on.
    scenario = Scenario(name="slow", dt=1e308, duration=3,
                        drones=(DroneSpec(id="cf1", position=(0.0, 0.0, 1.0)),))
    world = create_world(scenario)
    for n_ticks in (2, 3, 10**400):
        with pytest.raises(ConfigurationError, match=r"^\[scenario\] dt: "):
            run(world, n_ticks)
    world, trajectories = run(world, 1)
    assert [row.time_s for row in trajectories["cf1"].rows] == [0.0, 1e308]
    with pytest.raises(ConfigurationError, match=r"^\[scenario\] dt: "):
        step(world)
    assert step(create_world(scenario)).tick == 1


def test_run_length_is_bounded_in_drone_ticks(monkeypatch):
    # Ticks whose times advance ran until killed, at any count.
    monkeypatch.setattr(world_mod, "MAX_DRONE_TICKS", 20)
    drones = (DroneSpec(id="a", position=(0.0, 0.0, 1.0)),
              DroneSpec(id="b", position=(1.0, 0.0, 1.0)))
    world = create_world(Scenario(name="pair", drones=drones))
    assert run(world, 10)[0].tick == 10
    with pytest.raises(ConfigurationError, match=(
            r"^\[scenario\] duration: 11 ticks x 2 drones is over the "
            r"run-length bound of 20 drone-ticks$")):
        run(world, 11)
    # A world without drones counts as one drone.
    empty = create_world(Scenario(name="empty"))
    assert run(empty, 20)[0].tick == 20
    with pytest.raises(ConfigurationError, match=r"21 ticks x 0 drones"):
        run(empty, 21)


def test_time_that_stops_advancing_is_rejected():
    # At tick 10**20 with dt = 0.1, (tick + 1) * dt == tick * dt: step()
    # recorded the same time_s again, and a run that long never finished.
    world = create_world(Scenario(name="stall", drones=(DroneSpec(id="cf1"),)))
    world.tick = 10**20
    for advance in (step, lambda w: run(w, 1), lambda w: run(w, 0)):
        with pytest.raises(ConfigurationError, match=r"^\[scenario\] dt: .*previous tick"):
            advance(world)
    world.tick = 10**15  # dt is still far above the float spacing here
    assert step(world).tick == 10**15 + 1


def _bits(values):
    return [struct.pack("<d", v) for v in values]


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**64),
    std=st.sampled_from([0.002, 1.0, 0.1 + 1e-17, 3e-300, 7e300, -0.5, 0.0]),
    pending=st.booleans(),
    counts=st.lists(st.integers(min_value=0, max_value=9), max_size=8),
)
def test_gauss_batch_matches_gauss(seed, std, pending, counts):
    # The batch is a copy of Random.gauss: same value bits and the same
    # generator state (gauss_next included) after every call.
    batch_rng = random.Random(seed)
    call_rng = random.Random(seed)
    if pending:
        assert _bits([batch_rng.gauss(0.0, std)]) == _bits([call_rng.gauss(0.0, std)])
    for n in [0, 1, 2, 3] + counts + [300, 301]:
        batch = world_mod._gauss_batch(batch_rng, std, n)
        calls = [call_rng.gauss(0.0, std) for _ in range(n)]
        assert _bits(batch) == _bits(calls), n
        assert batch_rng.getstate() == call_rng.getstate(), n


def test_jitter_is_one_gauss_stream_in_registry_order():
    # Three gauss(0, std) draws per drone and tick (x, y, z, registry
    # order, grounded drones too) from one Random(noise_seed). Hovering
    # drones stand still, so each pose is its start plus its draws.
    std = 0.001
    scenario = Scenario(
        name="jitter", duration=20, noise_seed=11, noise_position_std=std,
        drones=(
            DroneSpec(id="b", position=(0.5, -0.5, 1.0)),
            DroneSpec(id="a", position=(-0.5, 0.5, 2.0), charge=0.0),
            DroneSpec(id="c", position=(0.0, 0.0, 1.5)),
        ),
    )
    _, trajs = run_scenario(scenario)
    stream = random.Random(11)
    poses = [list(d.position) for d in scenario.drones]
    for k in range(1, 21):
        for drone, pose in zip(scenario.drones, poses):
            for axis in range(3):
                pose[axis] += stream.gauss(0.0, std)
            row = trajs[drone.id].rows[k]
            z = 0.0 if drone.charge == 0.0 else pose[2]
            assert (row.x, row.y, row.z) == (pose[0], pose[1], z), (drone.id, k)


def test_step_with_jitter_matches_run_without_reseeding(monkeypatch):
    # Three drones draw nine values per tick, so every other tick ends
    # with a gauss_next carried into the next one, through World.copy.
    scenario = Scenario(
        name="steps", duration=30, noise_seed=5, noise_position_std=0.01,
        drones=tuple(
            DroneSpec(id=f"cf{i}", position=(0.3 * i - 0.3, 0.0, 1.0)) for i in range(3)
        ),
        scripts={"cf1": ((0, Command.velocity((0.2, 0.1, 0.0), yaw_rate=15.0)),)},
    )
    world = create_world(scenario)
    final, trajs = run(world, 30)

    def no_seeding(*args, **kwargs):
        raise AssertionError("the world's generator was re-seeded")

    monkeypatch.setattr(random.Random, "seed", no_seeding)
    for k in range(1, 31):
        world = step(world)
        for drone in world.drones:
            row = trajs[drone.spec.id].rows[k]
            assert (world.tick, *drone.state()) == (
                row.tick, (row.x, row.y, row.z), row.yaw_deg,
                (row.vx, row.vy, row.vz), row.yaw_rate_deg_s, row.charge)
        assert (world.rng.gauss_next is None) == (k % 2 == 0), k
    assert world.rng.getstate() == final.rng.getstate()


def test_stock_gains_fly_on_the_shared_empty_memory():
    # kd = 0 on every loop: no stage records memory, through script
    # switches (velocity and position, body and world), waypoint advances,
    # parking and grounding, in run() and in step().
    scenario = Scenario(
        name="nomemory",
        duration=60,
        drones=(
            DroneSpec(id="scripted", position=(0.0, 0.0, 1.0)),
            DroneSpec(id="guided", position=(-1.0, 0.0, 1.0)),
            DroneSpec(id="sinking", position=(1.0, 0.0, 1.0), charge=0.301),
        ),
        scripts={
            "scripted": (
                (0, Command.velocity((0.3, 0.1, 0.0), 20.0, "body")),
                (15, Command.position((0.5, 0.5, 1.2), 90.0)),
                (30, Command.position((0.2, -0.1, 0.0), -45.0, "body")),
                (45, Command.velocity((0.0, -0.2, 0.1), -10.0)),
            ),
            "sinking": ((0, Command.position((1.0, 1.0, 1.0), 30.0)),),
        },
        waypoints={"guided": WaypointPlan(
            speed=1.0, points=((-0.8, 0.0, 1.0), (-0.8, 0.3, 1.0)))},
    )
    world, _ = run(create_world(scenario), scenario.duration)
    assert world.drone("guided").waypoint_idx == 2  # parked
    assert world.drone("sinking").charge == 0.0
    assert all(drone.memory is EMPTY_MEMORY for drone in world.drones)
    world = create_world(scenario)
    for _ in range(scenario.duration):
        world = step(world)
        assert all(drone.memory is EMPTY_MEMORY for drone in world.drones)


def test_derivative_gains_keep_their_memory():
    # flight_paths.scn sets kd on body's four loops and on parker's linear
    # loops; sinker flies the stock gains. test_golden pins its CSVs.
    scenario = load_scenario_file(Path(__file__).parent / "golden" / "flight_paths.scn")
    world, _ = run_scenario(scenario)
    body, parker, sinker = world.drones
    # body ends on a velocity command (tick 110), which only the velocity
    # stage flies; parker holds its final waypoint with a position command.
    assert body.memory.vel_err is not None and body.memory.yaw_rate_err is not None
    assert body.memory.pos_err is None
    assert parker.waypoint_idx == 2
    assert parker.memory.vel_err is not None and parker.memory.pos_err is not None
    assert sinker.memory is EMPTY_MEMORY
