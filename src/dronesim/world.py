"""Deterministic fixed-tick simulation kernel.

A world holds an ordered registry of drones plus static lights, and advances
in fixed dt ticks. The per-tick phase order is a hard contract (required for
determinism and pinned by tests):

    1. controllers  -- scripts/waypoint plans update commands, PD loops
                       compute the new velocity and yaw rate
    2. kinematics   -- semi-implicit Euler integration, arena clamping,
                       optional seeded position jitter
    3. battery      -- discharge curve advances; a drone whose charge
                       reaches 0 is grounded (velocity zeroed, altitude 0)
    4. media        -- staged LED states become visible; messages staged
                       last tick are delivered into receiver inboxes with
                       range/bearing computed at delivery time
    5. sensors      -- camera-equipped drones sample detections
    6. logging      -- the caller records trajectory rows (see run())

Consequences: a message sent at tick k is readable exactly at tick k+1, an
LED change is visible to cameras starting the next tick, and composing runs
is associative (run(w, a+b) == run(w, a) then run(., b), row for row).

``step`` is pure: it returns a new world and never mutates its input.
Stepping one world is strictly single-threaded; distinct worlds may run in
parallel safely.
"""

from __future__ import annotations

import math
import random
from typing import NamedTuple, Optional

from .camera import Detection, detect_sources
from .control import (
    Command,
    ControllerMemory,
    DroneState,
    HOVER,
    POSITION,
    drone_control_step,
    resolve_position_target,
)
from .geometry import Vec3, clamp, wrap_deg
from .rab import PayloadError, RabReading, make_reading
from .scenario import DroneSpec, Scenario
from .trajectory import Trajectory, TrajectoryRow


class ConfigurationError(ValueError):
    """World cannot be built from the given scenario."""


class CapabilityError(ValueError):
    """The drone lacks the sensor required by the operation."""


class Light(NamedTuple):
    id: str
    position: Vec3
    color: tuple[int, int, int]


class _Drone:
    """Mutable per-drone runtime record (internal to the kernel)."""

    __slots__ = (
        "spec", "x", "y", "z", "yaw", "vx", "vy", "vz", "yaw_rate", "charge",
        "command", "target", "memory", "battery_t", "depleted",
        "led_color", "led_on", "led_staged_color", "led_staged_on",
        "outbox", "inbox", "detections", "script_idx", "waypoint_idx",
    )

    def __init__(self, spec: DroneSpec):
        self.spec = spec
        self.x, self.y, self.z = spec.position
        self.yaw = spec.yaw
        self.vx = self.vy = self.vz = 0.0
        self.yaw_rate = 0.0
        self.charge = spec.charge
        self.command: Command = HOVER
        self.target: Optional[tuple[Vec3, float]] = None
        self.memory = ControllerMemory()
        if spec.charge <= 0.0:
            self.battery_t = spec.battery.t_max
            self.depleted = True
            self.charge = 0.0
        else:
            self.battery_t = spec.battery.invert_charge(spec.charge)
            self.depleted = self.battery_t >= spec.battery.t_max
            if self.depleted:
                self.charge = spec.charge  # reported until the first advance
        self.led_color = spec.led_color
        self.led_on = spec.led_on
        self.led_staged_color = spec.led_color
        self.led_staged_on = spec.led_on
        self.outbox: list[bytes] = []
        self.inbox: list[RabReading] = []
        self.detections: list[Detection] = []
        self.script_idx = 0
        self.waypoint_idx = 0

    def state(self) -> DroneState:
        return DroneState(
            position=(self.x, self.y, self.z),
            yaw=self.yaw,
            velocity=(self.vx, self.vy, self.vz),
            yaw_rate=self.yaw_rate,
            charge=self.charge,
        )

    def copy(self) -> "_Drone":
        other = _Drone.__new__(_Drone)
        other.spec = self.spec
        other.x, other.y, other.z = self.x, self.y, self.z
        other.yaw = self.yaw
        other.vx, other.vy, other.vz = self.vx, self.vy, self.vz
        other.yaw_rate = self.yaw_rate
        other.charge = self.charge
        other.command = self.command
        other.target = self.target
        other.memory = self.memory
        other.battery_t = self.battery_t
        other.depleted = self.depleted
        other.led_color = self.led_color
        other.led_on = self.led_on
        other.led_staged_color = self.led_staged_color
        other.led_staged_on = self.led_staged_on
        other.outbox = list(self.outbox)
        other.inbox = list(self.inbox)
        other.detections = list(self.detections)
        other.script_idx = self.script_idx
        other.waypoint_idx = self.waypoint_idx
        return other


class World:
    """Simulation state at one tick. Use :func:`step` to advance.

    Treat worlds as snapshots: apart from the explicit actuator staging
    operations (:func:`set_led`, :func:`rab_send`) nothing mutates them.
    """

    __slots__ = ("scenario", "tick", "dt", "drones", "index", "lights", "rng")

    def __init__(self, scenario: Scenario, drones: list[_Drone], tick: int = 0,
                 rng: Optional[random.Random] = None):
        self.scenario = scenario
        self.tick = tick
        self.dt = scenario.dt
        self.drones = drones
        self.index = {d.spec.id: d for d in drones}
        self.lights = tuple(
            Light(l.id, l.position, l.color) for l in scenario.lights
        )
        self.rng = rng

    @property
    def time_s(self) -> float:
        return self.tick * self.dt

    def copy(self) -> "World":
        clone = World.__new__(World)
        clone.scenario = self.scenario
        clone.tick = self.tick
        clone.dt = self.dt
        clone.drones = [d.copy() for d in self.drones]
        clone.index = {d.spec.id: d for d in clone.drones}
        clone.lights = self.lights
        clone.rng = None
        if self.rng is not None:
            clone.rng = random.Random()
            clone.rng.setstate(self.rng.getstate())
        return clone

    def drone(self, drone_id: str) -> _Drone:
        try:
            return self.index[drone_id]
        except KeyError:
            raise KeyError(f"unknown drone {drone_id!r}") from None


def create_world(scenario: Scenario) -> World:
    """Build a world at tick 0 from a validated scenario."""
    for spec in scenario.drones:
        for axis, (lo, hi) in enumerate(zip(scenario.arena_min, scenario.arena_max)):
            if not lo <= spec.position[axis] <= hi:
                raise ConfigurationError(
                    f"drone {spec.id!r} initial position {spec.position} "
                    f"outside arena"
                )
    rng = None
    if scenario.noise_position_std > 0.0:
        rng = random.Random(scenario.noise_seed)
    return World(scenario, [_Drone(spec) for spec in scenario.drones], 0, rng)


def step(world: World) -> World:
    """Advance one tick. Pure: returns a new world, the input is unchanged."""
    clone = world.copy()
    _advance(clone)
    return clone


def run(world: World, n_ticks: int):
    """Step ``n_ticks`` times, recording one row per drone per tick.

    Returns (final world, {drone id: Trajectory}). The trajectories include
    the starting tick, so they have n_ticks + 1 rows.
    """
    if n_ticks < 0:
        raise ValueError("n_ticks must be >= 0")
    current = world.copy()
    trajectories = {
        d.spec.id: Trajectory(d.spec.id, []) for d in current.drones
    }
    _record(current, trajectories)
    for _ in range(n_ticks):
        _advance(current)
        _record(current, trajectories)
    return current, trajectories


def run_scenario(scenario: Scenario, n_ticks: Optional[int] = None):
    """create_world + run for the scenario duration (or an override)."""
    world = create_world(scenario)
    return run(world, scenario.duration if n_ticks is None else n_ticks)


def _record(world: World, trajectories) -> None:
    t = world.tick * world.dt
    for d in world.drones:
        trajectories[d.spec.id].rows.append(
            TrajectoryRow(
                world.tick, t, d.x, d.y, d.z, d.yaw,
                d.vx, d.vy, d.vz, d.yaw_rate, d.charge,
            )
        )


# --------------------------------------------------------------------------
# Actuator staging and sensor reads (the public sensing API)

def set_led(world: World, drone_id: str, color: tuple[int, int, int], on: bool) -> None:
    """Stage the drone's LED state; cameras see it starting next tick."""
    drone = world.drone(drone_id)
    if len(color) != 3 or not all(0 <= ch <= 255 for ch in color):
        raise ValueError("color must be three channels in [0, 255]")
    drone.led_staged_color = (int(color[0]), int(color[1]), int(color[2]))
    drone.led_staged_on = bool(on)


def rab_send(world: World, drone_id: str, payload: bytes) -> None:
    """Queue a broadcast; delivered next tick to receivers in range."""
    drone = world.drone(drone_id)
    if len(payload) > drone.spec.rab.payload_max:
        raise PayloadError(
            f"payload of {len(payload)} bytes exceeds maximum "
            f"{drone.spec.rab.payload_max}"
        )
    drone.outbox.append(bytes(payload))


def rab_read(world: World, drone_id: str) -> list[RabReading]:
    """Messages delivered this tick (sent last tick), sorted by sender id."""
    return list(world.drone(drone_id).inbox)


def camera_capture(world: World, drone_id: str) -> list[Detection]:
    """Project all lights and other drones' lit LEDs through this drone's camera.

    Detections are sorted by (u, v, source id). The drone's own LED is never
    included and there is no occlusion test.
    """
    drone = world.drone(drone_id)
    if drone.spec.camera is None:
        raise CapabilityError(f"drone {drone_id!r} has no camera")
    return _capture(world, drone)


def _capture(world: World, drone: _Drone) -> list[Detection]:
    config = drone.spec.camera
    yaw = math.radians(drone.yaw + config.mount_yaw_offset_deg)
    sources = [
        (light.position[0], light.position[1], light.position[2],
         light.color, light.id)
        for light in world.lights
    ] + [
        (other.x, other.y, other.z, other.led_color, other.spec.id)
        for other in world.drones
        if other.led_on and other is not drone
    ]
    return detect_sources(
        (drone.x, drone.y, drone.z), math.cos(yaw), math.sin(yaw),
        config.tan_half_aperture, sources,
    )


# --------------------------------------------------------------------------
# The tick pipeline

def _advance(world: World) -> None:
    scenario = world.scenario
    dt = world.dt
    tick = world.tick

    # Phase 1: scripts/guidance update commands, controllers compute motion.
    new_motion = []
    for drone in world.drones:
        _apply_script(scenario, drone, tick)
        _apply_waypoints(scenario, drone)
        if drone.spec.rab_broadcast is not None:
            drone.outbox.append(drone.spec.rab_broadcast)
        velocity, yaw_rate, drone.memory = drone_control_step(
            drone.state(), drone.memory, drone.command, drone.target,
            drone.spec.gains, drone.spec.limits, dt,
        )
        new_motion.append((velocity, yaw_rate))

    # Phase 2: kinematics (semi-implicit Euler) + arena clamp + noise hook.
    lo = scenario.arena_min
    hi = scenario.arena_max
    rng = world.rng
    std = scenario.noise_position_std
    for drone, (velocity, yaw_rate) in zip(world.drones, new_motion):
        vx, vy, vz = velocity
        drone.vx, drone.vy, drone.vz = vx, vy, vz
        drone.yaw_rate = yaw_rate
        x = drone.x + vx * dt
        y = drone.y + vy * dt
        z = drone.z + vz * dt
        if rng is not None:
            x += rng.gauss(0.0, std)
            y += rng.gauss(0.0, std)
            z += rng.gauss(0.0, std)
        drone.x = clamp(x, lo[0], hi[0])
        drone.y = clamp(y, lo[1], hi[1])
        z = clamp(z, lo[2], hi[2])
        drone.z = z if z > 0.0 else 0.0
        drone.yaw = wrap_deg(drone.yaw + yaw_rate * dt)

    # Phase 3: battery discharge; depletion grounds the drone immediately.
    for drone in world.drones:
        if not drone.depleted:
            model = drone.spec.battery
            drone.battery_t += dt * model.load_factor
            drone.charge = model.charge_at(drone.battery_t)
            if drone.charge != 0.0:
                continue
            drone.depleted = True
        drone.charge = 0.0
        drone.vx = drone.vy = drone.vz = 0.0
        drone.yaw_rate = 0.0
        drone.z = 0.0

    # Phase 4: media -- publish staged LEDs, deliver staged messages.
    for drone in world.drones:
        drone.led_color = drone.led_staged_color
        drone.led_on = drone.led_staged_on
    # Each inbox lists its readings by sender id; taking the senders in id
    # order builds it sorted.
    senders = sorted(
        ((d, (d.x, d.y, d.z), d.spec.id, d.spec.rab.range_m, d.outbox)
         for d in world.drones if d.outbox),
        key=lambda entry: entry[2],
    )
    for receiver in world.drones:
        received = []
        if senders:
            rx, ry, rz = receiver_position = (receiver.x, receiver.y, receiver.z)
            receiver_yaw = receiver.yaw
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
                        receiver_position, receiver_yaw,
                        sender_position, payload, sender_id,
                    ))
        receiver.inbox = received
    for entry in senders:
        entry[0].outbox = []

    # Phase 5: sensors sample.
    for drone in world.drones:
        if drone.spec.camera is not None:
            drone.detections = _capture(world, drone)

    world.tick = tick + 1


def _apply_script(scenario: Scenario, drone: _Drone, tick: int) -> None:
    entries = scenario.scripts.get(drone.spec.id)
    if not entries:
        return
    idx = drone.script_idx
    changed = False
    while idx < len(entries) and entries[idx][0] <= tick:
        drone.command = entries[idx][1]
        idx += 1
        changed = True
    if changed:
        drone.script_idx = idx
        drone.memory = ControllerMemory()
        if drone.command.kind == POSITION:
            drone.target = resolve_position_target(drone.state(), drone.command)
        else:
            drone.target = None


def _apply_waypoints(scenario: Scenario, drone: _Drone) -> None:
    plan = scenario.waypoints.get(drone.spec.id)
    if plan is None:
        return
    idx = drone.waypoint_idx
    points = plan.points
    if idx >= len(points):
        return  # already holding the final point
    wx, wy, wz = points[idx]
    dx = wx - drone.x
    dy = wy - drone.y
    dz = wz - drone.z
    dist = math.sqrt(dx * dx + dy * dy + dz * dz)
    if dist <= plan.threshold:
        idx += 1
        drone.waypoint_idx = idx
        drone.memory = ControllerMemory()
        if idx >= len(points):
            # Park: hold position at the final waypoint, keep current yaw.
            drone.command = Command.position((wx, wy, wz), drone.yaw)
            drone.target = ((wx, wy, wz), drone.yaw)
            return
        wx, wy, wz = points[idx]
        dx = wx - drone.x
        dy = wy - drone.y
        dz = wz - drone.z
        dist = math.sqrt(dx * dx + dy * dy + dz * dz)
    if dist == 0.0:
        drone.command = HOVER
    else:
        s = plan.speed / dist
        drone.command = Command.velocity((dx * s, dy * s, dz * s))
    drone.target = None
