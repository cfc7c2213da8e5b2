"""Deterministic fixed-tick simulation kernel.

A world holds an ordered registry of drones plus static lights, and advances
in fixed dt ticks. The per-tick phase order is a hard contract (required for
determinism and pinned by tests):

    1. controllers  -- scripts update commands, waypoint plans setpoints,
                       PD loops store the new velocity and yaw rate
    2. kinematics   -- semi-implicit Euler integration of that stored
                       motion, arena clamping, optional seeded jitter
    3. battery      -- discharge curve advances; a drone whose charge
                       reaches 0 is grounded (velocity zeroed, altitude 0).
                       ``charge_at`` is pure in (model, t), so drones on one
                       model object at one battery time share one
                       evaluation: a swarm that starts at one charge on the
                       stock battery calls it once per tick, not per drone
    4. media        -- staged LED states become visible; messages staged
                       last tick become each sender's ``sent``, delivered
                       this tick
    5. sensors      -- no work in the tick: readings (range/bearing at
                       delivery time) and detections are computed on first
                       read from the tick's snapshot, then cached. The
                       first read builds the tick's table it needs: the
                       senders in id order, or the camera sources (the
                       lights, then every lit drone). Every read of the
                       tick and every copy of the world share the tables.
    6. logging      -- the caller records trajectory rows (see run())

Consequences: a message sent at tick k is readable exactly at tick k+1, an
LED change is visible to cameras starting the next tick, and composing runs
is associative (run(w, a+b) == run(w, a) then run(., b), row for row).
Sensing costs nothing until it is read: a drone's ``inbox`` and
``detections`` hold the same values the tick would have computed. At tick 0
there are no deliveries, so ``inbox`` is ``[]``, while ``detections`` see the
starting LEDs and lights.

``step`` is pure: it returns a new world and never mutates its input.
Stepping one world is strictly single-threaded; distinct worlds may run in
parallel safely.
"""

from __future__ import annotations

import math
import random
from itertools import repeat
from operator import itemgetter
from typing import Optional

from .camera import Detection, detect_sources
from .control import (
    Command,
    DroneState,
    EMPTY_MEMORY,
    HOVER,
    POSITION,
    drone_control_step,
    next_pose,
    resolve_position_target,
)
from .geometry import Vec3, wrap_deg
from .rab import PayloadError, RabReading, make_reading
from .scenario import (  # noqa: F401 (ConfigurationError is re-exported)
    _BAD_COLOR, ConfigurationError, DroneSpec, Scenario, WaypointPlan, is_color,
)
from .trajectory import Trajectory, TrajectoryRow

# NamedTuple construction without the generated ``__new__``, a Python-level
# call per row or state; the fields go in positionally, in their order.
_new_tuple = tuple.__new__
_new_object = object.__new__
_cos, _isfinite, _log, _sin, _sqrt = math.cos, math.isfinite, math.log, math.sin, math.sqrt
_TWOPI = 2.0 * math.pi  # random.TWOPI

# The most drone-ticks (ticks x drones, a world without drones counting as
# one) that one run() may simulate: about 50 s at 5 us per drone-tick, and
# 3.5 GB of trajectory rows at about 350 B each.
MAX_DRONE_TICKS = 10**7


class CapabilityError(ValueError):
    """The drone lacks the sensor required by the operation."""


class _Drone:
    """Mutable per-drone runtime record (internal to the kernel)."""

    __slots__ = (
        "spec", "x", "y", "z", "yaw", "vx", "vy", "vz", "yaw_rate", "charge",
        # The command flown and its world-frame setpoint (None: resolve the
        # command); guidance flies HOVER with its (velocity, 0.0) as target.
        "command", "target", "memory", "battery_t", "depleted",
        "led_color", "led_on", "led_staged_color", "led_staged_on",
        # Payloads queued this tick, and those queued last tick, which
        # this tick delivers.
        "outbox", "sent", "script_idx", "waypoint_idx",
        # The world this record belongs to, and the sensing computed from
        # its current tick (None until first read).
        "world", "_inbox", "_detections",
    )

    def __init__(self, spec: DroneSpec):
        self.spec = spec
        self.x, self.y, self.z = spec.position
        self.yaw = wrap_deg(spec.yaw)
        self.vx = self.vy = self.vz = 0.0
        self.yaw_rate = 0.0
        # A depleted start reports its charge until the first advance; + 0.0
        # folds a -0.0 start to 0.0.
        self.charge = spec.charge + 0.0
        self.command: Command = HOVER
        self.target: Optional[tuple[Vec3, float]] = None
        self.memory = EMPTY_MEMORY
        self.battery_t = spec.battery.invert_charge(spec.charge)
        self.depleted = self.battery_t >= spec.battery.t_max
        self.led_color = spec.led_color
        self.led_on = spec.led_on
        self.led_staged_color = spec.led_color
        self.led_staged_on = spec.led_on
        # Both extended or replaced by rebinding, so copies share them.
        self.outbox: tuple[bytes, ...] = ()
        self.sent: tuple[bytes, ...] = ()
        self._inbox = self._detections = None
        self.script_idx = 0
        self.waypoint_idx = 0

    @property
    def inbox(self) -> list[RabReading]:
        """Messages delivered this tick (sent last tick), sorted by sender id."""
        if self._inbox is None:
            self._inbox = _receive(_deliveries(self.world), self)
        return self._inbox

    @property
    def detections(self) -> list[Detection]:
        """The camera's detections this tick; [] without a camera."""
        if self._detections is None:
            self._detections = [] if self.spec.camera is None else _capture(self.world, self)
        return self._detections

    def state(self) -> DroneState:
        return _new_tuple(DroneState, (
            (self.x, self.y, self.z), self.yaw,
            (self.vx, self.vy, self.vz), self.yaw_rate, self.charge,
        ))

    def copy(self, world: "World") -> "_Drone":
        """A copy belonging to ``world``, with no sensing yet."""
        other = _Drone.__new__(_Drone)
        other.world = world
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
        other.outbox = self.outbox
        other.sent = self.sent
        other.script_idx = self.script_idx
        other.waypoint_idx = self.waypoint_idx
        other._inbox = other._detections = None
        return other


class World:
    """Simulation state at one tick. Use :func:`step` to advance.

    Treat worlds as snapshots: apart from the explicit actuator staging
    operations (:func:`set_led`, :func:`rab_send`) nothing mutates them.
    """

    __slots__ = (
        # The run's frame, built once and shared by every copy.
        "scenario", "dt", "index", "lights", "_light_sources", "_programs",
        # This tick's state, and its tables of senders and of camera
        # sources, each None until the tick's first read that needs it.
        "tick", "drones", "rng", "_deliveries", "_sources",
    )

    def __init__(self, scenario: Scenario, drones: list[_Drone], tick: int = 0,
                 rng: Optional[random.Random] = None):
        self.scenario = scenario
        self.dt = scenario.dt
        # Drone id -> registry position, the same in every copy.
        self.index = {d.spec.id: i for i, d in enumerate(drones)}
        # Each drone's flight program in registry order, fixed for the run
        # and shared by every copy: (script entries or None, waypoint plan
        # or None, broadcast payload or None, gains, limits).
        scripts, waypoints = scenario.scripts, scenario.waypoints
        self._programs = tuple([
            (scripts.get(d.spec.id), waypoints.get(d.spec.id),
             d.spec.rab_broadcast, d.spec.gains, d.spec.limits)
            for d in drones
        ])
        self.lights = tuple(scenario.lights)
        self._light_sources = [
            (light.position[0], light.position[1], light.position[2],
             light.color, light.id)
            for light in self.lights
        ]
        self.tick = tick
        self.drones = drones
        self.rng = rng
        self._deliveries = self._sources = None
        for d in drones:
            d.world = self

    @property
    def time_s(self) -> float:
        return self.tick * self.dt

    def copy(self) -> "World":
        """A world at the same tick: it shares the run's frame and this
        tick's read-only tables, and owns copies of the drones and rng."""
        clone = World.__new__(World)
        clone.scenario = self.scenario
        clone.dt = self.dt
        clone.index = self.index
        clone._programs = self._programs
        clone.lights = self.lights
        clone._light_sources = self._light_sources
        clone.tick = self.tick
        clone.drones = [d.copy(clone) for d in self.drones]
        clone.rng = None
        if self.rng is not None:
            # No __init__: it seeds from os.urandom, and setstate overwrites
            # that seed and gauss_next anyway.
            clone.rng = random.Random.__new__(random.Random)
            clone.rng.setstate(self.rng.getstate())
        clone._deliveries = self._deliveries
        clone._sources = self._sources
        return clone

    def drone(self, drone_id: str) -> _Drone:
        try:
            return self.drones[self.index[drone_id]]
        except KeyError:
            raise KeyError(f"unknown drone {drone_id!r}") from None


def create_world(scenario: Scenario) -> World:
    """Build a world at tick 0 from a validated scenario."""
    rng = None
    if scenario.noise_position_std > 0.0:
        rng = random.Random(scenario.noise_seed)
    return World(scenario, [_Drone(spec) for spec in scenario.drones], 0, rng)


def step(world: World) -> World:
    """Advance one tick. Pure: returns a new world, the input is unchanged."""
    _check_time(world, 1)
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
    _check_time(world, n_ticks)
    current = world.copy()
    trajectories = {}
    appenders = []  # each drone's rows.append, in registry order
    for d in current.drones:
        # Trajectory's fields set directly: it is mutable and checks nothing.
        rows = []
        trajectory = trajectories[d.spec.id] = _new_object(Trajectory)
        trajectory.drone_id = d.spec.id
        trajectory.rows = rows
        appenders.append(rows.append)
    _record(current, appenders)
    for _ in range(n_ticks):
        _advance(current)
        _record(current, appenders)
    return current, trajectories


def run_scenario(scenario: Scenario, n_ticks: Optional[int] = None):
    """create_world + run for the scenario duration (or an override)."""
    world = create_world(scenario)
    return run(world, scenario.duration if n_ticks is None else n_ticks)


def _check_time(world: World, n_ticks: int) -> None:
    """Refuse ticks whose time_s, up to (tick + n_ticks) * dt, overflows or
    stops advancing, then runs longer than MAX_DRONE_TICKS. Float spacing
    only grows with magnitude, so the last pair of ticks is the first whose
    times can be equal."""
    last = world.tick + n_ticks
    try:
        end = last * world.dt
    except OverflowError:  # a tick count beyond the float range
        end = math.inf
    if end == math.inf:
        raise ConfigurationError("time tick * dt of the last tick is not finite",
                                 "[scenario] dt")
    if end == (last - 1) * world.dt:
        raise ConfigurationError("time tick * dt of the last tick equals the previous tick's",
                                 "[scenario] dt")
    drones = len(world.drones)
    if n_ticks * max(drones, 1) > MAX_DRONE_TICKS:
        raise ConfigurationError(
            f"{n_ticks} ticks x {drones} drones is over the run-length bound of "
            f"{MAX_DRONE_TICKS} drone-ticks", "[scenario] duration")


def _record(world: World, appenders) -> None:
    tick = world.tick
    t = tick * world.dt
    for d, append in zip(world.drones, appenders):
        append(_new_tuple(TrajectoryRow, (
            tick, t, d.x, d.y, d.z, d.yaw,
            d.vx, d.vy, d.vz, d.yaw_rate, d.charge,
        )))


# --------------------------------------------------------------------------
# Actuator staging and sensor reads (the public sensing API)

def set_led(world: World, drone_id: str, color: tuple[int, int, int], on: bool) -> None:
    """Stage the drone's LED state; cameras see it starting next tick.

    Each channel must be an integer in [0, 255], as in a scenario document.
    """
    drone = world.drone(drone_id)
    if not is_color(color):
        raise ValueError(_BAD_COLOR)
    drone.led_staged_color = (int(color[0]), int(color[1]), int(color[2]))
    drone.led_staged_on = bool(on)


def rab_send(world: World, drone_id: str, payload: bytes) -> None:
    """Queue a broadcast; delivered next tick to receivers in range.

    ``payload`` is any bytes-like object, measured in bytes; a value
    without the buffer protocol (a ``str``, an ``int``, a list) raises
    TypeError."""
    drone = world.drone(drone_id)
    try:
        payload = bytes(memoryview(payload))
    except TypeError:
        raise TypeError(
            f"payload must be a bytes-like object, not {type(payload).__name__!r}"
        ) from None
    if len(payload) > drone.spec.rab.payload_max:
        raise PayloadError(
            f"payload of {len(payload)} bytes exceeds maximum "
            f"{drone.spec.rab.payload_max}"
        )
    drone.outbox += (payload,)


def rab_read(world: World, drone_id: str) -> list[RabReading]:
    """Messages delivered this tick (sent last tick), sorted by sender id."""
    return list(world.drone(drone_id).inbox)


def camera_capture(world: World, drone_id: str) -> list[Detection]:
    """A copy of the drone's ``detections``: all lights and other drones'
    lit LEDs projected through its camera, tick 0 included.

    Detections are sorted by (u, v, source id); there is no occlusion test.
    Every capture of a tick projects the same source table, the lights and
    then every lit drone. The drone's own LED sits at the camera, so it is
    never detected, and neither is any source at exactly that position.
    """
    drone = world.drone(drone_id)
    if drone.spec.camera is None:
        raise CapabilityError(f"drone {drone_id!r} has no camera")
    return list(drone.detections)


_sender_id = itemgetter(1)


def _deliveries(world: World) -> list:
    """This tick's messages, one (position, id, range_m, payloads) entry
    per sender in id order; built on the tick's first read."""
    deliveries = world._deliveries
    if deliveries is None:
        deliveries = [
            ((d.x, d.y, d.z), d.spec.id, d.spec.rab.range_m, d.sent)
            for d in world.drones
            if d.sent
        ]
        # Each inbox lists its readings by sender id; taking the senders in
        # id order builds it sorted.
        deliveries.sort(key=_sender_id)
        world._deliveries = deliveries
    return deliveries


def _receive(deliveries, receiver: _Drone) -> list[RabReading]:
    """The readings of this tick's deliveries within range of ``receiver``."""
    received = []
    rx, ry, rz = receiver_position = (receiver.x, receiver.y, receiver.z)
    receiver_yaw = receiver.yaw
    receiver_id = receiver.spec.id
    for sender_position, sender_id, range_m, payloads in deliveries:
        if sender_id == receiver_id:
            continue
        if range_m > 0.0:
            dx = sender_position[0] - rx
            dy = sender_position[1] - ry
            dz = sender_position[2] - rz
            if math.sqrt(dx * dx + dy * dy + dz * dz) > range_m:
                continue
        for payload in payloads:
            received.append(make_reading(
                receiver_position, receiver_yaw, sender_position, payload, sender_id,
            ))
    return received


def _capture(world: World, drone: _Drone) -> list[Detection]:
    sources = world._sources
    if sources is None:
        sources = world._sources = world._light_sources + [
            (other.x, other.y, other.z, other.led_color, other.spec.id)
            for other in world.drones
            if other.led_on
        ]
    return detect_sources((drone.x, drone.y, drone.z), drone.yaw, drone.spec.camera, sources)


# --------------------------------------------------------------------------
# The tick pipeline

def _advance(world: World) -> None:
    scenario = world.scenario
    dt = world.dt
    tick = world.tick

    # Phase 1: scripts set commands and guidance setpoints, controllers store
    # the new motion on each drone for phase 2 (no step here reads another).
    for drone, (entries, plan, broadcast, gains, limits) in zip(world.drones, world._programs):
        if entries:
            _apply_script(entries, drone, tick)
        if plan is not None:
            _apply_waypoints(plan, drone)
        if broadcast is not None:
            drone.outbox += (broadcast,)
        drone.vx, drone.vy, drone.vz, drone.yaw_rate, drone.memory = drone_control_step(
            drone.x, drone.y, drone.z, drone.yaw, drone.vx, drone.vy, drone.vz,
            drone.yaw_rate, drone.charge, drone.memory, drone.command, drone.target,
            gains, limits, dt,
        )

    # Phase 2: kinematics (semi-implicit Euler) + arena clamp + noise hook.
    # Jitter is x, y, z per drone in registry order, grounded drones too.
    lo_x, lo_y, lo_z = scenario.arena_min
    hi_x, hi_y, hi_z = scenario.arena_max
    if world.rng is None:
        jitter = repeat(None)
    else:
        draws = iter(_gauss_batch(
            world.rng, scenario.noise_position_std, 3 * len(world.drones)))
        jitter = zip(draws, draws, draws)
    for drone, offset in zip(world.drones, jitter):
        try:
            x, y, z, drone.yaw = next_pose(drone.x, drone.y, drone.z, drone.yaw,
                                           drone.vx, drone.vy, drone.vz, drone.yaw_rate, dt)
        except ValueError as exc:  # wrap_deg of an infinite yaw
            raise _overflow(drone, tick) from exc
        if offset is not None:
            x += offset[0]
            y += offset[1]
            z += offset[2]
        # The arena clamp; a NaN coordinate fails every bound and is refused.
        drone.x = x if lo_x <= x <= hi_x else _into_arena(drone, tick, x, lo_x, hi_x)
        drone.y = y if lo_y <= y <= hi_y else _into_arena(drone, tick, y, lo_y, hi_y)
        z = z if lo_z <= z <= hi_z else _into_arena(drone, tick, z, lo_z, hi_z)
        drone.z = z if z > 0.0 else 0.0

    # Phase 3: battery discharge; depletion grounds the drone immediately.
    # charge_at is pure in (model, t): a drone on the model object and at the
    # battery time of the last evaluation takes its charge.
    last_model = last_t = last_charge = None
    for drone in world.drones:
        if not drone.depleted:
            model = drone.spec.battery
            t = drone.battery_t = drone.battery_t + dt * model.load_factor
            if model is not last_model or t != last_t:
                last_charge = model.charge_at(t)
                last_model = model
                last_t = t
            drone.charge = last_charge
            if last_charge != 0.0:
                continue
            drone.depleted = True
        drone.charge = 0.0
        drone.vx = drone.vy = drone.vz = 0.0
        drone.yaw_rate = 0.0
        drone.z = 0.0

    # Phase 4: media -- publish staged LEDs and send the queued messages,
    # which drops the sensing cached for the previous tick.
    world._deliveries = world._sources = None
    for drone in world.drones:
        drone.led_color = drone.led_staged_color
        drone.led_on = drone.led_staged_on
        drone._inbox = drone._detections = None
        drone.sent = drone.outbox
        drone.outbox = ()

    # Phase 5: sensors -- nothing to do; see _Drone.inbox and .detections.

    world.tick = tick + 1


def _into_arena(drone: _Drone, tick: int, value: float, lo: float, hi: float) -> float:
    """A coordinate outside [lo, hi] clamped to the nearer bound; NaN,
    which no bound orders, raises ConfigurationError."""
    if value < lo:
        return lo
    if value > hi:
        return hi
    raise _overflow(drone, tick)


def _overflow(drone: _Drone, tick: int) -> ConfigurationError:
    return ConfigurationError(
        f"motion is not finite at tick {tick + 1}: a controller value overflowed",
        f"[drone {drone.spec.id}]",
    )


def _gauss_batch(rng: random.Random, std: float, n: int) -> list[float]:
    """What ``n`` successive ``rng.gauss(0.0, std)`` calls return, bit for
    bit, leaving ``rng`` in the same state (``getstate()`` included).

    ``Random.gauss`` is Python code, one call per value; this is its
    algorithm (CPython 3.11) inlined: a pending ``gauss_next`` first, then
    Box-Muller pairs from ``rng.random``, the cosine value before the sine
    value, and an unused sine value kept in ``gauss_next``.
    """
    draws = []
    if n <= 0:
        return draws
    append = draws.append
    z = rng.gauss_next
    if z is not None:
        rng.gauss_next = None
        append(0.0 + z * std)
        n -= 1
    uniform = rng.random
    for _ in range(n >> 1):
        x2pi = uniform() * _TWOPI
        g2rad = _sqrt(-2.0 * _log(1.0 - uniform()))
        append(0.0 + _cos(x2pi) * g2rad * std)
        append(0.0 + _sin(x2pi) * g2rad * std)
    if n & 1:
        x2pi = uniform() * _TWOPI
        g2rad = _sqrt(-2.0 * _log(1.0 - uniform()))
        append(0.0 + _cos(x2pi) * g2rad * std)
        rng.gauss_next = _sin(x2pi) * g2rad
    return draws


def _apply_script(entries: tuple, drone: _Drone, tick: int) -> None:
    """Switch to the last of the script ``entries`` due by ``tick``, if it
    is not the current one."""
    idx = drone.script_idx
    while idx < len(entries) and entries[idx][0] <= tick:
        idx += 1
    if idx != drone.script_idx:
        drone.script_idx = idx
        _switch(drone, entries[idx - 1][1])


def _apply_waypoints(plan: WaypointPlan, drone: _Drone) -> None:
    """Advance past a reached waypoint of ``plan``, then steer at the
    current one through ``drone.target``, or park at the last."""
    idx = drone.waypoint_idx
    points = plan.points
    if idx >= len(points):
        return  # already holding the final point
    wx, wy, wz = points[idx]
    dx = wx - drone.x
    dy = wy - drone.y
    dz = wz - drone.z
    dist = _sqrt(dx * dx + dy * dy + dz * dz)
    if dist <= plan.threshold:
        idx += 1
        drone.waypoint_idx = idx
        if idx >= len(points):
            # Park: hold position at the final waypoint, keep current yaw.
            _switch(drone, Command.position((wx, wy, wz), drone.yaw))
            return
        drone.memory = EMPTY_MEMORY
        wx, wy, wz = points[idx]
        dx = wx - drone.x
        dy = wy - drone.y
        dz = wz - drone.z
        dist = _sqrt(dx * dx + dy * dy + dz * dz)
    if dist == 0.0:
        drone.target = None
    else:
        s = plan.speed / dist
        lx = dx * s
        ly = dy * s
        lz = dz * s
        if not (_isfinite(lx) and _isfinite(ly) and _isfinite(lz)):
            raise ConfigurationError(
                "the guidance velocity speed / distance is not finite",
                f"[waypoints {drone.spec.id}] speed",
            )
        drone.target = ((lx, ly, lz), 0.0)


def _switch(drone: _Drone, command: Command) -> None:
    """Fly ``command`` from now on: fresh controller memory, and a position
    target resolved to the world frame once, as it activates."""
    drone.command = command
    drone.memory = EMPTY_MEMORY
    drone.target = None
    if command.kind == POSITION:
        drone.target = resolve_position_target(drone.state(), command)
