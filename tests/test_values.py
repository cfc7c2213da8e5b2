"""The slotted value types against the frozen dataclasses they replaced.

The ``_O*`` classes below are verbatim copies of the previous dataclass
definitions (their checks call the same helpers). Each live type must build,
reject, compare, hash, print, copy and ``_replace`` like its copy.
"""

import copy
import dataclasses
import math
import pickle
from dataclasses import dataclass, field
from functools import cached_property
from typing import ClassVar, Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dronesim.battery import (
    DEFAULT_COEFFS,
    DEFAULT_T_MAX,
    FULL_CHARGE_TOL,
    BatteryModel,
    BatteryModelError,
    _check_monotone,
)
from dronesim.camera import CameraConfig
from dronesim.control import BODY, POSITION, VELOCITY, WORLD, Command, ControllerLimits, GainSet, PDGains
from dronesim.geometry import is_finite3
from dronesim.rab import RabConfig
from dronesim.scenario import (
    FORMAT_VERSION,
    DroneSpec,
    LightSpec,
    Scenario,
    WaypointPlan,
    validate_scenario,
)
from dronesim.trajectory import Trajectory, TrajectoryRow

# --------------------------------------------------------------------------
# The oracle: the dataclasses as they were.


@dataclass(frozen=True)
class _OCommand:
    kind: str
    frame: str
    linear: tuple
    angular: float

    def __post_init__(self):
        if self.kind not in (VELOCITY, POSITION):
            raise ValueError(f"unknown command kind {self.kind!r}")
        if self.frame not in (BODY, WORLD):
            raise ValueError(f"unknown command frame {self.frame!r}")
        if not is_finite3(self.linear) or not math.isfinite(self.angular):
            raise ValueError("command components must be finite")


@dataclass(frozen=True)
class _OPDGains:
    kp: float
    kd: float = 0.0

    def __post_init__(self):
        if not self.kp > 0.0:
            raise ValueError("kp must be > 0")
        if self.kd < 0.0:
            raise ValueError("kd must be >= 0")
        if not (math.isfinite(self.kp) and math.isfinite(self.kd)):
            raise ValueError("gains must be finite")


@dataclass(frozen=True)
class _OGainSet:
    velocity: _OPDGains = _OPDGains(10.0, 0.0)
    velocity_yaw: _OPDGains = _OPDGains(3.0, 0.0)
    position: _OPDGains = _OPDGains(1.0, 0.0)
    position_yaw: _OPDGains = _OPDGains(1.0, 0.0)


@dataclass(frozen=True)
class _OControllerLimits:
    max_linear_speed: float = 10.0
    max_yaw_rate: float = 90.0
    max_linear_accel: float = 5.0
    max_yaw_accel: float = 720.0

    def __post_init__(self):
        for name in (
            "max_linear_speed",
            "max_yaw_rate",
            "max_linear_accel",
            "max_yaw_accel",
        ):
            value = getattr(self, name)
            if not value > 0.0:
                raise ValueError(f"{name} must be > 0")
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite")


@dataclass(frozen=True)
class _OBatteryModel:
    coeffs: tuple = DEFAULT_COEFFS
    t_max: float = DEFAULT_T_MAX
    cutoff_charge: float = field(default=None)  # type: ignore[assignment]
    load_factor: float = 1.0

    def __post_init__(self):
        if len(self.coeffs) != 4 or not all(math.isfinite(c) for c in self.coeffs):
            raise BatteryModelError("coeffs must be four finite numbers")
        if not (math.isfinite(self.t_max) and self.t_max > 0.0):
            raise BatteryModelError("t_max must be positive and finite")
        if not (math.isfinite(self.load_factor) and self.load_factor > 0.0):
            raise BatteryModelError("load_factor must be positive")
        _check_monotone(self.coeffs, self.t_max)
        if self.cutoff_charge is None:
            object.__setattr__(self, "cutoff_charge", self.poly(self.t_max))
        elif not abs(self.poly(self.t_max) - self.cutoff_charge) <= 1e-6:
            raise BatteryModelError(
                f"cutoff_charge {self.cutoff_charge} does not match "
                f"P(t_max) = {self.poly(self.t_max)!r}"
            )
        if abs(self.poly(0.0) - 1.0) > FULL_CHARGE_TOL:
            raise BatteryModelError(
                f"P(0) = {self.poly(0.0)!r} is too far from full charge 1.0"
            )
        if self.cutoff_charge < 0.0:
            raise BatteryModelError("charge at t_max must be non-negative")

    def poly(self, t: float) -> float:
        c0, c1, c2, c3 = self.coeffs
        return c0 + t * (c1 + t * (c2 + t * c3))


@dataclass(frozen=True)
class _OCameraConfig:
    aperture_deg: float = 50.0
    mount_yaw_offset_deg: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.aperture_deg < 180.0:
            raise ValueError("aperture must be in (0, 180) degrees")
        if not math.isfinite(self.mount_yaw_offset_deg):
            raise ValueError("mount yaw offset must be finite")
        if not self.tan_half_aperture > 0.0:
            raise ValueError("aperture is too narrow: tan(aperture / 2) is 0")

    @cached_property
    def tan_half_aperture(self) -> float:
        return math.tan(math.radians(self.aperture_deg / 2.0))


@dataclass(frozen=True)
class _ORabConfig:
    range_m: float = 0.0
    payload_max: int = 16

    def __post_init__(self):
        if self.range_m < 0.0:
            raise ValueError("range must be >= 0")
        if not math.isfinite(self.range_m):
            raise ValueError("range must be finite")
        if self.payload_max < 1:
            raise ValueError("payload_max must be >= 1")


@dataclass(frozen=True)
class _OLightSpec:
    id: str
    position: tuple
    color: tuple = (255, 255, 255)


@dataclass(frozen=True)
class _OWaypointPlan:
    speed: float
    points: tuple
    threshold: float = 0.05


@dataclass(frozen=True)
class _ODroneSpec:
    id: str
    position: tuple = (0.0, 0.0, 0.0)
    yaw: float = 0.0
    charge: float = 1.0
    gains: _OGainSet = _OGainSet()
    limits: _OControllerLimits = _OControllerLimits()
    camera: Optional[_OCameraConfig] = None
    rab: _ORabConfig = _ORabConfig()
    rab_broadcast: Optional[bytes] = None
    led_color: tuple = (255, 255, 255)
    led_on: bool = False
    battery: _OBatteryModel = _OBatteryModel()


@dataclass(frozen=True)
class _OScenario:
    name: str = "scenario"
    dt: float = 0.1
    duration: int = 0
    arena_min: tuple = (-1.5, -1.5, 0.0)
    arena_max: tuple = (1.5, 1.5, 3.0)
    drones: tuple = ()
    lights: tuple = ()
    scripts: dict = field(default_factory=dict)
    waypoints: dict = field(default_factory=dict)
    noise_seed: int = 0
    noise_position_std: float = 0.0
    format_version: ClassVar[int] = FORMAT_VERSION

    def __post_init__(self):
        validate_scenario(self)


@dataclass
class _OTrajectory:
    drone_id: str
    rows: list


# live type -> oracle copy. A dataclass repr starts with the qualified name.
ORACLES = {
    Command: _OCommand, PDGains: _OPDGains, GainSet: _OGainSet,
    ControllerLimits: _OControllerLimits, BatteryModel: _OBatteryModel,
    CameraConfig: _OCameraConfig, RabConfig: _ORabConfig, LightSpec: _OLightSpec,
    WaypointPlan: _OWaypointPlan, DroneSpec: _ODroneSpec, Scenario: _OScenario,
    Trajectory: _OTrajectory,
}
for _live, _oracle in ORACLES.items():
    _oracle.__qualname__ = _live.__qualname__

# --------------------------------------------------------------------------
# Field values, valid and not, per type.

number = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 179.9, 180.0, 1e-9, 1e-323, math.inf,
                     -math.inf, math.nan]),
    st.floats(min_value=-1e3, max_value=1e3),
)
positive = st.floats(min_value=1e-3, max_value=100.0)
vec3 = st.one_of(st.tuples(number, number, number), st.just((1.0, 2.0)))
ident = st.sampled_from(["cf1", "cf2", "b", "bad id", ""])
color = st.one_of(st.just((255, 255, 255)), st.tuples(*[st.integers(-1, 256)] * 3))
pd = st.builds(PDGains, positive, st.floats(min_value=0.0, max_value=5.0))
commands = st.builds(Command.velocity, st.tuples(positive, positive, positive))
stock_battery = BatteryModel()
coeffs = st.one_of(
    st.just(DEFAULT_COEFFS),
    st.tuples(st.floats(0.96, 1.04), st.floats(-0.01, 0.001), st.just(0.0), st.just(0.0)),
    st.tuples(number, number, number, number),
    st.just((1.0, -0.003)),
)
in_arena = st.tuples(st.floats(-1.5, 1.5), st.floats(-1.5, 1.5), st.floats(0.0, 3.0))
drone_specs = st.builds(
    DroneSpec, ident, st.one_of(in_arena, vec3),
    charge=st.sampled_from([0.0, 0.5, 1.0, 1.5]),
    rab_broadcast=st.sampled_from([None, b"", b"x" * 17]),
    led_color=color,
)


@st.composite
def battery_fields(draw):
    c = draw(coeffs)
    t_max = draw(st.one_of(st.just(DEFAULT_T_MAX), positive, number))
    cutoff = None
    if draw(st.booleans()) and len(c) == 4 and all(map(math.isfinite, c)):
        cutoff = c[0] + t_max * (c[1] + t_max * (c[2] + t_max * c[3]))
        cutoff += draw(st.sampled_from([0.0, 1e-7, 1e-3]))
    return {"coeffs": c, "t_max": t_max, "cutoff_charge": cutoff,
            "load_factor": draw(st.one_of(positive, number))}


@st.composite
def scenario_fields(draw):
    drones = tuple(draw(st.lists(drone_specs, max_size=3)))
    ids = [d.id for d in drones] + ["ghost"]
    scripts = draw(st.dictionaries(
        st.sampled_from(ids), st.lists(st.tuples(st.integers(-1, 5), commands), max_size=2)
        .map(tuple), max_size=2))
    plans = st.builds(WaypointPlan, st.one_of(positive, number),
                      st.lists(vec3, max_size=2).map(tuple), st.one_of(positive, number))
    return {
        "name": draw(st.sampled_from(["s", "two words", "a.b-c_1"])),
        "dt": draw(st.one_of(st.just(0.1), number)),
        "duration": draw(st.integers(-1, 3)),
        "arena_min": draw(st.one_of(st.just((-1.5, -1.5, 0.0)), vec3)),
        "arena_max": draw(st.one_of(st.just((1.5, 1.5, 3.0)), vec3)),
        "drones": drones,
        "lights": tuple(draw(st.lists(st.builds(LightSpec, ident, vec3, color), max_size=2))),
        "scripts": scripts,
        "waypoints": draw(st.dictionaries(st.sampled_from(ids), plans, max_size=2)),
        "noise_seed": draw(st.integers(0, 3)),
        "noise_position_std": draw(st.one_of(st.just(0.0), number)),
    }


def _fixed(**strategies):
    return st.fixed_dictionaries(strategies)


FIELDS = {
    Command: _fixed(kind=st.sampled_from([VELOCITY, POSITION, "hover"]),
                    frame=st.sampled_from([BODY, WORLD, "up"]), linear=vec3, angular=number),
    PDGains: _fixed(kp=number, kd=number),
    GainSet: _fixed(velocity=pd, velocity_yaw=pd, position=pd, position_yaw=pd),
    ControllerLimits: _fixed(max_linear_speed=number, max_yaw_rate=number,
                             max_linear_accel=number, max_yaw_accel=number),
    BatteryModel: battery_fields(),
    CameraConfig: _fixed(aperture_deg=number, mount_yaw_offset_deg=number),
    RabConfig: _fixed(range_m=number, payload_max=st.integers(-1, 40)),
    LightSpec: _fixed(id=ident, position=vec3, color=color),
    WaypointPlan: _fixed(speed=number, points=st.lists(vec3, max_size=2).map(tuple),
                         threshold=number),
    DroneSpec: _fixed(
        id=ident, position=vec3, yaw=number, charge=number,
        gains=st.builds(GainSet, pd), limits=st.just(ControllerLimits(max_yaw_rate=45.0)),
        camera=st.sampled_from([None, CameraConfig(40.0)]),
        rab=st.sampled_from([RabConfig(), RabConfig(2.0, 4)]),
        rab_broadcast=st.sampled_from([None, b"hi"]), led_color=color,
        led_on=st.booleans(), battery=st.just(stock_battery)),
    Scenario: scenario_fields(),
    Trajectory: _fixed(drone_id=ident,
                       rows=st.lists(st.builds(TrajectoryRow, st.integers(0, 3),
                                               *[number] * 10), max_size=2)),
}
REQUIRED = {Command: 4, LightSpec: 2, WaypointPlan: 2, DroneSpec: 1, Trajectory: 2,
            PDGains: 1}


def outcome(build, *args, **kwargs):
    """("ok", repr) of what ``build`` returns, or ("raise", type, message)."""
    try:
        return "ok", repr(build(*args, **kwargs))
    except Exception as exc:  # compared as type and message
        return "raise", type(exc), str(exc)


def built(cls, values):
    try:
        return cls(**values)
    except Exception:
        return None


def refusal(act, obj):
    """The message of the AttributeError that ``act(obj)`` raises."""
    with pytest.raises(AttributeError) as caught:
        act(obj)
    return str(caught.value)


# --------------------------------------------------------------------------
# The tests.

TYPES = list(ORACLES)


@pytest.mark.parametrize("cls", TYPES, ids=lambda cls: cls.__name__)
def test_fields_defaults_and_slots(cls):
    oracle = ORACLES[cls]
    names = tuple(f.name for f in dataclasses.fields(oracle))
    assert cls._fields == names
    assert len(names) - len(cls._defaults) == REQUIRED.get(cls, 0)
    for f in dataclasses.fields(oracle):
        if f.name in cls._defaults:
            default = f.default_factory() if f.default is dataclasses.MISSING else f.default
            assert repr(cls._defaults[f.name]) == repr(default)
    assert cls.__dictoffset__ == 0  # slotted: instances have no __dict__
    assert not dataclasses.is_dataclass(cls)


@pytest.mark.parametrize("cls", TYPES, ids=lambda cls: cls.__name__)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_matches_dataclass_oracle(cls, data):
    oracle = ORACLES[cls]
    values = data.draw(FIELDS[cls], label="values")
    names = cls._fields
    positional = [values[name] for name in names]
    required = {name: values[name] for name in names[:REQUIRED.get(cls, 0)]}

    # Construction, positional, by keyword and from the defaults.
    assert outcome(cls, *positional) == outcome(oracle, *positional)
    assert outcome(cls, **values) == outcome(oracle, **values)
    assert outcome(cls, **required) == outcome(oracle, **required)
    for bad_args, bad_kwargs in (
        (positional + [None], {}),
        ((), {**values, "extra": 1}),
        (positional[:1], {names[0]: positional[0]}),
    ):
        assert outcome(cls, *bad_args, **bad_kwargs)[:2] == ("raise", TypeError)
    if REQUIRED.get(cls):
        assert outcome(cls)[:2] == ("raise", TypeError)

    live, old = built(cls, values), built(oracle, values)
    assert (live is None) == (old is None)
    if live is None:
        return
    for name in names:
        assert getattr(live, name) is getattr(old, name) or (
            repr(getattr(live, name)) == repr(getattr(old, name)))

    # _replace against dataclasses.replace, valid or not.
    other_values = data.draw(FIELDS[cls], label="other")
    changed = data.draw(st.lists(st.sampled_from(names), unique=True), label="changed")
    changes = {name: other_values[name] for name in changed}
    assert outcome(live._replace, **changes) == outcome(dataclasses.replace, old, **changes)

    # Equality, inequality and hashing.
    other_live, other_old = built(cls, other_values), built(oracle, other_values)
    for a, b, c, d in ((live, old, live._replace(), dataclasses.replace(old)),
                       (live, old, other_live, other_old)):
        if c is None:
            continue
        assert (a == c) == (b == d)
        assert (a != c) == (b != d)
    assert (live == old) is False and (live != old) is True
    others = [value for value in (PDGains(1.0), RabConfig()) if type(value) is not cls]
    for stranger in (tuple(positional), None, values, *others):
        assert (live == stranger) is (old == stranger) is False
        assert (live != stranger) is (old != stranger) is True
    assert outcome(hash, live)[:2] == outcome(hash, old)[:2]
    if outcome(hash, old)[0] == "ok":
        assert hash(live) == hash(old)

    # Copies compare equal as the oracle's do (not always, with NaN fields).
    for clone in (copy.copy, copy.deepcopy):
        assert type(clone(live)) is cls and repr(clone(live)) == repr(live)
        assert (clone(live) == live) == (clone(old) == old)
    # The oracle cannot be pickled under its borrowed name.
    pickled = pickle.loads(pickle.dumps(live))
    assert type(pickled) is cls and repr(pickled) == repr(live)

    # Assignment and deletion: the frozen types refuse as the oracle does.
    if cls is not Trajectory:
        for act in (lambda obj: setattr(obj, names[0], None),
                    lambda obj: delattr(obj, names[0]),
                    lambda obj: setattr(obj, "unknown", None)):
            assert refusal(act, live) == refusal(act, old)
        assert repr(live) == repr(old)

    if cls is CameraConfig:
        assert live.tan_half_aperture.hex() == old.tan_half_aperture.hex()


def test_trajectory_is_mutable_and_unhashable():
    traj = Trajectory("cf1", [])
    traj.rows.append(TrajectoryRow(0, *[0.0] * 10))
    traj.drone_id = "cf2"
    assert traj == Trajectory("cf2", [TrajectoryRow(0, *[0.0] * 10)])
    with pytest.raises(TypeError):
        hash(traj)
    with pytest.raises(AttributeError):
        traj.extra = 1  # slotted: no attributes beyond the fields


def test_dict_defaults_are_not_shared():
    first, second = Scenario(), Scenario()
    assert first.scripts == {} and first.scripts is not second.scripts
    assert first.waypoints == {} and first.waypoints is not second.waypoints


@settings(max_examples=300, deadline=None)
@given(st.tuples(*[st.floats(allow_nan=False, allow_infinity=False)] * 3))
def test_guidance_command_matches_validated_command(linear):
    from dronesim.control import _world_velocity

    direct = _world_velocity(linear)
    checked = Command(VELOCITY, WORLD, linear, 0.0)
    assert type(direct) is Command
    assert direct == checked and hash(direct) == hash(checked)
    assert repr(direct) == repr(checked)
    assert direct.linear is linear
    for name in Command._fields:
        with pytest.raises(AttributeError):
            setattr(direct, name, None)
    with pytest.raises(AttributeError):
        direct.extra = 1
