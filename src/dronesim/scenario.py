"""Scenario documents: parsing, validation, and rendering.

A scenario is an INI-style plain-text document (see docs/scenario_format.md
for the full grammar) with a ``[scenario]`` section for world-level settings
and one section per drone, light, command script, or waypoint plan. All
settings have defaults matching the stock drone: dt 0.1 s, a 3x3x3 m arena,
10 m/s speed limit, 90 deg/s yaw rate limit, and the stock battery curve.

``load_scenario(render_scenario(s))`` reproduces ``s`` exactly (structural
equality), which the test suite checks over randomized scenarios.
"""

from __future__ import annotations

import configparser
import math
import re
from dataclasses import dataclass, field, replace
from operator import attrgetter
from types import SimpleNamespace
from typing import Any, Callable, ClassVar, NamedTuple, Optional

from .battery import BatteryModel
from .camera import CameraConfig
from .control import BODY, WORLD, Command, ControllerLimits, GainSet
from .geometry import Vec3, is_finite3
from .rab import RabConfig

FORMAT_VERSION = 1


class ScenarioError(ValueError):
    """Malformed or invalid scenario document.

    ``location`` is a field path such as ``[drone cf1] charge`` or a line
    number for syntax errors.
    """

    def __init__(self, message: str, location: str = ""):
        self.location = location
        super().__init__(f"{location}: {message}" if location else message)


@dataclass(frozen=True)
class LightSpec:
    id: str
    position: Vec3
    color: tuple[int, int, int] = (255, 255, 255)


@dataclass(frozen=True)
class WaypointPlan:
    """Fly through ``points`` at constant ``speed``, advancing when within
    ``threshold`` metres; hold position at the final point."""

    speed: float
    points: tuple[Vec3, ...]
    threshold: float = 0.05


@dataclass(frozen=True)
class DroneSpec:
    id: str
    position: Vec3 = (0.0, 0.0, 0.0)
    yaw: float = 0.0
    charge: float = 1.0
    gains: GainSet = GainSet()
    limits: ControllerLimits = ControllerLimits()
    camera: Optional[CameraConfig] = None
    rab: RabConfig = RabConfig()
    rab_broadcast: Optional[bytes] = None
    led_color: tuple[int, int, int] = (255, 255, 255)
    led_on: bool = False
    battery: BatteryModel = BatteryModel()


@dataclass(frozen=True)
class Scenario:
    name: str = "scenario"
    dt: float = 0.1
    duration: int = 0
    arena_min: Vec3 = (-1.5, -1.5, 0.0)
    arena_max: Vec3 = (1.5, 1.5, 3.0)
    drones: tuple[DroneSpec, ...] = ()
    lights: tuple[LightSpec, ...] = ()
    scripts: dict[str, tuple[tuple[int, Command], ...]] = field(default_factory=dict)
    waypoints: dict[str, WaypointPlan] = field(default_factory=dict)
    noise_seed: int = 0
    noise_position_std: float = 0.0
    # The document format this scenario renders to; not a field.
    format_version: ClassVar[int] = FORMAT_VERSION

    def __post_init__(self):
        validate_scenario(self)


_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]*$")


def validate_scenario(s: Scenario) -> None:
    if not _NAME_RE.match(s.name):
        raise ScenarioError(
            "name must be alphanumeric with . _ - only", "[scenario] name"
        )
    if s.dt <= 0.0 or not math.isfinite(s.dt):
        raise ScenarioError("dt must be > 0", "[scenario] dt")
    if s.duration < 0:
        raise ScenarioError("duration must be >= 0", "[scenario] duration")
    if not (is_finite3(s.arena_min) and is_finite3(s.arena_max)):
        raise ScenarioError("arena bounds must be finite", "[scenario] arena")
    for axis in range(3):
        if s.arena_min[axis] >= s.arena_max[axis]:
            raise ScenarioError(
                "arena_min must be strictly below arena_max on every axis",
                "[scenario] arena",
            )
    if s.noise_position_std < 0.0:
        raise ScenarioError("noise std must be >= 0", "[scenario] noise_position_std")
    if not math.isfinite(s.noise_position_std):
        raise ScenarioError("noise std must be finite", "[scenario] noise_position_std")
    ids = [d.id for d in s.drones]
    if len(set(ids)) != len(ids):
        raise ScenarioError("duplicate drone id", "[scenario] drones")
    known = set(ids)
    for d in s.drones:
        loc = f"[drone {d.id}]"
        if not _NAME_RE.match(d.id):
            raise ScenarioError("bad drone id", f"{loc} id")
        if not is_finite3(d.position):
            raise ScenarioError("position must be finite", f"{loc} position")
        if not math.isfinite(d.yaw):
            raise ScenarioError("yaw must be finite", f"{loc} yaw")
        if not 0.0 <= d.charge <= 1.0:
            raise ScenarioError("charge must be in [0, 1]", f"{loc} charge")
        if d.rab_broadcast is not None and len(d.rab_broadcast) > d.rab.payload_max:
            raise ScenarioError(
                f"broadcast payload exceeds payload_max {d.rab.payload_max}",
                f"{loc} rab_broadcast",
            )
        _check_color(d.led_color, f"{loc} led_color")
    for light in s.lights:
        loc = f"[light {light.id}]"
        if not _NAME_RE.match(light.id):
            raise ScenarioError("bad light id", f"{loc} id")
        if not is_finite3(light.position):
            raise ScenarioError("position must be finite", f"{loc} position")
        _check_color(light.color, f"{loc} color")
    light_ids = [l.id for l in s.lights]
    if len(set(light_ids)) != len(light_ids):
        raise ScenarioError("duplicate light id", "[scenario] lights")
    for drone_id, entries in s.scripts.items():
        loc = f"[script {drone_id}]"
        if drone_id not in known:
            raise ScenarioError(f"unknown drone {drone_id!r}", loc)
        prev = -1
        for tick, cmd in entries:
            if tick < 0:
                raise ScenarioError("script ticks must be >= 0", loc)
            if tick < prev:
                raise ScenarioError("script ticks must be non-decreasing", loc)
            prev = tick
            if not isinstance(cmd, Command):
                raise ScenarioError("script entries must hold commands", loc)
    for drone_id, plan in s.waypoints.items():
        loc = f"[waypoints {drone_id}]"
        if drone_id not in known:
            raise ScenarioError(f"unknown drone {drone_id!r}", loc)
        if drone_id in s.scripts:
            raise ScenarioError(
                "a drone cannot have both a script and a waypoint plan", loc
            )
        for name in ("speed", "threshold"):
            value = getattr(plan, name)
            if not value > 0.0:
                raise ScenarioError(f"{name} must be > 0", f"{loc} {name}")
            if not math.isfinite(value):
                raise ScenarioError(f"{name} must be finite", f"{loc} {name}")
        if not plan.points:
            raise ScenarioError("at least one waypoint required", f"{loc} points")
        for p in plan.points:
            if not is_finite3(p):
                raise ScenarioError("waypoints must be finite", f"{loc} points")


def _check_color(color, location):
    if len(color) != 3 or not all(
        isinstance(ch, int) and 0 <= ch <= 255 for ch in color
    ):
        raise ScenarioError("color must be three integers in [0, 255]", location)


# --------------------------------------------------------------------------
# The field table. One row per key drives parsing, rendering, the rejection
# of unknown keys and the check for required ones.


class _Codec(NamedTuple):
    """Text conversion for one kind of value; ``parse`` raises ValueError
    with the message reported at the key."""

    parse: Callable[[str], Any]
    render: Callable[[Any], str]
    block: bool = False  # a multi-line value, converted one indented line at a time


def _checked(convert, failure: str):
    """A parser that reports a failed conversion as ``failure`` of the text."""
    def parse(text: str):
        try:
            return convert(text)
        except ValueError:
            raise ValueError(failure.format(text)) from None
    return parse


def _parse_numbers(text: str, count: int, wrong_count: str, convert=float) -> tuple:
    parts = text.split()
    if len(parts) != count:
        raise ValueError(wrong_count)
    try:
        return tuple(convert(p) for p in parts)
    except ValueError:
        noun = "an integer" if convert is int else "a number"
        raise ValueError(f"not {noun} in {text!r}") from None


def _parse_version(text: str) -> int:
    version = _INT.parse(text)
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported format_version {version}")
    return version


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "on", "yes", "1"):
        return True
    if lowered in ("false", "off", "no", "0"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _parse_command(line: str) -> tuple[int, Command]:
    parts = line.split()
    if len(parts) != 7:
        raise ValueError(f"expected 'tick kind frame x y z angular', got {line!r}")
    try:
        tick = int(parts[0])
        linear = (float(parts[3]), float(parts[4]), float(parts[5]))
        angular = float(parts[6])
    except ValueError:
        raise ValueError(f"bad number in {line!r}") from None
    if parts[2] not in (BODY, WORLD):
        raise ValueError(f"unknown frame {parts[2]!r}")
    return tick, Command(parts[1], parts[2], linear, angular)


def _render_floats(values) -> str:
    return " ".join(repr(v) for v in values)


def _render_command(entry: tuple[int, Command]) -> str:
    tick, cmd = entry
    return f"{tick} {cmd.kind} {cmd.frame} {_render_floats(cmd.linear)} {cmd.angular!r}"


_STR = _Codec(str.strip, str)
_INT = _Codec(_checked(int, "not an integer: {!r}"), str)
_FLOAT = _Codec(_checked(float, "not a number: {!r}"), repr)
_VERSION = _Codec(_parse_version, str)
_VEC3 = _Codec(lambda text: _parse_numbers(text, 3, "expected three numbers"), _render_floats)
_FOUR_FLOATS = _Codec(lambda text: _parse_numbers(text, 4, "expected 4 numbers"), _render_floats)
# Channel ranges are checked by validate_scenario.
_COLOR = _Codec(lambda text: _parse_numbers(text, 3, "expected three integers", int),
                lambda color: " ".join(str(ch) for ch in color))
_BOOL = _Codec(_parse_bool, lambda on: "true" if on else "false")
_SWITCH = _Codec(_parse_bool, lambda _: "on")  # rendered only while the object exists
_HEX = _Codec(_checked(lambda text: bytes.fromhex(text.replace(" ", "")), "not hex bytes: {!r}"),
              bytes.hex)
_POINTS = _Codec(
    lambda line: _parse_numbers(line, 3, f"expected three numbers per point, got {line!r}"),
    _render_floats, block=True)
_COMMANDS = _Codec(_parse_command, _render_command, block=True)

# When a key is written: only away from its default, always, or always and
# it must be present when read.
_OPTIONAL, _ALWAYS, _REQUIRED = range(3)


class _Field(NamedTuple):
    key: str
    codec: _Codec
    group: Optional[str]  # None: an attribute of the spec; else a key of _GROUPS
    attr: str
    presence: int = _OPTIONAL


# Objects that several drone keys fill in, by attribute path from the spec:
# (stock instance that unset keys keep, error location; None: the first key).
_GROUPS = {
    "gains.velocity": (DroneSpec.gains.velocity, None),
    "gains.velocity_yaw": (DroneSpec.gains.velocity_yaw, None),
    "gains.position": (DroneSpec.gains.position, None),
    "gains.position_yaw": (DroneSpec.gains.position_yaw, None),
    "limits": (DroneSpec.limits, "limits"),
    "camera": (CameraConfig(), None),
    "rab": (DroneSpec.rab, "rab"),
    "battery": (DroneSpec.battery, "battery"),
}

_SCENARIO_FIELDS = (
    _Field("format_version", _VERSION, None, "format_version", _ALWAYS),
    _Field("name", _STR, None, "name", _ALWAYS),
    _Field("dt", _FLOAT, None, "dt", _ALWAYS),
    _Field("duration", _INT, None, "duration", _ALWAYS),
    _Field("arena_min", _VEC3, None, "arena_min", _ALWAYS),
    _Field("arena_max", _VEC3, None, "arena_max", _ALWAYS),
    _Field("noise_seed", _INT, None, "noise_seed"),
    _Field("noise_position_std", _FLOAT, None, "noise_position_std"),
)
# The named sections, ``[kind ident]``.
_SECTIONS = {
    "drone": (
        _Field("position", _VEC3, None, "position", _ALWAYS),
        _Field("yaw", _FLOAT, None, "yaw", _ALWAYS),
        _Field("charge", _FLOAT, None, "charge", _ALWAYS),
        _Field("kp_vel", _FLOAT, "gains.velocity", "kp"),
        _Field("kd_vel", _FLOAT, "gains.velocity", "kd"),
        _Field("kp_vel_yaw", _FLOAT, "gains.velocity_yaw", "kp"),
        _Field("kd_vel_yaw", _FLOAT, "gains.velocity_yaw", "kd"),
        _Field("kp_pos", _FLOAT, "gains.position", "kp"),
        _Field("kd_pos", _FLOAT, "gains.position", "kd"),
        _Field("kp_pos_yaw", _FLOAT, "gains.position_yaw", "kp"),
        _Field("kd_pos_yaw", _FLOAT, "gains.position_yaw", "kd"),
        _Field("max_speed", _FLOAT, "limits", "max_linear_speed"),
        _Field("max_yaw_rate", _FLOAT, "limits", "max_yaw_rate"),
        _Field("max_accel", _FLOAT, "limits", "max_linear_accel"),
        _Field("max_yaw_accel", _FLOAT, "limits", "max_yaw_accel"),
        _Field("camera", _SWITCH, None, "camera"),
        _Field("camera_aperture", _FLOAT, "camera", "aperture_deg"),
        _Field("camera_yaw_offset", _FLOAT, "camera", "mount_yaw_offset_deg"),
        _Field("rab_range", _FLOAT, "rab", "range_m"),
        _Field("rab_payload_max", _INT, "rab", "payload_max"),
        _Field("rab_broadcast", _HEX, None, "rab_broadcast"),
        _Field("led_color", _COLOR, None, "led_color"),
        _Field("led_on", _BOOL, None, "led_on"),
        _Field("battery_coeffs", _FOUR_FLOATS, "battery", "coeffs"),
        _Field("battery_tmax", _FLOAT, "battery", "t_max"),
        _Field("battery_cutoff", _FLOAT, "battery", "cutoff_charge"),
        _Field("battery_load_factor", _FLOAT, "battery", "load_factor"),
    ),
    "light": (
        _Field("position", _VEC3, None, "position", _REQUIRED),
        _Field("color", _COLOR, None, "color", _ALWAYS),
    ),
    "script": (
        _Field("commands", _COMMANDS, None, "commands", _REQUIRED),
    ),
    "waypoints": (
        _Field("speed", _FLOAT, None, "speed", _REQUIRED),
        _Field("threshold", _FLOAT, None, "threshold", _ALWAYS),
        _Field("points", _POINTS, None, "points", _REQUIRED),
    ),
}


# --------------------------------------------------------------------------
# Parsing

def load_scenario(text: str) -> Scenario:
    """Parse and validate a scenario document."""
    parser = configparser.ConfigParser(
        interpolation=None, strict=True, delimiters=("=",)
    )
    parser.optionxform = str
    try:
        parser.read_string(text)
    except configparser.MissingSectionHeaderError as exc:
        raise ScenarioError(f"syntax error: {exc.message.splitlines()[0]}",
                            f"line {exc.lineno}") from exc
    except configparser.ParsingError as exc:
        lineno = exc.errors[0][0] if getattr(exc, "errors", None) else "?"
        raise ScenarioError("syntax error", f"line {lineno}") from exc
    except configparser.DuplicateSectionError as exc:
        raise ScenarioError(f"duplicate section [{exc.section}]",
                            f"line {exc.lineno}") from exc
    except configparser.DuplicateOptionError as exc:
        raise ScenarioError(f"duplicate key {exc.option!r}",
                            f"line {exc.lineno}") from exc
    except configparser.Error as exc:
        raise ScenarioError(f"syntax error: {exc}") from exc

    if not parser.has_section("scenario"):
        raise ScenarioError("missing [scenario] section", "[scenario]")
    raw = dict(parser.items("scenario"))
    world = _read_section("[scenario]", raw, _SCENARIO_FIELDS).pop(None, {})
    world.pop("format_version", None)  # its codec has checked it

    drones: list[DroneSpec] = []
    lights: list[LightSpec] = []
    scripts: dict[str, tuple] = {}
    waypoints: dict[str, WaypointPlan] = {}
    for section in parser.sections():
        if section == "scenario":
            continue
        kind, _, ident = section.partition(" ")
        ident = ident.strip()
        location = f"[{section}]"
        if not ident:
            raise ScenarioError(f"section [{section}] needs a name", location)
        if kind not in _SECTIONS:
            raise ScenarioError(f"unknown section kind {kind!r}", location)
        values = _read_section(location, dict(parser.items(section)), _SECTIONS[kind])
        spec = values.pop(None, {})
        if kind == "drone":
            drones.append(_build_drone(location, ident, spec, values))
        elif kind == "light":
            lights.append(LightSpec(id=ident, **spec))
        elif kind == "script":
            scripts[ident] = spec["commands"]
        else:
            waypoints[ident] = WaypointPlan(**spec)

    return Scenario(drones=tuple(drones), lights=tuple(lights), scripts=scripts,
                    waypoints=waypoints, **world)


def load_scenario_file(path) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:
        return load_scenario(fh.read())


def _read_section(location: str, raw: dict, fields) -> dict:
    """Parse one section by its field table into {group: {attribute: value}}."""
    values: dict = {}
    for f in fields:
        text = raw.get(f.key)
        if text is None:
            if f.presence == _REQUIRED:
                raise ScenarioError("missing required key", f"{location} {f.key}")
            continue
        try:
            if f.codec.block:
                lines = (line.strip() for line in text.splitlines())
                value = tuple(f.codec.parse(line) for line in lines if line)
            else:
                value = f.codec.parse(text)
        except ValueError as exc:
            raise ScenarioError(str(exc), f"{location} {f.key}") from exc
        values.setdefault(f.group, {})[f.attr] = value
    unknown = sorted(set(raw).difference(f.key for f in fields))
    if unknown:
        raise ScenarioError("unknown key", f"{location} {unknown[0]}")
    return values


def _build_drone(location: str, ident: str, spec: dict, groups: dict) -> DroneSpec:
    """A drone spec; a group with no key set keeps the dataclass default."""
    if spec.pop("camera", False):
        groups.setdefault("camera", {})
    elif "camera" in groups:
        raise ScenarioError("camera keys set but camera is off", f"{location} camera")
    for group, values in groups.items():
        stock, where = _GROUPS[group]
        if group == "battery":
            # An unset cutoff is derived from the curve, not kept from the stock.
            values.setdefault("cutoff_charge", None)
        try:
            built = replace(stock, **values)
        except ValueError as exc:
            where = where or next(f.key for f in _SECTIONS["drone"] if f.group == group)
            raise ScenarioError(str(exc), f"{location} {where}") from exc
        holder, _, loop = group.partition(".")
        if loop:
            built = replace(spec.get(holder, DroneSpec.gains), **{loop: built})
        spec[holder] = built
    return DroneSpec(id=ident, **spec)


# --------------------------------------------------------------------------
# Rendering

def render_scenario(s: Scenario) -> str:
    """Serialize a scenario so that load_scenario reproduces it exactly."""
    sections = [_render_section("scenario", _SCENARIO_FIELDS, s)]
    for kind, specs in (
        ("drone", [(d.id, d) for d in s.drones]),
        ("light", [(light.id, light) for light in s.lights]),
        ("script", [(i, SimpleNamespace(commands=e)) for i, e in s.scripts.items()]),
        ("waypoints", s.waypoints.items()),
    ):
        for ident, spec in specs:
            sections.append(_render_section(f"{kind} {ident}", _SECTIONS[kind], spec))
    return "\n".join(sections)


def _render_section(header: str, fields, spec) -> str:
    lines = [f"[{header}]"]
    for f in fields:
        holder = attrgetter(f.group)(spec) if f.group else spec
        if holder is None:  # no camera
            continue
        value = getattr(holder, f.attr)
        if f.presence == _OPTIONAL and value == _default(f, holder):
            continue
        if f.codec.block:
            lines.append(f"{f.key} =")
            lines.extend(f"    {f.codec.render(item)}" for item in value)
        else:
            lines.append(f"{f.key} = {f.codec.render(value)}")
    return "\n".join(lines) + "\n"


def _default(f: _Field, holder):
    if f.group is None:
        return getattr(type(holder), f.attr)  # the dataclass default
    if f.attr == "cutoff_charge":
        return holder.poly(holder.t_max)  # derived from the curve, not stored
    return getattr(_GROUPS[f.group][0], f.attr)
