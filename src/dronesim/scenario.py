"""Scenario documents: parsing, validation, and rendering.

A scenario is an INI-style plain-text document (see docs/scenario_format.md
for the full grammar) with a ``[scenario]`` section for world-level settings
and one section per drone, light, command script, or waypoint plan. All
settings have defaults matching the stock drone: dt 0.1 s, a 3x3x3 m arena,
10 m/s speed limit, 90 deg/s yaw rate limit, and the stock battery curve.

``load_scenario(render_scenario(s))`` reproduces ``s`` exactly (structural
equality) or ``render_scenario`` raises ``ScenarioError`` at the key whose
value would not read back equal; the test suite checks this over randomized
scenarios.
"""

from __future__ import annotations

import math
import re
from collections.abc import Sequence
from operator import attrgetter, index
from types import SimpleNamespace
from typing import Any, Callable, NamedTuple, Optional

from ._value import Value
from .battery import STOCK_MODEL, BatteryModel
from .camera import CameraConfig
from .control import BODY, WORLD, Command, ControllerLimits, GainSet
from .geometry import is_finite3
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


class ConfigurationError(ScenarioError):
    """A scenario that cannot be simulated: a drone starts outside the
    arena, or a waypoint speed overflows its guidance velocity."""


class LightSpec(Value):
    """A static light: its id, position and RGB colour."""

    __slots__ = ("id", "position", "color")
    _defaults = {"color": (255, 255, 255)}


class WaypointPlan(Value):
    """Fly through ``points`` at constant ``speed``, advancing when within
    ``threshold`` metres; hold position at the final point."""

    __slots__ = ("speed", "points", "threshold")
    _defaults = {"threshold": 0.05}


class DroneSpec(Value):
    """One drone's start pose and charge, controller, sensors, LED and battery."""

    __slots__ = ("id", "position", "yaw", "charge", "gains", "limits", "camera",
                 "rab", "rab_broadcast", "led_color", "led_on", "battery")
    _defaults = {
        "position": (0.0, 0.0, 0.0),
        "yaw": 0.0,
        "charge": 1.0,
        "gains": GainSet(),
        "limits": ControllerLimits(),
        "camera": None,
        "rab": RabConfig(),
        "rab_broadcast": None,
        "led_color": (255, 255, 255),
        "led_on": False,
        "battery": STOCK_MODEL,
    }


class Scenario(Value):
    """World settings, the drones and lights, and per-drone scripts
    (``(tick, Command)`` entries) or waypoint plans, keyed by drone id."""

    __slots__ = ("name", "dt", "duration", "arena_min", "arena_max", "drones",
                 "lights", "scripts", "waypoints", "noise_seed", "noise_position_std")
    _defaults = {
        "name": "scenario",
        "dt": 0.1,
        "duration": 0,
        "arena_min": (-1.5, -1.5, 0.0),
        "arena_max": (1.5, 1.5, 3.0),
        "drones": (),
        "lights": (),
        "scripts": {},
        "waypoints": {},
        "noise_seed": 0,
        "noise_position_std": 0.0,
    }
    # The document format this scenario renders to; not a field.
    format_version = FORMAT_VERSION

    def _validate(self):
        validate_scenario(self)


# Matched whole: a "$" anchor would also admit a name ending in a newline.
_NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9._-]*")


def validate_scenario(s: Scenario) -> None:
    """Apply every checked row of the field table at its ``[section] key``,
    section by section in the order ``render_scenario`` writes them, then
    the rules that relate several rows. A check that raises TypeError or
    ValueError (a value of the wrong type) fails."""
    for kind, header, spec in _sections(s):
        for key, attr, checks in _CHECKED[kind]:
            value = getattr(spec, attr)
            for holds, message in checks:
                try:
                    if holds(value):
                        continue
                except (TypeError, ValueError):
                    pass
                raise ScenarioError(message, f"[{header}] {key}")

    if any(lo >= hi for lo, hi in zip(s.arena_min, s.arena_max)):
        raise ScenarioError("arena_min must be strictly below arena_max on every axis",
                            "[scenario] arena")
    ids = [d.id for d in s.drones]
    if len(set(ids)) != len(ids):
        raise ScenarioError("duplicate drone id", "[scenario] drones")
    (lo_x, lo_y, lo_z), (hi_x, hi_y, hi_z) = s.arena_min, s.arena_max
    for d in s.drones:
        x, y, z = d.position
        if not (lo_x <= x <= hi_x and lo_y <= y <= hi_y and lo_z <= z <= hi_z):
            raise ConfigurationError("initial position outside arena",
                                     f"[drone {d.id}] position")
        if d.rab_broadcast is not None and len(d.rab_broadcast) > d.rab.payload_max:
            raise ScenarioError(
                f"broadcast payload exceeds payload_max {d.rab.payload_max}",
                f"[drone {d.id}] rab_broadcast",
            )
    light_ids = [l.id for l in s.lights]
    if len(set(light_ids)) != len(light_ids):
        raise ScenarioError("duplicate light id", "[scenario] lights")
    known = set(ids)
    for drone_id, entries in s.scripts.items():
        loc = f"[script {drone_id}]"
        if drone_id not in known:
            raise ScenarioError(f"unknown drone {drone_id!r}", loc)
        prev = -1
        for entry in entries:
            if not (isinstance(entry, (tuple, list)) and len(entry) == 2):
                raise ScenarioError("script entries must be (tick, command) pairs", loc)
            tick, cmd = entry
            try:
                error = ("script ticks must be >= 0" if tick < 0 else
                         "script ticks must be non-decreasing" if tick < prev else None)
            # A tick that does not compare with 0 or the last, or whose
            # comparison has no truth value (an array of several numbers).
            except (TypeError, ValueError):
                raise ScenarioError(f"script tick {tick!r} cannot be ordered", loc) from None
            if error:
                raise ScenarioError(error, loc)
            prev = tick
            if not isinstance(cmd, Command):
                raise ScenarioError("script entries must hold commands", loc)
    for drone_id in s.waypoints:
        loc = f"[waypoints {drone_id}]"
        if drone_id not in known:
            raise ScenarioError(f"unknown drone {drone_id!r}", loc)
        if drone_id in s.scripts:
            raise ScenarioError("a drone cannot have both a script and a waypoint plan", loc)


def is_color(color) -> bool:
    """Whether ``color`` is a sequence of three integer channels in
    [0, 255]; a bool is not a channel, since it would render as ``True`` or
    ``False``."""
    return isinstance(color, Sequence) and len(color) == 3 and all(
        isinstance(ch, int) and not isinstance(ch, bool) and 0 <= ch <= 255
        for ch in color
    )


_BAD_COLOR = "color must be three integers in [0, 255]"


# --------------------------------------------------------------------------
# The field table. One row per key drives parsing, rendering, validation,
# the rejection of unknown keys and the check for required ones.


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
        return tuple(map(convert, parts))
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


def _render_int(value) -> str:
    if value.__class__ is bool:
        raise ValueError("a bool is not a number")
    try:
        return str(index(value))
    except TypeError:
        raise ValueError(f"not an integer: {value!r}") from None


def _render_float(value) -> str:
    """An int as itself, any other number as the float it equals. A value
    that no float equals is refused: it would load as a different number."""
    if value.__class__ is bool:
        raise ValueError("a bool is not a number")
    try:
        number = float(value)
    except (TypeError, ValueError, OverflowError):
        number = math.nan
    if number != value:
        raise ValueError(f"not a number: {value!r}")
    return str(value) if value.__class__ is int else repr(number)


def _render_floats(values) -> str:
    return " ".join(map(_render_float, values))


def _render_command(entry: tuple[int, Command]) -> str:
    tick, cmd = entry
    return (f"{_render_int(tick)} {cmd.kind} {cmd.frame} {_render_floats(cmd.linear)} "
            f"{_render_float(cmd.angular)}")


_STR = _Codec(str.strip, str)
_INT = _Codec(_checked(int, "not an integer: {!r}"), _render_int)
_FLOAT = _Codec(_checked(float, "not a number: {!r}"), _render_float)
_VERSION = _Codec(_parse_version, str)
_VEC3 = _Codec(lambda text: _parse_numbers(text, 3, "expected three numbers"), _render_floats)
_FOUR_FLOATS = _Codec(lambda text: _parse_numbers(text, 4, "expected 4 numbers"),
                      _render_floats)
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
    # (holds, message) pairs that validate_scenario applies to the value.
    checks: tuple = ()


# Objects that several drone keys fill in, by attribute path from the spec:
# (stock instance that unset keys keep, error location; None: the first key).
_STOCK = DroneSpec._defaults
_GROUPS = {
    "gains.velocity": (_STOCK["gains"].velocity, None),
    "gains.velocity_yaw": (_STOCK["gains"].velocity_yaw, None),
    "gains.position": (_STOCK["gains"].position, None),
    "gains.position_yaw": (_STOCK["gains"].position_yaw, None),
    "limits": (_STOCK["limits"], "limits"),
    "camera": (CameraConfig(), None),
    "rab": (_STOCK["rab"], "rab"),
    "battery": (_STOCK["battery"], "battery"),
}

_POSITION_CHECKS = ((is_finite3, "position must be finite"),)
_ARENA_CHECKS = ((is_finite3, "arena bounds must be finite"),)
_COLOR_CHECKS = ((is_color, _BAD_COLOR),)


def _positive(name: str) -> tuple:
    return (lambda v: v > 0.0, f"{name} must be > 0"), (math.isfinite, f"{name} must be finite")


_SCENARIO_FIELDS = (
    _Field("format_version", _VERSION, None, "format_version", _ALWAYS),
    _Field("name", _STR, None, "name", _ALWAYS,
           ((_NAME_RE.fullmatch, "name must be alphanumeric with . _ - only"),)),
    _Field("dt", _FLOAT, None, "dt", _ALWAYS,
           ((lambda v: v > 0.0 and math.isfinite(v), "dt must be > 0"),)),
    _Field("duration", _INT, None, "duration", _ALWAYS,
           ((lambda v: not v < 0, "duration must be >= 0"),)),
    _Field("arena_min", _VEC3, None, "arena_min", _ALWAYS, _ARENA_CHECKS),
    _Field("arena_max", _VEC3, None, "arena_max", _ALWAYS, _ARENA_CHECKS),
    # random.Random(None) would seed from the OS.
    _Field("noise_seed", _INT, None, "noise_seed", _OPTIONAL,
           ((lambda v: v is not None, "noise seed must not be None"),)),
    _Field("noise_position_std", _FLOAT, None, "noise_position_std", _OPTIONAL,
           ((lambda v: not v < 0.0, "noise std must be >= 0"),
            (math.isfinite, "noise std must be finite"))),
)
# The named sections, ``[kind ident]``.
_SECTIONS = {
    "drone": (
        _Field("position", _VEC3, None, "position", _ALWAYS, _POSITION_CHECKS),
        _Field("yaw", _FLOAT, None, "yaw", _ALWAYS, ((math.isfinite, "yaw must be finite"),)),
        _Field("charge", _FLOAT, None, "charge", _ALWAYS,
               ((lambda v: 0.0 <= v <= 1.0, "charge must be in [0, 1]"),)),
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
        _Field("rab_broadcast", _HEX, None, "rab_broadcast", _OPTIONAL,
               ((lambda v: v is None or isinstance(v, bytes), "broadcast must be bytes"),)),
        _Field("led_color", _COLOR, None, "led_color", _OPTIONAL, _COLOR_CHECKS),
        _Field("led_on", _BOOL, None, "led_on"),
        _Field("battery_coeffs", _FOUR_FLOATS, "battery", "coeffs"),
        _Field("battery_tmax", _FLOAT, "battery", "t_max"),
        _Field("battery_cutoff", _FLOAT, "battery", "cutoff_charge"),
        _Field("battery_load_factor", _FLOAT, "battery", "load_factor"),
    ),
    "light": (
        _Field("position", _VEC3, None, "position", _REQUIRED, _POSITION_CHECKS),
        _Field("color", _COLOR, None, "color", _ALWAYS, _COLOR_CHECKS),
    ),
    "script": (
        _Field("commands", _COMMANDS, None, "commands", _REQUIRED),
    ),
    "waypoints": (
        _Field("speed", _FLOAT, None, "speed", _REQUIRED, _positive("speed")),
        _Field("threshold", _FLOAT, None, "threshold", _ALWAYS, _positive("threshold")),
        _Field("points", _POINTS, None, "points", _REQUIRED,
               ((len, "at least one waypoint required"),
                (lambda points: all(map(is_finite3, points)), "waypoints must be finite"))),
    ),
}
# Every table by the kind of section it reads, ``[scenario]`` included.
_TABLES = {"scenario": _SCENARIO_FIELDS, **_SECTIONS}


# Each table's keys, which tell a section's unknown keys.
_SCENARIO_KEYS = frozenset(f.key for f in _SCENARIO_FIELDS)
_SECTION_KEYS = {kind: frozenset(f.key for f in fields) for kind, fields in _SECTIONS.items()}
# The checked rows of each kind as (key, attribute, checks). A drone's or a
# light's id, the name of its section rather than a key, is checked first.
_CHECKED = {kind: tuple((f.key, f.attr, f.checks) for f in fields if f.checks)
            for kind, fields in _TABLES.items()}
for _kind in ("drone", "light"):
    _CHECKED[_kind] = (("id", "id", ((_NAME_RE.fullmatch, f"bad {_kind} id"),)), *_CHECKED[_kind])


def _group_check(attr: str, cls: type, optional: bool = False) -> tuple:
    """The checked row of the group object a drone holds at ``attr``."""
    if optional:
        return attr, attr, ((lambda v: v is None or isinstance(v, cls),
                             f"{attr} must be a {cls.__name__} or None"),)
    return attr, attr, ((lambda v: isinstance(v, cls), f"{attr} must be a {cls.__name__}"),)


# Next come a drone's group objects, which its keys are read from.
_CHECKED["drone"] = (
    _CHECKED["drone"][0],
    _group_check("gains", GainSet),
    _group_check("limits", ControllerLimits),
    _group_check("camera", CameraConfig, optional=True),
    _group_check("rab", RabConfig),
    _group_check("battery", BatteryModel),
    *_CHECKED["drone"][1:],
)
# The drone keys of each group, in table order.
_GROUP_KEYS = {
    group: tuple(f.key for f in _SECTIONS["drone"] if f.group == group) for group in _GROUPS
}


# --------------------------------------------------------------------------
# Parsing

def load_scenario(text: str) -> Scenario:
    """Parse and validate a scenario document."""
    sections = _read_sections(text)
    raw = sections.pop("scenario", None)
    if raw is None:
        raise ScenarioError("missing [scenario] section", "[scenario]")
    world = _read_section("[scenario]", raw, _SCENARIO_FIELDS, _SCENARIO_KEYS).pop(None, {})
    world.pop("format_version", None)  # its codec has checked it

    drones: list[DroneSpec] = []
    lights: list[LightSpec] = []
    scripts: dict[str, tuple] = {}
    waypoints: dict[str, WaypointPlan] = {}
    shared: dict = {}  # the drones' group objects, one per distinct text
    for section, raw in sections.items():
        kind, _, ident = section.partition(" ")
        ident = ident.strip()
        location = f"[{section}]"
        if not ident:
            raise ScenarioError(f"section [{section}] needs a name", location)
        if kind not in _SECTIONS:
            raise ScenarioError(f"unknown section kind {kind!r}", location)
        values = _read_section(location, raw, _SECTIONS[kind], _SECTION_KEYS[kind])
        spec = values.pop(None, {})
        if kind == "drone":
            drones.append(_build_drone(location, ident, spec, values, raw, shared))
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


def _read_sections(text: str) -> dict:
    """The document as {section: {key: value}}, with the keys of
    ``[DEFAULT]`` in every section.

    This is what ``configparser.ConfigParser(interpolation=None,
    strict=True, delimiters=("=",))`` with ``optionxform = str`` reads, and
    its errors are reported as ScenarioErrors at their line:

    * lines end at ``\\n`` only, and are read with surrounding whitespace
      (``str.strip``) removed;
    * a blank line is kept as an empty line of the value being read, and a
      comment line (first character ``#`` or ``;``) is skipped;
    * a line indented deeper than the last line that was not a
      continuation continues the value of the section's last key;
    * else a line starting with ``[`` and holding a ``]`` after at least
      one character is a section header, named up to its last ``]``
      (configparser's ``SECTCRE``; text after that is ignored);
    * else, once a section is open, a line with an ``=`` is ``key = value``,
      split at its first ``=`` (``OPTCRE``); a value is its lines joined with
      ``\\n``, trailing empty lines dropped;
    * a repeated section or key raises at once; any other malformed line
      (no ``=``, or an empty key) raises once the document is read, at the
      first such line.
    """
    sections: dict = {}
    defaults: dict = {}
    section = None    # the {key: value} being filled; None before a header
    key = None        # its last key, which deeper-indented lines continue
    lines = None      # that key's value lines, once it has a continuation
    blanks = 0        # blank lines since that key's last line
    indent = 0        # indentation of the last line that was not a continuation
    continued = []    # (section, key, lines) of every multi-line value
    bad = 0           # the first malformed line
    lineno = 0
    for line in text.split("\n"):
        lineno += 1
        value = line.strip()
        if not value:
            blanks += 1
            continue
        first = value[0]
        if first == "#" or first == ";":
            continue
        depth = 0 if line[0] == first else len(line) - len(line.lstrip())
        if key and depth > indent:
            if lines is None:
                lines = [section[key]]
                continued.append((section, key, lines))
            if blanks:
                lines.extend([""] * blanks)
            lines.append(value)
            blanks = 0
            continue
        indent = depth
        if first == "[":
            end = value.rfind("]")
            if end > 1:
                name = value[1:end]
                if name in sections:
                    raise ScenarioError(f"duplicate section [{name}]", f"line {lineno}")
                if name == "DEFAULT":
                    section = defaults
                else:
                    section = sections[name] = {}
                key = None
                continue
        if section is None:
            raise ScenarioError("syntax error: File contains no section headers.",
                                f"line {lineno}")
        equals = value.find("=")
        if equals < 0:
            bad = bad or lineno
            continue
        key = value[:equals].rstrip()
        if not key:
            bad = bad or lineno
        if key in section:
            raise ScenarioError(f"duplicate key {key!r}", f"line {lineno}")
        section[key] = value[equals + 1:].lstrip()
        lines = None
        blanks = 0
    if bad:
        raise ScenarioError("syntax error", f"line {bad}")
    for section, key, lines in continued:
        section[key] = "\n".join(lines)
    if defaults:
        return {name: {**defaults, **values} for name, values in sections.items()}
    return sections


def _read_section(location: str, raw: dict, fields, keys: frozenset) -> dict:
    """Parse one section by its field table into {group: {attribute: value}};
    ``keys`` are the table's keys."""
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
                value = tuple([f.codec.parse(line) for line in lines if line])
            else:
                value = f.codec.parse(text)
        except ValueError as exc:
            raise ScenarioError(str(exc), f"{location} {f.key}") from exc
        values.setdefault(f.group, {})[f.attr] = value
    if not keys.issuperset(raw):
        raise ScenarioError("unknown key", f"{location} {min(raw.keys() - keys)}")
    return values


def _build_drone(location: str, ident: str, spec: dict, groups: dict, raw: dict,
                 shared: dict) -> DroneSpec:
    """A drone spec; a group with no key set keeps the stock default. Group
    objects are immutable, so drones whose group keys have the same text
    share one from ``shared``."""
    if spec.pop("camera", False):
        groups.setdefault("camera", {})
    elif "camera" in groups:
        raise ScenarioError("camera keys set but camera is off", f"{location} camera")
    for group, values in groups.items():
        text = (group, *map(raw.get, _GROUP_KEYS[group]))
        built = shared.get(text)
        if built is None:
            stock, where = _GROUPS[group]
            if group == "battery":
                # An unset cutoff is derived from the curve, not kept from the stock.
                values.setdefault("cutoff_charge", None)
            try:
                built = shared[text] = stock._replace(**values)
            except ValueError as exc:
                where = where or _GROUP_KEYS[group][0]
                raise ScenarioError(str(exc), f"{location} {where}") from exc
        holder, _, loop = group.partition(".")
        if loop:
            built = spec.get(holder, _STOCK["gains"])._replace(**{loop: built})
        spec[holder] = built
    return DroneSpec(id=ident, **spec)


# --------------------------------------------------------------------------
# Rendering

def render_scenario(s: Scenario) -> str:
    """Serialize a scenario so that load_scenario reproduces it exactly, or
    raise ScenarioError at the key whose value would not read back equal:
    a bool, a non-integer in an integer field, or a number no float equals."""
    return "\n".join(_render_section(header, _TABLES[kind], spec)
                     for kind, header, spec in _sections(s))


def _sections(s: Scenario):
    """(kind, header, object) of each section of the document of ``s``, in
    document order."""
    yield "scenario", "scenario", s
    for d in s.drones:
        yield "drone", f"drone {d.id}", d
    for light in s.lights:
        yield "light", f"light {light.id}", light
    for ident, entries in s.scripts.items():
        yield "script", f"script {ident}", SimpleNamespace(commands=entries)
    for ident, plan in s.waypoints.items():
        yield "waypoints", f"waypoints {ident}", plan


def _render_section(header: str, fields, spec) -> str:
    lines = [f"[{header}]"]
    for f in fields:
        holder = attrgetter(f.group)(spec) if f.group else spec
        if holder is None:  # no camera
            continue
        value = getattr(holder, f.attr)
        if value is None:  # no broadcast, or no camera
            continue
        # Rendered before the default is skipped, so that a value equal to
        # it (False for 0) is checked too.
        try:
            if f.codec.block:
                text = "".join([f"\n    {f.codec.render(item)}" for item in value])
            else:
                text = f" {f.codec.render(value)}"
        except ValueError as exc:
            raise ScenarioError(str(exc), f"[{header}] {f.key}") from exc
        if f.presence == _OPTIONAL and value == _default(f, holder):
            continue
        lines.append(f"{f.key} ={text}")
    return "\n".join(lines) + "\n"


def _default(f: _Field, holder):
    if f.group is None:
        return type(holder)._defaults[f.attr]
    if f.attr == "cutoff_charge":
        return holder.poly(holder.t_max)  # derived from the curve, not stored
    return getattr(_GROUPS[f.group][0], f.attr)
