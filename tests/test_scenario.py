import re
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest

from dronesim.battery import BatteryModel
from dronesim.camera import CameraConfig
from dronesim.control import Command, ControllerLimits, GainSet, PDGains
from dronesim.experiments import EXPERIMENT_NAMES, variants
from dronesim.rab import RabConfig
from dronesim.scenario import (
    DroneSpec,
    LightSpec,
    Scenario,
    ScenarioError,
    WaypointPlan,
    load_scenario,
    load_scenario_file,
    render_scenario,
)
from dronesim.world import run_scenario

REPO = Path(__file__).resolve().parent.parent
SCENARIOS = REPO / "scenarios"

MINIMAL = """\
[scenario]
name = tiny
duration = 10

[drone cf1]
position = 0 0 1
"""


class TestLoad:
    def test_minimal_document_gets_defaults(self):
        s = load_scenario(MINIMAL)
        assert s.dt == 0.1
        assert s.duration == 10
        assert s.arena_min == (-1.5, -1.5, 0.0)
        assert s.arena_max == (1.5, 1.5, 3.0)
        (drone,) = s.drones
        assert drone.id == "cf1"
        assert drone.limits.max_linear_speed == 10.0
        assert drone.limits.max_yaw_rate == 90.0
        assert drone.charge == 1.0
        assert drone.camera is None
        assert drone.battery == BatteryModel()

    def test_negative_duration_rejected(self):
        bad = MINIMAL.replace("duration = 10", "duration = -1")
        with pytest.raises(ScenarioError, match="duration"):
            load_scenario(bad)

    def test_script_for_unknown_drone_names_it(self):
        doc = MINIMAL + "\n[script cf9]\ncommands =\n    0 velocity world 1 0 0 0\n"
        with pytest.raises(ScenarioError, match="cf9"):
            load_scenario(doc)

    def test_unknown_key_rejected_with_path(self):
        doc = MINIMAL + "chrge = 0.5\n"
        with pytest.raises(ScenarioError, match=r"\[drone cf1\] chrge"):
            load_scenario(doc)

    def test_syntax_error_reports_line(self):
        doc = "[scenario]\nname = x\nduration = 1\nthis line has no equals\n"
        with pytest.raises(ScenarioError, match="line 4"):
            load_scenario(doc)

    def test_missing_section_header(self):
        with pytest.raises(ScenarioError, match="line"):
            load_scenario("dt = 0.1\n")

    def test_duplicate_drone_section(self):
        doc = MINIMAL + "\n[drone cf1]\nposition = 0 0 1\n"
        with pytest.raises(ScenarioError, match="duplicate"):
            load_scenario(doc)

    def test_charge_out_of_range(self):
        doc = MINIMAL.replace("position = 0 0 1", "position = 0 0 1\ncharge = 1.5")
        with pytest.raises(ScenarioError, match=r"charge"):
            load_scenario(doc)

    def test_script_ticks_must_be_sorted(self):
        doc = MINIMAL + (
            "\n[script cf1]\ncommands =\n"
            "    5 velocity world 1 0 0 0\n"
            "    2 velocity world 0 0 0 0\n"
        )
        with pytest.raises(ScenarioError, match="non-decreasing"):
            load_scenario(doc)

    def test_script_commands_parsed(self):
        doc = MINIMAL + (
            "\n[script cf1]\ncommands =\n"
            "    0 velocity world 0.5 0 0 10\n"
            "    20 position body 1 0 0 90\n"
        )
        s = load_scenario(doc)
        entries = s.scripts["cf1"]
        assert entries[0] == (0, Command.velocity((0.5, 0.0, 0.0), 10.0))
        assert entries[1] == (20, Command.position((1.0, 0.0, 0.0), 90.0, frame="body"))

    def test_bad_command_kind(self):
        doc = MINIMAL + "\n[script cf1]\ncommands =\n    0 warp world 0 0 0 0\n"
        with pytest.raises(ScenarioError, match="warp"):
            load_scenario(doc)

    def test_waypoints_parsed(self):
        doc = MINIMAL + (
            "\n[waypoints cf1]\nspeed = 0.5\npoints =\n    0 1 1\n    1 0 1\n"
        )
        s = load_scenario(doc)
        plan = s.waypoints["cf1"]
        assert plan.speed == 0.5
        assert plan.threshold == 0.05
        assert plan.points == ((0.0, 1.0, 1.0), (1.0, 0.0, 1.0))

    def test_script_and_waypoints_conflict(self):
        doc = MINIMAL + (
            "\n[script cf1]\ncommands =\n    0 velocity world 0 0 0 0\n"
            "\n[waypoints cf1]\nspeed = 1\npoints =\n    1 0 1\n"
        )
        with pytest.raises(ScenarioError, match="both"):
            load_scenario(doc)

    def test_camera_and_rab_and_led_keys(self):
        doc = MINIMAL.replace(
            "position = 0 0 1",
            "position = 0 0 1\n"
            "camera = on\ncamera_aperture = 40\n"
            "rab_range = 2.5\nrab_payload_max = 4\nrab_broadcast = 0a0b\n"
            "led_color = 10 20 30\nled_on = true",
        )
        s = load_scenario(doc)
        (d,) = s.drones
        assert d.camera == CameraConfig(aperture_deg=40.0)
        assert d.rab == RabConfig(range_m=2.5, payload_max=4)
        assert d.rab_broadcast == b"\x0a\x0b"
        assert d.led_color == (10, 20, 30)
        assert d.led_on is True

    def test_broadcast_must_fit_payload_max(self):
        doc = MINIMAL.replace(
            "position = 0 0 1",
            "position = 0 0 1\nrab_payload_max = 2\nrab_broadcast = 0a0b0c",
        )
        with pytest.raises(ScenarioError, match="payload"):
            load_scenario(doc)

    def test_gain_overrides(self):
        doc = MINIMAL.replace(
            "position = 0 0 1",
            "position = 0 0 1\nkp_vel = 5.0\nkd_vel = 0.1\nkp_pos = 2.0",
        )
        (d,) = load_scenario(doc).drones
        assert d.gains.velocity == PDGains(5.0, 0.1)
        assert d.gains.position == PDGains(2.0, 0.0)

    def test_battery_override(self):
        doc = MINIMAL.replace(
            "position = 0 0 1",
            "position = 0 0 1\nbattery_coeffs = 1.0 -0.01 0.0 0.0\nbattery_tmax = 50.0",
        )
        (d,) = load_scenario(doc).drones
        assert d.battery.coeffs == (1.0, -0.01, 0.0, 0.0)
        assert d.battery.t_max == 50.0
        assert d.battery.cutoff_charge == pytest.approx(0.5)

    def test_unknown_section_kind(self):
        doc = MINIMAL + "\n[teapot t1]\nkey = 1\n"
        with pytest.raises(ScenarioError, match="teapot"):
            load_scenario(doc)

    def test_lights_parsed(self):
        doc = MINIMAL + "\n[light lamp]\nposition = 1 2 1\ncolor = 255 0 0\n"
        s = load_scenario(doc)
        assert s.lights == (LightSpec("lamp", (1.0, 2.0, 1.0), (255, 0, 0)),)

    def test_format_version_checked(self):
        doc = MINIMAL.replace("[scenario]", "[scenario]\nformat_version = 99")
        with pytest.raises(ScenarioError, match="format_version"):
            load_scenario(doc)


def rich_scenario():
    return Scenario(
        name="rich",
        dt=0.05,
        duration=321,
        arena_min=(-2.0, -3.0, 0.0),
        arena_max=(12.0, 3.0, 4.0),
        drones=(
            DroneSpec(
                id="cf1",
                position=(0.25, -0.5, 1.0),
                yaw=12.5,
                charge=0.9,
                gains=GainSet(velocity=PDGains(7.5, 0.2)),
                limits=ControllerLimits(max_linear_speed=5.0),
                camera=CameraConfig(aperture_deg=42.0, mount_yaw_offset_deg=-10.0),
                rab=RabConfig(range_m=2.0, payload_max=8),
                rab_broadcast=b"\x01\xff",
                led_color=(12, 34, 56),
                led_on=True,
            ),
            DroneSpec(id="cf2", position=(1.0, 1.0, 1.0)),
        ),
        lights=(LightSpec("lamp", (0.0, 0.0, 2.5), (0, 255, 0)),),
        scripts={
            "cf2": (
                (0, Command.velocity((0.1, 0.2, 0.0), 5.0)),
                (10, Command.position((1.0, -1.0, 2.0), -45.0, frame="body")),
            )
        },
        waypoints={
            "cf1": WaypointPlan(
                speed=0.75, points=((1.0, 0.0, 1.0), (0.0, 1.0, 1.5)),
                threshold=0.1,
            )
        },
    )


class TestRoundTrip:
    def test_round_trip_equality(self):
        s = rich_scenario()
        assert load_scenario(render_scenario(s)) == s

    def test_round_trip_minimal(self):
        s = load_scenario(MINIMAL)
        assert load_scenario(render_scenario(s)) == s

    def test_render_is_stable(self):
        s = rich_scenario()
        assert render_scenario(s) == render_scenario(
            load_scenario(render_scenario(s))
        )


def every_key_scenario():
    """Every scenario key away from its default, plus the edge renderings:
    a bare ``camera = on``, an empty broadcast and an empty script."""
    return Scenario(
        name="every_key",
        dt=0.02,
        duration=77,
        arena_min=(-4.0, -4.5, 0.0),
        arena_max=(4.0, 4.5, 5.0),
        noise_seed=7,
        noise_position_std=0.001,
        drones=(
            DroneSpec(
                id="full",
                position=(0.1, 0.2, 0.3),
                yaw=-170.25,
                charge=0.65,
                gains=GainSet(
                    velocity=PDGains(8.0, 0.1),
                    velocity_yaw=PDGains(2.5, 0.05),
                    position=PDGains(1.5, 0.25),
                    position_yaw=PDGains(0.75, 0.125),
                ),
                limits=ControllerLimits(
                    max_linear_speed=2.0, max_yaw_rate=45.0,
                    max_linear_accel=3.0, max_yaw_accel=360.0,
                ),
                camera=CameraConfig(aperture_deg=60.0, mount_yaw_offset_deg=90.0),
                rab=RabConfig(range_m=1.5, payload_max=3),
                rab_broadcast=b"\x00\x10\xfe",
                led_color=(0, 128, 255),
                led_on=True,
                battery=BatteryModel(
                    coeffs=(1.0, -0.01, 0.0, 0.0), t_max=50.0,
                    cutoff_charge=0.5000005, load_factor=1.5,
                ),
            ),
            DroneSpec(
                id="cam",
                position=(-1.0, 0.0, 0.5),
                camera=CameraConfig(),
                rab_broadcast=b"",
                battery=BatteryModel(load_factor=2.0),
            ),
            DroneSpec(id="idle"),
        ),
        lights=(
            LightSpec("red", (3.0, 0.0, 1.0), (255, 0, 0)),
            LightSpec("white", (-3.0, 1.0, 2.0)),
        ),
        scripts={
            "cam": (
                (0, Command.position((0.5, 0.5, 1.0), 30.0)),
                (5, Command.velocity((0.0, -0.25, 0.0), -12.5, frame="body")),
            ),
            "idle": (),
        },
        waypoints={
            "full": WaypointPlan(speed=0.3, points=((0.0, 0.0, 1.0),)),
        },
    )


GOLDEN_RENDER = Path(__file__).resolve().parent / "golden" / "rendered_scenarios.txt"


def render_corpus():
    """The renderings pinned byte for byte: the scenarios above, the shipped
    ones and one variant of each experiment, with and without truncated
    settle times."""
    cases = [("rich", rich_scenario()), ("every_key", every_key_scenario())]
    for name in sorted(SCENARIOS.glob("*.scn")):
        cases.append((f"shipped {name.stem}", load_scenario_file(name)))
    for experiment in EXPERIMENT_NAMES:
        cases.append((experiment, variants(experiment)[0].scenario))
    for experiment in ("position-legs", "yaw-legs"):
        truncated = variants(experiment, truncate_settle=True)[0].scenario
        cases.append((f"{experiment} truncated", truncated))
    return "".join(f"### {label}\n{render_scenario(s)}" for label, s in cases)


def test_render_matches_golden_bytes():
    assert render_corpus() == GOLDEN_RENDER.read_text(encoding="utf-8")


HEAD = "[scenario]\nname = m\n"
DRONE = HEAD + "\n[drone a]\nposition = 0 0 1\n"

# One malformed document per codec and per constructed object; the texts
# are the loader's exact error messages, location included.
MALFORMED = [
    ("str", HEAD.replace("name = m", "name = two words"),
     "[scenario] name: name must be alphanumeric with . _ - only"),
    ("int", HEAD + "duration = 1.5\n",
     "[scenario] duration: not an integer: '1.5'"),
    ("float", HEAD + "dt = fast\n", "[scenario] dt: not a number: 'fast'"),
    ("version", HEAD + "format_version = 2\n",
     "[scenario] format_version: unsupported format_version 2"),
    ("vec3 count", HEAD + "arena_min = 1 2\n",
     "[scenario] arena_min: expected three numbers"),
    ("vec3 number", DRONE.replace("0 0 1", "0 0 up"),
     "[drone a] position: not a number in '0 0 up'"),
    ("color count", DRONE + "led_color = 1 2\n",
     "[drone a] led_color: expected three integers"),
    ("color number", DRONE + "led_color = 1 2 x\n",
     "[drone a] led_color: not an integer in '1 2 x'"),
    ("color range", HEAD + "\n[light l]\nposition = 0 0 1\ncolor = 0 0 256\n",
     "[light l] color: color must be three integers in [0, 255]"),
    ("bool", DRONE + "led_on = maybe\n", "[drone a] led_on: not a boolean: 'maybe'"),
    ("hex", DRONE + "rab_broadcast = 0g\n",
     "[drone a] rab_broadcast: not hex bytes: '0g'"),
    ("four floats", DRONE + "battery_coeffs = 1 -0.01 0\n",
     "[drone a] battery_coeffs: expected 4 numbers"),
    ("points", DRONE + "\n[waypoints a]\nspeed = 1\npoints =\n    0 0 1\n    1 2\n",
     "[waypoints a] points: expected three numbers per point, got '1 2'"),
    ("commands", DRONE + "\n[script a]\ncommands =\n    0 velocity world 1 0 0\n",
     "[script a] commands: expected 'tick kind frame x y z angular', "
     "got '0 velocity world 1 0 0'"),
    ("command frame", DRONE + "\n[script a]\ncommands =\n    0 velocity sky 1 0 0 0\n",
     "[script a] commands: unknown frame 'sky'"),
    ("command finite", DRONE + "\n[script a]\ncommands =\n    0 velocity world inf 0 0 0\n",
     "[script a] commands: command components must be finite"),
    ("gains kp", DRONE + "kp_vel_yaw = 0\n", "[drone a] kp_vel_yaw: kp must be > 0"),
    ("gains kd", DRONE + "kd_pos = -1\n", "[drone a] kp_pos: kd must be >= 0"),
    ("limits", DRONE + "max_yaw_accel = -5\n",
     "[drone a] limits: max_yaw_accel must be > 0"),
    ("camera", DRONE + "camera = on\ncamera_aperture = 180\n",
     "[drone a] camera_aperture: aperture must be in (0, 180) degrees"),
    ("camera zero tangent", DRONE + "camera = on\ncamera_aperture = 1e-323\n",
     "[drone a] camera_aperture: aperture is too narrow: tan(aperture / 2) is 0"),
    ("camera off", DRONE + "camera_yaw_offset = 10\n",
     "[drone a] camera: camera keys set but camera is off"),
    ("rab", DRONE + "rab_payload_max = 0\n", "[drone a] rab: payload_max must be >= 1"),
    ("battery", DRONE + "battery_tmax = -1\n",
     "[drone a] battery: t_max must be positive and finite"),
    ("battery cutoff", DRONE + "battery_cutoff = 0.2\n",
     "[drone a] battery: cutoff_charge 0.2 does not match "
     "P(t_max) = 0.30000000000000004"),
    ("required light", HEAD + "\n[light l]\ncolor = 1 2 3\n",
     "[light l] position: missing required key"),
    ("required waypoints", DRONE + "\n[waypoints a]\npoints =\n    0 0 1\n",
     "[waypoints a] speed: missing required key"),
    ("required before unknown", DRONE + "\n[script a]\nkey = 1\n",
     "[script a] commands: missing required key"),
    ("unknown scenario key", HEAD + "speed = 1\n", "[scenario] speed: unknown key"),
    ("unknown drone key", DRONE + "kp_velocity = 1\n",
     "[drone a] kp_velocity: unknown key"),
]


@pytest.mark.parametrize(
    "doc,message", [case[1:] for case in MALFORMED], ids=[case[0] for case in MALFORMED]
)
def test_malformed_document_message(doc, message):
    with pytest.raises(ScenarioError) as info:
        load_scenario(doc)
    assert str(info.value) == message


def test_start_outside_arena_rejected_at_load():
    import dronesim
    from dronesim.world import ConfigurationError

    with pytest.raises(ConfigurationError) as info:
        load_scenario(HEAD + "\n[drone a]\nposition = 0 0 3.5\n")
    assert str(info.value) == "[drone a] position: initial position outside arena"
    assert isinstance(info.value, ScenarioError)
    assert dronesim.ConfigurationError is ConfigurationError
    with pytest.raises(ConfigurationError):
        Scenario(name="oob", drones=(DroneSpec(id="a", position=(0.0, -2.0, 1.0)),))


# Non-finite numbers are rejected at the key or object that holds them.
NON_FINITE = [
    ("noise nan", HEAD + "noise_position_std = nan\n", "[scenario] noise_position_std"),
    ("noise inf", HEAD + "noise_position_std = inf\n", "[scenario] noise_position_std"),
    ("rab range nan", DRONE + "rab_range = nan\n", "[drone a] rab"),
    ("max speed inf", DRONE + "max_speed = inf\n", "[drone a] limits"),
    ("kd nan", DRONE + "kd_vel = nan\n", "[drone a] kp_vel"),
    ("kp inf", DRONE + "kp_vel = inf\n", "[drone a] kp_vel"),
    ("camera offset nan", DRONE + "camera = on\ncamera_yaw_offset = nan\n",
     "[drone a] camera_aperture"),
    ("battery cutoff nan", DRONE + "battery_cutoff = nan\n", "[drone a] battery"),
    ("waypoint speed inf", DRONE + "\n[waypoints a]\nspeed = inf\npoints =\n    0 0 1\n",
     "[waypoints a] speed"),
    ("waypoint threshold inf",
     DRONE + "\n[waypoints a]\nspeed = 1\nthreshold = inf\npoints =\n    0 0 1\n",
     "[waypoints a] threshold"),
]


@pytest.mark.parametrize(
    "doc,location", [case[1:] for case in NON_FINITE], ids=[case[0] for case in NON_FINITE]
)
def test_non_finite_number_rejected(doc, location):
    with pytest.raises(ScenarioError) as info:
        load_scenario(doc)
    assert str(info.value).startswith(f"{location}: ")


def test_documented_keys_match_field_table():
    from dronesim import scenario as module

    documented = {}
    kind = None
    for line in (REPO / "docs" / "scenario_format.md").read_text().splitlines():
        if line.startswith("## "):
            heading = re.match(r"## `\[(\w+)", line)
            kind = heading.group(1) if heading else None
        elif kind and line.startswith("| `"):
            cells = line.split("|")
            # The last column is the constraint: the row's check messages.
            documented.setdefault(kind, []).extend(
                (key, cells[-2].strip()) for key in re.findall(r"`(\w+)`", cells[1])
            )
    tables = {"scenario": module._SCENARIO_FIELDS, **module._SECTIONS}
    assert documented == {
        kind: [(f.key, "; ".join(message for _, message in f.checks)) for f in fields]
        for kind, fields in tables.items()
    }


# A name ending in a newline once validated ("$" matches before a final
# newline), then rendered a document that load_scenario rejects.
@pytest.mark.parametrize("build,location", [
    (lambda: Scenario(name="abc\n"), "[scenario] name"),
    (lambda: Scenario(drones=(DroneSpec(id="cf1\n"),)), "[drone cf1\n] id"),
    (lambda: Scenario(lights=(LightSpec(id="l1\n", position=(0.0, 0.0, 1.0)),)),
     "[light l1\n] id"),
], ids=["scenario name", "drone id", "light id"])
def test_name_with_trailing_newline_rejected(build, location):
    with pytest.raises(ScenarioError) as info:
        build()
    assert info.value.location == location


# A bool channel once validated, rendered as "True 0 0", and failed to load.
@pytest.mark.parametrize("color", [(True, 0, 0), (0, False, 0), (0, 0, True)])
def test_bool_color_channel_rejected(color):
    with pytest.raises(ScenarioError) as info:
        Scenario(drones=(DroneSpec(id="cf1", led_color=color),))
    assert str(info.value) == "[drone cf1] led_color: color must be three integers in [0, 255]"
    with pytest.raises(ScenarioError) as info:
        Scenario(lights=(LightSpec(id="l1", position=(0.0, 0.0, 1.0), color=color),))
    assert str(info.value) == "[light l1] color: color must be three integers in [0, 255]"


# A bool is an int, so these validate, but rendered "True" or "False" they
# would fail to load ("[drone cf1] yaw: not a number: 'True'"): render_scenario
# refuses them, a value equal to its key's default (False for 0) included.
_CF1 = DroneSpec(id="cf1")
_HOVER = Command.velocity((0.0, 0.0, 0.0))


@pytest.mark.parametrize("build,location", [
    (lambda: Scenario(drones=(DroneSpec(id="cf1", yaw=True),)), "[drone cf1] yaw"),
    (lambda: Scenario(drones=(DroneSpec(id="cf1", position=(0.0, True, 1.0)),)),
     "[drone cf1] position"),
    (lambda: Scenario(duration=True), "[scenario] duration"),
    (lambda: Scenario(noise_seed=False), "[scenario] noise_seed"),
    (lambda: Scenario(drones=(_CF1,), scripts={"cf1": ((0, _HOVER), (True, _HOVER))}),
     "[script cf1] commands"),
    (lambda: Scenario(drones=(_CF1,), scripts={
        "cf1": ((0, Command("velocity", "world", (0.0, 0.0, False), 0.0)),)}),
     "[script cf1] commands"),
    (lambda: Scenario(drones=(_CF1,), waypoints={
        "cf1": WaypointPlan(speed=True, points=((0.0, 0.0, 1.0),))}),
     "[waypoints cf1] speed"),
    (lambda: Scenario(drones=(DroneSpec(id="cf1", gains=GainSet(position=PDGains(True))),)),
     "[drone cf1] kp_pos"),
], ids=["drone yaw", "drone position", "duration", "noise_seed", "script tick",
        "command linear", "waypoint speed", "gain kp"])
def test_bool_in_a_numeric_field_rejected(build, location):
    with pytest.raises(ScenarioError) as info:
        render_scenario(build())
    assert str(info.value) == f"{location}: a bool is not a number"


def test_bool_fields_stay_booleans():
    # led_on and camera (on or off) are the document's booleans.
    scenario = Scenario(drones=(
        DroneSpec(id="lit", led_on=True, camera=CameraConfig()),
        DroneSpec(id="dark", led_on=False),
    ))
    assert load_scenario(render_scenario(scenario)) == scenario


def test_bool_numbers_fly_like_their_int_twins():
    # Only the document refuses a bool: a scenario built with one flies
    # exactly as with the int it equals.
    def build(one, zero):
        return Scenario(
            duration=30,
            drones=(DroneSpec(id="s", position=(0.0, one, 1.0), yaw=one,
                              gains=GainSet(position=PDGains(one))),
                    DroneSpec(id="w")),
            scripts={"s": ((zero, Command("velocity", "world", (0.5, zero, 0.0), one)),
                           (one, Command("position", "world", (1.0, zero, 1.0), zero)))},
            waypoints={"w": WaypointPlan(speed=one, points=((0.0, 0.0, one),))},
        )

    flown, twin = (run_scenario(build(one, zero))[1] for one, zero in ((True, False), (1, 0)))
    assert {i: t.rows for i, t in flown.items()} == {i: t.rows for i, t in twin.items()}


# Each of these once rendered a document that load_scenario rejects.
@pytest.mark.parametrize("build,message", [
    (lambda: Scenario(duration=3.5), "[scenario] duration: not an integer: 3.5"),
    (lambda: Scenario(noise_seed=1.5), "[scenario] noise_seed: not an integer: 1.5"),
    (lambda: Scenario(drones=(DroneSpec(id="a", rab=RabConfig(payload_max=2.5)),)),
     "[drone a] rab_payload_max: not an integer: 2.5"),
    (lambda: Scenario(drones=(_CF1,), scripts={"cf1": ((0, _HOVER), (1.5, _HOVER))}),
     "[script cf1] commands: not an integer: 1.5"),
    (lambda: Scenario(dt=Decimal("0.1")), "[scenario] dt: not a number: Decimal('0.1')"),
    (lambda: Scenario(dt=Fraction(1, 10)), "[scenario] dt: not a number: Fraction(1, 10)"),
], ids=["duration", "noise_seed", "rab_payload_max", "script tick", "Decimal", "Fraction"])
def test_number_that_would_not_read_back_refused_at_render(build, message):
    with pytest.raises(ScenarioError) as info:
        render_scenario(build())
    assert str(info.value) == message


def test_exact_decimal_renders_as_its_float():
    scenario = Scenario(dt=Decimal("0.5"))
    assert "dt = 0.5\n" in render_scenario(scenario)
    assert load_scenario(render_scenario(scenario)) == scenario


# Each of these once raised a bare ValueError or TypeError from unpacking
# the entry, not a ScenarioError at the script.
@pytest.mark.parametrize("entries", [
    ((0, _HOVER, 1),),
    ((0,),),
    (5,),
], ids=["three items", "one item", "not a sequence"])
def test_script_entry_that_is_not_a_pair_is_refused_at_the_script(entries):
    with pytest.raises(ScenarioError) as info:
        Scenario(drones=(_CF1,), scripts={"cf1": entries})
    assert info.value.location == "[script cf1]"
    assert "(tick, command) pairs" in str(info.value)


def test_script_entry_as_a_list_pair_still_flies():
    listed = Scenario(drones=(_CF1,), scripts={"cf1": ([0, _HOVER],)})
    assert listed.scripts["cf1"][0][1] is _HOVER
