"""Every rejection branch at the input boundary, one case each.

A case reachable from a scenario document or a command line goes through
``cli.main`` and must end in its exit code and a one-line ``error:`` report,
never a traceback. The rest can only come from the library and are raised
directly.
"""

import re
from pathlib import Path

import pytest

from dronesim.battery import BatteryModel, BatteryModelError
from dronesim.cli import main
from dronesim.control import Command, DroneState, resolve_position_target
from dronesim.experiments import variants
from dronesim.scenario import DroneSpec, LightSpec, Scenario, ScenarioError, WaypointPlan
from dronesim.world import create_world, rab_send, set_led

HOVER = (Path(__file__).resolve().parent.parent / "scenarios" / "hover.scn").read_text()
CF1 = DroneSpec(id="cf1", position=(0.0, 0.0, 1.0))


def document(extra):
    """``dronesim run`` on the hover document with ``extra`` appended."""
    def argv(tmp_path):
        path = tmp_path / "case.scn"
        path.write_text(HOVER + extra)
        return ["run", path, "--ticks", "0", "--out", tmp_path]
    return argv


def command(*args, files=()):
    """A command line; ``files`` are (name, text) pairs written first."""
    def argv(tmp_path):
        for name, text in files:
            (tmp_path / name).write_text(text)
        return [str(a).format(tmp=tmp_path) for a in args]
    return argv


def library(call, *args, **kwargs):
    return lambda tmp_path: lambda: call(*args, **kwargs)


def wrong_type(location, message, **fields):
    """A scenario built with ``fields``, one value of the wrong type: the
    case and its exact ``str`` as a pattern. It must be refused at its key."""
    case = library(Scenario, **{"drones": (CF1,), **fields})
    return case, ScenarioError, f"^{re.escape(f'{location}: {message}')}$"


def on_world(call, *args):
    """``call`` on a new world of drone cf1, followed by ``args``."""
    return library(lambda: call(create_world(Scenario(drones=(CF1,))), *args))


def plan(**fields):
    return {"waypoints": {"cf1": WaypointPlan(**{"speed": 1.0, "points": ((0.0, 0.0, 1.0),),
                                                 **fields})}}


HEADER_ONLY = ("empty.csv", "tick,x\n")
NON_NUMERIC = ("bad.csv", "tick,x\n0,abc\n")
NAN_SAMPLE = ("fit.csv", "time_s,charge\n0,1\n1,0.9\n2,nan\n3,0.7\n")
FINITE = ("finite.csv", "tick,x\n0,1\n1,2\n")
NAN_COLUMN = ("nan.csv", "tick,x\n0,1\n1,nan\n")
INF_COLUMN = ("inf.csv", "tick,x\n0,-inf\n1,2\n")
HIGH_CHARGE = ("high.csv", "charge\n1e308\n")
LOW_CHARGE = ("low.csv", "charge\n-1e308\n")

# (case, exit code or exception type, last stderr line or match pattern)
CASES = [
    # validate_scenario
    pytest.param(document("yaw = nan\n"), 2,
                 "error: [drone cf1] yaw: yaw must be finite", id="drone-yaw-nan"),
    pytest.param(document("led_color = 256 0 0\n"), 2,
                 "error: [drone cf1] led_color: color must be three integers in [0, 255]",
                 id="drone-led-color"),
    pytest.param(document("\n[light bad!]\nposition = 1 0 1\n"), 2,
                 "error: [light bad!] id: bad light id", id="light-id"),
    pytest.param(document("\n[light lamp]\nposition = inf 0 1\n"), 2,
                 "error: [light lamp] position: position must be finite", id="light-position"),
    pytest.param(library(Scenario, name="s", duration=0, drones=(CF1,),
                         lights=(LightSpec("lamp", (1.0, 0.0, 1.0)),
                                 LightSpec("lamp", (2.0, 0.0, 1.0)))),
                 ScenarioError, r"^\[scenario\] lights: duplicate light id$", id="light-duplicate"),
    pytest.param(document("\n[script cf1]\ncommands =\n    -1 velocity world 0 0 0 0\n"), 2,
                 "error: [script cf1]: script ticks must be >= 0", id="script-tick"),
    pytest.param(library(Scenario, name="s", duration=0, drones=(CF1,),
                         scripts={"cf1": ((0, "hover"),)}),
                 ScenarioError, "script entries must hold commands", id="script-entry"),
    pytest.param(document("\n[waypoints ghost]\nspeed = 1\npoints =\n    1 0 1\n"), 2,
                 "error: [waypoints ghost]: unknown drone 'ghost'", id="waypoints-drone"),
    pytest.param(document("\n[waypoints cf1]\nspeed = 0\npoints =\n    1 0 1\n"), 2,
                 "error: [waypoints cf1] speed: speed must be > 0", id="waypoints-speed"),
    pytest.param(document("\n[waypoints cf1]\nspeed = 1\nthreshold = -1\npoints =\n    1 0 1\n"),
                 2, "error: [waypoints cf1] threshold: threshold must be > 0",
                 id="waypoints-threshold"),
    pytest.param(document("\n[waypoints cf1]\nspeed = 1\npoints =\n"), 2,
                 "error: [waypoints cf1] points: at least one waypoint required",
                 id="waypoints-empty"),
    pytest.param(document("\n[waypoints cf1]\nspeed = 1\npoints =\n    nan 0 1\n"), 2,
                 "error: [waypoints cf1] points: waypoints must be finite", id="waypoints-nan"),
    # validate_scenario: one value of the wrong type per checked row, which
    # each check refuses rather than raising a bare TypeError, or letting
    # through a value that flies but does not render or repeat.
    *(pytest.param(*wrong_type(location, message, **fields), id=f"type-{name}")
      for name, location, message, fields in [
          ("name", "[scenario] name", "name must be alphanumeric with . _ - only",
           {"name": None}),
          ("dt", "[scenario] dt", "dt must be > 0", {"dt": "0.1"}),
          ("duration", "[scenario] duration", "duration must be >= 0", {"duration": None}),
          # random.Random(None) seeds from the OS: two runs would differ.
          ("noise-seed", "[scenario] noise_seed", "noise seed must not be None",
           {"noise_seed": None, "noise_position_std": 0.1, "duration": 20}),
          ("noise-std", "[scenario] noise_position_std", "noise std must be >= 0",
           {"noise_position_std": "0"}),
          ("drone-id", "[drone None] id", "bad drone id", {"drones": (DroneSpec(id=None),)}),
          ("drone-position", "[drone cf1] position", "position must be finite",
           {"drones": (DroneSpec(id="cf1", position=None),)}),
          ("yaw", "[drone cf1] yaw", "yaw must be finite",
           {"drones": (DroneSpec(id="cf1", yaw=None),)}),
          ("charge", "[drone cf1] charge", "charge must be in [0, 1]",
           {"drones": (DroneSpec(id="cf1", charge="1"),)}),
          # len() of an int raised; a bytearray or str flew, then did not render.
          *((f"broadcast-{type(payload).__name__}", "[drone cf1] rab_broadcast",
             "broadcast must be bytes", {"drones": (DroneSpec(id="cf1", rab_broadcast=payload),)})
            for payload in (5, bytearray(b"\x01"), "01")),
          # Group objects were not checked: None gains validated, then
          # rendering raised AttributeError, as did the broadcast rule for
          # rab=None.
          ("gains", "[drone cf1] gains", "gains must be a GainSet",
           {"drones": (DroneSpec(id="cf1", gains=None),)}),
          ("limits", "[drone cf1] limits", "limits must be a ControllerLimits",
           {"drones": (DroneSpec(id="cf1", limits=10.0),)}),
          ("camera", "[drone cf1] camera", "camera must be a CameraConfig or None",
           {"drones": (DroneSpec(id="cf1", camera=True),)}),
          ("rab", "[drone cf1] rab", "rab must be a RabConfig",
           {"drones": (DroneSpec(id="cf1", rab=None, rab_broadcast=b"x"),)}),
          ("battery", "[drone cf1] battery", "battery must be a BatteryModel",
           {"drones": (DroneSpec(id="cf1", battery=None),)}),
          # len() of None raised in the arena rule.
          ("arena-min", "[scenario] arena_min", "arena bounds must be finite",
           {"arena_min": None}),
          ("arena-max", "[scenario] arena_max", "arena bounds must be finite",
           {"arena_max": (1.5, 1.5)}),
          ("led-color", "[drone cf1] led_color", "color must be three integers in [0, 255]",
           {"drones": (DroneSpec(id="cf1", led_color=None),)}),
          ("light-id", "[light None] id", "bad light id",
           {"lights": (LightSpec(None, (0.0, 0.0, 1.0)),)}),
          ("light-position", "[light l1] position", "position must be finite",
           {"lights": (LightSpec("l1", None),)}),
          ("light-color", "[light l1] color", "color must be three integers in [0, 255]",
           {"lights": (LightSpec("l1", (0.0, 0.0, 1.0), color=None),)}),
          ("speed", "[waypoints cf1] speed", "speed must be > 0", plan(speed=None)),
          ("threshold", "[waypoints cf1] threshold", "threshold must be > 0",
           plan(threshold=None)),
          ("points", "[waypoints cf1] points", "waypoints must be finite", plan(points=(None,))),
      ]),
    # The scenario reader: each false spelling turns the camera off.
    *(pytest.param(document(f"camera = {off}\ncamera_aperture = 60\n"), 2,
                   "error: [drone cf1] camera: camera keys set but camera is off",
                   id=f"bool-{off}")
      for off in ("false", "off", "no", "0")),
    pytest.param(document("\n[script cf1]\ncommands =\n    0 velocity world a 0 0 0\n"), 2,
                 "error: [script cf1] commands: bad number in '0 velocity world a 0 0 0'",
                 id="command-number"),
    # The battery model
    pytest.param(document("battery_coeffs = 1 -0.01 0 0\nbattery_tmax = 200\n"), 2,
                 "error: [drone cf1] battery: charge at t_max must be non-negative",
                 id="battery-cutoff"),
    pytest.param(document("battery_coeffs = 1 -0.01 0.0001 0\nbattery_tmax = 100\n"), 2,
                 "error: [drone cf1] battery: discharge polynomial is not strictly "
                 "decreasing on [49.9, 50] s", id="battery-mid-interval"),
    pytest.param(command("fit-battery", "{tmp}/fit.csv", files=[NAN_SAMPLE]), 2,
                 "error: samples must be finite", id="fit-nan"),
    pytest.param(library(BatteryModel().invert_charge, 1.5), BatteryModelError,
                 r"^charge 1\.5 outside \[0, 1\]$", id="invert-charge"),
    # The command line
    pytest.param(command("run", "{tmp}/any.scn", "--ticks", "abc"), 1,
                 "dronesim run: error: argument --ticks: invalid int value: 'abc'",
                 id="ticks"),
    pytest.param(command("experiment", "position-legs", "--leg", "abc"), 1,
                 "dronesim experiment: error: argument --leg: must be a finite number, "
                 "got 'abc'", id="leg"),
    pytest.param(command("metrics", "mse", "{tmp}/empty.csv", "{tmp}/empty.csv",
                         "--column", "x", files=[HEADER_ONLY]), 2,
                 "error: no data rows", id="metrics-header-only"),
    pytest.param(command("metrics", "mse", "{tmp}/missing.csv", "{tmp}/empty.csv",
                         "--column", "x", files=[HEADER_ONLY]), 2,
                 "error: {tmp}/missing.csv: No such file or directory", id="metrics-missing"),
    pytest.param(command("metrics", "mse", "{tmp}/bad.csv", "{tmp}/bad.csv",
                         "--column", "x", files=[NON_NUMERIC]), 2,
                 "error: {tmp}/bad.csv: non-numeric value in 'x'", id="metrics-non-numeric"),
    pytest.param(command("metrics", "mse", "{tmp}/finite.csv", "{tmp}/nan.csv",
                         "--column", "x", files=[FINITE, NAN_COLUMN]), 2,
                 "error: {tmp}/nan.csv: non-finite value in 'x'", id="metrics-nan"),
    pytest.param(command("metrics", "mse", "{tmp}/inf.csv", "{tmp}/finite.csv",
                         "--column", "x", files=[FINITE, INF_COLUMN]), 2,
                 "error: {tmp}/inf.csv: non-finite value in 'x'", id="metrics-inf"),
    pytest.param(command("metrics", "mse", "{tmp}/high.csv", "{tmp}/low.csv",
                         "--column", "charge", files=[HIGH_CHARGE, LOW_CHARGE]), 2,
                 "error: mse of 'charge' overflows the float range", id="metrics-overflow"),
    # Library entry points
    pytest.param(library(resolve_position_target,
                         DroneState((0.0, 0.0, 1.0), 0.0, (0.0, 0.0, 0.0), 0.0, 1.0),
                         Command.velocity((1.0, 0.0, 0.0))),
                 ValueError, "^not a position command$", id="position-target"),
    pytest.param(library(variants, "nope"), ValueError,
                 "^unknown experiment 'nope'; valid names: ", id="experiment-name"),
    # is_color raised a bare TypeError for a colour without len().
    pytest.param(on_world(set_led, "cf1", None, True), ValueError,
                 r"^color must be three integers in \[0, 255\]$", id="set-led-none"),
    # len() of an int raised, bytes() of a str raised, a list of ints was sent.
    *(pytest.param(on_world(rab_send, "cf1", payload), TypeError,
                   f"^payload must be a bytes-like object, not '{type(payload).__name__}'$",
                   id=f"rab-send-{type(payload).__name__}")
      for payload in (5, "ab", [1, 2])),
]


@pytest.mark.parametrize("case, expected, message", CASES)
def test_rejection(case, expected, message, tmp_path, capsys):
    action = case(tmp_path)
    if isinstance(expected, int):
        code = main([str(arg) for arg in action])
        out, err = capsys.readouterr()
        assert code == expected
        assert out == "" and "Traceback" not in err
        assert err.splitlines()[-1] == message.format(tmp=tmp_path)
        if expected == 2:
            assert len(err.splitlines()) == 1
    else:
        with pytest.raises(expected, match=message) as info:
            action()
        assert type(info.value) is expected  # not a subclass, such as ConfigurationError
