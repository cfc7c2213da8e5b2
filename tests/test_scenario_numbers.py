"""Numbers of other types in a scenario: render_scenario writes each as the
int or float it equals, so that the document reads back equal, or refuses it
at its key."""

import functools
import math
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dronesim.battery import BatteryModel
from dronesim.control import Command, ControllerLimits, GainSet, PDGains
from dronesim.rab import RabConfig
from dronesim.scenario import (
    DroneSpec,
    Scenario,
    ScenarioError,
    WaypointPlan,
    load_scenario,
    render_scenario,
)

np = pytest.importorskip("numpy")


@pytest.mark.parametrize("build", [
    lambda: Scenario(dt=np.float64(0.1)),
    lambda: Scenario(dt=np.float32(0.1)),
    lambda: Scenario(drones=(DroneSpec(id="a", position=tuple(np.array([0.5, -0.25, 1.0]))),)),
    lambda: Scenario(duration=np.int64(30)),
    lambda: Scenario(drones=(DroneSpec(id="a", battery=BatteryModel(
        coeffs=tuple(np.array([1.0, -0.002, 1e-6, -1e-9])))),)),
], ids=["float64", "float32", "position", "int64 duration", "battery coeffs"])
def test_numpy_numbers_read_back_equal(build):
    scenario = build()
    assert load_scenario(render_scenario(scenario)) == scenario


@functools.lru_cache(maxsize=None)
def _number(lo, hi, decimal=True):
    """A number in [lo, hi] drawn as each type that can stand for one: int,
    bool, float, numpy's, and Fraction and Decimal, exact or not."""
    exact_lo, exact_hi = Fraction(str(lo)), Fraction(str(hi))

    def multiples(scale):
        return st.integers(math.ceil(exact_lo * scale), math.floor(exact_hi * scale))

    kinds = [multiples(1), multiples(1).map(np.int64),
             st.floats(lo, hi), st.floats(lo, hi).map(np.float64),
             multiples(30).map(lambda n: Fraction(n, 30))]
    if decimal:
        kinds.append(multiples(100).map(lambda n: Decimal(n).scaleb(-2)))
    bools = [b for b in (False, True) if lo <= b <= hi]
    if bools:
        kinds.append(st.sampled_from(bools))
    return st.one_of(kinds)


# The numbers of one scenario: (name, key, lo, hi, whether the key is an
# integer, plain value). A script tick's range is its one value, so the
# ticks stay in order; no tick is a Decimal, since a Decimal does not
# compare with a numpy integer and validation refuses ticks that do not
# order (see test_unordered_script_ticks_are_refused_at_the_script).
_SLOTS = (
    ("dt", "[scenario] dt", 0.01, 1.0, False, 0.1),
    ("duration", "[scenario] duration", 0, 50, True, 10),
    ("noise_seed", "[scenario] noise_seed", 0, 1000, True, 3),
    ("noise_std", "[scenario] noise_position_std", 0.0, 0.5, False, 0.0),
    ("x", "[drone a] position", 0.0, 1.0, False, 0.5),
    ("y", "[drone a] position", 0.0, 1.0, False, 0.5),
    ("z", "[drone a] position", 0.0, 1.0, False, 1.0),
    ("yaw", "[drone a] yaw", -180.0, 180.0, False, 0.0),
    ("charge", "[drone a] charge", 0.0, 1.0, False, 1.0),
    ("kp", "[drone a] kp_pos", 0.5, 5.0, False, 1.0),
    ("max_speed", "[drone a] max_speed", 1.0, 10.0, False, 10.0),
    ("payload_max", "[drone a] rab_payload_max", 1, 20, True, 10),
    ("tick0", "[script a] commands", 0, 0, True, 0),
    ("tick1", "[script a] commands", 1, 1, True, 1),
    ("vx", "[script a] commands", -1.0, 1.0, False, 0.5),
    ("vz", "[script a] commands", -1.0, 1.0, False, 0.0),
    ("rate", "[script a] commands", -30.0, 30.0, False, 5.0),
    ("speed", "[waypoints b] speed", 0.1, 2.0, False, 0.5),
)


def _plain(value, integer):
    """Whether ``value`` is of a type its key's codec parses to."""
    return type(value) is int or (not integer and type(value) is float)


@st.composite
def _scenarios(draw):
    """A scenario with a few of its numbers drawn, and the drawn numbers as
    {key: [(value, whether the key is an integer)]}."""
    v = {name: plain for name, _, _, _, _, plain in _SLOTS}
    drawn = {}
    for name, key, lo, hi, integer, _ in draw(
            st.lists(st.sampled_from(_SLOTS), min_size=1, max_size=4, unique=True)):
        v[name] = draw(_number(lo, hi, decimal=not name.startswith("tick")))
        drawn.setdefault(key, []).append((v[name], integer))
    scenario = Scenario(
        dt=v["dt"], duration=v["duration"], noise_seed=v["noise_seed"],
        noise_position_std=v["noise_std"],
        drones=(
            DroneSpec(
                id="a", position=(v["x"], v["y"], v["z"]), yaw=v["yaw"], charge=v["charge"],
                gains=GainSet(position=PDGains(v["kp"])),
                limits=ControllerLimits(max_linear_speed=v["max_speed"]),
                rab=RabConfig(payload_max=v["payload_max"]),
            ),
            DroneSpec(id="b"),
        ),
        scripts={"a": (
            (v["tick0"], Command("velocity", "world", (v["vx"], 0.0, v["vz"]), v["rate"])),
            (v["tick1"], Command("position", "world", (0.0, 0.0, 1.0), v["yaw"])),
        )},
        waypoints={"b": WaypointPlan(speed=v["speed"], points=((0.0, 0.0, 1.0),))},
    )
    return scenario, drawn


@settings(max_examples=300, deadline=None)
@given(_scenarios())
def test_rendered_numbers_read_back_equal_or_are_refused_at_their_key(case):
    scenario, drawn = case
    try:
        text = render_scenario(scenario)
    except ScenarioError as exc:
        assert not all(_plain(value, integer) for value, integer in drawn[exc.location])
    else:
        assert load_scenario(text) == scenario


@pytest.mark.parametrize("ticks", [
    (np.int64(0), Decimal(1)),
    ("1",),
    (0, "1"),
    (np.array([0, 1]),),
], ids=["int64 then Decimal", "str", "int then str", "array of two"])
def test_unordered_script_ticks_are_refused_at_the_script(ticks):
    cmd = Command.velocity((0.1, 0.0, 0.0))
    with pytest.raises(ScenarioError) as caught:
        Scenario(drones=(DroneSpec(id="a"),), scripts={"a": tuple((t, cmd) for t in ticks)})
    assert caught.value.location == "[script a]"

