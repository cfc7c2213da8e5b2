"""Golden-file byte equality for the shipped scenarios (CSV stability).

``golden/flight_paths.scn`` is not shipped: it covers the flight paths the
shipped scenarios leave out (derivative gains, body-frame scripts, jitter,
waypoint parking, an arena clamp, grounding mid-run)."""

from pathlib import Path

import pytest

from dronesim.scenario import load_scenario_file
from dronesim.trajectory import trajectory_csv
from dronesim.world import run_scenario

REPO = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"

CASES = [
    ("hover", ["cf1"]),
    ("leg_x_1m", ["cf1"]),
    ("battery_start", ["cf1"]),
    ("two_drones_rab", ["cf1", "cf2"]),
]


@pytest.mark.parametrize("name,drone_ids", CASES)
def test_golden_bytes(name, drone_ids):
    assert_golden(REPO / "scenarios" / f"{name}.scn", name, drone_ids)


def test_golden_flight_paths():
    assert_golden(GOLDEN / "flight_paths.scn", "flight_paths", ["body", "parker", "sinker"])


def assert_golden(path, name, drone_ids):
    scenario = load_scenario_file(path)
    _, trajectories = run_scenario(scenario)
    assert sorted(trajectories) == sorted(drone_ids)
    for drone_id in drone_ids:
        got = trajectory_csv(trajectories[drone_id]).encode()
        want = (GOLDEN / f"{name}_{drone_id}.csv").read_bytes()
        assert got == want, f"{name}_{drone_id}.csv drifted from golden"
