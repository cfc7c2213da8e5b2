import io
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dronesim.scenario import DroneSpec, Scenario
from dronesim.trajectory import (
    CSV_HEADER,
    Trajectory,
    TrajectoryRow,
    export_plot_columns,
    format_row,
    mse,
    summarize,
    trajectory_csv,
    write_trajectory,
)
from dronesim.world import run_scenario


def row(tick, **kw):
    base = dict(
        time_s=tick * 0.1, x=0.0, y=0.0, z=1.0, yaw_deg=0.0,
        vx=0.0, vy=0.0, vz=0.0, yaw_rate_deg_s=0.0, charge=1.0,
    )
    base.update(kw)
    return TrajectoryRow(tick=tick, **base)


class TestCsv:
    def test_header_and_single_row(self):
        traj = Trajectory("cf1", [row(0)])
        text = trajectory_csv(traj)
        lines = text.splitlines()
        assert lines[0] == CSV_HEADER
        assert lines[1] == (
            "0,0.000000,cf1,0.000000,0.000000,1.000000,0.000000,"
            "0.000000,0.000000,0.000000,0.000000,1.000000"
        )
        assert text.endswith("\n")
        assert "\r" not in text

    def test_six_decimal_formatting(self):
        traj = Trajectory("cf1", [row(3, x=1.23456789, charge=0.5)])
        line = trajectory_csv(traj).splitlines()[1]
        assert line.split(",")[3] == "1.234568"
        assert line.split(",")[-1] == "0.500000"

    def test_depleted_charge_prints_zero(self):
        traj = Trajectory("cf1", [row(0, charge=0.0)])
        assert trajectory_csv(traj).splitlines()[1].endswith(",0.000000")

    def test_negative_zero_normalized(self):
        traj = Trajectory("cf1", [row(0, x=-0.0)])
        assert ",-0.000000," not in trajectory_csv(traj)

    def test_write_trajectory_sink(self):
        traj = Trajectory("cf1", [row(0)])
        sink = io.StringIO()
        write_trajectory(traj, sink)
        assert sink.getvalue() == trajectory_csv(traj)

    def test_same_scenario_twice_identical_bytes(self):
        scenario = Scenario(
            name="det", duration=50,
            drones=(DroneSpec(id="cf1", position=(0.0, 0.0, 1.0)),),
        )
        _, t1 = run_scenario(scenario)
        _, t2 = run_scenario(scenario)
        assert trajectory_csv(t1["cf1"]) == trajectory_csv(t2["cf1"])


def _oracle_f(value):
    return f"{value + 0.0:.6f}"


def _oracle_row(drone_id, r):
    """The CSV row as formatted one field at a time (the original code)."""
    return ",".join((
        str(r.tick), _oracle_f(r.time_s), drone_id, _oracle_f(r.x), _oracle_f(r.y),
        _oracle_f(r.z), _oracle_f(r.yaw_deg), _oracle_f(r.vx), _oracle_f(r.vy),
        _oracle_f(r.vz), _oracle_f(r.yaw_rate_deg_s), _oracle_f(r.charge),
    ))


_EDGES = [0.0, -0.0, -4e-7, 4e-7, 5e-7, -5e-7, 1.5e-6, 2.5e-6, -1e-300,
          1e300, -1e300, math.inf, -math.inf, math.nan, -math.nan]
_field = st.floats() | st.sampled_from(_EDGES)
_rows = st.builds(
    TrajectoryRow,
    st.integers(min_value=0, max_value=2**70) | st.sampled_from([0, 10**19]),
    *[_field] * 10,
)


@settings(max_examples=500, deadline=None)
@given(drone_id=st.text(min_size=1, max_size=8), rows=st.lists(_rows, max_size=3))
@example(drone_id="cf1", rows=[TrajectoryRow(2**64, *_EDGES[:10]),
                               TrajectoryRow(7, *_EDGES[5:])])
def test_csv_matches_per_field_oracle(drone_id, rows):
    text = trajectory_csv(Trajectory(drone_id, rows))
    want = [CSV_HEADER] + [_oracle_row(drone_id, r) for r in rows]
    assert text == "\n".join(want) + "\n"
    for r in rows:
        assert format_row(drone_id, r) == _oracle_row(drone_id, r)


def test_tiny_negative_keeps_its_sign():
    assert format_row("a", row(0, x=-4e-7, y=-0.0)).split(",")[3:5] == ["-0.000000", "0.000000"]


class TestMse:
    def test_identical_series(self):
        assert mse([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0

    def test_unit_offset(self):
        assert mse([0.0, 0.0], [1.0, 1.0]) == 1.0

    def test_hand_arithmetic(self):
        assert mse([1.0, 2.0, 3.0], [1.0, 2.0, 4.0]) == pytest.approx(1.0 / 3.0)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            mse([1.0], [1.0, 2.0])

    def test_empty(self):
        with pytest.raises(ValueError, match="non-empty"):
            mse([], [])

    def test_matches_naive_oracle(self):
        import random

        rng = random.Random(7)
        for _ in range(50):
            n = rng.randint(1, 200)
            a = [rng.uniform(-10, 10) for _ in range(n)]
            b = [rng.uniform(-10, 10) for _ in range(n)]
            naive = sum((x - y) ** 2 for x, y in zip(a, b)) / n
            assert mse(a, b) == pytest.approx(naive, rel=1e-12)


class TestSummarize:
    def test_hover_peaks_are_zero(self):
        traj = Trajectory("cf1", [row(k) for k in range(5)])
        s = summarize(traj)
        assert s.peak_speed == 0.0
        assert s.peak_yaw_rate == 0.0
        assert s.time_to_zero_charge is None

    def test_peak_speed_and_rate(self):
        traj = Trajectory("cf1", [
            row(0), row(1, vx=3.0, vy=4.0), row(2, yaw_rate_deg_s=-50.0),
        ])
        s = summarize(traj)
        assert s.peak_speed == 5.0
        assert s.peak_yaw_rate == 50.0

    def test_final_errors(self):
        traj = Trajectory("cf1", [row(0, x=0.9, yaw_deg=170.0)])
        s = summarize(traj, target=(1.0, 0.0, 1.0), target_yaw=-175.0)
        assert s.final_position_error == pytest.approx(0.1)
        assert s.final_yaw_error == pytest.approx(15.0)

    def test_far_yaw_target_is_wrapped_before_subtracting(self):
        # The error subtracted first: -80.004815 - 1e15 rounds to -1e15, so
        # the yaw error read 0, and for 1e300 it read 180.
        traj = Trajectory("cf1", [row(0, yaw_deg=-80.004815)])
        near = summarize(traj, target_yaw=-80.0)
        assert near.final_yaw_error == pytest.approx(0.004815, abs=1e-9)
        assert summarize(traj, target_yaw=1e15) == near
        traj = Trajectory("cf1", [row(0, yaw_deg=-179.995485)])
        assert summarize(traj, target_yaw=1e300).final_yaw_error == pytest.approx(
            0.004515, abs=1e-9)

    def test_non_finite_yaw_target_keeps_its_outcome(self):
        traj = Trajectory("cf1", [row(0, yaw_deg=10.0)])
        assert math.isnan(summarize(traj, target_yaw=math.nan).final_yaw_error)
        for target in (math.inf, -math.inf):
            with pytest.raises(ValueError, match="math domain error"):
                summarize(traj, target_yaw=target)

    def test_time_to_zero_charge(self):
        traj = Trajectory("cf1", [
            row(0, charge=0.4), row(1, charge=0.0), row(2, charge=0.0),
        ])
        assert summarize(traj).time_to_zero_charge == pytest.approx(0.1)

    def test_empty_trajectory_raises(self):
        with pytest.raises(ValueError):
            summarize(Trajectory("cf1", []))


class TestPlotExport:
    def test_time_z_two_columns(self):
        traj = Trajectory("cf1", [row(0), row(1), row(2)])
        sink = io.StringIO()
        export_plot_columns([traj], "time-z", sink)
        lines = sink.getvalue().splitlines()
        assert lines == ["0.000000 1.000000", "0.100000 1.000000", "0.200000 1.000000"]

    def test_blocks_separated_by_blank_line(self):
        t1 = Trajectory("a", [row(0)])
        t2 = Trajectory("b", [row(0, x=2.0)])
        sink = io.StringIO()
        export_plot_columns([t1, t2], "xy", sink)
        assert sink.getvalue() == "0.000000 0.000000\n\n2.000000 0.000000\n"

    def test_unknown_projection(self):
        with pytest.raises(ValueError, match="projection"):
            export_plot_columns([Trajectory("a", [row(0)])], "time-x", io.StringIO())

    def test_xy_projection_of_diagonal_leg(self):
        from dronesim.scenario import WaypointPlan

        scenario = Scenario(
            name="diag", duration=80,
            drones=(DroneSpec(id="cf1", position=(0.0, 0.0, 1.0)),),
            waypoints={"cf1": WaypointPlan(speed=0.5, points=((1.0, 1.0, 1.0),))},
        )
        _, trajs = run_scenario(scenario)
        sink = io.StringIO()
        export_plot_columns([trajs["cf1"]], "xy", sink)
        lines = sink.getvalue().splitlines()
        assert lines[0] == "0.000000 0.000000"
        fx, fy = (float(v) for v in lines[-1].split())
        assert abs(fx - 1.0) < 0.02 and abs(fy - 1.0) < 0.02

    def test_empty_list(self):
        with pytest.raises(ValueError):
            export_plot_columns([], "xy", io.StringIO())
