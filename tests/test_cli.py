import hashlib
import io
import math
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dronesim.battery import DEFAULT_COEFFS
from dronesim.cli import main
from dronesim.experiments import EXPERIMENT_NAMES, variants
from dronesim.geometry import wrap_deg
from dronesim.scenario import load_scenario

REPO = Path(__file__).resolve().parent.parent
SCENARIOS = REPO / "scenarios"
GOLDEN_CLI = Path(__file__).resolve().parent / "golden" / "cli_outputs.txt"


def run_cli(argv, capsys):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def poly(t):
    c0, c1, c2, c3 = DEFAULT_COEFFS
    return c0 + c1 * t + c2 * t * t + c3 * t * t * t


class TestRun:
    def test_hover_writes_constant_pose_csv(self, tmp_path, capsys):
        code, out, _ = run_cli(
            ["run", SCENARIOS / "hover.scn", "--out", tmp_path], capsys
        )
        assert code == 0
        csv_path = tmp_path / "hover_cf1.csv"
        assert csv_path.exists()
        lines = csv_path.read_text().splitlines()
        assert len(lines) == 102
        for line in lines[1:]:
            fields = line.split(",")
            assert fields[3:7] == ["0.000000", "0.000000", "1.000000", "0.000000"]
        assert "drone=cf1" in out
        assert "peak_speed=0.000000" in out

    def test_same_invocation_twice_identical_bytes(self, tmp_path, capsys):
        a_dir = tmp_path / "a"
        b_dir = tmp_path / "b"
        run_cli(["run", SCENARIOS / "leg_x_1m.scn", "--out", a_dir], capsys)
        run_cli(["run", SCENARIOS / "leg_x_1m.scn", "--out", b_dir], capsys)
        a = (a_dir / "leg_x_1m_cf1.csv").read_bytes()
        b = (b_dir / "leg_x_1m_cf1.csv").read_bytes()
        assert a == b

    def test_summary_folds_negative_zero(self, tmp_path, capsys):
        # The CSV rows printed 0.000000 while the summary line printed
        # -0.000000 for the same values.
        doc = tmp_path / "signed.scn"
        doc.write_text((SCENARIOS / "hover.scn").read_text().replace(
            "position = 0 0 1", "position = -0.0 0 1\nyaw = -0.0"))
        code, out, _ = run_cli(["run", doc, "--ticks", 0, "--out", tmp_path], capsys)
        assert code == 0
        assert "final_position=0.000000,0.000000,1.000000 final_yaw=0.000000 " in out
        assert "-0.000000" not in out
        row = (tmp_path / "hover_cf1.csv").read_text().splitlines()[1]
        assert row.split(",")[3:7] == ["0.000000", "0.000000", "1.000000", "0.000000"]
        code, out, _ = run_cli(["experiment", "position-legs", "--leg", "-0.0",
                                "--out-dir", tmp_path], capsys)
        assert code == 0
        assert " leg=0.000000 " in out and "-0.000000" not in out

    def test_ticks_override(self, tmp_path, capsys):
        code, _, _ = run_cli(
            ["run", SCENARIOS / "hover.scn", "--ticks", 10, "--out", tmp_path],
            capsys,
        )
        assert code == 0
        assert len((tmp_path / "hover_cf1.csv").read_text().splitlines()) == 12

    def test_negative_ticks_is_usage_error(self, tmp_path, capsys):
        code, _, err = run_cli(
            ["run", SCENARIOS / "hover.scn", "--ticks", -1, "--out", tmp_path],
            capsys,
        )
        assert code == 1
        assert "usage:" in err and "--ticks" in err

    def test_infinite_waypoint_speed_exits_2(self, tmp_path, capsys):
        doc = tmp_path / "fast.scn"
        doc.write_text(
            (SCENARIOS / "hover.scn").read_text()
            + "\n[waypoints cf1]\nspeed = inf\npoints =\n    1 0 1\n"
        )
        code, _, err = run_cli(["run", doc, "--out", tmp_path], capsys)
        assert code == 2
        assert "[waypoints cf1] speed" in err

    def test_camera_aperture_whose_tangent_is_zero_exits_2(self, tmp_path, capsys):
        # tan(aperture / 2) was 0: the run exited 0 only because it never
        # captures, and camera_capture raised ZeroDivisionError.
        doc = tmp_path / "narrow.scn"
        doc.write_text(
            "[scenario]\nname = narrow\nduration = 2\n\n[drone a]\nposition = 0 0 1\n"
            "camera = on\ncamera_aperture = 1e-323\n\n[light l]\nposition = 1 0 1\n"
        )
        code, out, err = run_cli(["run", doc, "--out", tmp_path], capsys)
        assert (code, out) == (2, "")
        (line,) = err.splitlines()
        assert line.startswith("error: [drone a] camera_aperture: ") and "narrow" in line
        assert not list(tmp_path.glob("*.csv"))

    def test_overflowing_waypoint_guidance_exits_2(self, tmp_path, capsys):
        # speed / distance overflows to inf: this ended in a ValueError
        # traceback from the guidance command (exit 1).
        doc = tmp_path / "overflow.scn"
        doc.write_text(
            (SCENARIOS / "hover.scn").read_text() + "\n[waypoints cf1]\n"
            "speed = 1e300\nthreshold = 1e-15\npoints =\n    0 0 1.000000000001\n"
        )
        code, out, err = run_cli(["run", doc, "--out", tmp_path], capsys)
        assert (code, out) == (2, "")
        (line,) = err.splitlines()
        assert line.startswith("error: [waypoints cf1] speed: ") and "finite" in line

    def test_overflowing_velocity_gain_exits_2(self, tmp_path, capsys):
        # kd * (ex - prev) / dt overflows to -inf and saturate scaled it by
        # vmax / inf = 0: x, y and the velocity were written as nan from
        # tick 2 on, with exit 0.
        doc = tmp_path / "kd.scn"
        doc.write_text(
            (SCENARIOS / "hover.scn").read_text() + "kd_vel = 1e308\n"
            "\n[script cf1]\ncommands =\n    0 velocity world 1 0 0 0\n"
            "    2 velocity world -1 0.5 0 0\n"
        )
        code, out, err = run_cli(["run", doc, "--out", tmp_path], capsys)
        assert (code, out) == (2, "")
        (line,) = err.splitlines()
        assert line.startswith("error: [drone cf1]: ") and "tick 2" in line
        assert not list(tmp_path.glob("*.csv"))

    def test_overflowing_yaw_exits_2(self, tmp_path, capsys):
        # yaw + yaw_rate * dt overflows to inf: wrap_deg's fmod raised
        # "math domain error" as a traceback, with exit 1.
        doc = tmp_path / "yaw.scn"
        doc.write_text(
            (SCENARIOS / "hover.scn").read_text().replace("dt = 0.1", "dt = 1e200")
            + "\n[script cf1]\ncommands =\n    0 velocity world 1 0 0 10\n"
        )
        code, out, err = run_cli(["run", doc, "--out", tmp_path], capsys)
        assert (code, out) == (2, "")
        (line,) = err.splitlines()
        assert line.startswith("error: [drone cf1]: ") and "tick 1" in line

    def test_overflowing_time_exits_2(self, tmp_path, capsys):
        # tick * dt overflowed: time_s was inf from tick 2 on and the summary
        # printed a 300-digit time_to_zero_charge, with exit 0.
        doc = tmp_path / "time.scn"
        doc.write_text(
            (SCENARIOS / "hover.scn").read_text().replace("dt = 0.1", "dt = 1e308")
        )
        code, out, err = run_cli(["run", doc, "--out", tmp_path], capsys)
        assert (code, out) == (2, "")
        (line,) = err.splitlines()
        assert line.startswith("error: [scenario] dt: ") and "finite" in line
        code, out, err = run_cli(["run", doc, "--ticks", 1, "--out", tmp_path], capsys)
        assert (code, err) == (0, "")

    @pytest.mark.parametrize("argv", [["position-legs", "--leg", "1e200"]])
    def test_experiment_whose_time_stops_advancing_exits_2(self, argv, tmp_path, capsys):
        # About 1e200 ticks, so far that n * dt == (n - 1) * dt: the run
        # never finished, and its rows filled memory.
        code, out, err = run_cli(["experiment", *argv, "--out-dir", tmp_path], capsys)
        assert (code, out) == (2, "")
        (line,) = err.splitlines()
        assert line.startswith("error: [scenario] dt: ") and "previous tick" in line
        assert not list(tmp_path.glob("*.csv"))

    def test_corrupt_scenario_exits_2_with_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.scn"
        bad.write_text("[scenario]\nname = x\nduration = 1\noops no equals\n")
        code, _, err = run_cli(["run", bad, "--out", tmp_path], capsys)
        assert code == 2
        assert "line 4" in err

    def test_start_outside_arena_exits_2_at_position(self, tmp_path, capsys):
        doc = tmp_path / "out.scn"
        doc.write_text("[scenario]\nname = out\n\n[drone cf1]\nposition = 9 0 1\n")
        code, _, err = run_cli(["run", doc, "--out", tmp_path], capsys)
        assert code == 2
        assert "[drone cf1] position" in err

    def test_non_utf8_scenario_exits_2(self, tmp_path, capsys):
        doc = tmp_path / "latin1.scn"
        doc.write_bytes(b"[scenario]\nname = caf\xe9\n")
        code, _, err = run_cli(["run", doc, "--out", tmp_path], capsys)
        assert code == 2
        assert err.startswith("error: 'utf-8' codec can't decode")

    def test_missing_file_exits_2(self, tmp_path, capsys):
        code, _, err = run_cli(["run", tmp_path / "nope.scn"], capsys)
        assert code == 2
        assert err.startswith("error: ") and "nope.scn" in err

    def test_unreadable_scenario_exits_2(self, tmp_path, capsys):
        code, _, err = run_cli(["run", tmp_path], capsys)
        assert code == 2
        assert err.startswith("error: ")

    def test_unwritable_output_exits_3(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        code, _, err = run_cli(["run", SCENARIOS / "hover.scn", "--out", blocker], capsys)
        assert code == 3
        assert err.startswith("error: ")


class TestMetrics:
    def test_file_vs_itself_is_zero(self, tmp_path, capsys):
        run_cli(["run", SCENARIOS / "hover.scn", "--out", tmp_path], capsys)
        csv_path = tmp_path / "hover_cf1.csv"
        code, out, _ = run_cli(
            ["metrics", "mse", csv_path, csv_path, "--column", "charge"], capsys
        )
        assert code == 0
        assert out.strip() == "mse=0.000000"

    def test_hand_built_three_row_files(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        a.write_text("t,v\n0,1\n1,2\n2,3\n")
        b.write_text("t,v\n0,1\n1,2\n2,4\n")
        code, out, _ = run_cli(["metrics", "mse", a, b, "--column", "v"], capsys)
        assert code == 0
        assert out.strip() == "mse=0.333333"

    def test_schema_mismatch_exits_2(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        a.write_text("t,v\n0,1\n")
        b.write_text("t,w\n0,1\n")
        code, _, err = run_cli(["metrics", "mse", a, b, "--column", "v"], capsys)
        assert code == 2
        assert "'v'" in err

    @pytest.mark.parametrize("content", [
        b"v\n\xff\xfe\n",                  # not UTF-8
        b"v\n" + b"1" * 200_000 + b"\n",   # a field over the csv module's size limit
        b"",                               # no header
    ], ids=["not utf-8", "huge field", "empty"])
    def test_unreadable_csv_exits_2(self, tmp_path, capsys, content):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(content)
        code, _, err = run_cli(["metrics", "mse", bad, bad, "--column", "v"], capsys)
        assert code == 2
        assert err.startswith(f"error: {bad}: ")

    def test_row_count_mismatch_exits_2(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        a.write_text("v\n1\n2\n")
        b.write_text("v\n1\n")
        code, _, err = run_cli(["metrics", "mse", a, b, "--column", "v"], capsys)
        assert code == 2
        assert "mismatch" in err


class TestFitBattery:
    def write_samples(self, path, ts, noise=None):
        lines = ["time_s,charge"]
        for i, t in enumerate(ts):
            c = poly(t)
            if noise is not None:
                c += noise[i]
            lines.append(f"{t},{c!r}")
        path.write_text("\n".join(lines) + "\n")

    def test_recovers_default_model(self, tmp_path, capsys):
        samples = tmp_path / "samples.csv"
        self.write_samples(samples, [float(t) for t in range(0, 428, 4)])
        code, out, _ = run_cli(
            ["fit-battery", samples, "--tmax", 427.21], capsys
        )
        assert code == 0
        fields = dict(kv.split("=", 1) for kv in out.split())
        for key, want in zip(("c0", "c1", "c2", "c3"), DEFAULT_COEFFS):
            assert float(fields[key]) == pytest.approx(want, rel=1e-9)
        assert float(fields["tmax"]) == 427.21
        assert float(fields["mse"]) < 1e-18

    def test_three_rows_underdetermined_exit_2(self, tmp_path, capsys):
        samples = tmp_path / "samples.csv"
        samples.write_text("time_s,charge\n0,1.0\n1,0.99\n2,0.98\n")
        code, _, err = run_cli(["fit-battery", samples], capsys)
        assert code == 2
        assert "underdetermined" in err

    def test_noisy_fit_mse_near_sigma_squared(self, tmp_path, capsys):
        import random

        rng = random.Random(42)
        ts = [float(t) for t in range(0, 428, 2)]
        noise = [rng.gauss(0.0, 0.01) for _ in ts]
        samples = tmp_path / "noisy.csv"
        self.write_samples(samples, ts, noise)
        code, out, _ = run_cli(["fit-battery", samples, "--tmax", 427.21], capsys)
        assert code == 0
        fit_mse = float(dict(kv.split("=", 1) for kv in out.split())["mse"])
        assert 1e-5 < fit_mse < 1e-3  # on the order of sigma^2 = 1e-4

    def test_non_monotone_exit_2(self, tmp_path, capsys):
        samples = tmp_path / "flat.csv"
        samples.write_text(
            "time_s,charge\n" + "".join(f"{t},0.9\n" for t in range(8))
        )
        code, _, err = run_cli(["fit-battery", samples], capsys)
        assert code == 2
        assert "decreasing" in err

    def test_non_utf8_samples_exit_2(self, tmp_path, capsys):
        samples = tmp_path / "latin1.csv"
        samples.write_bytes(b"time_s,charge\n0,1\xe9\n")
        code, _, err = run_cli(["fit-battery", samples], capsys)
        assert code == 2
        assert "utf-8" in err

    def test_missing_columns_exit_2(self, tmp_path, capsys):
        samples = tmp_path / "cols.csv"
        samples.write_text("a,b\n1,2\n")
        code, _, err = run_cli(["fit-battery", samples], capsys)
        assert code == 2
        assert "time_s" in err


class TestExperiment:
    def test_battery_full_charge_depletes_at_tmax(self, tmp_path, capsys):
        code, out, _ = run_cli(
            ["experiment", "battery", "--initial-charge", 1.0,
             "--out-dir", tmp_path],
            capsys,
        )
        assert code == 0
        fields = dict(
            kv.split("=", 1) for kv in out.splitlines()[0].split()
        )
        assert abs(float(fields["time_to_zero_charge"]) - 427.21) <= 0.1

    def test_huge_speed_flies_at_the_speed_limit(self, tmp_path, capsys):
        # The command's norm overflowed to inf in saturate, which scaled the
        # velocity to zero: peak_speed=0.000000 and the drone never moved.
        code, out, _ = run_cli(
            ["experiment", "line2d", "--speed", "1e300", "--out-dir", tmp_path],
            capsys,
        )
        assert code == 0
        fields = dict(kv.split("=", 1) for kv in out.splitlines()[0].split())
        assert 0.0 < float(fields["peak_speed"]) <= 10.0
        assert fields["final_position"] != "0.000000,0.000000,1.000000"

    def test_camera_calibration_pixels(self, tmp_path, capsys):
        code, out, _ = run_cli(
            ["experiment", "camera-calibration", "--out-dir", tmp_path], capsys
        )
        assert code == 0
        pixels = {}
        for line in out.splitlines():
            if line.startswith("light="):
                fields = dict(kv.split("=", 1) for kv in line.split())
                pixels[fields["light"]] = (int(fields["u"]), int(fields["v"]))
        # reported hardware pixels, ours must agree within one pixel each
        expected = {
            "red": (0, 159), "green": (160, 0),
            "blue": (319, 159), "white": (160, 318),
        }
        assert set(pixels) == set(expected)
        for name, (eu, ev) in expected.items():
            u, v = pixels[name]
            assert abs(u - eu) <= 1 and abs(v - ev) <= 1

    def test_unknown_experiment_exits_1_listing_names(self, capsys):
        code, _, err = run_cli(["experiment", "teleport"], capsys)
        assert code == 1
        assert "line2d" in err and "battery" in err

    def test_unknown_flag_rejected(self, capsys):
        code, _, err = run_cli(["experiment", "battery", "--warp", "9"], capsys)
        assert code == 1

    def test_emit_scenario_round_trips_byte_identical(self, tmp_path, capsys):
        code, out, _ = run_cli(
            ["experiment", "line2d", "--speed", 0.5, "--emit-scenario"], capsys
        )
        assert code == 0
        doc = tmp_path / "emitted.scn"
        doc.write_text(out)
        exp_dir = tmp_path / "exp"
        run_dir = tmp_path / "run"
        code, _, _ = run_cli(
            ["experiment", "line2d", "--speed", 0.5, "--out-dir", exp_dir], capsys
        )
        assert code == 0
        code, _, _ = run_cli(["run", doc, "--out", run_dir], capsys)
        assert code == 0
        a = (exp_dir / "line2d_s0.5_cf1.csv").read_bytes()
        b = (run_dir / "line2d_s0.5_cf1.csv").read_bytes()
        assert a == b

    def test_emit_scenario_requires_single_variant(self, capsys):
        code, _, err = run_cli(["experiment", "line2d", "--emit-scenario"], capsys)
        assert code == 1
        assert "single variant" in err

    def test_position_legs_writes_six_csvs_and_plots(self, tmp_path, capsys):
        code, out, _ = run_cli(
            ["experiment", "position-legs", "--out-dir", tmp_path], capsys
        )
        assert code == 0
        csvs = sorted(tmp_path.glob("position_leg_d*_cf1.csv"))
        assert len(csvs) == 6
        dats = sorted(tmp_path.glob("position_leg_d*_cf1_xy.dat"))
        assert len(dats) == 6
        assert out.count("final_position_error=") == 6

    def test_yaw_leg_duration_follows_the_wrapped_target(self, tmp_path, capsys):
        # The duration came from |target|: 1.1e299 ticks for 1e300 (refused
        # as a stalled time) and 1.1e14 for 1e15 (never finished), though
        # the controller turns at most 180 degrees to the wrapped target.
        assert wrap_deg(1e300) == 180.0 and wrap_deg(1e15) == -80.0
        (far,) = variants("yaw-legs", target=1e15)
        (near,) = variants("yaw-legs", target=-80.0)
        assert far.scenario.duration == near.scenario.duration == 59

        def csv_of(target):
            out_dir = tmp_path / target
            code, _, err = run_cli(["experiment", "yaw-legs", "--target", target,
                                    "--out-dir", out_dir], capsys)
            assert (code, err) == (0, "")
            (path,) = out_dir.glob("*.csv")
            return path.read_text()

        assert len(csv_of("1e300").splitlines()) == 1 + 71
        assert csv_of("1e15") == csv_of("-80")

    def test_truncate_settle_increases_error(self, tmp_path, capsys):
        code, out_full, _ = run_cli(
            ["experiment", "position-legs", "--leg", 10.0,
             "--out-dir", tmp_path / "full"],
            capsys,
        )
        assert code == 0
        code, out_trunc, _ = run_cli(
            ["experiment", "position-legs", "--leg", 10.0, "--truncate-settle",
             "--out-dir", tmp_path / "trunc"],
            capsys,
        )
        assert code == 0

        def err_of(out):
            fields = dict(kv.split("=", 1) for kv in out.splitlines()[0].split())
            return float(fields["final_position_error"])

        assert err_of(out_trunc) > err_of(out_full)


# Invocations pinned byte for byte: one flag-selected variant of each
# experiment, two full default sets, the truncated-settle legs and every
# shipped scenario. The output directory flag is appended per invocation.
CLI_CORPUS = [
    ["experiment", "line2d", "--speed", "0.5"],
    ["experiment", "line3d", "--speed", "0.25"],
    ["experiment", "altitude-steps", "--speed", "1"],
    ["experiment", "yaw-steps", "--speed", "90"],
    ["experiment", "position-legs", "--leg", "2"],
    ["experiment", "yaw-legs", "--target", "-135"],
    ["experiment", "battery", "--initial-charge", "0.5"],
    ["experiment", "line2d"],
    ["experiment", "camera-calibration"],
    ["experiment", "position-legs", "--truncate-settle"],
    ["experiment", "yaw-legs", "--truncate-settle"],
    ["run", "scenarios/battery_start.scn"],
    ["run", "scenarios/hover.scn"],
    ["run", "scenarios/leg_x_1m.scn"],
    ["run", "scenarios/two_drones_rab.scn"],
    ["run", "scenarios/hover.scn", "--ticks", "7"],
]


def cli_corpus(tmp_path):
    """Each invocation's stdout, with its output directory shown as
    ``{out}``, then the sha256 of every .csv and .dat it wrote."""
    blocks = []
    for i, argv in enumerate(CLI_CORPUS):
        out_dir = tmp_path / f"out{i}"
        flag = "--out" if argv[0] == "run" else "--out-dir"
        args = [str(REPO / a) if a.endswith(".scn") else a for a in argv]
        stdout = io.StringIO()
        with redirect_stdout(stdout):
            assert main(args + [flag, str(out_dir)]) == 0, argv
        lines = [f"### {' '.join(argv)}\n", stdout.getvalue().replace(str(out_dir), "{out}")]
        for path in sorted(out_dir.iterdir()):
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            lines.append(f"{digest} {path.name}\n")
        blocks.append("".join(lines))
    return "".join(blocks)


def test_cli_outputs_match_golden(tmp_path):
    assert cli_corpus(tmp_path) == GOLDEN_CLI.read_text(encoding="utf-8")


# Bad experiment flag values. The first eight ended in a traceback and the
# last two in exit 2. The flag parser now rejects non-finite values and
# speeds <= 0 (exit 1); a finite speed so small that the duration overflows
# is a scenario error (exit 2).
BAD_EXPERIMENT_FLAGS = [
    (["line2d", "--speed", "0"], 1),
    (["line2d", "--speed", "nan"], 1),
    (["line2d", "--speed", "1e-320"], 2),
    (["yaw-steps", "--speed", "0"], 1),
    (["yaw-legs", "--target", "nan"], 1),
    (["yaw-legs", "--target", "inf"], 1),
    (["position-legs", "--leg", "inf"], 1),
    (["position-legs", "--leg", "nan"], 1),
    (["line2d", "--speed", "-1"], 1),
    (["battery", "--initial-charge", "nan"], 1),
]


@pytest.mark.parametrize(
    "argv,code", BAD_EXPERIMENT_FLAGS, ids=[" ".join(a) for a, _ in BAD_EXPERIMENT_FLAGS]
)
def test_bad_experiment_flag_rejected(argv, code, capsys):
    got, out, err = run_cli(["experiment", *argv, "--emit-scenario"], capsys)
    assert got == code
    assert out == ""
    if code == 1:
        assert "usage:" in err and argv[1] in err
    else:
        assert "[scenario] duration" in err


# The flag that narrows each experiment to a single variant; camera
# calibration has one variant and takes no flag, so the fuzz test's --speed
# is always rejected there (exit 1).
NARROWING_FLAG = {
    "line2d": "--speed", "line3d": "--speed", "altitude-steps": "--speed",
    "yaw-steps": "--speed", "position-legs": "--leg", "yaw-legs": "--target",
    "battery": "--initial-charge", "camera-calibration": "--speed",
}
# The flags each experiment takes, as the README's experiment table lists
# them; every other experiment flag is foreign to it.
TAKES = {
    "line2d": ("--speed",), "line3d": ("--speed",), "altitude-steps": ("--speed",),
    "yaw-steps": ("--speed",), "position-legs": ("--leg", "--truncate-settle"),
    "yaw-legs": ("--target", "--truncate-settle"), "battery": ("--initial-charge",),
    "camera-calibration": (),
}
FOREIGN_FLAGS = [
    (name, flag)
    for name in EXPERIMENT_NAMES
    for flag in ("--speed", "--initial-charge", "--leg", "--target", "--truncate-settle")
    if flag not in TAKES[name]
]


@pytest.mark.parametrize("name,flag", FOREIGN_FLAGS, ids=[" ".join(c) for c in FOREIGN_FLAGS])
def test_flag_an_experiment_does_not_take_is_rejected(name, flag, capsys):
    # These were silently ignored: `battery --speed 1` ran all four variants.
    narrow = [TAKES[name][0], "1"] if TAKES[name] else []
    foreign = [flag] if flag == "--truncate-settle" else [flag, "1"]
    code, out, err = run_cli(["experiment", name, *narrow, *foreign, "--emit-scenario"], capsys)
    assert (code, out) == (1, "")
    assert "usage:" in err
    assert f"error: argument {flag}: not taken by experiment {name}" in err
EDGE_VALUES = ["nan", "inf", "-inf", "0", "-0", "-1", "5e-324", "1e-320", "1e308", "-1e308"]


@settings(max_examples=300, deadline=None)
@given(
    name=st.sampled_from(EXPERIMENT_NAMES),
    value=st.one_of(
        st.sampled_from(EDGE_VALUES),
        st.floats(allow_nan=True, allow_infinity=True).map(repr),
        st.floats(min_value=-200.0, max_value=200.0).map(repr),
    ),
)
def test_experiment_flag_fuzz(name, value):
    """No flag value reaches a traceback; an emitted scenario loads back."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["experiment", name, f"{NARROWING_FLAG[name]}={value}", "--emit-scenario"])
    assert code in (0, 1, 2)
    if code == 0:
        load_scenario(out.getvalue())
    else:
        assert out.getvalue() == "" and err.getvalue()


def emitted_name(argv, capsys):
    code, out, err = run_cli(["experiment", *argv, "--emit-scenario"], capsys)
    assert (code, err) == (0, "")
    return load_scenario(out).name


def test_large_flag_value_names_a_valid_scenario(capsys):
    # ``:g`` wrote 1e+06, whose ``+`` failed the [scenario] name rule (exit 2).
    assert emitted_name(["position-legs", "--leg", "1000000"], capsys) == "position_leg_d1000000.0"
    assert emitted_name(["line2d", "--speed", "1e16"], capsys) == "line2d_s1e16"


def test_close_flag_values_get_distinct_names(capsys):
    # Both were line2d_s0.5, so their CSVs overwrote each other.
    assert emitted_name(["line2d", "--speed", "0.5"], capsys) == "line2d_s0.5"
    assert emitted_name(["line2d", "--speed", "0.50000001"], capsys) == "line2d_s0.50000001"


@settings(max_examples=500, deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False),
       st.floats(allow_nan=False, allow_infinity=False))
def test_scenario_names_distinct_and_valid(a, b):
    from dronesim.experiments import _sname
    from dronesim.scenario import _NAME_RE

    name = _sname("line2d_s", a)
    assert _NAME_RE.match(name)
    if a != b or math.copysign(1.0, a) != math.copysign(1.0, b):
        assert name != _sname("line2d_s", b)
    text = f"{a:g}"
    if "+" not in text and float(text) == a:
        assert name == "line2d_s" + text.replace("-", "m")


def src_env():
    """The environment with src/ importable, for ``python -m dronesim.cli``."""
    paths = [str(REPO / "src"), os.environ.get("PYTHONPATH", "")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        result = subprocess.run(
            [sys.executable, "-m", "dronesim.cli", "run",
             str(SCENARIOS / "hover.scn"), "--ticks", "5",
             "--out", str(tmp_path)],
            capture_output=True, text=True, env=src_env(),
        )
        assert result.returncode == 0
        assert "drone=cf1" in result.stdout

    def test_usage_error_is_exit_1(self):
        result = subprocess.run(
            [sys.executable, "-m", "dronesim.cli", "frobnicate"],
            capture_output=True, text=True, env=src_env(),
        )
        assert result.returncode == 1

    def test_import_leaves_heavy_modules_unloaded(self):
        # -S keeps the environment's site hooks out of sys.modules. The CLI
        # itself loads no dataclasses (nor the inspect it pulls in), csv
        # only when a command needs it, and configparser never: scenario
        # documents have a reader of their own. numpy (about 0.1 s to import)
        # is for fit-battery alone.
        code = (
            "import sys, dronesim.cli\n"
            "heavy = ('dataclasses', 'inspect', 'configparser', 'csv', 'numpy')\n"
            "print(','.join(m for m in heavy if m in sys.modules))\n"
            f"dronesim.cli.load_scenario_file({str(SCENARIOS / 'hover.scn')!r})\n"
            "print('configparser' in sys.modules)\n"
        )
        result = subprocess.run(
            [sys.executable, "-S", "-c", code],
            capture_output=True, text=True, env=src_env(),
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines() == ["", "False"]

    def test_only_fit_battery_imports_numpy(self, tmp_path):
        # Without -S, so that numpy is importable: a run and an experiment
        # leave it unloaded, and fit-battery loads it.
        samples = tmp_path / "samples.csv"
        samples.write_text("time_s,charge\n" + "".join(
            f"{t},{poly(t)!r}\n" for t in range(0, 428, 4)))
        code = (
            "import sys\nfrom dronesim.cli import main\n"
            "for argv in sys.argv[1:]:\n"
            "    assert main(argv.split('|')) == 0\n"
            "    print('numpy' in sys.modules)\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", code,
             f"run|{SCENARIOS / 'two_drones_rab.scn'}|--out|{tmp_path}",
             f"experiment|battery|--initial-charge|0.25|--out-dir|{tmp_path}",
             f"fit-battery|{samples}"],
            capture_output=True, text=True, env=src_env(),
        )
        assert result.returncode == 0, result.stderr
        assert [line for line in result.stdout.splitlines() if "=" not in line] == [
            "False", "False", "True"]
