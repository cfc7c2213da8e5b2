import os
import subprocess
import sys
from pathlib import Path

import pytest

from dronesim.battery import DEFAULT_COEFFS
from dronesim.cli import main

REPO = Path(__file__).resolve().parent.parent
SCENARIOS = REPO / "scenarios"


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

    def test_corrupt_scenario_exits_2_with_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.scn"
        bad.write_text("[scenario]\nname = x\nduration = 1\noops no equals\n")
        code, _, err = run_cli(["run", bad, "--out", tmp_path], capsys)
        assert code == 2
        assert "line 4" in err

    def test_missing_file_exits_3(self, tmp_path, capsys):
        code, _, err = run_cli(["run", tmp_path / "nope.scn"], capsys)
        assert code == 3
        assert "error" in err


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
