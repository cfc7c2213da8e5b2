import os
import subprocess
import sys
from pathlib import Path

import pytest

from dronesim.battery import (
    DEFAULT_COEFFS,
    DEFAULT_T_MAX,
    STOCK_MODEL,
    BatteryModel,
    BatteryModelError,
    battery_next_charge,
    battery_time_to_empty,
    fit_discharge_polynomial,
)
from dronesim.scenario import DroneSpec

SRC = str(Path(__file__).resolve().parent.parent / "src")


def poly_oracle(coeffs, t):
    """Independent polynomial evaluation (no Horner, no model code)."""
    return coeffs[0] + coeffs[1] * t + coeffs[2] * t**2 + coeffs[3] * t**3


def root_oracle(coeffs, t_max, charge, tol=1e-12):
    """Independent bisection for P(t) = charge on [0, t_max]."""
    lo, hi = 0.0, t_max
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if poly_oracle(coeffs, mid) > charge:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestDefaultModel:
    def test_stock_model_is_the_validated_model(self):
        # STOCK_MODEL is built without _validate; it must be, to the bit,
        # what validation builds.
        validated = BatteryModel()
        assert STOCK_MODEL == validated
        assert STOCK_MODEL.cutoff_charge.hex() == validated.cutoff_charge.hex()
        assert hash(STOCK_MODEL) == hash(validated)
        assert repr(STOCK_MODEL) == repr(validated)
        assert DroneSpec._defaults["battery"] is STOCK_MODEL

    def test_import_and_battery_experiment_skip_the_monotonicity_scan(self):
        code = (
            "import sys\n"
            "scans = []\n"
            "sys.setprofile(lambda frame, event, arg: event == 'call' and "
            "frame.f_code.co_name == '_check_monotone' and scans.append(1))\n"
            "import dronesim.cli, dronesim.experiments\n"
            "dronesim.experiments.variants('battery')\n"
            "sys.setprofile(None)\n"
            "print(len(scans))\n"
        )
        paths = [SRC, os.environ.get("PYTHONPATH", "")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
        result = subprocess.run([sys.executable, "-c", code],
                                capture_output=True, text=True, env=env)
        assert result.returncode == 0, result.stderr
        assert result.stdout.split() == ["0"]

    def test_full_at_zero_and_cutoff_at_tmax(self):
        m = BatteryModel()
        assert m.poly(0.0) == 1.0
        assert m.poly(m.t_max) == pytest.approx(0.30, abs=1e-9)
        assert m.t_max == 427.21

    def test_strictly_decreasing(self):
        m = BatteryModel()
        prev = m.poly(0.0)
        for k in range(1, 2001):
            t = m.t_max * k / 2000
            value = m.poly(t)
            assert value < prev
            prev = value

    def test_charge_at_is_zero_past_tmax(self):
        m = BatteryModel()
        assert m.charge_at(m.t_max) == 0.0
        assert m.charge_at(m.t_max + 1.0) == 0.0
        assert m.charge_at(m.t_max - 0.1) > 0.0


class TestNextCharge:
    def test_depleted_stays_depleted(self):
        assert battery_next_charge(BatteryModel(), 0.0, 0.1) == 0.0

    def test_cutoff_charge_maps_to_zero(self):
        m = BatteryModel()
        assert battery_next_charge(m, m.cutoff_charge, 0.1) == 0.0

    def test_below_cutoff_maps_to_zero(self):
        assert battery_next_charge(BatteryModel(), 0.25, 0.1) == 0.0

    def test_full_charge_advances_to_poly_value(self):
        m = BatteryModel()
        expected = poly_oracle(DEFAULT_COEFFS, 0.1)
        assert battery_next_charge(m, 1.0, 0.1) == pytest.approx(expected, abs=1e-12)

    def test_roundtrip_against_bisection_oracle(self):
        m = BatteryModel()
        for t_start in (10.0, 100.0, 250.0, 400.0):
            charge = poly_oracle(DEFAULT_COEFFS, t_start)
            t_found = root_oracle(DEFAULT_COEFFS, DEFAULT_T_MAX, charge)
            assert t_found == pytest.approx(t_start, abs=1e-6)
            nxt = battery_next_charge(m, charge, 0.5)
            assert nxt == pytest.approx(
                poly_oracle(DEFAULT_COEFFS, t_start + 0.5), abs=1e-9
            )

    def test_domain_errors(self):
        m = BatteryModel()
        with pytest.raises(BatteryModelError):
            battery_next_charge(m, -0.1, 0.1)
        with pytest.raises(BatteryModelError):
            battery_next_charge(m, 1.1, 0.1)
        with pytest.raises(BatteryModelError):
            battery_next_charge(m, 0.5, 0.0)

    def test_composition_matches_direct_evaluation(self):
        # Chaining k root-find steps stays within 1e-9 of P(k*dt).
        m = BatteryModel()
        charge = 1.0
        dt = 0.1
        for k in range(1, 501):
            charge = battery_next_charge(m, charge, dt)
            assert charge == pytest.approx(
                poly_oracle(DEFAULT_COEFFS, k * dt), abs=1e-9
            )

    def test_load_factor_scales_time(self):
        fast = BatteryModel(load_factor=2.0)
        slow = BatteryModel()
        assert battery_next_charge(fast, 1.0, 0.1) == pytest.approx(
            battery_next_charge(slow, 1.0, 0.2), abs=1e-12
        )


class TestTimeToEmpty:
    def test_full_charge(self):
        assert battery_time_to_empty(BatteryModel(), 1.0) == 427.21

    def test_inverts_polynomial(self):
        m = BatteryModel()
        charge = poly_oracle(DEFAULT_COEFFS, 200.0)
        assert battery_time_to_empty(m, charge) == pytest.approx(
            427.21 - 200.0, abs=1e-6
        )

    def test_zero_charge(self):
        assert battery_time_to_empty(BatteryModel(), 0.0) == 0.0

    def test_below_cutoff_is_zero(self):
        m = BatteryModel()
        assert battery_time_to_empty(m, m.cutoff_charge / 2.0) == 0.0

    def test_additivity_along_curve(self):
        m = BatteryModel()
        for a in (0.0, 50.0, 199.5, 400.0):
            charge = poly_oracle(DEFAULT_COEFFS, a)
            assert battery_time_to_empty(m, charge) == pytest.approx(
                m.t_max - a, abs=1e-6
            )


class TestFit:
    def test_recovers_known_cubic(self):
        coeffs = DEFAULT_COEFFS
        samples = [
            (t, poly_oracle(coeffs, t)) for t in range(0, 428, 2)
        ]
        model = fit_discharge_polynomial(samples)
        for got, want in zip(model.coeffs, coeffs):
            assert got == pytest.approx(want, rel=1e-9)
        assert model.t_max == 426.0  # largest sample time

    def test_tmax_override(self):
        samples = [(t, poly_oracle(DEFAULT_COEFFS, t)) for t in range(0, 428, 2)]
        model = fit_discharge_polynomial(samples, t_max=DEFAULT_T_MAX)
        assert model.t_max == DEFAULT_T_MAX

    def test_underdetermined(self):
        samples = [(0.0, 1.0), (1.0, 0.99), (2.0, 0.98)]
        with pytest.raises(BatteryModelError, match="distinct times"):
            fit_discharge_polynomial(samples)

    def test_duplicate_times_dont_count(self):
        samples = [(0.0, 1.0), (0.0, 1.0), (1.0, 0.99), (2.0, 0.98)]
        with pytest.raises(BatteryModelError, match="distinct times"):
            fit_discharge_polynomial(samples)

    def test_constant_samples_fail_monotonicity(self):
        samples = [(float(t), 0.9) for t in range(10)]
        with pytest.raises(BatteryModelError, match="not strictly decreasing"):
            fit_discharge_polynomial(samples)

    def test_validation_error_names_interval(self):
        samples = [(float(t), 0.9) for t in range(10)]
        with pytest.raises(BatteryModelError, match=r"\[.*\] s"):
            fit_discharge_polynomial(samples)


class TestModelValidation:
    def test_increasing_polynomial_rejected(self):
        with pytest.raises(BatteryModelError):
            BatteryModel(coeffs=(1.0, 0.001, 0.0, -1e-8))

    def test_wrong_cutoff_rejected(self):
        with pytest.raises(BatteryModelError):
            BatteryModel(cutoff_charge=0.5)

    def test_far_from_full_rejected(self):
        with pytest.raises(BatteryModelError):
            BatteryModel(coeffs=(0.8, -0.003, 1.42421402327237e-05,
                                 -2.5877842137707736e-08))

    def test_invert_endpoint_handling(self):
        m = BatteryModel()
        assert m.invert_charge(1.0) == 0.0
        assert m.invert_charge(m.cutoff_charge) == m.t_max
        assert m.invert_charge(0.0) == m.t_max
