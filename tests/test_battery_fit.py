"""The pure-Python discharge fit held to numpy's least squares.

numpy is a test dependency only: ``_numpy_fit`` below is the numpy fit that
``fit_discharge_polynomial`` used before it solved the least squares itself,
kept verbatim as the oracle.
"""

import random
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dronesim.battery import (
    DEFAULT_COEFFS,
    BatteryModel,
    BatteryModelError,
    fit_discharge_polynomial,
)

UNDERDETERMINED = "underdetermined: need at least 4 samples with distinct times"


def _numpy_fit(samples, t_max=None, load_factor=1.0):
    if len({t for t, _ in samples}) < 4:
        raise BatteryModelError(
            "underdetermined: need at least 4 samples with distinct times"
        )
    ts = np.asarray([t for t, _ in samples], dtype=float)
    cs = np.asarray([c for _, c in samples], dtype=float)
    if not (np.isfinite(ts).all() and np.isfinite(cs).all()):
        raise BatteryModelError("samples must be finite")
    # Fit in normalized time for conditioning, then rescale the coefficients.
    t_scale = float(np.max(np.abs(ts)))
    u = ts / t_scale
    vander = np.column_stack([np.ones_like(u), u, u * u, u * u * u])
    sol, *_ = np.linalg.lstsq(vander, cs, rcond=None)
    coeffs = tuple(float(sol[k]) / t_scale**k for k in range(4))
    return BatteryModel(
        coeffs=coeffs,
        t_max=float(t_max) if t_max is not None else float(np.max(ts)),
        cutoff_charge=None,
        load_factor=load_factor,
    )


def _stock(t):
    c0, c1, c2, c3 = DEFAULT_COEFFS
    return c0 + c1 * t + c2 * t * t + c3 * t * t * t


def _outcome(fit, samples):
    """The fitted coefficients, or the BatteryModelError message."""
    try:
        return fit(samples).coeffs
    except BatteryModelError as exc:
        return str(exc)


def _numpy_rank(samples):
    ts = np.asarray([t for t, _ in samples], dtype=float)
    u = ts / np.max(np.abs(ts))
    vander = np.column_stack([np.ones_like(u), u, u * u, u * u * u])
    return np.linalg.matrix_rank(vander)


_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:e[-+]?\d+)?")


def _same_message(got, want):
    """Equal text, and numbers (such as P(0) in a validation message) equal
    to 1e-12 relative: they come from coefficients that may differ in the
    last bits."""
    assert _NUMBER.sub("#", got) == _NUMBER.sub("#", want)
    for g, w in zip(_NUMBER.findall(got), _NUMBER.findall(want)):
        assert float(g) == pytest.approx(float(w), rel=1e-12, abs=0.0)


@st.composite
def discharge_logs(draw):
    """4 to 400 noisy samples of the stock curve, logged at a fixed rate over
    one flight, with ties and negative times, in units from 1e-3 to 1e6
    stock flights."""
    n = draw(st.integers(4, 400))
    scale = draw(st.floats(1e-3, 1e6))
    shift = draw(st.sampled_from([0.0, 0.25, 1.0]) | st.floats(0.0, 1.0))
    noise = draw(st.sampled_from([0.0, 1e-4, 1e-2]))
    ties = draw(st.integers(0, n // 4))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    flight = [k / (n - 1) - shift for k in range(n)]  # stock flights
    for _ in range(ties):
        flight[rng.randrange(n)] = flight[rng.randrange(n)]
    return [(f * scale, _stock(f * 427.21) + rng.gauss(0.0, noise)) for f in flight]


@settings(max_examples=500, deadline=None)
@given(discharge_logs())
@example([(float(t), _stock(t)) for t in range(0, 428, 2)])
@example([(k * 427.21 / 3, _stock(k * 427.21 / 3)) for k in range(4)])
@example([(0.0, 1.0), (0.0, 1.0), (1.0, 0.99), (2.0, 0.98), (2.0, 0.97)])
@example([(-3.0, 1.2), (-2.0, 1.1), (-1.0, 1.05), (-0.5, 1.01)])
@example([(k * 1e6 / 399, _stock(k * 427.21 / 399)) for k in range(400)])
@example([(k * 1e-3 / 3, _stock(k * 427.21 / 3)) for k in range(4)])
# Rank-deficient once normalized: 5e-324 and 1e-323 are distinct times, but
# their squares are 0, so five distinct times make three distinct rows.
@example([(0.0, 1.0), (5e-324, 1.0), (1e-323, 1.0), (0.5, 0.9), (1.0, 0.7)])
def test_fit_matches_numpy_lstsq(samples):
    got = _outcome(fit_discharge_polynomial, samples)
    want = _outcome(_numpy_fit, samples)
    if got == UNDERDETERMINED and want != UNDERDETERMINED:
        # lstsq returns a minimum-norm fit of a rank-deficient matrix.
        assert _numpy_rank(samples) < 4
    elif isinstance(want, str):
        assert isinstance(got, str), (got, want)
        _same_message(got, want)
    else:
        assert not isinstance(got, str), (got, want)
        for g, w in zip(got, want):
            assert g == pytest.approx(w, rel=1e-12, abs=0.0), (got, want)


@pytest.mark.parametrize("order", [(0, 1, 2, 3), (3, 2, 1, 0), (0, 3, 1, 2)])
def test_rank_deficient_times_are_underdetermined(order):
    # 5e-324 and 1e-323 both normalize to 0 next to 1e308: four distinct
    # times, three distinct rows. Rounding leaves the dependent column a norm
    # of about 1e-17, not 0, in some row orders. numpy's fit raised
    # OverflowError here, on 1e308**2.
    samples = [(5e-324, 1.0), (1e-323, 0.99), (5e307, 0.8), (1e308, 0.7)]
    with pytest.raises(BatteryModelError, match="^underdetermined"):
        fit_discharge_polynomial([samples[k] for k in order])


@pytest.mark.parametrize("scale, outcome", [
    # The cubed scale overflows: the coefficients still rescale, to 0 at worst.
    (1e103, None),
    # The cubed scale underflows to 0: the curvature is beyond the float range.
    (1e-200, "coeffs must be four finite numbers"),
])
def test_time_scales_beyond_the_float_range_do_not_raise(scale, outcome):
    samples = [(k * scale, 1.0 - 0.1 * k) for k in range(4)]
    with pytest.raises(OverflowError if scale > 1 else ZeroDivisionError):
        _numpy_fit(samples)
    if outcome is None:
        model = fit_discharge_polynomial(samples)
        assert model.t_max == 3 * scale
        assert model.coeffs[1] == pytest.approx(-0.1 / scale, rel=1e-12)
        assert model.poly(3 * scale) == pytest.approx(0.7, rel=1e-12)
    else:
        with pytest.raises(BatteryModelError, match=outcome):
            fit_discharge_polynomial(samples)


@pytest.mark.parametrize("value", [None, "nan", float("inf")])
def test_non_finite_sample_values_keep_their_rejection(value):
    samples = [(0.0, 1.0), (1.0, 0.99), (2.0, 0.98), (3.0, value)]
    for fit in (_numpy_fit, fit_discharge_polynomial):
        with pytest.raises(BatteryModelError, match="^samples must be finite$"):
            fit(samples)


def test_charges_near_the_float_range_are_rejected_not_raised():
    # Unscaled, these charges' dot products would overflow math.fsum.
    samples = [(0.0, 5e307), (1.0, 5e307), (2.0, -5e307), (3.0, 1.7e308)]
    assert _outcome(fit_discharge_polynomial, samples) == _outcome(_numpy_fit, samples)
