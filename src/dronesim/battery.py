"""Cubic battery-discharge model.

The charge fraction of a flying drone follows a strictly decreasing cubic
P(t) = c0 + c1*t + c2*t^2 + c3*t^3 over flight seconds t in [0, t_max];
past t_max the reported charge is exactly 0 (the remaining energy cannot
sustain flight, so the curve bottoms out at the cutoff and drops).

Advancing a charge value by dt means locating the unique t on the curve
with P(t) = charge (bisection -- P is monotone there, so this is
unconditionally robust) and evaluating P(t + dt * load_factor).

The default coefficients are the solution of the 4x4 linear system
P(0) = 1.0, P(t_max) = 0.30, P'(0) = -0.0030, P'(t_max) = -0.0050 with
t_max = 427.21 s, solved once and embedded below; the constructor verifies
monotonicity numerically (``STOCK_MODEL``, the stock curve, is built once
without that check).
"""

from __future__ import annotations

import math

from ._value import Value

DEFAULT_COEFFS = (1.0, -0.003, 1.42421402327237e-05, -2.5877842137707736e-08)
DEFAULT_T_MAX = 427.21
DEFAULT_CUTOFF = 0.30

ROOT_TOL = 1e-9          # absolute tolerance on t, seconds
ROOT_MAX_ITER = 60
MONOTONE_SAMPLES = 1000
FULL_CHARGE_TOL = 0.05   # fitted curves may miss P(0) = 1 by this much


class BatteryModelError(ValueError):
    """Invalid battery model parameters or fit input."""


class BatteryModel(Value):
    """The curve's four coefficients, its t_max (s), the charge at t_max
    (derived from the curve when None) and the discharge speed-up."""

    __slots__ = ("coeffs", "t_max", "cutoff_charge", "load_factor")
    _defaults = {
        "coeffs": DEFAULT_COEFFS,
        "t_max": DEFAULT_T_MAX,
        "cutoff_charge": None,
        "load_factor": 1.0,
    }

    def _validate(self):
        if len(self.coeffs) != 4 or not all(math.isfinite(c) for c in self.coeffs):
            raise BatteryModelError("coeffs must be four finite numbers")
        if not (math.isfinite(self.t_max) and self.t_max > 0.0):
            raise BatteryModelError("t_max must be positive and finite")
        if not (math.isfinite(self.load_factor) and self.load_factor > 0.0):
            raise BatteryModelError("load_factor must be positive")
        _check_monotone(self.coeffs, self.t_max)
        if self.cutoff_charge is None:
            object.__setattr__(self, "cutoff_charge", self.poly(self.t_max))
        elif not abs(self.poly(self.t_max) - self.cutoff_charge) <= 1e-6:
            raise BatteryModelError(
                f"cutoff_charge {self.cutoff_charge} does not match "
                f"P(t_max) = {self.poly(self.t_max)!r}"
            )
        if abs(self.poly(0.0) - 1.0) > FULL_CHARGE_TOL:
            raise BatteryModelError(
                f"P(0) = {self.poly(0.0)!r} is too far from full charge 1.0"
            )
        if self.cutoff_charge < 0.0:
            raise BatteryModelError("charge at t_max must be non-negative")

    def poly(self, t: float) -> float:
        """Raw cubic value at t (no cutoff handling)."""
        c0, c1, c2, c3 = self.coeffs
        return c0 + t * (c1 + t * (c2 + t * c3))

    def charge_at(self, t: float) -> float:
        """Reported charge after t flight seconds: P(t) before t_max, else 0."""
        if t >= self.t_max:
            return 0.0
        c = self.poly(t)
        return c if c > 0.0 else 0.0

    def invert_charge(self, charge: float) -> float:
        """The flight time t in [0, t_max] with P(t) = charge.

        Charges at or below the cutoff map to t_max; charges at or above
        P(0) map to 0. Bisection to ROOT_TOL seconds otherwise.
        """
        if not 0.0 <= charge <= 1.0:
            raise BatteryModelError(f"charge {charge} outside [0, 1]")
        if charge >= self.poly(0.0):
            return 0.0
        if charge <= self.cutoff_charge:
            return self.t_max
        lo, hi = 0.0, self.t_max
        for _ in range(ROOT_MAX_ITER):
            mid = 0.5 * (lo + hi)
            if self.poly(mid) > charge:
                lo = mid
            else:
                hi = mid
            if hi - lo <= ROOT_TOL:
                break
        return 0.5 * (lo + hi)


# The stock curve, built once and unchecked: it passes _validate (the tests
# pin it against a validated BatteryModel()), so importing it costs no
# 1000-sample monotonicity scan.
STOCK_MODEL = BatteryModel._unchecked(DEFAULT_COEFFS, DEFAULT_T_MAX, None, 1.0)
object.__setattr__(STOCK_MODEL, "cutoff_charge", STOCK_MODEL.poly(DEFAULT_T_MAX))


def battery_next_charge(model: BatteryModel, current_charge: float, dt: float) -> float:
    """Advance a charge fraction by dt seconds of flight.

    Finds the curve time for the current charge with ``invert_charge``
    (which rejects a charge outside [0, 1] before dt is checked, and maps 0
    and any charge at or below the cutoff to t_max), then returns
    ``charge_at`` one step later -- exactly 0 from t_max on.
    """
    t = model.invert_charge(current_charge)
    if dt <= 0.0:
        raise BatteryModelError("dt must be > 0")
    return model.charge_at(t + dt * model.load_factor)


def battery_time_to_empty(model: BatteryModel, charge: float) -> float:
    """Remaining flight seconds until the reported charge hits 0."""
    remaining = model.t_max - model.invert_charge(charge)
    return remaining if remaining > 0.0 else 0.0


def fit_discharge_polynomial(
    samples: list[tuple[float, float]],
    t_max: float | None = None,
    load_factor: float = 1.0,
) -> BatteryModel:
    """Least-squares cubic fit of (flight seconds, charge fraction) samples.

    The fit is reported raw (no rescaling to force P(0) = 1); the resulting
    model must still pass BatteryModel validation, in particular strict
    monotonic decrease over [0, t_max]. t_max defaults to the largest sample
    time. Raises BatteryModelError for under-determined input or a fit that
    fails validation.
    """
    import numpy as np  # only the fit needs it; keeps `import dronesim` light

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


def _check_monotone(coeffs, t_max):
    """Reject polynomials that are not strictly decreasing on [0, t_max]."""
    c0, c1, c2, c3 = coeffs
    if c1 >= 0.0:
        raise BatteryModelError(
            "discharge polynomial is not strictly decreasing on [0, 0] s"
        )
    prev_t = 0.0
    prev_v = c0
    for k in range(1, MONOTONE_SAMPLES + 1):
        t = t_max * k / MONOTONE_SAMPLES
        v = c0 + t * (c1 + t * (c2 + t * c3))
        dp = c1 + t * (2.0 * c2 + t * 3.0 * c3)
        if v >= prev_v or dp >= 0.0:
            raise BatteryModelError(
                f"discharge polynomial is not strictly decreasing on "
                f"[{prev_t:.6g}, {t:.6g}] s"
            )
        prev_t = t
        prev_v = v
