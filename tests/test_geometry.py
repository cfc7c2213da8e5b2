import math

import pytest

from dronesim.geometry import body_to_world, saturate, wrap_deg


def norm(v):
    return math.sqrt(v[0] * v[0] + v[1] * v[1] + v[2] * v[2])


def test_body_to_world_identity():
    assert body_to_world((1.0, 0.0, 0.0), 0.0) == (1.0, 0.0, 0.0)


def test_body_to_world_quarter_turn():
    v = body_to_world((1.0, 0.0, 0.0), 90.0)
    assert v == pytest.approx((0.0, 1.0, 0.0), abs=1e-12)


def test_body_to_world_half_turn_flips_signs():
    v = body_to_world((1.0, 2.0, 0.0), 180.0)
    assert v == pytest.approx((-1.0, -2.0, 0.0), abs=1e-12)


def test_body_to_world_preserves_norm_and_z():
    v = body_to_world((3.0, -4.0, 2.5), 37.0)
    assert v[2] == 2.5
    assert norm(v) == pytest.approx(norm((3.0, -4.0, 2.5)), abs=1e-12)


def test_saturate_axis_aligned_clamp():
    assert saturate((30.0, 0.0, 0.0), 10.0) == pytest.approx(
        (10.0, 0.0, 0.0), abs=1e-12
    )


def test_saturate_under_limit_is_identity():
    assert saturate((3.0, 4.0, 0.0), 10.0) == (3.0, 4.0, 0.0)


def test_saturate_scales_6_8_10_triangle():
    assert saturate((6.0, 8.0, 0.0), 5.0) == pytest.approx(
        (3.0, 4.0, 0.0), abs=1e-12
    )


def test_saturate_never_exceeds_limit():
    v = saturate((1.7, -2.9, 0.4), 0.25)
    assert norm(v) <= 0.25 + 1e-12


@pytest.mark.parametrize(
    "v,vmax",
    [
        ((1.5e308, 1.5e308, 0.0), 10.0),
        ((1.7e308, -1.7e308, 1.7e308), 2.0),
        ((-1.7976931348623157e308, 1e-300, 1.7976931348623157e308), 0.5),
    ],
)
def test_saturate_norm_beyond_float_range(v, vmax):
    # The squares and math.hypot both overflow; the direction is kept and
    # the result lands on the limit.
    got = saturate(v, vmax)
    assert math.hypot(*got) == pytest.approx(vmax, rel=1e-15)
    unit = [c / max(abs(c) for c in v) for c in v]
    assert got == pytest.approx([c * vmax / math.hypot(*unit) for c in unit], rel=1e-15)


def test_saturate_overflowing_squares_keep_hypot_bits():
    # The norm itself is finite: the result is vmax / hypot, as before.
    s = 10.0 / math.hypot(1e308, 1e308, 0.0)
    assert saturate((1e308, 1e308, 0.0), 10.0) == (1e308 * s, 1e308 * s, 0.0)


@pytest.mark.parametrize(
    "angle,expected",
    [
        (0.0, 0.0),
        (180.0, 180.0),
        (-180.0, 180.0),
        (185.0, -175.0),
        (-185.0, 175.0),
        (540.0, 180.0),
        (359.0, -1.0),
        (-720.0, 360.0 - 360.0),
    ],
)
def test_wrap_deg(angle, expected):
    assert wrap_deg(angle) == pytest.approx(expected, abs=1e-9)
    wrapped = wrap_deg(angle)
    assert -180.0 < wrapped <= 180.0


def test_wrap_deg_range_on_sweep():
    a = -1000.0
    while a < 1000.0:
        w = wrap_deg(a)
        assert -180.0 < w <= 180.0
        # wrapped value differs from the input by a multiple of 360
        r = math.fmod(abs(w - a), 360.0)
        assert min(r, 360.0 - r) == pytest.approx(0.0, abs=1e-9)
        a += 7.3
