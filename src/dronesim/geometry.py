"""Small 3D vector and angle helpers shared by the controllers and sensors.

Vectors are plain ``(x, y, z)`` float tuples; yaw angles are degrees with the
convention that positive yaw rotates counter-clockwise about +z (seen from
above) and the wrapped range is (-180, 180].
"""

from __future__ import annotations

import math

Vec3 = tuple[float, float, float]

ZERO3: Vec3 = (0.0, 0.0, 0.0)


def wrap_deg(angle: float) -> float:
    """Wrap an angle in degrees to (-180, 180].

    Exact identity for angles already in range (no round-off drift).
    """
    if -180.0 < angle <= 180.0:
        return angle
    return _fmod_wrap_deg(angle)


def _fmod_wrap_deg(angle: float) -> float:
    """Wrap to (-180, 180] always through fmod, in-range angles included
    (they may move in the last bit): the bits that reported yaw errors and
    RAB bearings keep."""
    r = math.fmod(angle + 180.0, 360.0)
    if r <= 0.0:
        r += 360.0
    return r - 180.0


def body_to_world(v: Vec3, yaw_deg: float) -> Vec3:
    """Rotate a body-frame vector into the world frame by the drone's yaw.

    The z component is unchanged; the norm is preserved.
    """
    rad = math.radians(yaw_deg)
    c = math.cos(rad)
    s = math.sin(rad)
    return (c * v[0] - s * v[1], s * v[0] + c * v[1], v[2])


def saturate(v: Vec3, vmax: float) -> Vec3:
    """Clamp a vector's magnitude to ``vmax``, preserving its direction."""
    x, y, z = v
    n = math.sqrt(x * x + y * y + z * z)
    if n <= vmax:
        return v
    if n == math.inf:
        # The squares overflowed; hypot does not (it is inf only for an
        # infinite component or a norm beyond the float range).
        n = math.hypot(x, y, z)
        m = max(abs(x), abs(y), abs(z))
        if n == math.inf and m < math.inf:
            # A finite vector longer than the float range: measure it in
            # units of its largest component.
            x /= m
            y /= m
            z /= m
            n = math.hypot(x, y, z)
    s = vmax / n
    return (x * s, y * s, z * s)


def is_finite3(v) -> bool:
    return (
        len(v) == 3
        and math.isfinite(v[0])
        and math.isfinite(v[1])
        and math.isfinite(v[2])
    )
