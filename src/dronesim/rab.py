"""Range-and-bearing broadcast medium.

A message sent at tick k is delivered at tick k+1 to every other drone
within the sender's configured range (0 = unlimited), measured at delivery
time. Each receiver learns the distance and the direction of the sender in
its own body frame: the horizontal bearing is positive to the receiver's
left, the vertical bearing is the elevation angle.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from ._value import Value
from .geometry import Vec3


class RabConfig(Value):
    """Broadcast range in metres (0 means unlimited) and the largest
    payload in bytes."""

    __slots__ = ("range_m", "payload_max")
    _defaults = {"range_m": 0.0, "payload_max": 16}

    def _validate(self):
        if self.range_m < 0.0:
            raise ValueError("range must be >= 0")
        if not math.isfinite(self.range_m):
            raise ValueError("range must be finite")
        if self.payload_max < 1:
            raise ValueError("payload_max must be >= 1")


class RabReading(NamedTuple):
    range_m: float
    horizontal_bearing_deg: float
    vertical_bearing_deg: float
    payload: bytes
    sender_id: str


# Same product as math.degrees, without the call.
_RAD_TO_DEG = 180.0 / math.pi
_atan2, _fmod, _hypot, _sqrt = math.atan2, math.fmod, math.hypot, math.sqrt
# NamedTuple construction without the generated __new__ wrapper.
_new_reading = tuple.__new__


class PayloadError(ValueError):
    """Message payload exceeds the configured maximum."""


def make_reading(
    receiver_position: Vec3,
    receiver_yaw_deg: float,
    sender_position: Vec3,
    payload: bytes,
    sender_id: str,
) -> RabReading:
    """Build the reading a receiver gets for a delivered message."""
    rx, ry, rz = receiver_position
    sx, sy, sz = sender_position
    dx = sx - rx
    dy = sy - ry
    dz = sz - rz
    horiz = _hypot(dx, dy)
    rng = _sqrt(dx * dx + dy * dy + dz * dz)
    bearing = _atan2(dy, dx) * _RAD_TO_DEG - receiver_yaw_deg
    # Wrap to (-180, 180]. Always through fmod, unlike geometry.wrap_deg: for
    # in-range angles the two differ in the last bit, and perfbench's sensor
    # CRC pins the bits of every reading.
    bearing = _fmod(bearing + 180.0, 360.0)
    if bearing <= 0.0:
        bearing += 360.0
    bearing -= 180.0
    elevation = _atan2(dz, horiz) * _RAD_TO_DEG
    return _new_reading(RabReading, (rng, bearing, elevation, payload, sender_id))
