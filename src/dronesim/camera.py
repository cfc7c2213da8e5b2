"""Forward-facing perspective camera that detects point light sources.

The camera maps lights and LEDs onto a fixed 320x320 pixel plane. A source
is detected iff both its horizontal and vertical view angles are within
half the aperture (boundary inclusive); there is no occlusion test. The
pixel mapping is tangent-linear (pinhole):

    u = clamp(floor((tan(th) / tan(aperture/2) + 1) * 160), 0, 319)

with th the horizontal angle (positive to the right of the optical axis)
and v computed the same way from the vertical angle, growing downward.
"""

from __future__ import annotations

import math
from operator import itemgetter
from typing import NamedTuple, Optional

from ._value import Value
from .geometry import Vec3

RESOLUTION = 320  # pixels per side, fixed
_HALF = RESOLUTION // 2


class CameraConfig(Value):
    """Full aperture and mount yaw offset (0 = forward along body x), in
    degrees; ``tan_half_aperture`` is derived from the aperture."""

    __slots__ = ("aperture_deg", "mount_yaw_offset_deg", "tan_half_aperture")
    _fields = __slots__[:2]
    _defaults = {"aperture_deg": 50.0, "mount_yaw_offset_deg": 0.0}

    def _validate(self):
        if not 0.0 < self.aperture_deg < 180.0:
            raise ValueError("aperture must be in (0, 180) degrees")
        if not math.isfinite(self.mount_yaw_offset_deg):
            raise ValueError("mount yaw offset must be finite")
        object.__setattr__(self, "tan_half_aperture",
                           math.tan(math.radians(self.aperture_deg / 2.0)))


class Detection(NamedTuple):
    u: int
    v: int
    color: tuple[int, int, int]
    source_id: str


def project_light(
    camera_position: Vec3,
    camera_yaw_deg: float,
    source_position: Vec3,
    config: CameraConfig,
) -> Optional[tuple[int, int]]:
    """Project a world-frame point onto the pixel plane, or None if out of view."""
    yaw = math.radians(camera_yaw_deg + config.mount_yaw_offset_deg)
    found = detect_sources(
        camera_position, math.cos(yaw), math.sin(yaw),
        config.tan_half_aperture,
        [(source_position[0], source_position[1], source_position[2], None, "")],
    )
    return (found[0].u, found[0].v) if found else None


# Sort key (u, v, source_id) and NamedTuple construction, both without a
# Python-level call per detection.
_detection_key = itemgetter(0, 1, 3)
_new_detection = tuple.__new__


def detect_sources(cam_pos, cos_yaw, sin_yaw, tan_half, sources) -> list[Detection]:
    """Detections of (x, y, z, color, source_id) sources, sorted by (u, v, id).

    Projection core shared with the world's capture loop (precomputed trig),
    which passes every capture of a tick the same source table, the camera's
    own LED included. A source must lie strictly in front of the plane
    through the camera across its optical axis, so one at the camera
    position is never detected.
    """
    cx, cy, cz = cam_pos
    last = RESOLUTION - 1
    out = []
    for sx, sy, sz, color, source_id in sources:
        dx = sx - cx
        dy = sy - cy
        # World -> camera frame: x forward, y left, z up.
        xc = cos_yaw * dx + sin_yaw * dy
        if xc <= 0.0:
            continue
        yc = -sin_yaw * dx + cos_yaw * dy
        # Image-plane tangents: right and down are positive.
        ty = -yc / xc
        tz = -(sz - cz) / xc
        if ty < -tan_half or ty > tan_half or tz < -tan_half or tz > tan_half:
            continue
        u = int((ty / tan_half + 1.0) * _HALF)
        v = int((tz / tan_half + 1.0) * _HALF)
        out.append(_new_detection(Detection, (
            u if u < last else last, v if v < last else last, color, source_id,
        )))
    out.sort(key=_detection_key)
    return out
