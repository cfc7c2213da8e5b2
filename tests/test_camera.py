import math

import pytest

from dronesim.camera import CameraConfig, RESOLUTION, project_light

ORIGIN = (0.0, 0.0, 1.0)
CFG = CameraConfig()

# The calibration geometry: lights 2 m ahead, offset to sit exactly on the
# 25-degree half-aperture boundary (max pairwise separation 1.8652 m).
DEPTH = 2.0
OFFSET = 0.9326


def at(y=0.0, dz=0.0, depth=DEPTH):
    return (depth, y, ORIGIN[2] + dz)


class TestProjectLight:
    def test_dead_ahead_maps_to_center(self):
        assert project_light(ORIGIN, 0.0, at(), CFG) == (160, 160)

    def test_left_boundary_light(self):
        # 25 degrees to the left: left edge of the plane, v at center.
        u, v = project_light(ORIGIN, 0.0, at(y=+OFFSET), CFG)
        assert u == 0
        # reported (0,159) on hardware; fixed mapping must agree within 1 px
        assert abs(v - 159) <= 1

    def test_right_boundary_light(self):
        u, v = project_light(ORIGIN, 0.0, at(y=-OFFSET), CFG)
        assert u == RESOLUTION - 1
        assert abs(v - 159) <= 1

    def test_top_boundary_light(self):
        u, v = project_light(ORIGIN, 0.0, at(dz=+OFFSET), CFG)
        assert abs(u - 160) <= 1
        assert v == 0

    def test_bottom_boundary_light(self):
        u, v = project_light(ORIGIN, 0.0, at(dz=-OFFSET), CFG)
        assert abs(u - 160) <= 1
        assert abs(v - 318) <= 1

    def test_beyond_aperture_not_detected(self):
        # 1.0 m lateral at 2 m depth is atan(0.5) = 26.57 deg > 25 deg.
        assert project_light(ORIGIN, 0.0, at(y=1.0), CFG) is None

    def test_slightly_beyond_boundary_not_detected(self):
        angle = math.radians(25.1)
        assert project_light(ORIGIN, 0.0, at(y=DEPTH * math.tan(angle)), CFG) is None

    def test_boundary_inclusive(self):
        angle = math.radians(25.0)
        y = DEPTH * math.tan(angle) * (1.0 - 1e-12)
        assert project_light(ORIGIN, 0.0, at(y=y), CFG) is not None

    def test_behind_camera_not_detected(self):
        assert project_light(ORIGIN, 0.0, (-2.0, 0.0, 1.0), CFG) is None

    def test_yaw_rotates_view(self):
        # Camera turned 90 degrees: a light on +y is now dead ahead. Trig
        # round-off may land the exact center on either side of the 159/160
        # pixel boundary.
        u, v = project_light(ORIGIN, 90.0, (0.0, 2.0, 1.0), CFG)
        assert abs(u - 160) <= 1 and v == 160
        assert project_light(ORIGIN, 90.0, (2.0, 0.0, 1.0), CFG) is None

    def test_mount_offset_rotates_view(self):
        cfg = CameraConfig(mount_yaw_offset_deg=90.0)
        u, v = project_light(ORIGIN, 0.0, (0.0, 2.0, 1.0), cfg)
        assert abs(u - 160) <= 1 and v == 160

    def test_u_monotone_in_horizontal_angle(self):
        previous = -1
        for k in range(-24, 25):
            y = -DEPTH * math.tan(math.radians(k))  # positive angle = right
            u, _ = project_light(ORIGIN, 0.0, at(y=y), CFG)
            assert u >= previous
            previous = u

    def test_symmetric_sources_map_symmetrically(self):
        for frac in (0.1, 0.35, 0.7, 0.99):
            y = OFFSET * frac
            ul, _ = project_light(ORIGIN, 0.0, at(y=+y), CFG)
            ur, _ = project_light(ORIGIN, 0.0, at(y=-y), CFG)
            # mirror about the 159.5 pixel center within one pixel
            assert abs((ul + ur) - (RESOLUTION - 1)) <= 1

    def test_aperture_validation(self):
        with pytest.raises(ValueError):
            CameraConfig(aperture_deg=0.0)
        with pytest.raises(ValueError):
            CameraConfig(aperture_deg=180.0)

    def test_aperture_whose_half_tangent_is_zero_is_rejected(self):
        # Such an aperture passed, and every capture then divided by its
        # tangent (ZeroDivisionError in detect_sources).
        with pytest.raises(ValueError, match="too narrow"):
            CameraConfig(aperture_deg=1e-323)
        with pytest.raises(ValueError, match="too narrow"):
            CameraConfig(aperture_deg=math.nextafter(2.87e-322, 0.0))
        narrowest = CameraConfig(aperture_deg=2.87e-322)
        assert narrowest.tan_half_aperture == 5e-324
        assert project_light(ORIGIN, 0.0, at(), narrowest) == (160, 160)

    def test_narrow_aperture(self):
        cfg = CameraConfig(aperture_deg=10.0)
        assert project_light(ORIGIN, 0.0, at(y=OFFSET), cfg) is None
        assert project_light(ORIGIN, 0.0, at(), cfg) == (160, 160)
