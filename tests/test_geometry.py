"""Angle conventions, projection and error metrics."""

from __future__ import annotations

import math

import numpy as np
import pytest

from headpose.geometry import (
    FORWARD,
    EulerPose,
    angular_error,
    mae,
    project_direction,
    rotation_matrix,
)


def random_poses(n, rng, yaw=178.0, pitch=178.0, roll=178.0):
    return [
        EulerPose(
            float(rng.uniform(-yaw, yaw)),
            float(rng.uniform(-pitch, pitch)),
            float(rng.uniform(-roll, roll)),
        )
        for _ in range(n)
    ]


class TestProjectDirection:
    def test_known_values(self):
        v = project_direction(EulerPose(30.0, 45.0, 12.0))
        assert v.x == pytest.approx(0.5, abs=1e-12)
        assert v.y == pytest.approx(-math.cos(math.radians(30)) * math.sin(math.radians(45)), abs=1e-12)
        assert v.y == pytest.approx(-math.sqrt(6) / 4, abs=1e-12)

    def test_axis_poses(self):
        assert project_direction(EulerPose(0, 0, 0)) == (0.0, 0.0)
        v = project_direction(EulerPose(90, 0, 0))
        assert v.x == pytest.approx(1.0, abs=1e-12) and v.y == pytest.approx(0.0, abs=1e-12)
        v = project_direction(EulerPose(0, 90, 0))
        assert v.x == pytest.approx(0.0, abs=1e-12) and v.y == pytest.approx(-1.0, abs=1e-12)
        # looking down 30 degrees moves the projection toward +y (screen down)
        v = project_direction(EulerPose(0, -30, 0))
        assert v.y == pytest.approx(0.5, abs=1e-12)

    def test_roll_never_enters(self):
        rng = np.random.default_rng(0)
        for pose in random_poses(50, rng, yaw=89, pitch=89):
            base = project_direction(EulerPose(pose.yaw, pose.pitch, 0.0))
            rolled = project_direction(pose)
            assert rolled.x == base.x and rolled.y == base.y

    def test_magnitude_at_most_one(self):
        rng = np.random.default_rng(1)
        for pose in random_poses(200, rng):
            v = project_direction(pose)
            assert math.hypot(v.x, v.y) <= 1.0 + 1e-12


class TestRotationMatrix:
    def test_orthonormal_unit_determinant(self):
        rng = np.random.default_rng(2)
        for pose in random_poses(100, rng):
            r = rotation_matrix(pose)
            assert np.allclose(r.T @ r, np.eye(3), atol=1e-12)
            assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-12)

    def test_forward_projection_consistency(self):
        # the rotated forward vector's image components are the projection
        rng = np.random.default_rng(3)
        for pose in random_poses(100, rng):
            moved = rotation_matrix(pose) @ FORWARD
            v = project_direction(pose)
            assert moved[0] == pytest.approx(v.x, abs=1e-12)
            assert moved[1] == pytest.approx(v.y, abs=1e-12)

    def test_identity_at_zero(self):
        assert np.allclose(rotation_matrix(EulerPose(0, 0, 0)), np.eye(3), atol=1e-15)


class TestErrors:
    def test_plain_absolute_difference(self):
        err = angular_error(EulerPose(10, -5, 3), EulerPose(4, 5, 3))
        assert err == (6.0, 10.0, 0.0)

    def test_no_wraparound(self):
        err = angular_error(EulerPose(179, 0, 0), EulerPose(-179, 0, 0))
        assert err[0] == 358.0

    def test_mae_single_triple(self):
        y, p, r, overall = mae([(3.04, 4.79, 3.21)])
        assert (y, p, r) == (3.04, 4.79, 3.21)
        assert overall == pytest.approx(3.68, abs=1e-12)

    def test_mae_averages_rows(self):
        y, p, r, overall = mae([(1, 2, 3), (3, 4, 5)])
        assert (y, p, r) == (2.0, 3.0, 4.0)
        assert overall == pytest.approx(3.0, abs=1e-15)

    def test_mae_empty_raises(self):
        with pytest.raises(ValueError):
            mae([])

    def test_mae_bad_shape_raises(self):
        with pytest.raises(ValueError):
            mae([(1.0, 2.0)])  # type: ignore[list-item]
