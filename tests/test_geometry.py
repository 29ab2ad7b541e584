"""Angle conventions, projection and error metrics."""

from __future__ import annotations

import math

import numpy as np
import pytest

from headpose.geometry import (
    EulerPose,
    angular_error,
    mae,
    project_direction,
    rotation_matrix,
)

import synthetic_reference


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


def pose_array(poses):
    return np.array([(p.yaw, p.pitch, p.roll) for p in poses])


class TestRotationMatrix:
    def test_orthonormal_unit_determinant(self):
        rng = np.random.default_rng(2)
        rs = rotation_matrix(pose_array(random_poses(100, rng)))
        assert rs.shape == (100, 3, 3)
        assert np.allclose(np.swapaxes(rs, 1, 2) @ rs, np.eye(3), atol=1e-12)
        assert np.allclose(np.linalg.det(rs), 1.0, atol=1e-12)

    def test_forward_projection_consistency(self):
        # the rotated forward vector's image components are the projection
        forward = np.array([0.0, 0.0, -1.0])
        rng = np.random.default_rng(3)
        poses = random_poses(100, rng)
        moved = rotation_matrix(pose_array(poses)) @ forward
        for pose, m in zip(poses, moved):
            v = project_direction(pose)
            assert m[0] == pytest.approx(v.x, abs=1e-12)
            assert m[1] == pytest.approx(v.y, abs=1e-12)

    def test_identity_at_zero(self):
        assert np.allclose(rotation_matrix(np.zeros(3)), np.eye(3), atol=1e-15)
        assert np.allclose(rotation_matrix(np.zeros((2, 4, 3))), np.eye(3), atol=1e-15)

    def test_batch_equals_scalar_math_bit_for_bit(self):
        # each (3, 3) of the stack is the one math.sin/math.cos give for its
        # pose alone, composed the same way
        rng = np.random.default_rng(4)
        poses = random_poses(2000, rng)
        stack = rotation_matrix(pose_array(poses))
        for pose, r in zip(poses, stack):
            assert r.tobytes() == synthetic_reference.rotation_matrix(pose).tobytes()


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
