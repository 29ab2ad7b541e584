"""Synthetic data generator: projection geometry, noise, occlusion, drops."""

from __future__ import annotations

import numpy as np
import pytest
from scipy.optimize import least_squares

from headpose.geometry import EulerPose
from headpose.keypoints import present_count
from headpose.synthetic import (
    CANONICAL_HEAD,
    LEFT_EAR,
    MIN_KEEP,
    PIXELS_PER_UNIT,
    RIGHT_EAR,
    NoiseModel,
    PoseRange,
    Sample,
    drop_augment,
    generate_dataset,
    generate_sample,
    project_head,
)

MIRROR_SWAP = [0, 2, 1, 4, 3]  # nose, eyes swapped, ears swapped


class TestHeadModel:
    def test_shape_and_symmetry(self):
        assert CANONICAL_HEAD.shape == (5, 3)
        # left/right pairs mirror in x, match in y and z
        mirrored = CANONICAL_HEAD[MIRROR_SWAP] * np.array([-1.0, 1.0, 1.0])
        assert np.array_equal(CANONICAL_HEAD, mirrored)

    def test_layout(self):
        assert CANONICAL_HEAD[0, 0] == 0.0  # nose on the mid-line
        assert CANONICAL_HEAD[1, 0] < 0 < CANONICAL_HEAD[2, 0]  # eyes straddle it
        assert CANONICAL_HEAD[LEFT_EAR, 0] < 0 < CANONICAL_HEAD[RIGHT_EAR, 0]
        # eyes and nose sit forward (negative z), ears behind
        assert np.all(CANONICAL_HEAD[:3, 2] < 0) and np.all(CANONICAL_HEAD[3:, 2] > 0)


class TestProjection:
    def test_identity_pose_is_scaled_head(self):
        pts = project_head(EulerPose(0, 0, 0))
        assert PIXELS_PER_UNIT == 100.0
        assert np.allclose(pts, CANONICAL_HEAD[:, :2] * 100.0, atol=1e-12)

    def test_mirror_symmetry(self):
        # negating yaw and roll mirrors the image and swaps left/right points
        rng = np.random.default_rng(0)
        for _ in range(100):
            y, p, r = rng.uniform(-75, 75), rng.uniform(-60, 60), rng.uniform(-40, 40)
            a = project_head(EulerPose(y, p, r))
            b = project_head(EulerPose(-y, p, -r))
            mirrored = np.stack([-b[MIRROR_SWAP, 0], b[MIRROR_SWAP, 1]], axis=1)
            assert np.allclose(a, mirrored, atol=1e-12)

    def test_pose_recoverable_from_projection(self):
        # five projected points pin the pose down; a local solver finds it
        rng = np.random.default_rng(1)
        for _ in range(5):
            true = EulerPose(
                float(rng.uniform(-70, 70)),
                float(rng.uniform(-55, 55)),
                float(rng.uniform(-35, 35)),
            )
            obs = project_head(true)
            sol = least_squares(
                lambda v: (project_head(EulerPose(*v)) - obs).ravel(),
                x0=np.zeros(3),
                method="lm",
            )
            assert np.allclose(sol.x, [true.yaw, true.pitch, true.roll], atol=1e-6)

    def test_yaw_turn_moves_nose(self):
        # turning toward +x moves the projected nose to +x
        assert project_head(EulerPose(40, 0, 0))[0, 0] > 10.0
        assert project_head(EulerPose(-40, 0, 0))[0, 0] < -10.0


class TestNoiseModel:
    def test_sigma_grows_with_yaw(self):
        nm = NoiseModel(base_sigma=1.0, yaw_gain=0.05)
        assert nm.sigma(0.0) == 1.0
        assert nm.sigma(40.0) == 1.0 + 2.0
        assert nm.sigma(-40.0) == nm.sigma(40.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            NoiseModel(base_sigma=-0.1)
        with pytest.raises(ValueError):
            NoiseModel(yaw_gain=-0.1)

    def test_empirical_noise_scale(self):
        nm = NoiseModel(base_sigma=2.0, yaw_gain=0.05)
        pose = EulerPose(40.0, 10.0, 5.0)
        clean = project_head(pose)
        rng = np.random.default_rng(2)
        devs = []
        for _ in range(2000):
            s = generate_sample(pose, rng, noise=nm)
            got = np.array([[p.x1, p.x2] for p in s.keypoints.points])
            devs.append(got - clean)
        measured = np.std(np.stack(devs))
        assert measured == pytest.approx(nm.sigma(40.0), rel=0.05)

    def test_zero_noise_is_exact(self):
        pose = EulerPose(30, -20, 10)
        s = generate_sample(pose, np.random.default_rng(3))
        got = np.array([[p.x1, p.x2] for p in s.keypoints.points])
        assert np.array_equal(got, project_head(pose))


class TestPoseRange:
    def test_defaults(self):
        pr = PoseRange()
        assert (pr.yaw, pr.pitch, pr.roll) == (75.0, 60.0, 40.0)

    def test_samples_inside_box(self):
        pr = PoseRange(yaw=30, pitch=20, roll=10)
        rng = np.random.default_rng(4)
        for _ in range(200):
            pose = pr.sample(rng)
            assert abs(pose.yaw) <= 30 and abs(pose.pitch) <= 20 and abs(pose.roll) <= 10

    def test_validation(self):
        with pytest.raises(ValueError):
            PoseRange(yaw=-1.0)
        with pytest.raises(ValueError):
            PoseRange(pitch=181.0)


class TestOcclusion:
    def test_far_ear_hidden_past_threshold(self):
        rng = np.random.default_rng(5)
        # facing +x hides the ear on that side, and vice versa
        s = generate_sample(EulerPose(61, 0, 0), rng)
        pt = s.keypoints.points[RIGHT_EAR]
        assert (pt.x1, pt.x2, pt.c) == (0.0, 0.0, 0.0)
        assert present_count(s.keypoints) == 4
        s = generate_sample(EulerPose(-61, 0, 0), rng)
        assert s.keypoints.points[LEFT_EAR].c == 0.0

    def test_frontal_poses_keep_all_points(self):
        s = generate_sample(EulerPose(59.9, 0, 0), np.random.default_rng(6))
        assert present_count(s.keypoints) == 5

    def test_threshold_configurable(self):
        s = generate_sample(EulerPose(35, 0, 0), np.random.default_rng(7), occlusion_yaw=30.0)
        assert s.keypoints.points[RIGHT_EAR].c == 0.0

    def test_visible_confidence_in_upper_half(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            s = generate_sample(EulerPose(10, 5, 0), rng)
            for p in s.keypoints.points:
                assert 0.5 < p.c <= 1.0


class TestDropAugment:
    def test_keeps_between_min_and_present(self):
        rng = np.random.default_rng(9)
        base = generate_sample(EulerPose(0, 0, 0), rng)
        for _ in range(100):
            out = drop_augment(base, rng)
            assert MIN_KEEP == 2 <= present_count(out.keypoints) <= 4

    def test_pose_preserved(self):
        rng = np.random.default_rng(10)
        base = generate_sample(EulerPose(12, 3, -4), rng)
        assert drop_augment(base, rng).pose == base.pose

    def test_no_op_at_min(self):
        rng = np.random.default_rng(11)
        base = generate_sample(EulerPose(0, 0, 0), rng)
        two = drop_augment(drop_augment(base, rng), rng)
        while present_count(two.keypoints) > MIN_KEEP:
            two = drop_augment(two, rng)
        assert drop_augment(two, rng) is two


class TestGenerateDataset:
    def test_length_and_labels(self):
        samples = generate_dataset(20, np.random.default_rng(12))
        assert len(samples) == 20
        assert all(isinstance(s, Sample) for s in samples)

    def test_n_must_be_positive(self):
        with pytest.raises(ValueError):
            generate_dataset(0, np.random.default_rng(13))

    def test_drop_fraction_bounds(self):
        with pytest.raises(ValueError):
            generate_dataset(5, np.random.default_rng(14), drop_fraction=1.5)

    def test_no_drops_by_default(self):
        samples = generate_dataset(
            200, np.random.default_rng(15), pose_range=PoseRange(yaw=50)
        )
        assert all(present_count(s.keypoints) == 5 for s in samples)

    def test_drop_fraction_produces_small_counts(self):
        samples = generate_dataset(300, np.random.default_rng(16), drop_fraction=1.0)
        counts = {present_count(s.keypoints) for s in samples}
        assert counts >= {2, 3, 4}

    def test_deterministic(self):
        a = generate_dataset(30, np.random.default_rng(17), noise=NoiseModel(1.0, 0.05))
        b = generate_dataset(30, np.random.default_rng(17), noise=NoiseModel(1.0, 0.05))
        assert a == b

    def test_poses_respect_range(self):
        pr = PoseRange(yaw=10, pitch=10, roll=10)
        for s in generate_dataset(100, np.random.default_rng(18), pose_range=pr):
            assert abs(s.pose.yaw) <= 10 and abs(s.pose.pitch) <= 10 and abs(s.pose.roll) <= 10
