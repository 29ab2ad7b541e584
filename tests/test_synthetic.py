"""Synthetic data generator: projection geometry, noise, occlusion, drops."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import least_squares

from headpose.synthetic import (
    CANONICAL_HEAD,
    LEFT_EAR,
    MIN_KEEP,
    PIXELS_PER_UNIT,
    RIGHT_EAR,
    NoiseModel,
    PoseRange,
    Sample,
    generate_dataset,
    project_head,
    synthesize,
)

import synthetic_reference

MIRROR_SWAP = [0, 2, 1, 4, 3]  # nose, eyes swapped, ears swapped
NO_OCCLUSION = 180.0  # an occlusion yaw that no pose exceeds


def present(data):
    """(N,) count of points with confidence > 0 per record."""
    return (data.keypoints[:, :, 2] > 0.0).sum(axis=1)


def projected(data):
    """(N, 5, 2) noise-free pixel positions of each record's pose."""
    return project_head(data.poses)


def residual_over_sigma(data, noise):
    """(N, 5, 2) pixel noise of each point, divided by its record's sigma."""
    sigma = noise.base_sigma + noise.yaw_gain * np.abs(data.poses[:, 0])
    return (data.keypoints[:, :, :2] - projected(data)) / sigma[:, None, None]


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
        pts = project_head(np.zeros(3))
        assert PIXELS_PER_UNIT == 100.0
        assert np.allclose(pts, CANONICAL_HEAD[:, :2] * 100.0, atol=1e-12)

    def test_mirror_symmetry(self):
        # negating yaw and roll mirrors the image and swaps left/right points
        rng = np.random.default_rng(0)
        poses = rng.uniform(-1.0, 1.0, size=(100, 3)) * [75, 60, 40]
        a = project_head(poses)
        b = project_head(poses * [-1, 1, -1])
        mirrored = np.stack([-b[:, MIRROR_SWAP, 0], b[:, MIRROR_SWAP, 1]], axis=2)
        assert np.allclose(a, mirrored, atol=1e-12)

    def test_pose_recoverable_from_projection(self):
        # five projected points pin the pose down; a local solver finds it
        rng = np.random.default_rng(1)
        for _ in range(5):
            true = rng.uniform(-1.0, 1.0, size=3) * [70, 55, 35]
            obs = project_head(true)
            sol = least_squares(
                lambda v: (project_head(v) - obs).ravel(),
                x0=np.zeros(3),
                method="lm",
            )
            assert np.allclose(sol.x, true, atol=1e-6)

    def test_yaw_turn_moves_nose(self):
        # turning toward +x moves the projected nose to +x
        assert project_head(np.array([40.0, 0, 0]))[0, 0] > 10.0
        assert project_head(np.array([-40.0, 0, 0]))[0, 0] < -10.0


class TestNoiseModel:
    def test_sigma_grows_with_yaw(self):
        nm = NoiseModel(base_sigma=1.0, yaw_gain=0.05)
        assert nm.sigma(0.0) == 1.0
        assert nm.sigma(40.0) == 1.0 + 2.0
        assert nm.sigma(-40.0) == nm.sigma(40.0)
        # the records' pixel noise spreads wider at large |yaw|
        data = synthesize(3000, np.random.default_rng(2), noise=nm, occlusion_yaw=NO_OCCLUSION)
        noise = data.keypoints[:, :, :2] - projected(data)
        yaw = np.abs(data.poses[:, 0])
        near, far = noise[yaw < 20].std(), noise[yaw > 55].std()
        assert near == pytest.approx(nm.sigma(10.0), rel=0.1)
        assert far == pytest.approx(nm.sigma(65.0), rel=0.1)

    def test_validation(self):
        with pytest.raises(ValueError):
            NoiseModel(base_sigma=-0.1)
        with pytest.raises(ValueError):
            NoiseModel(yaw_gain=-0.1)

    def test_empirical_noise_scale(self):
        nm = NoiseModel(base_sigma=2.0, yaw_gain=0.05)
        data = synthesize(2000, np.random.default_rng(2), noise=nm, occlusion_yaw=NO_OCCLUSION)
        assert np.std(residual_over_sigma(data, nm)) == pytest.approx(1.0, rel=0.05)

    def test_zero_noise_is_exact(self):
        data = synthesize(200, np.random.default_rng(3), occlusion_yaw=NO_OCCLUSION)
        assert np.array_equal(data.keypoints[:, :, :2], projected(data))


class TestPoseRange:
    def test_defaults(self):
        pr = PoseRange()
        assert (pr.yaw, pr.pitch, pr.roll) == (75.0, 60.0, 40.0)

    def test_samples_inside_box(self):
        data = synthesize(200, np.random.default_rng(4), pose_range=PoseRange(30, 20, 10))
        assert (np.abs(data.poses) <= [30, 20, 10]).all()

    def test_validation(self):
        with pytest.raises(ValueError):
            PoseRange(yaw=-1.0)
        with pytest.raises(ValueError):
            PoseRange(pitch=181.0)

    def test_negative_zero_is_zero(self):
        # -0.0 passes the range check; it must act as the half-width 0
        a = synthesize(20, np.random.default_rng(5), pose_range=PoseRange(-0.0, -0.0, -0.0))
        b = synthesize(20, np.random.default_rng(5), pose_range=PoseRange(0.0, 0.0, 0.0))
        assert a.keypoints.tobytes() == b.keypoints.tobytes()
        assert a.poses.tobytes() == b.poses.tobytes()


class TestOcclusion:
    def test_far_ear_hidden_past_threshold(self):
        data = synthesize(2000, np.random.default_rng(5))
        yaw = data.poses[:, 0]
        # facing +x hides the ear on that side, and vice versa: emitted as zeros
        assert (yaw > 60).any() and (yaw < -60).any()
        assert (data.keypoints[yaw > 60, RIGHT_EAR] == 0.0).all()
        assert (data.keypoints[yaw < -60, LEFT_EAR] == 0.0).all()
        assert (present(data)[np.abs(yaw) > 60] == 4).all()

    def test_frontal_poses_keep_all_points(self):
        data = synthesize(500, np.random.default_rng(6), pose_range=PoseRange(yaw=60.0))
        assert (present(data) == 5).all()

    def test_threshold_configurable(self):
        data = synthesize(500, np.random.default_rng(7), occlusion_yaw=30.0)
        yaw = data.poses[:, 0]
        assert (data.keypoints[yaw > 30, RIGHT_EAR, 2] == 0.0).all()
        assert (data.keypoints[yaw <= 30, RIGHT_EAR, 2] > 0.0).all()

    def test_visible_confidence_in_upper_half(self):
        data = synthesize(500, np.random.default_rng(8), pose_range=PoseRange(yaw=50))
        c = data.keypoints[:, :, 2]
        assert ((0.5 < c) & (c <= 1.0)).all()


class TestDropAugment:
    def test_keeps_between_min_and_present(self):
        # a drop keeps at least MIN_KEEP and removes at least one point
        data = synthesize(1000, np.random.default_rng(9), drop_fraction=1.0)
        hidden = np.abs(data.poses[:, 0]) > 60
        assert hidden.any()
        assert MIN_KEEP == 2
        assert ((MIN_KEEP <= present(data)) & (present(data) <= 4 - hidden)).all()

    def test_pose_preserved(self):
        # a drop zeroes confidences only: every shown point, dropped or not,
        # sits where the record's pose projects it
        data = synthesize(500, np.random.default_rng(10), drop_fraction=1.0,
                          occlusion_yaw=NO_OCCLUSION)
        assert (present(data) < 5).all()
        assert np.array_equal(data.keypoints[:, :, :2], projected(data))

    def test_no_op_at_min(self):
        # with an ear hidden on nearly every record, drops still stop at MIN_KEEP
        data = synthesize(1000, np.random.default_rng(11), drop_fraction=1.0, occlusion_yaw=0.0)
        assert present(data).min() == MIN_KEEP


class TestGenerateDataset:
    def test_length_and_labels(self):
        data = synthesize(20, np.random.default_rng(12))
        assert len(data) == 20 and data.has_pose.all()
        samples = generate_dataset(20, np.random.default_rng(12))
        assert all(isinstance(s, Sample) for s in samples)
        assert synthetic_reference.dataset(samples).keypoints.tobytes() == data.keypoints.tobytes()
        assert [[s.pose.yaw, s.pose.pitch, s.pose.roll] for s in samples] == data.poses.tolist()

    def test_n_must_be_positive(self):
        with pytest.raises(ValueError):
            synthesize(0, np.random.default_rng(13))
        with pytest.raises(ValueError):
            generate_dataset(0, np.random.default_rng(13))

    def test_drop_fraction_bounds(self):
        with pytest.raises(ValueError):
            synthesize(5, np.random.default_rng(14), drop_fraction=1.5)

    def test_no_drops_by_default(self):
        data = synthesize(200, np.random.default_rng(15), pose_range=PoseRange(yaw=50))
        assert (present(data) == 5).all()

    def test_drop_fraction_produces_small_counts(self):
        data = synthesize(300, np.random.default_rng(16), drop_fraction=1.0)
        assert set(present(data).tolist()) >= {2, 3, 4}

    def test_deterministic(self):
        a = synthesize(30, np.random.default_rng(17), noise=NoiseModel(1.0, 0.05))
        b = synthesize(30, np.random.default_rng(17), noise=NoiseModel(1.0, 0.05))
        assert a.ids == b.ids
        assert a.keypoints.tobytes() == b.keypoints.tobytes()
        assert a.poses.tobytes() == b.poses.tobytes()

    def test_poses_respect_range(self):
        pr = PoseRange(yaw=10, pitch=10, roll=10)
        data = synthesize(100, np.random.default_rng(18), pose_range=pr)
        assert (np.abs(data.poses) <= 10).all()


ORACLE_CONFIGS = {
    "default": {},
    "noise": dict(noise=NoiseModel(1.0, 0.05)),
    "noise_drops": dict(noise=NoiseModel(1.0, 0.05), drop_fraction=0.3),
    "wide": dict(noise=NoiseModel(2.0, 0.0), pose_range=PoseRange(90, 10, 180),
                 occlusion_yaw=20.0, drop_fraction=1.0),
    "still": dict(pose_range=PoseRange(0, 0, 0)),
}


def assert_same_as_oracle(n, seed, **settings):
    rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    data = synthesize(n, rng, **settings)
    expect = synthetic_reference.dataset(
        synthetic_reference.generate_dataset(n, oracle_rng, **settings))
    assert data.ids == expect.ids
    assert data.keypoints.tobytes() == expect.keypoints.tobytes()
    assert data.poses.tobytes() == expect.poses.tobytes()
    assert data.has_pose.all() and data.meta == (None,) * n
    assert data.lines.tolist() == list(range(1, n + 1)) and data.path is None
    # both made the same draws: the generators end in the same state
    assert rng.bit_generator.state == oracle_rng.bit_generator.state


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("name", list(ORACLE_CONFIGS))
def test_synthesize_equals_per_sample_oracle(name, seed):
    assert_same_as_oracle(3000, seed, **ORACLE_CONFIGS[name])


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(1, 12),
    seed=st.integers(0, 2**32 - 1),
    base=st.sampled_from([0.0, 1e-300]) | st.floats(0.0, 5.0),
    gain=st.sampled_from([0.0]) | st.floats(0.0, 0.2),
    widths=st.tuples(*[st.sampled_from([0.0, 180.0]) | st.floats(0.0, 180.0)] * 3),
    occlusion_yaw=st.floats(-10.0, 190.0),
    drop_fraction=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
)
def test_synthesize_equals_oracle_on_random_settings(n, seed, base, gain, widths,
                                                     occlusion_yaw, drop_fraction):
    assert_same_as_oracle(n, seed, noise=NoiseModel(base, gain), pose_range=PoseRange(*widths),
                          occlusion_yaw=occlusion_yaw, drop_fraction=drop_fraction)
