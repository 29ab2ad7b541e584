"""Keypoint containers, normalization, and the present points of synthetic records."""

from __future__ import annotations

import numpy as np
import pytest

from headpose.keypoints import (
    KEYPOINT_NAMES,
    Keypoint,
    KeypointSet,
    UnusableKeypoints,
    normalize,
)
from headpose.synthetic import LEFT_EAR, MIN_KEEP, RIGHT_EAR, project_head, synthesize


def present_count(keypoints):
    """Points with confidence > 0 in each (5, 3) set of an (N, 5, 3) array."""
    return (keypoints[:, :, 2] > 0.0).sum(axis=1)


def kps(coords, conf=None):
    conf = conf if conf is not None else [1.0] * 5
    return KeypointSet.from_triplets([[x, y, c] for (x, y), c in zip(coords, conf)])


def spread(seed=0, conf=None):
    rng = np.random.default_rng(seed)
    return kps(rng.uniform(-50, 50, size=(5, 2)).tolist(), conf)


def loop_normalize(s):
    """Per-set reference: 1-D mean and peak over the present points of each axis."""
    c = np.array([p.c for p in s.points])
    present = c > 0.0
    axes = []
    for values in ([p.x1 for p in s.points], [p.x2 for p in s.points]):
        values = np.array(values)
        out = np.zeros_like(values)
        centered = values[present] - values[present].mean()
        peak = np.abs(centered).max()
        if peak > 0.0:
            out[present] = centered / peak
        axes.append(out)
    return axes[0], axes[1], c


def stack(sets):
    """(N, 5, 3) array of the sets' [x1, x2, c] rows, the batch form of normalize."""
    return np.array([[(p.x1, p.x2, p.c) for p in s.points] for s in sets]).reshape(-1, 5, 3)


def sparse_sets(n, seed):
    """Random sets with about 30% of the points missing, never all of them."""
    rng = np.random.default_rng(seed)
    sets = []
    for i in range(n):
        conf = np.where(rng.uniform(size=5) < 0.3, 0.0, rng.uniform(0.1, 1.0, size=5))
        conf[rng.integers(5)] = 0.9
        sets.append(spread(seed + i, conf=conf.tolist()))
    return sets


class TestContainers:
    def test_names_and_order(self):
        assert KEYPOINT_NAMES == ("nose", "left_eye", "right_eye", "left_ear", "right_ear")

    def test_confidence_bounds(self):
        with pytest.raises(ValueError):
            Keypoint(0.0, 0.0, 1.5)
        with pytest.raises(ValueError):
            Keypoint(0.0, 0.0, -0.1)

    def test_wrong_count(self):
        with pytest.raises(ValueError):
            KeypointSet((Keypoint(0, 0, 1),) * 4)

    def test_present_count(self):
        # a point is present when its confidence is positive; a synthetic
        # record without drops shows all five, or four with an ear hidden
        data = synthesize(500, np.random.default_rng(3))
        counts = present_count(data.keypoints)
        assert set(counts.tolist()) == {4, 5}
        assert ((counts == 4) == (np.abs(data.poses[:, 0]) > 60)).all()


class TestNormalize:
    def test_known_values(self):
        s = kps([(0, 0), (2, 2), (4, 4), (6, 6), (8, 8)])
        n = normalize(s)
        expect = [-1.0, -0.5, 0.0, 0.5, 1.0]
        assert n.x1.tolist() == expect
        assert n.x2.tolist() == expect
        assert n.c.tolist() == [1.0] * 5

    def test_zero_centroid_unit_peak(self):
        n = normalize(spread(1))
        for axis in (n.x1, n.x2):
            assert abs(axis.mean()) < 1e-12
            assert np.abs(axis).max() == pytest.approx(1.0, abs=1e-12)

    def test_idempotent(self):
        n = normalize(spread(2))
        again = normalize(kps(list(zip(n.x1, n.x2)), conf=n.c.tolist()))
        assert np.allclose(again.x1, n.x1, atol=1e-12)
        assert np.allclose(again.x2, n.x2, atol=1e-12)

    def test_translation_and_scale_invariance(self):
        rng = np.random.default_rng(3)
        coords = rng.uniform(-50, 50, size=(5, 2))
        base = normalize(kps(coords.tolist()))
        moved = normalize(kps((coords * 7.5 + np.array([120.0, -40.0])).tolist()))
        assert np.allclose(moved.x1, base.x1, atol=1e-12)
        assert np.allclose(moved.x2, base.x2, atol=1e-12)

    def test_missing_points_excluded_and_zeroed(self):
        # the far-out missing point must not shift the centroid or the peak
        s = kps([(0, 0), (2, 2), (4, 4), (6, 6), (1e6, 1e6)], conf=[1, 1, 1, 1, 0])
        n = normalize(s)
        assert n.x1[4] == 0.0 and n.x2[4] == 0.0
        assert n.x1[:4].tolist() == [-1.0, -1 / 3, 1 / 3, 1.0]

    def test_all_missing_raises(self):
        with pytest.raises(UnusableKeypoints) as info:
            normalize(kps([(1, 2)] * 5, conf=[0.0] * 5))
        assert isinstance(info.value, ValueError) and info.value.index == 0

    def test_batch_names_first_unusable_set(self):
        ghost = kps([(1, 2)] * 5, conf=[0.0] * 5)
        with pytest.raises(UnusableKeypoints) as info:
            normalize(stack([spread(0), spread(1), ghost, spread(2), ghost]))
        assert info.value.index == 2

    def test_batch_matches_per_set_loop_bit_for_bit(self):
        sets = sparse_sets(500, seed=1000)
        batch = normalize(stack(sets))
        for i, s in enumerate(sets):
            x1, x2, c = loop_normalize(s)
            assert np.array_equal(batch.x1[i], x1)
            assert np.array_equal(batch.x2[i], x2)
            assert np.array_equal(batch.c[i], c)

    def test_single_set_equals_its_batch_row(self):
        sets = sparse_sets(200, seed=100)
        batch = normalize(stack(sets))
        assert batch.x1.shape == batch.x2.shape == batch.c.shape == (200, 5)
        for i, s in enumerate(sets):
            one = normalize(s)
            assert one.x1.shape == (5,)
            assert np.array_equal(one.x1, batch.x1[i])
            assert np.array_equal(one.x2, batch.x2[i])
            assert np.array_equal(one.c, batch.c[i])

    def test_empty_batch(self):
        n = normalize(stack([]))
        assert n.x1.shape == n.x2.shape == n.c.shape == (0, 5)

    def test_degenerate_axis_goes_to_zero(self):
        s = kps([(5, 0), (5, 1), (5, 2), (5, 3), (5, 4)])
        n = normalize(s)
        assert n.x1.tolist() == [0.0] * 5
        assert np.abs(n.x2).max() == 1.0


class TestDrop:
    """Keypoint dropping, as synthesize applies it to a drop_fraction of records."""

    def test_keeps_exactly_n_present(self):
        # each drop keeps a uniform count in [MIN_KEEP, present - 1]
        data = synthesize(600, np.random.default_rng(4), drop_fraction=1.0, occlusion_yaw=180.0)
        counts = present_count(data.keypoints)
        assert set(counts.tolist()) == {MIN_KEEP, 3, 4}

    def test_coordinates_untouched(self):
        # a dropped point keeps its coordinates; only c goes to 0
        data = synthesize(300, np.random.default_rng(5), drop_fraction=1.0, occlusion_yaw=180.0)
        dropped = data.keypoints[:, :, 2] == 0.0
        assert dropped.any()
        assert np.array_equal(data.keypoints[:, :, :2], project_head(data.poses))
        assert (data.keypoints[dropped, :2] != 0.0).any()

    def test_only_present_droppable(self):
        # a hidden ear is not one of the points a drop chooses from: it stays
        # all zero, and its record still keeps MIN_KEEP of the other four
        data = synthesize(1000, np.random.default_rng(6), drop_fraction=1.0)
        yaw = data.poses[:, 0]
        for ear, side in ((RIGHT_EAR, yaw > 60), (LEFT_EAR, yaw < -60)):
            assert side.any()
            assert (data.keypoints[side, ear] == 0.0).all()
        hidden = np.abs(yaw) > 60
        assert (present_count(data.keypoints[hidden]) >= MIN_KEEP).all()
        assert (present_count(data.keypoints[hidden]) <= 3).all()

    def test_deterministic(self):
        a, b, c = (synthesize(40, np.random.default_rng(seed), drop_fraction=0.5)
                   for seed in (42, 42, 43))
        assert a.keypoints.tobytes() == b.keypoints.tobytes()
        assert a.keypoints.tobytes() != c.keypoints.tobytes()
