"""Keypoint containers, normalization and dropping."""

from __future__ import annotations

import numpy as np
import pytest

from headpose.keypoints import (
    KEYPOINT_NAMES,
    Keypoint,
    KeypointSet,
    UnusableKeypoints,
    drop_keypoints,
    normalize,
    present_count,
)


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
        s = kps([(i, i) for i in range(5)], conf=[1, 0.5, 0, 0, 0.2])
        assert present_count(s) == 3


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
    def test_keeps_exactly_n_present(self):
        rng = np.random.default_rng(4)
        s = spread(5)
        for keep in (1, 2, 3, 4, 5):
            out = drop_keypoints(s, keep, rng)
            assert present_count(out) == keep

    def test_coordinates_untouched(self):
        s = spread(6)
        out = drop_keypoints(s, 2, np.random.default_rng(0))
        for before, after in zip(s.points, out.points):
            assert after.x1 == before.x1 and after.x2 == before.x2

    def test_only_present_droppable(self):
        s = kps([(i, i) for i in range(5)], conf=[1, 1, 0, 1, 0])
        with pytest.raises(ValueError):
            drop_keypoints(s, 4, np.random.default_rng(0))
        with pytest.raises(ValueError):
            drop_keypoints(s, 0, np.random.default_rng(0))

    def test_deterministic(self):
        s = spread(7)
        a = drop_keypoints(s, 2, np.random.default_rng(42))
        b = drop_keypoints(s, 2, np.random.default_rng(42))
        assert a == b

