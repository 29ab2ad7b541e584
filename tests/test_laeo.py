"""Mutual-gaze scoring: gates, pair measures, ranking metrics."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from headpose.formats import RecordError
from headpose.geometry import EulerPose
from headpose.laeo import (
    DEFAULT_DELTA,
    DEFAULT_TAU,
    GATE_MODES,
    _gazes,
    _metrics,
    evaluate_laeo,
    uncertainty_weight,
)

import frame_rows
import laeo_reference
from geometry_reference import project_direction
from laeo_reference import brute_force_scores, per_pair_evaluation


def head(hid, centroid, yaw, pitch=0.0, roll=0.0, log_var=None):
    return frame_rows.head(hid, centroid, pose=(yaw, pitch, roll), log_variance=log_var)


def score(rows, tau=DEFAULT_TAU, delta=DEFAULT_DELTA, mode="interval"):
    """evaluate_laeo of frame rows, read as from a file."""
    return evaluate_laeo(frame_rows.read(rows), tau, delta, mode=mode)


def facing_pair(log_var_a=None, log_var_b=None):
    # A at the origin looks toward +x, B to its right looks back
    a = head("a", (0.0, 0.0), yaw=90.0, log_var=log_var_a)
    b = head("b", (10.0, 0.0), yaw=-90.0, log_var=log_var_b)
    return a, b


class TestUncertaintyWeight:
    def test_off_mode_always_one(self):
        assert uncertainty_weight(99.0, 99.0, mode="off") == 1

    def test_interval_is_literal(self):
        assert uncertainty_weight(2.0, 4.0, delta=7.0, mode="interval") == 1
        assert uncertainty_weight(7.0, 7.0, delta=7.0, mode="interval") == 1
        assert uncertainty_weight(8.0, 8.0, delta=7.0, mode="interval") == 0
        # very confident heads fall below the interval and gate out
        assert uncertainty_weight(-1.0, -1.0, delta=7.0, mode="interval") == 0

    def test_open_below_keeps_confident_heads(self):
        assert uncertainty_weight(-5.0, -5.0, delta=7.0, mode="open-below") == 1
        assert uncertainty_weight(8.0, 8.0, delta=7.0, mode="open-below") == 0
        assert uncertainty_weight(0.0, 0.0, delta=math.inf, mode="open-below") == 1

    def test_mean_of_yaw_and_pitch(self):
        # s_hat = (0 + 14)/2 = 7 sits exactly on the edge
        assert uncertainty_weight(0.0, 14.0, delta=7.0, mode="interval") == 1
        assert uncertainty_weight(0.0, 14.2, delta=7.0, mode="interval") == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            uncertainty_weight(0.0, 0.0, mode="nope")
        with pytest.raises(ValueError):
            uncertainty_weight(0.0, 0.0, delta=0.0)
        with pytest.raises(ValueError):
            uncertainty_weight(math.nan, 0.0)

    def test_arrays_gate_element_wise(self):
        s_yaw = np.array([2.0, 8.0, -1.0, 0.0, 9.0])
        s_pitch = np.array([4.0, 8.0, -1.0, 14.0, 5.0])
        for mode in GATE_MODES:
            expect = [int(uncertainty_weight(a, b, 7.0, mode)) for a, b in zip(s_yaw, s_pitch)]
            weights = uncertainty_weight(s_yaw, s_pitch, 7.0, mode)
            assert weights.dtype == np.int64 and weights.tolist() == expect
        assert uncertainty_weight(np.zeros(0), np.zeros(0), delta=0.0).shape == (0,)
        with pytest.raises(ValueError, match="non-finite"):
            uncertainty_weight(np.array([1.0, math.inf]), np.zeros(2))
        with pytest.raises(ValueError, match="delta"):
            uncertainty_weight(np.ones(2), np.ones(2), delta=-1.0)


def score_two(a, b, tau=DEFAULT_TAU, delta=DEFAULT_DELTA, mode="interval"):
    """The one result of a frame holding heads a and b (ids sorted: a first)."""
    assert a["id"] < b["id"]
    (_, result, _), = score([frame_rows.frame("f", (a, b))], tau, delta, mode).results
    return result


def measure(a, b):
    result = score_two(a, b, mode="off")
    return result.cos_a, result.cos_b


# a centroid offset or an angle: zero, or of any size from 1e-165 up, with
# half the draws below 1e-150, where squares and products turn subnormal
_down_to_tiny = st.just(0.0) | st.builds(
    lambda mantissa, exponent: mantissa * 10.0**exponent,
    st.floats(-10.0, 10.0), st.integers(-165, -150) | st.integers(-150, 3),
)


class TestInteractionMeasure:
    def test_mutual_gaze_scores_one(self):
        ca, cb = measure(*facing_pair())
        assert ca == pytest.approx(1.0, abs=1e-12)
        assert cb == pytest.approx(1.0, abs=1e-12)

    def test_looking_away_scores_minus_one(self):
        a = head("a", (0.0, 0.0), yaw=-90.0)
        b = head("b", (10.0, 0.0), yaw=90.0)
        ca, cb = measure(a, b)
        assert ca == pytest.approx(-1.0, abs=1e-12)
        assert cb == pytest.approx(-1.0, abs=1e-12)

    def test_perpendicular_gaze_scores_zero(self):
        # A looks straight down (+y on screen) while B sits along +x
        a = head("a", (0.0, 0.0), yaw=0.0, pitch=-90.0)
        b = head("b", (10.0, 0.0), yaw=-90.0)
        ca, cb = measure(a, b)
        assert ca == pytest.approx(0.0, abs=1e-12)
        assert cb == pytest.approx(1.0, abs=1e-12)

    def test_symmetric(self):
        # swapping the two heads' places and poses swaps their cosines
        a = head("a", (0.0, 0.0), yaw=60.0, pitch=10.0)
        b = head("b", (10.0, 4.0), yaw=-30.0, pitch=-20.0)
        a2 = head("a", (10.0, 4.0), yaw=-30.0, pitch=-20.0)
        b2 = head("b", (0.0, 0.0), yaw=60.0, pitch=10.0)
        ca, cb = measure(a, b)
        cb2, ca2 = measure(a2, b2)
        assert ca == ca2 and cb == cb2

    def test_coincident_centroids_score_zero(self):
        # the pair has no joining direction: both cosines are 0, as for a
        # frontal gaze, the weights stay, and the pair stays scored
        a = head("a", (1.0, 1.0), yaw=10.0, log_var=[1.0, 1.0, 0.0])
        b = head("b", (1.0, 1.0), yaw=-10.0, log_var=[9.0, 9.0, 0.0])
        result = score_two(a, b, tau=0.0)
        assert (result.cos_a, result.cos_b, result.laeo_value) == (0.0, 0.0, 0.0)
        assert result.weight_a == 1 and result.weight_b == 0 and result.is_laeo
        assert laeo_reference.score_pair(a, b, tau=0.0) == result
        assert laeo_reference.pair_score(
            ((1.0, 1.0), (10.0, 0.0), None), ((1.0, 1.0), (-10.0, 0.0), None), 7.0, "off"
        ) == 0.0

    def test_frontal_gaze_scores_zero(self):
        # a faces the camera: no direction in the image plane, so cosine 0;
        # b's cosine and both weights are what they would be otherwise
        a = head("a", (0.0, 0.0), yaw=0.0, pitch=0.0, log_var=[1.0, 1.0, 0.0])
        b = head("b", (10.0, 0.0), yaw=-90.0)
        result = score_two(a, b, tau=0.5)
        assert result.cos_a == 0.0 and result.cos_b == pytest.approx(1.0, abs=1e-12)
        assert result.weight_a == 1 and result.weight_b == 1
        assert result.laeo_value == 0.5 * result.cos_b and result.is_laeo
        assert laeo_reference.score_pair(a, b, tau=0.5) == result
        assert laeo_reference.pair_score(
            ((0.0, 0.0), (0.0, 0.0), None), ((10.0, 0.0), (-90.0, 0.0), None), 7.0, "off"
        ) == pytest.approx(0.5, abs=1e-12)

    def test_subnormal_squared_length_scores_zero(self):
        # 3e-162 squared is subnormal, so the line's length comes out a third
        # short, and its product with a's gaze length is subnormal too: a's
        # cosine read 2.0, making a mutual-gaze pair of b facing the camera
        a = head("a", (0.0, 0.0), yaw=1.5e-160)
        b = head("b", (3e-162, 0.0), yaw=0.0)
        result = score_two(a, b, mode="off")
        assert (result.cos_a, result.cos_b, result.laeo_value) == (0.0, 0.0, 0.0)
        assert not result.is_laeo
        assert laeo_reference.score_pair(a, b, mode="off") == result
        assert laeo_reference.pair_score(
            ((0.0, 0.0), (1.5e-160, 0.0), None), ((3e-162, 0.0), (0.0, 0.0), None), 7.0, "off"
        ) == 0.0
        # only a's gaze has a subnormal squared length here: its length times
        # the 10-pixel line's is a normal float, yet the cosine read 1.18
        a = head("a", (0.0, 0.0), yaw=0.0, pitch=1.5e-160)
        b = head("b", (0.0, -10.0), yaw=0.0)
        assert measure(a, b) == laeo_reference.interaction_measure(a, b) == (0.0, 0.0)

    @settings(max_examples=300, deadline=None)
    @given(offset=st.tuples(*[_down_to_tiny] * 2), angles=st.tuples(*[_down_to_tiny] * 4))
    def test_cosines_stay_within_one_down_to_tiny_lengths(self, offset, angles):
        a = head("a", (0.0, 0.0), yaw=angles[0], pitch=angles[1])
        b = head("b", offset, yaw=angles[2], pitch=angles[3])
        cosines = measure(a, b)
        assert cosines == laeo_reference.interaction_measure(a, b)
        assert all(abs(c) <= 1.0 + 1e-12 for c in cosines)


def test_gazes_equal_project_direction_bit_for_bit():
    rng = np.random.default_rng(0)
    poses = np.concatenate([
        rng.uniform(-180.0, 180.0, (20_000, 3)),
        rng.normal(0.0, 1e4, (2_000, 3)),
        [[0.0, 0.0, 0.0], [-0.0, -0.0, 0.0], [90.0, -90.0, 0.0], [1e300, -1e-300, 5.0]],
    ])
    expect = np.array([project_direction(EulerPose(*p)) for p in poses.tolist()])
    assert _gazes(poses).tobytes() == expect.tobytes()
    assert _gazes(np.zeros((0, 3))).shape == (0, 2)


class TestLaeoValue:
    # cos_a = 1; b's gaze (-1/2, sqrt(3)/2) is 60 degrees off the line to a,
    # so cos_b = 1/2; the weights come from the gate
    def pair(self, log_var_a=None, log_var_b=None):
        a = head("a", (0.0, 0.0), yaw=90.0, log_var=log_var_a)
        b = head("b", (10.0, 0.0), yaw=-30.0, pitch=-90.0, log_var=log_var_b)
        return a, b

    def test_weighted_average(self):
        gated_out = [10.0, 10.0, 0.0]
        assert score_two(*self.pair()).laeo_value == pytest.approx(0.75)
        assert score_two(*self.pair(log_var_b=gated_out)).laeo_value == pytest.approx(1.0)
        assert score_two(*self.pair(log_var_a=gated_out)).laeo_value == pytest.approx(0.5)

    def test_fully_gated_pair_scores_zero(self):
        gated_out = [10.0, 10.0, 0.0]
        result = score_two(*facing_pair(gated_out, gated_out))
        assert result.weight_a == 0 and result.weight_b == 0
        assert result.laeo_value == 0.0 and not result.is_laeo

    def test_weights_must_be_binary(self):
        with pytest.raises(ValueError):
            laeo_reference.laeo_value((0.5, 0.5), (2, 0))
        for mode in GATE_MODES:
            ev = score(random_frames(np.random.default_rng(2), 20), mode=mode)
            assert {r.weight_a for _, r, _ in ev.results} <= {0, 1}
            assert {r.weight_b for _, r, _ in ev.results} <= {0, 1}

    def test_classify_threshold(self):
        value = score_two(*self.pair()).laeo_value
        assert score_two(*self.pair(), tau=value).is_laeo
        assert not score_two(*self.pair(), tau=value + 1e-4).is_laeo
        assert laeo_reference.classify(0.93, tau=0.93)
        assert not laeo_reference.classify(0.9299, tau=0.93)
        assert DEFAULT_TAU == 0.93 and DEFAULT_DELTA == 7.0


class TestScorePair:
    def test_missing_variances_weigh_one(self):
        result = score_two(*facing_pair())
        assert result.weight_a == 1 and result.weight_b == 1
        assert result.laeo_value == pytest.approx(1.0, abs=1e-12)
        assert result.is_laeo

    def test_gated_head_drops_out(self):
        a, b = facing_pair(log_var_a=[10.0, 10.0, 0.0])
        result = score_two(a, b, mode="interval", delta=7.0)
        assert result.weight_a == 0 and result.weight_b == 1
        assert result.laeo_value == pytest.approx(result.cos_b)

    def test_asdict_keys(self):
        d = score_two(*facing_pair())._asdict()
        assert list(d.keys()) == [
            "pair", "cos_a", "cos_b", "weight_a", "weight_b", "laeo_value", "is_laeo",
        ]


class TestFrame:
    # the reader is the only place that builds Frames, so it owns these checks
    def test_duplicate_ids_rejected(self):
        a = head("x", (0, 0), 10.0)
        b = head("x", (5, 5), 20.0)
        with pytest.raises(RecordError, match="duplicate head ids"):
            frame_rows.read([frame_rows.frame("f", (a, b))])

    def test_labels_must_reference_heads(self):
        a, b = facing_pair()
        with pytest.raises(RecordError, match="not among head ids"):
            frame_rows.read([frame_rows.frame("f", (a, b), [("a", "zz")])])


def average_precision(ranked_labels):
    """AP of `_metrics` on pairs valued in the given rank order, checked against the oracle."""
    n = len(ranked_labels)
    values = -np.arange(n, dtype=np.float64)
    ap = _metrics(np.zeros(n, dtype=np.intp), np.array(ranked_labels, dtype=bool), values,
                  DEFAULT_TAU)["average_precision"]
    assert ap == laeo_reference.average_precision(ranked_labels)
    return ap


class TestAveragePrecision:
    def test_hand_computed_case(self):
        # ranked [hit, miss, hit]: envelope precisions 1 and 2/3
        assert average_precision([True, False, True]) == pytest.approx(5.0 / 6.0)

    def test_perfect_ranking(self):
        assert average_precision([True, True, False, False]) == 1.0

    def test_no_positives(self):
        assert average_precision([False, False]) == 0.0

    def test_worst_ranking(self):
        # single positive ranked last among 4
        assert average_precision([False, False, False, True]) == pytest.approx(0.25)


# few distinct values, so ranks tie; both signed zeros
_pair_value = st.sampled_from([0.0, -0.0, 0.5, -0.5, 1.0, DEFAULT_TAU]) | st.floats(-1.0, 1.0)


@st.composite
def _ranked_pairs(draw):
    """(keys, labels, values) of labelled pairs, in the order `evaluate_laeo` gives them.

    Frame ids come out of sorted order, and within a frame the id pairs
    are sorted, as they are from the scorer.
    """
    frame_ids = draw(st.lists(st.text("abz0", min_size=1, max_size=3), max_size=6, unique=True))
    keys = []
    for frame_id in frame_ids:
        ids = sorted(draw(st.lists(st.text("xy", min_size=1, max_size=2), min_size=2,
                                   max_size=4, unique=True)))
        keys += [(frame_id, (a, b)) for k, a in enumerate(ids) for b in ids[k + 1:]]
    labels = draw(st.lists(st.booleans(), min_size=len(keys), max_size=len(keys)))
    values = draw(st.lists(_pair_value, min_size=len(keys), max_size=len(keys)))
    return keys, labels, values


class TestMetrics:
    @settings(max_examples=500, deadline=None)
    @given(pairs=_ranked_pairs(), tau=_pair_value)
    def test_arrays_match_list_oracle_bit_for_bit(self, pairs, tau):
        keys, labels, values = pairs
        _, frame_rank = np.unique(np.array([f for f, _ in keys], dtype=object),
                                  return_inverse=True)
        got = _metrics(frame_rank, np.array(labels, dtype=bool),
                       np.array(values, dtype=np.float64), tau)
        # json.dumps spells every float exactly, -0.0 included, and refuses numpy ints
        assert json.dumps(got) == json.dumps(laeo_reference.metrics(keys, labels, values, tau))

    @settings(max_examples=200, deadline=None)
    @given(rows=st.lists(st.tuples(
        st.text("fgh9", min_size=1, max_size=3),  # frame ids, out of sorted order
        st.permutations("abc"),  # head ids at the three places, so the scorer sorts them
        st.lists(st.sampled_from([(90.0, 0.0), (-90.0, 0.0), (0.0, 0.0), (45.0, 10.0)]),
                 min_size=2, max_size=3),  # few poses, so pair values tie across frames
        st.sampled_from([None, (1.0, 1.0, 0.0), (10.0, 10.0, 0.0)]),
        st.none() | st.lists(st.booleans(), min_size=3, max_size=3),  # None: unlabelled
    ), max_size=8, unique_by=lambda r: r[0]), mode=st.sampled_from(GATE_MODES))
    def test_tied_frames_match_per_pair_oracle(self, rows, mode):
        places = ((0.0, 0.0), (10.0, 0.0), (0.0, 10.0))
        frames = []
        for frame_id, ids, poses, log_var, marks in rows:
            heads = [head(hid, place, yaw, pitch, log_var=log_var)
                     for hid, place, (yaw, pitch) in zip(ids, places, poses)]
            pairs = None
            if marks is not None:
                present = sorted(h["id"] for h in heads)
                all_pairs = [(a, b) for k, a in enumerate(present) for b in present[k + 1:]]
                pairs = [pair for pair, mark in zip(all_pairs, marks) if mark]
            frames.append(frame_rows.frame(frame_id, heads, pairs))
        ev = score(frames, tau=0.5, mode=mode)
        assert ev.gated == per_pair_evaluation(frames, 0.5, DEFAULT_DELTA, mode)[0]
        assert ev.baseline == per_pair_evaluation(frames, 0.5, DEFAULT_DELTA, "off")[0]


def separable_frames(n=5):
    frames = []
    for i in range(n):
        a, b = facing_pair()
        stranger = head("c", (0.0, 30.0), yaw=0.0, pitch=-89.0)  # looks down, away
        frames.append(frame_rows.frame(f"f{i}", (a, b, stranger), [("a", "b")]))
    return frames


class TestEvaluateLaeo:
    def test_separable_frames_are_perfect(self):
        metrics = score(separable_frames(), tau=0.93).gated
        assert metrics["precision"] == 1.0 and metrics["recall"] == 1.0
        assert metrics["f1"] == 1.0 and metrics["average_precision"] == 1.0
        assert metrics["n_pairs"] == 15 and metrics["n_positive"] == 5

    def test_open_below_with_huge_delta_equals_baseline(self):
        rng = np.random.default_rng(0)
        frames = random_frames(rng, 30)
        gated = score(frames, tau=0.9, delta=math.inf, mode="open-below")
        baseline = score(frames, tau=0.9, mode="off")
        assert gated.gated == baseline.gated
        for (f1, r1, l1), (f2, r2, l2) in zip(gated.results, baseline.results):
            assert f1 == f2 and l1 == l2 and r1.laeo_value == r2.laeo_value

    def test_matches_brute_force_reference(self):
        rng = np.random.default_rng(1)
        frames = random_frames(rng, 50)
        for mode, delta in (("interval", 7.0), ("open-below", 2.0), ("off", 7.0)):
            ev = score(frames, tau=0.5, delta=delta, mode=mode)
            reference = brute_force_scores(as_plain(frames), delta, mode)
            assert len(ev.results) == len(reference)
            for frame_id, result, _ in ev.results:
                key = (frame_id, *sorted(result.pair))
                assert result.laeo_value == pytest.approx(reference[key], abs=1e-12)

    def test_single_head_frames_contribute_nothing(self):
        lone = frame_rows.frame("solo", (head("a", (0, 0), 30.0),), [])
        ev = score([lone], tau=0.9)
        assert ev.n_pairs == 0 and ev.n_heads == 0 and ev.gated["precision"] == 0.0

    def test_evaluation_dict_keys(self):
        ev = score(separable_frames(1))
        for block in (ev.gated, ev.baseline):
            assert list(block.keys()) == [
                "precision", "recall", "f1", "average_precision", "n_pairs", "n_positive",
            ]

    def test_unlabelled_frames_stay_out_of_the_metrics(self):
        a, b = facing_pair()
        labelled = frame_rows.frame("f0", (a, b), [("a", "b")])
        unlabelled = frame_rows.frame("f1", (a, b))
        ev = score([labelled, unlabelled])
        assert [label for _, _, label in ev.results] == [True, None]
        assert ev.n_pairs == 2 and ev.gated == score([labelled]).gated
        assert ev.gated["n_pairs"] == 1 and ev.gated["precision"] == 1.0
        assert ev.baseline == ev.gated
        only_unlabelled = score([unlabelled])
        assert only_unlabelled.gated is None and only_unlabelled.baseline is None


_angle = st.floats(-180.0, 180.0, allow_nan=False)
_head_data = st.tuples(
    # a few shared points, so that some pairs have coincident centroids
    st.sampled_from([(0.0, 0.0), (5.0, -5.0)]) | st.tuples(st.floats(-1e3, 1e3),
                                                           st.floats(-1e3, 1e3)),
    st.just((0.0, 0.0, 0.0)) | st.tuples(_angle, _angle, _angle),  # frontal, or any pose
    st.none() | st.tuples(*[st.floats(-20.0, 20.0)] * 3),
)


@st.composite
def _frames(draw):
    frames = []
    for f in range(draw(st.integers(0, 4))):
        data = draw(st.lists(_head_data, min_size=1, max_size=8))
        # ids in random order, so the scorer has to sort them
        ids = draw(st.lists(st.text("abxyz", min_size=1, max_size=2),
                            min_size=len(data), max_size=len(data), unique=True))
        heads = tuple(
            head(hid, centroid, pose[0], pose[1], pose[2], log_var)
            for hid, (centroid, pose, log_var) in zip(ids, data)
        )
        pairs = None
        if draw(st.booleans()):  # else the frame is unlabelled
            pairs = [(a, b) for k, a in enumerate(ids) for b in ids[k + 1:]
                     if draw(st.booleans())]
        frames.append(frame_rows.frame(f"f{f}", heads, pairs))
    return frames


def as_rows(results):
    """Results as the CLI writes them, so -0.0 and 0.0 differ."""
    return [(f, json.dumps(r._asdict()), label) for f, r, label in results]


class TestArrayPass:
    @settings(max_examples=300, deadline=None)
    @given(
        rows=_frames(),
        tau=st.floats(-1.0, 1.0),
        delta=st.sampled_from([0.5, 2.0, 7.0]),
        mode=st.sampled_from(GATE_MODES),
    )
    def test_matches_per_pair_oracle(self, rows, tau, delta, mode):
        frames = frame_rows.read(rows)
        metrics, results = per_pair_evaluation(rows, tau, delta, mode)
        ev = evaluate_laeo(frames, tau, delta, mode=mode)
        assert as_rows(ev.results) == as_rows(results)
        assert ev.gated == metrics
        assert ev.baseline == evaluate_laeo(frames, tau, delta, mode="off").gated
        assert ev.baseline == per_pair_evaluation(rows, tau, delta, "off")[0]
        weights = {}
        for frame_id, r, _ in results:
            weights[(frame_id, r.pair[0])] = r.weight_a
            weights[(frame_id, r.pair[1])] = r.weight_b
        assert ev.n_heads == len(weights)
        assert ev.n_heads_gated == sum(1 for w in weights.values() if w == 0)


def random_frames(rng, n):
    """Frame rows with random geometry, some labelled positive, varied variances."""
    frames = []
    for i in range(n):
        heads = []
        n_heads = int(rng.integers(2, 5))
        for j in range(n_heads):
            lv = None
            if rng.uniform() < 0.6:
                lv = rng.uniform(-3.0, 10.0, size=3)
            # avoid degenerate frontal gazes: keep |yaw| away from 0 unless pitched
            yaw = float(rng.uniform(5.0, 75.0)) * (1 if rng.uniform() < 0.5 else -1)
            heads.append(
                head(
                    f"h{j}",
                    (float(rng.uniform(-50, 50)), float(rng.uniform(-50, 50))),
                    yaw=yaw,
                    pitch=float(rng.uniform(-40, 40)),
                    log_var=lv,
                )
            )
        labels = []
        if n_heads >= 2 and rng.uniform() < 0.5:
            labels.append(("h0", "h1"))
        frames.append(frame_rows.frame(f"frame{i}", heads, labels))
    return frames


def as_plain(rows):
    """Convert frame rows to the plain tuples the reference scorer eats."""
    out = []
    for row in rows:
        heads = {}
        for h in row["heads"]:
            lv = h.get("log_variance")
            heads[h["id"]] = (
                tuple(h["centroid"]),
                tuple(h["pose"][:2]),
                tuple(lv) if lv is not None else None,
            )
        out.append((row["frame_id"], heads))
    return out
