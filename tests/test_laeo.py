"""Mutual-gaze scoring: gates, pair measures, ranking metrics."""

from __future__ import annotations

import json
import math
import re

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from headpose.geometry import EulerPose
from headpose.laeo import (
    DEFAULT_DELTA,
    DEFAULT_TAU,
    GATE_MODES,
    Frame,
    HeadInstance,
    evaluate_laeo,
    uncertainty_weight,
    _average_precision,
)
from headpose.model import PoseEstimate

import laeo_reference
from laeo_reference import brute_force_scores, per_pair_evaluation


def head(hid, centroid, yaw, pitch=0.0, roll=0.0, log_var=None):
    lv = np.asarray(log_var, dtype=np.float64) if log_var is not None else None
    return HeadInstance(
        id=hid, centroid=centroid, estimate=PoseEstimate(EulerPose(yaw, pitch, roll), lv)
    )


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


def score_two(a, b, tau=DEFAULT_TAU, delta=DEFAULT_DELTA, mode="interval"):
    """The one result of a frame holding heads a and b (ids sorted: a first)."""
    assert a.id < b.id
    (_, result, _), = evaluate_laeo([Frame("f", (a, b), frozenset())], tau, delta, mode).results
    return result


def measure(a, b):
    result = score_two(a, b, mode="off")
    return result.cos_a, result.cos_b


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

    def test_coincident_centroids_raise(self):
        a = head("a", (1.0, 1.0), yaw=10.0)
        b = head("b", (1.0, 1.0), yaw=-10.0)
        with pytest.raises(ValueError, match="heads a, b share a centroid"):
            measure(a, b)

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
            ev = evaluate_laeo(random_frames(np.random.default_rng(2), 20), mode=mode)
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

    def test_to_dict_keys(self):
        d = score_two(*facing_pair()).to_dict()
        assert list(d.keys()) == [
            "pair", "cos_a", "cos_b", "weight_a", "weight_b", "laeo_value", "is_laeo",
        ]


class TestFrame:
    def test_duplicate_ids_rejected(self):
        a = head("x", (0, 0), 10.0)
        b = head("x", (5, 5), 20.0)
        with pytest.raises(ValueError):
            Frame("f", (a, b), frozenset())

    def test_labels_must_reference_heads(self):
        a, b = facing_pair()
        with pytest.raises(ValueError):
            Frame("f", (a, b), frozenset({frozenset({"a", "zz"})}))


class TestAveragePrecision:
    def test_hand_computed_case(self):
        # ranked [hit, miss, hit]: envelope precisions 1 and 2/3
        assert _average_precision([True, False, True]) == pytest.approx(5.0 / 6.0)

    def test_perfect_ranking(self):
        assert _average_precision([True, True, False, False]) == 1.0

    def test_no_positives(self):
        assert _average_precision([False, False]) == 0.0

    def test_worst_ranking(self):
        # single positive ranked last among 4
        assert _average_precision([False, False, False, True]) == pytest.approx(0.25)


def separable_frames(n=5):
    frames = []
    for i in range(n):
        a, b = facing_pair()
        stranger = head("c", (0.0, 30.0), yaw=0.0, pitch=-89.0)  # looks down, away
        frames.append(
            Frame(f"f{i}", (a, b, stranger), frozenset({frozenset({"a", "b"})}))
        )
    return frames


class TestEvaluateLaeo:
    def test_separable_frames_are_perfect(self):
        ev = evaluate_laeo(separable_frames(), tau=0.93)
        assert ev.precision == 1.0 and ev.recall == 1.0
        assert ev.f1 == 1.0 and ev.average_precision == 1.0
        assert ev.n_pairs == 15 and ev.n_positive == 5

    def test_open_below_with_huge_delta_equals_baseline(self):
        rng = np.random.default_rng(0)
        frames = random_frames(rng, 30)
        gated = evaluate_laeo(frames, tau=0.9, delta=math.inf, mode="open-below")
        baseline = evaluate_laeo(frames, tau=0.9, mode="off")
        assert gated.to_dict() == baseline.to_dict()
        for (f1, r1, l1), (f2, r2, l2) in zip(gated.results, baseline.results):
            assert f1 == f2 and l1 == l2 and r1.laeo_value == r2.laeo_value

    def test_matches_brute_force_reference(self):
        rng = np.random.default_rng(1)
        frames = random_frames(rng, 50)
        for mode, delta in (("interval", 7.0), ("open-below", 2.0), ("off", 7.0)):
            ev = evaluate_laeo(frames, tau=0.5, delta=delta, mode=mode)
            reference = brute_force_scores(as_plain(frames), delta, mode)
            assert len(ev.results) == len(reference)
            for frame_id, result, _ in ev.results:
                key = (frame_id, *sorted(result.pair))
                assert result.laeo_value == pytest.approx(reference[key], abs=1e-12)

    def test_single_head_frames_contribute_nothing(self):
        lone = Frame("solo", (head("a", (0, 0), 30.0),), frozenset())
        ev = evaluate_laeo([lone], tau=0.9)
        assert ev.n_pairs == 0 and ev.precision == 0.0

    def test_evaluation_dict_keys(self):
        d = evaluate_laeo(separable_frames(1)).to_dict()
        assert list(d.keys()) == [
            "precision", "recall", "f1", "average_precision", "n_pairs", "n_positive",
        ]


_angle = st.floats(-180.0, 180.0, allow_nan=False)
_head_data = st.tuples(
    st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)),
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
        pairs = [frozenset((a, b)) for k, a in enumerate(ids) for b in ids[k + 1:]
                 if draw(st.booleans())]
        frames.append(Frame(f"f{f}", heads, frozenset(pairs)))
    return frames


def as_rows(results):
    """Results as the CLI writes them, so -0.0 and 0.0 differ."""
    return [(f, json.dumps(r.to_dict()), label) for f, r, label in results]


class TestArrayPass:
    @settings(max_examples=300, deadline=None)
    @given(
        frames=_frames(),
        tau=st.floats(-1.0, 1.0),
        delta=st.sampled_from([0.5, 2.0, 7.0]),
        mode=st.sampled_from(GATE_MODES),
    )
    def test_matches_per_pair_oracle(self, frames, tau, delta, mode):
        try:
            metrics, results = per_pair_evaluation(frames, tau, delta, mode)
        except ValueError as e:
            with pytest.raises(ValueError, match=re.escape(str(e))):
                evaluate_laeo(frames, tau, delta, mode=mode)
            return
        ev = evaluate_laeo(frames, tau, delta, mode=mode)
        assert as_rows(ev.results) == as_rows(results)
        assert ev.to_dict() == metrics
        assert ev.baseline == evaluate_laeo(frames, tau, delta, mode="off").to_dict()
        assert ev.baseline == per_pair_evaluation(frames, tau, delta, "off")[0]
        weights = {}
        for frame_id, r, _ in results:
            weights[(frame_id, r.pair[0])] = r.weight_a
            weights[(frame_id, r.pair[1])] = r.weight_b
        assert ev.n_heads == len(weights)
        assert ev.n_heads_gated == sum(1 for w in weights.values() if w == 0)


def random_frames(rng, n):
    """Frames with random geometry, some labelled positive, varied variances."""
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
        labels = set()
        if n_heads >= 2 and rng.uniform() < 0.5:
            labels.add(frozenset({"h0", "h1"}))
        frames.append(Frame(f"frame{i}", tuple(heads), frozenset(labels)))
    return frames


def as_plain(frames):
    """Convert Frame objects to the plain tuples the reference scorer eats."""
    out = []
    for f in frames:
        heads = {}
        for h in f.heads:
            lv = h.estimate.log_variance
            heads[h.id] = (
                h.centroid,
                (h.estimate.pose.yaw, h.estimate.pose.pitch),
                tuple(lv) if lv is not None else None,
            )
        out.append((f.frame_id, heads))
    return out
