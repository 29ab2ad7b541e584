"""Evaluation: statistics, grouping, curve building, report determinism."""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from headpose.evaluation import N_CURVE_POINTS, EvalResult, build_report, evaluate, pearson
from headpose.model import Model, ModelConfig
from headpose.synthetic import synthesize
from headpose.training import prepare_arrays

import synthetic_reference


def result(poses, truths, counts=None, log_vars=None):
    """An EvalResult of hand-made rows; counts default to 5 keypoints each."""
    n = len(poses)
    return EvalResult.of(
        np.array(poses, dtype=np.float64).reshape(n, 3),
        None if log_vars is None else np.array(log_vars, dtype=np.float64).reshape(n, 3),
        np.array(truths, dtype=np.float64).reshape(n, 3),
        np.array([5] * n if counts is None else counts),
    )


def dataset(n, seed, **kwargs):
    return synthesize(n, np.random.default_rng(seed), **kwargs)


class TestPearson:
    def test_hand_computed(self):
        # centered sums: sum(da*db) = 5, sum(da^2) = 2, sum(db^2) = 114/9
        assert pearson([1, 2, 3], [2, 4, 7]) == pytest.approx(15.0 / np.sqrt(228.0), abs=1e-12)
        assert pearson([1, 2, 3], [2, 4, 7]) == pytest.approx(0.9934, abs=5e-5)

    def test_perfect_and_inverse(self):
        assert pearson([1, 2, 3], [10, 20, 30]) == pytest.approx(1.0, abs=1e-12)
        assert pearson([1, 2, 3], [-1, -2, -3]) == pytest.approx(-1.0, abs=1e-12)

    def test_degenerate_inputs_raise(self):
        with pytest.raises(ValueError):
            pearson([1.0], [2.0])
        with pytest.raises(ValueError):
            pearson([1, 1, 1], [2, 4, 7])
        with pytest.raises(ValueError):
            pearson([1, 2], [2, 4, 7])

    @pytest.mark.filterwarnings("error")
    def test_overflowing_squares_raise(self):
        # deviations near 1e154 square past the float range: a wrong 0.0 or
        # NaN r, and numpy warnings, unless refused
        for scale in (1e154, 1e160, 1e200):
            with pytest.raises(ValueError):
                pearson([scale, -scale, 0.0], [1.0, 2.0, 4.0])

    @pytest.mark.filterwarnings("error")
    def test_underflowing_squares_raise(self):
        # deviations near 1e-200 square to 0.0 against a non-zero numerator:
        # a divide-by-zero warning and an infinite r, unless refused
        with pytest.raises(ValueError):
            pearson([0.0, 0.0, 0.0, 7.8e-201], [0.0, 0.0, 0.0, 1.0 / 3.0])


class TestBoxStats:
    def test_linear_interpolation_quartiles(self):
        report = build_report(result([(e, e, e) for e in (1, 2, 3, 4)], [(0, 0, 0)] * 4))
        box = report["by_keypoint_count"]["5"]["error"]
        assert box["mean"] == 2.5
        assert box["q1"] == 1.75 and box["median"] == 2.5 and box["q3"] == 3.25

    def test_to_dict_keys(self):
        box = build_report(result([(1, 1, 1)], [(0, 0, 0)]))["by_keypoint_count"]["5"]["error"]
        assert list(box.keys()) == ["mean", "q1", "median", "q3"]


class TestRecords:
    def test_overall_error_is_mean_absolute(self):
        r = result([(10, 20, 30), (0, 0, 0)], [(13, 14, 30), (1, -2, 3)])
        assert r.overall_error.tolist() == pytest.approx([(3 + 6 + 0) / 3, (1 + 2 + 3) / 3])
        assert r.mae_overall == pytest.approx((3 + 6 + 0 + 1 + 2 + 3) / 6)
        assert r.mean_uncertainty is None

    def test_mean_uncertainty_averages_log_variances(self):
        r = result([(0, 0, 0)] * 2, [(0, 0, 0)] * 2, log_vars=[(1, 2, 6), (0, 0, -3)])
        assert r.mean_uncertainty.tolist() == [3.0, -1.0]


class TestEvaluate:
    def test_against_manual_recompute(self):
        data = dataset(12, 0, drop_fraction=0.5)
        model = Model.build(ModelConfig("heteroscedastic"), np.random.default_rng(1))
        scored = evaluate(model, data)
        x1, x2, c, targets = prepare_arrays(data)
        angles, log_var = model.predict_batch(x1, x2, c)
        expect = np.abs(angles - targets).mean(axis=0)
        assert scored.mae_yaw == pytest.approx(expect[0], abs=1e-12)
        assert scored.mae_overall == pytest.approx(expect.mean(), abs=1e-12)
        assert len(scored) == 12
        assert np.array_equal(scored.angles, angles)
        assert np.array_equal(scored.targets, data.poses)
        for i in range(12):
            assert scored.mean_uncertainty[i] == pytest.approx(log_var[i].mean(), abs=1e-12)
            assert scored.present[i] == np.count_nonzero(data.keypoints[i, :, 2])

    def test_point_estimate_records_lack_uncertainty(self):
        model = Model.build(ModelConfig("mse"), np.random.default_rng(3))
        scored = evaluate(model, dataset(6, 2))
        assert scored.log_variance is None and scored.mean_uncertainty is None

    def test_empty_dataset_raises(self):
        model = Model.build(ModelConfig("mse"), np.random.default_rng(4))
        with pytest.raises(ValueError):
            evaluate(model, synthetic_reference.dataset([]))


class TestCurve:
    def curve(self):
        # the thresholds are linspace(1, 3, 21), which holds 1.0, 2.0 and 3.0 exactly
        return build_report(result(
            [(1, 0, 0), (0, 30, 0), (0, 0, 300)],  # err 1/3, 10, 100
            [(0, 0, 0)] * 3,
            log_vars=[[1.0] * 3, [2.0] * 3, [3.0] * 3],  # mu 1, 2, 3
        ))["uncertainty"]["cumulative_curve"]

    def test_hand_computed_points(self):
        pts = [self.curve()[i] for i in (0, 10, 20)]
        assert [p["threshold"] for p in pts] == [1.0, 2.0, 3.0]
        assert [p["retained"] for p in pts] == pytest.approx([1 / 3, 2 / 3, 1.0])
        assert pts[0]["mean_error"] == pytest.approx(1 / 3)
        assert pts[1]["mean_error"] == pytest.approx((1 / 3 + 10) / 2)
        assert pts[2]["mean_error"] == pytest.approx((1 / 3 + 10 + 100) / 3)

    def test_retained_non_decreasing(self):
        retained = [p["retained"] for p in self.curve()]
        assert retained == sorted(retained)


class TestCrossCorrelation:
    def test_matches_column_pearson(self):
        rng = np.random.default_rng(5)
        lvs = rng.normal(size=(20, 3))
        cross = build_report(
            result([(0, 0, 0)] * 20, [(0, 0, 0)] * 20, log_vars=lvs)
        )["uncertainty"]["cross_correlation"]
        assert cross["yaw_pitch"] == pytest.approx(pearson(lvs[:, 0], lvs[:, 1]), abs=1e-12)
        assert cross["yaw_roll"] == pytest.approx(pearson(lvs[:, 0], lvs[:, 2]), abs=1e-12)
        assert cross["pitch_roll"] == pytest.approx(pearson(lvs[:, 1], lvs[:, 2]), abs=1e-12)


class TestGroups:
    def test_grouping_by_count(self):
        groups = build_report(result(
            [(1, 1, 1), (9, 9, 9), (2, 2, 2)], [(0, 0, 0)] * 3, counts=[5, 2, 5],
            log_vars=[[1] * 3, [5] * 3, [2] * 3],
        ))["by_keypoint_count"]
        assert list(groups.keys()) == ["2", "5"]
        assert groups["5"]["error"]["median"] == pytest.approx(1.5)
        assert groups["2"]["error"]["mean"] == pytest.approx(9.0)
        assert groups["5"]["uncertainty"]["median"] == pytest.approx(1.5)

    def test_uncertainty_none_without_variances(self):
        groups = build_report(result([(1, 1, 1)], [(0, 0, 0)], counts=[4]))["by_keypoint_count"]
        assert groups["4"]["uncertainty"] is None
        assert groups["4"]["error"] is not None


class TestReport:
    def build(self, kind="heteroscedastic"):
        model = Model.build(ModelConfig(kind), np.random.default_rng(7))
        return build_report(evaluate(model, dataset(16, 6, drop_fraction=0.5)))

    def test_key_order(self):
        report = self.build()
        assert list(report.keys()) == ["n_samples", "mae", "uncertainty", "by_keypoint_count"]
        assert list(report["mae"].keys()) == ["yaw", "pitch", "roll", "overall"]
        unc = report["uncertainty"]
        assert list(unc.keys()) == ["pearson_vs_error", "cross_correlation", "cumulative_curve"]
        assert len(unc["cumulative_curve"]) == 21

    def test_point_estimate_report_has_no_uncertainty(self):
        report = self.build("mse")
        assert report["uncertainty"] is None

    def test_byte_identical_serialization(self):
        a = json.dumps(self.build(), indent=2)
        b = json.dumps(self.build(), indent=2)
        assert a == b

    def test_group_keys_are_strings(self):
        report = self.build()
        assert all(isinstance(k, str) for k in report["by_keypoint_count"])


@st.composite
def _eval_results(draw):
    """EvalResults of 1-40 records, counts 1-5, and log-variances that are
    None, tied, or as large as 1e200."""
    n = draw(st.integers(1, 40))

    def rows(values):
        return st.lists(st.tuples(values, values, values), min_size=n, max_size=n)

    angles = draw(rows(st.integers(-99, 99) | st.floats(-1e3, 1e3)))
    targets = draw(rows(st.integers(-99, 99)))
    counts = draw(st.lists(st.integers(1, 5), min_size=n, max_size=n))
    log_vars = draw(st.none() | rows(st.sampled_from([-3.0, 0.5, 1e200]))
                    | rows(st.floats(-1e200, 1e200)))
    return result(angles, targets, counts, log_vars)


@settings(max_examples=300, deadline=None)
@given(scored=_eval_results())
def test_report_invariants(scored):
    report = build_report(scored)
    json.dumps(report, allow_nan=False)
    mu, err = scored.mean_uncertainty, scored.overall_error
    if mu is None or len(scored) < 2:
        assert report["uncertainty"] is None
    else:
        curve = report["uncertainty"]["cumulative_curve"]
        assert len(curve) == N_CURVE_POINTS
        assert curve[0]["threshold"] == mu.min() and curve[-1]["threshold"] == mu.max()
        retained = [p["retained"] for p in curve]
        assert retained == sorted(retained) and retained[-1] == 1.0
        assert all(type(p["mean_error"]) is float for p in curve)
    groups = report["by_keypoint_count"]
    assert list(groups) == [str(c) for c in sorted(set(scored.present.tolist()))]
    for key, boxes in groups.items():
        group = scored.present == int(key)
        for name, values in (("error", err), ("uncertainty", mu)):
            if values is None:
                assert boxes[name] is None
            else:
                expect = [values[group].mean(), *np.percentile(values[group], [25, 50, 75])]
                assert list(boxes[name].values()) == expect
