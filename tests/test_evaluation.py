"""Evaluation: statistics, grouping, curve building, report determinism."""

from __future__ import annotations

import json

import numpy as np
import pytest

from headpose.evaluation import (
    BoxStats,
    EvalResult,
    build_report,
    cumulative_error_curve,
    error_by_keypoint_count,
    evaluate,
    pearson,
    uncertainty_cross_correlation,
)
from headpose.formats import Dataset
from headpose.model import Model, ModelConfig
from headpose.synthetic import generate_dataset
from headpose.training import prepare_arrays


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
    return Dataset.from_samples(generate_dataset(n, np.random.default_rng(seed), **kwargs))


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


class TestBoxStats:
    def test_linear_interpolation_quartiles(self):
        s = BoxStats.of([1.0, 2.0, 3.0, 4.0])
        assert s.mean == 2.5
        assert s.q1 == 1.75 and s.median == 2.5 and s.q3 == 3.25

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            BoxStats.of([])

    def test_to_dict_keys(self):
        d = BoxStats.of([1.0]).to_dict()
        assert list(d.keys()) == ["mean", "q1", "median", "q3"]


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
            evaluate(model, Dataset.from_samples([]))


class TestCurve:
    def make_records(self):
        return result(
            [(1, 0, 0), (0, 30, 0), (0, 0, 300)],  # err 1/3, 10, 100
            [(0, 0, 0)] * 3,
            log_vars=[[1.0] * 3, [2.0] * 3, [3.0] * 3],  # mu 1, 2, 3
        )

    def test_hand_computed_points(self):
        pts = cumulative_error_curve(self.make_records(), [1.0, 2.0, 3.0])
        assert [p.retained for p in pts] == pytest.approx([1 / 3, 2 / 3, 1.0])
        assert pts[0].mean_error == pytest.approx(1 / 3)
        assert pts[1].mean_error == pytest.approx((1 / 3 + 10) / 2)
        assert pts[2].mean_error == pytest.approx((1 / 3 + 10 + 100) / 3)

    def test_empty_bucket_gives_none(self):
        pts = cumulative_error_curve(self.make_records(), [0.0, 3.0])
        assert pts[0].mean_error is None and pts[0].retained == 0.0

    def test_unsorted_grid_raises(self):
        with pytest.raises(ValueError):
            cumulative_error_curve(self.make_records(), [2.0, 1.0])

    def test_requires_uncertainty(self):
        with pytest.raises(ValueError):
            cumulative_error_curve(result([(0, 0, 0)], [(0, 0, 0)]), [1.0])

    def test_retained_non_decreasing(self):
        pts = cumulative_error_curve(self.make_records(), np.linspace(0, 4, 9))
        retained = [p.retained for p in pts]
        assert retained == sorted(retained)


class TestCrossCorrelation:
    def test_matches_column_pearson(self):
        rng = np.random.default_rng(5)
        lvs = rng.normal(size=(20, 3))
        r_yp, r_yr, r_pr = uncertainty_cross_correlation(
            result([(0, 0, 0)] * 20, [(0, 0, 0)] * 20, log_vars=lvs)
        )
        assert r_yp == pytest.approx(pearson(lvs[:, 0], lvs[:, 1]), abs=1e-12)
        assert r_yr == pytest.approx(pearson(lvs[:, 0], lvs[:, 2]), abs=1e-12)
        assert r_pr == pytest.approx(pearson(lvs[:, 1], lvs[:, 2]), abs=1e-12)


class TestGroups:
    def test_grouping_by_count(self):
        groups = error_by_keypoint_count(result(
            [(1, 1, 1), (9, 9, 9), (2, 2, 2)], [(0, 0, 0)] * 3, counts=[5, 2, 5],
            log_vars=[[1] * 3, [5] * 3, [2] * 3],
        ))
        assert list(groups.keys()) == [2, 5]
        assert groups[5]["error"].median == pytest.approx(1.5)
        assert groups[2]["error"].mean == pytest.approx(9.0)
        assert groups[5]["uncertainty"].median == pytest.approx(1.5)

    def test_uncertainty_none_without_variances(self):
        groups = error_by_keypoint_count(result([(1, 1, 1)], [(0, 0, 0)], counts=[4]))
        assert groups[4]["uncertainty"] is None
        assert groups[4]["error"] is not None


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
