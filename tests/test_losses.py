"""Loss functions: closed-form oracles, the NLL identity, graph consistency.

The per-sample numeric oracles live in tests/loss_reference.py.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from headpose import autodiff as ad
from headpose.geometry import EulerPose
from headpose.losses import (
    BinningScheme,
    combined_loss_graph,
    heteroscedastic_loss_graph,
    loss_graph,
    mse_loss_graph,
)
from headpose.model import Model, ModelConfig, PoseEstimate

from loss_reference import (
    combined_value,
    gaussian_nll,
    heteroscedastic_loss,
    heteroscedastic_terms,
    heteroscedastic_value,
    nll_gap,
    squared_error_loss,
    squared_error_value,
)


def het_values(pose, log_var):
    return np.concatenate([np.asarray(pose, dtype=float), np.asarray(log_var, dtype=float)])


class TestBinning:
    def test_centered_layout(self):
        b = BinningScheme.centered(66, 3.0)
        assert b.lo_degrees == -99.0 and b.hi_degrees == 99.0

    def test_bin_index_values(self):
        b = BinningScheme.centered(66, 3.0)
        assert b.bin_index(-99.0) == 0
        assert b.bin_index(0.0) == 33
        assert b.bin_index(98.9) == 65
        assert b.bin_index(99.0) == 65  # top edge folds into the last bin

    def test_outside_range_raises(self):
        b = BinningScheme.centered(66, 3.0)
        with pytest.raises(ValueError):
            b.bin_index(-99.1)
        with pytest.raises(ValueError):
            b.bin_index(99.1)

    def test_centers_round_trip(self):
        b = BinningScheme.centered(66, 3.0)
        assert b.bin_center(0) == -97.5 and b.bin_center(65) == 97.5
        idx = np.arange(66)
        assert np.array_equal(b.bin_index(b.bin_center(idx)), idx)

    def test_validation(self):
        with pytest.raises(ValueError):
            BinningScheme(n_bins=1)
        with pytest.raises(ValueError):
            BinningScheme(width_degrees=0.0)


class TestHeteroscedastic:
    def test_known_term(self):
        # residual 2 damped by log-variance log(4): 0.5*(1/4)*4 + 0.5*log 4
        v = het_values([2.0, 0.0, 0.0], [math.log(4.0), 0.0, 0.0])
        terms = heteroscedastic_terms(v, np.zeros(3))
        assert terms[0] == pytest.approx(0.5 + 0.5 * math.log(4.0), abs=1e-15)

    def test_zero_log_variance_is_half_squared_error(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            pose = rng.normal(0, 30, 3)
            target = rng.normal(0, 30, 3)
            v = het_values(pose, np.zeros(3))
            # exact equality: exp(0) is exactly 1
            assert heteroscedastic_loss(v, target) == 0.5 * squared_error_loss(
                het_values(pose, np.zeros(3))[:3], target
            )

    def test_negative_loss_reachable(self):
        v = het_values([0.0, 0.0, 0.0], [-2.0, -2.0, -2.0])
        assert heteroscedastic_loss(v, np.zeros(3)) == -3.0

    def test_nll_identity(self):
        rng = np.random.default_rng(1)
        const = 0.5 * math.log(2.0 * math.pi)
        for _ in range(200):
            v = het_values(rng.normal(0, 30, 3), rng.normal(0, 2, 3))
            t = rng.normal(0, 30, 3)
            assert heteroscedastic_loss(v, t) == pytest.approx(
                gaussian_nll(v, t) - 3 * const, abs=1e-9
            )

    def test_nll_gap_small_over_random_inputs(self):
        rng = np.random.default_rng(2)
        worst = 0.0
        for _ in range(1000):
            est = PoseEstimate(EulerPose(*rng.normal(0, 30, 3)), rng.normal(0, 2, 3))
            worst = max(worst, nll_gap(est, EulerPose(*rng.normal(0, 30, 3))))
        assert worst < 1e-9

    def test_log_variance_minimizer_is_log_residual_squared(self):
        for r in (0.3, 1.0, 2.0, 7.3):
            res = minimize_scalar(
                lambda s: 0.5 * math.exp(-s) * r * r + 0.5 * s,
                bounds=(-30.0, 30.0),
                method="bounded",
                options={"xatol": 1e-9},
            )
            assert res.x == pytest.approx(math.log(r * r), abs=1e-6)

    def test_batched_terms(self):
        rng = np.random.default_rng(3)
        v = rng.normal(size=(4, 6))
        t = rng.normal(size=(4, 3))
        batch = heteroscedastic_loss(v, t)
        assert batch.shape == (4,)
        for i in range(4):
            assert batch[i] == pytest.approx(heteroscedastic_loss(v[i], t[i]), abs=1e-12)


class TestPerSampleValues:
    def test_heteroscedastic_value(self):
        est = PoseEstimate(EulerPose(2.0, 0.0, 0.0), np.array([math.log(4.0), 0.0, 0.0]))
        lv = heteroscedastic_value(est, EulerPose(0.0, 0.0, 0.0))
        assert lv.per_angle[0] == pytest.approx(0.5 + 0.5 * math.log(4.0), abs=1e-15)
        assert lv.total == pytest.approx(sum(lv.per_angle), abs=1e-15)

    def test_heteroscedastic_value_needs_variances(self):
        with pytest.raises(ValueError):
            heteroscedastic_value(PoseEstimate(EulerPose(0, 0, 0)), EulerPose(0, 0, 0))

    def test_squared_error_value(self):
        lv = squared_error_value(EulerPose(1, 2, 3), EulerPose(0, 0, 0))
        assert lv.per_angle == (1.0, 4.0, 9.0) and lv.total == 14.0

    def test_combined_value_uniform_logits(self):
        b = BinningScheme.centered(66, 3.0)
        lv = combined_value(EulerPose(0, 0, 0), np.zeros(198), EulerPose(0, 0, 0), b, mse_mix=0.0)
        for term in lv.per_angle:
            assert term == pytest.approx(math.log(66.0), abs=1e-12)

    def test_combined_value_adds_weighted_mse(self):
        b = BinningScheme.centered(66, 3.0)
        base = combined_value(EulerPose(0, 0, 0), np.zeros(198), EulerPose(1, 2, 3), b, mse_mix=0.0)
        mixed = combined_value(EulerPose(0, 0, 0), np.zeros(198), EulerPose(1, 2, 3), b, mse_mix=2.0)
        assert mixed.total == pytest.approx(base.total + 2.0 * 14.0, abs=1e-12)

    def test_combined_value_validates_logit_count(self):
        b = BinningScheme.centered(66, 3.0)
        with pytest.raises(ValueError):
            combined_value(EulerPose(0, 0, 0), np.zeros(10), EulerPose(0, 0, 0), b)


def batch_output(kind, rng, batch=8):
    cfg = ModelConfig(loss_kind=kind)
    m = Model.build(cfg, np.random.default_rng(99))
    x1 = rng.uniform(-1, 1, size=(batch, 5))
    x2 = rng.uniform(-1, 1, size=(batch, 5))
    c = rng.uniform(0, 1, size=(batch, 5))
    return m.forward(x1, x2, c)


class TestGraphs:
    def test_heteroscedastic_graph_matches_numeric(self):
        rng = np.random.default_rng(4)
        out = batch_output("heteroscedastic", rng)
        targets = rng.normal(0, 2, size=(8, 3))
        g = heteroscedastic_loss_graph(out, targets)
        assert float(g.data) == pytest.approx(
            float(heteroscedastic_loss(out.values.data, targets).mean()), abs=1e-12
        )

    def test_mse_graph_matches_numeric(self):
        rng = np.random.default_rng(5)
        out = batch_output("mse", rng)
        targets = rng.normal(0, 2, size=(8, 3))
        g = mse_loss_graph(out, targets)
        assert float(g.data) == pytest.approx(
            float(squared_error_loss(out.values.data, targets).mean()), abs=1e-12
        )

    def test_combined_graph_matches_per_sample_values(self):
        rng = np.random.default_rng(6)
        out = batch_output("combined", rng)
        targets = rng.uniform(-60, 60, size=(8, 3))
        binning = BinningScheme.centered(66, 3.0)
        g = combined_loss_graph(out, targets, binning, mse_mix=1.0)
        per_sample = [
            combined_value(
                EulerPose(*out.values.data[i]), out.logits.data[i], EulerPose(*targets[i]),
                binning, mse_mix=1.0,
            ).total
            for i in range(8)
        ]
        assert float(g.data) == pytest.approx(float(np.mean(per_sample)), abs=1e-12)

    def test_single_sample_graph_is_sum_not_mean(self):
        rng = np.random.default_rng(7)
        cfg = ModelConfig("heteroscedastic")
        m = Model.build(cfg, np.random.default_rng(98))
        x = rng.uniform(-1, 1, size=(1, 5))
        out = m.forward(x, x, np.ones((1, 5)))
        target = np.zeros((1, 3))
        g = heteroscedastic_loss_graph(out, target)
        assert float(g.data) == pytest.approx(
            float(heteroscedastic_loss(out.values.data, target).sum()), abs=1e-12
        )

    def test_head_width_validation(self):
        rng = np.random.default_rng(8)
        het = batch_output("heteroscedastic", rng)
        mse = batch_output("mse", rng)
        with pytest.raises(ValueError):
            mse_loss_graph(het, np.zeros((8, 3)))
        with pytest.raises(ValueError):
            heteroscedastic_loss_graph(mse, np.zeros((8, 3)))

    def test_combined_needs_logits_and_batch(self):
        rng = np.random.default_rng(9)
        binning = BinningScheme.centered(66, 3.0)
        with pytest.raises(ValueError):
            combined_loss_graph(batch_output("mse", rng), np.zeros((8, 3)), binning)
        # an unbatched sample is refused before any loss sees it
        m = Model.build(ModelConfig("combined"), np.random.default_rng(97))
        with pytest.raises(ValueError, match="batch"):
            m.forward(np.ones(5), np.ones(5), np.ones(5))

    def test_dispatcher(self):
        rng = np.random.default_rng(10)
        out = batch_output("heteroscedastic", rng)
        targets = np.zeros((8, 3))
        a = loss_graph("heteroscedastic", out, targets)
        b = heteroscedastic_loss_graph(out, targets)
        assert float(a.data) == float(b.data)
        with pytest.raises(ValueError):
            loss_graph("nope", out, targets)
        with pytest.raises(ValueError):
            loss_graph("combined", batch_output("combined", rng), targets, binning=None)

    def test_graphs_backpropagate(self):
        rng = np.random.default_rng(11)
        m = Model.build(ModelConfig("heteroscedastic"), np.random.default_rng(96))
        x1 = rng.uniform(-1, 1, size=(4, 5))
        out = m.forward(x1, x1, np.ones((4, 5)))
        g = heteroscedastic_loss_graph(out, np.zeros((4, 3)))
        g.backward()
        grads = [p.grad for p in m.parameters()]
        assert all(g is not None for g in grads)
        assert any(np.abs(g).max() > 0 for g in grads)
