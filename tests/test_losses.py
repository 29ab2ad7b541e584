"""Loss functions: numeric oracles, the NLL identity, the closed forms.

The per-sample numeric oracles and the loss graph oracle live in
tests/loss_reference.py; the closed-form losses must match the graphs bit
for bit, in value, output gradients, parameter gradients and Adam steps.
For the last two, the graph of the loss sits on the closed-form network.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from headpose import autodiff as ad
from headpose import training
from headpose.formats import prepare_arrays
from headpose.geometry import EulerPose
from headpose.losses import BIN_HI_DEGREES, BIN_LO_DEGREES, batch_loss, bin_index
from headpose.model import LOSS_KINDS, Model, ModelConfig, PoseEstimate
from headpose.synthetic import NoiseModel, synthesize
from headpose.training import TrainConfig, loss_and_gradient, train

import loss_reference
from loss_reference import (
    combined_loss_graph,
    combined_value,
    gaussian_nll,
    heteroscedastic_loss,
    heteroscedastic_loss_graph,
    heteroscedastic_terms,
    heteroscedastic_value,
    mse_loss_graph,
    nll_gap,
    squared_error_loss,
    squared_error_value,
)
from network_reference import build_float64


def het_values(pose, log_var):
    return np.concatenate([np.asarray(pose, dtype=float), np.asarray(log_var, dtype=float)])


class TestBinning:
    def test_centered_layout(self):
        # 66 bins of 3 degrees, centred on zero
        assert BIN_LO_DEGREES == -99.0 and BIN_HI_DEGREES == 99.0

    def test_bin_index_values(self):
        assert bin_index(-99.0) == 0
        assert bin_index(0.0) == 33
        assert bin_index(98.9) == 65
        assert bin_index(99.0) == 65  # top edge folds into the last bin
        assert bin_index([-99.0, -96.0, 2.9, 3.0]).tolist() == [0, 1, 33, 34]

    def test_outside_range_raises(self):
        with pytest.raises(ValueError):
            bin_index(-99.1)
        with pytest.raises(ValueError):
            bin_index(99.1)


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

    @staticmethod
    def at_log_variance(s, dtype):
        """A (4, 6) output of residual 1 against zero targets, every log-variance s."""
        out = np.ones((4, 6), dtype)
        out[:, 3:6] = s
        return out

    def test_float32_edge_is_finite_at_minus_87(self):
        # exp(87) is 6.1e37, below float32's largest value, 3.4e38
        value, grad = batch_loss("heteroscedastic", self.at_log_variance(-87.0, np.float32),
                                 np.zeros((4, 3)))
        assert grad.dtype == np.float32
        assert np.isfinite(value) and np.isfinite(grad).all()

    def test_float32_edge_overflows_at_minus_89(self):
        # exp(89) overflows float32; float64 overflows only beyond exp(709)
        zeros = np.zeros((4, 3))
        with np.errstate(over="ignore"):
            value, _ = batch_loss("heteroscedastic", self.at_log_variance(-89.0, np.float32),
                                  zeros)
        assert not np.isfinite(value)
        value, grad = batch_loss("heteroscedastic", self.at_log_variance(-89.0, np.float64),
                                 zeros)
        assert np.isfinite(value) and np.isfinite(grad).all()


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
        # an exact pose leaves only the cross entropy of uniform logits
        lv = combined_value(EulerPose(0, 0, 0), np.zeros(198), EulerPose(0, 0, 0))
        for term in lv.per_angle:
            assert term == pytest.approx(math.log(66.0), abs=1e-12)

    def test_combined_value_adds_weighted_mse(self):
        # uniform logits cost log 66 per angle in any bin; the squared
        # error of (1, 2, 3) adds 14 at weight one
        lv = combined_value(EulerPose(0, 0, 0), np.zeros(198), EulerPose(1, 2, 3))
        assert lv.total == pytest.approx(3 * math.log(66.0) + 14.0, abs=1e-12)

    def test_combined_value_validates_logit_count(self):
        with pytest.raises(ValueError):
            combined_value(EulerPose(0, 0, 0), np.zeros(10), EulerPose(0, 0, 0))


def batch_output(kind, rng, batch=8):
    """The head output of a network of `kind` on a random batch."""
    cfg = ModelConfig(loss_kind=kind)
    m = build_float64(cfg, np.random.default_rng(99))
    x1 = rng.uniform(-1, 1, size=(batch, 5))
    x2 = rng.uniform(-1, 1, size=(batch, 5))
    c = rng.uniform(0, 1, size=(batch, 5))
    return m.outputs(x1, x2, c)


def leaf(out):
    """A head output as a fresh leaf of the graph oracle."""
    return ad.Tensor(out.copy())


class TestGraphs:
    def test_heteroscedastic_graph_matches_numeric(self):
        rng = np.random.default_rng(4)
        out = batch_output("heteroscedastic", rng)
        targets = rng.normal(0, 2, size=(8, 3))
        expect = float(heteroscedastic_loss(out, targets).mean())
        for value in (batch_loss("heteroscedastic", out, targets)[0],
                      heteroscedastic_loss_graph(leaf(out), targets).data):
            assert float(value) == pytest.approx(expect, abs=1e-12)

    def test_mse_graph_matches_numeric(self):
        rng = np.random.default_rng(5)
        out = batch_output("mse", rng)
        targets = rng.normal(0, 2, size=(8, 3))
        expect = float(squared_error_loss(out, targets).mean())
        for value in (batch_loss("mse", out, targets)[0],
                      mse_loss_graph(leaf(out), targets).data):
            assert float(value) == pytest.approx(expect, abs=1e-12)

    def test_combined_graph_matches_per_sample_values(self):
        rng = np.random.default_rng(6)
        out = batch_output("combined", rng)
        targets = rng.uniform(-60, 60, size=(8, 3))
        per_sample = [
            combined_value(EulerPose(*out[i, :3]), out[i, 3:], EulerPose(*targets[i])).total
            for i in range(8)
        ]
        for value in (batch_loss("combined", out, targets)[0],
                      combined_loss_graph(leaf(out), targets).data):
            assert float(value) == pytest.approx(float(np.mean(per_sample)), abs=1e-12)

    def test_single_sample_graph_is_sum_not_mean(self):
        rng = np.random.default_rng(7)
        cfg = ModelConfig("heteroscedastic")
        m = build_float64(cfg, np.random.default_rng(98))
        x = rng.uniform(-1, 1, size=(1, 5))
        out = m.outputs(x, x, np.ones((1, 5)))
        target = np.zeros((1, 3))
        value, g_out = batch_loss("heteroscedastic", out, target)
        assert float(value) == pytest.approx(
            float(heteroscedastic_loss(out, target).sum()), abs=1e-12
        )
        oracle = leaf(out)
        loss_reference.loss_graph("heteroscedastic", oracle, target).backward()
        assert np.array_equal(g_out, oracle.grad)

    def test_head_width_validation(self):
        rng = np.random.default_rng(8)
        het = batch_output("heteroscedastic", rng)
        mse = batch_output("mse", rng)
        with pytest.raises(ValueError, match="mse loss needs 3 outputs"):
            batch_loss("mse", het, np.zeros((8, 3)))
        with pytest.raises(ValueError, match="heteroscedastic loss needs 6 outputs"):
            batch_loss("heteroscedastic", mse, np.zeros((8, 3)))
        with pytest.raises(ValueError, match="combined loss needs 201 outputs"):
            batch_loss("combined", np.zeros((8, 3 + 10)), np.zeros((8, 3)))

    def test_combined_needs_logits_and_batch(self):
        # an output without the bin-logit columns is refused
        rng = np.random.default_rng(9)
        with pytest.raises(ValueError, match="combined loss needs 201 outputs"):
            batch_loss("combined", batch_output("mse", rng), np.zeros((8, 3)))
        # an unbatched sample is refused before any loss sees it
        m = Model.build(ModelConfig("combined"), np.random.default_rng(97))
        with pytest.raises(ValueError, match="batch"):
            m.outputs(np.ones(5), np.ones(5), np.ones(5))

    def test_dispatcher(self):
        rng = np.random.default_rng(10)
        targets = np.zeros((8, 3))
        for kind in LOSS_KINDS:
            out = batch_output(kind, rng)
            a, g_out = batch_loss(kind, out, targets)
            oracle = leaf(out)
            b = loss_reference.loss_graph(kind, oracle, targets)
            assert float(a) == float(b.data)
            b.backward()
            assert np.array_equal(g_out, oracle.grad)
        with pytest.raises(ValueError, match="unknown loss kind"):
            batch_loss("nope", out, targets)

    def test_graphs_backpropagate(self):
        rng = np.random.default_rng(11)
        m = Model.build(ModelConfig("heteroscedastic"), np.random.default_rng(96))
        x1 = rng.uniform(-1, 1, size=(4, 5))
        loss_and_gradient(m, x1, x1, np.ones((4, 5)), np.zeros((4, 3)))
        assert any(np.abs(g).max() > 0 for g in m.grads.values())


def outputs(kind, rng, batch):
    """A random head output for `kind`, wide in scale: the angles and, under
    combined, the bin logits each drawn at their own scale."""
    width = 6 if kind == "heteroscedastic" else 3
    out = rng.normal(0.0, rng.choice([0.1, 3.0, 30.0]), (batch, width))
    if kind == "combined":
        logits = rng.normal(0.0, rng.choice([0.1, 3.0, 30.0]), (batch, 198))
        out = np.hstack([out, logits])
    return out


def loss_graph_and_gradient(model, x1, x2, c, targets):
    """training.loss_and_gradient with the loss from its graph oracle: the
    graph's output gradient goes to the closed-form Model.backward."""
    tape = []
    out = leaf(model.outputs(x1, x2, c, tape))
    loss = loss_reference.loss_graph(model.config.loss_kind, out, targets)
    loss.backward()
    model.backward(tape, out.grad)
    return float(loss.data)


def training_data(n, seed):
    noise = NoiseModel(1.0, 0.02)
    return synthesize(n, np.random.default_rng(seed), noise=noise)


class TestClosedForm:
    """The closed forms against the graph oracle, bit for bit.

    Only the sign of a zero may differ, which np.array_equal ignores and
    which moves no parameter.
    """

    @pytest.mark.parametrize("kind", LOSS_KINDS)
    def test_values_and_output_gradients_equal_the_graph(self, kind):
        rng = np.random.default_rng(LOSS_KINDS.index(kind))
        for batch in (1, 2, 3, 17, 64, 79):
            for _ in range(20):
                out = outputs(kind, rng, batch)
                targets = rng.uniform(-99.0, 99.0, (batch, 3))
                oracle = leaf(out)
                new, g_out = batch_loss(kind, out, targets)
                old = loss_reference.loss_graph(kind, oracle, targets)
                assert np.array_equal(new, old.data)
                old.backward()
                assert np.array_equal(g_out, oracle.grad)

    @pytest.mark.parametrize("kind", LOSS_KINDS)
    def test_batch_loss_builds_no_node(self, kind, monkeypatch):
        out = outputs(kind, np.random.default_rng(3), 4)
        nodes = []
        init = ad.Tensor.__init__
        monkeypatch.setattr(ad.Tensor, "__init__",
                            lambda t, *args, **kw: nodes.append(t) or init(t, *args, **kw))
        value, g_out = batch_loss(kind, out, np.zeros((4, 3)))
        assert nodes == [] and np.shape(value) == ()
        assert g_out.shape == out.shape

    @pytest.mark.parametrize("kind", LOSS_KINDS)
    def test_flat_grad_equals_the_graph(self, kind):
        x1, x2, c, targets = prepare_arrays(training_data(40, 12))
        model = build_float64(ModelConfig(kind), np.random.default_rng(13))
        for rows in (slice(0, 1), slice(0, 40)):
            runs = []
            for step in (loss_and_gradient, loss_graph_and_gradient):
                loss = step(model, x1[rows], x2[rows], c[rows], targets[rows])
                runs.append((loss, model.flat_grad.copy()))
            (new, new_grad), (old, old_grad) = runs
            assert new == old
            assert np.array_equal(new_grad, old_grad)
            assert np.abs(new_grad).max() > 0.0

    @pytest.mark.parametrize("kind", LOSS_KINDS)
    def test_adam_steps_equal_the_graph(self, kind, monkeypatch):
        # 193 rows in batches of 16 end every epoch with a batch of one:
        # 31 epochs of 13 steps are 403 Adam steps
        data, val = training_data(193, 14), training_data(20, 15)
        config = TrainConfig(n_epochs=31, batch_size=16)
        runs = []
        for step in (loss_and_gradient, loss_graph_and_gradient):
            monkeypatch.setattr(training, "loss_and_gradient", step)
            model = build_float64(ModelConfig(kind), np.random.default_rng(16))
            history = train(model, data, config, np.random.default_rng(17), val=val)
            runs.append((model.flat.copy(), history.to_dict()))
        (new_flat, new_history), (old_flat, old_history) = runs
        assert np.array_equal(new_flat, old_flat)
        assert new_history == old_history
