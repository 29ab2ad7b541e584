"""Network topology: parameter counts, forward pass, heads, serialization hooks."""

from __future__ import annotations

import dataclasses
import tracemalloc

import numpy as np
import pytest

from headpose import autodiff as ad
from headpose import training
from headpose.formats import prepare_arrays, read_model, write_model
from headpose.geometry import EulerPose
from headpose.keypoints import NormalizedInput
from headpose.model import (
    FC_BASE,
    FIXED_CONFIG,
    LEAKY_SLOPE,
    LOSS_KINDS,
    MAX_FC_WIDTH,
    Model,
    ModelConfig,
    PoseEstimate,
    parameter_layout,
    scaled_width,
)
from headpose.synthetic import NoiseModel, synthesize
from headpose.training import TrainConfig, loss_and_gradient, train

import loss_reference
import network_reference
from autodiff_reference import kink_margin


def build(kind="heteroscedastic", alpha=1.0, seed=0):
    return Model.build(ModelConfig(loss_kind=kind, width_scale=alpha), np.random.default_rng(seed))


def rand_inputs(rng, batch=1):
    shape = (batch, 5)
    return (
        rng.uniform(-1, 1, size=shape),
        rng.uniform(-1, 1, size=shape),
        rng.uniform(0.0, 1.0, size=shape),
    )


def numpy_forward(model, x1, x2, c):
    """Independent re-implementation of the forward pass for one sample."""
    p = model.params
    slope = LEAKY_SLOPE

    def conv_k1(x, w, b):  # kernel size 1: per-position affine
        return np.outer(x, w[0]) + b

    def lrelu(v):
        return np.where(v >= 0, v, slope * v)

    a1 = lrelu(conv_k1(x1, p["conv_x1_w"], p["conv_x1_b"]))
    a2 = lrelu(conv_k1(x2, p["conv_x2_w"], p["conv_x2_b"]))
    gate = 1.0 / (1.0 + np.exp(-conv_k1(c, p["conv_c_w"], p["conv_c_b"])))
    h = np.concatenate([(a1 * gate).ravel(), (a2 * gate).ravel()])
    for i in range(3):
        h = lrelu(h @ p[f"fc{i}_w"] + p[f"fc{i}_b"])
    return h @ p["head_w"] + p["head_b"]


class TestWidths:
    def test_scaled_width_rounds_half_away(self):
        assert scaled_width(250, 1.0) == 250
        assert scaled_width(250, 0.6) == 150
        assert scaled_width(250, 0.2) == 50
        assert scaled_width(5, 0.5) == 3
        assert scaled_width(250, 0.001) == 1  # never below one unit

    def test_fc_widths(self):
        assert ModelConfig(width_scale=1.0).fc_widths == (250, 200, 150)
        assert ModelConfig(width_scale=0.6).fc_widths == (150, 120, 90)
        assert ModelConfig(width_scale=0.2).fc_widths == (50, 40, 30)
        assert FC_BASE == (250, 200, 150)

    def test_widest_layer_at_the_bound_is_allowed(self):
        scale = MAX_FC_WIDTH / max(FC_BASE)
        assert max(ModelConfig(width_scale=scale).fc_widths) == MAX_FC_WIDTH

    @pytest.mark.parametrize("scale", [(MAX_FC_WIDTH + 1) / max(FC_BASE), 1000.0, 1e308,
                                       float("inf"), float("nan"), 10**400])
    def test_wider_layers_are_refused(self, scale):
        # refused from the scale alone: no width of a huge scale is computed
        with pytest.raises(ValueError, match=f"wider than {MAX_FC_WIDTH} units"):
            ModelConfig(width_scale=scale)


class TestParameterCounts:
    @staticmethod
    def expected_params(widths, n_out, n_aux=0):
        conv = 3 * (1 * 5 + 5)  # three streams of (k*F weights + F biases)
        w0, w1, w2 = widths
        fc = (50 * w0 + w0) + (w0 * w1 + w1) + (w1 * w2 + w2)
        head = w2 * n_out + n_out + (w2 * n_aux + n_aux if n_aux else 0)
        return conv + fc + head

    def test_full_width(self):
        m = build(alpha=1.0)
        assert m.n_parameters() == self.expected_params((250, 200, 150), 6) == 94036

    def test_reduced_widths(self):
        assert build(alpha=0.6).n_parameters() == self.expected_params((150, 120, 90), 6) == 37236
        assert build(alpha=0.2).n_parameters() == self.expected_params((50, 40, 30), 6) == 6036

    def test_head_variants(self):
        assert build("mse").n_parameters() == self.expected_params((250, 200, 150), 3)
        assert build("combined").n_parameters() == self.expected_params(
            (250, 200, 150), 3, n_aux=3 * 66
        )

    def test_mult_adds_full_width(self):
        m = build(alpha=1.0)
        # conv taps + dense products; gating and activations excluded
        expect = 3 * 5 * 1 * 5 + 50 * 250 + 250 * 200 + 200 * 150 + 150 * 6
        assert m.n_mult_adds() == expect == 93475


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ModelConfig(loss_kind="nope")
        with pytest.raises(ValueError):
            ModelConfig(width_scale=0.0)

    def test_kernel_size_must_be_one(self):
        # the conv is a per-position affine map; no wider kernel is built
        with pytest.raises(ValueError, match="^kernel_size must be 1, got 3$"):
            ModelConfig.from_dict({"kernel_size": 3})

    def test_only_the_loss_and_width_are_settable(self):
        names = [f.name for f in dataclasses.fields(ModelConfig)]
        assert names == ["loss_kind", "width_scale"]

    def test_dict_round_trip(self):
        cfg = ModelConfig(loss_kind="combined", width_scale=0.6)
        assert ModelConfig.from_dict(cfg.to_dict()) == cfg

    def test_dict_records_the_fixed_architecture(self):
        # model files still carry all eight keys, in this order
        assert ModelConfig("mse", 0.2).to_dict() == {
            "loss_kind": "mse", "width_scale": 0.2, "n_filters": 5, "kernel_size": 1,
            "leaky_slope": 0.01, "n_bins": 66, "bin_width_degrees": 3.0, "init_variance": 0.05,
        }
        assert list(ModelConfig().to_dict())[2:] == list(FIXED_CONFIG)

    @pytest.mark.parametrize("key", list(FIXED_CONFIG))
    def test_from_dict_refuses_a_changed_fixed_key(self, key):
        changed = FIXED_CONFIG[key] * 2
        with pytest.raises(ValueError, match=f"^{key} must be {FIXED_CONFIG[key]}, got {changed}$"):
            ModelConfig.from_dict({**ModelConfig().to_dict(), key: changed})

    def test_head_sizes(self):
        assert ModelConfig("heteroscedastic").n_outputs == 6
        assert ModelConfig("mse").n_outputs == 3
        assert ModelConfig("combined").n_outputs == 3 + 198


class TestLayout:
    def test_order_and_shapes(self):
        layout = parameter_layout(ModelConfig("heteroscedastic"))
        names = [n for n, _ in layout]
        assert names == [
            "conv_x1_w", "conv_x1_b", "conv_x2_w", "conv_x2_b", "conv_c_w", "conv_c_b",
            "fc0_w", "fc0_b", "fc1_w", "fc1_b", "fc2_w", "fc2_b", "head_w", "head_b",
        ]
        shapes = dict(layout)
        assert shapes["conv_x1_w"] == (1, 5)
        assert shapes["fc0_w"] == (50, 250)
        assert shapes["head_w"] == (150, 6)

    def test_combined_appends_logits(self):
        # the bin logits are columns 3 on of the one head
        layout = parameter_layout(ModelConfig("combined"))
        assert layout[-2:] == [("head_w", (150, 201)), ("head_b", (201,))]
        assert [n for n, _ in layout] == [n for n, _ in parameter_layout(ModelConfig("mse"))]

    def test_wrong_params_rejected(self):
        cfg = ModelConfig("mse")
        params = {n: None for n, _ in parameter_layout(ModelConfig("combined"))}
        with pytest.raises(ValueError):
            Model(cfg, params)  # type: ignore[arg-type]


class TestForward:
    def test_matches_numpy_oracle(self):
        rng = np.random.default_rng(1)
        for kind in ("heteroscedastic", "mse", "combined"):
            m = build(kind, seed=2)
            x1, x2, c = rand_inputs(rng)
            out = m.outputs(x1, x2, c)
            expect = numpy_forward(m, x1[0], x2[0], c[0])
            assert out.shape == (1, m.config.n_outputs)
            assert np.allclose(out[0], expect, atol=1e-12)

    def test_batched_matches_single(self):
        rng = np.random.default_rng(3)
        m = build()
        x1, x2, c = rand_inputs(rng, batch=7)
        values = m.outputs(x1, x2, c)
        assert values.shape == (7, 6)
        for i in range(7):
            single = m.outputs(x1[i : i + 1], x2[i : i + 1], c[i : i + 1])
            assert np.allclose(values[i], single[0], atol=1e-12)

    def test_deterministic(self):
        rng = np.random.default_rng(4)
        x1, x2, c = rand_inputs(rng)
        a = build(seed=5).outputs(x1, x2, c)
        b = build(seed=5).outputs(x1, x2, c)
        assert np.array_equal(a, b)

    def test_confidence_moves_the_gate(self):
        # scaling a confidence changes the gated features and thus the output
        m = build(seed=6)
        rng = np.random.default_rng(7)
        x1, x2, c = rand_inputs(rng)
        lo = m.outputs(x1, x2, c * 0.1)
        hi = m.outputs(x1, x2, np.minimum(c * 0.1 + 0.9, 1.0))
        assert not np.allclose(lo, hi)

    def test_output_head_shapes(self):
        rng = np.random.default_rng(8)
        x1, x2, c = rand_inputs(rng)
        assert build("heteroscedastic").outputs(x1, x2, c).shape == (1, 6)
        assert build("mse").outputs(x1, x2, c).shape == (1, 3)
        assert build("combined").outputs(x1, x2, c).shape == (1, 3 + 198)

    def test_batches_only(self):
        x1, x2, c = rand_inputs(np.random.default_rng(8))
        with pytest.raises(ValueError, match="batch"):
            build().outputs(x1[0], x2[0], c[0])

    def test_kink_margin_positive(self):
        rng = np.random.default_rng(9)
        m = build(seed=10)
        x1, x2, c = rand_inputs(rng)
        margin = kink_margin(m, x1, x2, c)
        assert np.isfinite(margin) and margin > 0.0


def training_data(n, seed):
    return synthesize(n, np.random.default_rng(seed), noise=NoiseModel(1.0, 0.02))


def graph_outputs(model, x1, x2, c):
    """Model.outputs from the op graph oracle."""
    return network_reference.forward(model, x1, x2, c).data


class TestClosedFormNetwork:
    """Model.outputs and training.loss_and_gradient against the op graphs of
    tests/network_reference.py and tests/loss_reference.py, bit for bit.

    Only the sign of a zero gradient may differ, which np.array_equal
    ignores and which moves no parameter.
    """

    @pytest.mark.parametrize("kind", LOSS_KINDS)
    def test_inference_equals_the_graph(self, kind):
        rng = np.random.default_rng(30 + LOSS_KINDS.index(kind))
        m = build(kind, seed=31)
        for batch in (1, 2, 7, 64, 79, 1500):
            x1, x2, c = rand_inputs(rng, batch)
            out = graph_outputs(m, x1, x2, c)
            angles, log_var = m.predict_batch(x1, x2, c)
            assert np.array_equal(angles, out[:, :3])
            if kind == "heteroscedastic":
                assert np.array_equal(log_var, out[:, 3:6])
            else:
                assert log_var is None
            assert np.array_equal(m.outputs(x1, x2, c), out)

    @pytest.mark.parametrize("kind", LOSS_KINDS)
    def test_training_forward_and_flat_grad_equal_the_graph(self, kind):
        x1, x2, c, targets = prepare_arrays(training_data(64, 32))
        m = build(kind, seed=33)
        for batch in (1, 40, 64):
            rows = slice(0, batch)
            runs = []
            for step in (loss_and_gradient, loss_reference.loss_and_gradient):
                m.flat_grad[...] = np.nan  # each step replaces the gradient
                loss = step(m, x1[rows], x2[rows], c[rows], targets[rows])
                runs.append((loss, m.flat_grad.copy()))
            (new, new_grad), (old, old_grad) = runs
            assert type(new) is float and new == old
            assert np.array_equal(new_grad, old_grad)
            assert np.abs(new_grad).max() > 0.0

    @pytest.mark.parametrize("kind", LOSS_KINDS)
    def test_backward_overwrites_flat_grad(self, kind):
        # backward writes every slice of flat_grad, so whatever it held
        # before, even NaN, is gone; the output gradients come from the graph
        x1, x2, c, targets = prepare_arrays(training_data(40, 42))
        m = build(kind, seed=43)
        loss_reference.loss_and_gradient(m, x1, x2, c, targets)
        expect = m.flat_grad.copy()
        m.flat_grad[...] = np.nan
        tape = []
        out = ad.Tensor(m.outputs(x1, x2, c, tape))
        loss_reference.loss_graph(kind, out, targets).backward()
        m.backward(tape, out.grad)
        assert np.array_equal(m.flat_grad, expect)

    @pytest.mark.parametrize("kind", LOSS_KINDS)
    def test_adam_steps_equal_the_graph(self, kind, monkeypatch):
        # 193 rows in batches of 16 end every epoch with a batch of one:
        # 31 epochs of 13 steps are 403 Adam steps
        data, val = training_data(193, 34), training_data(20, 35)
        config = TrainConfig(n_epochs=31, batch_size=16)
        runs = []
        for oracle in (False, True):
            if oracle:
                monkeypatch.setattr(training, "loss_and_gradient",
                                    loss_reference.loss_and_gradient)
                monkeypatch.setattr(Model, "outputs", graph_outputs)
            model = build(kind, seed=36)
            history = train(model, data, config, np.random.default_rng(37), val=val)
            runs.append((model.flat.copy(), history.to_dict()))
        (new_flat, new_history), (old_flat, old_history) = runs
        assert np.array_equal(new_flat, old_flat)
        assert new_history == old_history

    @pytest.mark.parametrize("kind", LOSS_KINDS)
    def test_training_builds_no_tensor(self, kind, monkeypatch):
        m = build(kind, alpha=0.2, seed=39)
        built = []
        init = ad.Tensor.__init__
        monkeypatch.setattr(ad.Tensor, "__init__",
                            lambda t, *args, **kw: built.append(t) or init(t, *args, **kw))
        train(m, training_data(24, 38), TrainConfig(n_epochs=2, batch_size=8),
              np.random.default_rng(40))
        assert built == []
        assert all(g.any() for g in m.grads.values())


class TestInferenceMemory:
    def test_predict_batch_peaks_below_10_mb_at_1500_rows(self):
        # the op graph kept every activation alive and peaked at 24.2 MB
        m = build(alpha=1.0, seed=40)
        x1, x2, c = rand_inputs(np.random.default_rng(41), batch=1500)
        tracemalloc.start()
        try:
            m.predict_batch(x1, x2, c)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 10_000_000, f"peak {peak / 1e6:.1f} MB"

    def test_inference_builds_no_tensor(self, monkeypatch):
        models = [build(kind, alpha=0.2, seed=42) for kind in LOSS_KINDS]
        x1, x2, c, targets = prepare_arrays(training_data(8, 43))
        built = []
        init = ad.Tensor.__init__
        monkeypatch.setattr(ad.Tensor, "__init__",
                            lambda t, *args, **kw: built.append(t) or init(t, *args, **kw))
        for m in models:
            m.predict_batch(x1, x2, c)
            m.predict(NormalizedInput(x1=x1[0], x2=x2[0], c=c[0]))
            training._validation_pass(m, (x1, x2, c, targets))
        assert built == []


class TestPredict:
    def test_heteroscedastic_estimate(self):
        m = build(seed=11)
        rng = np.random.default_rng(12)
        x1, x2, c = rand_inputs(rng)
        est = m.predict(NormalizedInput(x1=x1[0], x2=x2[0], c=c[0]))
        assert isinstance(est, PoseEstimate)
        assert isinstance(est.pose, EulerPose)
        assert est.log_variance.shape == (3,)
        raw = m.outputs(x1, x2, c)[0]
        assert est.pose.yaw == raw[0] and est.log_variance.tolist() == raw[3:6].tolist()

    def test_point_estimate_has_no_variance(self):
        m = build("mse", seed=13)
        rng = np.random.default_rng(14)
        x1, x2, c = rand_inputs(rng)
        est = m.predict(NormalizedInput(x1=x1[0], x2=x2[0], c=c[0]))
        assert est.log_variance is None

    def test_predict_batch(self):
        rng = np.random.default_rng(15)
        x1, x2, c = rand_inputs(rng, batch=4)
        angles, log_var = build().predict_batch(x1, x2, c)
        assert angles.shape == (4, 3) and log_var.shape == (4, 3)
        angles, log_var = build("mse").predict_batch(x1, x2, c)
        assert angles.shape == (4, 3) and log_var is None


class TestSnapshot:
    def test_round_trip(self):
        m = build(seed=16)
        snap = m.snapshot()
        for t in m.params.values():
            t += 1.0
        m.restore(snap)
        assert np.array_equal(m.flat, snap)
        for name, lo, hi in zip(m.params, m.offsets[:-1], m.offsets[1:]):
            assert np.array_equal(m.params[name].ravel(), snap[lo:hi])

    def test_snapshot_is_a_copy(self):
        m = build(seed=17)
        snap = m.snapshot()
        m.params["conv_x1_w"] += 1.0
        assert not np.shares_memory(snap, m.flat)
        assert not np.array_equal(m.params["conv_x1_w"].ravel(), snap[:5])

    def test_restore_validates(self):
        m = build(seed=18)
        before = m.flat.copy()
        for bad in (m.snapshot()[:-1], build("mse", seed=18).snapshot()):
            with pytest.raises(ValueError, match="snapshot"):
                m.restore(bad)
        assert np.array_equal(m.flat, before)


def assert_views_of_flat_vectors(model):
    assert list(model.params) == list(model.grads)
    for name, shape in parameter_layout(model.config):
        assert model.params[name].shape == model.grads[name].shape == shape, name
        assert np.shares_memory(model.params[name], model.flat), name
        assert np.shares_memory(model.grads[name], model.flat_grad), name
    assert model.flat.size == model.flat_grad.size == model.n_parameters()


class TestFlatStorage:
    def test_views_after_build(self):
        for kind in ("heteroscedastic", "mse", "combined"):
            assert_views_of_flat_vectors(build(kind, alpha=0.2))

    def test_views_after_read_model(self, tmp_path):
        path = tmp_path / "m.hpm"
        write_model(path, build("combined", alpha=0.2))
        assert_views_of_flat_vectors(read_model(path))

    def test_views_after_restore_and_a_training_step(self):
        m = build(alpha=0.2, seed=22)
        snap = m.snapshot()
        m.flat += 1.0
        m.restore(snap)
        assert np.array_equal(m.flat, snap)
        data = synthesize(8, np.random.default_rng(23))
        train(m, data, TrainConfig(n_epochs=1, batch_size=8), np.random.default_rng(24))
        assert not np.array_equal(m.flat, snap)
        assert m.flat_grad.any()
        assert_views_of_flat_vectors(m)

    def test_layout_offsets_name_elements(self):
        m = build("combined", alpha=0.2)
        for name, lo, hi in zip(m.params, m.offsets[:-1], m.offsets[1:]):
            assert m.parameter_at(lo) == m.parameter_at(hi - 1) == name


class TestInit:
    def test_init_statistics(self):
        m = build(seed=19)
        w = m.params["fc1_w"]  # 50,000 draws
        assert abs(w.mean()) < 0.01
        assert w.std() == pytest.approx(np.sqrt(0.05), rel=0.02)

    def test_different_seeds_differ(self):
        a = build(seed=20).params["fc0_w"]
        b = build(seed=21).params["fc0_w"]
        assert not np.array_equal(a, b)
