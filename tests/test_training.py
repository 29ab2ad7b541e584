"""Training loop: Adam semantics, history, determinism, convergence."""

from __future__ import annotations

import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest

from headpose import training
from headpose.geometry import EulerPose
from headpose.keypoints import KeypointSet, normalize
from headpose.losses import batch_loss
from headpose.model import LOSS_KINDS, Model, ModelConfig
from headpose.synthetic import NoiseModel, Sample, generate_dataset, synthesize
from headpose.training import (
    ADAM_EPSILON,
    AdamState,
    TrainConfig,
    TrainHistory,
    loss_and_gradient,
    prepare_arrays,
    train,
)

from adam_reference import TensorAdam
from synthetic_reference import dataset


def small_samples(n=64, seed=0, noise=NoiseModel()):
    return generate_dataset(n, np.random.default_rng(seed), noise=noise)


def small_dataset(n=64, seed=0, noise=NoiseModel()):
    return synthesize(n, np.random.default_rng(seed), noise=noise)


class TestTrainConfig:
    def test_defaults(self):
        cfg = TrainConfig()
        assert cfg.batch_size == 64 and cfg.learning_rate == 0.001

    def test_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(n_epochs=0)
        with pytest.raises(ValueError):
            TrainConfig(batch_size=0)
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=0.0)

    def test_only_what_callers_set_is_settable(self):
        names = [f.name for f in dataclasses.fields(TrainConfig)]
        assert names == ["n_epochs", "batch_size", "learning_rate"]


def vector_holder(values):
    """The flat vectors AdamState reads, for one parameter named w."""
    flat = np.array(values, dtype=np.float64)
    return SimpleNamespace(flat=flat, flat_grad=np.zeros_like(flat), parameter_at=lambda i: "w")


def batch_step(model, arrays, idx):
    x1, x2, c, targets = arrays
    return loss_and_gradient(model, x1[idx], x2[idx], c[idx], targets[idx])


class TestAdam:
    def test_first_step_identity(self):
        # with zeroed moments the bias correction cancels: step is
        # -lr * g / (|g| + eps) elementwise
        w = vector_holder([1.0, -2.0, 3.0])
        g = np.array([0.5, -4.0, 1e-12])
        w.flat_grad[...] = g
        cfg = TrainConfig(n_epochs=1, learning_rate=0.01)
        AdamState(w).step(w, cfg)
        expect = np.array([1.0, -2.0, 3.0]) - 0.01 * g / (np.abs(g) + ADAM_EPSILON)
        assert np.array_equal(w.flat, expect)

    def test_moments_accumulate(self):
        w = vector_holder([0.0])
        cfg = TrainConfig(n_epochs=1, learning_rate=0.1)
        opt = AdamState(w)
        for _ in range(3):
            w.flat_grad[...] = 1.0
            opt.step(w, cfg)
        assert opt.t == 3
        # constant gradient: every step is about -lr
        assert w.flat[0] == pytest.approx(-0.3, rel=1e-6)

    def test_every_parameter_gets_a_gradient(self):
        # why AdamState has no "no gradient" case: under each loss kind,
        # every parameter is reachable from the loss
        arrays = prepare_arrays(small_dataset(16, 26))
        for kind in LOSS_KINDS:
            m = Model.build(ModelConfig(kind, width_scale=0.2), np.random.default_rng(27))
            batch_step(m, arrays, np.arange(16))
            for name, g in m.grads.items():
                assert g.any(), f"{kind}: {name} got no gradient"

    def test_non_finite_gradient_raises(self):
        w = vector_holder([1.0])
        w.flat_grad[...] = np.nan
        with pytest.raises(FloatingPointError):
            AdamState(w).step(w, TrainConfig())

    def test_non_finite_gradient_names_tensor_and_step(self):
        m = Model.build(ModelConfig("mse", width_scale=0.2), np.random.default_rng(28))
        opt = AdamState(m)
        opt.step(m, TrainConfig())
        before = m.flat.copy()
        m.flat_grad[m.offsets[8] + 3] = np.inf  # an element of fc1_w
        with pytest.raises(FloatingPointError, match="non-finite gradient in fc1_w at step 2"):
            opt.step(m, TrainConfig())
        assert np.array_equal(m.flat, before)

    @pytest.mark.parametrize("kind", LOSS_KINDS)
    def test_matches_per_tensor_oracle_bit_for_bit(self, kind):
        arrays = prepare_arrays(small_dataset(64, 29, NoiseModel(1.0, 0.02)))
        cfg = TrainConfig(learning_rate=0.005)
        fast, slow = (
            Model.build(ModelConfig(kind, width_scale=0.2), np.random.default_rng(30))
            for _ in range(2)
        )
        opt, oracle = AdamState(fast), TensorAdam(slow)
        order = np.random.default_rng(31)
        for _ in range(400):
            idx = order.choice(64, size=16, replace=False)
            for model in (fast, slow):
                batch_step(model, arrays, idx)
            opt.step(fast, cfg)
            oracle.step(cfg)
            assert np.array_equal(fast.flat, slow.flat)
        assert np.array_equal(opt.m, np.concatenate([m.ravel() for m in oracle.m]))
        assert np.array_equal(opt.v, np.concatenate([v.ravel() for v in oracle.v]))


class TestPrepareArrays:
    def test_shapes_and_targets(self):
        samples = small_samples(8, seed=1)
        x1, x2, c, targets = prepare_arrays(dataset(samples))
        assert x1.shape == x2.shape == c.shape == (8, 5)
        assert targets.shape == (8, 3)
        for i, s in enumerate(samples):
            assert targets[i].tolist() == [s.pose.yaw, s.pose.pitch, s.pose.roll]
            n = normalize(s.keypoints)
            assert np.array_equal(x1[i], n.x1)


class TestTrainLoop:
    def test_history_lengths(self):
        m = Model.build(ModelConfig("heteroscedastic"), np.random.default_rng(0))
        hist = train(m, small_dataset(48, 2), TrainConfig(n_epochs=3, batch_size=16),
                     np.random.default_rng(1))
        assert len(hist.train_loss) == 3
        assert len(hist.val_loss) == 3
        assert len(hist.val_mae) == 3 and len(hist.val_mae[0]) == 3
        assert 0 <= hist.best_epoch < 3
        assert hist.best_val_loss == min(hist.val_loss)

    def test_explicit_validation_set(self):
        m = Model.build(ModelConfig("mse"), np.random.default_rng(2))
        hist = train(m, small_dataset(32, 3), TrainConfig(n_epochs=2, batch_size=16),
                     np.random.default_rng(3), val=small_dataset(16, 4))
        assert len(hist.val_loss) == 2

    def test_parameters_end_at_best_epoch(self):
        m = Model.build(ModelConfig("heteroscedastic"), np.random.default_rng(6))
        val = small_dataset(24, 7)
        hist = train(m, small_dataset(64, 8), TrainConfig(n_epochs=4, batch_size=16),
                     np.random.default_rng(9), val=val)
        x1, x2, c, t = prepare_arrays(val)
        now = float(batch_loss("heteroscedastic", m.outputs(x1, x2, c), t)[0])
        assert now == pytest.approx(hist.best_val_loss, abs=1e-12)

    def test_empty_dataset_raises(self):
        m = Model.build(ModelConfig("mse"), np.random.default_rng(10))
        with pytest.raises(ValueError):
            train(m, dataset([]), TrainConfig(), np.random.default_rng(0))

    def test_empty_validation_set_raises(self):
        # an empty val must not fall back to training without validation
        m = Model.build(ModelConfig("mse"), np.random.default_rng(10))
        with pytest.raises(ValueError, match="no validation samples"):
            train(m, small_dataset(8, 1), TrainConfig(n_epochs=1), np.random.default_rng(0),
                  val=dataset([]))

    def test_split_cannot_eat_everything(self):
        m = Model.build(ModelConfig("mse"), np.random.default_rng(11))
        with pytest.raises(ValueError, match="validation split would consume every sample"):
            train(m, small_dataset(1, 12), TrainConfig(), np.random.default_rng(0))

    def test_non_finite_loss_reports_position(self):
        m = Model.build(ModelConfig("mse"), np.random.default_rng(13))
        bad = small_dataset(8, 14)
        bad.poses[0, 0] = np.inf
        cfg = TrainConfig(n_epochs=1, batch_size=8)
        # a given validation set keeps the bad record in the training batch
        with pytest.raises(FloatingPointError, match="non-finite loss at epoch 0, batch 0"):
            train(m, bad, cfg, np.random.default_rng(0), val=small_dataset(2, 18))

    def test_non_finite_gradient_reports_tensor_step_and_last_loss(self, monkeypatch):
        m = Model.build(ModelConfig("mse", width_scale=0.2), np.random.default_rng(15))
        losses = []

        def poisoned(model, *batch):
            losses.append(loss_and_gradient(model, *batch))
            if len(losses) == 3:
                model.grads["fc1_w"][...] = np.nan
            return losses[-1]

        monkeypatch.setattr(training, "loss_and_gradient", poisoned)
        cfg = TrainConfig(n_epochs=1, batch_size=8)
        with pytest.raises(FloatingPointError) as info:
            train(m, small_dataset(32, 16), cfg, np.random.default_rng(17))
        assert str(info.value) == (
            f"non-finite gradient in fc1_w at step 3 (last finite training loss {losses[2]:.6g})"
        )

    def test_deterministic_for_fixed_seeds(self):
        def run():
            m = Model.build(ModelConfig("heteroscedastic"), np.random.default_rng(20))
            hist = train(m, small_dataset(48, 21, NoiseModel(1.0, 0.02)),
                         TrainConfig(n_epochs=3, batch_size=16), np.random.default_rng(22))
            return m.snapshot(), hist.train_loss
        snap_a, loss_a = run()
        snap_b, loss_b = run()
        assert loss_a == loss_b
        assert np.array_equal(snap_a, snap_b)

    def test_split_equals_explicit_validation_set(self):
        # the split normalizes every record once and then takes rows; that
        # is the run given the same rows as two datasets, bit for bit
        samples = small_samples(40, 30, NoiseModel(1.0, 0.02))
        cfg = TrainConfig(n_epochs=2, batch_size=8)
        split_model, given_model = (
            Model.build(ModelConfig("heteroscedastic", width_scale=0.2),
                        np.random.default_rng(31)) for _ in range(2)
        )
        split = train(split_model, dataset(samples), cfg, np.random.default_rng(32))
        rng = np.random.default_rng(32)
        order = rng.spawn(1)[0].permutation(40)
        rows = [dataset([samples[i] for i in part]) for part in np.split(order, [4])]
        given = train(given_model, rows[1], cfg, rng, val=rows[0])
        assert split.to_dict() == given.to_dict()
        assert np.array_equal(split_model.flat, given_model.flat)

    def test_all_losses_reduce_training_loss(self):
        data = small_dataset(96, 23)
        for kind in ("heteroscedastic", "mse", "combined"):
            m = Model.build(ModelConfig(kind), np.random.default_rng(24))
            cfg = TrainConfig(n_epochs=8, batch_size=32)
            hist = train(m, data, cfg, np.random.default_rng(25))
            assert hist.train_loss[-1] < hist.train_loss[0]


class TestConvergence:
    def test_linear_task_converges_fast(self):
        # targets are a fixed linear map of the normalized coordinates, a
        # function the trunk can represent almost exactly
        rng = np.random.default_rng(42)
        a_map = rng.normal(0, 4.0, size=(3, 10))

        def make(n, seed):
            g = np.random.default_rng(seed)
            out = []
            for _ in range(n):
                coords = g.uniform(-80, 80, size=(5, 2))
                kp = KeypointSet.from_triplets([[x, y, 1.0] for x, y in coords])
                nz = normalize(kp)
                pose = a_map @ np.concatenate([nz.x1, nz.x2])
                out.append(Sample(kp, EulerPose(*pose)))
            return dataset(out)

        m = Model.build(ModelConfig("mse"), np.random.default_rng(0))
        cfg = TrainConfig(n_epochs=200, batch_size=32)
        hist = train(m, make(512, 1), cfg, np.random.default_rng(1), val=make(200, 2))
        best = hist.val_mae[hist.best_epoch]
        assert float(np.mean(best)) < 1.0


class TestHistory:
    def test_to_dict_keys(self):
        hist = TrainHistory(train_loss=[1.0], val_loss=[2.0], val_mae=[[1, 2, 3]],
                            best_epoch=0, best_val_loss=2.0)
        d = hist.to_dict()
        assert list(d.keys()) == ["train_loss", "val_loss", "val_mae", "best_epoch", "best_val_loss"]
