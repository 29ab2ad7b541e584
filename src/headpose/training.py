"""Minibatch training loop with Adam and best-epoch selection.

Inputs are normalized once up front; every epoch reshuffles the training
indices with the caller's generator, so a fixed seed reproduces the run
bit for bit. After each epoch the loss is measured on validation data,
given or split off, and the parameters that scored best are restored at
the end, which matters here because the heteroscedastic objective can
start oscillating once the variance head sharpens. A step is three
calls: the network's output, the loss with its gradient, and the
network's backward pass, which writes the model's whole flat gradient
vector; Adam then updates the flat parameter vector in place.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .formats import Dataset, prepare_arrays
from .losses import BIN_HI_DEGREES, BIN_LO_DEGREES, batch_loss
from .model import Model

# Adam's moment decay rates and denominator guard, at the defaults of
# Kingma & Ba (2015)
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8

# The share of the training records held out for validation when no
# validation set is given
VAL_FRACTION = 0.1


@dataclass(frozen=True)
class TrainConfig:
    n_epochs: int = 100
    batch_size: int = 64
    learning_rate: float = 0.001

    def __post_init__(self) -> None:
        if self.n_epochs < 1 or self.batch_size < 1:
            raise ValueError("n_epochs and batch_size must be >= 1")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be > 0")


class AdamState:
    """Adam (Kingma & Ba, 2015) as in-place ops on a model's flat vectors."""

    def __init__(self, model: Model):
        self.m, self.v, self._a, self._b = (np.zeros_like(model.flat) for _ in range(4))
        self.t = 0

    def step(self, model: Model, config: TrainConfig) -> None:
        self.t += 1
        b1, b2 = ADAM_BETA1, ADAM_BETA2
        bias1 = 1.0 - b1**self.t
        bias2 = 1.0 - b2**self.t
        g, a, b = model.flat_grad, self._a, self._b
        if not np.isfinite(g).all():
            name = model.parameter_at(np.flatnonzero(~np.isfinite(g))[0])
            raise FloatingPointError(f"non-finite gradient in {name} at step {self.t}")
        # the expression order of b1*m + (1-b1)*g, b2*v + (1-b2)*g*g and
        # p - lr*(m/bias1) / (sqrt(v/bias2) + eps), op for op
        self.m *= b1
        self.m += np.multiply(g, 1.0 - b1, out=a)
        self.v *= b2
        self.v += np.multiply(np.multiply(g, 1.0 - b2, out=a), g, out=a)
        np.sqrt(np.divide(self.v, bias2, out=a), out=a)
        a += ADAM_EPSILON
        np.multiply(np.divide(self.m, bias1, out=b), config.learning_rate, out=b)
        model.flat -= np.divide(b, a, out=b)


@dataclass
class TrainHistory:
    train_loss: list[float] = field(default_factory=list)
    val_loss: list[float] = field(default_factory=list)
    # one (yaw, pitch, roll) MAE triple per epoch, for reporting only
    val_mae: list[list[float]] = field(default_factory=list)
    best_epoch: int = -1
    best_val_loss: float | None = None

    def to_dict(self) -> dict:
        return asdict(self)


def loss_and_gradient(model: Model, x1: np.ndarray, x2: np.ndarray, c: np.ndarray,
                      targets: np.ndarray) -> float:
    """The batch-mean loss of a (B, 5) batch; its gradient replaces flat_grad."""
    tape: list = []
    value, g_out = batch_loss(model.config.loss_kind, model.outputs(x1, x2, c, tape), targets)
    model.backward(tape, g_out)
    return float(value)


def _require_binned(*datasets: Dataset | None) -> None:
    """ValueError naming the first record whose pose lies outside the bins of
    the combined loss; a None dataset is skipped."""
    for data in datasets:
        if data is None:
            continue
        outside = ((data.poses < BIN_LO_DEGREES) | (data.poses > BIN_HI_DEGREES)).any(axis=1)
        if outside.any():
            raise ValueError(f"{data.record_name(int(np.argmax(outside)))}: pose outside "
                             f"[{BIN_LO_DEGREES}, {BIN_HI_DEGREES}] degrees, "
                             "the range of the combined loss's bins")


def _validation_pass(model: Model, arrays) -> tuple[float, list[float]]:
    """Loss plus per-angle MAE on a held-out split: one forward pass, no backward."""
    x1, x2, c, targets = arrays
    out = model.outputs(x1, x2, c)
    loss, _ = batch_loss(model.config.loss_kind, out, targets)
    per_angle = np.abs(out[:, :3] - targets).mean(axis=0)
    return float(loss), [float(v) for v in per_angle]


def train(
    model: Model,
    data: Dataset,
    config: TrainConfig,
    rng: np.random.Generator,
    val: Dataset | None = None,
) -> TrainHistory:
    """Optimize the model in place; parameters end at the best epoch.

    When val is None, the head VAL_FRACTION of a shuffle of `data`, at least
    one record, becomes the validation split. The shuffle comes from a child
    stream of `rng` (`rng.spawn`), so the split does not depend on how many
    draws built the model. Empty `data`, an empty `val`, a split that would
    take every record, or under the combined loss a pose outside its bins
    raises ValueError.
    """
    if not len(data):
        raise ValueError("no training samples")
    if val is not None and not len(val):
        raise ValueError("no validation samples")
    arrays = prepare_arrays(data)
    if model.config.loss_kind == "combined":
        _require_binned(data, val)
    if val is not None:
        val_arrays = prepare_arrays(val)
    else:
        order = rng.spawn(1)[0].permutation(len(data))
        n_val = max(1, int(round(len(data) * VAL_FRACTION)))
        if n_val >= len(data):
            raise ValueError("validation split would consume every sample")
        val_arrays = tuple(a[order[:n_val]] for a in arrays)
        arrays = tuple(a[order[n_val:]] for a in arrays)
    x1, x2, c, targets = arrays

    opt = AdamState(model)
    history = TrainHistory()
    best_val = np.inf
    n = len(targets)
    last_finite = "no finite training loss yet"

    # Overflow shows as a non-finite batch loss, gradient or validation loss,
    # which the checks below report; numpy's warnings would only repeat that.
    with np.errstate(all="ignore"):
        for epoch in range(config.n_epochs):
            order = rng.permutation(n)
            running = 0.0
            for start in range(0, n, config.batch_size):
                idx = order[start : start + config.batch_size]
                value = loss_and_gradient(model, x1[idx], x2[idx], c[idx], targets[idx])
                if not np.isfinite(value):
                    raise FloatingPointError(
                        f"non-finite loss at epoch {epoch}, batch {start // config.batch_size}"
                        f" ({last_finite})"
                    )
                last_finite = f"last finite training loss {value:.6g}"
                try:
                    opt.step(model, config)
                except FloatingPointError as e:
                    raise FloatingPointError(f"{e} ({last_finite})") from e
                running += value * len(idx)
            history.train_loss.append(running / n)

            val, per_angle = _validation_pass(model, val_arrays)
            if not np.isfinite(val):
                raise FloatingPointError(
                    f"non-finite validation loss at epoch {epoch} ({last_finite})")
            history.val_loss.append(val)
            history.val_mae.append(per_angle)
            if val < best_val:
                best_val = val
                best_snapshot = model.snapshot()
                history.best_epoch = epoch
                history.best_val_loss = val

    model.restore(best_snapshot)
    return history
