"""Loss oracles for the tests: per-sample numeric values and the loss graphs.

The numeric oracles give per-sample values in plain numpy and carry the
likelihood identity the heteroscedastic loss rests on. The graph oracles
build each batch-mean loss from general autodiff nodes (slices, element
ops, a row-wise cross entropy and a sum); headpose.losses derives the
same values and output gradients by hand, in the same op order, and the
tests require the two to agree bit for bit. `loss_and_gradient` chains
the network graph and the loss graph: the oracle of the training step
`headpose.training.loss_and_gradient`. Nothing in the package calls this
file.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from headpose.autodiff import Tensor
from headpose.geometry import EulerPose
from headpose.losses import bin_index
from headpose.model import N_BINS, Model, PoseEstimate

import network_reference
from network_reference import NetworkOutput, mul


def as_array(pose: EulerPose) -> np.ndarray:
    return np.array([pose.yaw, pose.pitch, pose.roll], dtype=np.float64)


def heteroscedastic_terms(values: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Per-angle loss terms, shape (..., 3), from a six-value head."""
    v = np.asarray(values, dtype=np.float64)
    q = np.asarray(targets, dtype=np.float64)
    f, s = v[..., :3], v[..., 3:6]
    return 0.5 * np.exp(-s) * (q - f) ** 2 + 0.5 * s


def heteroscedastic_loss(values: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Per-sample loss (terms summed over the three angles)."""
    return heteroscedastic_terms(values, targets).sum(axis=-1)


def gaussian_nll(values: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Exact per-sample Gaussian negative log-likelihood, three angles."""
    v = np.asarray(values, dtype=np.float64)
    q = np.asarray(targets, dtype=np.float64)
    f, s = v[..., :3], v[..., 3:6]
    terms = 0.5 * np.log(2.0 * np.pi) + 0.5 * s + 0.5 * np.exp(-s) * (q - f) ** 2
    return terms.sum(axis=-1)


def squared_error_loss(values: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Per-sample summed squared error over the three angles."""
    v = np.asarray(values, dtype=np.float64)
    q = np.asarray(targets, dtype=np.float64)
    return ((q - v[..., :3]) ** 2).sum(axis=-1)


@dataclass(frozen=True)
class LossValue:
    """A single sample's loss, total plus the three per-angle terms."""

    total: float
    per_angle: tuple[float, float, float]


def heteroscedastic_value(estimate: PoseEstimate, target: EulerPose) -> LossValue:
    if estimate.log_variance is None:
        raise ValueError("estimate carries no log-variances")
    values = np.concatenate([as_array(estimate.pose), estimate.log_variance])
    terms = heteroscedastic_terms(values, as_array(target))
    return LossValue(float(terms.sum()), tuple(float(t) for t in terms))


def squared_error_value(pose: EulerPose, target: EulerPose) -> LossValue:
    terms = (as_array(target) - as_array(pose)) ** 2
    return LossValue(float(terms.sum()), tuple(float(t) for t in terms))


def combined_value(pose: EulerPose, logits: np.ndarray, target: EulerPose) -> LossValue:
    """Per-angle cross entropy on binned targets plus squared error."""
    z = np.asarray(logits, dtype=np.float64)
    n = N_BINS
    if z.shape != (3 * n,):
        raise ValueError(f"expected {3 * n} logits, got {z.shape}")
    q = as_array(target)
    idx = bin_index(q)
    sq = (q - as_array(pose)) ** 2
    terms = []
    for angle in range(3):
        row = z[angle * n : (angle + 1) * n]
        lse = float(np.log(np.exp(row - row.max()).sum()) + row.max())
        terms.append(lse - float(row[idx[angle]]) + float(sq[angle]))
    return LossValue(float(sum(terms)), tuple(terms))


def nll_gap(estimate: PoseEstimate, target: EulerPose) -> float:
    """Worst per-angle gap between the loss term and the exact Gaussian
    negative log-likelihood with the constant 0.5*log(2*pi) removed.

    Algebraically zero; anything above rounding noise means the loss no
    longer matches its maximum-likelihood derivation.
    """
    if estimate.log_variance is None:
        raise ValueError("estimate carries no log-variances")
    values = np.concatenate([as_array(estimate.pose), estimate.log_variance])
    q = as_array(target)
    terms = heteroscedastic_terms(values, q)
    f, s = values[:3], values[3:6]
    sigma_sq = np.exp(s)
    nll = (q - f) ** 2 / (2.0 * sigma_sq) + 0.5 * np.log(sigma_sq) + 0.5 * np.log(2.0 * np.pi)
    return float(np.abs(terms - (nll - 0.5 * np.log(2.0 * np.pi))).max())


# -- the loss graphs ----------------------------------------------------


def _require_same_shape(a: Tensor, b: Tensor, op: str) -> None:
    if a.shape != b.shape:
        raise ValueError(f"{op}: shape mismatch {a.shape} vs {b.shape}")


def add(a: Tensor, b: Tensor) -> Tensor:
    _require_same_shape(a, b, "add")
    return Tensor(a.data + b.data, (a, b), lambda g: (g, g))


def sub(a: Tensor, b: Tensor) -> Tensor:
    _require_same_shape(a, b, "sub")
    return Tensor(a.data - b.data, (a, b), lambda g: (g, -g))


def neg(a: Tensor) -> Tensor:
    return Tensor(-a.data, (a,), lambda g: (-g,))


def scale(a: Tensor, k: float) -> Tensor:
    """Multiply by a constant scalar (no gradient flows to k)."""
    return Tensor(a.data * k, (a,), lambda g: (g * k,))


def exp(a: Tensor) -> Tensor:
    out = np.exp(a.data)
    return Tensor(out, (a,), lambda g: (g * out,))


def tsum(a: Tensor) -> Tensor:
    """Sum every element into a scalar."""
    return Tensor(a.data.sum(), (a,), lambda g: (np.broadcast_to(g, a.shape).copy(),))


def slice_last(a: Tensor, start: int, stop: int) -> Tensor:
    """Slice along the last axis; the gradient scatters back zero-padded."""
    out = a.data[..., start:stop]

    def vjp(g):
        full = np.zeros(a.shape)
        full[..., start:stop] = g
        return (full,)

    return Tensor(out, (a,), vjp)


def cross_entropy_logits(logits: Tensor, target_idx: np.ndarray) -> Tensor:
    """Per-row cross entropy logsumexp(logits) - logits[target].

    logits: (B, n) with integer targets (B,). Returns (B,). Stable via the
    max-shift; the gradient is softmax(logits) minus the one-hot target.
    """
    z = logits.data
    if z.ndim != 2:
        raise ValueError(f"cross_entropy_logits expects (B, n), got {logits.shape}")
    idx = np.asarray(target_idx)
    if idx.shape != (z.shape[0],):
        raise ValueError("target index shape must match the batch")
    zmax = z.max(axis=1, keepdims=True)
    ez = np.exp(z - zmax)
    sez = ez.sum(axis=1, keepdims=True)
    lse = zmax[:, 0] + np.log(sez[:, 0])
    rows = np.arange(z.shape[0])
    out = lse - z[rows, idx]

    def vjp(g):
        soft = ez / sez
        gi = soft * g[:, None]
        gi[rows, idx] -= g
        return (gi,)

    return Tensor(out, (logits,), vjp)


def heteroscedastic_loss_graph(output: NetworkOutput, targets: np.ndarray) -> Tensor:
    values = output.values
    if values.shape[-1] != 6:
        raise ValueError(f"heteroscedastic loss needs 6 outputs, got {values.shape}")
    f = slice_last(values, 0, 3)
    s = slice_last(values, 3, 6)
    diff = sub(f, Tensor(targets))
    damped = scale(mul(exp(neg(s)), mul(diff, diff)), 0.5)
    term = add(damped, scale(s, 0.5))
    return scale(tsum(term), 1.0 / values.shape[0])


def mse_loss_graph(output: NetworkOutput, targets: np.ndarray) -> Tensor:
    values = output.values
    if values.shape[-1] != 3:
        raise ValueError(f"mse loss needs 3 outputs, got {values.shape}")
    diff = sub(values, Tensor(targets))
    return scale(tsum(mul(diff, diff)), 1.0 / values.shape[0])


def combined_loss_graph(output: NetworkOutput, targets: np.ndarray) -> Tensor:
    if output.logits is None:
        raise ValueError("combined loss needs the bin-logits head")
    values, logits = output.values, output.logits
    if logits.shape[-1] != 3 * N_BINS:
        raise ValueError(f"expected {3 * N_BINS} logits, got {logits.shape[-1]}")
    q = np.asarray(targets, dtype=np.float64)
    total: Tensor | None = None
    for angle in range(3):
        rows = slice_last(logits, angle * N_BINS, (angle + 1) * N_BINS)
        ce = cross_entropy_logits(rows, bin_index(q[:, angle]))
        ce_sum = tsum(ce)
        total = ce_sum if total is None else add(total, ce_sum)
    diff = sub(values, Tensor(q))
    total = add(total, tsum(mul(diff, diff)))
    return scale(total, 1.0 / values.shape[0])


def loss_graph(kind: str, output: NetworkOutput, targets: np.ndarray) -> Tensor:
    """Dispatch to the builder matching the model's loss kind."""
    if kind == "heteroscedastic":
        return heteroscedastic_loss_graph(output, targets)
    if kind == "mse":
        return mse_loss_graph(output, targets)
    if kind == "combined":
        return combined_loss_graph(output, targets)
    raise ValueError(f"unknown loss kind {kind!r}")


def loss_and_gradient(model: Model, x1: np.ndarray, x2: np.ndarray, c: np.ndarray,
                      targets: np.ndarray) -> float:
    """training.loss_and_gradient from the op graphs of the network and the loss."""
    model.flat_grad[...] = 0.0
    loss = loss_graph(model.config.loss_kind, network_reference.forward(model, x1, x2, c), targets)
    loss.backward()
    return float(loss.data)
