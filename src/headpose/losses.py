"""Training objectives for the pose network, each in closed form.

Three interchangeable objectives over the columns of the network's one
head, whose width model.ModelConfig.n_outputs sets by loss kind:

* heteroscedastic: per angle, 0.5 * exp(-s) * (q - f)^2 + 0.5 * s, where f
  is the predicted angle (columns 0-2) and s the predicted log-variance
  (columns 3-5). This is the Gaussian negative log-likelihood with the
  constant 0.5*log(2*pi) dropped; the network damps the residual where it
  predicts high variance and pays 0.5 * s for doing so.
* mse: plain summed squared error over the three angles.
* combined: per-angle cross entropy of the bin logits (columns 3 on, one
  row of N_BINS per angle) against a binned version of the target, plus
  the summed squared error of the angles (columns 0-2).

Each loss takes the (B, n_outputs) output, B >= 1, and the (B, 3)
targets, and returns a pair: the batch-mean value and its hand-derived
gradient with respect to the output, of the output's shape. Both follow
the op order of the equivalent op graph, so value and gradient match it
bit for bit; that graph is the test oracle in tests/loss_reference.py.
The gradient keeps the output's dtype, float32 in training; the value is
summed in float64 whatever that dtype, so a float32 batch's loss and the
training history built from it are float64 sums of float32 terms.
`batch_loss` picks the loss of a kind, and training hands its gradient
to `Model.backward`.
"""

from __future__ import annotations

import numpy as np

from .model import BIN_WIDTH_DEGREES, N_BINS

# N_BINS bins of BIN_WIDTH_DEGREES, centred on zero: [-99, 99] degrees.
BIN_LO_DEGREES = -0.5 * N_BINS * BIN_WIDTH_DEGREES
BIN_HI_DEGREES = BIN_LO_DEGREES + N_BINS * BIN_WIDTH_DEGREES


def bin_index(angles_degrees) -> np.ndarray:
    """The bin of each angle; the top edge folds into the last bin."""
    a = np.asarray(angles_degrees, dtype=np.float64)
    if np.any(a < BIN_LO_DEGREES) or np.any(a > BIN_HI_DEGREES):
        raise ValueError(f"angle outside [{BIN_LO_DEGREES}, {BIN_HI_DEGREES}] degrees")
    idx = np.floor((a - BIN_LO_DEGREES) / BIN_WIDTH_DEGREES).astype(np.int64)
    return np.minimum(idx, N_BINS - 1)


def heteroscedastic(out: np.ndarray, targets: np.ndarray):
    """Over a (B, 6) output, angles then log-variances: the value and its gradient."""
    if out.shape[-1] != 6:
        raise ValueError(f"heteroscedastic loss needs 6 outputs, got {out.shape}")
    k = 1.0 / out.shape[0]
    s = out[:, 3:6]
    diff = out[:, 0:3] - targets
    e = np.exp(-s)
    d2 = diff * diff
    value = ((e * d2) * 0.5 + s * 0.5).sum(dtype=np.float64) * k
    gm = k * 0.5
    gd2 = gm * e
    grad = np.empty_like(out)
    grad[:, 0:3] = gd2 * diff + gd2 * diff
    grad[:, 3:6] = -(gm * d2 * e) + k * 0.5
    return value, grad


def mse(out: np.ndarray, targets: np.ndarray):
    """Over a (B, 3) output: the value and its gradient."""
    if out.shape[-1] != 3:
        raise ValueError(f"mse loss needs 3 outputs, got {out.shape}")
    k = 1.0 / out.shape[0]
    diff = out - targets
    value = (diff * diff).sum(dtype=np.float64) * k
    return value, k * diff + k * diff


def combined(out: np.ndarray, targets: np.ndarray):
    """Over a (B, 3 + 3 * N_BINS) output, angles then bin logits: the value
    and its gradient."""
    if out.shape[-1] != 3 + 3 * N_BINS:
        raise ValueError(f"combined loss needs {3 + 3 * N_BINS} outputs, got {out.shape}")
    k = 1.0 / out.shape[0]
    rows = np.arange(out.shape[0])
    total = 0.0
    grad = np.empty_like(out)
    for angle in range(3):
        lo, hi = 3 + angle * N_BINS, 3 + (angle + 1) * N_BINS
        z = out[:, lo:hi]
        idx = bin_index(targets[:, angle])
        zmax = z.max(axis=1, keepdims=True)
        ez = np.exp(z - zmax)
        sez = ez.sum(axis=1, keepdims=True)
        ce_sum = (zmax[:, 0] + np.log(sez[:, 0]) - z[rows, idx]).sum(dtype=np.float64)
        total += ce_sum
        gi = grad[:, lo:hi]
        np.multiply(ez / sez, k, out=gi)
        gi[rows, idx] -= k
    diff = out[:, 0:3] - targets
    value = (total + (diff * diff).sum(dtype=np.float64)) * k
    grad[:, 0:3] = k * diff + k * diff
    return value, grad


def batch_loss(kind: str, out: np.ndarray, targets):
    """The batch-mean loss of `kind` over the head output, and its gradient
    with respect to that output; the targets are cast to the output's dtype."""
    targets = np.asarray(targets, dtype=out.dtype)
    if kind == "heteroscedastic":
        return heteroscedastic(out, targets)
    if kind == "mse":
        return mse(out, targets)
    if kind == "combined":
        return combined(out, targets)
    raise ValueError(f"unknown loss kind {kind!r}")
