"""Training objectives for the pose network, each in closed form.

Three interchangeable objectives, matched to the head widths in model.py:

* heteroscedastic: per angle, 0.5 * exp(-s) * (q - f)^2 + 0.5 * s, where f
  is the predicted angle and s the predicted log-variance. This is the
  Gaussian negative log-likelihood with the constant 0.5*log(2*pi) dropped;
  the network damps the residual where it predicts high variance and pays
  0.5 * s for doing so.
* mse: plain summed squared error over the three angles.
* combined: per-angle cross entropy against a binned version of the target
  plus the summed squared error of the continuous head.

Each loss takes the output arrays, (B, ...) with B >= 1, and the (B, 3)
targets, and returns the batch-mean value and its vjp: given the upstream
gradient g, the hand-derived gradient with respect to `values` (and
`logits` under combined). Both follow the op order of the equivalent
op graph, so values and gradients match it bit for bit; that graph is
the test oracle in tests/loss_reference.py. `batch_loss` picks the loss
of a kind, and training hands its vjp's arrays to `Model.backward`.
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


def heteroscedastic(values: np.ndarray, targets: np.ndarray):
    """Over (B, 6) values, angles then log-variances: the value and its vjp."""
    if values.shape[-1] != 6:
        raise ValueError(f"heteroscedastic loss needs 6 outputs, got {values.shape}")
    k = 1.0 / values.shape[0]
    s = values[:, 3:6]
    diff = values[:, 0:3] - targets
    e = np.exp(-s)
    d2 = diff * diff
    value = ((e * d2) * 0.5 + s * 0.5).sum() * k

    def vjp(g):
        gt = g * k
        gm = gt * 0.5
        gd2 = gm * e
        grad = np.empty_like(values)
        grad[:, 0:3] = gd2 * diff + gd2 * diff
        grad[:, 3:6] = -(gm * d2 * e) + gt * 0.5
        return (grad,)

    return value, vjp


def mse(values: np.ndarray, targets: np.ndarray):
    """Over (B, 3) values: the value and its vjp."""
    if values.shape[-1] != 3:
        raise ValueError(f"mse loss needs 3 outputs, got {values.shape}")
    k = 1.0 / values.shape[0]
    diff = values - targets
    value = (diff * diff).sum() * k

    def vjp(g):
        gt = g * k
        return (gt * diff + gt * diff,)

    return value, vjp


def combined(values: np.ndarray, logits: np.ndarray, targets: np.ndarray):
    """Over (B, 3) values and (B, 3 * N_BINS) logits: the value and its vjp,
    which gives the gradients of both."""
    if logits.shape[-1] != 3 * N_BINS:
        raise ValueError(f"expected {3 * N_BINS} logits, got {logits.shape[-1]}")
    k = 1.0 / values.shape[0]
    rows = np.arange(values.shape[0])
    total = 0.0
    softmax = []  # per angle: the shifted exponentials, their row sums, the target bins
    for angle in range(3):
        z = logits[:, angle * N_BINS : (angle + 1) * N_BINS]
        idx = bin_index(targets[:, angle])
        zmax = z.max(axis=1, keepdims=True)
        ez = np.exp(z - zmax)
        sez = ez.sum(axis=1, keepdims=True)
        ce_sum = (zmax[:, 0] + np.log(sez[:, 0]) - z[rows, idx]).sum()
        total += ce_sum
        softmax.append((ez, sez, idx))
    diff = values - targets
    value = (total + (diff * diff).sum()) * k

    def vjp(g):
        gt = g * k
        g_logits = np.empty_like(logits)
        for angle, (ez, sez, idx) in enumerate(softmax):
            gi = g_logits[:, angle * N_BINS : (angle + 1) * N_BINS]
            np.multiply(ez / sez, gt, out=gi)
            gi[rows, idx] -= gt
        return gt * diff + gt * diff, g_logits

    return value, vjp


def batch_loss(kind: str, values: np.ndarray, logits: np.ndarray | None, targets):
    """The batch-mean loss of `kind` over the output arrays, and its vjp."""
    targets = np.asarray(targets, dtype=np.float64)
    if kind == "heteroscedastic":
        return heteroscedastic(values, targets)
    if kind == "mse":
        return mse(values, targets)
    if kind == "combined":
        if logits is None:
            raise ValueError("combined loss needs the bin-logits head")
        return combined(values, logits, targets)
    raise ValueError(f"unknown loss kind {kind!r}")

