"""Training objectives for the pose network.

Three interchangeable objectives, matched to the head widths in model.py:

* heteroscedastic: per angle, 0.5 * exp(-s) * (q - f)^2 + 0.5 * s, where f
  is the predicted angle and s the predicted log-variance. This is the
  Gaussian negative log-likelihood with the constant 0.5*log(2*pi) dropped;
  the network damps the residual where it predicts high variance and pays
  0.5 * s for doing so.
* mse: plain summed squared error over the three angles.
* combined: per-angle cross entropy against a binned version of the target
  plus the summed squared error of the continuous head.

Each graph builder takes a batch of network outputs, (B, ...) with B >= 1,
and returns the batch-mean scalar ready for backward().
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .model import BIN_WIDTH_DEGREES, N_BINS, NetworkOutput

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


def heteroscedastic_loss_graph(output: NetworkOutput, targets: np.ndarray) -> ad.Tensor:
    values = output.values
    if values.shape[-1] != 6:
        raise ValueError(f"heteroscedastic loss needs 6 outputs, got {values.shape}")
    f = ad.slice_last(values, 0, 3)
    s = ad.slice_last(values, 3, 6)
    diff = ad.sub(f, ad.Tensor(targets))
    damped = ad.scale(ad.mul(ad.exp(ad.neg(s)), ad.mul(diff, diff)), 0.5)
    term = ad.add(damped, ad.scale(s, 0.5))
    return ad.scale(ad.tsum(term), 1.0 / values.shape[0])


def mse_loss_graph(output: NetworkOutput, targets: np.ndarray) -> ad.Tensor:
    values = output.values
    if values.shape[-1] != 3:
        raise ValueError(f"mse loss needs 3 outputs, got {values.shape}")
    diff = ad.sub(values, ad.Tensor(targets))
    return ad.scale(ad.tsum(ad.mul(diff, diff)), 1.0 / values.shape[0])


def combined_loss_graph(output: NetworkOutput, targets: np.ndarray) -> ad.Tensor:
    if output.logits is None:
        raise ValueError("combined loss needs the bin-logits head")
    values, logits = output.values, output.logits
    if logits.shape[-1] != 3 * N_BINS:
        raise ValueError(f"expected {3 * N_BINS} logits, got {logits.shape[-1]}")
    q = np.asarray(targets, dtype=np.float64)
    total: ad.Tensor | None = None
    for angle in range(3):
        rows = ad.slice_last(logits, angle * N_BINS, (angle + 1) * N_BINS)
        ce = ad.cross_entropy_logits(rows, bin_index(q[:, angle]))
        ce_sum = ad.tsum(ce)
        total = ce_sum if total is None else ad.add(total, ce_sum)
    diff = ad.sub(values, ad.Tensor(q))
    total = ad.add(total, ad.tsum(ad.mul(diff, diff)))
    return ad.scale(total, 1.0 / values.shape[0])


def loss_graph(kind: str, output: NetworkOutput, targets: np.ndarray) -> ad.Tensor:
    """Dispatch to the builder matching the model's loss kind."""
    if kind == "heteroscedastic":
        return heteroscedastic_loss_graph(output, targets)
    if kind == "mse":
        return mse_loss_graph(output, targets)
    if kind == "combined":
        return combined_loss_graph(output, targets)
    raise ValueError(f"unknown loss kind {kind!r}")
