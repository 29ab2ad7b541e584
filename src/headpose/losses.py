"""Training objectives for the pose network.

Three interchangeable objectives, matched to the head widths in model.py:

* heteroscedastic: per angle, 0.5 * exp(-s) * (q - f)^2 + 0.5 * s, where f
  is the predicted angle and s the predicted log-variance. This is the
  Gaussian negative log-likelihood with the constant 0.5*log(2*pi) dropped;
  the network damps the residual where it predicts high variance and pays
  0.5 * s for doing so.
* mse: plain summed squared error over the three angles.
* combined: per-angle cross entropy against a binned version of the target
  plus a weighted squared-error term on the continuous head.

Each graph builder takes a batch of network outputs, (B, ...) with B >= 1,
and returns the batch-mean scalar ready for backward().
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .model import NetworkOutput


@dataclass(frozen=True)
class BinningScheme:
    """Uniform angle bins; the top edge folds into the last bin."""

    n_bins: int = 66
    width_degrees: float = 3.0
    lo_degrees: float = -99.0

    def __post_init__(self) -> None:
        if self.n_bins < 2 or self.width_degrees <= 0:
            raise ValueError("need at least 2 bins of positive width")

    @property
    def hi_degrees(self) -> float:
        return self.lo_degrees + self.n_bins * self.width_degrees

    def bin_index(self, angles_degrees) -> np.ndarray:
        a = np.asarray(angles_degrees, dtype=np.float64)
        if np.any(a < self.lo_degrees) or np.any(a > self.hi_degrees):
            raise ValueError(
                f"angle outside [{self.lo_degrees}, {self.hi_degrees}] degrees"
            )
        idx = np.floor((a - self.lo_degrees) / self.width_degrees).astype(np.int64)
        return np.minimum(idx, self.n_bins - 1)

    @staticmethod
    def centered(n_bins: int, width_degrees: float) -> "BinningScheme":
        lo = -0.5 * n_bins * width_degrees
        return BinningScheme(n_bins=n_bins, width_degrees=width_degrees, lo_degrees=lo)


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


def combined_loss_graph(
    output: NetworkOutput,
    targets: np.ndarray,
    binning: BinningScheme,
    mse_mix: float = 1.0,
) -> ad.Tensor:
    if output.logits is None:
        raise ValueError("combined loss needs the bin-logits head")
    values, logits = output.values, output.logits
    n = binning.n_bins
    if logits.shape[-1] != 3 * n:
        raise ValueError(f"expected {3 * n} logits, got {logits.shape[-1]}")
    q = np.asarray(targets, dtype=np.float64)
    total: ad.Tensor | None = None
    for angle in range(3):
        rows = ad.slice_last(logits, angle * n, (angle + 1) * n)
        ce = ad.cross_entropy_logits(rows, binning.bin_index(q[:, angle]))
        ce_sum = ad.tsum(ce)
        total = ce_sum if total is None else ad.add(total, ce_sum)
    diff = ad.sub(values, ad.Tensor(q))
    total = ad.add(total, ad.scale(ad.tsum(ad.mul(diff, diff)), mse_mix))
    return ad.scale(total, 1.0 / values.shape[0])


def loss_graph(
    kind: str,
    output: NetworkOutput,
    targets: np.ndarray,
    binning: BinningScheme | None = None,
    mse_mix: float = 1.0,
) -> ad.Tensor:
    """Dispatch to the builder matching the model's loss kind."""
    if kind == "heteroscedastic":
        return heteroscedastic_loss_graph(output, targets)
    if kind == "mse":
        return mse_loss_graph(output, targets)
    if kind == "combined":
        if binning is None:
            raise ValueError("combined loss needs a binning scheme")
        return combined_loss_graph(output, targets, binning, mse_mix)
    raise ValueError(f"unknown loss kind {kind!r}")
