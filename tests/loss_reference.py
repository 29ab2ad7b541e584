"""Numeric loss oracles for the tests: per-sample values in plain numpy.

These mirror the graph builders in headpose.losses without building a
graph, and carry the likelihood identity the heteroscedastic loss rests
on. Nothing in the package calls them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from headpose.geometry import EulerPose
from headpose.losses import bin_index
from headpose.model import N_BINS
from headpose.model import PoseEstimate


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
