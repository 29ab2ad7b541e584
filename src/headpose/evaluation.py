"""Metrics over labelled datasets: MAE, Pearson r and the `eval` report.

A model is scored once, in one batch, into an `EvalResult` of per-record
arrays; `build_report` reads every statistic of the report from those
arrays, so the report stays deterministic without re-running the network.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .formats import Dataset, prepare_arrays
from .geometry import mae
from .model import Model

N_CURVE_POINTS = 21  # thresholds of the report's cumulative error curve


@dataclass(frozen=True)
class EvalResult:
    """One scoring pass; row i of every array is record i."""

    mae_yaw: float
    mae_pitch: float
    mae_roll: float
    mae_overall: float
    angles: np.ndarray  # (N, 3) predicted yaw, pitch, roll in degrees
    log_variance: np.ndarray | None  # (N, 3); None for a point-estimate head
    targets: np.ndarray  # (N, 3) ground truth
    present: np.ndarray  # (N,) keypoints with confidence > 0
    overall_error: np.ndarray  # (N,) mean of the three absolute angle errors
    mean_uncertainty: np.ndarray | None  # (N,) mean of the three log-variances, or None

    @staticmethod
    def of(angles: np.ndarray, log_variance: np.ndarray | None, targets: np.ndarray,
           present: np.ndarray) -> "EvalResult":
        # plain differences, no wraparound: poses stay within +/-99 degrees,
        # and wrapping would silently shrink large errors
        errors = np.abs(angles - targets)
        mean_uncertainty = None if log_variance is None else log_variance.mean(axis=1)
        return EvalResult(*mae(errors), angles, log_variance, targets, present,
                          errors.mean(axis=1), mean_uncertainty)

    def __len__(self) -> int:
        return len(self.angles)


def evaluate(model: Model, data: Dataset) -> EvalResult:
    """Forward every record in one batch and score it against its pose."""
    if not len(data):
        raise ValueError("empty dataset")
    x1, x2, c, targets = prepare_arrays(data)
    angles, log_var = model.predict_batch(x1, x2, c)
    return EvalResult.of(angles, log_var, targets, (c > 0.0).sum(axis=1))


def pearson(a: Sequence[float], b: Sequence[float]) -> float:
    """Sample Pearson correlation; rejects degenerate inputs, and inputs
    whose squared deviations overflow."""
    av = np.asarray(a, dtype=np.float64)
    bv = np.asarray(b, dtype=np.float64)
    if av.shape != bv.shape or av.ndim != 1:
        raise ValueError("pearson needs two equal-length vectors")
    if av.size < 2:
        raise ValueError("pearson needs at least 2 points")
    # squared deviations may overflow, or underflow to a zero denominator;
    # the check below rejects both
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        da = av - av.mean()
        db = bv - bv.mean()
        denom = np.sqrt((da * da).sum() * (db * db).sum())
        r = (da * db).sum() / denom
    if not 0.0 < denom < np.inf or not np.isfinite(r):
        raise ValueError("pearson undefined for zero-variance or overflowing input")
    return float(r)


def _box(values: np.ndarray) -> dict:
    """Box-plot summary with type-7 (linear interpolation) quartiles."""
    v = np.asarray(values, dtype=np.float64)
    q1, median, q3 = np.percentile(v, [25.0, 50.0, 75.0])
    return {"mean": float(v.mean()), "q1": float(q1), "median": float(median), "q3": float(q3)}


def build_report(result: EvalResult) -> dict:
    """Plot-ready report dict with a fixed key order.

    Serializing this with the same inputs yields byte-identical text; no
    timestamps, paths, or unordered collections are included. A Pearson r
    that is undefined (zero variance, or an overflow) is None.
    """
    report: dict = {
        "n_samples": len(result),
        "mae": {
            "yaw": result.mae_yaw,
            "pitch": result.mae_pitch,
            "roll": result.mae_roll,
            "overall": result.mae_overall,
        },
    }
    mu, err, lv = result.mean_uncertainty, result.overall_error, result.log_variance
    report["uncertainty"] = None
    if mu is not None and len(result) >= 2:
        try:
            r_err = pearson(mu, err)
        except ValueError:
            r_err = None
        try:
            cross = {"yaw_pitch": pearson(lv[:, 0], lv[:, 1]),
                     "yaw_roll": pearson(lv[:, 0], lv[:, 2]),
                     "pitch_roll": pearson(lv[:, 1], lv[:, 2])}
        except ValueError:
            cross = None
        # the first threshold is mu.min(), so every point keeps a record
        curve = []
        for u in np.linspace(mu.min(), mu.max(), N_CURVE_POINTS):
            mask = mu <= u
            curve.append({"threshold": float(u), "mean_error": float(err[mask].mean()),
                          "retained": int(mask.sum()) / len(mu)})
        report["uncertainty"] = {
            "pearson_vs_error": r_err,
            "cross_correlation": cross,
            "cumulative_curve": curve,
        }
    report["by_keypoint_count"] = {}
    for count in np.unique(result.present).tolist():
        group = result.present == count
        report["by_keypoint_count"][str(count)] = {
            "error": _box(err[group]),
            "uncertainty": None if mu is None else _box(mu[group]),
        }
    return report
