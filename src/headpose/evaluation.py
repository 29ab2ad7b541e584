"""Metrics over labelled datasets: MAE, uncertainty studies, group stats.

A model is scored once, in one batch, into an `EvalResult` of per-record
arrays; every study here is a pure function over those arrays, so reports
stay deterministic and the studies compose without re-running the network.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

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


class CurvePoint(NamedTuple):
    threshold: float
    mean_error: float | None
    retained: float


def evaluate(model: Model, data: Dataset) -> EvalResult:
    """Forward every record in one batch and score it against its pose."""
    if not len(data):
        raise ValueError("empty dataset")
    x1, x2, c, targets = prepare_arrays(data)
    angles, log_var = model.predict_batch(x1, x2, c)
    return EvalResult.of(angles, log_var, targets, (c > 0.0).sum(axis=1))


def pearson(a: Sequence[float], b: Sequence[float]) -> float:
    """Sample Pearson correlation; rejects degenerate inputs."""
    av = np.asarray(a, dtype=np.float64)
    bv = np.asarray(b, dtype=np.float64)
    if av.shape != bv.shape or av.ndim != 1:
        raise ValueError("pearson needs two equal-length vectors")
    if av.size < 2:
        raise ValueError("pearson needs at least 2 points")
    da = av - av.mean()
    db = bv - bv.mean()
    denom = np.sqrt((da * da).sum() * (db * db).sum())
    if denom == 0.0:
        raise ValueError("pearson undefined for zero-variance input")
    return float((da * db).sum() / denom)


def _require_uncertainty(result: EvalResult) -> None:
    if result.log_variance is None:
        raise ValueError("result lacks uncertainty (point-estimate head)")


def cumulative_error_curve(
    result: EvalResult, uncertainty_grid: Sequence[float]
) -> list[CurvePoint]:
    """Mean overall error of records at or below each uncertainty threshold.

    The grid must be ascending. Thresholds that retain nothing yield a
    None mean error; the retained fraction is non-decreasing by construction.
    """
    _require_uncertainty(result)
    mu, err = result.mean_uncertainty, result.overall_error
    grid = list(uncertainty_grid)
    if any(grid[i] > grid[i + 1] for i in range(len(grid) - 1)):
        raise ValueError("uncertainty grid must be sorted ascending")
    points = []
    for u in grid:
        mask = mu <= u
        kept = int(mask.sum())
        mean_error = float(err[mask].mean()) if kept else None
        points.append(CurvePoint(float(u), mean_error, kept / len(mu)))
    return points


def uncertainty_cross_correlation(result: EvalResult) -> tuple[float, float, float]:
    """Pairwise Pearson r between the per-angle log-variance series.

    Order: (yaw vs pitch, yaw vs roll, pitch vs roll).
    """
    _require_uncertainty(result)
    series = result.log_variance
    if series.shape[0] < 2:
        raise ValueError("need at least 2 records")
    return (
        pearson(series[:, 0], series[:, 1]),
        pearson(series[:, 0], series[:, 2]),
        pearson(series[:, 1], series[:, 2]),
    )


@dataclass(frozen=True)
class BoxStats:
    """Box-plot summary with type-7 (linear interpolation) quartiles."""

    mean: float
    q1: float
    median: float
    q3: float

    @staticmethod
    def of(values: Sequence[float]) -> "BoxStats":
        v = np.asarray(values, dtype=np.float64)
        if v.size == 0:
            raise ValueError("no values")
        q1, med, q3 = np.percentile(v, [25.0, 50.0, 75.0])
        return BoxStats(float(v.mean()), float(q1), float(med), float(q3))

    def to_dict(self) -> dict:
        return {"mean": self.mean, "q1": self.q1, "median": self.median, "q3": self.q3}


def error_by_keypoint_count(result: EvalResult) -> dict[int, dict[str, BoxStats | None]]:
    """Group records by visible-keypoint count; box stats per group.

    Only counts that occur appear as keys, ascending. Uncertainty stats are
    None when the result carries no uncertainty.
    """
    mu = result.mean_uncertainty
    out: dict[int, dict[str, BoxStats | None]] = {}
    for count in np.unique(result.present).tolist():
        group = result.present == count
        out[count] = {
            "error": BoxStats.of(result.overall_error[group]),
            "uncertainty": None if mu is None else BoxStats.of(mu[group]),
        }
    return out


def build_report(result: EvalResult) -> dict:
    """Plot-ready report dict with a fixed key order.

    Serializing this with the same inputs yields byte-identical text; no
    timestamps, paths, or unordered collections are included.
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
    mu = result.mean_uncertainty
    if mu is not None and len(result) >= 2:
        try:
            r_err = pearson(mu, result.overall_error)
        except ValueError:
            r_err = None
        try:
            r_yp, r_yr, r_pr = uncertainty_cross_correlation(result)
            cross = {"yaw_pitch": r_yp, "yaw_roll": r_yr, "pitch_roll": r_pr}
        except ValueError:
            cross = None
        grid = np.linspace(mu.min(), mu.max(), N_CURVE_POINTS)
        curve = [p._asdict() for p in cumulative_error_curve(result, grid)]
        report["uncertainty"] = {
            "pearson_vs_error": r_err,
            "cross_correlation": cross,
            "cumulative_curve": curve,
        }
    else:
        report["uncertainty"] = None
    report["by_keypoint_count"] = {
        str(count): {
            "error": stats["error"].to_dict(),
            "uncertainty": stats["uncertainty"].to_dict() if stats["uncertainty"] else None,
        }
        for count, stats in error_by_keypoint_count(result).items()
    }
    return report
