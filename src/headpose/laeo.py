"""Mutual-gaze detection between head pairs in a frame.

Each head contributes its centroid and its pose estimate. A pair scores
high when each projected gaze direction points at the other centroid; a
per-head binary weight discards estimates whose yaw/pitch log-variances
look untrustworthy, and the pair score is the weight-normalized average
of the two gaze cosines.

`evaluate_laeo` scores every pair of every frame in one array pass: each
head's gaze and weight are computed once, and the cosines, pair scores
and labels of all pairs are arrays. The same pass also yields the
ungated baseline metrics, so a command scores its pairs once.

A head whose projected gaze has zero length (yaw = pitch = 0, facing the
camera) looks at no one in the image plane: its cosine toward every
other head is 0, and its weight is unchanged.

Gate modes:
* "interval": weight 1 iff the mean log-variance lies in [0, delta],
  taken literally. Very confident heads (negative log-variance) gate out.
* "open-below": weight 1 iff the mean log-variance is <= delta. With
  delta -> infinity this reproduces the ungated method exactly.
* "off": every weight is 1 (the ungated baseline).

Heads whose estimates carry no variances always weigh 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .geometry import project_direction
from .model import PoseEstimate

GATE_MODES = ("interval", "open-below", "off")

DEFAULT_DELTA = 7.0
DEFAULT_TAU = 0.93


@dataclass(frozen=True)
class HeadInstance:
    """One detected head: image centroid plus its pose estimate."""

    id: str
    centroid: tuple[float, float]
    estimate: PoseEstimate

    def __post_init__(self) -> None:
        if not all(math.isfinite(v) for v in self.centroid):
            raise ValueError(f"head {self.id}: non-finite centroid")


@dataclass(frozen=True)
class LaeoResult:
    pair: tuple[str, str]
    cos_a: float
    cos_b: float
    weight_a: int
    weight_b: int
    laeo_value: float
    is_laeo: bool

    def to_dict(self) -> dict:
        return {
            "pair": list(self.pair),
            "cos_a": self.cos_a,
            "cos_b": self.cos_b,
            "weight_a": self.weight_a,
            "weight_b": self.weight_b,
            "laeo_value": self.laeo_value,
            "is_laeo": self.is_laeo,
        }


def uncertainty_weight(
    s_yaw: float,
    s_pitch: float,
    delta: float = DEFAULT_DELTA,
    mode: str = "interval",
) -> int:
    """Binary trust gate on the mean yaw/pitch log-variance.

    Roll is excluded: it does not move the projected gaze direction.
    """
    if mode not in GATE_MODES:
        raise ValueError(f"unknown gate mode {mode!r}")
    if mode == "off":
        return 1
    if not (math.isfinite(s_yaw) and math.isfinite(s_pitch)):
        raise ValueError("non-finite log-variance")
    if delta <= 0:
        raise ValueError("delta must be > 0")
    s_hat = 0.5 * (s_yaw + s_pitch)
    if mode == "interval":
        return 1 if 0.0 <= s_hat <= delta else 0
    return 1 if s_hat <= delta else 0


def _head_weight(head: HeadInstance, delta: float, mode: str) -> int:
    lv = head.estimate.log_variance
    if lv is None:
        return 1
    return uncertainty_weight(float(lv[0]), float(lv[1]), delta, mode)


def _row_dots(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Dot product of each row of two (n, 2) arrays.

    A stacked (n, 1, 2) @ (n, 2, 1) matmul calls the BLAS dot that np.dot
    and np.linalg.norm call on one vector, so each row equals theirs bit
    for bit; x0*y0 + x1*y1 does not where that dot uses FMA.
    """
    return (x[:, None, :] @ y[:, :, None]).reshape(-1)


def _cosines(toward: np.ndarray, u_norm: np.ndarray, gaze: np.ndarray,
             g_norm: np.ndarray) -> np.ndarray:
    """Cosine between each gaze and its line; 0 for a gaze of zero length."""
    has_direction = g_norm > 0.0
    cos = _row_dots(toward, gaze) / (u_norm * np.where(has_direction, g_norm, 1.0))
    return np.where(has_direction, cos, 0.0)


def _pair_values(cos_a: np.ndarray, cos_b: np.ndarray, w_a: np.ndarray,
                 w_b: np.ndarray) -> np.ndarray:
    """Weight-normalized average of the two cosines; 0 when fully gated out."""
    total = w_a + w_b
    return np.where(total > 0, (w_a * cos_a + w_b * cos_b) / np.maximum(total, 1), 0.0)


@dataclass(frozen=True)
class Frame:
    """All heads of one image plus the labelled mutual-gaze pairs."""

    frame_id: str
    heads: tuple[HeadInstance, ...]
    laeo_pairs: frozenset[frozenset[str]]

    def __post_init__(self) -> None:
        ids = [h.id for h in self.heads]
        if len(set(ids)) != len(ids):
            raise ValueError(f"frame {self.frame_id}: duplicate head ids")
        known = set(ids)
        for pair in self.laeo_pairs:
            if len(pair) != 2 or not pair <= known:
                raise ValueError(f"frame {self.frame_id}: bad label pair {sorted(pair)}")


@dataclass(frozen=True)
class LaeoEvaluation:
    """Metrics of one scoring pass, its per-pair results and gate counts.

    `baseline` holds the same metrics for the same pairs with every weight
    1, which is what the "off" gate gives. `n_heads` counts heads that are
    in at least one pair; `n_heads_gated` those of them with weight 0.
    """

    precision: float
    recall: float
    f1: float
    average_precision: float
    n_pairs: int
    n_positive: int
    n_heads: int
    n_heads_gated: int
    results: list[tuple[str, LaeoResult, bool]]
    baseline: dict

    def to_dict(self) -> dict:
        return {
            "precision": self.precision,
            "recall": self.recall,
            "f1": self.f1,
            "average_precision": self.average_precision,
            "n_pairs": self.n_pairs,
            "n_positive": self.n_positive,
        }


def _average_precision(ranked_labels: Sequence[bool]) -> float:
    """All-points interpolated AP over a ranked boolean label list."""
    n_pos = sum(ranked_labels)
    if n_pos == 0:
        return 0.0
    precisions = []
    recalls = []
    tp = 0
    for i, lab in enumerate(ranked_labels, start=1):
        if lab:
            tp += 1
        precisions.append(tp / i)
        recalls.append(tp / n_pos)
    # precision envelope: best precision at any recall >= r
    env = precisions[:]
    for i in range(len(env) - 2, -1, -1):
        env[i] = max(env[i], env[i + 1])
    ap = 0.0
    prev_recall = 0.0
    for p, r in zip(env, recalls):
        if r > prev_recall:
            ap += (r - prev_recall) * p
            prev_recall = r
    return ap


def _metrics(
    keys: list[tuple[str, tuple[str, str]]],
    labels: np.ndarray,
    values: np.ndarray,
    hits: np.ndarray,
) -> dict:
    """Precision/recall/F1 of the hits and AP of the values, against the labels.

    AP ranks pairs by value, ties broken by frame and head ids for
    determinism.
    """
    tp = int(np.count_nonzero(hits & labels))
    fp = int(np.count_nonzero(hits & ~labels))
    fn = int(np.count_nonzero(~hits & labels))
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    rank_keys = [(-v, frame_id, pair) for v, (frame_id, pair) in zip(values.tolist(), keys)]
    ranked = sorted(range(len(keys)), key=rank_keys.__getitem__)
    label_list = labels.tolist()
    return {
        "precision": precision,
        "recall": recall,
        "f1": f1,
        "average_precision": _average_precision([label_list[k] for k in ranked]),
        "n_pairs": len(keys),
        "n_positive": int(np.count_nonzero(labels)),
    }


def evaluate_laeo(
    frames: Sequence[Frame],
    tau: float = DEFAULT_TAU,
    delta: float = DEFAULT_DELTA,
    mode: str = "interval",
) -> LaeoEvaluation:
    """Score every unordered head pair of every frame in one array pass.

    Pairs come in frame order, then i < j over each frame's heads sorted by
    id. Each head's gaze and weight are computed once. Precision/recall/F1
    use the tau cutoff. A frame with fewer than two heads contributes
    nothing. Raises ValueError naming the first pair whose heads share a
    centroid.
    """
    heads: list[HeadInstance] = []
    keys: list[tuple[str, tuple[str, str]]] = []  # (frame_id, pair) per pair
    labels: list[bool] = []
    ia: list[int] = []
    ib: list[int] = []
    for frame in frames:
        if len(frame.heads) < 2:
            continue
        first = len(heads)
        heads.extend(sorted(frame.heads, key=lambda h: h.id))
        for i in range(first, len(heads)):
            for j in range(i + 1, len(heads)):
                pair = (heads[i].id, heads[j].id)
                ia.append(i)
                ib.append(j)
                keys.append((frame.frame_id, pair))
                labels.append(frozenset(pair) in frame.laeo_pairs)

    centroids = np.array([h.centroid for h in heads], dtype=np.float64).reshape(-1, 2)
    u = centroids[ib] - centroids[ia]
    u_norm = np.sqrt(_row_dots(u, u))
    shared = np.flatnonzero(u_norm == 0.0)
    if shared.size:
        frame_id, (a, b) = keys[shared[0]]
        raise ValueError(f"frame {frame_id!r}: heads {a}, {b} share a centroid")
    gaze = np.array(
        [project_direction(h.estimate.pose) for h in heads], dtype=np.float64
    ).reshape(-1, 2)
    g_norm = np.sqrt(_row_dots(gaze, gaze))
    cos_a = _cosines(u, u_norm, gaze[ia], g_norm[ia])
    cos_b = _cosines(-u, u_norm, gaze[ib], g_norm[ib])
    weights = np.array([_head_weight(h, delta, mode) for h in heads], dtype=np.int64)
    w_a, w_b = weights[ia], weights[ib]
    values = _pair_values(cos_a, cos_b, w_a, w_b)
    hits = values >= tau
    label_arr = np.array(labels, dtype=bool)
    ones = np.ones_like(w_a)
    baseline_values = _pair_values(cos_a, cos_b, ones, ones)

    results = [
        (frame_id, LaeoResult(pair, ca, cb, wa, wb, v, hit), label)
        for (frame_id, pair), ca, cb, wa, wb, v, hit, label in zip(
            keys, cos_a.tolist(), cos_b.tolist(), w_a.tolist(), w_b.tolist(),
            values.tolist(), hits.tolist(), labels,
        )
    ]
    return LaeoEvaluation(
        **_metrics(keys, label_arr, values, hits),
        n_heads=len(heads),
        n_heads_gated=int(np.count_nonzero(weights == 0)),
        results=results,
        baseline=_metrics(keys, label_arr, baseline_values, baseline_values >= tau),
    )
