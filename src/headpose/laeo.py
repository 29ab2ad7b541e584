"""Mutual-gaze detection between head pairs in a frame.

A file of frames is one columnar value, `Frames`: every head of every
frame in file order, as arrays of ids, centroids, poses, log-variances and
keypoints, with per-frame offsets and labels. `formats.read_frames` builds
and validates it; the CLI fills in the poses of keypoint heads from the
model; `evaluate_laeo` scores it.

Each head contributes its centroid and its pose. A pair scores high when
each projected gaze direction points at the other centroid; a per-head
binary weight discards estimates whose yaw/pitch log-variances look
untrustworthy, and the pair score is the weight-normalized average of the
two gaze cosines.

`evaluate_laeo` scores every pair of every frame in one array pass: each
head's gaze and weight are computed once, and the cosines, pair scores
and labels of all pairs are arrays. The same pass also yields the
ungated baseline metrics, so a command scores its pairs once. Metrics
count only the pairs of labelled frames.

A head whose projected gaze has zero length (yaw = pitch = 0, facing the
camera) looks at no one in the image plane: its cosine toward every
other head is 0, and its weight is unchanged. By the same rule, a pair
whose joining line has no finite, nonzero length (the two heads share a
centroid, or their distance overflows) gets both cosines 0: its weights
are unchanged, its value is 0, and it stays in the rows and the metrics.

Gate modes:
* "interval": weight 1 iff the mean log-variance lies in [0, delta],
  taken literally. Very confident heads (negative log-variance) gate out.
* "open-below": weight 1 iff the mean log-variance is <= delta. With
  delta -> infinity this reproduces the ungated method exactly.
* "off": every weight is 1 (the ungated baseline).

Heads whose estimates carry no variances always weigh 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .laeo_settings import DEFAULT_DELTA, DEFAULT_TAU, GATE_MODES


@dataclass(frozen=True)
class Frames:
    """Every head of every frame, in file order, as arrays.

    Frame f came from line lines[f] of the file at path and holds heads
    starts[f]:starts[f + 1]. A head has a pose, keypoints or both; the
    rows of what it lacks are NaN, as are the log-variances of a head
    without them. labels[f] is None for a frame without labels, else the
    set of its mutual-gaze pairs, each an id tuple in sorted order.
    """

    path: str
    frame_ids: np.ndarray  # (F,) str objects
    lines: np.ndarray  # (F,) 1-based line numbers
    starts: np.ndarray  # (F + 1,) head offsets
    head_ids: np.ndarray  # (H,) str objects
    centroids: np.ndarray  # (H, 2) pixels
    poses: np.ndarray  # (H, 3) yaw, pitch, roll in degrees
    log_variance: np.ndarray  # (H, 3)
    keypoints: np.ndarray  # (H, 5, 3) x1, x2, c
    labels: tuple[frozenset[tuple[str, str]] | None, ...]

    def __len__(self) -> int:
        return len(self.frame_ids)

    def frame_name(self, f: int) -> str:
        """Where frame f is, as in "frames.jsonl: line 3: frame 'f'"."""
        return f"{self.path}: line {self.lines[f]}: frame {self.frame_ids[f]!r}"

    def head_name(self, h: int) -> str:
        """Where head index h is, as in "frames.jsonl: line 3: frame 'f' head 'a'"."""
        f = int(np.searchsorted(self.starts, h, side="right")) - 1
        return f"{self.frame_name(f)} head {self.head_ids[h]!r}"


class LaeoResult(NamedTuple):
    """One scored pair; its fields, in order, are those of its `laeo` output row."""

    pair: tuple[str, str]
    cos_a: float
    cos_b: float
    weight_a: int
    weight_b: int
    laeo_value: float
    is_laeo: bool


def uncertainty_weight(
    s_yaw,
    s_pitch,
    delta: float = DEFAULT_DELTA,
    mode: str = "interval",
) -> np.ndarray:
    """Binary trust gate on the mean yaw/pitch log-variance, element-wise.

    Gives int64 weights of 0 or 1 in the broadcast shape of the two
    log-variances; scalars give a 0-d array. Roll is excluded: it does not
    move the projected gaze direction. Raises ValueError for an unknown
    mode and, unless the mode is "off" or there is nothing to gate, for a
    non-finite log-variance or delta <= 0.
    """
    if mode not in GATE_MODES:
        raise ValueError(f"unknown gate mode {mode!r}")
    s_yaw = np.asarray(s_yaw, dtype=np.float64)
    s_pitch = np.asarray(s_pitch, dtype=np.float64)
    if mode == "off":
        return np.ones(np.broadcast_shapes(s_yaw.shape, s_pitch.shape), dtype=np.int64)
    if not (np.isfinite(s_yaw).all() and np.isfinite(s_pitch).all()):
        raise ValueError("non-finite log-variance")
    s_hat = 0.5 * (s_yaw + s_pitch)
    if s_hat.size and delta <= 0:
        raise ValueError("delta must be > 0")
    keep = s_hat <= delta
    if mode == "interval":
        keep &= s_hat >= 0.0
    return keep.astype(np.int64)


def _row_dots(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Dot product of each row of two (n, 2) arrays.

    A stacked (n, 1, 2) @ (n, 2, 1) matmul calls the BLAS dot that np.dot
    and np.linalg.norm call on one vector, so each row equals theirs bit
    for bit; x0*y0 + x1*y1 does not where that dot uses FMA.
    """
    return (x[:, None, :] @ y[:, :, None]).reshape(-1)


def _gazes(poses: np.ndarray) -> np.ndarray:
    """The image-plane projection (sin yaw, -cos yaw * sin pitch) of the head
    direction of each (yaw, pitch, roll) row, as (n, 2); roll never enters.

    numpy's radians, sin and cos give math's results here, so each row
    equals the scalar projection of tests/geometry_reference.py bit for bit.
    """
    yaw, pitch = np.radians(poses[:, :2]).T
    return np.stack([np.sin(yaw), -np.cos(yaw) * np.sin(pitch)], axis=1)


def _cosines(toward: np.ndarray, u_norm: np.ndarray, gaze: np.ndarray,
             g_norm: np.ndarray) -> np.ndarray:
    """Cosine between each gaze and its line; 0 where the gaze has zero
    length or the line has no finite, nonzero length."""
    has_direction = (g_norm > 0.0) & (u_norm > 0.0) & (u_norm < np.inf)
    with np.errstate(all="ignore"):  # the rows without a direction are masked
        cos = _row_dots(toward, gaze) / (u_norm * g_norm)
    return np.where(has_direction, cos, 0.0)


def _pair_values(cos_a: np.ndarray, cos_b: np.ndarray, w_a: np.ndarray,
                 w_b: np.ndarray) -> np.ndarray:
    """Weight-normalized average of the two cosines; 0 when fully gated out."""
    total = w_a + w_b
    return np.where(total > 0, (w_a * cos_a + w_b * cos_b) / np.maximum(total, 1), 0.0)


@dataclass(frozen=True)
class LaeoEvaluation:
    """Per-pair results of one scoring pass, its gate counts and metrics.

    `results` holds (frame_id, result, label) per pair, in pair order; the
    label is None for a pair of an unlabelled frame. `gated` holds the
    metrics over the pairs of labelled frames, and `baseline` the same
    metrics for the same pairs with every weight 1, which is what the "off"
    gate gives; both are None when no frame is labelled. `n_pairs` counts
    every pair, `n_heads` the heads in at least one pair, `n_heads_gated`
    those of them with weight 0.
    """

    n_pairs: int
    n_heads: int
    n_heads_gated: int
    results: list[tuple[str, LaeoResult, bool | None]]
    gated: dict | None
    baseline: dict | None


def _metrics(frame_rank: np.ndarray, labels: np.ndarray, values: np.ndarray,
             tau: float) -> dict:
    """Precision/recall/F1 of values >= tau and AP of the values, against the labels.

    AP is all-points interpolated. It ranks pairs by value, ties broken by
    frame_rank, the rank of each pair's frame id, and then by pair order,
    which within a frame is the order of the sorted id pairs.
    """
    hits = values >= tau
    tp = int(np.count_nonzero(hits & labels))
    fp = int(np.count_nonzero(hits & ~labels))
    fn = int(np.count_nonzero(~hits & labels))
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    n_positive = int(np.count_nonzero(labels))
    ranked = labels[np.lexsort((np.arange(len(labels)), frame_rank, -values))]
    average_precision = 0.0
    if n_positive:
        hits_so_far = np.cumsum(ranked)
        # precision envelope: best precision at any recall >= this one
        precisions = hits_so_far / np.arange(1, len(ranked) + 1)
        envelope = np.maximum.accumulate(precisions[::-1])[::-1]
        # recall rises only at a positive; np.cumsum adds the steps in rank
        # order, as a running sum does, where np.sum would pair them up
        recalls = hits_so_far[ranked] / n_positive
        steps = np.diff(recalls, prepend=0.0) * envelope[ranked]
        average_precision = float(np.cumsum(steps)[-1])
    return {
        "precision": precision,
        "recall": recall,
        "f1": f1,
        "average_precision": average_precision,
        "n_pairs": len(labels),
        "n_positive": n_positive,
    }


def _pair_index(frames: Frames) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The heads that are in a pair and, per pair, where its heads are.

    Returns the indices of the heads of frames with two or more heads,
    sorted by id within each frame, and per pair the positions (ia, ib) of
    its two heads in that order and the index of its frame. Pairs come in
    frame order, then i < j.
    """
    heads: list[int] = []
    ia, ib, pair_frame = [], [], []
    triu: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    starts = frames.starts.tolist()
    for f in range(len(frames)):
        first, last = starts[f], starts[f + 1]
        if last - first < 2:
            continue
        if last - first not in triu:
            triu[last - first] = np.triu_indices(last - first, 1)
        i, j = triu[last - first]
        ia.append(len(heads) + i)
        ib.append(len(heads) + j)
        pair_frame.append(np.full(i.size, f))
        heads.extend(sorted(range(first, last), key=frames.head_ids.__getitem__))
    empty = [np.zeros(0, dtype=np.intp)]
    return (np.array(heads, dtype=np.intp), np.concatenate(ia + empty),
            np.concatenate(ib + empty), np.concatenate(pair_frame + empty))


def evaluate_laeo(
    frames: Frames,
    tau: float = DEFAULT_TAU,
    delta: float = DEFAULT_DELTA,
    mode: str = "interval",
) -> LaeoEvaluation:
    """Score every unordered head pair of every frame in one array pass.

    Pairs come in frame order, then i < j over each frame's heads sorted by
    id. Every head in a pair needs a pose. Each head's gaze and weight are
    computed once. Precision/recall/F1 use the tau cutoff and, like AP,
    count only the pairs of labelled frames. A frame with fewer than two
    heads contributes nothing.
    """
    heads, ia, ib, pair_frame = _pair_index(frames)
    ids = frames.head_ids[heads].tolist()
    pairs = [(ids[a], ids[b]) for a, b in zip(ia.tolist(), ib.tolist())]
    frame_ids = frames.frame_ids[pair_frame].tolist()

    centroids = frames.centroids[heads]
    with np.errstate(over="ignore"):  # an overflowing distance has no direction
        u = centroids[ib] - centroids[ia]
        u_norm = np.sqrt(_row_dots(u, u))
    gaze = _gazes(frames.poses[heads])
    g_norm = np.sqrt(_row_dots(gaze, gaze))
    cos_a = _cosines(u, u_norm, gaze[ia], g_norm[ia])
    cos_b = _cosines(-u, u_norm, gaze[ib], g_norm[ib])
    log_var = frames.log_variance[heads]
    has_variance = ~np.isnan(log_var[:, 0])
    weights = np.ones(len(heads), dtype=np.int64)
    weights[has_variance] = uncertainty_weight(
        log_var[has_variance, 0], log_var[has_variance, 1], delta, mode
    )
    w_a, w_b = weights[ia], weights[ib]
    values = _pair_values(cos_a, cos_b, w_a, w_b)
    ones = np.ones_like(w_a)
    baseline_values = _pair_values(cos_a, cos_b, ones, ones)

    known = [frames.labels[f] for f in pair_frame.tolist()]
    labels = [None if pos is None else pair in pos for pos, pair in zip(known, pairs)]
    gated = baseline = None
    if any(pos is not None for pos in frames.labels):
        keep = np.flatnonzero([label is not None for label in labels])
        label_arr = np.array([labels[k] for k in keep.tolist()], dtype=bool)
        frame_rank = np.unique(frames.frame_ids, return_inverse=True)[1][pair_frame[keep]]
        gated = _metrics(frame_rank, label_arr, values[keep], tau)
        baseline = _metrics(frame_rank, label_arr, baseline_values[keep], tau)

    fields = zip(pairs, cos_a.tolist(), cos_b.tolist(), w_a.tolist(), w_b.tolist(),
                 values.tolist(), (values >= tau).tolist())
    results = list(zip(frame_ids, map(LaeoResult._make, fields), labels))
    return LaeoEvaluation(
        n_pairs=len(pairs),
        n_heads=len(heads),
        n_heads_gated=int(np.count_nonzero(weights == 0)),
        results=results,
        gated=gated,
        baseline=baseline,
    )
