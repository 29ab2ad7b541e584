"""Mutual-gaze oracles for the array scorer in `headpose.laeo`.

Three independent references:

* A brute-force scorer (`gaze_2d` ... `brute_force_scores`) that recomputes
  pair scores from first principles: gaze direction from the pose angles
  via basic trigonometry, plain cosine formulas, explicit loops. It shares
  no code with the package.
* The scalar per-pair path (`interaction_measure` ... `per_pair_evaluation`)
  that scored one pair at a time before the array pass replaced it. It
  uses the same numpy calls per pair, so the array pass must match it bit
  for bit.
* List metrics (`average_precision`, `metrics`) that rank pairs with a
  tuple sort and walk Python lists, as the package did before its metrics
  became array operations; the arrays must match them bit for bit.

Both give a head whose projected gaze has zero length a cosine of 0 toward
every other head, and both heads of a pair whose joining line has no
finite, nonzero length a cosine of 0, as the package does. The per-pair
path reads frames as the JSON rows of a frames file (see `frame_rows`): a
head is a dict with "id", "centroid", "pose" and an optional
"log_variance", and a frame without a "laeo_pairs" key is unlabelled.
"""

from __future__ import annotations

import math

import numpy as np

from headpose.geometry import EulerPose
from headpose.laeo import DEFAULT_DELTA, DEFAULT_TAU, LaeoResult, uncertainty_weight

from geometry_reference import project_direction


def gaze_2d(yaw_deg: float, pitch_deg: float) -> tuple[float, float]:
    y = math.radians(yaw_deg)
    p = math.radians(pitch_deg)
    return math.sin(y), -math.cos(y) * math.sin(p)


def weight(log_variance, delta: float, mode: str) -> int:
    if mode == "off" or log_variance is None:
        return 1
    s_hat = 0.5 * (log_variance[0] + log_variance[1])
    if mode == "interval":
        return 1 if 0.0 <= s_hat <= delta else 0
    if mode == "open-below":
        return 1 if s_hat <= delta else 0
    raise ValueError(mode)


def pair_score(head_a, head_b, delta: float, mode: str) -> float:
    """head_*: (centroid, pose, log_variance_or_None) tuples."""
    (ax, ay), pose_a, lv_a = head_a
    (bx, by), pose_b, lv_b = head_b
    ux, uy = bx - ax, by - ay
    un = math.hypot(ux, uy)
    cosines = []
    for (pose, sign) in ((pose_a, 1.0), (pose_b, -1.0)):
        gx, gy = gaze_2d(pose[0], pose[1])
        gn = math.hypot(gx, gy)
        if gn == 0.0 or not 0.0 < un < math.inf:
            cosines.append(0.0)
            continue
        cosines.append((sign * ux * gx + sign * uy * gy) / (un * gn))
    wa = weight(lv_a, delta, mode)
    wb = weight(lv_b, delta, mode)
    if wa + wb == 0:
        return 0.0
    return (wa * cosines[0] + wb * cosines[1]) / (wa + wb)


def brute_force_scores(frames, delta: float, mode: str) -> dict:
    """{(frame_id, id_a, id_b): score} over all unordered pairs, ids sorted."""
    out = {}
    for frame_id, heads in frames:
        ids = sorted(heads)
        for i in range(len(ids)):
            for j in range(i + 1, len(ids)):
                a, b = ids[i], ids[j]
                out[(frame_id, a, b)] = pair_score(heads[a], heads[b], delta, mode)
    return out


def interaction_measure(a: dict, b: dict) -> tuple[float, float]:
    """Cosines between each head's projected gaze and the line joining them;
    both 0 when that line has no finite, nonzero length."""
    with np.errstate(over="ignore"):
        u = np.array(b["centroid"], dtype=np.float64) - np.array(a["centroid"], dtype=np.float64)
        u_norm = float(np.linalg.norm(u))
    if not 0.0 < u_norm < math.inf:
        return 0.0, 0.0
    cosines = []
    for head, toward in ((a, u), (b, -u)):
        g = np.array(project_direction(EulerPose(*head["pose"])), dtype=np.float64)
        g_norm = float(np.linalg.norm(g))
        if g_norm == 0.0:
            cosines.append(0.0)
            continue
        cosines.append(float(np.dot(toward, g) / (u_norm * g_norm)))
    return cosines[0], cosines[1]


def laeo_value(measure: tuple[float, float], weights: tuple[int, int]) -> float:
    """Weight-normalized average of the two cosines; 0 when fully gated out."""
    (ca, cb), (wa, wb) = measure, weights
    if wa not in (0, 1) or wb not in (0, 1):
        raise ValueError("weights must be 0 or 1")
    if wa + wb == 0:
        return 0.0
    return (wa * ca + wb * cb) / (wa + wb)


def classify(value: float, tau: float = DEFAULT_TAU) -> bool:
    return value >= tau


def head_weight(head: dict, delta: float, mode: str) -> int:
    lv = head.get("log_variance")
    if lv is None:
        return 1
    return int(uncertainty_weight(float(lv[0]), float(lv[1]), delta, mode))


def score_pair(
    a: dict,
    b: dict,
    tau: float = DEFAULT_TAU,
    delta: float = DEFAULT_DELTA,
    mode: str = "interval",
) -> LaeoResult:
    ca, cb = interaction_measure(a, b)
    wa = head_weight(a, delta, mode)
    wb = head_weight(b, delta, mode)
    value = laeo_value((ca, cb), (wa, wb))
    return LaeoResult(
        pair=(a["id"], b["id"]),
        cos_a=ca,
        cos_b=cb,
        weight_a=wa,
        weight_b=wb,
        laeo_value=value,
        is_laeo=classify(value, tau),
    )


def average_precision(ranked_labels: list[bool]) -> float:
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


def metrics(keys: list, labels: list[bool], values: list[float], tau: float) -> dict:
    """Precision/recall/F1 of values >= tau and AP of the values, against the labels.

    AP ranks by value, ties broken by keys[k], a (frame_id, pair) tuple.
    """
    hits = [v >= tau for v in values]
    tp = sum(1 for hit, lab in zip(hits, labels) if hit and lab)
    fp = sum(1 for hit, lab in zip(hits, labels) if hit and not lab)
    fn = sum(1 for hit, lab in zip(hits, labels) if not hit and lab)
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    ranked = sorted(range(len(keys)), key=lambda k: (-values[k], keys[k]))
    return {
        "precision": precision,
        "recall": recall,
        "f1": f1,
        "average_precision": average_precision([labels[k] for k in ranked]),
        "n_pairs": len(keys),
        "n_positive": sum(labels),
    }


def per_pair_evaluation(
    rows: list[dict], tau: float, delta: float, mode: str
) -> tuple[dict | None, list[tuple[str, LaeoResult, bool | None]]]:
    """(metrics dict, results) of scoring one pair at a time, in pair order.

    A pair of an unlabelled frame has label None and stays out of the
    metrics, which are None when no frame is labelled.
    """
    scored = []
    for row in rows:
        heads = sorted(row["heads"], key=lambda h: h["id"])
        positives = None
        if "laeo_pairs" in row:
            positives = {frozenset(p) for p in row["laeo_pairs"]}
        for i in range(len(heads)):
            for j in range(i + 1, len(heads)):
                result = score_pair(heads[i], heads[j], tau, delta, mode)
                label = None if positives is None else frozenset(result.pair) in positives
                scored.append((row["frame_id"], result, label))
    if all("laeo_pairs" not in row for row in rows):
        return None, scored
    labelled = [e for e in scored if e[2] is not None]
    return metrics(
        [(frame_id, r.pair) for frame_id, r, _ in labelled],
        [lab for _, _, lab in labelled],
        [r.laeo_value for _, r, _ in labelled],
        tau,
    ), scored
