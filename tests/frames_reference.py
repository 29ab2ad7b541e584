"""Per-frame frames reader, the oracle for `formats.read_frames`.

It parses every line, then checks and converts one frame at a time, head
by head and field by field, in the order the fields appear below. The
first failing check raises the RecordError that `read_frames` must raise
for the same file; a valid file gives the arrays `read_frames` must give.
"""

from __future__ import annotations

import json
import math

import numpy as np

from headpose.formats import RecordError
from headpose.laeo import Frames

POSE = "pose [yaw, pitch, roll]"


def _numbers(raw, count: int, what: str, line: int) -> tuple[float, ...]:
    if not isinstance(raw, list) or len(raw) != count:
        raise RecordError(line, f"{what} must be a list of {count} numbers")
    if any(type(v) not in (int, float) for v in raw):
        raise RecordError(line, f"{what} holds a value that is not a number")
    try:
        values = tuple(float(v) for v in raw)
    except OverflowError:
        raise RecordError(line, f"non-finite value in {what}") from None
    if not all(math.isfinite(v) for v in values):
        raise RecordError(line, f"non-finite value in {what}")
    return values


def _keypoints(raw, line: int) -> list[tuple[float, ...]]:
    if not isinstance(raw, list) or len(raw) != 5:
        raise RecordError(line, "keypoints must be 5 triples")
    rows = []
    for triple in raw:
        row = _numbers(triple, 3, "keypoint [x1, x2, c]", line)
        if not 0.0 <= row[2] <= 1.0:
            raise RecordError(line, f"confidence {row[2]} outside [0, 1]")
        rows.append(row)
    return rows


def _objects(path) -> list[tuple[int, dict]]:
    objs = []
    with open(path, "rb") as f:
        for line, text in enumerate(f, start=1):
            if not text.strip():
                continue
            try:
                obj = json.loads(text.decode("utf-8"))
            except (ValueError, RecursionError) as e:
                raise RecordError(line, f"invalid JSON ({getattr(e, 'msg', e)})") from e
            if not isinstance(obj, dict):
                raise RecordError(line, "record is not an object")
            objs.append((line, obj))
    return objs


def read(path) -> Frames:
    frame_ids: list[str] = []
    lines: list[int] = []
    seen: set[str] = set()
    starts = [0]
    labels: list[frozenset[tuple[str, str]] | None] = []
    head_ids: list[str] = []
    centroids: list[tuple[float, ...]] = []
    poses: dict[int, tuple[float, ...]] = {}  # by head index; absent heads stay NaN
    log_variance: dict[int, tuple[float, ...]] = {}
    keypoints: dict[int, list[tuple[float, ...]]] = {}
    for line, obj in _objects(path):
        if "frame_id" not in obj or "heads" not in obj:
            raise RecordError(line, "frame needs 'frame_id' and 'heads'")
        frame_id = str(obj["frame_id"])
        if frame_id in seen:
            raise RecordError(line, f"duplicate frame_id {frame_id!r}")
        seen.add(frame_id)
        if not isinstance(obj["heads"], list):
            raise RecordError(line, "'heads' must be a list")
        for raw in obj["heads"]:
            if not isinstance(raw, dict) or "id" not in raw or "centroid" not in raw:
                raise RecordError(line, "head needs 'id' and 'centroid'")
            h = len(head_ids)
            centroids.append(_numbers(raw["centroid"], 2, "centroid [x, y]", line))
            if "keypoints" in raw:
                keypoints[h] = _keypoints(raw["keypoints"], line)
            if "pose" in raw:
                poses[h] = _numbers(raw["pose"], 3, POSE, line)
                if raw.get("log_variance") is not None:
                    log_variance[h] = _numbers(raw["log_variance"], 3, "log_variance", line)
            elif h not in keypoints:
                raise RecordError(line, "head needs 'keypoints' or 'pose'")
            head_ids.append(str(raw["id"]))
        ids = set(head_ids[starts[-1]:])
        if len(ids) != len(head_ids) - starts[-1]:
            raise RecordError(line, "duplicate head ids")
        pairs = None
        if "laeo_pairs" in obj:
            pairs = set()
            if not isinstance(obj["laeo_pairs"], list):
                raise RecordError(line, "'laeo_pairs' must be a list")
            for pair in obj["laeo_pairs"]:
                if not isinstance(pair, list) or len(pair) != 2:
                    raise RecordError(line, "laeo pair must be [idA, idB]")
                a, b = str(pair[0]), str(pair[1])
                if a == b or a not in ids or b not in ids:
                    raise RecordError(line, f"pair [{a}, {b}] not among head ids")
                pairs.add((a, b) if a < b else (b, a))
        frame_ids.append(frame_id)
        lines.append(line)
        starts.append(len(head_ids))
        labels.append(None if pairs is None else frozenset(pairs))

    def rows(values: dict[int, tuple], shape: tuple[int, ...]) -> np.ndarray:
        out = np.full((len(head_ids), *shape), np.nan)
        if values:
            out[list(values)] = list(values.values())
        return out

    return Frames(
        path=str(path),
        frame_ids=np.array(frame_ids, dtype=object),
        lines=np.array(lines, dtype=np.intp),
        starts=np.array(starts, dtype=np.intp),
        head_ids=np.array(head_ids, dtype=object),
        centroids=np.array(centroids, dtype=np.float64).reshape(-1, 2),
        poses=rows(poses, (3,)),
        log_variance=rows(log_variance, (3,)),
        keypoints=rows(keypoints, (5, 3)),
        labels=tuple(labels),
    )
