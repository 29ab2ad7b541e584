"""Per-record dataset reader, the oracle for `formats.read_dataset`.

It parses every line, then checks and converts one record at a time, field
by field: id and keypoints present, pose, meta, then each keypoint triple.
The first failing check raises the RecordError that `read_dataset` must
raise for the same file.
"""

from __future__ import annotations

import json
import math
from typing import NamedTuple

from headpose.formats import RecordError


class Record(NamedTuple):
    line: int
    id: str
    keypoints: list[tuple[float, float, float]]
    pose: tuple[float, float, float] | None
    meta: dict | None


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


def _record(line: int, obj: dict) -> Record:
    if "id" not in obj or "keypoints" not in obj:
        raise RecordError(line, "record needs 'id' and 'keypoints'")
    pose = _numbers(obj["pose"], 3, "pose [yaw, pitch, roll]", line) if "pose" in obj else None
    meta = obj.get("meta")
    if meta is not None and not isinstance(meta, dict):
        raise RecordError(line, "'meta' must be an object")
    raw = obj["keypoints"]
    if not isinstance(raw, list) or len(raw) != 5:
        raise RecordError(line, "keypoints must be 5 triples")
    keypoints = []
    for triple in raw:
        row = _numbers(triple, 3, "keypoint [x1, x2, c]", line)
        if not 0.0 <= row[2] <= 1.0:
            raise RecordError(line, f"confidence {row[2]} outside [0, 1]")
        keypoints.append(row)
    return Record(line, str(obj["id"]), keypoints, pose, meta)


def read(path) -> list[Record]:
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
    return [_record(line, obj) for line, obj in objs]
