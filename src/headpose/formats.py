"""File formats: datasets, LAEO frames, model weights, JSON reports.

Data files are line-delimited JSON so they stream and diff cleanly. A
frames file is read into one columnar `laeo.Frames`, with no object per
head; every check on frame input lives in its reader. Model files are one
JSON header line (version, config, tensor layout) followed by the model's
flat parameter vector as raw little-endian float32, tensors in layout
order; non-finite values are refused on read and on write. All writes
go through a temp file in the target directory and a rename, so readers
never observe partial files.

Malformed input lines raise RecordError carrying the 1-based line number.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .geometry import EulerPose
from .keypoints import N_KEYPOINTS, Keypoint, KeypointSet
from .laeo import Frames
from .model import Model, ModelConfig, parameter_layout
from .synthetic import Sample

MODEL_FORMAT_VERSION = 1


class RecordError(Exception):
    """A data file line that cannot be parsed or fails validation."""

    def __init__(self, line_number: int, reason: str):
        super().__init__(f"line {line_number}: {reason}")
        self.line_number = line_number
        self.reason = reason


def atomic_write_bytes(path: str | Path, data: bytes) -> None:
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent or Path("."), prefix=path.name + ".")
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json(path: str | Path, obj) -> None:
    """Pretty JSON document; key order is the dict insertion order."""
    atomic_write_bytes(path, (json.dumps(obj, indent=2) + "\n").encode("utf-8"))


def write_jsonl(path: str | Path, rows: Iterable[dict]) -> None:
    text = "".join(json.dumps(row) + "\n" for row in rows)
    atomic_write_bytes(path, text.encode("utf-8"))


def _read_lines(path: str | Path) -> list[tuple[int, dict]]:
    rows = []
    with open(path, "rb") as f:
        for line_number, line in enumerate(f, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line.decode("utf-8"))
            except (ValueError, RecursionError) as e:  # also bad UTF-8, huge integers
                raise RecordError(line_number, f"invalid JSON ({getattr(e, 'msg', e)})") from e
            if not isinstance(obj, dict):
                raise RecordError(line_number, "record is not an object")
            rows.append((line_number, obj))
    return rows


def _parse_numbers(raw, count: int, what: str, line_number: int) -> tuple[float, ...]:
    """A JSON list of exactly `count` finite numbers as floats, else RecordError."""
    if not isinstance(raw, list) or len(raw) != count:
        raise RecordError(line_number, f"{what} must be a list of {count} numbers")
    if not {int, float}.issuperset(map(type, raw)):  # type(True) is bool, not a number
        raise RecordError(line_number, f"{what} holds a value that is not a number")
    try:
        values = tuple(map(float, raw))
    except OverflowError:  # an integer beyond the float range
        values = (math.inf,)
    if not all(map(math.isfinite, values)):
        raise RecordError(line_number, f"non-finite value in {what}")
    return values


def _parse_keypoint_rows(raw, line_number: int) -> list[tuple[float, ...]]:
    """Five [x1, x2, c] triples of finite numbers with c in [0, 1]."""
    if not isinstance(raw, list) or len(raw) != N_KEYPOINTS:
        raise RecordError(line_number, f"keypoints must be {N_KEYPOINTS} triples")
    rows = []
    for triple in raw:
        row = _parse_numbers(triple, 3, "keypoint [x1, x2, c]", line_number)
        if not 0.0 <= row[2] <= 1.0:
            raise RecordError(line_number, f"confidence {row[2]} outside [0, 1]")
        rows.append(row)
    return rows


def _parse_keypoints(raw, line_number: int) -> KeypointSet:
    return KeypointSet(tuple(Keypoint(*row) for row in _parse_keypoint_rows(raw, line_number)))


_POSE = "pose [yaw, pitch, roll]"


def _parse_pose(raw, line_number: int) -> EulerPose:
    return EulerPose(*_parse_numbers(raw, 3, _POSE, line_number))


@dataclass(frozen=True)
class DatasetRecord:
    """One dataset line; pose is optional so inference data can omit it."""

    id: str
    keypoints: KeypointSet
    pose: EulerPose | None = None
    meta: dict | None = None

    def to_sample(self) -> Sample:
        if self.pose is None:
            raise ValueError(f"record {self.id!r} has no ground-truth pose")
        return Sample(keypoints=self.keypoints, pose=self.pose)

    def to_dict(self) -> dict:
        row: dict = {
            "id": self.id,
            "keypoints": [[p.x1, p.x2, p.c] for p in self.keypoints.points],
        }
        if self.pose is not None:
            row["pose"] = [self.pose.yaw, self.pose.pitch, self.pose.roll]
        if self.meta is not None:
            row["meta"] = self.meta
        return row


def records_from_samples(samples: Sequence[Sample], prefix: str = "s") -> list[DatasetRecord]:
    return [
        DatasetRecord(id=f"{prefix}{i:06d}", keypoints=s.keypoints, pose=s.pose)
        for i, s in enumerate(samples)
    ]


def samples_from_records(records: Sequence[DatasetRecord]) -> list[Sample]:
    return [r.to_sample() for r in records]


def write_dataset(path: str | Path, records: Sequence[DatasetRecord]) -> None:
    write_jsonl(path, (r.to_dict() for r in records))


def read_dataset(path: str | Path) -> list[DatasetRecord]:
    records = []
    for line_number, obj in _read_lines(path):
        if "id" not in obj or "keypoints" not in obj:
            raise RecordError(line_number, "record needs 'id' and 'keypoints'")
        pose = _parse_pose(obj["pose"], line_number) if "pose" in obj else None
        meta = obj.get("meta")
        if meta is not None and not isinstance(meta, dict):
            raise RecordError(line_number, "'meta' must be an object")
        records.append(
            DatasetRecord(
                id=str(obj["id"]),
                keypoints=_parse_keypoints(obj["keypoints"], line_number),
                pose=pose,
                meta=meta,
            )
        )
    return records


def read_frames(path: str | Path) -> Frames:
    """Every frame of a frames file as one `laeo.Frames`, heads in file order.

    A head needs an id, a centroid, and keypoints or a pose; log_variance
    is read only beside a pose. Frame ids are unique in the file, head ids
    within a frame, and a label pair names two of the frame's heads.
    """
    frame_ids: list[str] = []
    seen: set[str] = set()
    starts = [0]
    labels: list[frozenset[tuple[str, str]] | None] = []
    head_ids: list[str] = []
    centroids: list[tuple[float, ...]] = []
    poses: dict[int, tuple[float, ...]] = {}  # by head index; absent heads stay NaN
    log_variance: dict[int, tuple[float, ...]] = {}
    keypoints: dict[int, list[tuple[float, ...]]] = {}
    for line_number, obj in _read_lines(path):
        if "frame_id" not in obj or "heads" not in obj:
            raise RecordError(line_number, "frame needs 'frame_id' and 'heads'")
        frame_id = str(obj["frame_id"])
        if frame_id in seen:
            raise RecordError(line_number, f"duplicate frame_id {frame_id!r}")
        seen.add(frame_id)
        if not isinstance(obj["heads"], list):
            raise RecordError(line_number, "'heads' must be a list")
        for raw in obj["heads"]:
            if not isinstance(raw, dict) or "id" not in raw or "centroid" not in raw:
                raise RecordError(line_number, "head needs 'id' and 'centroid'")
            h = len(head_ids)
            centroids.append(_parse_numbers(raw["centroid"], 2, "centroid [x, y]", line_number))
            if "keypoints" in raw:
                keypoints[h] = _parse_keypoint_rows(raw["keypoints"], line_number)
            if "pose" in raw:
                poses[h] = _parse_numbers(raw["pose"], 3, _POSE, line_number)
                if raw.get("log_variance") is not None:
                    log_variance[h] = _parse_numbers(
                        raw["log_variance"], 3, "log_variance", line_number
                    )
            elif h not in keypoints:
                raise RecordError(line_number, "head needs 'keypoints' or 'pose'")
            head_ids.append(str(raw["id"]))
        ids = set(head_ids[starts[-1]:])
        if len(ids) != len(head_ids) - starts[-1]:
            raise RecordError(line_number, "duplicate head ids")
        pairs = None
        if "laeo_pairs" in obj:
            pairs = set()
            if not isinstance(obj["laeo_pairs"], list):
                raise RecordError(line_number, "'laeo_pairs' must be a list")
            for pair in obj["laeo_pairs"]:
                if not isinstance(pair, list) or len(pair) != 2:
                    raise RecordError(line_number, "laeo pair must be [idA, idB]")
                a, b = str(pair[0]), str(pair[1])
                if a == b or a not in ids or b not in ids:
                    raise RecordError(line_number, f"pair [{a}, {b}] not among head ids")
                pairs.add((a, b) if a < b else (b, a))
        frame_ids.append(frame_id)
        starts.append(len(head_ids))
        labels.append(None if pairs is None else frozenset(pairs))

    def rows(values: dict[int, tuple], shape: tuple[int, ...]) -> np.ndarray:
        out = np.full((len(head_ids), *shape), np.nan)
        if values:
            out[list(values)] = list(values.values())
        return out

    return Frames(
        frame_ids=np.array(frame_ids, dtype=object),
        starts=np.array(starts, dtype=np.intp),
        head_ids=np.array(head_ids, dtype=object),
        centroids=np.array(centroids, dtype=np.float64).reshape(-1, 2),
        poses=rows(poses, (3,)),
        log_variance=rows(log_variance, (3,)),
        keypoints=rows(keypoints, (N_KEYPOINTS, 3)),
        labels=tuple(labels),
    )


def write_model(path: str | Path, model: Model) -> None:
    """Header line, then the flat vector as float32; refuses non-finite values."""
    header = {
        "format_version": MODEL_FORMAT_VERSION,
        "model_config": model.config.to_dict(),
        "tensors": [[name, list(shape)] for name, shape in parameter_layout(model.config)],
    }
    with np.errstate(over="ignore"):  # values beyond float32 become inf, refused below
        blob = model.flat.astype("<f4")
    _require_finite(blob, model, f"{path}: refusing to write")
    atomic_write_bytes(path, json.dumps(header).encode("utf-8") + b"\n" + blob.tobytes())


def _require_finite(values: np.ndarray, model: Model, prefix: str) -> None:
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise ValueError(f"{prefix} non-finite value in tensor {model.parameter_at(bad[0])}")


def read_model(path: str | Path) -> Model:
    with open(path, "rb") as f:
        header_line = f.readline()
        blob = f.read()
    try:
        header = json.loads(header_line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise ValueError(f"{path}: not a model file ({e})") from e
    if not isinstance(header, dict):
        raise ValueError(f"{path}: not a model file (header is not a JSON object)")
    if header.get("format_version") != MODEL_FORMAT_VERSION:
        raise ValueError(f"{path}: unsupported format_version {header.get('format_version')}")
    if not isinstance(header.get("model_config"), dict):
        raise ValueError(f"{path}: header has no model_config object")
    try:
        config = ModelConfig.from_dict(header["model_config"])
        layout = parameter_layout(config)
    except (ValueError, OverflowError) as e:  # OverflowError: widths beyond any float
        raise ValueError(f"{path}: bad model_config ({e})") from e
    declared = [[name, list(shape)] for name, shape in layout]
    if header.get("tensors") != declared:
        raise ValueError(f"{path}: tensor layout does not match the config")
    total = sum(math.prod(shape) for _, shape in layout)
    if len(blob) != 4 * total:
        raise ValueError(f"{path}: expected {4 * total} tensor bytes, got {len(blob)}")
    model = Model(config, np.frombuffer(blob, dtype="<f4").astype(np.float64))
    _require_finite(model.flat, model, f"{path}:")
    return model
