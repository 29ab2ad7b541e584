"""File formats: datasets, LAEO frames, model weights, JSON reports.

Data files are line-delimited JSON so they stream and diff cleanly. Model
files are one JSON header line (version, config, tensor layout) followed
by the tensors as raw little-endian float32 in the documented layout
order. All writes go through a temp file in the target directory and a
rename, so readers never observe partial files.

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

from . import autodiff as ad
from .geometry import EulerPose
from .keypoints import N_KEYPOINTS, Keypoint, KeypointSet
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


def _parse_keypoints(raw, line_number: int) -> KeypointSet:
    if not isinstance(raw, list) or len(raw) != N_KEYPOINTS:
        raise RecordError(line_number, f"keypoints must be {N_KEYPOINTS} triples")
    points = []
    for triple in raw:
        x1, x2, c = _parse_numbers(triple, 3, "keypoint [x1, x2, c]", line_number)
        if not 0.0 <= c <= 1.0:
            raise RecordError(line_number, f"confidence {c} outside [0, 1]")
        points.append(Keypoint(x1, x2, c))
    return KeypointSet(tuple(points))


def _parse_pose(raw, line_number: int) -> EulerPose:
    return EulerPose(*_parse_numbers(raw, 3, "pose [yaw, pitch, roll]", line_number))


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


@dataclass(frozen=True)
class HeadRecord:
    """A head in a frame: keypoints (model needed) or a ready estimate."""

    id: str
    centroid: tuple[float, float]
    keypoints: KeypointSet | None = None
    pose: EulerPose | None = None
    log_variance: tuple[float, float, float] | None = None

    def to_dict(self) -> dict:
        row: dict = {"id": self.id, "centroid": [self.centroid[0], self.centroid[1]]}
        if self.keypoints is not None:
            row["keypoints"] = [[p.x1, p.x2, p.c] for p in self.keypoints.points]
        if self.pose is not None:
            row["pose"] = [self.pose.yaw, self.pose.pitch, self.pose.roll]
        if self.log_variance is not None:
            row["log_variance"] = list(self.log_variance)
        return row


@dataclass(frozen=True)
class FrameRecord:
    frame_id: str
    heads: tuple[HeadRecord, ...]
    laeo_pairs: tuple[tuple[str, str], ...] = ()
    # False when the source line had no "laeo_pairs" key at all, which is
    # different from an explicit empty list (all pairs negative).
    has_labels: bool = True

    def to_dict(self) -> dict:
        row: dict = {
            "frame_id": self.frame_id,
            "heads": [h.to_dict() for h in self.heads],
        }
        if self.has_labels:
            row["laeo_pairs"] = [list(p) for p in self.laeo_pairs]
        return row


def write_frames(path: str | Path, frames: Sequence[FrameRecord]) -> None:
    write_jsonl(path, (f.to_dict() for f in frames))


def _parse_head(raw, line_number: int) -> HeadRecord:
    if not isinstance(raw, dict) or "id" not in raw or "centroid" not in raw:
        raise RecordError(line_number, "head needs 'id' and 'centroid'")
    cx, cy = _parse_numbers(raw["centroid"], 2, "centroid [x, y]", line_number)
    keypoints = None
    pose = None
    log_variance = None
    if "keypoints" in raw:
        keypoints = _parse_keypoints(raw["keypoints"], line_number)
    if "pose" in raw:
        pose = _parse_pose(raw["pose"], line_number)
        if raw.get("log_variance") is not None:
            log_variance = _parse_numbers(raw["log_variance"], 3, "log_variance", line_number)
    if keypoints is None and pose is None:
        raise RecordError(line_number, "head needs 'keypoints' or 'pose'")
    return HeadRecord(
        id=str(raw["id"]),
        centroid=(cx, cy),
        keypoints=keypoints,
        pose=pose,
        log_variance=log_variance,
    )


def read_frames(path: str | Path) -> list[FrameRecord]:
    frames = []
    seen_ids: set[str] = set()
    for line_number, obj in _read_lines(path):
        if "frame_id" not in obj or "heads" not in obj:
            raise RecordError(line_number, "frame needs 'frame_id' and 'heads'")
        frame_id = str(obj["frame_id"])
        if frame_id in seen_ids:
            raise RecordError(line_number, f"duplicate frame_id {frame_id!r}")
        seen_ids.add(frame_id)
        if not isinstance(obj["heads"], list):
            raise RecordError(line_number, "'heads' must be a list")
        heads = tuple(_parse_head(h, line_number) for h in obj["heads"])
        ids = {h.id for h in heads}
        if len(ids) != len(heads):
            raise RecordError(line_number, "duplicate head ids")
        raw_pairs = obj.get("laeo_pairs", [])
        if not isinstance(raw_pairs, list):
            raise RecordError(line_number, "'laeo_pairs' must be a list")
        pairs = []
        for pair in raw_pairs:
            if not isinstance(pair, list) or len(pair) != 2:
                raise RecordError(line_number, "laeo pair must be [idA, idB]")
            a, b = str(pair[0]), str(pair[1])
            if a == b or a not in ids or b not in ids:
                raise RecordError(line_number, f"pair [{a}, {b}] not among head ids")
            pairs.append((a, b))
        frames.append(
            FrameRecord(
                frame_id=frame_id,
                heads=heads,
                laeo_pairs=tuple(pairs),
                has_labels="laeo_pairs" in obj,
            )
        )
    return frames


def write_model(path: str | Path, model: Model) -> None:
    layout = parameter_layout(model.config)
    header = {
        "format_version": MODEL_FORMAT_VERSION,
        "model_config": model.config.to_dict(),
        "tensors": [[name, list(shape)] for name, shape in layout],
    }
    blob = b"".join(
        model.params[name].data.astype("<f4").tobytes() for name, _ in layout
    )
    atomic_write_bytes(path, json.dumps(header).encode("utf-8") + b"\n" + blob)


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
    total = sum(int(np.prod(shape)) for _, shape in layout)
    if len(blob) != 4 * total:
        raise ValueError(f"{path}: expected {4 * total} tensor bytes, got {len(blob)}")
    params = {}
    offset = 0
    for name, shape in layout:
        count = int(np.prod(shape))
        flat = np.frombuffer(blob, dtype="<f4", count=count, offset=offset)
        params[name] = ad.Tensor(flat.astype(np.float64).reshape(shape))
        offset += 4 * count
    return Model(config, params)
