"""File formats: datasets, LAEO frames, model weights, JSON reports.

Data files are line-delimited JSON so they stream and diff cleanly. A
dataset file is read into one columnar `Dataset`, checked as a whole and
rescanned record by record only to name the first bad line; a frames
file into one columnar `laeo.Frames`, every check on it in its reader.
Model files are one JSON header line (version, config, tensor layout)
followed by the model's flat parameter vector as raw little-endian
float32, tensors in layout order; non-finite values are refused on read
and on write, as they are when writing a dataset. All writes go through
a temp file in the target directory and a rename, so readers never
observe partial files.

Malformed input lines raise RecordError carrying the 1-based line number.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .keypoints import N_KEYPOINTS
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
    """Write through a temp file beside `path`; an OSError names `path`."""
    path = Path(path)
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
        with os.fdopen(fd, "wb") as f:
            f.write(data)
        os.replace(tmp, path)
    except BaseException as e:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(e, OSError) and e.errno is not None:
            raise OSError(e.errno, e.strerror, str(path)) from e
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


_POSE = "pose [yaw, pitch, roll]"


@dataclass(frozen=True)
class Dataset:
    """Every record of a dataset file, in file order, as arrays.

    Record i has id ids[i] and keypoints[i], its [x1, x2, c] rows in
    KEYPOINT_NAMES order, and came from line lines[i]. A record without a
    pose has has_pose[i] False and a NaN poses[i] row.
    """

    ids: tuple[str, ...]
    keypoints: np.ndarray  # (N, 5, 3) x1, x2 in pixels, c in [0, 1]
    poses: np.ndarray  # (N, 3) yaw, pitch, roll in degrees
    has_pose: np.ndarray  # (N,) bool
    meta: tuple[dict | None, ...]
    lines: np.ndarray  # (N,) 1-based line numbers

    def __len__(self) -> int:
        return len(self.ids)

    def targets(self) -> np.ndarray:
        """The (N, 3) poses; RecordError naming the first record without one."""
        if not self.has_pose.all():
            i = int(np.argmin(self.has_pose))
            reason = f"record {self.ids[i]!r} has no ground-truth pose"
            raise RecordError(int(self.lines[i]), reason)
        return self.poses

    @staticmethod
    def from_samples(samples: Sequence[Sample]) -> "Dataset":
        """Labelled samples as records with ids s000000, s000001, ..."""
        n = len(samples)
        keypoints = [[(p.x1, p.x2, p.c) for p in s.keypoints.points] for s in samples]
        poses = [(s.pose.yaw, s.pose.pitch, s.pose.roll) for s in samples]
        return Dataset(
            tuple(f"s{i:06d}" for i in range(n)),
            np.array(keypoints, dtype=np.float64).reshape(n, N_KEYPOINTS, 3),
            np.array(poses, dtype=np.float64).reshape(n, 3),
            np.ones(n, dtype=bool), (None,) * n, np.arange(1, n + 1),
        )


def write_dataset(path: str | Path, data: Dataset) -> None:
    """One JSON line per record; refuses non-finite keypoints or poses."""
    finite = np.isfinite(data.keypoints).all(axis=(1, 2))
    finite &= ~data.has_pose | np.isfinite(data.poses).all(axis=1)
    if not finite.all():
        record = data.ids[int(np.argmin(finite))]
        raise ValueError(f"{path}: refusing to write non-finite value in record {record!r}")
    rows = [{"id": i, "keypoints": k} for i, k in zip(data.ids, data.keypoints.tolist())]
    for row, pose, has_pose, meta in zip(rows, data.poses.tolist(), data.has_pose, data.meta):
        if has_pose:
            row["pose"] = pose
        if meta is not None:
            row["meta"] = meta
    write_jsonl(path, rows)


def read_dataset(path: str | Path) -> Dataset:
    """Every record of a dataset file as one `Dataset`.

    Each line is parsed once and the whole file is checked at once. Only
    when that check fails is the file rescanned record by record, so the
    RecordError names the first bad line and its reason.
    """
    rows = _read_lines(path)
    data = _dataset_columns(rows)
    if data is None:
        for line_number, obj in rows:
            _check_record(line_number, obj)
        raise AssertionError(f"{path}: the file check failed but every record passes")
    return data


def _dataset_columns(rows: list[tuple[int, dict]]) -> Dataset | None:
    """The rows as a Dataset, or None when any of them is malformed."""
    objs = [obj for _, obj in rows]
    meta = tuple(obj.get("meta") for obj in objs)
    has_pose = np.array(["pose" in obj for obj in objs], dtype=bool)
    poses = np.full((len(objs), 3), np.nan)
    try:
        ids = tuple(str(obj["id"]) for obj in objs)
        keypoints = _number_array([obj["keypoints"] for obj in objs], (N_KEYPOINTS, 3))
        poses[has_pose] = _number_array([obj["pose"] for obj in objs if "pose" in obj], (3,))
    except (KeyError, ValueError, TypeError, OverflowError):  # OverflowError: beyond float
        return None
    c = keypoints[:, :, 2]
    meta_ok = all(m is None or isinstance(m, dict) for m in meta)
    if not (meta_ok and ((c >= 0.0) & (c <= 1.0)).all()):
        return None
    lines = np.array([line_number for line_number, _ in rows], dtype=np.intp)
    return Dataset(ids, keypoints, poses, has_pose, meta, lines)


def _number_array(raw: list, shape: tuple[int, ...]) -> np.ndarray:
    """(len(raw), *shape) floats; ValueError unless every leaf is a finite JSON number.

    Leaf types are checked on the JSON values: np.array takes "1.5", null, true.
    """
    values = np.array(raw, dtype=np.float64)
    if raw and values.shape != (len(raw), *shape):
        raise ValueError("not a list of equal number arrays")
    leaves = raw
    for _ in shape:
        leaves = chain.from_iterable(leaves)
    if not {int, float}.issuperset(map(type, leaves)) or not np.isfinite(values).all():
        raise ValueError("not finite numbers")
    return values.reshape(len(raw), *shape)


def _check_record(line_number: int, obj: dict) -> None:
    """Raise the RecordError of a malformed dataset record, field by field."""
    if "id" not in obj or "keypoints" not in obj:
        raise RecordError(line_number, "record needs 'id' and 'keypoints'")
    if "pose" in obj:
        _parse_numbers(obj["pose"], 3, _POSE, line_number)
    meta = obj.get("meta")
    if meta is not None and not isinstance(meta, dict):
        raise RecordError(line_number, "'meta' must be an object")
    _parse_keypoint_rows(obj["keypoints"], line_number)


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
