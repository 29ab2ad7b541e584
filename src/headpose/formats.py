"""File formats: datasets, LAEO frames, model weights, JSON reports.

Data files are line-delimited JSON so they stream and diff cleanly. A
dataset file is read into one columnar `Dataset` and a frames file into
one columnar `laeo.Frames`; each is checked as a whole and rescanned
record by record only to name the first bad line. Model files are one
JSON header line (version, config, tensor layout) followed by the
model's flat parameter vector as raw little-endian float32, tensors in
layout order; non-finite values are refused on read and on write, as
they are when writing a dataset. Dataset, `infer` and `laeo` rows have
one formatter each. All writes go through a temp file in the target
directory and a rename, so readers never observe partial files.

Malformed input lines raise RecordError carrying the file and the 1-based
line number; `Dataset` and `laeo.Frames` keep both, so errors found after
reading name them too.
"""

from __future__ import annotations

import functools
import json
import math
import os
import sys
import tempfile
from dataclasses import dataclass
from itertools import chain
from json.encoder import encode_basestring_ascii as _json_string
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from .keypoints import N_KEYPOINTS, UnusableKeypoints, normalize

if TYPE_CHECKING:
    from .laeo import Frames, LaeoResult
    from .model import Model

MODEL_FORMAT_VERSION = 1


class RecordError(Exception):
    """A data file line that cannot be parsed or fails validation.

    It reads "path: line N: reason". The parsers below a reader raise it
    without the path, which the reader sets on the way out.
    """

    def __init__(self, line_number: int, reason: str, path: str | None = None):
        self.line_number = line_number
        self.reason = reason
        self.path = path

    def __str__(self) -> str:
        return f"{_where(self.path, self.line_number)}: {self.reason}"


def _where(path: str | None, line_number: int) -> str:
    return f"line {line_number}" if path is None else f"{path}: line {line_number}"


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


def write_text(path: str | Path | None, text: str) -> None:
    """Text written atomically to path, or to stdout when path is None."""
    if path is None:
        sys.stdout.write(text)
    else:
        atomic_write_bytes(path, text.encode("utf-8"))


# The three row kinds written in bulk (dataset, `infer` and `laeo` rows) are
# formatted here rather than by json.dumps, which builds and walks a dict
# per row. Their bytes are json.dumps's: its key order and separators,
# float.__repr__ for floats, and its escaper for strings.
_JSON_LITERAL = {True: "true", False: "false", None: "null"}


def _json_float(x: float) -> str:
    """A float as json.dumps writes it, NaN and the infinities included."""
    if x - x == 0.0:  # finite
        return float.__repr__(x)
    return "NaN" if x != x else "Infinity" if x > 0 else "-Infinity"


def _json_floats(values: list[float] | None) -> str:
    """A list of floats, or None, as json.dumps writes it."""
    return "null" if values is None else f"[{', '.join(map(_json_float, values))}]"


def infer_lines(ids: Sequence[str], angles: np.ndarray, log_var: np.ndarray | None) -> str:
    """The `infer` rows: id, yaw, pitch, roll and the log-variances or null."""
    variances = [None] * len(ids) if log_var is None else log_var.tolist()
    return "".join(
        f'{{"id": {_json_string(i)}, "yaw": {_json_float(yaw)}, "pitch": {_json_float(pitch)}, '
        f'"roll": {_json_float(roll)}, "log_variance": {_json_floats(lv)}}}\n'
        for i, (yaw, pitch, roll), lv in zip(ids, angles.tolist(), variances)
    )


def laeo_lines(results: Iterable[tuple[str, LaeoResult, bool | None]]) -> str:
    """The `laeo` pair rows: the frame id, the result's fields in order, the label."""
    return "".join(
        f'{{"frame_id": {_json_string(frame_id)}, '
        f'"pair": [{_json_string(a)}, {_json_string(b)}], '
        f'"cos_a": {_json_float(cos_a)}, "cos_b": {_json_float(cos_b)}, '
        f'"weight_a": {w_a}, "weight_b": {w_b}, "laeo_value": {_json_float(value)}, '
        f'"is_laeo": {_JSON_LITERAL[is_laeo]}, "label": {_JSON_LITERAL[label]}}}\n'
        for frame_id, ((a, b), cos_a, cos_b, w_a, w_b, value, is_laeo), label in results
    )


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
    KEYPOINT_NAMES order, and came from line lines[i] of the file at path,
    which is None for records that were never read from a file. A record
    without a pose has has_pose[i] False and a NaN poses[i] row.
    """

    ids: tuple[str, ...]
    keypoints: np.ndarray  # (N, 5, 3) x1, x2 in pixels, c in [0, 1]
    poses: np.ndarray  # (N, 3) yaw, pitch, roll in degrees
    has_pose: np.ndarray  # (N,) bool
    meta: tuple[dict | None, ...]
    lines: np.ndarray  # (N,) 1-based line numbers
    path: str | None = None

    def __len__(self) -> int:
        return len(self.ids)

    def record_name(self, i: int) -> str:
        """Where record i is, as in "data.jsonl: line 2: record 'b'"."""
        return f"{_where(self.path, self.lines[i])}: record {self.ids[i]!r}"

    def targets(self) -> np.ndarray:
        """The (N, 3) poses; RecordError naming the first record without one."""
        if not self.has_pose.all():
            i = int(np.argmin(self.has_pose))
            reason = f"record {self.ids[i]!r} has no ground-truth pose"
            raise RecordError(int(self.lines[i]), reason, self.path)
        return self.poses


def prepare_arrays(data: Dataset) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Normalized input streams plus (N, 3) angle targets in degrees.

    RecordError names the line and id of the first record without a pose,
    else of the first whose confidences are all zero.
    """
    targets = data.targets()
    try:
        inputs = normalize(data.keypoints)
    except UnusableKeypoints as e:
        reason = f"record {data.ids[e.index]!r}: {e}"
        raise RecordError(int(data.lines[e.index]), reason, data.path) from e
    return inputs.x1, inputs.x2, inputs.c, targets


def write_dataset(path: str | Path, data: Dataset) -> None:
    """One JSON line per record; refuses non-finite keypoints or poses."""
    finite = np.isfinite(data.keypoints).all(axis=(1, 2))
    finite &= ~data.has_pose | np.isfinite(data.poses).all(axis=1)
    if not finite.all():
        record = data.ids[int(np.argmin(finite))]
        raise ValueError(f"{path}: refusing to write non-finite value in record {record!r}")
    write_text(path, dataset_lines(data))


# A dataset row's id and keypoints, and its pose; `{!r}` writes a finite float
# as json.dumps does.
_DATASET_ROW = '{{"id": {}, "keypoints": [' + ", ".join(["[{!r}, {!r}, {!r}]"] * N_KEYPOINTS) + "]"
_DATASET_POSE = ', "pose": [{!r}, {!r}, {!r}]'


def dataset_lines(data: Dataset) -> str:
    """The dataset rows: id and keypoints, then the pose and the meta object if
    present. Keypoints and poses must be finite, as write_dataset checks."""
    lines = []
    points = data.keypoints.reshape(len(data), 3 * N_KEYPOINTS).tolist()
    rows = zip(data.ids, points, data.poses.tolist(), data.has_pose.tolist(), data.meta)
    for i, row_points, pose, has_pose, meta in rows:
        line = _DATASET_ROW.format(_json_string(i), *row_points)
        if has_pose:
            line += _DATASET_POSE.format(*pose)
        if meta is not None:
            line += f', "meta": {json.dumps(meta)}'
        lines.append(line + "}\n")
    return "".join(lines)


def _names_its_file(reader):
    """The reader, setting its path on every RecordError it raises."""

    @functools.wraps(reader)
    def read(path: str | Path):
        try:
            return reader(path)
        except RecordError as e:
            e.path = str(path)
            raise

    return read


@_names_its_file
def read_dataset(path: str | Path) -> Dataset:
    """Every record of a dataset file as one `Dataset`.

    Each line is parsed once and the whole file is checked at once. Only
    when that check fails is the file rescanned record by record, so the
    RecordError names the first bad line and its reason.
    """
    rows = _read_lines(path)
    data = _dataset_columns(rows, str(path))
    if data is None:
        for line_number, obj in rows:
            _check_record(line_number, obj)
        raise AssertionError(f"{path}: the file check failed but every record passes")
    return data


def _dataset_columns(rows: list[tuple[int, dict]], path: str) -> Dataset | None:
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
    return Dataset(ids, keypoints, poses, has_pose, meta, lines, path)


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


@_names_its_file
def read_frames(path: str | Path) -> Frames:
    """Every frame of a frames file as one `laeo.Frames`, heads in file order.

    A head needs an id, a centroid, and keypoints or a pose; log_variance
    is read only beside a pose. Frame ids are unique in the file, head ids
    within a frame, and a label pair names two of the frame's heads. As in
    `read_dataset`, the whole file is checked at once and rescanned frame
    by frame only to name the first bad line and its reason.
    """
    rows = _read_lines(path)
    frames = _frames_columns(rows, str(path))
    if frames is None:
        seen: set[str] = set()
        for line_number, obj in rows:
            _check_frame(line_number, obj, seen)
        raise AssertionError(f"{path}: the file check failed but every frame passes")
    return frames


def _frames_columns(rows: list[tuple[int, dict]], path: str) -> Frames | None:
    """The rows as Frames, or None when any of them is malformed."""
    from .laeo import Frames

    objs = [obj for _, obj in rows]
    try:
        frame_ids = [str(obj["frame_id"]) for obj in objs]
        frame_heads = [obj["heads"] for obj in objs]
    except KeyError:
        return None
    if len(set(frame_ids)) != len(frame_ids) or not all(
            isinstance(heads, list) for heads in frame_heads):
        return None
    heads = list(chain.from_iterable(frame_heads))
    if not all(isinstance(raw, dict) and "id" in raw and "centroid" in raw
               and ("pose" in raw or "keypoints" in raw) for raw in heads):
        return None
    with_pose = [h for h, raw in enumerate(heads) if "pose" in raw]
    with_keypoints = [h for h, raw in enumerate(heads) if "keypoints" in raw]
    with_variance = [h for h in with_pose if heads[h].get("log_variance") is not None]
    head_ids = [str(raw["id"]) for raw in heads]
    starts = np.cumsum([0] + [len(h) for h in frame_heads], dtype=np.intp)
    try:
        labels = tuple(_frame_labels(line_number, obj, head_ids[first:last])
                       for (line_number, obj), first, last
                       in zip(rows, starts.tolist(), starts[1:].tolist()))
        centroids = _number_array([raw["centroid"] for raw in heads], (2,))
        kps = _number_array([heads[h]["keypoints"] for h in with_keypoints], (N_KEYPOINTS, 3))
        pose_rows = _number_array([heads[h]["pose"] for h in with_pose], (3,))
        variance_rows = _number_array([heads[h]["log_variance"] for h in with_variance], (3,))
    except (RecordError, ValueError, TypeError, OverflowError):  # OverflowError: beyond float
        return None
    c = kps[:, :, 2]
    if not ((c >= 0.0) & (c <= 1.0)).all():
        return None

    def rows_at(index: list[int], values: np.ndarray) -> np.ndarray:
        out = np.full((len(heads), *values.shape[1:]), np.nan)
        out[index] = values
        return out

    return Frames(
        path=path,
        frame_ids=np.array(frame_ids, dtype=object),
        lines=np.array([line_number for line_number, _ in rows], dtype=np.intp),
        starts=starts,
        head_ids=np.array(head_ids, dtype=object),
        centroids=centroids,
        poses=rows_at(with_pose, pose_rows),
        log_variance=rows_at(with_variance, variance_rows),
        keypoints=rows_at(with_keypoints, kps),
        labels=labels,
    )


def _frame_labels(line_number: int, obj: dict,
                  head_ids: list[str]) -> frozenset[tuple[str, str]] | None:
    """The frame's mutual-gaze pairs, None without "laeo_pairs"; RecordError on
    duplicate head ids or a bad pair."""
    ids = set(head_ids)
    if len(ids) != len(head_ids):
        raise RecordError(line_number, "duplicate head ids")
    if "laeo_pairs" not in obj:
        return None
    if not isinstance(obj["laeo_pairs"], list):
        raise RecordError(line_number, "'laeo_pairs' must be a list")
    pairs = set()
    for pair in obj["laeo_pairs"]:
        if not isinstance(pair, list) or len(pair) != 2:
            raise RecordError(line_number, "laeo pair must be [idA, idB]")
        a, b = str(pair[0]), str(pair[1])
        if a == b or a not in ids or b not in ids:
            raise RecordError(line_number, f"pair [{a}, {b}] not among head ids")
        pairs.add((a, b) if a < b else (b, a))
    return frozenset(pairs)


def _check_frame(line_number: int, obj: dict, seen: set[str]) -> None:
    """Raise the RecordError of a malformed frame, head by head; seen holds the
    frame ids of the lines before it."""
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
        _parse_numbers(raw["centroid"], 2, "centroid [x, y]", line_number)
        if "keypoints" in raw:
            _parse_keypoint_rows(raw["keypoints"], line_number)
        if "pose" in raw:
            _parse_numbers(raw["pose"], 3, _POSE, line_number)
            if raw.get("log_variance") is not None:
                _parse_numbers(raw["log_variance"], 3, "log_variance", line_number)
        elif "keypoints" not in raw:
            raise RecordError(line_number, "head needs 'keypoints' or 'pose'")
    _frame_labels(line_number, obj, [str(raw["id"]) for raw in obj["heads"]])


def write_model(path: str | Path, model: Model) -> None:
    """Header line, then the flat vector as float32; refuses non-finite values."""
    from .model import parameter_layout

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
    from .model import Model, ModelConfig, parameter_layout

    with open(path, "rb") as f:
        header_line = f.readline()
        blob = f.read()
    try:
        header = json.loads(header_line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as e:
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
