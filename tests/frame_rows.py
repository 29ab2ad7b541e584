"""Frames for tests as the JSON rows of a frames file, read by `read_frames`.

Tests build frames as rows, so every `laeo.Frames` they score comes out of
the reader, the only place that builds one.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from headpose.formats import read_frames, write_jsonl
from headpose.laeo import Frames


def head(hid, centroid, pose=None, log_variance=None, keypoints=None) -> dict:
    """A head row; pose and log_variance are number triples, keypoints a KeypointSet."""
    row: dict = {"id": hid, "centroid": [float(v) for v in centroid]}
    if keypoints is not None:
        row["keypoints"] = [[p.x1, p.x2, p.c] for p in keypoints.points]
    if pose is not None:
        row["pose"] = [float(v) for v in pose]
    if log_variance is not None:
        row["log_variance"] = [float(v) for v in log_variance]
    return row


def frame(frame_id, heads, pairs=None) -> dict:
    """A frame row; without pairs it has no "laeo_pairs" key and is unlabelled."""
    row: dict = {"frame_id": frame_id, "heads": list(heads)}
    if pairs is not None:
        row["laeo_pairs"] = [list(p) for p in pairs]
    return row


def write(path, rows) -> Path:
    write_jsonl(path, rows)
    return Path(path)


def read(rows) -> Frames:
    """The rows as `read_frames` reads them from a file."""
    with tempfile.TemporaryDirectory() as d:
        return read_frames(write(Path(d) / "frames.jsonl", rows))
