"""Graph-free numpy oracle for the program's outputs.

Everything here reads only the documented file formats, so the checks
hold whichever internal code path the program uses to produce them:

* a model file is one JSON header line followed by the tensors as raw
  little-endian float32 in the header's order;
* keypoints are normalized per axis: present points (c > 0) are centered
  on their mean and divided by their peak absolute value, missing points
  become 0;
* the network is three same-padded convs (the confidence one squashed by
  a sigmoid gates the two coordinate streams), three leaky-ReLU dense
  layers and a linear head;
* a LAEO pair scores the gate-weighted mean of the two gaze cosines.
"""

from __future__ import annotations

import json
import math

import numpy as np


def read_model_file(path) -> tuple[dict, dict[str, np.ndarray]]:
    """(model_config, name -> float64 array) from a model file."""
    with open(path, "rb") as f:
        header = json.loads(f.readline().decode("utf-8"))
        blob = f.read()
    params = {}
    offset = 0
    for name, shape in header["tensors"]:
        count = int(np.prod(shape))
        flat = np.frombuffer(blob, dtype="<f4", count=count, offset=offset)
        params[name] = flat.astype(np.float64).reshape(shape)
        offset += 4 * count
    if offset != len(blob):
        raise ValueError(f"{path}: {len(blob) - offset} trailing bytes")
    return header["model_config"], params


def normalize(kps: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(N, 5, 3) raw [x1, x2, c] triples -> normalized (N, 5) streams."""
    c = kps[..., 2]
    present = c > 0.0
    streams = []
    for axis in (0, 1):
        v = np.where(present, kps[..., axis], 0.0)
        mean = v.sum(axis=1, keepdims=True) / present.sum(axis=1, keepdims=True)
        centered = np.where(present, v - mean, 0.0)
        peak = np.abs(centered).max(axis=1, keepdims=True)
        streams.append(np.divide(centered, peak, out=np.zeros_like(centered), where=peak > 0))
    return streams[0], streams[1], c


def _conv(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    k = w.shape[0]
    pad = k // 2
    xp = np.pad(x, ((0, 0), (pad, pad)))
    n = x.shape[1]
    return sum(xp[:, j : j + n, None] * w[j] for j in range(k)) + b


def _leaky(x: np.ndarray, slope: float) -> np.ndarray:
    return np.where(x >= 0.0, x, slope * x)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def forward(config: dict, params: dict, kps: np.ndarray) -> np.ndarray:
    """Head outputs (N, 6) or (N, 3) for (N, 5, 3) raw keypoints."""
    x1, x2, c = normalize(kps)
    p = params
    slope = config["leaky_slope"]
    gate = _sigmoid(_conv(c, p["conv_c_w"], p["conv_c_b"]))
    a1 = _leaky(_conv(x1, p["conv_x1_w"], p["conv_x1_b"]), slope) * gate
    a2 = _leaky(_conv(x2, p["conv_x2_w"], p["conv_x2_b"]), slope) * gate
    n = kps.shape[0]
    h = np.concatenate([a1.reshape(n, -1), a2.reshape(n, -1)], axis=1)
    for i in range(3):
        h = _leaky(h @ p[f"fc{i}_w"] + p[f"fc{i}_b"], slope)
    return h @ p["head_w"] + p["head_b"]


def gaze(yaw_deg: float, pitch_deg: float) -> tuple[float, float]:
    """Image-plane gaze direction (sin yaw, -cos yaw * sin pitch)."""
    y, p = math.radians(yaw_deg), math.radians(pitch_deg)
    return math.sin(y), -math.cos(y) * math.sin(p)


def gaze_cosines(ca, cb, ga, gb) -> tuple[float, float]:
    """Cosine of each head's gaze with the line toward the other head."""
    ux, uy = cb[0] - ca[0], cb[1] - ca[1]
    un = math.hypot(ux, uy)
    cos_a = (ux * ga[0] + uy * ga[1]) / (un * math.hypot(*ga))
    cos_b = -(ux * gb[0] + uy * gb[1]) / (un * math.hypot(*gb))
    return cos_a, cos_b


def gated_laeo_value(cos_a, cos_b, lv_a, lv_b, delta: float) -> float:
    """Pair score under the default "interval" gate on mean yaw/pitch log-variance."""
    wa = 1 if 0.0 <= 0.5 * (lv_a[0] + lv_a[1]) <= delta else 0
    wb = 1 if 0.0 <= 0.5 * (lv_b[0] + lv_b[1]) <= delta else 0
    if wa + wb == 0:
        return 0.0
    return (wa * cos_a + wb * cos_b) / (wa + wb)
