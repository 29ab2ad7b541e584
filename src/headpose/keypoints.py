"""Facial keypoint containers and input normalization.

The network consumes exactly five keypoints in the fixed order
[nose, left eye, right eye, left ear, right ear] (anatomical left/right).
A confidence of 0 encodes a missing point. Batches travel as (N, 5, 3)
arrays of [x1, x2, c] rows; a KeypointSet is the form of one request.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

KEYPOINT_NAMES = ("nose", "left_eye", "right_eye", "left_ear", "right_ear")
N_KEYPOINTS = 5


@dataclass(frozen=True)
class Keypoint:
    """One detected point: image coordinates in pixels plus confidence."""

    x1: float  # horizontal, pixels
    x2: float  # vertical, pixels
    c: float  # confidence in [0, 1]; 0 means missing

    def __post_init__(self):
        if not 0.0 <= self.c <= 1.0:
            raise ValueError(f"confidence {self.c} outside [0, 1]")


@dataclass(frozen=True)
class KeypointSet:
    """The five face keypoints in the fixed KEYPOINT_NAMES order."""

    points: tuple[Keypoint, ...]

    def __post_init__(self):
        if len(self.points) != N_KEYPOINTS:
            raise ValueError(f"expected {N_KEYPOINTS} keypoints, got {len(self.points)}")

    @staticmethod
    def from_triplets(triplets: Sequence[Sequence[float]]) -> "KeypointSet":
        return KeypointSet(tuple(Keypoint(float(a), float(b), float(c)) for a, b, c in triplets))


@dataclass(frozen=True)
class NormalizedInput:
    """Centered and max-normalized coordinates; confidences pass through.

    Each stream is (5,) for one keypoint set or (N, 5) for a batch.
    Present-point coordinates have zero centroid per axis and max absolute
    value 1 per axis (all zeros when the present points coincide on an
    axis). Missing points carry zero coordinates and c = 0.
    """

    x1: np.ndarray
    x2: np.ndarray
    c: np.ndarray


class UnusableKeypoints(ValueError):
    """Every confidence of one keypoint set is zero; `index` is its position."""

    def __init__(self, index: int):
        super().__init__("no usable keypoints: all confidences are zero")
        self.index = index


def _center_and_scale(v: np.ndarray, present: np.ndarray, count: np.ndarray) -> np.ndarray:
    """One (N, 5) coordinate axis, centered on the present points, peak 1."""
    v = np.where(present, v, 0.0)
    centered = np.where(present, v - (v.sum(axis=1) / count)[:, None], 0.0)
    peak = np.abs(centered).max(axis=1, keepdims=True)
    return np.divide(centered, peak, out=np.zeros_like(centered), where=peak > 0.0)


def normalize(raw: KeypointSet | np.ndarray) -> NormalizedInput:
    """Center present points on their centroid and scale each axis to peak 1.

    An (N, 5, 3) array of [x1, x2, c] rows gives (N, 5) streams in one
    vectorized pass; one KeypointSet is a batch of one and gives its row
    as (5,) streams. Missing points (c = 0) are excluded from the
    centroid and peak statistics and come out with zero coordinates.
    Idempotent on its own output; invariant to translation and positive
    uniform scaling of the raw pixel coordinates. Raises UnusableKeypoints
    for the first set whose confidences are all 0.
    """
    single = isinstance(raw, KeypointSet)
    if single:
        kps = np.array([[(p.x1, p.x2, p.c) for p in raw.points]], dtype=np.float64)
    elif raw.ndim != 3 or raw.shape[1:] != (N_KEYPOINTS, 3):
        raise ValueError(f"expected an (N, {N_KEYPOINTS}, 3) array, got shape {raw.shape}")
    else:
        kps = raw.astype(np.float64)
    c = kps[:, :, 2]
    present = c > 0.0
    count = present.sum(axis=1)
    if not count.all():
        raise UnusableKeypoints(int(np.argmin(count)))
    x1, x2 = (_center_and_scale(kps[:, :, axis], present, count) for axis in (0, 1))
    if single:
        return NormalizedInput(x1=x1[0], x2=x2[0], c=c[0])
    return NormalizedInput(x1=x1, x2=x2, c=c)
