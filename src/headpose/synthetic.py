"""Synthetic keypoint data with known ground-truth poses.

A rigid five-point head model is rotated by a sampled pose and projected
orthographically into the image plane (x right, y down). Pixel noise can
grow with |yaw|, which gives a controllable heteroscedastic signal: the
harder the pose, the noisier the detections. Past a yaw threshold the far
ear leaves the silhouette and is emitted with zero confidence, mimicking
a detector that stops reporting occluded points.

Keypoint names follow image sides at the identity pose: left_eye is the
eye at negative x when the head faces the viewer. Turning the face toward
positive x therefore hides right_ear, the ear on the side being turned to.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .formats import Dataset
from .geometry import EulerPose, rotation_matrix
from .keypoints import KEYPOINT_NAMES, N_KEYPOINTS, KeypointSet

# Rows follow KEYPOINT_NAMES; head frame matches the image frame at the
# identity pose, eye-to-eye distance is the unit.
CANONICAL_HEAD = np.array(
    [
        [0.00, 0.35, -0.60],  # nose: below the eyes, well forward
        [-0.50, 0.00, -0.40],  # left_eye
        [0.50, 0.00, -0.40],  # right_eye
        [-0.75, 0.10, 0.10],  # left_ear: wide and slightly behind center
        [0.75, 0.10, 0.10],  # right_ear
    ]
)

PIXELS_PER_UNIT = 100.0  # image size of the eye-to-eye distance
MIN_KEEP = 2  # keypoints that a drop always leaves present

LEFT_EAR = KEYPOINT_NAMES.index("left_ear")
RIGHT_EAR = KEYPOINT_NAMES.index("right_ear")


@dataclass(frozen=True)
class NoiseModel:
    """Pixel noise sigma = base + gain * |yaw in degrees|."""

    base_sigma: float = 0.0
    yaw_gain: float = 0.0

    def __post_init__(self) -> None:
        if self.base_sigma < 0 or self.yaw_gain < 0:
            raise ValueError("noise magnitudes must be >= 0")

    def sigma(self, yaw_degrees: float) -> float:
        return self.base_sigma + self.yaw_gain * abs(yaw_degrees)


@dataclass(frozen=True)
class PoseRange:
    """Uniform sampling box, degrees, symmetric around zero."""

    yaw: float = 75.0
    pitch: float = 60.0
    roll: float = 40.0

    def __post_init__(self) -> None:
        for v in (self.yaw, self.pitch, self.roll):
            if not 0 <= v <= 180:
                raise ValueError("pose range half-widths must be in [0, 180]")


@dataclass(frozen=True)
class Sample:
    """One labelled example: raw detections plus the true pose."""

    keypoints: KeypointSet
    pose: EulerPose


def project_head(poses: np.ndarray) -> np.ndarray:
    """Rotate the canonical head by each (..., 3) pose and project to pixels, (..., 5, 2)."""
    rotated = CANONICAL_HEAD @ np.swapaxes(rotation_matrix(poses), -1, -2)
    return rotated[..., :2] * PIXELS_PER_UNIT


def synthesize(
    n: int,
    rng: np.random.Generator,
    noise: NoiseModel = NoiseModel(),
    pose_range: PoseRange = PoseRange(),
    occlusion_yaw: float = 60.0,
    drop_fraction: float = 0.0,
) -> Dataset:
    """n labelled records with ids s000000, s000001, ...; drop_fraction of
    them lose extra keypoints.

    One loop makes every random draw, sample by sample: the pose, the
    pixel noise when its sigma is positive, a confidence per visible
    point, then whether to drop and which points. Rotation and projection
    then run on all samples at once. Past occlusion_yaw the far ear is
    emitted as zeros; a drop zeroes the confidence of present points,
    keeping at least MIN_KEEP, and leaves their coordinates as they are.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0.0 <= drop_fraction <= 1.0:
        raise ValueError("drop_fraction must be in [0, 1]")
    # allocated before any draw, so an impossible n fails at once
    keypoints = np.zeros((n, N_KEYPOINTS, 3))
    pixel_noise = np.empty((n, N_KEYPOINTS, 2))
    poses = np.empty((n, 3))
    noisy = np.zeros(n, dtype=bool)
    hidden = np.full(n, -1)
    # abs: a half-width of -0.0 is 0, which uniform accepts as a range
    widths = [abs(w) for w in (pose_range.yaw, pose_range.pitch, pose_range.roll)]
    for i in range(n):
        poses[i] = pose = [rng.uniform(-w, w) for w in widths]
        yaw = pose[0]
        sigma = noise.sigma(yaw)
        if sigma > 0:
            noisy[i] = True
            pixel_noise[i] = rng.normal(0.0, sigma, size=(N_KEYPOINTS, 2))
        if yaw > occlusion_yaw:
            hidden[i] = RIGHT_EAR
        elif yaw < -occlusion_yaw:
            hidden[i] = LEFT_EAR
        present = np.flatnonzero(np.arange(N_KEYPOINTS) != hidden[i])
        conf = keypoints[i, :, 2]
        conf[present] = 1.0 - rng.uniform(0.0, 0.5, size=len(present))
        if drop_fraction > 0.0 and rng.uniform() < drop_fraction and len(present) > MIN_KEEP:
            keep = int(rng.integers(MIN_KEEP, len(present)))
            conf[rng.choice(present, size=len(present) - keep, replace=False)] = 0.0
    points = project_head(poses)
    points[noisy] = points[noisy] + pixel_noise[noisy]
    shown = np.arange(N_KEYPOINTS) != hidden[:, None]
    keypoints[:, :, :2] = np.where(shown[:, :, None], points, 0.0)
    return Dataset(
        tuple(f"s{i:06d}" for i in range(n)), keypoints, poses,
        np.ones(n, dtype=bool), (None,) * n, np.arange(1, n + 1),
    )


def generate_dataset(
    n: int,
    rng: np.random.Generator,
    noise: NoiseModel = NoiseModel(),
    pose_range: PoseRange = PoseRange(),
    occlusion_yaw: float = 60.0,
    drop_fraction: float = 0.0,
) -> list[Sample]:
    """synthesize's records as Sample objects, in record order."""
    data = synthesize(n, rng, noise, pose_range, occlusion_yaw, drop_fraction)
    return [
        Sample(KeypointSet.from_triplets(kps), EulerPose(*pose))
        for kps, pose in zip(data.keypoints.tolist(), data.poses.tolist())
    ]
