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

from .geometry import EulerPose, rotation_matrix
from .keypoints import (
    KEYPOINT_NAMES,
    Keypoint,
    KeypointSet,
    drop_keypoints,
    present_count,
)

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
MIN_KEEP = 2  # keypoints that drop_augment always leaves present

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

    def sample(self, rng: np.random.Generator) -> EulerPose:
        return EulerPose(
            yaw=float(rng.uniform(-self.yaw, self.yaw)),
            pitch=float(rng.uniform(-self.pitch, self.pitch)),
            roll=float(rng.uniform(-self.roll, self.roll)),
        )


@dataclass(frozen=True)
class Sample:
    """One labelled example: raw detections plus the true pose."""

    keypoints: KeypointSet
    pose: EulerPose


def project_head(pose: EulerPose) -> np.ndarray:
    """Rotate the canonical head and project to pixels, shape (5, 2)."""
    rotated = CANONICAL_HEAD @ rotation_matrix(pose).T
    return rotated[:, :2] * PIXELS_PER_UNIT


def generate_sample(
    pose: EulerPose,
    rng: np.random.Generator,
    noise: NoiseModel = NoiseModel(),
    occlusion_yaw: float = 60.0,
) -> Sample:
    points_2d = project_head(pose)
    sigma = noise.sigma(pose.yaw)
    if sigma > 0:
        points_2d = points_2d + rng.normal(0.0, sigma, size=points_2d.shape)
    hidden = set()
    if pose.yaw > occlusion_yaw:
        hidden.add(RIGHT_EAR)
    elif pose.yaw < -occlusion_yaw:
        hidden.add(LEFT_EAR)
    points = []
    for i in range(len(KEYPOINT_NAMES)):
        if i in hidden:
            points.append(Keypoint(0.0, 0.0, 0.0))
        else:
            conf = 1.0 - float(rng.uniform(0.0, 0.5))
            points.append(Keypoint(float(points_2d[i, 0]), float(points_2d[i, 1]), conf))
    return Sample(keypoints=KeypointSet(tuple(points)), pose=pose)


def drop_augment(sample: Sample, rng: np.random.Generator) -> Sample:
    """Zero the confidence of a random subset, keeping at least MIN_KEEP."""
    present = present_count(sample.keypoints)
    if present <= MIN_KEEP:
        return sample
    keep = int(rng.integers(MIN_KEEP, present))
    return Sample(
        keypoints=drop_keypoints(sample.keypoints, keep, rng), pose=sample.pose
    )


def generate_dataset(
    n: int,
    rng: np.random.Generator,
    noise: NoiseModel = NoiseModel(),
    pose_range: PoseRange = PoseRange(),
    occlusion_yaw: float = 60.0,
    drop_fraction: float = 0.0,
) -> list[Sample]:
    """n labelled samples; drop_fraction of them lose extra keypoints."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0.0 <= drop_fraction <= 1.0:
        raise ValueError("drop_fraction must be in [0, 1]")
    samples = []
    for _ in range(n):
        sample = generate_sample(
            pose_range.sample(rng), rng, noise=noise, occlusion_yaw=occlusion_yaw
        )
        if drop_fraction > 0.0 and rng.uniform() < drop_fraction:
            sample = drop_augment(sample, rng)
        samples.append(sample)
    return samples
