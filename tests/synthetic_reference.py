"""Per-sample synthetic generator, the oracle for `synthetic.synthesize`.

It draws, rotates and projects one sample at a time: a scalar pose, a 3x3
rotation built from `math` trigonometry, five `Keypoint`s, then the drop
step on a `KeypointSet`. `synthesize` must make the same random draws in
the same order and give the same bytes as `dataset`'s packing of these
samples.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from headpose.formats import Dataset
from headpose.geometry import EulerPose
from headpose.keypoints import KEYPOINT_NAMES, N_KEYPOINTS, Keypoint, KeypointSet
from headpose.synthetic import (
    CANONICAL_HEAD,
    LEFT_EAR,
    MIN_KEEP,
    PIXELS_PER_UNIT,
    RIGHT_EAR,
    NoiseModel,
    PoseRange,
    Sample,
)


def rotation_matrix(pose: EulerPose) -> np.ndarray:
    """3x3 rotation for one pose, composed as R_pitch @ R_yaw @ R_roll."""
    y = math.radians(pose.yaw)
    p = math.radians(pose.pitch)
    r = math.radians(pose.roll)
    cy, sy = math.cos(y), math.sin(y)
    cp, sp = math.cos(p), math.sin(p)
    cr, sr = math.cos(r), math.sin(r)
    ryaw = np.array([[cy, 0.0, -sy], [0.0, 1.0, 0.0], [sy, 0.0, cy]])
    rpitch = np.array([[1.0, 0.0, 0.0], [0.0, cp, sp], [0.0, -sp, cp]])
    rroll = np.array([[cr, -sr, 0.0], [sr, cr, 0.0], [0.0, 0.0, 1.0]])
    return rpitch @ ryaw @ rroll


def project_head(pose: EulerPose) -> np.ndarray:
    """Rotate the canonical head and project to pixels, shape (5, 2)."""
    rotated = CANONICAL_HEAD @ rotation_matrix(pose).T
    return rotated[:, :2] * PIXELS_PER_UNIT


def sample_pose(pose_range: PoseRange, rng: np.random.Generator) -> EulerPose:
    return EulerPose(
        yaw=float(rng.uniform(-pose_range.yaw, pose_range.yaw)),
        pitch=float(rng.uniform(-pose_range.pitch, pose_range.pitch)),
        roll=float(rng.uniform(-pose_range.roll, pose_range.roll)),
    )


def present_count(kps: KeypointSet) -> int:
    """Number of points with confidence > 0."""
    return sum(1 for p in kps.points if p.c > 0.0)


def drop_keypoints(kps: KeypointSet, keep: int, rng: np.random.Generator) -> KeypointSet:
    """Zero confidences of randomly chosen present points, keeping `keep`."""
    present_idx = [i for i, p in enumerate(kps.points) if p.c > 0.0]
    if not 1 <= keep <= len(present_idx):
        raise ValueError(f"keep={keep} not in [1, {len(present_idx)}] present points")
    n_drop = len(present_idx) - keep
    dropped = set(rng.choice(present_idx, size=n_drop, replace=False).tolist())
    points = tuple(
        Keypoint(p.x1, p.x2, 0.0) if i in dropped else p for i, p in enumerate(kps.points)
    )
    return KeypointSet(points)


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
    samples = []
    for _ in range(n):
        sample = generate_sample(
            sample_pose(pose_range, rng), rng, noise=noise, occlusion_yaw=occlusion_yaw
        )
        if drop_fraction > 0.0 and rng.uniform() < drop_fraction:
            sample = drop_augment(sample, rng)
        samples.append(sample)
    return samples


def dataset(samples: Sequence[Sample]) -> Dataset:
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
