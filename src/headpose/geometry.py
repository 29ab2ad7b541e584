"""Euler-angle conventions, image-plane projection and angular error metrics.

Conventions used throughout the package:

* Angles are stored in degrees; trigonometry converts internally.
* Image frame: x grows to the right, y grows downward, z into the screen.
  At zero pose the head faces the camera, i.e. forward = (0, 0, -1).
* Positive yaw turns the face toward +x (screen right), positive pitch
  looks up (-y on screen), roll rotates in the image plane.
* Rotations compose pitch-outermost: R = R_pitch @ R_yaw @ R_roll. This is
  the unique Tait-Bryan order under which the forward vector projects onto
  the image plane as (sin yaw, -cos yaw * sin pitch), which is the
  projection used by the mutual-gaze geometry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np


@dataclass(frozen=True)
class EulerPose:
    """Head orientation as Tait-Bryan angles in degrees."""

    yaw: float
    pitch: float
    roll: float


class PlaneVector(NamedTuple):
    """Direction on the image plane; y grows downward."""

    x: float
    y: float


def project_direction(pose: EulerPose) -> PlaneVector:
    """Project the head direction onto the image plane.

    Returns (sin yaw, -cos yaw * sin pitch). Roll never enters: it rotates
    the head about the very axis being projected. The output magnitude is
    at most 1.
    """
    y = math.radians(pose.yaw)
    p = math.radians(pose.pitch)
    return PlaneVector(math.sin(y), -math.cos(y) * math.sin(p))


def rotation_matrix(pose: EulerPose) -> np.ndarray:
    """3x3 rotation for a pose, composed as R_pitch @ R_yaw @ R_roll.

    Orthonormal with determinant +1. The rotated forward vector
    R @ (0, 0, -1) has image-plane components equal to
    project_direction(pose).
    """
    y = math.radians(pose.yaw)
    p = math.radians(pose.pitch)
    r = math.radians(pose.roll)
    cy, sy = math.cos(y), math.sin(y)
    cp, sp = math.cos(p), math.sin(p)
    cr, sr = math.cos(r), math.sin(r)
    # yaw about the vertical (y-down) axis: +yaw sends forward toward +x
    ryaw = np.array([[cy, 0.0, -sy], [0.0, 1.0, 0.0], [sy, 0.0, cy]])
    # pitch about the lateral axis: +pitch sends forward toward -y (up)
    rpitch = np.array([[1.0, 0.0, 0.0], [0.0, cp, sp], [0.0, -sp, cp]])
    rroll = np.array([[cr, -sr, 0.0], [sr, cr, 0.0], [0.0, 0.0, 1.0]])
    return rpitch @ ryaw @ rroll


FORWARD = np.array([0.0, 0.0, -1.0])


def angular_error(pred: EulerPose, gt: EulerPose) -> tuple[float, float, float]:
    """Per-angle absolute error in degrees, plain difference (no wraparound).

    Benchmark poses stay within +/-99 degrees, where plain absolute
    difference is the reported metric; wrapping would silently shrink
    large errors.
    """
    return (
        abs(pred.yaw - gt.yaw),
        abs(pred.pitch - gt.pitch),
        abs(pred.roll - gt.roll),
    )


def mae(
    errors: Sequence[tuple[float, float, float]] | np.ndarray,
) -> tuple[float, float, float, float]:
    """Mean absolute error per angle plus the overall mean of the three.

    Raises ValueError on an empty error list.
    """
    arr = np.asarray(errors, dtype=np.float64)
    if arr.size == 0:
        raise ValueError("mae() of an empty error list")
    if arr.ndim != 2 or arr.shape[1] != 3:
        raise ValueError(f"expected (n, 3) errors, got shape {arr.shape}")
    per_angle = arr.mean(axis=0)
    return (*per_angle.tolist(), float(per_angle.mean()))
