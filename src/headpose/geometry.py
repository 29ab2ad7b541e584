"""Euler-angle conventions, rotation matrices and the angular error metric.

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

from dataclasses import dataclass
from typing import Sequence

import numpy as np


@dataclass(frozen=True)
class EulerPose:
    """Head orientation as Tait-Bryan angles in degrees."""

    yaw: float
    pitch: float
    roll: float


def rotation_matrix(poses: np.ndarray) -> np.ndarray:
    """Rotations for (..., 3) poses in degrees, (..., 3, 3), each R_pitch @ R_yaw @ R_roll.

    Orthonormal with determinant +1. The rotated forward vector
    R @ (0, 0, -1) has image-plane components
    (sin yaw, -cos yaw * sin pitch).
    """
    y, p, r = np.radians(np.moveaxis(np.asarray(poses, dtype=np.float64), -1, 0))
    cy, sy = np.cos(y), np.sin(y)
    cp, sp = np.cos(p), np.sin(p)
    cr, sr = np.cos(r), np.sin(r)
    zero, one = np.zeros_like(y), np.ones_like(y)

    def stack(*rows: np.ndarray) -> np.ndarray:
        return np.stack(rows, axis=-1).reshape(*y.shape, 3, 3)

    # yaw about the vertical (y-down) axis: +yaw sends forward toward +x
    ryaw = stack(cy, zero, -sy, zero, one, zero, sy, zero, cy)
    # pitch about the lateral axis: +pitch sends forward toward -y (up)
    rpitch = stack(one, zero, zero, zero, cp, sp, zero, -sp, cp)
    rroll = stack(cr, -sr, zero, sr, cr, zero, zero, zero, one)
    return rpitch @ ryaw @ rroll


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
