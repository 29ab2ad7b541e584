"""The image-plane projection of one pose, in scalar math: the oracle of
`headpose.laeo._gazes` and of the rotated forward vector of
`headpose.geometry.rotation_matrix`.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from headpose.geometry import EulerPose


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
