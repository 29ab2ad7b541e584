"""Head pose from five facial keypoints, with per-angle uncertainty.

A small gated network regresses yaw/pitch/roll and a log-variance per
angle from normalized keypoint coordinates and confidences. The
uncertainty feeds a mutual-gaze (LAEO) detector that discards unreliable
heads. Everything runs on numpy with an in-package autodiff; see the
README for the CLI walk-through.
"""

from __future__ import annotations

from .formats import Dataset
from .geometry import EulerPose, PlaneVector, angular_error, mae, project_direction
from .keypoints import Keypoint, KeypointSet, NormalizedInput, normalize
from .model import Model, ModelConfig, PoseEstimate
from .synthetic import NoiseModel, PoseRange, Sample, generate_dataset, generate_sample
from .training import TrainConfig, TrainHistory, train

__version__ = "0.1.0"

__all__ = [
    "Dataset",
    "EulerPose",
    "Keypoint",
    "KeypointSet",
    "Model",
    "ModelConfig",
    "NoiseModel",
    "NormalizedInput",
    "PlaneVector",
    "PoseEstimate",
    "PoseRange",
    "Sample",
    "TrainConfig",
    "TrainHistory",
    "angular_error",
    "generate_dataset",
    "generate_sample",
    "mae",
    "normalize",
    "project_direction",
    "train",
    "__version__",
]
