"""Head pose from five facial keypoints, with per-angle uncertainty.

A small gated network regresses yaw/pitch/roll and a log-variance per
angle from normalized keypoint coordinates and confidences. The
uncertainty feeds a mutual-gaze (LAEO) detector that discards unreliable
heads. Everything runs on numpy: the network's forward and backward
passes and each loss are in closed form with hand-derived gradients,
linked during training by a small in-package autodiff; see the README
for the CLI walk-through.

The names below resolve on first use (PEP 562), so importing the package,
or one command of its CLI, loads only the modules that are run.
"""

from __future__ import annotations

import importlib

__version__ = "0.1.0"

# exported name -> the module that defines it
_EXPORTS = {
    "Dataset": "formats",
    "EulerPose": "geometry",
    "Keypoint": "keypoints",
    "KeypointSet": "keypoints",
    "Model": "model",
    "ModelConfig": "model",
    "NoiseModel": "synthetic",
    "NormalizedInput": "keypoints",
    "PlaneVector": "geometry",
    "PoseEstimate": "model",
    "PoseRange": "synthetic",
    "Sample": "synthetic",
    "TrainConfig": "training",
    "TrainHistory": "training",
    "angular_error": "geometry",
    "generate_dataset": "synthetic",
    "mae": "geometry",
    "normalize": "keypoints",
    "project_direction": "geometry",
    "synthesize": "synthetic",
    "train": "training",
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
