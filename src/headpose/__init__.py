"""Head pose from five facial keypoints, with per-angle uncertainty.

A small gated network regresses yaw/pitch/roll and a log-variance per
angle from normalized keypoint coordinates and confidences. The
uncertainty feeds a mutual-gaze (LAEO) detector that discards unreliable
heads. Everything runs on numpy: the network's forward and backward
passes and each loss are in closed form with hand-derived gradients, and
a training step chains them directly; see the README for the CLI
walk-through.

The package exports only names from `formats` and `keypoints`, which every
CLI command loads, so `import headpose` loads no other module. Every other
name is imported from its own module, such as `headpose.model`.
"""

from .formats import Dataset
from .keypoints import Keypoint, KeypointSet, NormalizedInput, normalize

__version__ = "0.1.0"

__all__ = ["Dataset", "Keypoint", "KeypointSet", "NormalizedInput", "normalize", "__version__"]
