"""Gated keypoint network for head pose regression.

Three five-value input streams (horizontal coordinates, vertical
coordinates, confidences) each pass through a width-1 conv, a
per-position affine map. The confidence stream, squashed by a sigmoid,
gates the two coordinate streams element-wise, so a low-confidence
keypoint contributes little regardless of where it sits. The gated
features feed a three-layer fully connected trunk and a linear head.

Head width follows the training objective: a heteroscedastic head emits
six values (three angles plus three log-variances), a plain squared-error
head emits the three angles, and the combined classification head emits
the three angles plus one row of bin logits per angle.

The fully connected widths scale with a single multiplier so the same
topology covers the full-size and reduced variants. The loss kind and
that multiplier are the only settings; the rest of the architecture is
the module constants below.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .geometry import EulerPose
from .keypoints import N_KEYPOINTS, NormalizedInput

LOSS_KINDS = ("heteroscedastic", "mse", "combined")

FC_BASE = (250, 200, 150)
# Widest fully connected layer a config may ask for: width_scale 16 gives
# 4,000 units and about 21M parameters, while width_scale 1,000 would ask
# for about 8e10 and 1e308 for widths beyond any integer.
MAX_FC_WIDTH = 4096
N_FILTERS = 5  # per conv stream
LEAKY_SLOPE = 0.01
N_BINS = 66  # per angle, for the combined head
BIN_WIDTH_DEGREES = 3.0
INIT_VARIANCE = 0.05  # of the normal every parameter starts from

# The fixed architecture as model files record it, in header order; the
# conv is per-position, so its kernel size is 1.
FIXED_CONFIG = {
    "n_filters": N_FILTERS,
    "kernel_size": 1,
    "leaky_slope": LEAKY_SLOPE,
    "n_bins": N_BINS,
    "bin_width_degrees": BIN_WIDTH_DEGREES,
    "init_variance": INIT_VARIANCE,
}


def scaled_width(base: int, multiplier: float) -> int:
    """Round half away from zero, never below one unit."""
    return max(1, int(math.floor(base * multiplier + 0.5)))


@dataclass(frozen=True)
class ModelConfig:
    loss_kind: str = "heteroscedastic"
    width_scale: float = 1.0

    def __post_init__(self) -> None:
        if self.loss_kind not in LOSS_KINDS:
            raise ValueError(f"unknown loss kind {self.loss_kind!r}")
        if self.width_scale <= 0:
            raise ValueError("width_scale must be > 0")
        # compared as a scale first, so that no width is computed from a huge or NaN one
        too_wide = not self.width_scale * max(FC_BASE) < MAX_FC_WIDTH + 1
        if too_wide or max(self.fc_widths) > MAX_FC_WIDTH:
            raise ValueError(
                f"width_scale {self.width_scale} makes a layer wider than {MAX_FC_WIDTH} units")

    @property
    def fc_widths(self) -> tuple[int, int, int]:
        w0, w1, w2 = (scaled_width(b, self.width_scale) for b in FC_BASE)
        return (w0, w1, w2)

    @property
    def n_pose_outputs(self) -> int:
        return 6 if self.loss_kind == "heteroscedastic" else 3

    @property
    def n_aux_outputs(self) -> int:
        return 3 * N_BINS if self.loss_kind == "combined" else 0

    def to_dict(self) -> dict:
        return {"loss_kind": self.loss_kind, "width_scale": self.width_scale, **FIXED_CONFIG}

    @staticmethod
    def from_dict(d: dict) -> "ModelConfig":
        """Missing keys take defaults; unknown keys, bad values and a fixed
        key that does not hold its constant raise ValueError."""
        defaults = ModelConfig().to_dict()
        for key, value in d.items():
            if key not in defaults:
                raise ValueError(f"unknown key {key!r}")
            kind = type(defaults[key])
            allowed = (int, float) if kind is float else (kind,)  # type(True) is bool
            if type(value) not in allowed or (kind is float and not -math.inf < value < math.inf):
                raise ValueError(f"{key}={value!r} is not a valid {kind.__name__}")
            if key in FIXED_CONFIG and value != FIXED_CONFIG[key]:
                raise ValueError(f"{key} must be {FIXED_CONFIG[key]}, got {value}")
        return ModelConfig(**{k: v for k, v in d.items() if k not in FIXED_CONFIG})


@dataclass(frozen=True)
class PoseEstimate:
    """A predicted pose, optionally with per-angle log-variances."""

    pose: EulerPose
    log_variance: np.ndarray | None = None


@dataclass(frozen=True)
class NetworkOutput:
    """Raw head tensors; values is (..., 3) or (..., 6), logits optional."""

    values: ad.Tensor
    logits: ad.Tensor | None = None


class Model:
    """Parameter store plus the forward pass. Build via Model.build().

    `flat` holds every parameter and `flat_grad` every gradient; each tensor
    in `params` views its slice of both, in parameter_layout order."""

    def __init__(self, config: ModelConfig, flat: np.ndarray):
        self._layout = parameter_layout(config)
        self.offsets = np.cumsum([0] + [math.prod(shape) for _, shape in self._layout])
        if not isinstance(flat, np.ndarray) or flat.shape != (self.offsets[-1],):
            raise ValueError(f"expected a vector of {self.offsets[-1]} parameters")
        self.config = config
        self.flat = np.ascontiguousarray(flat, dtype=np.float64)
        self.flat_grad = np.zeros(self.flat.size)  # calloc: untouched pages until a backward
        self.params = {
            name: ad.Parameter(self.flat[lo:hi].reshape(shape),
                               self.flat_grad[lo:hi].reshape(shape))
            for (name, shape), lo, hi in zip(self._layout, self.offsets[:-1], self.offsets[1:])
        }

    @staticmethod
    def build(config: ModelConfig, rng: np.random.Generator) -> "Model":
        size = sum(math.prod(shape) for _, shape in parameter_layout(config))
        return Model(config, rng.normal(0.0, math.sqrt(INIT_VARIANCE), size=size))

    def parameter_at(self, index: int) -> str:
        """Name of the parameter holding element `index` of the flat vector."""
        return self._layout[int(np.searchsorted(self.offsets, index, side="right")) - 1][0]

    def parameters(self) -> list[ad.Tensor]:
        return list(self.params.values())

    def n_parameters(self) -> int:
        return self.flat.size

    def n_mult_adds(self) -> int:
        """Multiply-accumulate count of one forward pass.

        Conv taps and dense products only; the confidence gating products
        and all activation work are excluded.
        """
        cfg = self.config
        total = 3 * N_KEYPOINTS * N_FILTERS
        w0, w1, w2 = cfg.fc_widths
        total += 2 * N_KEYPOINTS * N_FILTERS * w0 + w0 * w1 + w1 * w2
        total += w2 * (cfg.n_pose_outputs + cfg.n_aux_outputs)
        return total

    def forward(self, x1: np.ndarray, x2: np.ndarray, c: np.ndarray) -> NetworkOutput:
        """Run the network on a batch; inputs are (B, 5) arrays.

        This one graph-building forward serves training and inference
        alike; a single sample is a batch of one.
        """
        p = self.params
        a1 = ad.leaky_relu(ad.conv1d(ad.Tensor(x1), p["conv_x1_w"], p["conv_x1_b"]), LEAKY_SLOPE)
        a2 = ad.leaky_relu(ad.conv1d(ad.Tensor(x2), p["conv_x2_w"], p["conv_x2_b"]), LEAKY_SLOPE)
        gate = ad.sigmoid(ad.conv1d(ad.Tensor(c), p["conv_c_w"], p["conv_c_b"]))
        h = ad.concat([ad.flatten(ad.mul(a1, gate)), ad.flatten(ad.mul(a2, gate))])
        for i in range(3):
            h = ad.leaky_relu(ad.dense(h, p[f"fc{i}_w"], p[f"fc{i}_b"]), LEAKY_SLOPE)
        values = ad.dense(h, p["head_w"], p["head_b"])
        logits = None
        if self.config.loss_kind == "combined":
            logits = ad.dense(h, p["logits_w"], p["logits_b"])
        return NetworkOutput(values=values, logits=logits)

    def predict(self, inputs: NormalizedInput) -> PoseEstimate:
        """One sample's estimate: predict_batch on a batch of one row."""
        angles, log_var = self.predict_batch(inputs.x1[None], inputs.x2[None], inputs.c[None])
        pose = EulerPose(float(angles[0, 0]), float(angles[0, 1]), float(angles[0, 2]))
        return PoseEstimate(pose=pose, log_variance=None if log_var is None else log_var[0])

    def predict_batch(
        self, x1: np.ndarray, x2: np.ndarray, c: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """Angles (B, 3) and, for a heteroscedastic head, log-variances (B, 3)."""
        out = self.forward(x1, x2, c).values.data
        if self.config.loss_kind == "heteroscedastic":
            return out[:, :3].copy(), out[:, 3:6].copy()
        return out.copy(), None

    def snapshot(self) -> np.ndarray:
        """A copy of the flat parameter vector."""
        return self.flat.copy()

    def restore(self, snapshot: np.ndarray) -> None:
        """Copy a snapshot back into the flat vector, under every view."""
        if snapshot.shape != self.flat.shape:
            raise ValueError(
                f"snapshot of shape {snapshot.shape} does not match {self.flat.size} parameters"
            )
        self.flat[...] = snapshot


def parameter_layout(config: ModelConfig) -> list[tuple[str, tuple[int, ...]]]:
    """Canonical (name, shape) order; serialization relies on it."""
    w0, w1, w2 = config.fc_widths
    layout: list[tuple[str, tuple[int, ...]]] = []
    for stream in ("x1", "x2", "c"):
        layout.append((f"conv_{stream}_w", (1, N_FILTERS)))  # width-1 kernel
        layout.append((f"conv_{stream}_b", (N_FILTERS,)))
    trunk_in = 2 * N_KEYPOINTS * N_FILTERS
    for i, (w_in, w_out) in enumerate(zip((trunk_in, w0, w1), (w0, w1, w2))):
        layout.append((f"fc{i}_w", (w_in, w_out)))
        layout.append((f"fc{i}_b", (w_out,)))
    layout.append(("head_w", (w2, config.n_pose_outputs)))
    layout.append(("head_b", (config.n_pose_outputs,)))
    if config.loss_kind == "combined":
        layout.append(("logits_w", (w2, config.n_aux_outputs)))
        layout.append(("logits_b", (config.n_aux_outputs,)))
    return layout
