"""Gated keypoint network for head pose regression.

Three five-value input streams (horizontal coordinates, vertical
coordinates, confidences) each pass through a tiny same-padded conv.
The confidence stream, squashed by a sigmoid, gates the two coordinate
streams element-wise, so a low-confidence keypoint contributes little
regardless of where it sits. The gated features feed a three-layer
fully connected trunk and a linear head.

Head width follows the training objective: a heteroscedastic head emits
six values (three angles plus three log-variances), a plain squared-error
head emits the three angles, and the combined classification head emits
the three angles plus one row of bin logits per angle.

The fully connected widths scale with a single multiplier so the same
topology covers the full-size and reduced variants.
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


def scaled_width(base: int, multiplier: float) -> int:
    """Round half away from zero, never below one unit."""
    return max(1, int(math.floor(base * multiplier + 0.5)))


@dataclass(frozen=True)
class ModelConfig:
    loss_kind: str = "heteroscedastic"
    width_scale: float = 1.0
    n_filters: int = 5
    kernel_size: int = 1
    leaky_slope: float = 0.01
    n_bins: int = 66
    bin_width_degrees: float = 3.0
    init_variance: float = 0.05

    def __post_init__(self) -> None:
        if self.loss_kind not in LOSS_KINDS:
            raise ValueError(f"unknown loss kind {self.loss_kind!r}")
        if self.width_scale <= 0:
            raise ValueError("width_scale must be > 0")
        if self.n_filters < 1:
            raise ValueError("n_filters must be >= 1")
        if self.kernel_size % 2 != 1:
            raise ValueError("kernel_size must be odd (same padding)")
        if self.init_variance <= 0:
            raise ValueError("init_variance must be > 0")
        if self.loss_kind == "combined" and self.n_bins < 2:
            raise ValueError("combined head needs at least 2 bins")

    @property
    def fc_widths(self) -> tuple[int, int, int]:
        w0, w1, w2 = (scaled_width(b, self.width_scale) for b in FC_BASE)
        return (w0, w1, w2)

    @property
    def n_pose_outputs(self) -> int:
        return 6 if self.loss_kind == "heteroscedastic" else 3

    @property
    def n_aux_outputs(self) -> int:
        return 3 * self.n_bins if self.loss_kind == "combined" else 0

    def to_dict(self) -> dict:
        return {
            "loss_kind": self.loss_kind,
            "width_scale": self.width_scale,
            "n_filters": self.n_filters,
            "kernel_size": self.kernel_size,
            "leaky_slope": self.leaky_slope,
            "n_bins": self.n_bins,
            "bin_width_degrees": self.bin_width_degrees,
            "init_variance": self.init_variance,
        }

    @staticmethod
    def from_dict(d: dict) -> "ModelConfig":
        """Missing keys take defaults; unknown keys and bad values raise ValueError."""
        defaults = ModelConfig().to_dict()
        for key, value in d.items():
            if key not in defaults:
                raise ValueError(f"unknown key {key!r}")
            kind = type(defaults[key])
            allowed = (int, float) if kind is float else (kind,)  # type(True) is bool
            if type(value) not in allowed or (kind is float and not -math.inf < value < math.inf):
                raise ValueError(f"{key}={value!r} is not a valid {kind.__name__}")
        return ModelConfig(**d)


@dataclass(frozen=True)
class PoseEstimate:
    """A predicted pose, optionally with per-angle log-variances."""

    pose: EulerPose
    log_variance: np.ndarray | None = None

    @property
    def sigma_degrees(self) -> np.ndarray | None:
        if self.log_variance is None:
            return None
        return np.exp(0.5 * self.log_variance)


@dataclass(frozen=True)
class NetworkOutput:
    """Raw head tensors; values is (..., 3) or (..., 6), logits optional."""

    values: ad.Tensor
    logits: ad.Tensor | None = None


class Model:
    """Parameter store plus the forward pass. Build via Model.build()."""

    def __init__(self, config: ModelConfig, params: dict[str, ad.Tensor]):
        expected = [name for name, _ in parameter_layout(config)]
        if list(params.keys()) != expected:
            raise ValueError("parameter names do not match the layout")
        self.config = config
        self.params = params

    @staticmethod
    def build(config: ModelConfig, rng: np.random.Generator) -> "Model":
        std = math.sqrt(config.init_variance)
        params = {
            name: ad.Tensor(rng.normal(0.0, std, size=shape))
            for name, shape in parameter_layout(config)
        }
        return Model(config, params)

    def parameters(self) -> list[ad.Tensor]:
        return list(self.params.values())

    def n_parameters(self) -> int:
        return sum(t.data.size for t in self.params.values())

    def n_mult_adds(self) -> int:
        """Multiply-accumulate count of one forward pass.

        Conv taps and dense products only; the confidence gating products
        and all activation work are excluded.
        """
        cfg = self.config
        total = 3 * N_KEYPOINTS * cfg.kernel_size * cfg.n_filters
        w0, w1, w2 = cfg.fc_widths
        total += 2 * N_KEYPOINTS * cfg.n_filters * w0 + w0 * w1 + w1 * w2
        total += w2 * (cfg.n_pose_outputs + cfg.n_aux_outputs)
        return total

    def forward(self, x1: np.ndarray, x2: np.ndarray, c: np.ndarray) -> NetworkOutput:
        """Run the network on a batch; inputs are (B, 5) arrays.

        This one graph-building forward serves training and inference
        alike; a single sample is a batch of one.
        """
        p = self.params
        slope = self.config.leaky_slope
        a1 = ad.leaky_relu(ad.conv1d(ad.Tensor(x1), p["conv_x1_w"], p["conv_x1_b"]), slope)
        a2 = ad.leaky_relu(ad.conv1d(ad.Tensor(x2), p["conv_x2_w"], p["conv_x2_b"]), slope)
        gate = ad.sigmoid(ad.conv1d(ad.Tensor(c), p["conv_c_w"], p["conv_c_b"]))
        h = ad.concat([ad.flatten(ad.mul(a1, gate)), ad.flatten(ad.mul(a2, gate))])
        for i in range(3):
            h = ad.leaky_relu(ad.dense(h, p[f"fc{i}_w"], p[f"fc{i}_b"]), slope)
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

    def snapshot(self) -> dict[str, np.ndarray]:
        return {name: t.data.copy() for name, t in self.params.items()}

    def restore(self, snapshot: dict[str, np.ndarray]) -> None:
        for name, t in self.params.items():
            if name not in snapshot or snapshot[name].shape != t.data.shape:
                raise ValueError(f"snapshot does not match parameter {name}")
            t.data = snapshot[name].copy()


def parameter_layout(config: ModelConfig) -> list[tuple[str, tuple[int, ...]]]:
    """Canonical (name, shape) order; serialization relies on it."""
    k, nf = config.kernel_size, config.n_filters
    w0, w1, w2 = config.fc_widths
    layout: list[tuple[str, tuple[int, ...]]] = []
    for stream in ("x1", "x2", "c"):
        layout.append((f"conv_{stream}_w", (k, nf)))
        layout.append((f"conv_{stream}_b", (nf,)))
    trunk_in = 2 * N_KEYPOINTS * nf
    for i, (w_in, w_out) in enumerate(zip((trunk_in, w0, w1), (w0, w1, w2))):
        layout.append((f"fc{i}_w", (w_in, w_out)))
        layout.append((f"fc{i}_b", (w_out,)))
    layout.append(("head_w", (w2, config.n_pose_outputs)))
    layout.append(("head_b", (config.n_pose_outputs,)))
    if config.loss_kind == "combined":
        layout.append(("logits_w", (w2, config.n_aux_outputs)))
        layout.append(("logits_b", (config.n_aux_outputs,)))
    return layout
