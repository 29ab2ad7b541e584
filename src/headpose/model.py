"""Gated keypoint network for head pose regression.

Three five-value input streams (horizontal coordinates, vertical
coordinates, confidences) each pass through a width-1 conv, a
per-position affine map. The confidence stream, squashed by a sigmoid,
gates the two coordinate streams element-wise, so a low-confidence
keypoint contributes little regardless of where it sits. The gated
features feed a three-layer fully connected trunk and a linear head.

The one linear head's width follows the training objective, and the loss
kind alone says what each column means: a heteroscedastic head emits six
values (three angles, then three log-variances), a plain squared-error
head the three angles, and a combined head the three angles, then one row
of bin logits per angle.

The fully connected widths scale with a single multiplier so the same
topology covers the full-size and reduced variants. The loss kind and
that multiplier are the only settings; the rest of the architecture is
the module constants below.

The forward and backward passes are numpy on arrays. Inference keeps no
activation; training hands `outputs` a tape and gives `backward` the loss
gradient of the head's output, and `backward` writes every parameter's
gradient into its slice of the flat gradient vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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
    def n_outputs(self) -> int:
        """The head's width: angles, then log-variances or bin logits."""
        return {"heteroscedastic": 6, "mse": 3, "combined": 3 + 3 * N_BINS}[self.loss_kind]

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


# The layers of Model.outputs. Each keeps the expression of the graph op it
# replaced (tests/network_reference.py), so outputs match it bit for bit.


def _conv(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Width-1 conv of (B, n) sequences: out[b, i, f] = x[b, i] * w[0, f] + b[f]."""
    z = x[:, :, None] * w[0]
    z += b
    return z


def _dense(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    z = x @ w
    z += b
    return z


def _leaky_relu(z: np.ndarray, tape: list | None) -> np.ndarray:
    """max(z, slope * z) in place, which is z * (1 if z >= 0 else slope) bit
    for bit; a tape keeps the z >= 0 mask, as the derivative at 0 is 1."""
    if tape is not None:
        tape.append(z >= 0.0)
    return np.maximum(z, z * LEAKY_SLOPE, out=z)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """In place, split by sign for overflow-free evaluation."""
    pos = x >= 0
    neg = ~pos
    ex = np.exp(x[neg])
    x[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    x[neg] = ex / (1.0 + ex)
    return x


class Model:
    """Parameters plus the forward and backward passes. Build via Model.build().

    `flat` holds every parameter and `flat_grad` every gradient; `params`
    and `grads` map each name to an array viewing its slice of one of them,
    in parameter_layout order."""

    def __init__(self, config: ModelConfig, flat: np.ndarray):
        self._layout = parameter_layout(config)
        self.offsets = np.cumsum([0] + [math.prod(shape) for _, shape in self._layout])
        if not isinstance(flat, np.ndarray) or flat.shape != (self.offsets[-1],):
            raise ValueError(f"expected a vector of {self.offsets[-1]} parameters")
        self.config = config
        self.flat = np.ascontiguousarray(flat, dtype=np.float64)
        self.flat_grad = np.zeros(self.flat.size)  # calloc: untouched pages until a backward
        self.params = self._views(self.flat)
        self.grads = self._views(self.flat_grad)

    def _views(self, vector: np.ndarray) -> dict[str, np.ndarray]:
        return {name: vector[lo:hi].reshape(shape)
                for (name, shape), lo, hi in zip(self._layout, self.offsets[:-1], self.offsets[1:])}

    @staticmethod
    def build(config: ModelConfig, rng: np.random.Generator) -> "Model":
        size = sum(math.prod(shape) for _, shape in parameter_layout(config))
        return Model(config, rng.normal(0.0, math.sqrt(INIT_VARIANCE), size=size))

    def parameter_at(self, index: int) -> str:
        """Name of the parameter holding element `index` of the flat vector."""
        return self._layout[int(np.searchsorted(self.offsets, index, side="right")) - 1][0]

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
        total += w2 * cfg.n_outputs
        return total

    def outputs(
        self, x1: np.ndarray, x2: np.ndarray, c: np.ndarray, tape: list | None = None
    ) -> np.ndarray:
        """The (B, n_outputs) head output of a (B, 5) batch. A single sample
        is a batch of one.

        This is the one forward pass. Every layer applies its bias and
        activation in place and drops its input, so without a tape nothing
        but the output outlives the call. Given a list as tape, it receives
        the activations and leaky-ReLU masks that `backward` reads.
        """
        if x1.ndim != 2 or x1.shape[1] != N_KEYPOINTS or not x1.shape == x2.shape == c.shape:
            raise ValueError(
                f"expected three (B, {N_KEYPOINTS}) batches, got {x1.shape}, {x2.shape}, {c.shape}")
        p = self.params
        a1 = _leaky_relu(_conv(x1, p["conv_x1_w"], p["conv_x1_b"]), tape)
        a2 = _leaky_relu(_conv(x2, p["conv_x2_w"], p["conv_x2_b"]), tape)
        gate = _sigmoid(_conv(c, p["conv_c_w"], p["conv_c_b"]))
        h = np.empty((len(x1), 2, N_KEYPOINTS, N_FILTERS))
        np.multiply(a1, gate, out=h[:, 0])
        np.multiply(a2, gate, out=h[:, 1])
        h = h.reshape(len(x1), 2 * N_KEYPOINTS * N_FILTERS)  # both gated streams, flattened
        if tape is not None:
            tape += [x1, x2, c, a1, a2, gate]
        del a1, a2, gate
        for i in range(3):
            if tape is not None:
                tape.append(h)
            h = _leaky_relu(_dense(h, p[f"fc{i}_w"], p[f"fc{i}_b"]), tape)
        if tape is not None:
            tape.append(h)
        return _dense(h, p["head_w"], p["head_b"])

    def backward(self, tape: list, g_out: np.ndarray) -> None:
        """Reverse pass of `outputs` from the loss gradient of its output;
        writes each parameter's gradient over its slice of flat_grad, once,
        as each parameter is used once.

        Each step is the expression the graph op of that layer used, so
        the gradients equal the op graph's (tests/network_reference.py) bit
        for bit but for the sign of an exact zero; the gate, the only value
        used twice, sums its two contributions, and IEEE addition is
        commutative.
        """
        p, grad = self.params, self.grads
        # in forward order: the conv streams' masks, the inputs, the conv
        # activations and the gate, then each fc layer's input and mask, then
        # the trunk output
        m1, m2, x1, x2, c, a1, a2, gate, *trunk = tape
        h = trunk[-1]
        g_h = g_out @ p["head_w"].T
        np.matmul(h.T, g_out, out=grad["head_w"])
        g_out.sum(axis=0, out=grad["head_b"])
        for i in (2, 1, 0):
            h, mask = trunk[2 * i], trunk[2 * i + 1]
            g_z = g_h * np.where(mask, 1.0, LEAKY_SLOPE)
            np.matmul(h.T, g_z, out=grad[f"fc{i}_w"])
            g_z.sum(axis=0, out=grad[f"fc{i}_b"])
            g_h = g_z @ p[f"fc{i}_w"].T
        g_h = g_h.reshape(len(g_h), 2, N_KEYPOINTS, N_FILTERS)
        g_a1, g_a2 = g_h[:, 0], g_h[:, 1]
        g_gate = g_a1 * a1 + g_a2 * a2
        for stream, x, g_z in (
            ("x1", x1, g_a1 * gate * np.where(m1, 1.0, LEAKY_SLOPE)),
            ("x2", x2, g_a2 * gate * np.where(m2, 1.0, LEAKY_SLOPE)),
            ("c", c, g_gate * gate * (1.0 - gate)),
        ):
            grad[f"conv_{stream}_w"][...] = np.tensordot(x[:, :, None], g_z,
                                                         axes=([0, 1], [0, 1]))
            g_z.sum(axis=(0, 1), out=grad[f"conv_{stream}_b"])

    def predict(self, inputs: NormalizedInput) -> PoseEstimate:
        """One sample's estimate: predict_batch on a batch of one row."""
        angles, log_var = self.predict_batch(inputs.x1[None], inputs.x2[None], inputs.c[None])
        pose = EulerPose(float(angles[0, 0]), float(angles[0, 1]), float(angles[0, 2]))
        return PoseEstimate(pose=pose, log_variance=None if log_var is None else log_var[0])

    def predict_batch(
        self, x1: np.ndarray, x2: np.ndarray, c: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """Angles (B, 3) and, for a heteroscedastic head, log-variances (B, 3)."""
        out = self.outputs(x1, x2, c)
        log_var = out[:, 3:6].copy() if self.config.loss_kind == "heteroscedastic" else None
        return out[:, :3].copy(), log_var

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
    layout.append(("head_w", (w2, config.n_outputs)))
    layout.append(("head_b", (config.n_outputs,)))
    return layout
