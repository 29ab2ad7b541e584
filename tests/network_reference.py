"""The network as a graph of general autodiff ops: the test oracle of
`Model.outputs` and the hand-derived `Model.backward`.

The seven ops below are the ones `headpose.autodiff` held before the
network moved to closed form, and `forward` is the graph the model built
from them; `Model` must match both bit for bit, in values and in
`flat_grad`. Element ops accept any shape; the structured ops (dense,
conv1d, flatten) take batches only, with the batch on the leading axis.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from headpose.autodiff import Parameter, Tensor
from headpose.model import LEAKY_SLOPE, Model


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Element-wise product; the gradient distributes to both operands."""
    if a.shape != b.shape:
        raise ValueError(f"mul: shape mismatch {a.shape} vs {b.shape}")
    return Tensor(a.data * b.data, (a, b), lambda g: (g * b.data, g * a.data))


def leaky_relu(a: Tensor, slope: float) -> Tensor:
    """max(x, slope*x); the derivative at exactly 0 takes the x>0 branch."""
    if slope <= 0:
        raise ValueError("leaky_relu slope must be > 0")
    factor = np.where(a.data >= 0.0, 1.0, slope)
    return Tensor(a.data * factor, (a,), lambda g: (g * factor,))


def sigmoid(a: Tensor) -> Tensor:
    # split by sign for overflow-free evaluation
    x = a.data
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return Tensor(out, (a,), lambda g: (g * out * (1.0 - out),))


def dense(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Affine map x @ w + b of a batch x (B, m), with w (m, k) and bias (k,)."""
    if w.data.ndim != 2 or b.data.ndim != 1 or w.shape[1] != b.shape[0]:
        raise ValueError(f"dense: bad weight/bias shapes {w.shape}, {b.shape}")
    if x.data.ndim != 2 or x.shape[1] != w.shape[0]:
        raise ValueError(f"dense: input {x.shape} does not match weights {w.shape}")
    out = x.data @ w.data + b.data

    def vjp(g):
        return g @ w.data.T, x.data.T @ g, g.sum(axis=0)

    return Tensor(out, (x, w, b), vjp)


def conv1d(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Width-1 conv, a per-position affine map, of single-channel sequences.

    x: (B, n); w: (1, F); b: (F,). Output (B, n, F):
    out[b, i, f] = x[b, i] * w[0, f] + b[f]. Wider kernels are refused.
    """
    if w.data.ndim != 2 or w.shape[0] != 1:
        raise ValueError(f"conv1d supports width-1 kernels only, got weights {w.shape}")
    nf = w.shape[1]
    if b.shape != (nf,):
        raise ValueError(f"conv1d bias shape {b.shape} != ({nf},)")
    if x.data.ndim != 2:
        raise ValueError(f"conv1d expects a (B, n) batch, got {x.shape}")
    column = x.data[:, :, None]
    out = column * w.data[0] + b.data  # (B, n, F)

    def vjp(g):
        gw = np.tensordot(column, g, axes=([0, 1], [0, 1]))  # (1, F)
        return g @ w.data[0], gw, g.sum(axis=(0, 1))

    return Tensor(out, (x, w, b), vjp)


def flatten(a: Tensor) -> Tensor:
    """Collapse everything but the leading batch axis; B may be 0."""
    if a.data.ndim < 2:
        raise ValueError(f"flatten expects a batch, got {a.shape}")
    out = a.data.reshape(a.shape[0], int(np.prod(a.shape[1:])))
    return Tensor(out, (a,), lambda g: (g.reshape(a.shape),))


def concat(parts: Sequence[Tensor]) -> Tensor:
    """Concatenate along the last axis."""
    if not parts:
        raise ValueError("concat of nothing")
    out = np.concatenate([p.data for p in parts], axis=-1)
    widths = [p.shape[-1] for p in parts]
    edges = np.cumsum([0] + widths)

    def vjp(g):
        return tuple(g[..., edges[i] : edges[i + 1]] for i in range(len(parts)))

    return Tensor(out, tuple(parts), vjp)


def forward(model: Model, x1: np.ndarray, x2: np.ndarray, c: np.ndarray) -> Tensor:
    """The model's (B, n_outputs) head output as the op graph; backward()
    adds into flat_grad.

    Each parameter is a leaf over the model's views of it in `flat` and
    `flat_grad`.
    """
    p = {name: Parameter(model.params[name], model.grads[name]) for name in model.params}
    a1 = leaky_relu(conv1d(Tensor(x1), p["conv_x1_w"], p["conv_x1_b"]), LEAKY_SLOPE)
    a2 = leaky_relu(conv1d(Tensor(x2), p["conv_x2_w"], p["conv_x2_b"]), LEAKY_SLOPE)
    gate = sigmoid(conv1d(Tensor(c), p["conv_c_w"], p["conv_c_b"]))
    h = concat([flatten(mul(a1, gate)), flatten(mul(a2, gate))])
    for i in range(3):
        h = leaky_relu(dense(h, p[f"fc{i}_w"], p[f"fc{i}_b"]), LEAKY_SLOPE)
    return dense(h, p["head_w"], p["head_b"])
