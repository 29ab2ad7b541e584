"""Minimal reverse-mode automatic differentiation over dense float64 arrays.

Just enough machinery to express the gated keypoint network and its
losses: each operation builds a node holding its parents and a closure
producing the parents' gradient contributions; backward() walks the graph
once in reverse topological order. Element ops accept any shape; the
structured ops (dense, conv1d, flatten) take batches only, with the batch
on the leading axis, so a single sample is a batch of one.

Everything is float64 and deterministic: identical inputs and parameters
yield bit-identical outputs.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np


class Tensor:
    """A float64 ndarray plus the bookkeeping needed for backward()."""

    __slots__ = ("data", "grad", "_parents", "_vjp")

    def __init__(
        self,
        data,
        parents: tuple["Tensor", ...] = (),
        vjp: Callable[[np.ndarray], tuple[np.ndarray, ...]] | None = None,
    ):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self._parents = parents
        self._vjp = vjp

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self) -> None:
        """Accumulate gradients of this scalar into every reachable tensor."""
        if self.data.size != 1:
            raise ValueError(f"backward() needs a scalar, got shape {self.shape}")
        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(order):
            if node._vjp is None or node.grad is None:
                continue
            for parent, contrib in zip(node._parents, node._vjp(node.grad)):
                if parent.grad is None:
                    parent.grad = contrib.copy()
                else:
                    parent.grad += contrib

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape})"


def _require_same_shape(a: Tensor, b: Tensor, op: str) -> None:
    if a.shape != b.shape:
        raise ValueError(f"{op}: shape mismatch {a.shape} vs {b.shape}")


def add(a: Tensor, b: Tensor) -> Tensor:
    _require_same_shape(a, b, "add")
    return Tensor(a.data + b.data, (a, b), lambda g: (g, g))


def sub(a: Tensor, b: Tensor) -> Tensor:
    _require_same_shape(a, b, "sub")
    return Tensor(a.data - b.data, (a, b), lambda g: (g, -g))


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Element-wise product; the gradient distributes to both operands."""
    _require_same_shape(a, b, "mul")
    return Tensor(a.data * b.data, (a, b), lambda g: (g * b.data, g * a.data))


def neg(a: Tensor) -> Tensor:
    return Tensor(-a.data, (a,), lambda g: (-g,))


def scale(a: Tensor, k: float) -> Tensor:
    """Multiply by a constant scalar (no gradient flows to k)."""
    return Tensor(a.data * k, (a,), lambda g: (g * k,))


def exp(a: Tensor) -> Tensor:
    out = np.exp(a.data)
    return Tensor(out, (a,), lambda g: (g * out,))


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


def tsum(a: Tensor) -> Tensor:
    """Sum every element into a scalar."""
    return Tensor(a.data.sum(), (a,), lambda g: (np.broadcast_to(g, a.shape).copy(),))


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
    """Same-padded 1-D cross-correlation of a batch of single-channel sequences.

    x: (B, n); w: (k, F) with k odd; b: (F,). Output (B, n, F):
    out[b, i, f] = sum_j w[j, f] * x_padded[b, i + j] + b[f].
    """
    k, nf = w.shape
    if k % 2 != 1:
        raise ValueError(f"conv1d kernel must be odd for same padding, got {k}")
    if b.shape != (nf,):
        raise ValueError(f"conv1d bias shape {b.shape} != ({nf},)")
    if x.data.ndim != 2:
        raise ValueError(f"conv1d expects a (B, n) batch, got {x.shape}")
    n = x.shape[1]
    if k > n:
        raise ValueError(f"conv1d kernel {k} longer than input {n}")
    pad = k // 2
    xpad = np.pad(x.data, ((0, 0), (pad, pad)))
    # windows[b, i, j] = xpad[b, i + j]
    windows = np.lib.stride_tricks.sliding_window_view(xpad, k, axis=1)
    out = windows @ w.data + b.data  # (B, n, F)

    def vjp(g):
        gw = np.tensordot(windows, g, axes=([0, 1], [0, 1]))  # (k, F)
        gxpad = np.zeros_like(xpad)
        for j in range(k):
            gxpad[:, j : j + n] += g @ w.data[j]
        return gxpad[:, pad : pad + n], gw, g.sum(axis=(0, 1))

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


def slice_last(a: Tensor, start: int, stop: int) -> Tensor:
    """Slice along the last axis; the gradient scatters back zero-padded."""
    out = a.data[..., start:stop]

    def vjp(g):
        full = np.zeros(a.shape)
        full[..., start:stop] = g
        return (full,)

    return Tensor(out, (a,), vjp)


def cross_entropy_logits(logits: Tensor, target_idx: np.ndarray) -> Tensor:
    """Per-row cross entropy logsumexp(logits) - logits[target].

    logits: (B, n) with integer targets (B,). Returns (B,). Stable via the
    max-shift; the gradient is softmax(logits) minus the one-hot target.
    """
    z = logits.data
    if z.ndim != 2:
        raise ValueError(f"cross_entropy_logits expects (B, n), got {logits.shape}")
    idx = np.asarray(target_idx)
    if idx.shape != (z.shape[0],):
        raise ValueError("target index shape must match the batch")
    zmax = z.max(axis=1, keepdims=True)
    ez = np.exp(z - zmax)
    sez = ez.sum(axis=1, keepdims=True)
    lse = zmax[:, 0] + np.log(sez[:, 0])
    rows = np.arange(z.shape[0])
    out = lse - z[rows, idx]

    def vjp(g):
        soft = ez / sez
        gi = soft * g[:, None]
        gi[rows, idx] -= g
        return (gi,)

    return Tensor(out, (logits,), vjp)
