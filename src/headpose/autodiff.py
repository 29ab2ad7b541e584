"""Minimal reverse-mode automatic differentiation over dense float64 arrays.

Just enough machinery to express the gated keypoint network: each
operation builds a node holding its parents and a closure producing the
parents' gradient contributions; backward() walks the graph once in
reverse topological order. A loss is one node over the network's
outputs whose closure is hand-derived (headpose.losses). Model weights
are Parameters, whose data and gradient view the model's flat vectors.
Element ops accept any shape; the structured ops (dense, conv1d, flatten)
take batches only, with the batch on the leading axis, so a single
sample is a batch of one.

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


class Parameter(Tensor):
    """A leaf whose data and preset gradient view flat storage; backward()
    adds into that view (0.0 + c == c) and zero_grad() zeroes it in place."""

    __slots__ = ()

    def __init__(self, data: np.ndarray, grad: np.ndarray):
        super().__init__(data)
        self.grad = grad

    def zero_grad(self) -> None:
        self.grad[...] = 0.0


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
