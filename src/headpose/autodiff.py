"""Minimal reverse-mode automatic differentiation over dense float64 arrays.

A node holds its data, its parents and a closure producing the parents'
gradient contributions; backward() walks the graph once in reverse
topological order. A Parameter is a leaf whose data and gradient view
flat storage, such as a model's `flat` and `flat_grad` vectors.

No module of the package uses this engine: the network and the losses
are in closed form, and training chains them directly. It is the engine
of the test oracles, the op graphs of the network and of the losses
under tests/, which the closed forms must match bit for bit. It stays in
the package only because the benchmark's tracer imports it from here.

Everything is float64 and deterministic: identical inputs and parameters
yield bit-identical outputs.
"""

from __future__ import annotations

from typing import Callable

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
