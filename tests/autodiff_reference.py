"""Test-only gradient helpers: a finite-difference gradient checker, for
a graph or for any function with analytic gradients, two extra element
ops for exercising it, and the kink margin of a model.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from headpose.autodiff import Tensor
from headpose.model import Model

import network_reference


def add_const(a: Tensor, k) -> Tensor:
    return Tensor(a.data + k, (a,), lambda g: (g,))


def log(a: Tensor) -> Tensor:
    return Tensor(np.log(a.data), (a,), lambda g: (g / a.data,))


def kink_margin(model: Model, x1: np.ndarray, x2: np.ndarray, c: np.ndarray) -> float:
    """Smallest |pre-activation| feeding any leaky ReLU of the network.

    Finite-difference gradient checks are only valid when parameter
    perturbations cannot push a unit across the kink at zero; callers
    should require this margin to comfortably exceed the check's
    epsilon times the activation scale. The pre-activations are recorded
    by wrapping the op graph's leaky_relu for one pass of the graph
    oracle, whose pre-activations equal the model's bit for bit.
    """
    seen: list[np.ndarray] = []
    rectify = network_reference.leaky_relu

    def logged(a: Tensor, slope: float) -> Tensor:
        seen.append(a.data)
        return rectify(a, slope)

    network_reference.leaky_relu = logged
    try:
        network_reference.forward(model, x1, x2, c)
    finally:
        network_reference.leaky_relu = rectify
    return min(float(np.abs(a).min()) for a in seen)


def grad_check(
    fn: Callable[[], Tensor],
    params: Sequence[Tensor],
    epsilon: float = 1e-6,
    floor: float = 1e-3,
    max_elements_per_param: int | None = None,
    rng: np.random.Generator | None = None,
) -> float:
    """`difference_check` of a graph: fn rebuilds the scalar loss from the
    current parameter data on every call, and backward() gives the
    analytic gradients."""
    out = fn()
    if out.data.size != 1:
        raise ValueError("grad_check needs a scalar-valued function")
    for p in params:
        p.zero_grad()
    out = fn()
    out.backward()
    analytic = [np.zeros_like(p.data) if p.grad is None else p.grad.copy() for p in params]
    return difference_check(lambda: float(fn().data), [p.data for p in params], analytic,
                            epsilon, floor, max_elements_per_param, rng)


def difference_check(
    value: Callable[[], float],
    arrays: Sequence[np.ndarray],
    analytic: Sequence[np.ndarray],
    epsilon: float = 1e-6,
    floor: float = 1e-3,
    max_elements_per_param: int | None = None,
    rng: np.random.Generator | None = None,
) -> float:
    """Worst relative error between analytic and central-difference gradients.

    value() recomputes the scalar from the current contents of `arrays`,
    which are perturbed in place one element at a time; analytic[k] is
    the gradient of arrays[k]. When max_elements_per_param is set, a
    seeded random subset of each array's elements is checked instead of
    all of them, the arrays drawn for in order.

    Each element's error is |analytic - numeric| / max(|analytic|,
    |numeric|, floor). The floor keeps the ratio meaningful where both
    derivatives sit inside the difference quotient's own rounding noise,
    which is about 1e-16 * |f| / epsilon in absolute terms; pick epsilon
    so that noise stays well under floor for your loss magnitude.
    """
    if not 0.0 < epsilon <= 1e-2:
        raise ValueError(f"epsilon {epsilon} outside (0, 1e-2]")
    if floor <= 0.0:
        raise ValueError("floor must be > 0")
    worst = 0.0
    for array, a in zip(arrays, analytic):
        flat = array.reshape(-1)
        n = flat.size
        if max_elements_per_param is not None and n > max_elements_per_param:
            picker = rng if rng is not None else np.random.default_rng(0)
            indices = picker.choice(n, size=max_elements_per_param, replace=False)
        else:
            indices = range(n)
        aflat = a.reshape(-1)
        for i in indices:
            orig = flat[i]
            flat[i] = orig + epsilon
            fplus = value()
            flat[i] = orig - epsilon
            fminus = value()
            flat[i] = orig
            numeric = (fplus - fminus) / (2.0 * epsilon)
            denom = max(abs(aflat[i]), abs(numeric), floor)
            worst = max(worst, abs(aflat[i] - numeric) / denom)
    return worst
