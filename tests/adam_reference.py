"""Test-only oracle: Adam as one update per parameter tensor.

This is the per-tensor form that the flat-vector `training.AdamState`
replaced; the vector form must match it bit for bit.
"""

from __future__ import annotations

import numpy as np

from headpose import autodiff as ad
from headpose.model import Model
from headpose.training import ADAM_BETA1, ADAM_BETA2, ADAM_EPSILON, TrainConfig


class TensorAdam:
    """First/second moment accumulators for a model's parameters, each a
    leaf over the model's views of it in `flat` and `flat_grad`."""

    def __init__(self, model: Model):
        self.params = [ad.Parameter(model.params[name], model.grads[name])
                       for name in model.params]
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]
        self.t = 0

    def step(self, config: TrainConfig) -> None:
        self.t += 1
        b1, b2 = ADAM_BETA1, ADAM_BETA2
        bias1 = 1.0 - b1**self.t
        bias2 = 1.0 - b2**self.t
        for i, p in enumerate(self.params):
            g = p.grad
            if g is None:
                continue
            if not np.all(np.isfinite(g)):
                raise FloatingPointError(f"non-finite gradient at step {self.t}")
            self.m[i] = b1 * self.m[i] + (1.0 - b1) * g
            self.v[i] = b2 * self.v[i] + (1.0 - b2) * g * g
            m_hat = self.m[i] / bias1
            v_hat = self.v[i] / bias2
            p.data -= config.learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPSILON)
