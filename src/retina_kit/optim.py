"""Adam with bias correction over named parameter dicts."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericError, ValidationError

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


@dataclass
class AdamState:
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    step: int = 0

    @classmethod
    def zeros_like(cls, params: dict[str, np.ndarray]) -> "AdamState":
        return cls(*({k: np.zeros_like(p) for k, p in params.items()} for _ in "mv"))


def adam_step(params, grads, state: AdamState, lr):
    """One in-place Adam update: m, v moving averages with bias correction.

    Aborts before touching any state if a gradient is non-finite, naming the
    offending parameter and the step that would have been taken.
    """
    if set(grads) != set(params):
        raise ValidationError("gradient dict does not cover the parameter dict")
    t = state.step + 1
    for name in params:
        if not np.all(np.isfinite(grads[name])):
            raise NumericError(f"non-finite gradient for parameter '{name}' at step {t}")
    bc1 = 1.0 - BETA1**t
    bc2 = 1.0 - BETA2**t
    for name, p in params.items():
        g = grads[name]
        m = state.m[name]
        v = state.v[name]
        m *= BETA1
        m += (1.0 - BETA1) * g
        v *= BETA2
        v += (1.0 - BETA2) * np.square(g)
        p -= lr * (m / bc1) / (np.sqrt(v / bc2) + EPS)
    state.step = t
