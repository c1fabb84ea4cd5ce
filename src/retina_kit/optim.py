"""Adam with bias correction over named parameter dicts, stepped as one flat buffer."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericError, ValidationError

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


class Packed(dict):
    """A name -> view dict made by packed: its views tile .flat in dict order."""

    def __init__(self, flat: np.ndarray, views: dict[str, np.ndarray]):
        super().__init__(views)
        self.flat = flat
        self.views = tuple(views.values())


def packed(arrays: dict[str, np.ndarray], copy: bool = True) -> Packed:
    """A name -> view dict over one new contiguous buffer, in arrays' order.

    The views hold copies of arrays' values, or zeros if copy is False; the
    buffer's dtype is their common type.
    """
    flat = np.zeros(sum(a.size for a in arrays.values()), np.result_type(*arrays.values()))
    views, off = {}, 0
    for name, a in arrays.items():
        views[name] = flat[off : off + a.size].reshape(a.shape)
        if copy:
            views[name][...] = a
        off += a.size
    return Packed(flat, views)


def flat_buffer(arrays: dict[str, np.ndarray]) -> np.ndarray:
    """The buffer a packed dict's views tile in dict order; ValidationError for any other dict.

    The dict must still hold packed's own views in packed's order (a view
    rebound or a key moved since breaks that), each still a view of the
    buffer (a deep copy breaks that). Only identities are compared, which
    is cheap next to reading each view's address.
    """
    views = tuple(arrays.values())
    if (
        not isinstance(arrays, Packed)
        or len(views) != len(arrays.views)
        or any(a is not b or a.base is not arrays.flat for a, b in zip(views, arrays.views))
    ):
        raise ValidationError("expected a dict of views of one buffer (see optim.packed)")
    return arrays.flat


@dataclass
class AdamState:
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    step: int = 0

    @classmethod
    def zeros_like(cls, params: dict[str, np.ndarray]) -> "AdamState":
        return cls(packed(params, copy=False), packed(params, copy=False))


def adam_step(params, grads, state: AdamState, lr):
    """One in-place Adam update: m, v moving averages with bias correction.

    params, grads, state.m and state.v are packed dicts (see packed) of the
    same names and shapes in the same order. Each update runs once over the
    whole buffer, with the elementwise ops of a per-parameter loop in the
    same order, so the bytes are the same. Aborts before touching any state
    if a gradient is non-finite, naming the first offending parameter in
    dict order and the step that would have been taken.
    """
    layout = [(name, p.shape) for name, p in params.items()]
    for what, d in (("gradient", grads), ("Adam m", state.m), ("Adam v", state.v)):
        if [(name, a.shape) for name, a in d.items()] != layout:
            raise ValidationError(f"{what} dict does not match the parameter dict")
    p, g, m, v = (flat_buffer(d) for d in (params, grads, state.m, state.v))
    t = state.step + 1
    if not np.isfinite(g).all():
        bad = next(name for name, a in grads.items() if not np.isfinite(a).all())
        raise NumericError(f"non-finite gradient for parameter '{bad}' at step {t}")
    bc1 = 1.0 - BETA1**t
    bc2 = 1.0 - BETA2**t
    m *= BETA1
    m += (1.0 - BETA1) * g
    v *= BETA2
    v += (1.0 - BETA2) * np.square(g)
    p -= lr * (m / bc1) / (np.sqrt(v / bc2) + EPS)
    state.step = t
