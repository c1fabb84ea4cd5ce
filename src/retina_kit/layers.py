"""Layer primitives with explicit forward and backward passes.

Pure functions on numpy arrays in single-image (C, H, W) layout.
Convolutions run as im2col + matmul; every backward is the exact gradient
of its forward map. Arrays keep whatever float dtype the caller passes, so
the same code serves float32 training and float64 shadow checks.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError


def sigmoid(x):
    x = np.asarray(x)
    if x.dtype.kind != "f":
        x = x.astype(np.float64)
    z = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + z), z / (1.0 + z))


def softplus(x):
    """log(1 + exp(x)) without overflow or premature underflow."""
    x = np.asarray(x)
    if x.dtype.kind != "f":
        x = x.astype(np.float64)
    return np.maximum(x, 0) + np.log1p(np.exp(-np.abs(x)))


def relu(x):
    return np.maximum(x, 0)


def relu_backward(grad_out, pre):
    """Gate by pre-activation sign; the gradient at exactly 0 is 0."""
    return grad_out * (pre > 0)


def add(a, b):
    if a.shape != b.shape:
        raise ValidationError(f"add shape mismatch: {a.shape} vs {b.shape}")
    return a + b


def upsample_nearest_x2(x):
    if x.ndim != 3:
        raise ValidationError(f"expected (C, H, W) input, got shape {x.shape}")
    return np.repeat(np.repeat(x, 2, axis=1), 2, axis=2)


def upsample_nearest_x2_backward(grad_out):
    """Each source cell fed a 2x2 block; sum the block's gradients back."""
    c, h, w = grad_out.shape
    if h % 2 or w % 2:
        raise ValidationError(f"upsample gradient dims must be even, got {grad_out.shape}")
    return grad_out.reshape(c, h // 2, 2, w // 2, 2).sum(axis=(2, 4))


def _out_dim(n: int, stride: int) -> int:
    return -(-n // stride)


def _im2col(inp, k, stride):
    c, h, w = inp.shape
    pad = k // 2
    oh, ow = _out_dim(h, stride), _out_dim(w, stride)
    if pad:
        padded = np.zeros((c, h + 2 * pad, w + 2 * pad), dtype=inp.dtype)
        padded[:, pad : pad + h, pad : pad + w] = inp
    else:
        padded = inp
    patches = np.empty((c, k, k, oh, ow), dtype=inp.dtype)
    for ki in range(k):
        for kj in range(k):
            patches[:, ki, kj] = padded[
                :, ki : ki + stride * (oh - 1) + 1 : stride, kj : kj + stride * (ow - 1) + 1 : stride
            ]
    return patches.reshape(c * k * k, oh * ow), oh, ow


def _col2im(grad_cols, inp_shape, k, stride, dtype):
    c, h, w = inp_shape
    pad = k // 2
    oh, ow = _out_dim(h, stride), _out_dim(w, stride)
    patches = grad_cols.reshape(c, k, k, oh, ow)
    acc = np.zeros((c, h + 2 * pad, w + 2 * pad), dtype=dtype)
    for ki in range(k):
        for kj in range(k):
            acc[
                :, ki : ki + stride * (oh - 1) + 1 : stride, kj : kj + stride * (ow - 1) + 1 : stride
            ] += patches[:, ki, kj]
    if pad:
        return acc[:, pad : pad + h, pad : pad + w].copy()
    return acc


def _check_conv_args(inp, weights, stride):
    if inp.ndim != 3:
        raise ValidationError(f"conv input must be (C, H, W), got shape {inp.shape}")
    if weights.ndim != 4 or weights.shape[2] != weights.shape[3]:
        raise ValidationError(f"conv weights must be (C_out, C_in, k, k), got {weights.shape}")
    k = weights.shape[2]
    if k not in (1, 3):
        raise ValidationError(f"only 1x1 and 3x3 kernels supported, got {k}x{k}")
    if inp.shape[0] != weights.shape[1]:
        raise ValidationError(
            f"input has {inp.shape[0]} channels but weights expect {weights.shape[1]}"
        )
    if stride not in (1, 2):
        raise ValidationError(f"stride must be 1 or 2, got {stride}")
    return k


def conv2d_forward(inp, weights, bias, stride=1):
    """Cross-correlation with zero padding k//2; output dims are ceil(H/stride).

    Stride 2 samples at even output-center indices, so spatial sizes track
    the ceil(H / stride) arithmetic used by the anchor grid.
    """
    inp = np.asarray(inp)
    weights = np.asarray(weights)
    bias = np.asarray(bias)
    k = _check_conv_args(inp, weights, stride)
    if bias.shape != (weights.shape[0],):
        raise ValidationError(f"bias shape {bias.shape} does not match {weights.shape[0]} filters")
    cols, oh, ow = _im2col(inp, k, stride)
    out = weights.reshape(weights.shape[0], -1) @ cols
    out += bias[:, None]
    return out.reshape(weights.shape[0], oh, ow)


def conv2d_backward(inp, weights, stride, grad_out):
    """Exact gradients of conv2d_forward: (grad_input, grad_weights, grad_bias)."""
    inp = np.asarray(inp)
    weights = np.asarray(weights)
    grad_out = np.asarray(grad_out)
    k = _check_conv_args(inp, weights, stride)
    oh, ow = _out_dim(inp.shape[1], stride), _out_dim(inp.shape[2], stride)
    if grad_out.shape != (weights.shape[0], oh, ow):
        raise ValidationError(
            f"grad_out shape {grad_out.shape} does not match output {(weights.shape[0], oh, ow)}"
        )
    cols, _, _ = _im2col(inp, k, stride)
    g = grad_out.reshape(weights.shape[0], -1)
    grad_bias = grad_out.sum(axis=(1, 2))
    grad_weights = (g @ cols.T).reshape(weights.shape)
    grad_cols = weights.reshape(weights.shape[0], -1).T @ g
    grad_input = _col2im(grad_cols, inp.shape, k, stride, grad_cols.dtype)
    return grad_input, grad_weights, grad_bias
