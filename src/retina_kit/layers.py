"""Layer primitives with explicit forward and backward passes.

Pure functions on numpy arrays in one batched, channel-major layout:
(C, B, H, W), channels first, then the images of a minibatch. A 3x3
convolution runs as nine "tap" GEMMs over one zero-padded, flattened buffer,
the implicit GEMM of cuDNN (Chetlur et al., arXiv:1410.0759), so no column
matrix is built; a 1x1 convolution is one plain GEMM. Every backward is the
exact gradient of its forward map. Arrays keep whatever float dtype the
caller passes, so the same code serves float32 training and float64 shadow
checks.
"""

from __future__ import annotations

import math

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


def upsample_nearest_x2(x):
    if x.ndim != 4:
        raise ValidationError(f"expected (C, B, H, W) input, got shape {x.shape}")
    return np.repeat(np.repeat(x, 2, axis=2), 2, axis=3)


def upsample_nearest_x2_backward(grad_out):
    """Each source cell fed a 2x2 block; sum the block's gradients back."""
    c, b, h, w = grad_out.shape
    if h % 2 or w % 2:
        raise ValidationError(f"upsample gradient dims must be even, got {grad_out.shape}")
    return grad_out.reshape(c, b, h // 2, 2, w // 2, 2).sum(axis=(3, 5))


def _out_dim(n: int, stride: int) -> int:
    return -(-n // stride)


# GEMMs run over whole blocks of this many columns: a BLAS kernel may sum a
# ragged last block in another order (OpenBLAS's AVX-512 sgemm does for the
# last 1-8 of 16), and an image's outputs must not depend on its batch.
_COLUMN_BLOCK = 32


def _tap_buffers(x, k, stride):
    """(bufs, [(phase, shift)] per tap, (B, gh, gw), n) of a k x k conv over x (C, B, H, W).

    Output (b, i, j) is column (b * gh + i) * gw + j of a gh x gw grid per
    image, and tap (ki, kj) reads bufs[phase, :, shift : shift + n]. A 1x1
    conv reads the stride-spaced samples of x. A 3x3 conv puts a zero row
    before each image and a zero column before each row, which also pad the
    row or image before; at stride 2 the input splits into its four
    polyphase components (even/odd rows x columns), so every tap is still
    one contiguous slice.
    """
    c, b, h, w = x.shape
    pad, split = k // 2, stride if k > 1 else 1
    grid = (b, _out_dim(h, stride) + pad, _out_dim(w, stride) + pad)
    n = -(-math.prod(grid) // _COLUMN_BLOCK) * _COLUMN_BLOCK
    taps = [
        (i % split * split + j % split, i // split * grid[2] + j // split)
        for i, j in np.ndindex(k, k)
    ]
    bufs = np.zeros((split * split, c, n + taps[-1][1]), dtype=x.dtype)
    for phase, part in _phase_pairs(bufs, grid, x, k, stride):
        phase[...] = part
    return bufs, taps, grid, n


def _phase_pairs(bufs, grid, x, k, stride):
    """(phase view, x view) pairs; phase (a, d) holds x[stride*u + a - pad, stride*v + d - pad]."""
    pad, split = k // 2, stride if k > 1 else 1
    phases = bufs[:, :, : math.prod(grid)].reshape(split, split, -1, *grid)
    for a, d in np.ndindex(split, split):
        u, v = int(a < pad), int(d < pad)
        part = x[:, :, stride * u + a - pad :: stride, stride * v + d - pad :: stride]
        yield phases[a, d, :, :, u : u + part.shape[2], v : v + part.shape[3]], part


def _check_conv_args(inp, weights, stride):
    if inp.ndim != 4:
        raise ValidationError(f"conv input must be (C, B, H, W), got shape {inp.shape}")
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
    """Cross-correlation of a (C, B, H, W) batch with zero padding k//2.

    Output dims are ceil(H/stride): stride 2 samples at even output-center
    indices, so spatial sizes track the ceil(H / stride) arithmetic used by
    the anchor grid. The sum of W[:, :, ki, kj] @ buf[:, s : s + n] over the
    taps gives each image the same bytes whatever else is in the batch.
    """
    inp = np.asarray(inp)
    weights = np.asarray(weights)
    bias = np.asarray(bias)
    k = _check_conv_args(inp, weights, stride)
    if bias.shape != (weights.shape[0],):
        raise ValidationError(f"bias shape {bias.shape} does not match {weights.shape[0]} filters")
    dtype = np.result_type(inp, weights)
    bufs, taps, grid, n = _tap_buffers(inp.astype(dtype, copy=False), k, stride)
    w_taps = weights.transpose(2, 3, 0, 1).astype(dtype).reshape(k * k, *weights.shape[:2])
    out = np.zeros((weights.shape[0], n), dtype=dtype)
    term = np.empty_like(out)
    for w_k, (phase, s) in zip(w_taps, taps):
        out += np.matmul(w_k, bufs[phase, :, s : s + n], out=term)
    oh, ow = _out_dim(inp.shape[2], stride), _out_dim(inp.shape[3], stride)
    out = out[:, : math.prod(grid)].reshape(-1, *grid)[:, :, :oh, :ow]
    return out + bias.astype(dtype)[:, None, None, None]


def conv2d_backward(inp, weights, stride, grad_out, input_grad=True):
    """Exact gradients of conv2d_forward: (grad_input, grad_weights, grad_bias).

    The weight gradient reads the forward's tap slices; the input gradient
    adds W_k.T @ g back through them, unless input_grad is False (then
    grad_input is None).
    """
    inp = np.asarray(inp)
    weights = np.asarray(weights)
    grad_out = np.asarray(grad_out)
    k = _check_conv_args(inp, weights, stride)
    c_out, c_in = weights.shape[:2]
    _, b, h, w = inp.shape
    oh, ow = _out_dim(h, stride), _out_dim(w, stride)
    if grad_out.shape != (c_out, b, oh, ow):
        raise ValidationError(
            f"grad_out shape {grad_out.shape} does not match output {(c_out, b, oh, ow)}"
        )
    dtype = np.result_type(inp, weights, grad_out)
    bufs, taps, grid, n = _tap_buffers(inp.astype(dtype, copy=False), k, stride)
    g = np.zeros((c_out, n), dtype=dtype)  # junk columns stay zero and add nothing
    g[:, : math.prod(grid)].reshape(c_out, *grid)[:, :, :oh, :ow] = grad_out
    grad_taps = np.empty((k * k, c_out, c_in), dtype=dtype)
    for gw_k, (phase, s) in zip(grad_taps, taps):
        np.matmul(g, bufs[phase, :, s : s + n].T, out=gw_k)
    grad_weights = grad_taps.reshape(k, k, c_out, c_in).transpose(2, 3, 0, 1).copy()
    grad_bias = grad_out.sum(axis=(1, 2, 3))
    if not input_grad:
        return None, grad_weights, grad_bias
    grad_bufs = np.zeros_like(bufs)
    term = np.empty((c_in, n), dtype=dtype)
    w_taps = weights.transpose(2, 3, 0, 1).astype(dtype).reshape(k * k, c_out, c_in)
    for w_k, (phase, s) in zip(w_taps, taps):
        grad_bufs[phase, :, s : s + n] += np.matmul(w_k.T, g, out=term)
    grad_input = np.zeros(inp.shape, dtype=dtype)  # a strided 1x1 conv skips pixels
    for phase, part in _phase_pairs(grad_bufs, grid, grad_input, k, stride):
        part[...] = phase
    return grad_input, grad_weights, grad_bias
