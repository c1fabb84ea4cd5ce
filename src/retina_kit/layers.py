"""Layer primitives with explicit forward and backward passes.

Pure functions on numpy arrays in one batched, channel-major layout:
(C, B, H, W), channels first, then the images of a minibatch. A 3x3
convolution runs as nine "tap" GEMMs over one zero-padded, flattened buffer,
the implicit GEMM of cuDNN (Chetlur et al., arXiv:1410.0759), so no column
matrix is built; a 1x1 convolution is one plain GEMM. Every backward is the
exact gradient of its forward map. Arrays keep whatever float dtype the
caller passes, so the same code serves float32 training and float64 shadow
checks.

A stride-1 3x3 conv's buffer is its input's padded layout (see pad), and its
output GEMM's columns are the column layout inside it. A caller that holds a
tensor in that layout passes the buffer along: the conv reads it, writes its
output into the next buffer, and takes and returns gradients as columns, so
no buffer is rebuilt, scattered or gathered around its GEMMs (Anderson et
al., arXiv:1709.03395, carry a layout from layer to layer the same way).
"""

from __future__ import annotations

import functools
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


def relu(x, out=None):
    return np.maximum(x, 0, out=out)


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


@functools.lru_cache(maxsize=256)
def _tap_layout(shape, k, stride):
    """((B, gh, gw), n, ((phase, shift) per tap)) of a k x k conv over a (C, B, H, W) shape.

    Output (b, i, j) is column (b * gh + i) * gw + j of a gh x gw grid per
    image, n rounds the grid up to whole column blocks, and tap (ki, kj)
    reads the tap buffer's phase `phase` from column `shift` on.
    """
    _, b, h, w = shape
    pad, split = k // 2, stride if k > 1 else 1
    grid = (b, _out_dim(h, stride) + pad, _out_dim(w, stride) + pad)
    n = -(-math.prod(grid) // _COLUMN_BLOCK) * _COLUMN_BLOCK
    taps = tuple(
        (i % split * split + j % split, i // split * grid[2] + j // split)
        for i in range(k)
        for j in range(k)
    )
    return grid, n, taps


def _tap_buffers(x, k, stride):
    """(bufs, taps, grid, n) of a k x k conv over x (C, B, H, W); see _tap_layout.

    A 1x1 conv reads the stride-spaced samples of x. A 3x3 conv puts a zero
    row before each image and a zero column before each row, which also pad
    the row or image before; at stride 2 the input splits into its four
    polyphase components (even/odd rows x columns), so every tap is still
    one contiguous slice.
    """
    grid, n, taps = _tap_layout(x.shape, k, stride)
    split = stride if k > 1 else 1
    bufs = np.zeros((split * split, x.shape[0], n + taps[-1][1]), dtype=x.dtype)
    for phase, part in _phase_pairs(bufs, grid, x, k, stride):
        phase[...] = part
    return bufs, taps, grid, n


def _phase_pairs(bufs, grid, x, k, stride):
    """(phase view, x view) pairs; phase (a, d) holds x[stride*u + a - pad, stride*v + d - pad]."""
    pad, split = k // 2, stride if k > 1 else 1
    phases = bufs[:, :, : math.prod(grid)].reshape(split, split, -1, *grid)
    for a in range(split):
        for d in range(split):
            u, v = int(a < pad), int(d < pad)
            part = x[:, :, stride * u + a - pad :: stride, stride * v + d - pad :: stride]
            yield phases[a, d, :, :, u : u + part.shape[2], v : v + part.shape[3]], part


def pad(x):
    """x (C, B, H, W) as the (C, n + 2 * margin) padded buffer a stride-1 3x3 conv reads.

    Columns margin .. margin + n hold x's column layout, the layout of the
    conv's output GEMM: (b, i, j) at (b * (H + 1) + i) * (W + 1) + j, with
    +0.0 in each image's pad row and pad column and in the tail. The
    margin = W + 2 columns either side are +0.0 too, so tap (ki, kj) of the
    conv reads the contiguous slice from column ki * (W + 1) + kj.
    """
    return _tap_buffers(x, 3, 1)[0][0]


def columns(padded, shape):
    """The (C, n) column layout inside the padded buffer of a (C, B, H, W) tensor (see pad)."""
    margin = shape[3] + 2
    return padded[:, margin : padded.shape[1] - margin]


def crop(cols, shape):
    """The (C, B, H, W) view of a column-layout array of that shape (see pad)."""
    _, b, h, w = shape
    return _crop(cols, (b, h + 1, w + 1), h, w)


def _crop(cols, grid, oh, ow):
    return cols[:, : math.prod(grid)].reshape(-1, *grid)[:, :, :oh, :ow]


def _zero_junk(cols, grid, h, w):
    """cols with +0.0 in each image's pad row and pad column and in the tail."""
    cells = cols[:, : math.prod(grid)].reshape(len(cols), *grid)
    cells[:, :, h] = 0
    cells[:, :, :, w] = 0
    cols[:, math.prod(grid) :] = 0
    return cols


def _tap_sum(pairs, total):
    """Add a @ b to total for each (a, b) pair, in order; total starts zeroed."""
    term = np.empty_like(total)
    for a, b in pairs:
        total += np.matmul(a, b, out=term)
    return total


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


def _check_padded(padded, shape, k, stride, what):
    """shape's tap layout; padded, if given, must be a stride-1 3x3 conv's padded buffer of it."""
    grid, n, taps = _tap_layout(shape, k, stride)
    want = (shape[0], n + taps[-1][1])
    if padded is not None and (k, stride, padded.shape) != (3, 1, want):
        raise ValidationError(
            f"{what} of shape {padded.shape} is not the padded buffer {want} of a stride-1 "
            f"3x3 conv over {shape}"
        )
    return grid, n, taps


def _tap_input(inp, k, stride, dtype, padded):
    """(bufs, taps, grid, n) of inp: its tap buffers built afresh, or the caller's padded one."""
    if padded is None:
        return _tap_buffers(inp.astype(dtype, copy=False), k, stride)
    grid, n, taps = _check_padded(padded, inp.shape, k, stride, "padded input")
    return padded.astype(dtype, copy=False)[None], taps, grid, n


def conv2d_forward(inp, weights, bias, stride=1, *, padded=None, out=None):
    """Cross-correlation of a (C, B, H, W) batch with zero padding k//2.

    Output dims are ceil(H/stride): stride 2 samples at even output-center
    indices, so spatial sizes track the ceil(H / stride) arithmetic used by
    the anchor grid. The sum of W[:, :, ki, kj] @ buf[:, s : s + n] over the
    taps gives each image the same bytes whatever else is in the batch.

    A stride-1 3x3 conv reads `padded`, its input's padded buffer (see pad),
    when the caller holds one. Given `out`, a zeroed padded buffer of the
    output's shape, it adds the bias to its GEMM columns straight into out's
    column layout, sets the junk columns back to +0.0, and returns the
    (C, B, H, W) view of out.
    """
    inp = np.asarray(inp)
    weights = np.asarray(weights)
    bias = np.asarray(bias)
    k = _check_conv_args(inp, weights, stride)
    if bias.shape != (weights.shape[0],):
        raise ValidationError(f"bias shape {bias.shape} does not match {weights.shape[0]} filters")
    dtype = np.result_type(inp, weights)
    bufs, taps, grid, n = _tap_input(inp, k, stride, dtype, padded)
    c_out = weights.shape[0]
    w_taps = weights.transpose(2, 3, 0, 1).astype(dtype).reshape(k * k, c_out, -1)
    total = _tap_sum(
        zip(w_taps, (bufs[p, :, s : s + n] for p, s in taps)), np.zeros((c_out, n), dtype=dtype)
    )
    shape = (c_out, inp.shape[1], _out_dim(inp.shape[2], stride), _out_dim(inp.shape[3], stride))
    bias = bias.astype(dtype)
    if out is None:
        return _crop(total, grid, *shape[2:]) + bias[:, None, None, None]
    _check_padded(out, shape, k, stride, "out")
    if out.dtype != dtype:
        raise ValidationError(f"out is {out.dtype} but the conv computes in {dtype}")
    cols = columns(out, shape)  # the output's column layout is the GEMMs' own
    np.add(total, bias[:, None], out=cols)
    return crop(_zero_junk(cols, grid, *shape[2:]), shape)


def conv2d_backward(
    inp, weights, stride, grad_out, input_grad=True, *, padded=None, grad_cols=None
):
    """Exact gradients of conv2d_forward: (grad_input, grad_weights, grad_bias).

    The weight gradient reads the forward's tap slices, all nine in one
    batched GEMM for a stride-1 3x3 conv. The input gradient (None if
    input_grad is False) sums W_k.T @ g over the taps into one contiguous
    array per polyphase component, in tap order, and gathers it back; every
    GEMM and every per-element sum is the one a scatter through the tap
    slices makes, so the bytes are the same.

    A stride-1 3x3 conv takes `padded`, its input's padded buffer from the
    forward, in place of a rebuilt one; its input gradient then comes back
    in that buffer's column layout (C_in, n), with +0.0 in the junk columns,
    rather than as (C_in, B, H, W). `grad_cols`, the column layout
    (C_out, n) of the output gradient, spares scattering grad_out, which is
    then its crop view.
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
    bufs, taps, grid, n = _tap_input(inp, k, stride, dtype, padded)
    if grad_cols is None:
        g = np.zeros((c_out, n), dtype=dtype)  # junk columns stay zero and add nothing
        _crop(g, grid, oh, ow)[...] = grad_out
    elif grad_cols.shape != (c_out, n):
        raise ValidationError(f"grad_cols shape {grad_cols.shape} is not the columns {(c_out, n)}")
    else:
        g = grad_cols.astype(dtype, copy=False)
    stride1 = k == 3 and stride == 1
    grad_taps = np.empty((k, k, c_out, c_in), dtype=dtype)
    if stride1:  # tap (ki, kj) is the slice from ki * gw + kj: one strided view holds all nine
        buf = bufs[0]
        step, row = buf.strides[1], buf.strides[0]
        view = np.lib.stride_tricks.as_strided(
            buf, (3, 3, n, c_in), (grid[2] * step, step, step, row), writeable=False
        )
        np.matmul(g, view, out=grad_taps)
    else:
        for gw_k, (p, s) in zip(grad_taps.reshape(k * k, c_out, c_in), taps):
            np.matmul(g, bufs[p, :, s : s + n].T, out=gw_k)
    grad_weights = grad_taps.transpose(2, 3, 0, 1).copy()
    # numpy sums in memory order: a gradient given as columns sums as the
    # contiguous (C, B, H, W) array it stands for, not as its crop view
    grad_bias = (grad_out if grad_cols is None else grad_out.copy()).sum(axis=(1, 2, 3))
    if not input_grad:
        return None, grad_weights, grad_bias
    # tap buffer column q gets W_k.T @ g[:, q - shift_k] from each tap of its phase;
    # with g in a zero-margined copy, tap k's terms for columns base .. base + n
    # are one GEMM over a contiguous slice (base is the centre tap's shift for the
    # column layout). The margins add only zeros (W_k.T @ 0, finite weights) to sums
    # that start at +0.0, which changes no byte.
    base = taps[k * k // 2][1] if padded is not None else 0
    lead = taps[-1][1] - base
    wide = np.zeros((c_out, lead + n + base), dtype=dtype)
    wide[:, lead : lead + n] = g
    w_taps = weights.transpose(2, 3, 0, 1).astype(dtype).reshape(k * k, c_out, c_in)
    grad_bufs = np.zeros((len(bufs), c_in, n), dtype=dtype)
    for phase, total in enumerate(grad_bufs):
        pairs = [(w_k.T, wide[:, lead + base - s : lead + base - s + n])
                 for w_k, (p, s) in zip(w_taps, taps) if p == phase]
        _tap_sum(pairs, total)
    if padded is not None:
        return _zero_junk(grad_bufs[0], grid, h, w), grad_weights, grad_bias
    grad_input = np.zeros(inp.shape, dtype=dtype)  # a strided 1x1 conv skips pixels
    for phase, part in _phase_pairs(grad_bufs, grid, grad_input, k, stride):
        part[...] = phase
    return grad_input, grad_weights, grad_bias
