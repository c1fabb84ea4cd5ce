"""Layer primitives with explicit forward and backward passes.

Pure functions on numpy arrays in one batched, channel-major layout:
(C, B, H, W), channels first, then the images of a minibatch. A 3x3
convolution runs as nine "tap" GEMMs over one zero-padded, flattened buffer,
the implicit GEMM of cuDNN (Chetlur et al., arXiv:1410.0759), so no column
matrix is built; a 1x1 convolution is the centre tap alone. Every backward is
the exact gradient of its forward map. Arrays keep whatever float dtype the
caller passes, so the same code serves float32 training and float64 shadow
checks.

The layout the GEMMs read stays inside this module. The convs and up_add
return "layer views", (C, B, H, W) views of buffers allocated here: an
activation's padded buffer (see _zeros) or an input gradient's column layout;
the other backward layers return one when given layer views. A layer given a
layer view reads the buffer behind it (see _buffer), so nothing is scattered
or gathered around a stride-1 conv's GEMMs (Anderson et al., arXiv:1709.03395,
carry a layout from layer to layer the same way). Any other array takes the
plain path, with the same bytes.
"""

from __future__ import annotations

import functools
import math
import weakref

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
    """max(x, 0), written over x (over the whole buffer behind a layer view) and returned."""
    buf = _buffer(x)
    target = x if buf is None else buf  # the pads hold +0.0 and stay so
    np.maximum(target, 0, out=target)
    return x


def relu_backward(grad_out, out):
    """Gate by the sign of relu's output, positive exactly where its input was; 0 at the kink."""
    return _elementwise(lambda g, y, out=None: np.multiply(g, y > 0, out=out), grad_out, out)


def add(a, b):
    """a + b, the gradient of a tensor that two ops read."""
    return _elementwise(np.add, a, b)


def _elementwise(op, a, b):
    """op(a, b); two layer views alike combine as their columns, into a fresh gradient buffer."""
    a_buf, b_buf = _buffer(a), _buffer(b)
    if a_buf is None or b_buf is None or (a.shape, a.dtype) != (b.shape, b.dtype):
        return op(a, b)
    cols = _columns(a_buf, a.shape)
    return _view(op(cols, _columns(b_buf, b.shape), out=np.empty_like(cols)), a.shape)


def upsample_nearest_x2(x):
    if x.ndim != 4:
        raise ValidationError(f"expected (C, B, H, W) input, got shape {x.shape}")
    return np.repeat(np.repeat(x, 2, axis=2), 2, axis=3)


def upsample_nearest_x2_backward(grad_out):
    """Each source cell fed a 2x2 block; sum the block's gradients back, a
    layer view's into a fresh gradient buffer."""
    c, b, h, w = grad_out.shape
    if h % 2 or w % 2:
        raise ValidationError(f"upsample gradient dims must be even, got {grad_out.shape}")
    up = grad_out.reshape(c, b, h // 2, 2, w // 2, 2).sum(axis=(3, 5))
    if _buffer(grad_out) is None:
        return up
    view = _view(_zeros(up.shape, up.dtype, padded=False), up.shape)
    view[...] = up
    return view


def up_add(x, coarse):
    """x plus the nearest x2 upsample of coarse, the top-down merge, in a fresh padded buffer."""
    out = _view(_zeros(x.shape, np.result_type(x, coarse), padded=True), x.shape)
    return np.add(x, upsample_nearest_x2(coarse), out=out)


# GEMMs run over whole blocks of this many columns: a BLAS kernel may sum a
# ragged last block in another order (OpenBLAS's AVX-512 sgemm does for the
# last 1-8 of 16), and an image's outputs must not depend on its batch.
_COLUMN_BLOCK = 32


@functools.lru_cache(maxsize=256)
def _tap_layout(shape, stride):
    """((B, gh, gw), n, ((phase, shift) per tap)) of a 3x3 conv over a (C, B, H, W) shape.

    Output (b, i, j) is column (b * gh + i) * gw + j of a gh x gw grid per
    image, its column in the output's padded buffer (see _zeros); n rounds the
    grid up to whole column blocks, and tap (ki, kj) reads the tap buffer's
    phase `phase` from column `shift` on. A 1x1 conv is the centre tap.
    """
    _, b, h, w = shape
    grid = (b, -(-h // stride) + 1, -(-w // stride) + 1)
    n = -(-math.prod(grid) // _COLUMN_BLOCK) * _COLUMN_BLOCK
    taps = tuple(
        (i % stride * stride + j % stride, i // stride * grid[2] + j // stride)
        for i in range(3)
        for j in range(3)
    )
    return grid, n, taps


def _phase_pairs(bufs, grid, x, stride):
    """(phase view, x view) pairs; phase (a, d) holds x[stride*u + a - 1, stride*v + d - 1]."""
    phases = bufs[:, :, : math.prod(grid)].reshape(stride, stride, -1, *grid)
    for a in range(stride):
        for d in range(stride):
            u, v = int(a == 0), int(d == 0)
            part = x[:, :, stride * u + a - 1 :: stride, stride * v + d - 1 :: stride]
            yield phases[a, d, :, :, u : u + part.shape[2], v : v + part.shape[3]], part


# Every layer view handed out and still alive, by id: a weak map, so it keeps no
# view alive; it only lets _buffer tell a layer view from any other array.
_HANDED = weakref.WeakValueDictionary()


def _zeros(shape, dtype, padded):
    """A zeroed buffer for a (C, B, H, W) tensor of that shape: padded, or its column layout.

    Columns margin .. margin + n of a padded buffer hold the tensor's column
    layout, the layout of a conv's output GEMM: (b, i, j) at (b * (H + 1) + i)
    * (W + 1) + j, with +0.0 in each image's pad row and pad column and in the
    tail. The margin = W + 2 columns either side are +0.0 too, so tap (ki, kj)
    of a stride-1 3x3 conv reads the contiguous slice from column ki * (W + 1) + kj.
    """
    n = _tap_layout(shape, 1)[1]
    return np.zeros((shape[0], n + 2 * (shape[3] + 2) if padded else n), dtype)


def _columns(buf, shape):
    """The (C, n) column layout of a (C, B, H, W) tensor of that shape in buf."""
    margin = (buf.shape[1] - _tap_layout(shape, 1)[1]) // 2  # 0 in a bare column layout
    return buf[:, margin : buf.shape[1] - margin]


def _view(buf, shape):
    """The (C, B, H, W) view of the tensor of that shape in buf, which _buffer will know."""
    _, b, h, w = shape
    item = buf.itemsize
    margin = (buf.shape[1] - _tap_layout(shape, 1)[1]) // 2
    strides = (buf.strides[0], (h + 1) * (w + 1) * item, (w + 1) * item, item)
    view = np.ndarray(shape, buf.dtype, buf, margin * item, strides)
    _HANDED[id(view)] = view
    return view


def _buffer(x):
    """The buffer behind x if x is a layer view, the very array _view handed out; else None."""
    return x.base if _HANDED.get(id(x)) is x else None


def _crop(cols, shape):
    """The (C, B, H, W) view of a column-layout array of that shape."""
    _, b, h, w = shape
    return cols[:, : b * (h + 1) * (w + 1)].reshape(-1, b, h + 1, w + 1)[:, :, :h, :w]


def _zero_junk(cols, shape):
    """Set +0.0 in each pad row and pad column and the tail of cols, the column layout of shape."""
    _, b, h, w = shape
    cells = cols[:, : b * (h + 1) * (w + 1)].reshape(len(cols), b, h + 1, w + 1)
    cells[:, :, h] = 0
    cells[:, :, :, w] = 0
    cols[:, cells[0].size :] = 0


def _compact(cols, shape):
    """The (C, B, H, W) crop of a column-layout array, contiguous, zero-filled to whole blocks."""
    size = math.prod(shape[1:])
    out = np.zeros((shape[0], -(-size // _COLUMN_BLOCK) * _COLUMN_BLOCK), cols.dtype)
    out[:, :size].reshape(shape)[...] = _crop(cols, shape)
    return out


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


def _tap_input(inp, k, stride, dtype):
    """(bufs, taps, grid, n) of a k x k conv over inp (see _tap_layout), a tap buffer per phase.

    A stride-1 conv reads the padded buffer behind a layer view. Otherwise a
    zero row goes before each image and a zero column before each row, which
    also pad the row or image before; at stride 2 the input splits into its
    four polyphase components, so every tap is still one contiguous slice.
    """
    grid, n, taps = _tap_layout(inp.shape, stride)
    buf = _buffer(inp)
    if stride == 1 and buf is not None and buf.shape[1] > n:  # a padded buffer, not bare columns
        bufs = buf.astype(dtype, copy=False)[None]
    else:
        bufs = np.zeros((stride * stride, inp.shape[0], n + taps[-1][1]), dtype=dtype)
        for phase, part in _phase_pairs(bufs, grid, inp, stride):
            phase[...] = part
    return bufs, taps if k == 3 else taps[4:5], grid, n


def conv2d_forward(inp, weights, bias, stride=1):
    """Cross-correlation of a (C, B, H, W) batch with zero padding k//2.

    Output dims are ceil(H/stride): stride 2 samples at even output-center
    indices, so spatial sizes track the ceil(H / stride) arithmetic used by
    the anchor grid. The sum of W[:, :, ki, kj] @ buf[:, s : s + n] over the
    taps gives each image the same bytes whatever else is in the batch. The
    GEMM columns plus the bias fill a fresh padded buffer, pads +0.0; the
    output is its layer view.
    """
    inp = np.asarray(inp)
    weights = np.asarray(weights)
    bias = np.asarray(bias)
    k = _check_conv_args(inp, weights, stride)
    if bias.shape != (weights.shape[0],):
        raise ValidationError(f"bias shape {bias.shape} does not match {weights.shape[0]} filters")
    dtype = np.result_type(inp, weights)
    bufs, taps, grid, n = _tap_input(inp, k, stride, dtype)
    c_out = weights.shape[0]
    shape = (c_out, inp.shape[1], grid[1] - 1, grid[2] - 1)
    out = _zeros(shape, dtype, padded=True)
    w_taps = weights.transpose(2, 3, 0, 1).astype(dtype).reshape(k * k, c_out, -1)
    total = _tap_sum(
        zip(w_taps, (bufs[p, :, s : s + n] for p, s in taps)), np.zeros((c_out, n), dtype=dtype)
    )
    cols = _columns(out, shape)  # the output's column layout is the GEMMs' own
    np.add(total, bias.astype(dtype)[:, None], out=cols)
    _zero_junk(cols, shape)
    return _view(out, shape)


def conv2d_backward(inp, weights, stride, grad_out, input_grad=True):
    """Exact gradients of conv2d_forward: (grad_input, grad_weights, grad_bias).

    The weight gradient reads the forward's tap slices, all nine in one
    batched GEMM for a stride-1 3x3 conv; a 1x1 conv's sums over the output
    pixels alone, in compact copies. The input gradient (None if input_grad
    is False) sums W_k.T @ g over the taps into one contiguous array per
    polyphase component, in tap order (stride 2 gathers them back into the
    input's column layout); every GEMM and every per-element sum is the one a
    scatter through the tap slices makes, so the bytes are the same. A layer
    view grad_out is read as its columns, not scattered.
    """
    inp = np.asarray(inp)
    weights = np.asarray(weights)
    grad_out = np.asarray(grad_out)
    k = _check_conv_args(inp, weights, stride)
    c_out, c_in = weights.shape[:2]
    dtype = np.result_type(inp, weights, grad_out)
    bufs, taps, grid, n = _tap_input(inp, k, stride, dtype)
    shape = (c_out, inp.shape[1], grid[1] - 1, grid[2] - 1)
    if grad_out.shape != shape:
        raise ValidationError(f"grad_out shape {grad_out.shape} does not match output {shape}")
    g_buf = _buffer(grad_out)
    if g_buf is None:
        g = np.zeros((c_out, n), dtype=dtype)  # junk columns stay zero and add nothing
        _crop(g, shape)[...] = grad_out
    else:
        g = _columns(g_buf, shape).astype(dtype, copy=False)
    grad_taps = np.empty((k, k, c_out, c_in), dtype=dtype)
    if k == 1:  # over the padded columns BLAS would split the longer K otherwise
        p, s = taps[0]
        x_cols = _compact(bufs[p, :, s : s + n], (c_in, *shape[1:]))
        dense = _compact(g, shape)
        np.matmul(dense, x_cols.T, out=grad_taps[0, 0])
    elif stride == 1:  # tap (ki, kj) starts at ki * gw + kj: one strided view holds all nine
        buf = bufs[0]
        step, row = buf.strides[1], buf.strides[0]
        view = np.lib.stride_tricks.as_strided(
            buf, (3, 3, n, c_in), (grid[2] * step, step, step, row), writeable=False
        )
        np.matmul(g, view, out=grad_taps)
    else:
        for gw_k, (p, s) in zip(grad_taps.reshape(9, c_out, c_in), taps):
            np.matmul(g, bufs[p, :, s : s + n].T, out=gw_k)
    grad_weights = grad_taps.transpose(2, 3, 0, 1).copy()
    # numpy sums in memory order: a layer view sums as the contiguous array it
    # stands for (a 1x1 conv's compact copy holds it), any other grad_out (the
    # rows of a head output) in its own
    if g_buf is not None:
        grad_out = dense[:, : math.prod(shape[1:])].reshape(shape) if k == 1 else grad_out.copy()
    grad_bias = grad_out.sum(axis=(1, 2, 3))
    if not input_grad:
        return None, grad_weights, grad_bias
    # tap buffer column q gets W_k.T @ g[:, q - shift_k] from each tap of its phase;
    # with g in a zero-margined copy, tap k's terms for columns base .. base + n
    # are one GEMM over a contiguous slice (base, the centre tap's shift at stride 1,
    # puts the sums in the input's column layout). The margins add only zeros
    # (W_k.T @ 0, finite weights) to sums that start at +0.0, which changes no byte.
    base = grid[2] + 1 if stride == 1 else 0
    lead = taps[-1][1] - base
    wide = np.zeros((c_out, lead + n + base), dtype=dtype)
    wide[:, lead : lead + n] = g
    w_taps = weights.transpose(2, 3, 0, 1).astype(dtype).reshape(k * k, c_out, c_in)
    grad = _zeros(inp.shape, dtype, padded=False)  # the input's column layout
    grad_bufs = grad[None] if stride == 1 else np.zeros((len(bufs), c_in, n), dtype=dtype)
    for phase, total in enumerate(grad_bufs):
        pairs = [(w_k.T, wide[:, lead + base - s : lead + base - s + n])
                 for w_k, (p, s) in zip(w_taps, taps) if p == phase]
        _tap_sum(pairs, total)
    grad_input = _view(grad, inp.shape)
    if stride == 1:
        _zero_junk(grad, inp.shape)
    else:  # a strided 1x1 conv skips pixels, which keep +0.0
        for phase, part in _phase_pairs(grad_bufs, grid, grad_input, stride):
            part[...] = phase
    return grad_input, grad_weights, grad_bias
