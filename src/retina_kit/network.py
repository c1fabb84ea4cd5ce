"""Small conv backbone + top-down pyramid + shared detection heads.

The backbone is a stack of stride-2 3x3 conv + ReLU stages producing
features at strides 2, 4, 8, ... Pyramid levels are built from the stages
matching the anchor strides: a 1x1 lateral conv onto fpn_channels, nearest
x2 upsample + add top-down, then a 3x3 smoothing conv. The classification
and box subnets (head_depth 3x3 conv + ReLU blocks, then a 3x3 output conv)
share their parameters across levels.

_build spells that graph out once, as parameter shapes plus an ordered list
of conv, relu and up_add ops over named tensors; param_shapes, forward() and
backward() all read it. forward() runs a (B, 3, H, W) minibatch in the
channel-major (C, B, H, W) layout of `layers`; it takes the AnchorConfig (its
strides pick the levels, scales x ratios fix the anchors per cell), records
every op's output by name in its cache, and returns one logit and one
box-delta row per image and anchor in generate_anchors order. backward()
walks the ops in reverse from gradients on those rows and returns exact
gradients for every parameter, summed over the batch and, for the shared
heads, over levels, level 0 first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import layers
from .anchors import AnchorConfig
from .errors import ValidationError, check_fields

INPUT_CHANNELS = 3  # load_ppm and preprocess always give RGB


@dataclass
class NetworkConfig:
    stem_channels: tuple[int, ...] = (8, 16, 32, 64)
    fpn_channels: int = 32
    head_depth: int = 2
    prior_prob: float = 0.01

    def __post_init__(self):
        check_fields(self, "network")
        if not self.stem_channels or any(c <= 0 for c in self.stem_channels):
            raise ValidationError(f"stem_channels must be positive, got {self.stem_channels}")
        if self.fpn_channels <= 0:
            raise ValidationError(f"fpn_channels must be positive, got {self.fpn_channels}")
        if self.head_depth < 0:
            raise ValidationError(f"head_depth must be >= 0, got {self.head_depth}")
        if not (0.0 < self.prior_prob < 1.0):
            raise ValidationError(f"prior_prob must be in (0, 1), got {self.prior_prob}")


def check_level_strides(config: NetworkConfig, anchors: AnchorConfig) -> list[int]:
    """Map anchor strides onto stem stages (stage i sits at stride 2^(i+1))."""
    stages = []
    for s in anchors.strides:
        idx = int(round(math.log2(s))) - 1
        if 2 ** (idx + 1) != s or idx < 0:
            raise ValidationError(f"stride {s} is not a power of two >= 2")
        if idx >= len(config.stem_channels):
            raise ValidationError(
                f"anchor stride {s} needs stem stage {idx + 1} but the network has "
                f"only {len(config.stem_channels)} stages"
            )
        stages.append(idx)
    for a, b in zip(stages, stages[1:]):
        if b != a + 1:
            # the x2 top-down merge only lines up for consecutive strides
            raise ValidationError(f"anchor strides {anchors.strides} must double level to level")
    return stages


def _build(config: NetworkConfig, anchors: AnchorConfig):
    """Parameter shapes, the ordered op list and each level's head outputs.

    An op is (kind, out, ins, param, stride) over named tensors ("image" is
    the input): "conv" uses params[param + ".w" / ".b"], "relu" gates, and
    "up_add" adds a lateral to the nearest x2 upsample of the coarser merge.
    Stem stages past the deepest level keep their parameters but get no ops.
    """
    stages = check_level_strides(config, anchors)
    shapes: dict[str, tuple[int, ...]] = {}
    ops: list[tuple] = []

    def declare(param, c_out, c_in, k):
        shapes[f"{param}.w"] = (c_out, c_in, k, k)
        shapes[f"{param}.b"] = (c_out,)

    def conv(param, x, stride=1, out=None):
        ops.append(("conv", out or param, (x,), param, stride))
        return out or param

    def relu(x):
        ops.append(("relu", f"{x}.relu", (x,), None, None))
        return f"{x}.relu"

    x, c_in = "image", INPUT_CHANNELS
    for i, c_out in enumerate(config.stem_channels):
        declare(f"stem{i}", c_out, c_in, 3)
        if i <= stages[-1]:
            x = relu(conv(f"stem{i}", x, 2))
        c_in = c_out
    f = config.fpn_channels
    for li, stage in enumerate(stages):
        declare(f"lateral{li}", f, config.stem_channels[stage], 1)
        declare(f"smooth{li}", f, f, 3)
        conv(f"lateral{li}", f"stem{stage}.relu")
    n_levels = len(stages)
    merged = [f"merge{li}" for li in range(n_levels - 1)] + [f"lateral{n_levels - 1}"]
    for li in reversed(range(n_levels - 1)):
        ops.append(("up_add", merged[li], (f"lateral{li}", merged[li + 1]), None, None))
    for li in range(n_levels):
        conv(f"smooth{li}", merged[li])

    a = anchors.num_anchors_per_cell
    heads = {"cls": a, "box": a * 4}
    for prefix in heads:
        for j in range(config.head_depth):
            declare(f"{prefix}{j}", f, f, 3)
    for prefix, c_out in heads.items():
        declare(f"{prefix}_out", c_out, f, 3)
    # deepest level first: the reverse walk then sums each shared head
    # parameter's gradients level 0 first, the order checkpoints depend on
    for li in reversed(range(n_levels)):
        for prefix in heads:
            x = f"smooth{li}"
            for j in range(config.head_depth):
                x = relu(conv(f"{prefix}{j}", x, out=f"{prefix}{j}/{li}"))
            conv(f"{prefix}_out", x, out=f"{prefix}_out/{li}")
    return shapes, ops, [(f"cls_out/{li}", f"box_out/{li}") for li in range(n_levels)]


def param_shapes(config: NetworkConfig, anchors: AnchorConfig) -> dict[str, tuple[int, ...]]:
    """Every parameter's shape, in the fixed order init_params draws them."""
    return _build(config, anchors)[0]


def init_params(config: NetworkConfig, anchors: AnchorConfig, rng) -> dict[str, np.ndarray]:
    """Seeded float32 parameters in a fixed, name-ordered dict.

    Hidden convs draw from fan-in-scaled Gaussians (std sqrt(2 / fan_in));
    the two output convs use std 0.01 and the classification bias starts at
    -log((1 - prior_prob) / prior_prob), so an untrained head scores every
    anchor near prior_prob and early training survives the heavy
    foreground/background imbalance. A blanket std-0.01 init also trains,
    but leaves the regression head underconverged inside the desk-scale
    epoch budget.
    """
    prior_bias = -math.log((1.0 - config.prior_prob) / config.prior_prob)
    params: dict[str, np.ndarray] = {}
    for name, shape in param_shapes(config, anchors).items():
        if name.endswith(".b"):
            params[name] = np.full(shape, prior_bias if name == "cls_out.b" else 0.0, np.float32)
        else:
            std = 0.01 if name.endswith("_out.w") else math.sqrt(2.0 / math.prod(shape[1:]))
            params[name] = rng.normal(0.0, std, size=shape).astype(np.float32)
    return params


def forward(images, params, config: NetworkConfig, anchors: AnchorConfig):
    """Run the net on a (B, 3, H, W) minibatch.

    Returns ((cls_rows (B, N), box_rows (B, N, 4)), cache): one logit and
    one box-delta row per anchor, in the order generate_anchors lays them out
    for an H x W image; an image's rows do not depend on the rest of its
    batch. cache["tensors"] holds every op's (C, B, h, w) output by name,
    except the pre-activations a ReLU replaces.
    """
    images = np.asarray(images)
    if images.ndim != 4 or images.shape[1] != INPUT_CHANNELS:
        raise ValidationError(f"expected (B, {INPUT_CHANNELS}, H, W) images, got {images.shape}")
    _, ops, heads = _build(config, anchors)
    s_max = anchors.max_stride
    if images.shape[2] % s_max or images.shape[3] % s_max:
        raise ValidationError(
            f"image dims {images.shape[2]}x{images.shape[3]} not divisible by stride {s_max}"
        )

    tape = {"image": np.ascontiguousarray(images.transpose(1, 0, 2, 3))}
    for kind, out, ins, param, stride in ops:
        x = tape[ins[0]]
        if kind == "conv":
            tape[out] = layers.conv2d_forward(x, params[f"{param}.w"], params[f"{param}.b"], stride)
        elif kind == "relu":  # nothing else reads a pre-activation, so drop it
            tape[out] = layers.relu(tape.pop(ins[0]))
        else:
            tape[out] = layers.add(x, layers.upsample_nearest_x2(tape[ins[1]]))
    cache = {"params": params, "ops": ops, "tensors": tape, "heads": heads}
    cls_rows = np.concatenate([_to_rows(tape[c], 1) for c, _ in heads], axis=1)
    box_rows = np.concatenate([_to_rows(tape[b], 4) for _, b in heads], axis=1)
    return (cls_rows[:, :, 0], box_rows), cache


def backward(cache, cls_grad, box_grad) -> dict[str, np.ndarray]:
    """Exact reverse pass from gradients on the (B, N) / (B, N, 4) anchor rows.

    Walks the op list in reverse; a tensor read by several ops gets the sum
    of their gradients. A stem stage past the deepest level has no op, so its
    gradient is exactly zero; the image's own gradient is never computed.
    """
    tape, params = cache["tensors"], cache["params"]
    batch = tape["image"].shape[1]
    n = sum(tape[c].size for c, _ in cache["heads"]) // batch
    got = (np.shape(cls_grad), np.shape(box_grad))
    if got != ((batch, n), (batch, n, 4)):
        raise ValidationError(f"row gradients must be ({batch}, {n}) and (..., 4), got {got}")
    g, off = {}, 0
    for c, b in cache["heads"]:
        end = off + tape[c].size // batch
        g[c] = _from_rows(cls_grad[:, off:end, None], tape[c].shape, 1)
        g[b] = _from_rows(box_grad[:, off:end], tape[b].shape, 4)
        off = end

    grads = {name: np.zeros_like(p) for name, p in params.items()}
    for kind, out, ins, param, stride in reversed(cache["ops"]):
        g_out = g.pop(out)
        if kind == "conv":
            gi, gw, gb = layers.conv2d_backward(
                tape[ins[0]], params[f"{param}.w"], stride, g_out, input_grad=ins[0] != "image"
            )
            grads[f"{param}.w"] += gw
            grads[f"{param}.b"] += gb
            g_ins = (gi,)
        elif kind == "relu":  # the output is positive exactly where its input was
            g_ins = (layers.relu_backward(g_out, tape[out]),)
        else:
            g_ins = (g_out, layers.upsample_nearest_x2_backward(g_out))
        for name, g_in in zip(ins, g_ins):
            if g_in is not None:
                g[name] = g[name] + g_in if name in g else g_in
    return grads


def _to_rows(head_map, k: int):
    """A (A*k, B, H, W) head map as (B, H*W*A, k) rows, k values per anchor.

    Row order matches the anchor grid: level-major (forward concatenates the
    levels, level 0 first), then row, then column, then anchor index within
    the cell.
    """
    _, b, h, w = head_map.shape
    return head_map.reshape(-1, k, b, h, w).transpose(2, 3, 4, 0, 1).reshape(b, -1, k)


def _from_rows(rows, shape, k: int):
    """Inverse of _to_rows: one level's (B, H*W*A, k) rows as a head map of shape."""
    _, b, h, w = shape
    return rows.reshape(b, h, w, -1, k).transpose(3, 4, 0, 1, 2).reshape(shape)
