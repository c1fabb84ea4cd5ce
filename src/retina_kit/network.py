"""Small conv backbone + top-down pyramid + shared detection heads.

The backbone is a stack of stride-2 3x3 conv + ReLU stages producing
features at strides 2, 4, 8, ... Pyramid levels are built from the stages
matching the anchor strides: a 1x1 lateral conv onto fpn_channels, nearest
x2 upsample + add top-down, then a 3x3 smoothing conv. The classification
and box subnets (head_depth 3x3 conv + ReLU blocks, then a 3x3 output conv)
share their parameters across levels.

forward() takes the AnchorConfig (its strides pick the levels, scales x
ratios fix the anchors per cell) and returns one logit and one box-delta row
per anchor in generate_anchors order, plus a cache; backward() takes
gradients on those rows and returns exact gradients for every parameter,
summing shared-head gradients over levels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import layers
from .anchors import AnchorConfig
from .errors import ValidationError

INPUT_CHANNELS = 3  # load_ppm and preprocess always give RGB


@dataclass
class NetworkConfig:
    stem_channels: tuple[int, ...] = (8, 16, 32, 64)
    fpn_channels: int = 32
    head_depth: int = 2
    prior_prob: float = 0.01

    def __post_init__(self):
        self.stem_channels = tuple(int(c) for c in self.stem_channels)
        if not self.stem_channels or any(c <= 0 for c in self.stem_channels):
            raise ValidationError(f"stem_channels must be positive, got {self.stem_channels}")
        if self.fpn_channels <= 0:
            raise ValidationError(f"fpn_channels must be positive, got {self.fpn_channels}")
        if self.head_depth < 0:
            raise ValidationError(f"head_depth must be >= 0, got {self.head_depth}")
        if not (0.0 < self.prior_prob < 1.0):
            raise ValidationError(f"prior_prob must be in (0, 1), got {self.prior_prob}")


def stage_index_for_stride(stride: int) -> int:
    """Stem stage whose output sits at the given stride (stage i is 2^(i+1))."""
    k = int(round(math.log2(stride)))
    if 2**k != stride or k < 1:
        raise ValidationError(f"stride {stride} is not a power of two >= 2")
    return k - 1


def check_level_strides(config: NetworkConfig, anchors: AnchorConfig) -> list[int]:
    """Map anchor strides onto stem stages, rejecting strides the net lacks."""
    stages = []
    for s in anchors.strides:
        idx = stage_index_for_stride(s)
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


def param_shapes(config: NetworkConfig, anchors: AnchorConfig) -> dict[str, tuple[int, ...]]:
    """Every parameter's shape, in the fixed order init_params draws them."""
    stages = check_level_strides(config, anchors)
    shapes: dict[str, tuple[int, ...]] = {}

    def conv(name, c_out, c_in, k):
        shapes[f"{name}.w"] = (c_out, c_in, k, k)
        shapes[f"{name}.b"] = (c_out,)

    c_in = INPUT_CHANNELS
    for i, c_out in enumerate(config.stem_channels):
        conv(f"stem{i}", c_out, c_in, 3)
        c_in = c_out
    f = config.fpn_channels
    for li, stage in enumerate(stages):
        conv(f"lateral{li}", f, config.stem_channels[stage], 1)
        conv(f"smooth{li}", f, f, 3)
    for prefix in ("cls", "box"):
        for j in range(config.head_depth):
            conv(f"{prefix}{j}", f, f, 3)
    a = anchors.num_anchors_per_cell
    conv("cls_out", a, f, 3)
    conv("box_out", a * 4, f, 3)
    return shapes


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


def _subnet_forward(x, params, prefix, depth):
    ins, pres = [], []
    h = x
    for j in range(depth):
        ins.append(h)
        z = layers.conv2d_forward(h, params[f"{prefix}{j}.w"], params[f"{prefix}{j}.b"], 1)
        pres.append(z)
        h = layers.relu(z)
    out = layers.conv2d_forward(h, params[f"{prefix}_out.w"], params[f"{prefix}_out.b"], 1)
    return out, {"ins": ins, "pres": pres, "out_in": h}


def forward(image, params, config: NetworkConfig, anchors: AnchorConfig):
    """Run the net on one (3, H, W) image.

    Returns ((cls_rows (N,), box_rows (N, 4)), cache): one logit and one
    box-delta row per anchor, in the order generate_anchors lays them out
    for an H x W image.
    """
    image = np.asarray(image)
    if image.ndim != 3 or image.shape[0] != INPUT_CHANNELS:
        raise ValidationError(f"expected ({INPUT_CHANNELS}, H, W) image, got shape {image.shape}")
    stages = check_level_strides(config, anchors)
    s_max = anchors.max_stride
    if image.shape[1] % s_max or image.shape[2] % s_max:
        raise ValidationError(
            f"image dims {image.shape[1]}x{image.shape[2]} not divisible by stride {s_max}"
        )

    stem_in, stem_pre, stem_out = [], [], []
    x = image
    for i in range(len(config.stem_channels)):
        stem_in.append(x)
        z = layers.conv2d_forward(x, params[f"stem{i}.w"], params[f"stem{i}.b"], 2)
        stem_pre.append(z)
        x = layers.relu(z)
        stem_out.append(x)

    laterals = [
        layers.conv2d_forward(
            stem_out[stage], params[f"lateral{li}.w"], params[f"lateral{li}.b"], 1
        )
        for li, stage in enumerate(stages)
    ]
    n_levels = len(stages)
    merged = [None] * n_levels
    merged[-1] = laterals[-1]
    for li in range(n_levels - 2, -1, -1):
        merged[li] = layers.add(laterals[li], layers.upsample_nearest_x2(merged[li + 1]))
    pyramid = [
        layers.conv2d_forward(merged[li], params[f"smooth{li}.w"], params[f"smooth{li}.b"], 1)
        for li in range(n_levels)
    ]

    outputs = []
    cls_caches, box_caches = [], []
    for p in pyramid:
        cls_out, cls_cache = _subnet_forward(p, params, "cls", config.head_depth)
        box_out, box_cache = _subnet_forward(p, params, "box", config.head_depth)
        outputs.append((cls_out, box_out))
        cls_caches.append(cls_cache)
        box_caches.append(box_cache)
    cls_rows, box_rows = _flatten_level_outputs(outputs, anchors.num_anchors_per_cell)

    cache = {
        "params": params,
        "config": config,
        "stages": stages,
        "stem_in": stem_in,
        "stem_pre": stem_pre,
        "stem_out": stem_out,
        "merged": merged,
        "cls": cls_caches,
        "box": box_caches,
        "outputs": outputs,
        "num_anchors": anchors.num_anchors_per_cell,
    }
    return (cls_rows, box_rows), cache


def _subnet_backward(grad_out, sub_cache, params, prefix, depth, grads):
    gi, gw, gb = layers.conv2d_backward(
        sub_cache["out_in"], params[f"{prefix}_out.w"], 1, grad_out
    )
    grads[f"{prefix}_out.w"] += gw
    grads[f"{prefix}_out.b"] += gb
    g = gi
    for j in reversed(range(depth)):
        g = layers.relu_backward(g, sub_cache["pres"][j])
        gi, gw, gb = layers.conv2d_backward(sub_cache["ins"][j], params[f"{prefix}{j}.w"], 1, g)
        grads[f"{prefix}{j}.w"] += gw
        grads[f"{prefix}{j}.b"] += gb
        g = gi
    return g


def backward(cache, cls_grad, box_grad) -> dict[str, np.ndarray]:
    """Exact reverse pass from gradients on the (N,) / (N, 4) anchor rows."""
    n = sum(cls_map.size for cls_map, _ in cache["outputs"])
    got = (np.shape(cls_grad), np.shape(box_grad))
    if got != ((n,), (n, 4)):
        raise ValidationError(f"row gradients must have shapes ({n},) and ({n}, 4), got {got}")
    output_grads = _unflatten_row_grads(cls_grad, box_grad, cache["outputs"], cache["num_anchors"])
    params = cache["params"]
    config: NetworkConfig = cache["config"]
    stages = cache["stages"]
    n_levels = len(stages)

    grads = {name: np.zeros_like(p) for name, p in params.items()}

    g_pyramid = []
    for li in range(n_levels):
        g_cls, g_box = output_grads[li]
        gp = _subnet_backward(g_cls, cache["cls"][li], params, "cls", config.head_depth, grads)
        gp = gp + _subnet_backward(
            g_box, cache["box"][li], params, "box", config.head_depth, grads
        )
        g_pyramid.append(gp)

    g_merged = []
    for li in range(n_levels):
        gi, gw, gb = layers.conv2d_backward(
            cache["merged"][li], params[f"smooth{li}.w"], 1, g_pyramid[li]
        )
        grads[f"smooth{li}.w"] += gw
        grads[f"smooth{li}.b"] += gb
        g_merged.append(gi)
    # top-down merge in reverse: level li fed upsample(merged[li+1])
    for li in range(n_levels - 1):
        g_merged[li + 1] = g_merged[li + 1] + layers.upsample_nearest_x2_backward(g_merged[li])

    g_stem_feat = [None] * len(config.stem_channels)
    for li, stage in enumerate(stages):
        gi, gw, gb = layers.conv2d_backward(
            cache["stem_out"][stage], params[f"lateral{li}.w"], 1, g_merged[li]
        )
        grads[f"lateral{li}.w"] += gw
        grads[f"lateral{li}.b"] += gb
        if g_stem_feat[stage] is None:
            g_stem_feat[stage] = gi
        else:
            g_stem_feat[stage] = g_stem_feat[stage] + gi

    g_deeper = None
    for i in reversed(range(len(config.stem_channels))):
        g_feat = g_stem_feat[i]
        if g_deeper is not None:
            g_feat = g_deeper if g_feat is None else g_feat + g_deeper
        if g_feat is None:
            g_feat = np.zeros_like(cache["stem_out"][i])
        g_pre = layers.relu_backward(g_feat, cache["stem_pre"][i])
        gi, gw, gb = layers.conv2d_backward(cache["stem_in"][i], params[f"stem{i}.w"], 2, g_pre)
        grads[f"stem{i}.w"] += gw
        grads[f"stem{i}.b"] += gb
        g_deeper = gi
    return grads


def _flatten_level_outputs(outputs, num_anchors: int):
    """Per-level (A, H, W) / (A*4, H, W) maps to flat per-anchor rows.

    Returns (N,) classification logits and (N, 4) box deltas. Row order
    matches the anchor grid: level-major, then row, then column, then anchor
    index within the cell.
    """
    cls_rows, box_rows = [], []
    for cls_map, box_map in outputs:
        _, h, w = cls_map.shape
        cls_rows.append(cls_map.transpose(1, 2, 0).reshape(-1))
        box_rows.append(
            box_map.reshape(num_anchors, 4, h, w).transpose(2, 3, 0, 1).reshape(-1, 4)
        )
    return np.concatenate(cls_rows, axis=0), np.concatenate(box_rows, axis=0)


def _unflatten_row_grads(cls_grad, box_grad, outputs, num_anchors: int):
    """Inverse of _flatten_level_outputs for gradients on the flat rows."""
    per_level = []
    off = 0
    for cls_map, box_map in outputs:
        _, h, w = cls_map.shape
        n = h * w * num_anchors
        gc = cls_grad[off : off + n].reshape(h, w, num_anchors).transpose(2, 0, 1)
        gb = (
            box_grad[off : off + n]
            .reshape(h, w, num_anchors, 4)
            .transpose(2, 3, 0, 1)
            .reshape(box_map.shape)
        )
        per_level.append((gc, gb))
        off += n
    return per_level
