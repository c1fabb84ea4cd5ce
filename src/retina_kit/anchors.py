"""Pyramid anchor generation and IoU-threshold target assignment.

Anchors are laid out in a fixed deterministic order: level-major, then row,
then column, then (scale, ratio) index with scales outermost. Everything
downstream (head output flattening, decoding) relies on that order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Annotated

import numpy as np

from .boxes import boxes_to_array, encode_boxes, iou_matrix
from .errors import ABOVE_0, UNIT, ValidationError, check_fields, check_ordered

POSITIVE = 1
NEGATIVE = 0
IGNORE = -1

DEFAULT_SCALES = (1.0, 2.0 ** (1.0 / 3.0), 2.0 ** (2.0 / 3.0))
DEFAULT_RATIOS = (0.5, 1.0, 2.0)


@dataclass(frozen=True)
class AnchorLevel:
    """One pyramid level; AnchorConfig checks it, as anchors.levels[i]."""

    stride: Annotated[int, ABOVE_0]
    base_size: Annotated[float, ABOVE_0]


def _default_levels() -> tuple[AnchorLevel, ...]:
    return (AnchorLevel(8, 16.0), AnchorLevel(16, 32.0))


@dataclass
class AnchorConfig:
    levels: tuple[AnchorLevel, ...] = field(default_factory=_default_levels)
    scales: Annotated[tuple[float, ...], ABOVE_0] = DEFAULT_SCALES
    ratios: Annotated[tuple[float, ...], ABOVE_0] = DEFAULT_RATIOS
    pos_iou: Annotated[float, UNIT] = 0.5
    neg_iou: Annotated[float, UNIT] = 0.4
    force_match: bool = True

    def __post_init__(self):
        check_fields(self, "anchors")
        for i, level in enumerate(self.levels):
            check_fields(level, f"anchors.levels[{i}]")
        strides = [(f"anchors.levels[{i}].stride", s) for i, s in enumerate(self.strides)]
        check_ordered(strides, strict=True)
        check_ordered([("anchors.neg_iou", self.neg_iou), ("anchors.pos_iou", self.pos_iou)])

    @property
    def strides(self) -> tuple[int, ...]:
        return tuple(lvl.stride for lvl in self.levels)

    @property
    def num_anchors_per_cell(self) -> int:
        return len(self.scales) * len(self.ratios)

    @property
    def max_stride(self) -> int:
        return self.levels[-1].stride


@dataclass
class AnchorGrid:
    """All anchors for one image size, as an (N, 4) float64 corner array."""

    anchors: np.ndarray
    per_level_counts: list[int]

    def __len__(self) -> int:
        return self.anchors.shape[0]


@dataclass
class AnchorAssignment:
    """Per-anchor labels plus regression targets for the positive ones.

    labels holds POSITIVE / NEGATIVE / IGNORE; matched_gt is -1 except on
    positives; forced marks positives promoted by force matching rather than
    the IoU threshold; deltas rows are zero except on positives.
    """

    labels: np.ndarray
    matched_gt: np.ndarray
    forced: np.ndarray
    deltas: np.ndarray
    num_positive: int


def generate_anchors(config: AnchorConfig, image_w: int, image_h: int) -> AnchorGrid:
    """Deterministic anchor grid for an image of the given size.

    Cell (r, c) at a level of stride s centers its anchors at
    ((c + 0.5) s, (r + 0.5) s); a (scale, ratio) pair with base size b spans
    area (b * scale)^2 with height/width ratio `ratio`.
    """
    if image_w <= 0 or image_h <= 0:
        raise ValidationError(f"image size must be positive, got {image_w}x{image_h}")
    s_max = config.max_stride
    if image_w % s_max or image_h % s_max:
        raise ValidationError(
            f"image size {image_w}x{image_h} not divisible by largest stride {s_max}"
        )

    per_level = []
    counts = []
    for lvl in config.levels:
        rows = -(-image_h // lvl.stride)
        cols = -(-image_w // lvl.stride)
        ws = []
        hs = []
        for s in config.scales:
            side = lvl.base_size * s
            for r in config.ratios:
                ws.append(side / np.sqrt(r))
                hs.append(side * np.sqrt(r))
        ws = np.array(ws)
        hs = np.array(hs)
        cy = (np.arange(rows, dtype=np.float64) + 0.5) * lvl.stride
        cx = (np.arange(cols, dtype=np.float64) + 0.5) * lvl.stride
        # (rows, cols, A) broadcast, then row-major flatten preserves the order
        cxg = cx[None, :, None]
        cyg = cy[:, None, None]
        boxes = np.stack(
            [
                np.broadcast_to(cxg - 0.5 * ws, (rows, cols, ws.size)),
                np.broadcast_to(cyg - 0.5 * hs, (rows, cols, ws.size)),
                np.broadcast_to(cxg + 0.5 * ws, (rows, cols, ws.size)),
                np.broadcast_to(cyg + 0.5 * hs, (rows, cols, ws.size)),
            ],
            axis=-1,
        ).reshape(-1, 4)
        per_level.append(boxes)
        counts.append(boxes.shape[0])
    return AnchorGrid(anchors=np.concatenate(per_level, axis=0), per_level_counts=counts)


def assign_targets(grid: AnchorGrid, gts, config: AnchorConfig) -> AnchorAssignment:
    """Label every anchor against the (G, 4) ground-truth boxes.

    An anchor is POSITIVE when its best IoU is >= pos_iou (matched to the
    argmax gt, lowest index on ties), NEGATIVE below neg_iou, IGNORE in
    between. With force_match, each gt additionally claims its single
    best-IoU anchor (lowest anchor index on ties) provided that IoU > 0;
    when two gts claim the same anchor the lowest gt index wins.
    """
    n = len(grid)
    gt_arr = boxes_to_array(gts)
    g = gt_arr.shape[0]
    labels = np.full(n, NEGATIVE, dtype=np.int8)
    matched = np.full(n, -1, dtype=np.int32)
    forced = np.zeros(n, dtype=bool)
    deltas = np.zeros((n, 4), dtype=np.float64)
    if g == 0:
        return AnchorAssignment(labels, matched, forced, deltas, 0)

    gw = gt_arr[:, 2] - gt_arr[:, 0]
    gh = gt_arr[:, 3] - gt_arr[:, 1]
    if np.any(gw <= 0) or np.any(gh <= 0):
        raise ValidationError("ground-truth boxes must have positive area")

    m = iou_matrix(grid.anchors, gt_arr)
    best_gt = np.argmax(m, axis=1)
    best_iou = m[np.arange(n), best_gt]

    labels[best_iou >= config.pos_iou] = POSITIVE
    labels[(best_iou < config.pos_iou) & (best_iou >= config.neg_iou)] = IGNORE
    matched[labels == POSITIVE] = best_gt[labels == POSITIVE]

    if config.force_match:
        best_anchor = np.argmax(m, axis=0)
        for gi in range(g):
            ai = best_anchor[gi]
            if m[ai, gi] <= 0.0:
                continue
            if labels[ai] == POSITIVE and matched[ai] == gi:
                continue  # already a threshold positive for this gt
            if forced[ai]:
                continue  # a lower-indexed gt claimed this anchor first
            labels[ai] = POSITIVE
            matched[ai] = gi
            forced[ai] = True

    pos = labels == POSITIVE
    if np.any(pos):
        deltas[pos] = encode_boxes(gt_arr[matched[pos]], grid.anchors[pos])
    return AnchorAssignment(labels, matched, forced, deltas, int(pos.sum()))
