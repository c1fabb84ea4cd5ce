"""Axis-aligned box geometry on (N, 4) float64 corner arrays.

IoU, clipping, mapping through a 2x3 affine, and the anchor-relative offset
parameterization used by the regression head: center shifts are measured in
anchor widths/heights, sizes as log ratios, so encode and decode are exact
inverses. `BBox`, a checked box row, is kept only for the test oracles and perfbench.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Log-size deltas are clamped here before exponentiation so an untrained
# head cannot overflow exp().
DELTA_CLAMP = math.log(1000.0 / 16.0)


@dataclass(frozen=True)
class BBox:
    """Corner-form box (x1, y1, x2, y2) in pixels with x1 <= x2, y1 <= y2."""

    x1: float
    y1: float
    x2: float
    y2: float

    def __post_init__(self):
        coords = (self.x1, self.y1, self.x2, self.y2)
        if not all(math.isfinite(c) for c in coords):
            raise ValueError(f"box coordinates must be finite, got {coords}")
        if self.x2 < self.x1 or self.y2 < self.y1:
            raise ValueError(f"box corners out of order: {coords}")

    @property
    def width(self) -> float:
        return self.x2 - self.x1

    @property
    def height(self) -> float:
        return self.y2 - self.y1

    @property
    def area(self) -> float:
        return self.width * self.height

    @property
    def center(self) -> tuple[float, float]:
        return (0.5 * (self.x1 + self.x2), 0.5 * (self.y1 + self.y2))

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.x1, self.y1, self.x2, self.y2)


def boxes_to_array(boxes) -> np.ndarray:
    """(N, 4) float64 corner array from an array-like of corner rows."""
    return np.asarray(boxes, dtype=np.float64).reshape(-1, 4)


def box_areas(boxes) -> np.ndarray:
    """(N,) width times height of each row."""
    b = boxes_to_array(boxes)
    return (b[:, 2] - b[:, 0]) * (b[:, 3] - b[:, 1])


def iou_matrix(boxes_a, boxes_b) -> np.ndarray:
    """Pairwise IoU in [0, 1] of rows i and j; 0 where the union has zero area."""
    a = boxes_to_array(boxes_a)
    b = boxes_to_array(boxes_b)
    area_a = box_areas(a)
    area_b = box_areas(b)
    lt = np.maximum(a[:, None, :2], b[None, :, :2])
    rb = np.minimum(a[:, None, 2:], b[None, :, 2:])
    wh = np.clip(rb - lt, 0.0, None)
    inter = wh[..., 0] * wh[..., 1]
    union = area_a[:, None] + area_b[None, :] - inter
    out = np.zeros_like(inter)
    np.divide(inter, union, out=out, where=union > 0)
    return out


def encode_boxes(gts: np.ndarray, anchors: np.ndarray) -> np.ndarray:
    """Row-wise offsets that map each anchor onto its ground-truth box."""
    gts = np.asarray(gts, dtype=np.float64)
    anchors = np.asarray(anchors, dtype=np.float64)
    aw = anchors[:, 2] - anchors[:, 0]
    ah = anchors[:, 3] - anchors[:, 1]
    gw = gts[:, 2] - gts[:, 0]
    gh = gts[:, 3] - gts[:, 1]
    if np.any(aw <= 0) or np.any(ah <= 0):
        raise ValueError("degenerate anchor in batch encode")
    if np.any(gw <= 0) or np.any(gh <= 0):
        raise ValueError("degenerate ground-truth box in batch encode")
    tx = (gts[:, 0] + 0.5 * gw - (anchors[:, 0] + 0.5 * aw)) / aw
    ty = (gts[:, 1] + 0.5 * gh - (anchors[:, 1] + 0.5 * ah)) / ah
    return np.stack([tx, ty, np.log(gw / aw), np.log(gh / ah)], axis=1)


def decode_boxes(anchors: np.ndarray, deltas: np.ndarray) -> np.ndarray:
    """Inverse of encode_boxes; log-size components clamped at DELTA_CLAMP."""
    anchors = np.asarray(anchors, dtype=np.float64)
    deltas = np.asarray(deltas, dtype=np.float64)
    aw = anchors[:, 2] - anchors[:, 0]
    ah = anchors[:, 3] - anchors[:, 1]
    cx = anchors[:, 0] + 0.5 * aw + deltas[:, 0] * aw
    cy = anchors[:, 1] + 0.5 * ah + deltas[:, 1] * ah
    w = aw * np.exp(np.minimum(deltas[:, 2], DELTA_CLAMP))
    h = ah * np.exp(np.minimum(deltas[:, 3], DELTA_CLAMP))
    return np.stack([cx - 0.5 * w, cy - 0.5 * h, cx + 0.5 * w, cy + 0.5 * h], axis=1)


def clip_boxes(boxes: np.ndarray, width: float, height: float) -> np.ndarray:
    """Clamp every coordinate into [0, width] x [0, height]."""
    out = boxes_to_array(boxes).copy()
    out[:, 0::2] = np.clip(out[:, 0::2], 0.0, width)
    out[:, 1::2] = np.clip(out[:, 1::2], 0.0, height)
    return out


def transform_boxes(boxes, matrix: np.ndarray) -> np.ndarray:
    """Axis-aligned envelope of each box's four corners mapped through a 2x3 affine.

    Corners go through one product in the order (x1, y1), (x2, y1),
    (x1, y2), (x2, y2) per box.
    """
    b = boxes_to_array(boxes)
    p = b[:, [0, 1, 2, 1, 0, 3, 2, 3]].reshape(-1, 2)
    mapped = (p @ matrix[:, :2].T + matrix[:, 2]).reshape(-1, 4, 2)
    return np.concatenate([mapped.min(axis=1), mapped.max(axis=1)], axis=1)
