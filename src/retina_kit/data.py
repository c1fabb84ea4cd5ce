"""Preprocessing, bbox-aware affine augmentation, and JSONL manifests.

Preprocessing order: scale pixels to [0, 1], subtract the per-channel
ImageNet mean, then bilinear-resize to the network input size. Augmentation
draws one whole-image affine as a (2, 3) matrix mapping input (x, y) to output
(translate, scale and rotate about the center, optional horizontal flip) and
warps image and boxes together.
"""

from __future__ import annotations

import functools
import json
import math
import sys
from dataclasses import dataclass
from typing import Annotated

import numpy as np

from .boxes import box_areas, clip_boxes, transform_boxes
from .errors import ABOVE_0, AT_LEAST_0, UNIT, Bounds, ValidationError, check_fields, check_ordered
from .outputs import atomic_write, read_lines

IMAGENET_MEAN = (0.485, 0.456, 0.406)


class ManifestError(ValidationError):
    """Malformed or invalid manifest line."""


@dataclass
class SampleRecord:
    image_path: str
    boxes: np.ndarray  # (G, 4) float64 corners


@dataclass
class AugmentConfig:
    translate_frac: Annotated[float, Bounds(0, 1, open_hi=True)] = 0.10
    max_rot_deg: Annotated[float, Bounds(0, 180)] = 5.0
    scale_min: Annotated[float, ABOVE_0] = 0.9
    scale_max: float = 1.1
    hflip_prob: Annotated[float, UNIT] = 0.5
    min_box_area_px: Annotated[float, AT_LEAST_0] = 16.0
    min_visible_frac: Annotated[float, UNIT] = 0.4

    def __post_init__(self):
        check_fields(self, "augment")
        scales = [("augment.scale_min", self.scale_min), ("augment.scale_max", self.scale_max)]
        check_ordered(scales)


def resize_bilinear(image, out_w: int, out_h: int) -> np.ndarray:
    """Half-pixel-centered bilinear resize with edge clamping.

    Same-size calls reproduce the input bitwise, and constants stay constant.
    """
    if out_w <= 0 or out_h <= 0:
        raise ValidationError(f"resize target must be positive, got {out_w}x{out_h}")
    img = np.asarray(image)
    _, h, w = img.shape
    if (out_w, out_h) == (w, h):
        return img.copy()
    ys = (np.arange(out_h, dtype=np.float64) + 0.5) * (h / out_h) - 0.5
    xs = (np.arange(out_w, dtype=np.float64) + 0.5) * (w / out_w) - 0.5
    y0 = np.floor(ys)
    x0 = np.floor(xs)
    fy = (ys - y0).astype(img.dtype)
    fx = (xs - x0).astype(img.dtype)
    y0 = np.clip(y0.astype(np.int64), 0, h - 1)
    x0 = np.clip(x0.astype(np.int64), 0, w - 1)
    y1 = np.clip(y0 + 1, 0, h - 1)
    x1 = np.clip(x0 + 1, 0, w - 1)
    fy = fy[:, None]
    fx = fx[None, :]
    top = img[:, y0[:, None], x0[None, :]] * (1 - fx) + img[:, y0[:, None], x1[None, :]] * fx
    bot = img[:, y1[:, None], x0[None, :]] * (1 - fx) + img[:, y1[:, None], x1[None, :]] * fx
    return top * (1 - fy) + bot * fy


def preprocess(image, target_size) -> np.ndarray:
    """[0, 255] pixels -> [0, 1], minus the ImageNet channel means, resized."""
    tw, th = target_size
    img = np.asarray(image, dtype=np.float32) / 255.0
    img = img - np.asarray(IMAGENET_MEAN, dtype=np.float32)[:, None, None]
    return resize_bilinear(img, tw, th)


@functools.lru_cache(maxsize=8)
def _pixel_centres(h: int, w: int) -> np.ndarray:
    """Read-only (h * w, 2) (x, y) pixel centres in row-major order."""
    ys, xs = np.indices((h, w), dtype=np.float64) + 0.5
    centres = np.stack([xs.ravel(), ys.ravel()], axis=1)
    centres.flags.writeable = False
    return centres


def warp_affine(image, matrix: np.ndarray) -> np.ndarray:
    """Inverse-map the image through the 2x3 affine; bilinear sampling, zero fill."""
    img = np.asarray(image)
    c, h, w = img.shape
    inv = np.linalg.inv(matrix[:, :2])
    src = _pixel_centres(h, w) @ inv.T + -inv @ matrix[:, 2]
    lx = src[:, 0] - 0.5
    ly = src[:, 1] - 0.5
    x0 = np.floor(lx)
    y0 = np.floor(ly)
    fx = (lx - x0).astype(img.dtype)
    fy = (ly - y0).astype(img.dtype)
    x0 = x0.astype(np.int64)
    y0 = y0.astype(np.int64)

    flat = img.reshape(c, h * w)
    out = np.zeros_like(flat)
    for dy, wy in ((0, 1 - fy), (1, fy)):
        for dx, wx in ((0, 1 - fx), (1, fx)):
            xi = x0 + dx
            yi = y0 + dy
            inside = (xi >= 0) & (xi < w) & (yi >= 0) & (yi < h)
            vals = flat.take(np.clip(yi, 0, h - 1) * w + np.clip(xi, 0, w - 1), axis=1)
            out += vals * (wy * wx * inside).astype(img.dtype)
    return out.reshape(c, h, w)


def _compose(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The 2x3 affine that applies b, then a."""
    return np.column_stack([a[:, :2] @ b[:, :2], a[:, :2] @ b[:, 2] + a[:, 2]])


def draw_augment_transform(width, height, config: AugmentConfig, rng) -> np.ndarray:
    """One random whole-image affine; the rng draw order is part of the contract:
    hflip uniform, angle, scale, tx, ty.

    Translates, then scales and rotates about the image center, then flips.
    """
    u_flip = rng.uniform()
    angle = rng.uniform(-config.max_rot_deg, config.max_rot_deg)
    scale = rng.uniform(config.scale_min, config.scale_max)
    tx = rng.uniform(-config.translate_frac * width, config.translate_frac * width)
    ty = rng.uniform(-config.translate_frac * height, config.translate_frac * height)
    cx, cy = width / 2.0, height / 2.0
    c = math.cos(math.radians(angle))
    s = math.sin(math.radians(angle))
    m = np.array([[1.0, 0.0, tx], [0.0, 1.0, ty]])
    m = _compose(np.array([[scale, 0.0, cx - scale * cx], [0.0, scale, cy - scale * cy]]), m)
    m = _compose(np.array([[c, -s, cx - c * cx + s * cy], [s, c, cy - s * cx - c * cy]]), m)
    if u_flip < config.hflip_prob:
        m = _compose(np.array([[-1.0, 0.0, width], [0.0, 1.0, 0.0]]), m)
    return m


def augment(image, boxes, config: AugmentConfig, rng):
    """Jitter one sample; returns (image, surviving (K, 4) boxes).

    Boxes follow the affine, get clipped to the image, and are dropped when
    the clipped area falls below min_box_area_px or below min_visible_frac of
    the unclipped transformed area.
    """
    img = np.asarray(image)
    _, h, w = img.shape
    m = draw_augment_transform(w, h, config, rng)
    moved = transform_boxes(boxes, m)
    clipped = clip_boxes(moved, w, h)
    moved_area = box_areas(moved)
    area = box_areas(clipped)
    visible = np.divide(area, moved_area, out=np.ones_like(area), where=moved_area > 0)
    keep = (area > 0) & (area >= config.min_box_area_px) & (visible >= config.min_visible_frac)
    return warp_affine(img, m), clipped[keep]


def write_manifest(records, path) -> None:
    """One JSON object per line: {"image", "boxes", "labels"}, every label 0."""
    with atomic_write(path) as f:
        for r in records:
            row = {"image": r.image_path, "boxes": r.boxes.tolist(), "labels": [0] * len(r.boxes)}
            f.write(json.dumps(row) + "\n")


def read_manifest(path) -> list[SampleRecord]:
    """Parse a manifest; the one place a box row read from a file is checked.

    Per line: image a non-empty string, boxes 4 JSON numbers each, labels a list of integer 0s.
    Then, over all rows at once: each box finite (no int past float range), ordered, with area.
    """
    images, linenos, starts, rows = [], [], [], []
    for lineno, line in enumerate(read_lines(path), 1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except ValueError as e:  # a JSONDecodeError, or an integer past the int-string limit
            raise ManifestError(f"{path}: line {lineno}: invalid JSON: {e}") from e
        try:
            if not isinstance(obj, dict) or not {"image", "boxes", "labels"} <= set(obj):
                raise ValueError("expected image/boxes/labels keys")
            image, boxes, labels = obj["image"], obj["boxes"], obj["labels"]
            if type(image) is not str:
                raise ValueError(f"image must be a string, got {image!r}")
            if not image:
                raise ValueError("sample image_path must be non-empty")
            rows_ok = type(boxes) is list and all(type(b) is list and len(b) == 4 for b in boxes)
            if not (rows_ok and {type(v) for b in boxes for v in b} <= {int, float}):
                raise ValueError(f"boxes must be lists of 4 numbers, got {boxes!r}")
            if type(labels) is not list:
                raise ValueError(f"labels must be a list, got {labels!r}")
            if len(labels) != len(boxes):
                raise ValueError(f"{len(boxes)} boxes vs {len(labels)} labels")
            if any(type(v) is not int or v != 0 for v in labels):  # no 0.0, False or "0"
                raise ValueError(
                    f"labels {labels} must all be the integer 0: the detector is single-class"
                )
        except (TypeError, ValueError) as e:
            raise ManifestError(f"{path}: line {lineno}: {e}") from e
        images.append(image)
        linenos.append(lineno)
        starts.append(len(rows))
        rows += boxes

    try:
        arr = np.array(rows, dtype=np.float64).reshape(-1, 4)
    except OverflowError:  # an integer too large for a float counts as not finite
        arr = np.array([[math.inf if abs(v) > sys.float_info.max else v for v in r] for r in rows])
    with np.errstate(invalid="ignore", over="ignore"):  # inf - inf, and huge sides
        w, h = (arr[:, 2:] - arr[:, :2]).T
        finite = np.isfinite(arr).all(axis=1)
        ordered = (w >= 0) & (h >= 0)
        bad = ~(finite & ordered & (w * h > 0))
    if bad.any():
        i = int(bad.argmax())
        r = int(np.searchsorted(starts, i, side="right")) - 1  # the record row i belongs to
        box = tuple(arr[i].tolist())
        why = (
            f"box coordinates must be finite, got {box}" if not finite[i]
            else f"box corners out of order: {box}" if not ordered[i]
            else f"{images[r]}: box {box} has no area"
        )
        raise ManifestError(f"{path}: line {linenos[r]}: {why}")
    return [SampleRecord(im, arr[a:b]) for im, a, b in zip(images, starts, starts[1:] + [len(rows)])]
