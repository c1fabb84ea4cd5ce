"""Synthetic template-on-noisy-background dataset generator.

Each image gets a flat-gray or vertical-gradient background, a few
pedestrian-shaped templates (rounded-rectangle body plus elliptical head,
filled with an intensity drawn from a dark or a bright band so they contrast
with the background), additive Gaussian white noise, and a JSONL manifest
row recording each template's tight bounding box.

Per-image rng streams derive from (seed, sample index), so output is fully
reproducible and independent of worker scheduling. The per-image draw order
is a frozen contract: template count, then per template height, aspect, x,
y, band, intensity, and the noise field last.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Annotated

import numpy as np

from .data import SampleRecord, write_manifest
from .errors import (
    ABOVE_0, AT_LEAST_0, Bounds, ValidationError, check_fields, check_ordered, indexed
)
from .ppm import save_ppm

STREAM_SYNTH = 101

DARK_BAND = (0.05, 0.30)
BRIGHT_BAND = (0.70, 0.95)
GRADIENT_SPAN = (0.30, 0.70)
BACKGROUND_GRAY = 0.5


@dataclass
class SynthConfig:
    image_size: Annotated[tuple[int, int], ABOVE_0] = (64, 64)
    num_images: Annotated[int, AT_LEAST_0] = 300
    pedestrians_per_image: Annotated[tuple[int, int], AT_LEAST_0] = (1, 3)
    template_aspect: Annotated[tuple[float, float], ABOVE_0] = (2.0, 3.5)
    template_height_px: Annotated[tuple[int, int], Bounds(4)] = (20, 40)
    noise_std: Annotated[float, AT_LEAST_0] = 0.05
    background_mode: str = "flat"
    seed: Annotated[int, AT_LEAST_0] = 0

    def __post_init__(self):
        check_fields(self, "synth")
        for name in ("pedestrians_per_image", "template_aspect", "template_height_px"):
            check_ordered(indexed(f"synth.{name}", getattr(self, name)))
        if self.background_mode not in ("flat", "gradient"):
            raise ValidationError(
                f"synth.background_mode must be 'flat' or 'gradient', got {self.background_mode!r}"
            )
        # worst-case template footprint must fit the image
        w, h = self.image_size
        w_max, h_max = template_size(self.template_height_px[1], self.template_aspect[0])
        if h_max > h or w_max > w:
            raise ValidationError(
                f"synth.image_size {w}x{h} cannot fit a template up to {w_max}x{h_max} px"
            )


def template_size(height: int, aspect: float) -> tuple[int, int]:
    """Integer (width, height) of a template of the given height and h/w aspect."""
    return max(3, round(height / aspect)), height


def template_mask(width: int, height: int) -> np.ndarray:
    """Boolean (height, width) silhouette: rounded-rect body + elliptical head.

    The silhouette touches all four edges of its rectangle, so the tight
    bounding box of the drawn pixels equals the paste rectangle.
    """
    ys = np.arange(height, dtype=np.float64)[:, None] + 0.5
    xs = np.arange(width, dtype=np.float64)[None, :] + 0.5

    body_top = 0.25 * height
    r = 0.2 * width
    body = (ys >= body_top) & (ys <= height) & (xs >= 0) & (xs <= width)
    for cx in (r, width - r):
        for cy in (body_top + r, height - r):
            in_corner_band = (
                (np.abs(xs - (0 if cx == r else width)) < r)
                & (np.abs(ys - (body_top if cy == body_top + r else height)) < r)
            )
            outside_radius = (xs - cx) ** 2 + (ys - cy) ** 2 > r * r
            body &= ~(in_corner_band & outside_radius)

    head_cx = width / 2.0
    head_cy = 0.125 * height
    head_rx = 0.28 * width
    head_ry = 0.125 * height
    head = ((xs - head_cx) / head_rx) ** 2 + ((ys - head_cy) / head_ry) ** 2 <= 1.0
    return body | head


def _background(config: SynthConfig) -> np.ndarray:
    w, h = config.image_size
    if config.background_mode == "flat":
        return np.full((3, h, w), BACKGROUND_GRAY * 255.0, dtype=np.float64)
    lo, hi = GRADIENT_SPAN
    ramp = np.linspace(lo, hi, h, dtype=np.float64) * 255.0
    return np.broadcast_to(ramp[None, :, None], (3, h, w)).copy()


def render_sample(config: SynthConfig, index: int) -> tuple[np.ndarray, np.ndarray]:
    """One deterministic (image, (G, 4) boxes) pair for the given sample index."""
    rng = np.random.default_rng([config.seed, STREAM_SYNTH, index])
    w, h = config.image_size
    img = _background(config)
    lo, hi = config.pedestrians_per_image
    count = int(rng.integers(lo, hi + 1))
    boxes = []
    for _ in range(count):
        t_h = int(rng.integers(config.template_height_px[0], config.template_height_px[1] + 1))
        aspect = rng.uniform(*config.template_aspect)
        t_w, t_h = template_size(t_h, aspect)
        x0 = int(rng.integers(0, w - t_w + 1))
        y0 = int(rng.integers(0, h - t_h + 1))
        band = DARK_BAND if rng.integers(0, 2) == 0 else BRIGHT_BAND
        intensity = rng.uniform(*band) * 255.0
        mask = template_mask(t_w, t_h)
        region = img[:, y0 : y0 + t_h, x0 : x0 + t_w]
        region[:, mask] = intensity
        boxes.append((x0, y0, x0 + t_w, y0 + t_h))
    if config.noise_std > 0:
        img = img + rng.normal(0.0, config.noise_std * 255.0, size=img.shape)
    return np.clip(img, 0.0, 255.0), np.array(boxes, dtype=np.float64).reshape(-1, 4)


def synth_generate(config: SynthConfig, out_dir) -> list[SampleRecord]:
    """Write PPM images plus manifest.jsonl under out_dir; returns the records.

    Image paths in the manifest are relative to the manifest's directory.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    records = []
    for i in range(config.num_images):
        img, boxes = render_sample(config, i)
        name = f"img_{i:05d}.ppm"
        save_ppm(img, out / name)
        records.append(SampleRecord(image_path=name, boxes=boxes))
    write_manifest(records, out / "manifest.jsonl")
    return records
