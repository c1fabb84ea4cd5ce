"""Training loop and the shared inference/evaluation path.

Pipeline per image: load -> preprocess -> augment (train only) -> anchor
assignment -> forward -> detection loss -> backward. Per-batch gradients are
summed in a fixed order, divided by the batch size, and fed to Adam.
Validation mAP runs the exact decode + NMS + COCO path used by `eval`, so
the reported number is the deployable metric.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .anchors import assign_targets, generate_anchors
from .checkpoint import (
    Checkpoint,
    build_checkpoint,
    canonical_json,
    load_checkpoint,
    save_checkpoint,
)
from .config import RunConfig, run_config_to_dict
from .data import augment, preprocess, read_manifest
from .errors import NumericError, ValidationError
from .evaluation import coco_map
from .losses import total_detection_loss
from .network import backward, forward, init_params, param_shapes
from .optim import AdamState, adam_step
from .postprocess import Detections, decode_detections
from .ppm import load_ppm

STREAM_INIT = 202
STREAM_SHUFFLE = 303
STREAM_AUGMENT = 404

# Dotted config fields (or "section." prefixes) a checkpoint's config echo is
# compared on. Inference needs the anchor geometry and input frame the heads
# were trained on; a resumed run needs every field but its length, its output
# name and the synthetic-data recipe.
INFERENCE_FIELDS = ("anchors.levels", "anchors.scales", "anchors.ratios", "training.input_size")
RESUME_FREE_FIELDS = (
    "training.epochs", "training.eval_every", "training.checkpoint_path", "synth."
)


@dataclass
class LoadedSample:
    image: np.ndarray  # (3, H, W) float32 in [0, 255]
    boxes: np.ndarray  # (G, 4) corners in original-image pixels
    image_id: int
    path: str


def load_samples(manifest_path) -> list[LoadedSample]:
    """Read a manifest and its images; paths resolve against the manifest dir."""
    base = Path(manifest_path).parent
    records = read_manifest(manifest_path)
    samples = []
    for i, rec in enumerate(records):
        img_path = Path(rec.image_path)
        if not img_path.is_absolute():
            img_path = base / img_path
        if not img_path.exists():
            raise ValidationError(f"manifest references missing image: {img_path}")
        samples.append(
            LoadedSample(image=load_ppm(img_path), boxes=rec.boxes, image_id=i, path=str(img_path))
        )
    return samples


def prepare_eval_input(sample: LoadedSample, cfg: RunConfig):
    """Preprocessed input tensor plus ground truth in the input pixel frame."""
    in_w, in_h = cfg.training.input_size
    _, h, w = sample.image.shape
    tensor = preprocess(sample.image, (in_w, in_h))
    sx, sy = in_w / w, in_h / h
    return tensor, sample.boxes * np.array([sx, sy, sx, sy])


def infer_detections(params, cfg: RunConfig, grid, tensor, image_id: int):
    in_w, in_h = cfg.training.input_size
    (cls_rows, box_rows), _ = forward(tensor, params, cfg.network, cfg.anchors)
    return decode_detections(cls_rows, box_rows, grid, cfg.eval, in_w, in_h, image_id=image_id)


def evaluate_params(params, cfg: RunConfig, samples: list[LoadedSample], grid):
    """Full eval over samples, one image at a time; returns (report dict, Detections)."""
    parts = []
    all_gts = {}
    for sample in samples:
        tensor, all_gts[sample.image_id] = prepare_eval_input(sample, cfg)
        parts.append(infer_detections(params, cfg, grid, tensor, sample.image_id))
    dets = Detections.concat(parts)
    return coco_map(dets, all_gts, cfg.eval), dets


@dataclass
class TrainResult:
    checkpoint_path: str
    metrics_path: str
    metrics: list[dict]
    final_val: dict | None


def _image_grads(cfg, grid, params, tensor, boxes):
    assignment = assign_targets(grid, boxes, cfg.anchors)
    (cls_rows, box_rows), cache = forward(tensor, params, cfg.network, cfg.anchors)
    loss, g_cls, g_box = total_detection_loss(cls_rows, box_rows, assignment, cfg.loss)
    return loss, backward(cache, g_cls, g_box)


def run_training(
    cfg: RunConfig,
    train_manifest,
    val_manifest=None,
    out_dir=".",
    resume=None,
) -> TrainResult:
    out = Path(out_dir)
    train_samples = load_samples(train_manifest)
    if not train_samples:
        raise ValidationError(f"training manifest {train_manifest} has no samples")
    val_samples = load_samples(val_manifest) if val_manifest else None

    in_w, in_h = cfg.training.input_size
    grid = generate_anchors(cfg.anchors, in_w, in_h)
    config_echo = canonical_json(run_config_to_dict(cfg))

    if resume is not None:
        ckpt = load_checkpoint(resume)
        params = load_params_for_config(ckpt, cfg, resume=True)
        state = ckpt.adam_state()
    else:
        rng = np.random.default_rng([cfg.seed, STREAM_INIT])
        params = init_params(cfg.network, cfg.anchors, rng)
        state = AdamState.zeros_like(params)

    out.mkdir(parents=True, exist_ok=True)
    ckpt_path = Path(cfg.training.checkpoint_path)
    if not ckpt_path.is_absolute():
        ckpt_path = out / ckpt_path
    partial_path = ckpt_path.with_name(ckpt_path.name + ".partial")
    metrics_path = out / "metrics.jsonl"
    metrics_partial = out / "metrics.jsonl.partial"

    n = len(train_samples)
    batch_size = cfg.training.batch_size
    steps_per_epoch = math.ceil(n / batch_size)
    start_epoch = state.step // steps_per_epoch if steps_per_epoch else 0

    # cache preprocessed inputs and input-frame boxes once; augmentation
    # operates in the input frame every epoch
    prepared = [prepare_eval_input(s, cfg) for s in train_samples]

    metrics: list[dict] = []
    final_val = None
    with open(metrics_partial, "w", encoding="utf-8") as mf:
        for epoch in range(start_epoch, cfg.training.epochs):
            order = np.random.default_rng([cfg.seed, STREAM_SHUFFLE, epoch]).permutation(n)
            loss_sum = 0.0
            for b in range(0, n, batch_size):
                batch = order[b : b + batch_size]
                grad_sum = None
                for idx in batch:
                    tensor, boxes = prepared[idx]
                    aug_rng = np.random.default_rng([cfg.seed, STREAM_AUGMENT, epoch, int(idx)])
                    tensor, boxes = augment(tensor, boxes, cfg.augment, aug_rng)
                    loss, grads = _image_grads(cfg, grid, params, tensor, boxes)
                    if not math.isfinite(loss):
                        raise NumericError(
                            f"non-finite loss at epoch {epoch} batch {b // batch_size} "
                            f"(sample {train_samples[idx].path})"
                        )
                    loss_sum += loss
                    if grad_sum is None:
                        grad_sum = grads
                    else:
                        for name in grad_sum:
                            grad_sum[name] += grads[name]
                scale = 1.0 / len(batch)
                for name in grad_sum:
                    grad_sum[name] *= scale
                adam_step(params, grad_sum, state, lr=cfg.training.lr)

            row = {"epoch": epoch, "train_loss": loss_sum / n}
            scheduled = (epoch + 1) % cfg.training.eval_every == 0
            last = epoch == cfg.training.epochs - 1
            if val_samples is not None and (scheduled or last):
                report, _ = evaluate_params(params, cfg, val_samples, grid)
                row["val_map"] = report["map"]
                row["val_ap50"] = report["ap50"]
                final_val = report
            if scheduled and not last:
                save_checkpoint(partial_path, build_checkpoint(params, state, config_echo))
            mf.write(json.dumps(row) + "\n")
            mf.flush()
            metrics.append(row)

    # written through <name>.partial, so this also retires the periodic checkpoint
    save_checkpoint(ckpt_path, build_checkpoint(params, state, config_echo))
    os.replace(metrics_partial, metrics_path)
    return TrainResult(
        checkpoint_path=str(ckpt_path),
        metrics_path=str(metrics_path),
        metrics=metrics,
        final_val=final_val,
    )


def check_param_shapes(params: dict, cfg: RunConfig) -> None:
    """Compare a loaded parameter dict against what the config would build."""
    expected = param_shapes(cfg.network, cfg.anchors)
    for name, shape in expected.items():
        if name not in params:
            raise ValidationError(f"checkpoint is missing tensor '{name}'")
        if params[name].shape != shape:
            raise ValidationError(
                f"checkpoint tensor '{name}' has shape {params[name].shape}, "
                f"config expects {shape}"
            )
    extra = set(params) - set(expected)
    if extra:
        raise ValidationError(f"checkpoint has unexpected tensors: {sorted(extra)}")


def _leaves(tree: dict, prefix: str = "") -> dict:
    """Nested config dict -> {"section.field": value}; lists stay whole."""
    out = {}
    for key, value in tree.items():
        if isinstance(value, dict):
            out.update(_leaves(value, f"{prefix}{key}."))
        else:
            out[prefix + key] = value
    return out


def check_config_echo(ckpt: Checkpoint, cfg: RunConfig, resume: bool) -> None:
    """Reject a checkpoint whose config echo differs from cfg where it matters.

    Inference compares INFERENCE_FIELDS, a resumed run every field outside
    RESUME_FREE_FIELDS. Only fields both sides have are compared, so an echo
    that still carries a key this schema removed keeps loading.
    """
    try:
        echo = _leaves(ckpt.config())
    except (ValueError, AttributeError) as e:
        raise ValidationError(f"checkpoint config echo is not a JSON object: {e}") from e
    current = _leaves(json.loads(canonical_json(run_config_to_dict(cfg))))

    def compared(key):
        if resume:
            return not key.startswith(RESUME_FREE_FIELDS)
        return key.startswith(INFERENCE_FIELDS)

    differing = [k for k, v in current.items() if compared(k) and k in echo and echo[k] != v]
    if differing:
        raise ValidationError(
            f"checkpoint was trained under a different config; fields that differ: "
            f"{', '.join(differing)}"
        )


def load_params_for_config(ckpt: Checkpoint, cfg: RunConfig, resume: bool = False) -> dict:
    """The checkpoint's parameters, once they fit cfg and every tensor is finite.

    Every checkpoint a run reads comes through here: `eval`, `detect` and
    `train --resume`. The config echo is compared first (see
    check_config_echo); the Adam moments are checked for finiteness too.
    """
    check_config_echo(ckpt, cfg, resume)
    params = ckpt.params()
    check_param_shapes(params, cfg)
    for name, tensor in ckpt.tensors.items():
        if not np.isfinite(tensor).all():
            raise NumericError(f"checkpoint tensor '{name}' has non-finite values")
    return params
