"""Training loop and the shared inference/evaluation path.

Training reads and preprocesses every image once, into a cache. Pipeline
per minibatch: augment and anchor assignment per image -> one forward over
the stacked images -> each image's detection loss -> one backward. The
batch's summed gradients are divided by the batch size and fed to Adam.
Evaluation reads, preprocesses, infers and decodes EVAL_CHUNK images at a
time. Validation mAP runs the exact decode + NMS + COCO path used by `eval`,
so the reported number is the deployable metric.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .anchors import AnchorGrid, assign_targets, generate_anchors
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


# images `eval` reads, preprocesses, infers and decodes at a time; an image's
# detections do not depend on its chunk, only the memory and the speed do
EVAL_CHUNK = 32


@dataclass
class Sample:
    """A manifest entry: where its image is, its ground truth and its id; no pixels."""

    path: str
    boxes: np.ndarray  # (G, 4) corners in original-image pixels
    image_id: int


def load_samples(manifest_path) -> list[Sample]:
    """Read a manifest; paths resolve against the manifest dir and must exist.

    The images themselves are read where they are used (prepare_eval_input).
    """
    base = Path(manifest_path).parent
    samples = []
    for i, rec in enumerate(read_manifest(manifest_path)):
        img_path = Path(rec.image_path)
        if not img_path.is_absolute():
            img_path = base / img_path
        if not img_path.exists():
            raise ValidationError(f"manifest references missing image: {img_path}")
        samples.append(Sample(path=str(img_path), boxes=rec.boxes, image_id=i))
    return samples


def prepare_eval_input(sample: Sample, cfg: RunConfig):
    """Read the sample's image: its input tensor plus ground truth in the input pixel frame."""
    in_w, in_h = cfg.training.input_size
    image = load_ppm(sample.path)
    _, h, w = image.shape
    tensor = preprocess(image, (in_w, in_h))
    sx, sy = in_w / w, in_h / h
    return tensor, sample.boxes * np.array([sx, sy, sx, sy])


def infer_detections(params, cfg: RunConfig, grid: AnchorGrid, tensors, image_ids) -> Detections:
    """Detections of a batch of preprocessed (3, H, W) inputs, in batch order.

    grid is generate_anchors(cfg.anchors, *cfg.training.input_size), built
    once by the caller.
    """
    in_w, in_h = cfg.training.input_size
    (cls_rows, box_rows), _ = forward(np.stack(tensors), params, cfg.network, cfg.anchors)
    return decode_detections(cls_rows, box_rows, grid, cfg.eval, in_w, in_h, image_ids)


def evaluate_params(params, cfg: RunConfig, samples: list[Sample]):
    """Full eval, reading the images EVAL_CHUNK at a time; returns (report, Detections)."""
    grid = generate_anchors(cfg.anchors, *cfg.training.input_size)
    parts = []
    all_gts = {}
    for start in range(0, len(samples), EVAL_CHUNK):
        chunk = samples[start : start + EVAL_CHUNK]
        tensors = []
        for sample in chunk:
            tensor, all_gts[sample.image_id] = prepare_eval_input(sample, cfg)
            tensors.append(tensor)
        parts.append(infer_detections(params, cfg, grid, tensors, [s.image_id for s in chunk]))
    dets = Detections.concat(parts)
    return coco_map(dets, all_gts, cfg.eval), dets


@dataclass
class TrainResult:
    checkpoint_path: str
    metrics_path: str
    metrics: list[dict]
    final_val: dict | None


def _prior_metrics_rows(checkpoint_path, epochs: int) -> list[str]:
    """The metrics rows of epochs 0..epochs-1 of the run that wrote a checkpoint.

    They sit next to the checkpoint, in metrics.jsonl, or in
    metrics.jsonl.partial for a periodic <checkpoint>.partial. The lines come
    back verbatim, so a resumed run's metrics.jsonl matches a straight run's.
    """
    ckpt = Path(checkpoint_path)
    name = "metrics.jsonl.partial" if ckpt.name.endswith(".partial") else "metrics.jsonl"
    path = ckpt.with_name(name)
    if not path.is_file():
        raise ValidationError(f"cannot resume: metrics file {path} of the resumed run is missing")
    lines = path.read_text(encoding="utf-8").splitlines()[:epochs]
    try:
        found = [json.loads(line)["epoch"] for line in lines]
    except (ValueError, TypeError, KeyError):
        found = None
    if found != list(range(epochs)):
        raise ValidationError(
            f"cannot resume: {path} must begin with the rows of epochs 0..{epochs - 1}, "
            f"one per epoch in order"
        )
    return lines


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
    # the preprocessed inputs and input-frame boxes, read once; augmentation
    # operates in the input frame every epoch
    prepared = [prepare_eval_input(s, cfg) for s in train_samples]
    for sample in val_samples or ():
        load_ppm(sample.path)  # an unreadable val image fails now, not after training

    in_w, in_h = cfg.training.input_size
    grid = generate_anchors(cfg.anchors, in_w, in_h)
    config_echo = canonical_json(run_config_to_dict(cfg))

    n = len(train_samples)
    batch_size = cfg.training.batch_size
    steps_per_epoch = math.ceil(n / batch_size)
    carried: list[str] = []
    if resume is not None:
        ckpt = load_checkpoint(resume)
        params = load_params_for_config(ckpt, cfg, resume=True)
        state = ckpt.adam_state()
        if state.step % steps_per_epoch:
            raise ValidationError(
                f"checkpoint step {state.step} is not on an epoch boundary: {n} images at "
                f"batch size {batch_size} make {steps_per_epoch} steps per epoch"
            )
        carried = _prior_metrics_rows(resume, state.step // steps_per_epoch)
    else:
        rng = np.random.default_rng([cfg.seed, STREAM_INIT])
        params = init_params(cfg.network, cfg.anchors, rng)
        state = AdamState.zeros_like(params)
    start_epoch = state.step // steps_per_epoch

    out.mkdir(parents=True, exist_ok=True)
    ckpt_path = Path(cfg.training.checkpoint_path)
    if not ckpt_path.is_absolute():
        ckpt_path = out / ckpt_path
    partial_path = ckpt_path.with_name(ckpt_path.name + ".partial")
    metrics_path = out / "metrics.jsonl"
    metrics_partial = out / "metrics.jsonl.partial"

    metrics = [json.loads(line) for line in carried]
    final_val = None
    with open(metrics_partial, "w", encoding="utf-8") as mf:
        mf.writelines(line + "\n" for line in carried)
        for epoch in range(start_epoch, cfg.training.epochs):
            order = np.random.default_rng([cfg.seed, STREAM_SHUFFLE, epoch]).permutation(n)
            loss_sum = 0.0
            for b in range(0, n, batch_size):
                batch = order[b : b + batch_size]
                tensors, assignments = [], []
                for idx in batch:
                    tensor, boxes = prepared[idx]
                    aug_rng = np.random.default_rng([cfg.seed, STREAM_AUGMENT, epoch, int(idx)])
                    tensor, boxes = augment(tensor, boxes, cfg.augment, aug_rng)
                    tensors.append(tensor)
                    assignments.append(assign_targets(grid, boxes, cfg.anchors))
                (cls_rows, box_rows), cache = forward(
                    np.stack(tensors), params, cfg.network, cfg.anchors
                )
                g_cls, g_box = np.empty_like(cls_rows), np.empty_like(box_rows)
                for i, idx in enumerate(batch):
                    # normalized by the image's own max(1, num_pos), as if it ran alone
                    loss, g_cls[i], g_box[i] = total_detection_loss(
                        cls_rows[i], box_rows[i], assignments[i], cfg.loss
                    )
                    if not math.isfinite(loss):
                        raise NumericError(
                            f"non-finite loss at epoch {epoch} batch {b // batch_size} "
                            f"(sample {train_samples[idx].path})"
                        )
                    loss_sum += loss
                grads = backward(cache, g_cls, g_box)
                scale = 1.0 / len(batch)
                for name in grads:
                    grads[name] *= scale
                adam_step(params, grads, state, lr=cfg.training.lr)

            row = {"epoch": epoch, "train_loss": loss_sum / n}
            scheduled = (epoch + 1) % cfg.training.eval_every == 0
            last = epoch == cfg.training.epochs - 1
            if val_samples is not None and (scheduled or last):
                report, _ = evaluate_params(params, cfg, val_samples)
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
