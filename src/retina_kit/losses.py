"""Sigmoid focal loss and smooth-L1, each with its analytic gradient.

Elementwise math follows the dtype of the inputs (float64 in the
finite-difference suites, float32 in training); scalar reductions over
anchors always accumulate in float64.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Annotated

import numpy as np

from .anchors import IGNORE, POSITIVE
from .errors import ABOVE_0, AT_LEAST_0, Bounds, ValidationError, check_fields
from .layers import sigmoid, softplus


@dataclass
class LossConfig:
    gamma: Annotated[float, AT_LEAST_0] = 2.0
    alpha: Annotated[float, Bounds(0, 1, open_lo=True)] = 0.25
    smooth_l1_beta: Annotated[float, ABOVE_0] = 1.0 / 9.0

    def __post_init__(self):
        check_fields(self, "loss")


def sigmoid_focal_loss(logits, targets, config: LossConfig):
    """Per-element focal loss and its gradient with respect to the logits.

    With p = sigmoid(logit), p_t = p for target 1 else 1-p, and alpha_t the
    matching class weight: loss = -alpha_t * (1 - p_t)^gamma * log(p_t).
    log(p_t) is computed through log-sigmoid(x) = -softplus(-x), so nothing
    underflows for |logit| up to 80.
    """
    x = np.asarray(logits)
    if x.dtype.kind != "f":
        x = x.astype(np.float64)
    t = np.asarray(targets)
    if x.shape != t.shape:
        raise ValidationError(f"logits shape {x.shape} != targets shape {t.shape}")
    if t.size and not np.all((t == 0) | (t == 1)):
        raise ValidationError("targets must be binary (0 or 1)")
    t = t.astype(x.dtype)

    sign = 2.0 * t - 1.0
    z = sign * x  # logit seen from the target's side
    log_pt = -softplus(-z)
    one_minus_pt = sigmoid(-z)
    pt_grad_factor = sigmoid(z)
    alpha_t = config.alpha * t + (1.0 - config.alpha) * (1.0 - t)

    mod = one_minus_pt**config.gamma
    loss = alpha_t * mod * (-log_pt)
    grad = -sign * alpha_t * mod * (config.gamma * pt_grad_factor * (-log_pt) + one_minus_pt)
    return loss, grad


def smooth_l1(pred, target, beta: float):
    """Huber-style loss: quadratic within beta of the target, linear beyond.

    loss = d^2 / (2 beta) for |d| < beta, else |d| - beta / 2, with
    d = pred - target; value and gradient are continuous at |d| = beta.
    """
    p = np.asarray(pred)
    if p.dtype.kind != "f":
        p = p.astype(np.float64)
    t = np.asarray(target, dtype=p.dtype)
    if p.shape != t.shape:
        raise ValidationError(f"pred shape {p.shape} != target shape {t.shape}")
    if beta <= 0:
        raise ValidationError(f"beta must be > 0, got {beta}")
    d = p - t
    quad = np.abs(d) < beta
    loss = np.where(quad, d * d / (2.0 * beta), np.abs(d) - beta / 2.0)
    grad = np.where(quad, d / beta, np.sign(d))
    return loss, grad


def loss_targets(assignments) -> tuple[np.ndarray, np.ndarray]:
    """Per-image assignments as total_detection_loss's (labels, target_deltas)."""
    labels = np.stack([a.labels for a in assignments])
    return labels, np.concatenate([a.deltas[a.labels == POSITIVE] for a in assignments])


def total_detection_loss(cls_rows, box_rows, labels, target_deltas, config: LossConfig):
    """Normalized detection loss of each image of a batch.

    cls_rows (B, N) holds one logit per anchor (the detector has one class,
    so the target is the anchor's positive flag), box_rows (B, N, 4) the
    regression deltas and labels (B, N) each anchor's POSITIVE / NEGATIVE /
    IGNORE. target_deltas (P, 4) are the regression targets of the
    positives, in the order of box_rows[labels == POSITIVE] (see
    loss_targets).

    Per image, classification focal loss is summed over positive and
    negative anchors (ignored anchors contribute nothing, to loss or
    gradient) and smooth-L1 regression over positives only. Both sums and
    both gradients are divided by max(1, the image's positive count), as if
    the image ran alone. The elementwise math runs once over the batch; each
    image's float64 sums run over its own anchors, in anchor order.

    Returns (losses (B,) float64, grad_wrt_cls_rows, grad_wrt_box_rows).
    """
    logits = np.asarray(cls_rows)
    deltas = np.asarray(box_rows)
    labels = np.asarray(labels)
    if labels.ndim != 2:
        raise ValidationError(f"labels must be (B, N), got shape {labels.shape}")
    b, n = labels.shape
    if logits.shape != (b, n):
        raise ValidationError(f"cls_rows must be ({b}, {n}), got shape {logits.shape}")
    if deltas.shape != (b, n, 4):
        raise ValidationError(f"box_rows must be ({b}, {n}, 4), got shape {deltas.shape}")

    pos = labels == POSITIVE
    valid = labels != IGNORE
    counts = pos.sum(axis=1)
    if np.shape(target_deltas) != (counts.sum(), 4):
        raise ValidationError(
            f"target_deltas must be ({counts.sum()}, 4), got shape {np.shape(target_deltas)}"
        )
    norms = np.maximum(counts, 1)
    # float32, so a float32 gradient stays float32; small counts are exact
    norm_col = norms.astype(np.float32)[:, None]

    cls_elem, cls_grad = sigmoid_focal_loss(logits, pos, config)
    grad_cls = np.where(valid, cls_grad, 0.0) / norm_col
    reg_elem, reg_grad = smooth_l1(deltas[pos], target_deltas, config.smooth_l1_beta)
    grad_box = np.zeros_like(deltas, dtype=cls_grad.dtype)
    grad_box[pos] = reg_grad / np.repeat(norm_col, counts, axis=0)

    losses = np.empty(b)
    ends = np.cumsum(counts).tolist()
    for i, (norm, end, count) in enumerate(zip(norms.tolist(), ends, counts.tolist())):
        cls_sum = float(np.sum(cls_elem[i][valid[i]], dtype=np.float64))
        reg_sum = float(np.sum(reg_elem[end - count : end], dtype=np.float64))
        losses[i] = (cls_sum + reg_sum) / norm
    return losses, grad_cls, grad_box
