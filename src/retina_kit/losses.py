"""Sigmoid focal loss and smooth-L1, each with its analytic gradient.

Elementwise math follows the dtype of the inputs (float64 in the
finite-difference suites, float32 in training); scalar reductions over
anchors always accumulate in float64.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .anchors import IGNORE, POSITIVE, AnchorAssignment
from .errors import ValidationError
from .layers import sigmoid, softplus


@dataclass
class LossConfig:
    gamma: float = 2.0
    alpha: float = 0.25
    smooth_l1_beta: float = 1.0 / 9.0

    def __post_init__(self):
        if self.gamma < 0:
            raise ValidationError(f"gamma must be >= 0, got {self.gamma}")
        if not (0.0 < self.alpha <= 1.0):
            raise ValidationError(f"alpha must be in (0, 1], got {self.alpha}")
        if self.smooth_l1_beta <= 0:
            raise ValidationError(f"smooth_l1_beta must be > 0, got {self.smooth_l1_beta}")


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

    if config.gamma == 0:
        mod = np.ones_like(z)
    else:
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


def total_detection_loss(
    cls_logits, box_deltas, assignment: AnchorAssignment, config: LossConfig
):
    """Normalized detection loss over one image's anchors.

    Classification focal loss is summed over positive and negative anchors
    (ignored anchors contribute nothing, to loss or gradient); smooth-L1
    regression is summed over positives only. Both sums and both gradients
    are divided by max(1, num_positive). The detector has one class, so
    cls_logits holds one logit per anchor and the target is the anchor's
    positive flag.

    Returns (scalar_loss, grad_wrt_cls_logits, grad_wrt_box_deltas).
    """
    logits = np.asarray(cls_logits)
    deltas = np.asarray(box_deltas)
    n = assignment.labels.shape[0]
    if logits.shape != (n,):
        raise ValidationError(f"cls_logits must be ({n},), got shape {logits.shape}")
    if deltas.shape != (n, 4):
        raise ValidationError(f"box_deltas must be ({n}, 4), got shape {deltas.shape}")

    pos = assignment.labels == POSITIVE
    valid = assignment.labels != IGNORE
    norm = max(1, assignment.num_positive)

    cls_elem, cls_grad = sigmoid_focal_loss(logits, pos, config)
    cls_sum = float(np.sum(cls_elem[valid], dtype=np.float64))
    grad_cls = np.where(valid, cls_grad, 0.0) / norm

    grad_box = np.zeros_like(deltas, dtype=cls_grad.dtype)
    reg_sum = 0.0
    if np.any(pos):
        reg_elem, reg_grad = smooth_l1(
            deltas[pos], assignment.deltas[pos].astype(deltas.dtype), config.smooth_l1_beta
        )
        reg_sum = float(np.sum(reg_elem, dtype=np.float64))
        grad_box[pos] = reg_grad / norm

    total = (cls_sum + reg_sum) / norm
    return total, grad_cls, grad_box
