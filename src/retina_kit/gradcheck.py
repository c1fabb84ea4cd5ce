"""Finite-difference verification of every analytic gradient.

All suites run in float64 with central differences. The report is
deterministic for a given config (seeded draws, no timing fields). A
`perturb(suite_name, analytic)` hook lets the test harness corrupt one
analytic gradient and confirm the suite catches it.
"""

from __future__ import annotations

import numpy as np

from .anchors import AnchorConfig, AnchorLevel, assign_targets, generate_anchors
from .config import RunConfig
from .layers import conv2d_backward, conv2d_forward, upsample_nearest_x2, upsample_nearest_x2_backward
from .losses import LossConfig, sigmoid_focal_loss, smooth_l1, total_detection_loss
from .network import INPUT_CHANNELS, backward, forward, init_params

STREAM_GRADCHECK = 505

FOCAL_TOL = 1e-6
SMOOTH_L1_TOL = 1e-6
LAYER_TOL = 1e-4
TOTAL_LOSS_TOL = 1e-4
END_TO_END_TOL = 1e-3


def _rel_err(analytic, numeric, floor):
    return abs(analytic - numeric) / max(abs(analytic), abs(numeric), floor)


def _central_diff(f, x0, h):
    return (f(x0 + h) - f(x0 - h)) / (2.0 * h)


def _probe(flat, i, scalar, h):
    """Central difference of scalar() in the array entry flat[i], which is restored."""
    orig = flat[i]
    flat[i] = orig + h
    up = scalar()
    flat[i] = orig - h
    down = scalar()
    flat[i] = orig
    return (up - down) / (2.0 * h)


def _check_scalar_loss(name, draws, perturb) -> float:
    """Worst FD error (h = 1e-5) over (x, loss_fn) draws; loss_fn gives (1,) (loss, grad)."""
    worst = 0.0
    for x, loss_fn in draws:
        analytic = float(loss_fn(np.array([x]))[1][0])
        if perturb is not None:
            analytic = perturb(name, analytic)
        numeric = _central_diff(lambda v: float(loss_fn(np.array([v]))[0][0]), x, 1e-5)
        worst = max(worst, _rel_err(analytic, numeric, 1e-10))
    return worst


def check_focal_loss(rng, perturb=None) -> float:
    """100 random (logit, target, gamma, alpha) tuples."""

    def draw():
        logit = float(rng.uniform(-6.0, 6.0))
        t = np.array([float(rng.integers(0, 2))])
        gamma = float(rng.choice([0.0, 1.0, 2.0]))
        cfg = LossConfig(gamma=gamma, alpha=float(rng.choice([0.25, 0.5])))
        return logit, lambda x: sigmoid_focal_loss(x, t, cfg)

    return _check_scalar_loss("focal_loss", (draw() for _ in range(100)), perturb)


def check_smooth_l1(rng, perturb=None) -> float:
    beta = 1.0 / 9.0

    def draw():
        # keep the sample away from the |d| = beta kink by more than the step
        d = float(rng.uniform(-2.0, 2.0))
        if abs(abs(d) - beta) < 1e-3:
            d += 2e-3
        return d, lambda x: smooth_l1(x, np.zeros(1), beta)

    return _check_scalar_loss("smooth_l1", (draw() for _ in range(100)), perturb)


def _check_map_gradient(forward_fn, grad_fn, args: list[np.ndarray], rng, n_probe, perturb_key, perturb):
    """Generic FD check of a multi-input array op against a random projection."""
    out0 = forward_fn(*args)
    proj = rng.standard_normal(out0.shape)

    def scalar():
        return float(np.sum(forward_fn(*args) * proj))

    analytic_grads = grad_fn(proj, *args)
    if perturb is not None:
        analytic_grads = [perturb(perturb_key, g) for g in analytic_grads]
    worst = 0.0
    for arg, agrad in zip(args, analytic_grads):
        flat = arg.reshape(-1)
        gflat = agrad.reshape(-1)
        count = min(n_probe, flat.size)
        picks = rng.choice(flat.size, size=count, replace=False)
        for i in picks:
            numeric = _probe(flat, i, scalar, 1e-6 * max(1.0, abs(flat[i])))
            worst = max(worst, _rel_err(float(gflat[i]), numeric, 1e-8))
    return worst


def check_conv2d(rng, perturb=None) -> float:
    worst = 0.0
    for stride, k in ((1, 3), (2, 3), (1, 1), (2, 1)):
        inp = rng.standard_normal((2, 2, 5, 6))  # (C, B, H, W): two images
        weights = rng.standard_normal((3, 2, k, k))
        bias = rng.standard_normal(3)
        err = _check_map_gradient(
            lambda i, w, b: conv2d_forward(i, w, b, stride),
            lambda proj, i, w, b: list(conv2d_backward(i, w, stride, proj)),
            [inp, weights, bias], rng, 25, "conv2d", perturb,
        )
        worst = max(worst, err)
    return worst


def check_upsample(rng, perturb=None) -> float:
    inp = rng.standard_normal((2, 2, 3, 4))
    return _check_map_gradient(
        upsample_nearest_x2, lambda proj, i: [upsample_nearest_x2_backward(proj)],
        [inp], rng, 24, "upsample", perturb,
    )


def _small_instance(rng):
    """A two-dozen-anchor, 2-gt toy scene for the composed-loss check."""
    cfg = AnchorConfig(
        levels=(AnchorLevel(8, 12.0),),
        scales=(1.0, 1.4),
        ratios=(0.5, 1.0, 2.0),
        pos_iou=0.4,
        neg_iou=0.3,
    )
    grid = generate_anchors(cfg, 16, 16)
    gts = np.array([[1.0, 1.0, 9.0, 13.0], [6.0, 2.0, 14.0, 15.0]])
    assignment = assign_targets(grid, gts, cfg)
    n = len(grid)
    logits = rng.standard_normal(n) * 2.0
    deltas = rng.standard_normal((n, 4)) * 0.3
    return assignment, logits, deltas


def check_total_loss(rng, perturb=None) -> float:
    loss_cfg = LossConfig()
    assignment, logits, deltas = _small_instance(rng)
    _, g_cls, g_box = total_detection_loss(logits, deltas, assignment, loss_cfg)
    if perturb is not None:
        g_cls = perturb("total_loss", g_cls)

    def scalar():
        val, _, _ = total_detection_loss(logits, deltas, assignment, loss_cfg)
        return val

    worst = 0.0
    for arr, grad in ((logits, g_cls), (deltas, g_box)):
        flat = arr.reshape(-1)
        gflat = grad.reshape(-1)
        for i in range(flat.size):
            worst = max(worst, _rel_err(float(gflat[i]), _probe(flat, i, scalar, 1e-5), 1e-8))
    return worst


def _well_conditioned_params(net_cfg, anchors, rng):
    """Network parameters at a fan-in-scaled random point.

    Central differences need pre-activations well away from the ReLU kinks;
    the tiny training-time init puts them so close to zero that every probe
    crosses a kink. Backward-pass correctness is point-independent, so the
    check redraws every weight at std sqrt(2 / fan_in) and keeps the biases
    (including the classification prior).
    """
    params = {k: v.astype(np.float64) for k, v in init_params(net_cfg, anchors, rng).items()}
    for name, p in params.items():
        if name.endswith(".w"):
            fan_in = p[0].size
            params[name] = rng.normal(0.0, np.sqrt(2.0 / fan_in), size=p.shape)
    return params


def check_end_to_end(cfg: RunConfig, rng, perturb=None, n_params=200) -> float:
    """FD through forward + total_detection_loss + backward on a batch of one 16x16 image."""
    params = _well_conditioned_params(cfg.network, cfg.anchors, rng)
    image = rng.standard_normal((1, INPUT_CHANNELS, 16, 16)) * 0.3

    grid = generate_anchors(cfg.anchors, 16, 16)
    gts = np.array([[2.0, 1.0, 8.0, 13.0], [7.0, 3.0, 13.0, 15.0]])
    assignment = assign_targets(grid, gts, cfg.anchors)

    def scalar():
        (cls_rows, box_rows), _ = forward(image, params, cfg.network, cfg.anchors)
        val, _, _ = total_detection_loss(cls_rows[0], box_rows[0], assignment, cfg.loss)
        return val

    (cls_rows, box_rows), cache = forward(image, params, cfg.network, cfg.anchors)
    _, g_cls, g_box = total_detection_loss(cls_rows[0], box_rows[0], assignment, cfg.loss)
    grads = backward(cache, g_cls[None], g_box[None])
    if perturb is not None:
        grads = perturb("end_to_end", grads)

    names = sorted(params)
    sizes = np.array([params[nm].size for nm in names])
    total = int(sizes.sum())
    count = min(n_params, total)
    picks = rng.choice(total, size=count, replace=False)
    offsets = np.cumsum(sizes) - sizes

    worst = 0.0
    for pick in picks:
        which = int(np.searchsorted(offsets, pick, side="right") - 1)
        name = names[which]
        flat = params[name].reshape(-1)
        i = int(pick - offsets[which])
        numeric = _probe(flat, i, scalar, 1e-6 * max(1.0, abs(flat[i])))
        analytic = float(grads[name].reshape(-1)[i])
        worst = max(worst, _rel_err(analytic, numeric, 1e-6))
    return worst


def run_gradcheck(cfg: RunConfig, perturb=None) -> dict:
    """Run every suite; report max relative error per suite and pass flags."""
    suites = []

    def run(name, tol, fn):
        rng = np.random.default_rng([cfg.seed, STREAM_GRADCHECK, len(suites)])
        err = fn(rng)
        suites.append(
            {"name": name, "max_rel_error": err, "threshold": tol, "passed": bool(err < tol)}
        )

    run("focal_loss", FOCAL_TOL, lambda rng: check_focal_loss(rng, perturb))
    run("smooth_l1", SMOOTH_L1_TOL, lambda rng: check_smooth_l1(rng, perturb))
    run("conv2d", LAYER_TOL, lambda rng: check_conv2d(rng, perturb))
    run("upsample", LAYER_TOL, lambda rng: check_upsample(rng, perturb))
    run("total_loss", TOTAL_LOSS_TOL, lambda rng: check_total_loss(rng, perturb))
    run("end_to_end", END_TO_END_TOL, lambda rng: check_end_to_end(cfg, rng, perturb))
    return {"suites": suites, "passed": all(s["passed"] for s in suites)}
