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
from .losses import LossConfig, loss_targets, sigmoid_focal_loss, smooth_l1, total_detection_loss
from .network import INPUT_CHANNELS, backward, forward, init_params

STREAM_GRADCHECK = 505

FOCAL_TOL = 1e-6
SMOOTH_L1_TOL = 1e-6
LAYER_TOL = 1e-4
TOTAL_LOSS_TOL = 1e-4
END_TO_END_TOL = 1e-3


def _worst_error(scalar, probes, floor) -> float:
    """Worst relative error of central differences of scalar() against analytic values.

    Each probe (flat, i, analytic, h) steps the array entry flat[i] by +-h,
    restores it, and compares (up - down) / 2h with the analytic derivative;
    the relative error's denominator is at least floor.
    """
    worst = 0.0
    for flat, i, analytic, h in probes:
        orig = flat[i]
        flat[i] = orig + h
        up = scalar()
        flat[i] = orig - h
        down = scalar()
        flat[i] = orig
        numeric = (up - down) / (2.0 * h)
        worst = max(worst, abs(analytic - numeric) / max(abs(analytic), abs(numeric), floor))
    return worst


def _check_scalar_loss(name, draws, perturb) -> float:
    """Worst FD error (h = 1e-5) over (x, loss_fn) draws; loss_fn gives (1,) (loss, grad)."""
    worst = 0.0
    for x, loss_fn in draws:
        arr = np.array([x])
        probe = (arr, 0, perturb(name, float(loss_fn(arr)[1][0])), 1e-5)
        worst = max(worst, _worst_error(lambda: float(loss_fn(arr)[0][0]), [probe], 1e-10))
    return worst


def check_focal_loss(rng, perturb) -> float:
    """100 random (logit, target, gamma, alpha) tuples."""

    def draw():
        logit = float(rng.uniform(-6.0, 6.0))
        t = np.array([float(rng.integers(0, 2))])
        gamma = float(rng.choice([0.0, 1.0, 2.0]))
        cfg = LossConfig(gamma=gamma, alpha=float(rng.choice([0.25, 0.5])))
        return logit, lambda x: sigmoid_focal_loss(x, t, cfg)

    return _check_scalar_loss("focal_loss", (draw() for _ in range(100)), perturb)


def check_smooth_l1(rng, perturb) -> float:
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

    probes = []
    for arg, agrad in zip(args, grad_fn(proj, *args)):
        flat, gflat = arg.reshape(-1), perturb(perturb_key, agrad).reshape(-1)
        picks = rng.choice(flat.size, size=min(n_probe, flat.size), replace=False)
        probes += [(flat, i, float(gflat[i]), 1e-6 * max(1.0, abs(flat[i]))) for i in picks]
    return _worst_error(scalar, probes, 1e-8)


def check_conv2d(rng, perturb) -> float:
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


def check_upsample(rng, perturb) -> float:
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


def check_total_loss(rng, perturb) -> float:
    loss_cfg = LossConfig()
    assignment, logits, deltas = _small_instance(rng)
    labels, targets = loss_targets([assignment])
    _, g_cls, g_box = total_detection_loss(logits[None], deltas[None], labels, targets, loss_cfg)
    g_cls = perturb("total_loss", g_cls)

    def scalar():
        val, _, _ = total_detection_loss(logits[None], deltas[None], labels, targets, loss_cfg)
        return val[0]

    probes = []
    for arr, grad in ((logits, g_cls), (deltas, g_box)):
        flat, gflat = arr.reshape(-1), grad.reshape(-1)
        probes += [(flat, i, float(gflat[i]), 1e-5) for i in range(flat.size)]
    return _worst_error(scalar, probes, 1e-8)


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


def check_end_to_end(cfg: RunConfig, rng, perturb, n_params=200) -> float:
    """FD through forward + total_detection_loss + backward on a batch of one 16x16 image."""
    params = _well_conditioned_params(cfg.network, cfg.anchors, rng)
    image = rng.standard_normal((1, INPUT_CHANNELS, 16, 16)) * 0.3

    grid = generate_anchors(cfg.anchors, 16, 16)
    gts = np.array([[2.0, 1.0, 8.0, 13.0], [7.0, 3.0, 13.0, 15.0]])
    labels, targets = loss_targets([assign_targets(grid, gts, cfg.anchors)])

    def scalar():
        (cls_rows, box_rows), _ = forward(image, params, cfg.network, cfg.anchors)
        val, _, _ = total_detection_loss(cls_rows, box_rows, labels, targets, cfg.loss)
        return val[0]

    (cls_rows, box_rows), cache = forward(image, params, cfg.network, cfg.anchors)
    _, g_cls, g_box = total_detection_loss(cls_rows, box_rows, labels, targets, cfg.loss)
    grads = perturb("end_to_end", backward(cache, g_cls, g_box))

    # probed parameter by parameter: each probe restores its entry, so the order is free
    sizes = {name: p.size for name, p in sorted(params.items())}
    total = sum(sizes.values())
    picks = rng.choice(total, size=min(n_params, total), replace=False)
    probes, off = [], 0
    for name, size in sizes.items():
        flat, gflat = params[name].reshape(-1), grads[name].reshape(-1)
        for i in picks[(picks >= off) & (picks < off + size)] - off:
            probes.append((flat, i, float(gflat[i]), 1e-6 * max(1.0, abs(flat[i]))))
        off += size
    return _worst_error(scalar, probes, 1e-6)


def run_gradcheck(cfg: RunConfig, perturb=None) -> dict:
    """Run every suite; report max relative error per suite and pass flags."""
    suites = []
    perturb = perturb or (lambda name, analytic: analytic)

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
