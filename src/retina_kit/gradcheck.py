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
from .network import backward, flatten_level_outputs, forward, init_params, unflatten_row_grads

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


def check_focal_loss(rng, perturb=None) -> float:
    """100 random (logit, target, gamma, alpha) tuples, h = 1e-5."""
    worst = 0.0
    for _ in range(100):
        logit = float(rng.uniform(-6.0, 6.0))
        target = float(rng.integers(0, 2))
        gamma = float(rng.choice([0.0, 1.0, 2.0]))
        alpha = float(rng.choice([0.25, 0.5]))
        cfg = LossConfig(gamma=gamma, alpha=alpha)
        t = np.array([target])

        def scalar(x):
            loss, _ = sigmoid_focal_loss(np.array([x], dtype=np.float64), t, cfg)
            return float(loss[0])

        _, grad = sigmoid_focal_loss(np.array([logit], dtype=np.float64), t, cfg)
        analytic = float(grad[0])
        if perturb is not None:
            analytic = perturb("focal_loss", analytic)
        numeric = _central_diff(scalar, logit, 1e-5)
        worst = max(worst, _rel_err(analytic, numeric, 1e-10))
    return worst


def check_smooth_l1(rng, perturb=None) -> float:
    worst = 0.0
    beta = 1.0 / 9.0
    for _ in range(100):
        # keep the sample away from the |d| = beta kink by more than the step
        d = float(rng.uniform(-2.0, 2.0))
        if abs(abs(d) - beta) < 1e-3:
            d += 2e-3
        pred = np.array([d], dtype=np.float64)
        target = np.zeros(1)

        def scalar(x):
            loss, _ = smooth_l1(np.array([x], dtype=np.float64), target, beta)
            return float(loss[0])

        _, grad = smooth_l1(pred, target, beta)
        analytic = float(grad[0])
        if perturb is not None:
            analytic = perturb("smooth_l1", analytic)
        numeric = _central_diff(scalar, d, 1e-5)
        worst = max(worst, _rel_err(analytic, numeric, 1e-10))
    return worst


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
            orig = flat[i]
            h = 1e-6 * max(1.0, abs(orig))
            flat[i] = orig + h
            up = scalar()
            flat[i] = orig - h
            down = scalar()
            flat[i] = orig
            numeric = (up - down) / (2.0 * h)
            worst = max(worst, _rel_err(float(gflat[i]), numeric, 1e-8))
    return worst


def check_conv2d(rng, perturb=None) -> float:
    worst = 0.0
    for stride, k in ((1, 3), (2, 3), (1, 1), (2, 1)):
        inp = rng.standard_normal((2, 5, 6))
        weights = rng.standard_normal((3, 2, k, k))
        bias = rng.standard_normal(3)

        def fwd(i, w, b):
            return conv2d_forward(i, w, b, stride)

        def bwd(proj, i, w, b):
            gi, gw, gb = conv2d_backward(i, w, stride, proj)
            return [gi, gw, gb]

        worst = max(
            worst,
            _check_map_gradient(fwd, bwd, [inp, weights, bias], rng, 25, "conv2d", perturb),
        )
    return worst


def check_upsample(rng, perturb=None) -> float:
    inp = rng.standard_normal((2, 3, 4))

    def fwd(i):
        return upsample_nearest_x2(i)

    def bwd(proj, i):
        return [upsample_nearest_x2_backward(proj)]

    return _check_map_gradient(fwd, bwd, [inp], rng, 24, "upsample", perturb)


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
            orig = flat[i]
            flat[i] = orig + 1e-5
            up = scalar()
            flat[i] = orig - 1e-5
            down = scalar()
            flat[i] = orig
            numeric = (up - down) / 2e-5
            worst = max(worst, _rel_err(float(gflat[i]), numeric, 1e-8))
    return worst


def _well_conditioned_params(net_cfg, strides, rng):
    """Network parameters at a fan-in-scaled random point.

    Central differences need pre-activations well away from the ReLU kinks;
    the tiny training-time init puts them so close to zero that every probe
    crosses a kink. Backward-pass correctness is point-independent, so the
    check redraws every weight at std sqrt(2 / fan_in) and keeps the biases
    (including the classification prior).
    """
    params = {k: v.astype(np.float64) for k, v in init_params(net_cfg, strides, rng).items()}
    for name, p in params.items():
        if name.endswith(".w"):
            fan_in = p[0].size
            params[name] = rng.normal(0.0, np.sqrt(2.0 / fan_in), size=p.shape)
    return params


def check_end_to_end(cfg: RunConfig, rng, perturb=None, n_params=200) -> float:
    """FD through forward + total_detection_loss + backward on a 16x16 image."""
    net_cfg = cfg.network
    strides = cfg.level_strides()
    params = _well_conditioned_params(net_cfg, strides, rng)
    image = rng.standard_normal((net_cfg.input_channels, 16, 16)) * 0.3

    grid = generate_anchors(cfg.anchors, 16, 16)
    gts = np.array([[2.0, 1.0, 8.0, 13.0], [7.0, 3.0, 13.0, 15.0]])
    assignment = assign_targets(grid, gts, cfg.anchors)
    a = net_cfg.num_anchors_per_cell

    def scalar():
        outputs, _ = forward(image, params, net_cfg, strides)
        flat_cls, flat_box = flatten_level_outputs(outputs, a)
        val, _, _ = total_detection_loss(flat_cls, flat_box, assignment, cfg.loss)
        return val

    outputs, cache = forward(image, params, net_cfg, strides)
    flat_cls, flat_box = flatten_level_outputs(outputs, a)
    _, g_cls, g_box = total_detection_loss(flat_cls, flat_box, assignment, cfg.loss)
    grads = backward(cache, unflatten_row_grads(g_cls, g_box, outputs, a))
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
        orig = flat[i]
        h = 1e-6 * max(1.0, abs(orig))
        flat[i] = orig + h
        up = scalar()
        flat[i] = orig - h
        down = scalar()
        flat[i] = orig
        numeric = (up - down) / (2.0 * h)
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
