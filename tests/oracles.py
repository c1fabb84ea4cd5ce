"""Independent brute-force oracles, and the code only the tests use.

Everything here is deliberately naive: explicit loops, no sorting shortcuts,
one box at a time. Nothing is imported from the package except the `BBox`
row type, the anchor label constants, and the `Detections` container and
`ValidationError` that `read_detections` returns and raises, so no code is
shared with the implementations under test. `transform_box` and
`naive_warp_affine` take a 2x3 affine matrix as given and apply it with their
own numpy; the matrix itself is checked against `naive_augment_transform`,
which composes 3x3 homogeneous matrices. Two oracles are the loops the
batched code replaced, and keep a package function so that they must agree
bit for bit: `naive_nms_indices`, the one-image greedy NMS, keeps
`iou_matrix` (rounding at the threshold included), and
`naive_detection_loss`, the one-image loss, keeps the elementwise focal and
smooth-L1 functions.

The package takes boxes as arrays only; `box_array` turns a `BBox` list into
one. `level_slice` and `read_detections`, the `detections.jsonl` reader, have
no caller in the package.

The tap-GEMM conv pair, the network walk over (C, B, H, W) tensors and the
per-parameter Adam step at the end are the loops the padded tape and the flat
Adam buffer replaced; the fast paths must match them byte for byte. The walk
reads the network's op list and row layout (`network._build`, `_to_rows`,
`_from_rows`) and nothing else of it.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from retina_kit.anchors import IGNORE, NEGATIVE, POSITIVE
from retina_kit.boxes import BBox, boxes_to_array, iou_matrix
from retina_kit.errors import ValidationError
from retina_kit.losses import sigmoid_focal_loss, smooth_l1
from retina_kit.postprocess import Detections

DELTA_CLAMP = math.log(1000.0 / 16.0)


def box_array(boxes) -> np.ndarray:
    """(N, 4) float64 corner array of a BBox sequence."""
    return np.array([b.as_tuple() for b in boxes], dtype=np.float64).reshape(-1, 4)


def level_slice(grid, level: int) -> slice:
    """The rows of grid.anchors that belong to pyramid level `level`."""
    start = sum(grid.per_level_counts[:level])
    return slice(start, start + grid.per_level_counts[level])


def read_detections(path) -> Detections:
    """Parse detections.jsonl; every box must be finite and ordered, every score in [0, 1]."""
    boxes, scores, image_ids = [], [], []
    text = Path(path).read_text(encoding="utf-8")
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
            box = BBox(*(float(v) for v in obj["box"]))
            score = float(obj["score"])
            image_id = int(obj["image_id"])
            if not (0.0 <= score <= 1.0):
                raise ValueError(f"detection score must be in [0, 1], got {score}")
        except (KeyError, TypeError, ValueError) as e:
            raise ValidationError(f"{path}: line {lineno}: {e}") from e
        boxes.append(box)
        scores.append(score)
        image_ids.append(image_id)
    return Detections(
        boxes=box_array(boxes),
        scores=np.array(scores, dtype=np.float64),
        image_ids=np.array(image_ids, dtype=np.int64),
    )


def iou(a: BBox, b: BBox) -> float:
    """Intersection over union in [0, 1]; 0 when the union has zero area."""
    iw = min(a.x2, b.x2) - max(a.x1, b.x1)
    ih = min(a.y2, b.y2) - max(a.y1, b.y1)
    inter = iw * ih if iw > 0.0 and ih > 0.0 else 0.0
    union = a.area + b.area - inter
    if union <= 0.0:
        return 0.0
    return inter / union


def encode(gt: BBox, anchor: BBox) -> tuple[float, float, float, float]:
    """Offsets (tx, ty, tw, th) that map `anchor` onto `gt`."""
    if anchor.width <= 0.0 or anchor.height <= 0.0:
        raise ValueError(f"degenerate anchor: {anchor.as_tuple()}")
    if gt.width <= 0.0 or gt.height <= 0.0:
        raise ValueError(f"degenerate ground-truth box: {gt.as_tuple()}")
    ax, ay = anchor.center
    gx, gy = gt.center
    return (
        (gx - ax) / anchor.width,
        (gy - ay) / anchor.height,
        math.log(gt.width / anchor.width),
        math.log(gt.height / anchor.height),
    )


def decode(anchor: BBox, delta) -> BBox:
    """Inverse of encode; log-size components clamped at DELTA_CLAMP."""
    tx, ty, tw, th = delta
    ax, ay = anchor.center
    cx = ax + tx * anchor.width
    cy = ay + ty * anchor.height
    w = anchor.width * math.exp(min(tw, DELTA_CLAMP))
    h = anchor.height * math.exp(min(th, DELTA_CLAMP))
    return BBox(cx - 0.5 * w, cy - 0.5 * h, cx + 0.5 * w, cy + 0.5 * h)


def clip_to_image(box: BBox, width: float, height: float) -> BBox:
    """Clamp every coordinate into [0, width] x [0, height]."""
    return BBox(
        min(max(box.x1, 0.0), width),
        min(max(box.y1, 0.0), height),
        min(max(box.x2, 0.0), width),
        min(max(box.y2, 0.0), height),
    )


def transform_box(box: BBox, matrix) -> BBox:
    """Axis-aligned envelope of the box's four corners mapped through a 2x3 affine."""
    corners = np.array(
        [
            [box.x1, box.y1],
            [box.x2, box.y1],
            [box.x1, box.y2],
            [box.x2, box.y2],
        ]
    )
    mapped = corners @ matrix[:, :2].T + matrix[:, 2]
    x1, y1 = mapped.min(axis=0)
    x2, y2 = mapped.max(axis=0)
    return BBox(x1, y1, x2, y2)


def naive_augment_boxes(boxes, matrix, width, height, min_box_area_px, min_visible_frac):
    """Augmentation's box rule one box at a time: transform, clip, survive."""
    out = []
    for b in boxes:
        tb = transform_box(b, matrix)
        cb = clip_to_image(tb, width, height)
        if cb.area <= 0 or cb.area < min_box_area_px:
            continue
        if tb.area > 0 and cb.area / tb.area < min_visible_frac:
            continue
        out.append(cb)
    return out


def naive_augment_transform(width, height, config, rng) -> np.ndarray:
    """The augmentation affine as the top two rows of flip @ rotate @ scale @ translate.

    Draws in the documented order (hflip uniform, angle, scale, tx, ty) and
    builds each elementary map as a 3x3 homogeneous matrix; rotation and
    scaling act about the image centre.
    """
    u_flip = rng.uniform()
    angle = rng.uniform(-config.max_rot_deg, config.max_rot_deg)
    scale = rng.uniform(config.scale_min, config.scale_max)
    tx = rng.uniform(-config.translate_frac * width, config.translate_frac * width)
    ty = rng.uniform(-config.translate_frac * height, config.translate_frac * height)

    def shift(dx, dy):
        return np.array([[1.0, 0.0, dx], [0.0, 1.0, dy], [0.0, 0.0, 1.0]])

    def about_centre(m):
        cx, cy = width / 2.0, height / 2.0
        return shift(cx, cy) @ m @ shift(-cx, -cy)

    c, s = math.cos(math.radians(angle)), math.sin(math.radians(angle))
    rotate = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    full = about_centre(rotate) @ about_centre(np.diag([scale, scale, 1.0])) @ shift(tx, ty)
    if u_flip < config.hflip_prob:
        full = np.array([[-1.0, 0.0, width], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]) @ full
    return full[:2]


def naive_warp_affine(image, matrix):
    """Inverse-map the image through the 2x3 affine; bilinear sampling, zero fill.

    Builds the pixel-centre grid afresh and gathers with 2-D fancy indexing,
    accumulating the four corners in the same order as `warp_affine`. The
    inverse map is the same float64 ops as `warp_affine`'s, so the samples
    agree bit for bit.
    """
    img = np.asarray(image)
    _, h, w = img.shape
    inv = np.linalg.inv(matrix[:, :2])
    xs, ys = np.meshgrid(
        np.arange(w, dtype=np.float64) + 0.5, np.arange(h, dtype=np.float64) + 0.5
    )
    pts = np.stack([xs.ravel(), ys.ravel()], axis=1)
    src = pts @ inv.T + -inv @ matrix[:, 2]
    lx = src[:, 0].reshape(h, w) - 0.5
    ly = src[:, 1].reshape(h, w) - 0.5
    x0 = np.floor(lx)
    y0 = np.floor(ly)
    fx = (lx - x0).astype(img.dtype)
    fy = (ly - y0).astype(img.dtype)
    x0 = x0.astype(np.int64)
    y0 = y0.astype(np.int64)

    out = np.zeros_like(img)
    for dy, wy in ((0, 1 - fy), (1, fy)):
        for dx, wx in ((0, 1 - fx), (1, fx)):
            xi = x0 + dx
            yi = y0 + dy
            inside = (xi >= 0) & (xi < w) & (yi >= 0) & (yi < h)
            vals = img[:, np.clip(yi, 0, h - 1), np.clip(xi, 0, w - 1)]
            out += vals * (wy * wx * inside).astype(img.dtype)
    return out


def naive_conv2d(inp, weights, bias, stride):
    """Direct six-nested-loop cross-correlation with zero padding k // 2."""
    c_out, c_in, k, _ = weights.shape
    _, h, w = inp.shape
    pad = k // 2
    oh = -(-h // stride)
    ow = -(-w // stride)
    out = np.zeros((c_out, oh, ow), dtype=inp.dtype)
    for co in range(c_out):
        for oy in range(oh):
            for ox in range(ow):
                acc = bias[co]
                for ci in range(c_in):
                    for ky in range(k):
                        for kx in range(k):
                            iy = oy * stride + ky - pad
                            ix = ox * stride + kx - pad
                            if 0 <= iy < h and 0 <= ix < w:
                                acc = acc + inp[ci, iy, ix] * weights[co, ci, ky, kx]
                out[co, oy, ox] = acc
    return out


def naive_assign(anchors, gts, pos_iou, neg_iou, force_match):
    """Pairwise-loop reimplementation of anchor target assignment."""
    n = len(anchors)
    g = len(gts)
    labels = [NEGATIVE] * n
    matched = [-1] * n
    forced = [False] * n
    if g == 0:
        return labels, matched, forced
    ious = [[iou(a, t) for t in gts] for a in anchors]
    for i in range(n):
        best_j, best = 0, ious[i][0]
        for j in range(1, g):
            if ious[i][j] > best:
                best_j, best = j, ious[i][j]
        if best >= pos_iou:
            labels[i] = POSITIVE
            matched[i] = best_j
        elif best >= neg_iou:
            labels[i] = IGNORE
    if force_match:
        for j in range(g):
            best_i, best = 0, ious[0][j]
            for i in range(1, n):
                if ious[i][j] > best:
                    best_i, best = i, ious[i][j]
            if best <= 0.0:
                continue
            if labels[best_i] == POSITIVE and matched[best_i] == j:
                continue
            if forced[best_i]:
                continue
            labels[best_i] = POSITIVE
            matched[best_i] = j
            forced[best_i] = True
    return labels, matched, forced


def naive_match(det_boxes, det_scores, gt_boxes, thresh):
    """Greedy matching by repeated max-score scan; quadratic everywhere."""
    d = len(det_boxes)
    g = len(gt_boxes)
    done = [False] * d
    gt_used = [False] * g
    tp = [False] * d
    order = []
    for _ in range(d):
        best_i = -1
        for i in range(d):
            if done[i]:
                continue
            if best_i < 0 or det_scores[i] > det_scores[best_i]:
                best_i = i
        done[best_i] = True
        order.append(best_i)
    for i in order:
        best_j = -1
        best = -1.0
        for j in range(g):
            if gt_used[j]:
                continue
            v = iou(det_boxes[i], gt_boxes[j])
            if v > best:
                best = v
                best_j = j
        if best_j >= 0 and best >= thresh:
            tp[i] = True
            gt_used[best_j] = True
    return order, tp


def naive_average_precision(flags, total_gt):
    """101-point AP computed from scratch with full scans."""
    if total_gt == 0 or not flags:
        return 0.0
    precisions = []
    recalls = []
    tp = 0
    for k, f in enumerate(flags):
        if f:
            tp += 1
        precisions.append(tp / (k + 1))
        recalls.append(tp / total_gt)
    vals = []
    for i in range(101):
        r = i / 100.0
        best = 0.0
        attained = False
        for p, rec in zip(precisions, recalls):
            if rec >= r:
                attained = True
                if p > best:
                    best = p
        vals.append(best if attained else 0.0)
    return sum(vals) / 101.0


def naive_coco_map(dets_by_image, gts_by_image, thresholds):
    """Quadratic evaluator: per-image greedy matching, then global pooling.

    dets_by_image: {image_id: [(BBox, score), ...]}
    gts_by_image: {image_id: [BBox, ...]}
    """
    total_gt = sum(len(v) for v in gts_by_image.values())
    aps = []
    for thresh in thresholds:
        pooled = []
        for img_id in sorted(gts_by_image):
            dets = dets_by_image.get(img_id, [])
            boxes = [b for b, _ in dets]
            scores = [s for _, s in dets]
            order, tp = naive_match(boxes, scores, gts_by_image[img_id], thresh)
            for rank, i in enumerate(order):
                pooled.append((-scores[i], img_id, rank, tp[i]))
        pooled.sort(key=lambda row: row[:3])
        aps.append(naive_average_precision([row[3] for row in pooled], total_gt))
    return aps, sum(aps) / len(aps)


def naive_decode_detections(flat_scores, flat_deltas, anchors, score_thresh, nms_iou, max_out, image_w, image_h):
    """Score every anchor (no top-k), decode one by one, then greedy NMS.

    flat_scores: (N,) already-sigmoided single-class scores.
    Returns list of (BBox, score) sorted by descending score.
    """
    candidates = []
    for i in range(len(flat_scores)):
        if flat_scores[i] < score_thresh:
            continue
        anchor = BBox(*anchors[i])
        box = decode(anchor, flat_deltas[i])
        box = clip_to_image(box, image_w, image_h)
        candidates.append((box, float(flat_scores[i])))
    kept = []
    used = [False] * len(candidates)
    while len(kept) < max_out:
        best_i = -1
        for i, (_, s) in enumerate(candidates):
            if used[i]:
                continue
            if best_i < 0 or s > candidates[best_i][1]:
                best_i = i
        if best_i < 0:
            break
        used[best_i] = True
        kept.append(candidates[best_i])
        for i, (b, _) in enumerate(candidates):
            if not used[i] and iou(candidates[best_i][0], b) > nms_iou:
                used[i] = True
    return kept


def naive_nms_indices(boxes: np.ndarray, scores: np.ndarray, iou_thresh: float, max_out: int):
    """Greedy keep-indices; ties go to the lower original index."""
    order = np.argsort(-np.asarray(scores, dtype=np.float64), kind="stable")
    boxes = boxes_to_array(boxes)
    keep = []
    while order.size and len(keep) < max_out:
        i = int(order[0])
        keep.append(i)
        if order.size == 1:
            break
        rest = order[1:]
        ious = iou_matrix(boxes[i : i + 1], boxes[rest])[0]
        order = rest[ious <= iou_thresh]
    return keep


def naive_detection_loss(cls_logits, box_deltas, assignment, config):
    """One image's (loss, grad_cls, grad_box): the per-image loop the batched loss replaced.

    It keeps the package's sigmoid_focal_loss and smooth_l1, because the
    batched loss must return its bytes exactly.
    """
    pos = assignment.labels == POSITIVE
    valid = assignment.labels != IGNORE
    norm = max(1, assignment.num_positive)
    cls_elem, cls_grad = sigmoid_focal_loss(cls_logits, pos, config)
    cls_sum = float(np.sum(cls_elem[valid], dtype=np.float64))
    grad_cls = np.where(valid, cls_grad, 0.0) / norm
    grad_box = np.zeros_like(box_deltas, dtype=cls_grad.dtype)
    reg_sum = 0.0
    if np.any(pos):
        reg_elem, reg_grad = smooth_l1(
            box_deltas[pos], assignment.deltas[pos].astype(box_deltas.dtype), config.smooth_l1_beta
        )
        reg_sum = float(np.sum(reg_elem, dtype=np.float64))
        grad_box[pos] = reg_grad / norm
    return (cls_sum + reg_sum) / norm, grad_cls, grad_box


def central_difference(f, x, h=1e-5):
    return (f(x + h) - f(x - h)) / (2.0 * h)


def rel_err(a, b, floor=1e-12):
    return abs(a - b) / max(abs(a), abs(b), floor)


def random_box(rng, lo=0.0, hi=512.0, min_side=1.0, max_side=None) -> BBox:
    span = hi - lo
    max_side = max_side if max_side is not None else span
    w = rng.uniform(min_side, max_side)
    h = rng.uniform(min_side, max_side)
    x1 = rng.uniform(lo, hi - w)
    y1 = rng.uniform(lo, hi - h)
    return BBox(x1, y1, x1 + w, y1 + h)


def random_round_trip_pair(rng, max_ratio=50.0):
    """(gt, anchor) with sides in [1, 512] and size ratios under the decode
    clamp (exp(4.135) ~ 62.5), so encode is invertible."""
    sides = []
    for _ in range(2):
        a = math.exp(rng.uniform(math.log(1.0), math.log(512.0)))
        r = math.exp(rng.uniform(-math.log(max_ratio), math.log(max_ratio)))
        g = min(512.0, max(1.0, a * r))
        sides.append((g, a))
    (gw, aw), (gh, ah) = sides
    gx, gy, ax, ay = (rng.uniform(0, 512) for _ in range(4))
    gt = BBox(gx - gw / 2, gy - gh / 2, gx + gw / 2, gy + gh / 2)
    anchor = BBox(ax - aw / 2, ay - ah / 2, ax + aw / 2, ay + ah / 2)
    return gt, anchor


def logsumexp_bce(logits, targets, alpha):
    """Reference alpha-weighted binary cross-entropy via logaddexp."""
    x = np.asarray(logits, dtype=np.float64)
    t = np.asarray(targets, dtype=np.float64)
    log_p = -np.logaddexp(0.0, -x)
    log_1mp = -np.logaddexp(0.0, x)
    alpha_t = alpha * t + (1.0 - alpha) * (1.0 - t)
    return -alpha_t * (t * log_p + (1.0 - t) * log_1mp)


# -- the tap-GEMM convolution, network walk and Adam step the fast paths replaced --
#
# These are the library's own loops from before the padded tape and the flat
# Adam buffer, kept so that the new paths must agree with them bit for bit.
# Every GEMM gets the same operands, in the same 32-column blocks, and every
# tap and Adam update is added in the same order.

TAP_COLUMN_BLOCK = 32


def _tap_buffers(x, k, stride):
    """(bufs, [(phase, shift)] per tap, (B, gh, gw), n): the zero-padded flat tap buffer."""
    c, b, h, w = x.shape
    pad, split = k // 2, stride if k > 1 else 1
    grid = (b, -(-h // stride) + pad, -(-w // stride) + pad)
    n = -(-math.prod(grid) // TAP_COLUMN_BLOCK) * TAP_COLUMN_BLOCK
    taps = [
        (i % split * split + j % split, i // split * grid[2] + j // split)
        for i, j in np.ndindex(k, k)
    ]
    bufs = np.zeros((split * split, c, n + taps[-1][1]), dtype=x.dtype)
    for phase, part in _phase_pairs(bufs, grid, x, k, stride):
        phase[...] = part
    return bufs, taps, grid, n


def _phase_pairs(bufs, grid, x, k, stride):
    pad, split = k // 2, stride if k > 1 else 1
    phases = bufs[:, :, : math.prod(grid)].reshape(split, split, -1, *grid)
    for a, d in np.ndindex(split, split):
        u, v = int(a < pad), int(d < pad)
        part = x[:, :, stride * u + a - pad :: stride, stride * v + d - pad :: stride]
        yield phases[a, d, :, :, u : u + part.shape[2], v : v + part.shape[3]], part


def tap_gemm_conv2d_forward(inp, weights, bias, stride=1):
    """Nine tap GEMMs over a freshly built tap buffer; crop, then add the bias."""
    k = weights.shape[2]
    dtype = np.result_type(inp, weights)
    bufs, taps, grid, n = _tap_buffers(inp.astype(dtype, copy=False), k, stride)
    w_taps = weights.transpose(2, 3, 0, 1).astype(dtype).reshape(k * k, *weights.shape[:2])
    out = np.zeros((weights.shape[0], n), dtype=dtype)
    term = np.empty_like(out)
    for w_k, (phase, s) in zip(w_taps, taps):
        out += np.matmul(w_k, bufs[phase, :, s : s + n], out=term)
    oh, ow = -(-inp.shape[2] // stride), -(-inp.shape[3] // stride)
    out = out[:, : math.prod(grid)].reshape(-1, *grid)[:, :, :oh, :ow]
    return out + bias.astype(dtype)[:, None, None, None]


def tap_gemm_conv2d_backward(inp, weights, stride, grad_out, input_grad=True):
    """Rebuild the tap buffer, scatter grad_out into zeroed columns, and scatter
    W_k.T @ g back through the taps into a zeroed buffer."""
    k = weights.shape[2]
    c_out, c_in = weights.shape[:2]
    oh, ow = grad_out.shape[2:]
    dtype = np.result_type(inp, weights, grad_out)
    bufs, taps, grid, n = _tap_buffers(inp.astype(dtype, copy=False), k, stride)
    g = np.zeros((c_out, n), dtype=dtype)
    g[:, : math.prod(grid)].reshape(c_out, *grid)[:, :, :oh, :ow] = grad_out
    grad_taps = np.empty((k * k, c_out, c_in), dtype=dtype)
    for gw_k, (phase, s) in zip(grad_taps, taps):
        np.matmul(g, bufs[phase, :, s : s + n].T, out=gw_k)
    grad_weights = grad_taps.reshape(k, k, c_out, c_in).transpose(2, 3, 0, 1).copy()
    grad_bias = grad_out.sum(axis=(1, 2, 3))
    if not input_grad:
        return None, grad_weights, grad_bias
    grad_bufs = np.zeros_like(bufs)
    term = np.empty((c_in, n), dtype=dtype)
    w_taps = weights.transpose(2, 3, 0, 1).astype(dtype).reshape(k * k, c_out, c_in)
    for w_k, (phase, s) in zip(w_taps, taps):
        grad_bufs[phase, :, s : s + n] += np.matmul(w_k.T, g, out=term)
    grad_input = np.zeros(inp.shape, dtype=dtype)
    for phase, part in _phase_pairs(grad_bufs, grid, grad_input, k, stride):
        part[...] = phase
    return grad_input, grad_weights, grad_bias


def tape_forward(images, params, config, anchors):
    """network.forward with every tensor held as a (C, B, H, W) array."""
    from retina_kit import network

    _, ops, heads = network._build(config, anchors)
    tape = {"image": np.ascontiguousarray(np.asarray(images).transpose(1, 0, 2, 3))}
    for kind, out, ins, param, stride in ops:
        x = tape[ins[0]]
        if kind == "conv":
            w, b = params[f"{param}.w"], params[f"{param}.b"]
            tape[out] = tap_gemm_conv2d_forward(x, w, b, stride)
        elif kind == "relu":
            tape[out] = np.maximum(tape.pop(ins[0]), 0)
        else:
            tape[out] = x + np.repeat(np.repeat(tape[ins[1]], 2, axis=2), 2, axis=3)
    cache = {"params": params, "ops": ops, "tensors": tape, "heads": heads}
    cls_rows = np.concatenate([network._to_rows(tape[c], 1) for c, _ in heads], axis=1)
    box_rows = np.concatenate([network._to_rows(tape[b], 4) for _, b in heads], axis=1)
    return (cls_rows[:, :, 0], box_rows), cache


def tape_backward(cache, cls_grad, box_grad):
    """network.backward over tape_forward's cache, one tap-GEMM backward per conv."""
    from retina_kit import network

    tape, params = cache["tensors"], cache["params"]
    batch = tape["image"].shape[1]
    g, off = {}, 0
    for c, b in cache["heads"]:
        end = off + tape[c].size // batch
        g[c] = network._from_rows(cls_grad[:, off:end, None], tape[c].shape, 1)
        g[b] = network._from_rows(box_grad[:, off:end], tape[b].shape, 4)
        off = end
    grads = {name: np.zeros_like(p) for name, p in params.items()}
    for kind, out, ins, param, stride in reversed(cache["ops"]):
        g_out = g.pop(out)
        if kind == "conv":
            gi, gw, gb = tap_gemm_conv2d_backward(
                tape[ins[0]], params[f"{param}.w"], stride, g_out, input_grad=ins[0] != "image"
            )
            grads[f"{param}.w"] += gw
            grads[f"{param}.b"] += gb
            g_ins = (gi,)
        elif kind == "relu":
            g_ins = (g_out * (tape[out] > 0),)
        else:
            c, b, h, w = g_out.shape
            g_ins = (g_out, g_out.reshape(c, b, h // 2, 2, w // 2, 2).sum(axis=(3, 5)))
        for name, g_in in zip(ins, g_ins):
            if g_in is not None:
                g[name] = g[name] + g_in if name in g else g_in
    return grads


def per_parameter_adam_step(params, grads, m, v, step, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """One Adam update, parameter by parameter, in place; returns the new step."""
    t = step + 1
    bc1 = 1.0 - beta1**t
    bc2 = 1.0 - beta2**t
    for name, p in params.items():
        g = grads[name]
        m[name] *= beta1
        m[name] += (1.0 - beta1) * g
        v[name] *= beta2
        v[name] += (1.0 - beta2) * np.square(g)
        p -= lr * (m[name] / bc1) / (np.sqrt(v[name] / bc2) + eps)
    return t
