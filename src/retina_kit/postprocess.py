"""Decode per-anchor head rows into scored detections, plus greedy NMS.

Both work on a whole inference batch. The detector has one class, so each
anchor carries one logit.

- `decode_detections(cls_rows (B, N), box_rows (B, N, 4), grid, config,
  image_w, image_h, image_ids)`: one sigmoid over the batch; per image and
  level, drop scores below score_threshold and keep the top pre_nms_topk by
  score (ties to the lower anchor index). The kept anchors are decoded,
  clipped to the image and passed through one greedy NMS per image.
- `nms_indices(boxes (B, K, 4), scores (B, K), counts (B,), iou_thresh,
  max_out)`: the greedy NMS of every image of a padded batch in one loop,
  each pass taking every image's next kept box.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Annotated

import numpy as np

from .anchors import AnchorGrid
from .boxes import boxes_to_array, clip_boxes, decode_boxes
from .errors import (
    ABOVE_0, OPEN_UNIT, UNIT, NumericError, ValidationError, check_fields, check_ordered, indexed
)
from .layers import sigmoid
from .outputs import atomic_write

_DEFAULT_SWEEP = tuple(round(0.50 + 0.05 * i, 2) for i in range(10))


@dataclass
class EvalConfig:
    iou_thresholds: Annotated[tuple[float, ...], OPEN_UNIT] = _DEFAULT_SWEEP
    score_threshold: Annotated[float, UNIT] = 0.05
    pre_nms_topk: Annotated[int, ABOVE_0] = 1000
    nms_iou: Annotated[float, UNIT] = 0.5
    max_detections_per_image: Annotated[int, ABOVE_0] = 100

    def __post_init__(self):
        check_fields(self, "eval")
        check_ordered(indexed("eval.iou_thresholds", self.iou_thresholds), strict=True)


@dataclass(frozen=True)
class Detections:
    """Detections as parallel arrays, row i being one detection.

    boxes (N, 4) float64 corners, scores (N,) float64 and image_ids (N,)
    int64. This is the in-memory form from decode to coco_map and the
    contents of detections.jsonl.
    """

    boxes: np.ndarray
    scores: np.ndarray
    image_ids: np.ndarray

    def __len__(self) -> int:
        return self.scores.shape[0]

    @classmethod
    def for_image(cls, image_id: int, boxes, scores) -> "Detections":
        boxes = boxes_to_array(boxes)
        n = boxes.shape[0]
        return cls(
            boxes=boxes,
            scores=np.asarray(scores, dtype=np.float64).reshape(n),
            image_ids=np.full(n, image_id, dtype=np.int64),
        )

    @classmethod
    def concat(cls, parts) -> "Detections":
        parts = list(parts) or [cls.for_image(0, [], [])]
        return cls(
            **{f.name: np.concatenate([getattr(p, f.name) for p in parts]) for f in fields(cls)}
        )


def nms_indices(boxes, scores, counts, iou_thresh: float, max_out: int) -> np.ndarray:
    """Greedy NMS of a padded batch, every image at once; ties go to the lower index.

    boxes (B, K, 4) and scores (B, K); image b's candidates are its first
    counts[b] rows, the rest is padding. Each pass keeps every image's best
    live candidate and drops the live ones whose IoU with it exceeds
    iou_thresh, until an image has none left or has kept max_out. Returns the
    kept rows as flat indices into the B * K rows, image by image, best score
    first.
    """
    boxes = np.asarray(boxes, dtype=np.float64)
    scores = np.asarray(scores, dtype=np.float64)
    b, k = scores.shape
    order = np.argsort(-scores, axis=1, kind="stable")
    live = order < np.asarray(counts)[:, None]
    if not live.any():
        return np.zeros(0, dtype=np.int64)
    # (5, B, K): x1, y1, x2, y2 and area of each image's rows in score order
    table = np.empty((5, b, k))
    table[:4] = np.take_along_axis(boxes, order[..., None], axis=1).transpose(2, 0, 1)
    np.multiply(table[2] - table[0], table[3] - table[1], out=table[4])
    lo, hi, area = table[:2], table[2:4], table[4]

    rows = np.arange(b)
    tops, todos = [], []  # per pass: each image's kept position, and whether it had one
    n_kept = np.zeros(b, dtype=np.int64)
    wh, edge = np.empty((2, b, k)), np.empty((2, b, k))
    union, iou = np.empty((b, k)), np.empty((b, k))
    ok = np.empty((b, k), dtype=bool)
    while True:
        if len(tops) >= max_out:
            live[n_kept >= max_out] = False
        top = live.argmax(axis=1)
        todo = live[rows, top]
        if not todo.any():
            break
        tops.append(top)
        todos.append(todo)
        live[rows, top] = False
        n_kept += todo
        # iou_matrix's ops in its order, so a keep list does not depend on the batch
        best = table[:, rows, top][..., None]
        np.maximum(lo, best[:2], out=wh)
        np.minimum(hi, best[2:4], out=edge)
        np.subtract(edge, wh, out=wh)
        np.maximum(wh, 0.0, out=wh)  # what np.clip(wh, 0.0, None) runs
        inter = np.multiply(wh[0], wh[1], out=edge[0])
        np.add(best[4], area, out=union)
        np.subtract(union, inter, out=union)
        iou.fill(0.0)
        np.greater(union, 0, out=ok)
        np.divide(inter, union, out=iou, where=ok)
        np.less_equal(iou, iou_thresh, out=ok)
        np.logical_and(live, ok, out=live)

    tops = np.array(tops, dtype=np.int64).reshape(-1, b).T
    todos = np.array(todos, dtype=bool).reshape(-1, b).T
    img = np.nonzero(todos)[0]
    return img * k + order[img, tops[todos]]


def decode_detections(
    cls_rows,
    box_rows,
    grid: AnchorGrid,
    config: EvalConfig,
    image_w: float,
    image_h: float,
    image_ids,
) -> Detections:
    """A batch's per-anchor rows -> its detections, NMS included.

    cls_rows (B, N) and box_rows (B, N, 4) hold one row per grid anchor of
    each image; image_ids (B,) names them. The result runs image by image in
    batch order, best score first within an image.
    """
    image_ids = np.asarray(image_ids, dtype=np.int64).reshape(-1)
    b, n = image_ids.size, len(grid)
    got = (np.shape(cls_rows), np.shape(box_rows))
    if got != ((b, n), (b, n, 4)):
        raise ValidationError(
            f"expected ({b}, {n}) class and ({b}, {n}, 4) box rows, one per anchor of one class"
            f" for each of {b} images, got {got}"
        )
    scores_all = sigmoid(np.asarray(cls_rows, dtype=np.float64))

    # candidates, image by image and level by level in score order; a
    # lexsort is stable, so ties keep the lower anchor index
    img, anc = np.nonzero(scores_all >= config.score_threshold)
    group = img * len(grid.per_level_counts) + np.searchsorted(
        np.cumsum(grid.per_level_counts), anc, side="right"
    )
    order = np.lexsort((-scores_all[img, anc], group))
    group = group[order]
    rank = np.arange(group.size) - np.searchsorted(group, group)
    pick = order[rank < config.pre_nms_topk]
    img, anc = img[pick], anc[pick]

    # pad to (B, K) rows, image b's candidates first
    counts = np.bincount(img, minlength=b)
    k = int(counts.max(initial=0))
    slot = np.arange(img.size) - np.repeat(np.cumsum(counts) - counts, counts)
    boxes = np.zeros((b, k, 4))
    scores = np.zeros((b, k))
    decoded = decode_boxes(grid.anchors[anc], box_rows[img, anc])
    boxes[img, slot] = clip_boxes(decoded, image_w, image_h)
    scores[img, slot] = scores_all[img, anc]

    kept = nms_indices(boxes, scores, counts, config.nms_iou, config.max_detections_per_image)
    dets = Detections(
        boxes=boxes.reshape(-1, 4)[kept],
        scores=scores.reshape(-1)[kept],
        image_ids=np.repeat(image_ids, k)[kept],
    )
    bad = ~np.isfinite(dets.boxes).all(axis=1)
    if bad.any():
        image_id = dets.image_ids[bad.argmax()]  # the first in batch order
        raise NumericError(f"image {image_id}: decoded detection boxes are not finite")
    return dets


def write_detections(dets: Detections, path) -> None:
    """One JSON object per detection; repr of a finite float is its JSON text."""
    rows = zip(dets.image_ids.tolist(), dets.boxes.tolist(), dets.scores.tolist())
    with atomic_write(path) as f:
        for i, (x1, y1, x2, y2), s in rows:
            box = f"[{x1!r}, {y1!r}, {x2!r}, {y2!r}]"
            f.write(f'{{"image_id": {i}, "box": {box}, "score": {s!r}}}\n')

