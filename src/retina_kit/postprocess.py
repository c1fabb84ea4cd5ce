"""Decode per-anchor head rows into scored detections, plus greedy NMS.

The detector has one class, so each anchor carries one logit. Per level:
sigmoid scores, drop below score_threshold and keep the top pre_nms_topk by
score (ties to the lower anchor index). The kept anchors of all levels are
then decoded, clipped to the image and passed through one greedy NMS.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .anchors import AnchorGrid
from .boxes import BBox, boxes_to_array, clip_boxes, decode_boxes, iou_matrix
from .errors import NumericError, ValidationError
from .layers import sigmoid
from .outputs import atomic_write

_DEFAULT_SWEEP = tuple(round(0.50 + 0.05 * i, 2) for i in range(10))


@dataclass
class EvalConfig:
    iou_thresholds: tuple[float, ...] = _DEFAULT_SWEEP
    score_threshold: float = 0.05
    pre_nms_topk: int = 1000
    nms_iou: float = 0.5
    max_detections_per_image: int = 100

    def __post_init__(self):
        self.iou_thresholds = tuple(float(t) for t in self.iou_thresholds)
        if not self.iou_thresholds:
            raise ValidationError("iou_thresholds must be non-empty")
        if any(not (0.0 < t < 1.0) for t in self.iou_thresholds):
            raise ValidationError(f"iou_thresholds must lie in (0, 1), got {self.iou_thresholds}")
        if any(b <= a for a, b in zip(self.iou_thresholds, self.iou_thresholds[1:])):
            raise ValidationError("iou_thresholds must be strictly increasing")
        if not (0.0 <= self.score_threshold <= 1.0):
            raise ValidationError(f"score_threshold must be in [0, 1], got {self.score_threshold}")
        if self.pre_nms_topk <= 0 or self.max_detections_per_image <= 0:
            raise ValidationError("pre_nms_topk and max_detections_per_image must be positive")
        if not (0.0 <= self.nms_iou <= 1.0):
            raise ValidationError(f"nms_iou must be in [0, 1], got {self.nms_iou}")


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


def nms_indices(boxes: np.ndarray, scores: np.ndarray, iou_thresh: float, max_out: int):
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


def decode_detections(
    cls_rows,
    box_rows,
    grid: AnchorGrid,
    config: EvalConfig,
    image_w: float,
    image_h: float,
    image_id: int = 0,
) -> Detections:
    """One row per grid anchor for one image -> final detections, NMS included, best score first."""
    n = len(grid)
    got = (np.shape(cls_rows), np.shape(box_rows))
    if got != ((n,), (n, 4)):
        raise ValidationError(
            f"expected ({n},) class and ({n}, 4) box rows, one per anchor of one class, got {got}"
        )
    scores_all = sigmoid(np.asarray(cls_rows, dtype=np.float64))

    chosen = []
    for li in range(len(grid.per_level_counts)):
        sl = grid.level_slice(li)
        s = scores_all[sl]
        idx = np.nonzero(s >= config.score_threshold)[0]
        order = np.argsort(-s[idx], kind="stable")[: config.pre_nms_topk]
        chosen.append(sl.start + idx[order])
    chosen = np.concatenate(chosen)

    boxes = clip_boxes(decode_boxes(grid.anchors[chosen], box_rows[chosen]), image_w, image_h)
    scores = scores_all[chosen]
    kept = nms_indices(boxes, scores, config.nms_iou, config.max_detections_per_image)
    if not np.isfinite(boxes[kept]).all():
        raise NumericError(f"image {image_id}: decoded detection boxes are not finite")
    return Detections.for_image(image_id, boxes[kept], scores[kept])


def write_detections(dets: Detections, path) -> None:
    rows = zip(dets.image_ids.tolist(), dets.boxes.tolist(), dets.scores.tolist())
    with atomic_write(path) as f:
        for image_id, box, score in rows:
            f.write(json.dumps({"image_id": image_id, "box": box, "score": score}) + "\n")


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
        boxes=boxes_to_array(boxes),
        scores=np.array(scores, dtype=np.float64),
        image_ids=np.array(image_ids, dtype=np.int64),
    )
