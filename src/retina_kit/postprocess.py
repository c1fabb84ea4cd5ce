"""Decode raw head outputs into scored detections, plus greedy NMS.

Per level: sigmoid scores, drop below score_threshold, keep the top
pre_nms_topk by score (ties to the lower anchor index), decode the kept
deltas against their anchors, clip to the image, then greedy NMS per class.
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
from .network import flatten_level_outputs
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
class Detection:
    box: BBox
    score: float
    class_id: int = 0
    image_id: int = 0

    def __post_init__(self):
        if not (0.0 <= self.score <= 1.0):
            raise ValueError(f"detection score must be in [0, 1], got {self.score}")


@dataclass(frozen=True)
class Detections:
    """Detections as parallel arrays, row i being one detection.

    boxes (N, 4) float64 corners, scores (N,) float64, image_ids (N,) int64
    and class_ids (N,) int64. This is the in-memory form from decode to
    coco_map; `Detection` objects are the per-row form of detections.jsonl.
    """

    boxes: np.ndarray
    scores: np.ndarray
    image_ids: np.ndarray
    class_ids: np.ndarray

    def __len__(self) -> int:
        return self.scores.shape[0]

    @classmethod
    def for_image(cls, image_id: int, boxes, scores, class_ids=None) -> "Detections":
        boxes = boxes_to_array(boxes)
        n = boxes.shape[0]
        return cls(
            boxes=boxes,
            scores=np.asarray(scores, dtype=np.float64).reshape(n),
            image_ids=np.full(n, image_id, dtype=np.int64),
            class_ids=np.asarray(np.zeros(n) if class_ids is None else class_ids, np.int64),
        )

    @classmethod
    def concat(cls, parts) -> "Detections":
        parts = list(parts) or [cls.for_image(0, [], [])]
        return cls(
            **{f.name: np.concatenate([getattr(p, f.name) for p in parts]) for f in fields(cls)}
        )

    @classmethod
    def from_list(cls, dets: list[Detection]) -> "Detections":
        return cls(
            boxes=boxes_to_array([d.box for d in dets]),
            scores=np.array([d.score for d in dets], dtype=np.float64),
            image_ids=np.array([d.image_id for d in dets], dtype=np.int64),
            class_ids=np.array([d.class_id for d in dets], dtype=np.int64),
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


def nms(dets: list[Detection], iou_thresh: float, max_out: int) -> list[Detection]:
    """Greedy NMS over one image and one class, best score first."""
    if not dets:
        return []
    boxes = boxes_to_array([d.box for d in dets])
    scores = np.array([d.score for d in dets], dtype=np.float64)
    return [dets[i] for i in nms_indices(boxes, scores, iou_thresh, max_out)]


def decode_detections(
    outputs,
    grid: AnchorGrid,
    config: EvalConfig,
    image_w: float,
    image_h: float,
    image_id: int = 0,
) -> Detections:
    """Head maps for one image -> final detections, NMS included, best score first."""
    n_levels = len(grid.per_level_counts)
    if len(outputs) != n_levels:
        raise ValidationError(f"expected {n_levels} level outputs, got {len(outputs)}")
    rows0, cols0 = grid.per_level_shapes[0]
    num_anchors = grid.per_level_counts[0] // (rows0 * cols0)
    for li, (cls_map, box_map) in enumerate(outputs):
        rows, cols = grid.per_level_shapes[li]
        if cls_map.shape[1:] != (rows, cols) or box_map.shape[1:] != (rows, cols):
            raise ValidationError(
                f"level {li} spatial dims {cls_map.shape[1:]} do not match grid {(rows, cols)}"
            )
        if cls_map.shape[0] % num_anchors or box_map.shape[0] != num_anchors * 4:
            raise ValidationError(f"level {li} channel counts do not match {num_anchors} anchors")
    num_classes = outputs[0][0].shape[0] // num_anchors

    flat_cls, flat_box = flatten_level_outputs(outputs, num_anchors, num_classes)
    scores_all = sigmoid(flat_cls.astype(np.float64))

    cand_boxes, cand_scores, cand_classes = [], [], []
    for li in range(n_levels):
        sl = grid.level_slice(li)
        level_scores = scores_all[sl]
        level_deltas = flat_box[sl]
        level_anchors = grid.anchors[sl]
        for k in range(num_classes):
            s = level_scores[:, k]
            idx = np.nonzero(s >= config.score_threshold)[0]
            if idx.size == 0:
                continue
            order = np.argsort(-s[idx], kind="stable")[: config.pre_nms_topk]
            chosen = idx[order]
            decoded = decode_boxes(level_anchors[chosen], level_deltas[chosen])
            decoded = clip_boxes(decoded, image_w, image_h)
            cand_boxes.append(decoded)
            cand_scores.append(s[chosen])
            cand_classes.append(np.full(chosen.size, k, dtype=np.int64))
    if not cand_boxes:
        return Detections.for_image(image_id, [], [])

    boxes = np.concatenate(cand_boxes, axis=0)
    scores = np.concatenate(cand_scores, axis=0)
    classes = np.concatenate(cand_classes, axis=0)

    kept = []
    for k in range(num_classes):
        mask = np.nonzero(classes == k)[0]
        keep = nms_indices(
            boxes[mask], scores[mask], config.nms_iou, config.max_detections_per_image
        )
        kept.append(mask[keep])
    kept = np.concatenate(kept)
    kept = kept[np.argsort(-scores[kept], kind="stable")[: config.max_detections_per_image]]
    if not np.isfinite(boxes[kept]).all():
        raise NumericError(f"image {image_id}: decoded detection boxes are not finite")
    return Detections.for_image(image_id, boxes[kept], scores[kept], classes[kept])


def write_detections(dets: Detections, path) -> None:
    rows = zip(
        dets.image_ids.tolist(), dets.boxes.tolist(), dets.scores.tolist(), dets.class_ids.tolist()
    )
    with atomic_write(path) as f:
        for image_id, box, score, class_id in rows:
            f.write(
                json.dumps({"image_id": image_id, "box": box, "score": score, "class": class_id})
                + "\n"
            )


def read_detections(path) -> list[Detection]:
    dets = []
    text = Path(path).read_text(encoding="utf-8")
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
            dets.append(
                Detection(
                    box=BBox(*(float(v) for v in obj["box"])),
                    score=float(obj["score"]),
                    class_id=int(obj["class"]),
                    image_id=int(obj["image_id"]),
                )
            )
        except (KeyError, TypeError, ValueError) as e:
            raise ValidationError(f"{path}: line {lineno}: {e}") from e
    return dets
