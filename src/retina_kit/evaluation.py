"""COCO-protocol average precision over an IoU threshold sweep.

Scoring runs in two stages, as in the COCOeval protocol (Lin et al.,
arXiv:1405.0312). The per-image stage (match_images) matches each image's
detections greedily in score order and yields TP/FP flags; it needs only
that image's detections and ground truth, so disjoint image sets can run it
apart, as `eval`'s chunks do. The pooling stage (pooled_map) orders every
flag globally (score descending, then image id, then per-image index) and
summarizes them with 101-point interpolated AP. mAP averages AP over the
sweep; a single pedestrian class means there is no class-averaging step.
coco_map runs both stages on one set.

Neither the per-image score order nor the pooled order depends on the IoU
threshold, so each is computed once and every threshold is matched in the
same pass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .boxes import iou_matrix
from .errors import ValidationError
from .postprocess import Detections, EvalConfig

RECALL_POINTS = 101
_RECALL_GRID = np.arange(RECALL_POINTS) / 100.0


def match_detections(det_boxes, gts, iou_thresholds):
    """Greedy TP/FP flags for one image at every threshold of the sweep.

    det_boxes (D, 4) must arrive sorted by descending score. At each threshold
    t on its own, each detection takes the unmatched gt of highest IoU when
    that IoU is >= t (ties to the lower gt index); every gt matches at most one
    detection.

    Returns (tp_flags bool (T, D), gt_matched bool (T, G)).
    """
    ious = iou_matrix(det_boxes, gts)
    thresholds = np.asarray(iou_thresholds, dtype=np.float64)
    tp = np.zeros((thresholds.size, ious.shape[0]), dtype=bool)
    matched = np.zeros((thresholds.size, ious.shape[1]), dtype=bool)
    rows = np.arange(thresholds.size)
    # a detection whose best IoU misses every threshold is a false positive
    # everywhere and matches nothing, so only the others need the greedy step
    for i in np.nonzero(ious.max(axis=1, initial=-np.inf) >= thresholds.min())[0]:
        cand = np.where(matched, -1.0, ious[i])
        j = cand.argmax(axis=1)
        hit = cand[rows, j] >= thresholds
        tp[:, i] = hit
        matched[rows[hit], j[hit]] = True
    return tp, matched


def average_precision(tp_flags, total_gt_count: int) -> float:
    """101-point interpolated AP from flags ordered by descending score.

    AP = mean over r in {0.00, 0.01, ..., 1.00} of the maximum precision at
    recall >= r, taking 0 when that recall is never attained. Zero ground
    truth yields 0 (callers flag the undefined case in reports).
    """
    if total_gt_count < 0:
        raise ValidationError(f"total_gt_count must be >= 0, got {total_gt_count}")
    flags = np.asarray(tp_flags, dtype=bool)
    if total_gt_count == 0 or flags.size == 0:
        return 0.0
    tp_cum = np.cumsum(flags)
    precision = tp_cum / np.arange(1, flags.size + 1, dtype=np.float64)
    recall = tp_cum / float(total_gt_count)
    best_at_or_after = np.append(np.maximum.accumulate(precision[::-1])[::-1], 0.0)
    vals = best_at_or_after[np.searchsorted(recall, _RECALL_GRID, side="left")]
    # the built-in sum, left to right like the reference evaluator: np.sum's
    # pairwise order can change the last bit
    return sum(vals.tolist()) / float(RECALL_POINTS)


@dataclass(frozen=True)
class ImageMatches:
    """The per-image stage of coco_map on a set of images, ready to pool.

    Row i is one detection; the rows run image by image in ascending id, each
    image's best score first (ties keep input order). tp (T, N) bool holds its
    flags over the sweep, scores (N,) float64 and image_ids (N,) int64 its
    score and image, ranks (N,) int64 its position within its image.
    num_images and gt_count count the set's images and ground-truth boxes.
    """

    tp: np.ndarray
    scores: np.ndarray
    image_ids: np.ndarray
    ranks: np.ndarray
    num_images: int
    gt_count: int


def match_images(dets: Detections, gts: dict, config: EvalConfig) -> ImageMatches:
    """Match each image's detections against its {image_id: (G, 4) boxes} ground truth.

    gts names every image of the set, those without detections included.
    """
    unknown = dets.image_ids[~np.isin(dets.image_ids, list(gts))]
    if unknown.size:
        raise ValidationError(f"detection references unknown image_id {unknown[0]}")

    # per image, descending score; ties keep input order
    order = np.lexsort((-dets.scores, dets.image_ids))
    image_ids = dets.image_ids[order]
    boxes = dets.boxes[order]
    images, starts, counts = np.unique(image_ids, return_index=True, return_counts=True)
    tp = np.zeros((len(config.iou_thresholds), len(order)), dtype=bool)
    for img_id, lo, n in zip(images.tolist(), starts.tolist(), counts.tolist()):
        tp[:, lo : lo + n], _ = match_detections(
            boxes[lo : lo + n], gts[img_id], config.iou_thresholds
        )
    return ImageMatches(
        tp=tp,
        scores=dets.scores[order],
        image_ids=image_ids,
        ranks=np.arange(len(order)) - np.repeat(starts, counts),
        num_images=len(gts),
        gt_count=sum(len(v) for v in gts.values()),
    )


def pooled_map(parts, config: EvalConfig) -> dict:
    """The coco_map report of the per-image matches of disjoint image sets.

    The pooled order is a total order on (score, image id, rank), so the
    report does not depend on how the images were split or on the order of
    the parts.
    """
    parts = list(parts) or [match_images(Detections.concat([]), {}, config)]
    tp, scores, image_ids, ranks = (
        np.concatenate([getattr(p, name) for p in parts], axis=-1)
        for name in ("tp", "scores", "image_ids", "ranks")
    )
    total_gt = sum(p.gt_count for p in parts)
    pooled = np.lexsort((ranks, image_ids, -scores))
    aps = [average_precision(flags, total_gt) for flags in tp[:, pooled]]

    def ap_at(value):
        for t, ap in zip(config.iou_thresholds, aps):
            if abs(t - value) < 1e-9:
                return ap
        return None

    return {
        "iou_thresholds": list(config.iou_thresholds),
        "ap_per_threshold": aps,
        "map": sum(aps) / float(len(aps)),
        "ap50": ap_at(0.50),
        "ap75": ap_at(0.75),
        "num_images": sum(p.num_images for p in parts),
        "total_gts": total_gt,
        "undefined": total_gt == 0 and scores.size == 0,
    }


def coco_map(dets: Detections, all_gts: dict, config: EvalConfig) -> dict:
    """Evaluate detections against {image_id: (G, 4) boxes} ground truth.

    Returns a JSON-ready report with the per-threshold AP array, their mean,
    and AP at 0.50 / 0.75 when those thresholds are in the sweep.
    """
    return pooled_map([match_images(dets, all_gts, config)], config)
