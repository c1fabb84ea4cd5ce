import numpy as np
import pytest

from oracles import box_array, naive_average_precision, naive_coco_map, naive_match, random_box
from retina_kit.boxes import BBox
from retina_kit.errors import ValidationError
from retina_kit.evaluation import average_precision, coco_map, match_detections
from retina_kit.postprocess import Detections, EvalConfig


def det(x1, y1, x2, y2, score, image_id=0):
    return BBox(x1, y1, x2, y2), score, image_id


def arrays(dets):
    """Detections from (BBox, score, image_id) rows."""
    return Detections(
        boxes=box_array([b for b, _, _ in dets]),
        scores=np.array([s for _, s, _ in dets], dtype=np.float64),
        image_ids=np.array([i for _, _, i in dets], dtype=np.int64),
    )


def boxes(dets):
    return box_array([b for b, _, _ in dets])


def gt_arrays(gts_by_image):
    """{image_id: (G, 4) array} from {image_id: [BBox]}."""
    return {img: box_array(gts) for img, gts in gts_by_image.items()}


def random_scene(rng, max_dets=10, max_gts=5, span=64):
    n_d = int(rng.integers(0, max_dets + 1))
    n_g = int(rng.integers(0, max_gts + 1))
    dets = [
        (random_box(rng, 0, span, min_side=2), float(rng.uniform(0.01, 1.0)))
        for _ in range(n_d)
    ]
    gts = [random_box(rng, 0, span, min_side=2) for _ in range(n_g)]
    return dets, gts


class TestMatch:
    def test_no_gts_all_fp(self):
        dets = [det(0, 0, 4, 4, 0.9), det(1, 1, 5, 5, 0.8)]
        tp, matched = match_detections(boxes(dets), [], [0.5])
        assert tp.shape == (1, 2) and not tp.any() and matched.size == 0

    def test_exact_match_is_tp_at_any_threshold(self):
        g = BBox(3.0, 4.0, 13.0, 24.0)
        tp, matched = match_detections(box_array([g]), box_array([g]), [0.5, 0.75, 0.95, 1.0])
        assert tp.all() and matched.all()

    def test_each_gt_matches_once(self):
        g = BBox(0.0, 0.0, 10.0, 10.0)
        dets = [det(0, 0, 10, 10, 0.9), det(0, 0, 10, 10, 0.8)]
        tp, _ = match_detections(boxes(dets), box_array([g]), [0.5])
        assert tp.tolist() == [[True, False]]

    def test_score_order_priority(self):
        # the higher-scored det takes the only gt even if listed later
        g = BBox(0.0, 0.0, 10.0, 10.0)
        dets = [det(0, 0, 10, 10, 0.9), det(1, 0, 11, 10, 0.7)]
        tp, _ = match_detections(boxes(dets), box_array([g]), [0.5])
        assert tp.tolist() == [[True, False]]

    def test_matches_brute_force(self, rng):
        thresholds = EvalConfig().iou_thresholds
        for _ in range(100):
            dets, gts = random_scene(rng)
            det_rows = sorted(dets, key=lambda d: -d[1])
            det_boxes = [b for b, _ in det_rows]
            scores = [s for _, s in det_rows]
            tp, matched = match_detections(box_array(det_boxes), box_array(gts), thresholds)
            # every threshold of the one-pass matcher equals its own greedy run
            for row, used, thresh in zip(tp, matched, thresholds):
                order, naive_tp = naive_match(det_boxes, scores, gts, thresh)
                # inputs are pre-sorted, so the naive max-scan visits them in order
                assert order == list(range(len(det_rows)))
                assert row.tolist() == naive_tp
                assert used.sum() == sum(naive_tp)


class TestAveragePrecision:
    def test_single_perfect_detection(self):
        assert average_precision([True], 1) == 1.0

    def test_fp_then_tp_gives_half(self):
        # precision sequence 0, 1/2; max precision at every recall point is 1/2
        assert average_precision([False, True], 1) == pytest.approx(0.5)

    def test_no_detections(self):
        assert average_precision([], 3) == 0.0

    def test_zero_gt_defined_as_zero(self):
        assert average_precision([False, False], 0) == 0.0

    def test_matches_naive(self, rng):
        for _ in range(200):
            n = int(rng.integers(0, 12))
            flags = [bool(rng.integers(0, 2)) for _ in range(n)]
            total = int(rng.integers(max(1, sum(flags)), sum(flags) + 5))
            assert average_precision(flags, total) == naive_average_precision(flags, total)

    def test_appending_lowest_score_fp_never_increases(self, rng):
        for _ in range(50):
            n = int(rng.integers(1, 10))
            flags = [bool(rng.integers(0, 2)) for _ in range(n)]
            total = sum(flags) + int(rng.integers(0, 3))
            if total == 0:
                continue
            base = average_precision(flags, total)
            worse = average_precision(flags + [False], total)
            assert worse <= base + 1e-15


class TestCocoMap:
    def setup_method(self):
        self.cfg = EvalConfig()

    def test_perfect_detector(self, rng):
        gts = {}
        dets = []
        for img in range(5):
            boxes = [random_box(rng, 0, 64, min_side=2) for _ in range(3)]
            gts[img] = boxes
            dets.extend((b, 1.0, img) for b in boxes)
        report = coco_map(arrays(dets), gt_arrays(gts), self.cfg)
        assert report["map"] == 1.0
        assert report["ap50"] == 1.0 and report["ap75"] == 1.0

    def test_empty_detections(self, rng):
        gts = {0: [random_box(rng, 0, 64)], 1: []}
        report = coco_map(arrays([]), gt_arrays(gts), self.cfg)
        assert report["map"] == 0.0
        assert not report["undefined"]

    def test_no_gt_flags_undefined(self):
        report = coco_map(arrays([]), {0: [], 1: []}, self.cfg)
        assert report["map"] == 0.0
        assert report["undefined"]

    def test_unknown_image_id_rejected(self):
        with pytest.raises(ValidationError, match="image_id"):
            coco_map(arrays([det(0, 0, 2, 2, 0.5, image_id=7)]), {0: []}, self.cfg)

    def test_matches_brute_force_exactly(self, rng):
        for _ in range(50):
            dets_by_image = {}
            gts_by_image = {}
            all_dets = []
            for img in range(int(rng.integers(1, 4))):
                dets, gts = random_scene(rng, max_dets=8, max_gts=4)
                dets_by_image[img] = dets
                gts_by_image[img] = gts
                all_dets.extend((b, s, img) for b, s in dets)
            report = coco_map(arrays(all_dets), gt_arrays(gts_by_image), self.cfg)
            naive_aps, naive_map = naive_coco_map(
                dets_by_image, gts_by_image, self.cfg.iou_thresholds
            )
            assert report["ap_per_threshold"] == naive_aps  # same floats
            assert report["map"] == naive_map

    def test_ap_monotone_in_threshold(self, rng):
        for _ in range(50):
            dets, gts = random_scene(rng, max_dets=10, max_gts=5)
            all_dets = [(b, s, 0) for b, s in dets]
            report = coco_map(arrays(all_dets), gt_arrays({0: gts}), self.cfg)
            aps = report["ap_per_threshold"]
            assert all(b <= a + 1e-15 for a, b in zip(aps, aps[1:]))

    def test_input_order_invariance(self, rng):
        dets, gts = random_scene(rng, max_dets=10, max_gts=5)
        # distinct scores so the canonical sort is unambiguous
        dets = [(b, (i + 1) / (len(dets) + 1)) for i, (b, s) in enumerate(dets)]
        all_dets = [(b, s, 0) for b, s in dets]
        base = coco_map(arrays(all_dets), gt_arrays({0: gts}), self.cfg)
        perm = [all_dets[i] for i in rng.permutation(len(all_dets))]
        shuffled = coco_map(arrays(perm), gt_arrays({0: gts}), self.cfg)
        assert base["ap_per_threshold"] == shuffled["ap_per_threshold"]

    def test_ap_in_unit_interval(self, rng):
        for _ in range(20):
            dets, gts = random_scene(rng)
            report = coco_map(
                arrays([(b, s, 0) for b, s in dets]), gt_arrays({0: gts}), self.cfg
            )
            assert all(0.0 <= a <= 1.0 for a in report["ap_per_threshold"])
            assert 0.0 <= report["map"] <= 1.0

    def test_literal_two_point_sweep_runnable(self, rng):
        # the config accepts a literal "0.5:0.5:0.95" reading too
        cfg = EvalConfig(iou_thresholds=(0.5, 0.95))
        dets, gts = random_scene(rng)
        report = coco_map(
            arrays([(b, s, 0) for b, s in dets]), gt_arrays({0: gts}), cfg
        )
        assert len(report["ap_per_threshold"]) == 2
        assert report["ap75"] is None

    def test_tied_scores_match_brute_force_exactly(self, rng):
        # scores from a handful of values tie within and across images, so the
        # pooled (score, image_id, per-image rank) tie-break decides the order
        cfg = EvalConfig(iou_thresholds=(0.3, 0.45, 0.6, 0.85))
        for _ in range(100):
            dets_by_image = {}
            gts_by_image = {}
            all_dets = []
            for img in rng.permutation(6).tolist():
                n_d = int(rng.integers(0, 9))
                n_g = int(rng.integers(0, 4))
                dets = [
                    (random_box(rng, 0, 32, min_side=2), float(rng.choice([0.25, 0.5, 0.75])))
                    for _ in range(n_d)
                ]
                dets_by_image[img] = dets
                gts_by_image[img] = [random_box(rng, 0, 32, min_side=2) for _ in range(n_g)]
                all_dets.extend((b, s, img) for b, s in dets)
            report = coco_map(arrays(all_dets), gt_arrays(gts_by_image), cfg)
            naive_aps, naive_map = naive_coco_map(dets_by_image, gts_by_image, cfg.iou_thresholds)
            assert report["ap_per_threshold"] == naive_aps  # same floats
            assert report["map"] == naive_map
