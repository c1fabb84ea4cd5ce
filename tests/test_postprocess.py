import numpy as np
import pytest

from oracles import iou, naive_decode_detections, random_box
from retina_kit.anchors import AnchorConfig, generate_anchors
from retina_kit.boxes import BBox, boxes_to_array, clip_boxes
from retina_kit.errors import NumericError, ValidationError
from retina_kit.network import NetworkConfig, forward, init_params
from retina_kit.postprocess import (
    Detections,
    EvalConfig,
    decode_detections,
    nms_indices,
    read_detections,
    write_detections,
)


def det(x1, y1, x2, y2, score):
    return BBox(x1, y1, x2, y2), score


def run_nms(dets, iou_thresh, max_out):
    """nms_indices over (BBox, score) rows."""
    boxes = boxes_to_array([b for b, _ in dets])
    scores = np.array([s for _, s in dets], dtype=np.float64)
    return nms_indices(boxes, scores, iou_thresh, max_out)


class TestEvalConfig:
    def test_default_sweep(self):
        cfg = EvalConfig()
        assert list(cfg.iou_thresholds) == [0.5, 0.55, 0.6, 0.65, 0.7, 0.75, 0.8, 0.85, 0.9, 0.95]

    @pytest.mark.parametrize(
        "kw",
        [
            dict(iou_thresholds=()),
            dict(iou_thresholds=(0.5, 0.5)),
            dict(iou_thresholds=(0.0, 0.5)),
            dict(score_threshold=-0.1),
            dict(pre_nms_topk=0),
            dict(nms_iou=1.5),
        ],
    )
    def test_rejects_bad_values(self, kw):
        with pytest.raises(ValidationError):
            EvalConfig(**kw)


class TestNms:
    def test_single_detection_survives(self):
        assert run_nms([det(0, 0, 4, 4, 0.5)], 0.5, 10) == [0]

    def test_duplicate_suppressed(self):
        hi = det(0, 0, 4, 4, 0.9)
        lo = det(0, 0, 4, 4, 0.8)
        assert run_nms([lo, hi], 0.5, 10) == [1]

    def test_disjoint_boxes_both_survive(self):
        a = det(0, 0, 4, 4, 0.2)
        b = det(10, 10, 14, 14, 0.9)
        assert run_nms([a, b], 0.5, 10) == [1, 0]  # sorted by descending score

    def test_iou_exactly_at_threshold_survives(self):
        # suppression requires IoU strictly greater than the threshold
        a = det(0, 0, 4, 4, 0.9)
        b = det(2, 0, 6, 4, 0.8)  # IoU = 2*4 / (16+16-8) = 1/3
        assert len(run_nms([a, b], 1 / 3, 10)) == 2

    def test_max_out_caps_results(self):
        dets = [det(i * 10, 0, i * 10 + 4, 4, 0.5 + 0.01 * i) for i in range(8)]
        assert len(run_nms(dets, 0.5, 3)) == 3

    def test_tie_breaks_to_lower_index(self):
        a = det(0, 0, 4, 4, 0.7)
        b = det(0, 0, 4, 4, 0.7)
        assert run_nms([a, b], 0.5, 10) == [0]

    def test_survivors_pairwise_below_threshold(self, rng):
        for _ in range(200):
            dets = [
                (random_box(rng, 0, 64, min_side=2), float(rng.uniform(0, 1))) for _ in range(12)
            ]
            keep = run_nms(dets, 0.5, 100)
            scores = [dets[i][1] for i in keep]
            assert scores == sorted(scores, reverse=True)
            assert len(set(keep)) == len(keep) and set(keep) <= set(range(len(dets)))
            for i in range(len(keep)):
                for j in range(i + 1, len(keep)):
                    assert iou(dets[keep[i]][0], dets[keep[j]][0]) <= 0.5


class TestDecode:
    def setup_method(self):
        self.anchor_cfg = AnchorConfig()
        self.grid = generate_anchors(self.anchor_cfg, 64, 64)
        self.eval_cfg = EvalConfig()

    def test_all_low_logits_give_nothing(self):
        n = len(self.grid)
        dets = decode_detections(np.full(n, -40.0), np.zeros((n, 4)), self.grid, self.eval_cfg, 64, 64)
        assert len(dets) == 0

    def test_single_hot_anchor(self):
        n = len(self.grid)
        flat_cls = np.full(n, -40.0)
        flat_cls[137] = 40.0
        dets = decode_detections(flat_cls, np.zeros((n, 4)), self.grid, self.eval_cfg, 64, 64)
        assert len(dets) == 1
        assert dets.scores[0] == pytest.approx(1.0, abs=1e-12)
        want = clip_boxes(self.grid.anchors[137:138], 64, 64)[0]
        assert dets.boxes[0] == pytest.approx(want, abs=1e-9)

    def test_matches_naive_full_scan(self, rng):
        from retina_kit.layers import sigmoid

        for _ in range(10):
            n = len(self.grid)
            flat_cls = rng.normal(-4.0, 2.5, size=n)
            flat_box = rng.normal(0.0, 0.3, size=(n, 4))
            got = decode_detections(flat_cls, flat_box, self.grid, self.eval_cfg, 64, 64)
            want = naive_decode_detections(
                sigmoid(flat_cls),
                flat_box,
                self.grid.anchors,
                self.eval_cfg.score_threshold,
                self.eval_cfg.nms_iou,
                self.eval_cfg.max_detections_per_image,
                64,
                64,
            )
            assert len(got) == len(want)
            for got_box, got_score, (box, score) in zip(got.boxes, got.scores, want):
                assert got_score == pytest.approx(score, rel=1e-12)
                assert tuple(got_box) == pytest.approx(box.as_tuple(), abs=1e-9)

    def test_detection_count_capped(self, rng):
        cfg = EvalConfig(max_detections_per_image=5)
        n = len(self.grid)
        dets = decode_detections(rng.normal(2.0, 1.0, size=n), np.zeros((n, 4)), self.grid, cfg, 64, 64)
        assert len(dets) <= 5

    def test_boxes_clipped_to_image(self, rng):
        n = len(self.grid)
        dets = decode_detections(
            rng.normal(0.0, 3.0, size=n), rng.normal(0.0, 1.0, size=(n, 4)), self.grid, self.eval_cfg, 64, 64
        )
        for x1, y1, x2, y2 in dets.boxes:
            assert 0.0 <= x1 <= x2 <= 64.0
            assert 0.0 <= y1 <= y2 <= 64.0

    def test_non_finite_boxes_rejected(self):
        n = len(self.grid)
        flat_cls = np.full(n, -40.0)
        flat_cls[137] = 40.0
        flat_box = np.zeros((n, 4))
        flat_box[137, 0] = np.nan
        with pytest.raises(NumericError, match="not finite"):
            decode_detections(flat_cls, flat_box, self.grid, self.eval_cfg, 64, 64)

    def test_dim_mismatch_rejected(self):
        n = len(self.grid)
        # 2N logits, or two per row, would read as a second class; the head has exactly one
        for cls_shape in ((n - 1,), (2 * n,), (n, 2)):
            with pytest.raises(ValidationError):
                decode_detections(np.zeros(cls_shape), np.zeros((n, 4)), self.grid, self.eval_cfg, 64, 64)

    def test_wired_to_network_outputs(self, rng):
        net_cfg = NetworkConfig()
        params = init_params(net_cfg, self.anchor_cfg, np.random.default_rng(2))
        img = rng.standard_normal((3, 64, 64)).astype(np.float32)
        (cls_rows, box_rows), _ = forward(img, params, net_cfg, self.anchor_cfg)
        dets = decode_detections(cls_rows, box_rows, self.grid, self.eval_cfg, 64, 64)
        assert isinstance(dets, Detections)


class TestDetectionsIo:
    def test_round_trip(self, tmp_path, rng):
        dets = Detections(
            boxes=boxes_to_array([random_box(rng, 0, 64, min_side=1) for _ in range(50)]),
            scores=rng.uniform(0, 1, size=50),
            image_ids=rng.integers(0, 5, size=50),
        )
        path = tmp_path / "dets.jsonl"
        write_detections(dets, path)
        back = read_detections(path)
        assert isinstance(back, Detections)
        assert np.array_equal(back.boxes, dets.boxes)
        assert np.array_equal(back.scores, dets.scores)
        assert np.array_equal(back.image_ids, dets.image_ids)

    def test_bad_line_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        good = '{"image_id": 0, "box": [0, 0, 1, 1], "score": 0.5}\n'
        for bad in (
            '{"image_id": 0, "box": [0, 0, 1, 1]}',
            '{"image_id": 0, "box": [2, 0, 1, 1], "score": 0.5}',
            '{"image_id": 0, "box": [0, 0, NaN, 1], "score": 0.5}',
            '{"image_id": 0, "box": [0, 0, 1, 1], "score": 1.5}',
        ):
            path.write_text(good + bad + "\n")
            with pytest.raises(ValidationError, match="line 2"):
                read_detections(path)
