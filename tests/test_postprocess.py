import numpy as np
import pytest

from oracles import naive_decode_detections, random_box
from retina_kit.anchors import AnchorConfig, generate_anchors
from retina_kit.boxes import BBox, iou
from retina_kit.errors import NumericError, ValidationError
from retina_kit.network import NetworkConfig, forward, init_params
from retina_kit.postprocess import (
    Detection,
    Detections,
    EvalConfig,
    decode_detections,
    nms,
    read_detections,
    write_detections,
)


def det(x1, y1, x2, y2, score, image_id=0):
    return Detection(box=BBox(x1, y1, x2, y2), score=score, image_id=image_id)


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
        d = det(0, 0, 4, 4, 0.5)
        assert nms([d], 0.5, 10) == [d]

    def test_duplicate_suppressed(self):
        hi = det(0, 0, 4, 4, 0.9)
        lo = det(0, 0, 4, 4, 0.8)
        assert nms([lo, hi], 0.5, 10) == [hi]

    def test_disjoint_boxes_both_survive(self):
        a = det(0, 0, 4, 4, 0.2)
        b = det(10, 10, 14, 14, 0.9)
        out = nms([a, b], 0.5, 10)
        assert out == [b, a]  # sorted by descending score

    def test_iou_exactly_at_threshold_survives(self):
        # suppression requires IoU strictly greater than the threshold
        a = det(0, 0, 4, 4, 0.9)
        b = det(2, 0, 6, 4, 0.8)  # IoU = 2*4 / (16+16-8) = 1/3
        out = nms([a, b], 1 / 3, 10)
        assert len(out) == 2

    def test_max_out_caps_results(self):
        dets = [det(i * 10, 0, i * 10 + 4, 4, 0.5 + 0.01 * i) for i in range(8)]
        assert len(nms(dets, 0.5, 3)) == 3

    def test_tie_breaks_to_lower_index(self):
        a = det(0, 0, 4, 4, 0.7)
        b = det(0, 0, 4, 4, 0.7)
        out = nms([a, b], 0.5, 10)
        assert out == [a]

    def test_survivors_pairwise_below_threshold(self, rng):
        for _ in range(200):
            dets = [
                Detection(box=random_box(rng, 0, 64, min_side=2), score=float(rng.uniform(0, 1)))
                for _ in range(12)
            ]
            out = nms(dets, 0.5, 100)
            scores = [d.score for d in out]
            assert scores == sorted(scores, reverse=True)
            assert {id(d) for d in out} <= {id(d) for d in dets}
            for i in range(len(out)):
                for j in range(i + 1, len(out)):
                    assert iou(out[i].box, out[j].box) <= 0.5


def head_maps_from_rows(grid, flat_cls, flat_box):
    """Inverse of flatten for building synthetic head outputs in tests."""
    outs = []
    for li, (rows, cols) in enumerate(grid.per_level_shapes):
        sl = grid.level_slice(li)
        a = grid.per_level_counts[li] // (rows * cols)
        cls_map = flat_cls[sl].reshape(rows, cols, a, 1).transpose(2, 3, 0, 1).reshape(a, rows, cols)
        box_map = flat_box[sl].reshape(rows, cols, a, 4).transpose(2, 3, 0, 1).reshape(a * 4, rows, cols)
        outs.append((cls_map, box_map))
    return outs


class TestDecode:
    def setup_method(self):
        self.anchor_cfg = AnchorConfig()
        self.grid = generate_anchors(self.anchor_cfg, 64, 64)
        self.eval_cfg = EvalConfig()

    def test_all_low_logits_give_nothing(self):
        n = len(self.grid)
        outs = head_maps_from_rows(self.grid, np.full((n, 1), -40.0), np.zeros((n, 4)))
        assert len(decode_detections(outs, self.grid, self.eval_cfg, 64, 64)) == 0

    def test_single_hot_anchor(self):
        n = len(self.grid)
        flat_cls = np.full((n, 1), -40.0)
        flat_cls[137, 0] = 40.0
        outs = head_maps_from_rows(self.grid, flat_cls, np.zeros((n, 4)))
        dets = decode_detections(outs, self.grid, self.eval_cfg, 64, 64)
        assert len(dets) == 1
        assert dets.scores[0] == pytest.approx(1.0, abs=1e-12)
        from retina_kit.boxes import clip_to_image

        want = clip_to_image(BBox(*self.grid.anchors[137]), 64, 64)
        assert tuple(dets.boxes[0]) == pytest.approx(want.as_tuple(), abs=1e-9)

    def test_matches_naive_full_scan(self, rng):
        from retina_kit.layers import sigmoid

        for _ in range(10):
            n = len(self.grid)
            flat_cls = rng.normal(-4.0, 2.5, size=(n, 1))
            flat_box = rng.normal(0.0, 0.3, size=(n, 4))
            outs = head_maps_from_rows(self.grid, flat_cls, flat_box)
            got = decode_detections(outs, self.grid, self.eval_cfg, 64, 64)
            want = naive_decode_detections(
                sigmoid(flat_cls[:, 0]),
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
        outs = head_maps_from_rows(
            self.grid, rng.normal(2.0, 1.0, size=(n, 1)), np.zeros((n, 4))
        )
        dets = decode_detections(outs, self.grid, cfg, 64, 64)
        assert len(dets) <= 5

    def test_boxes_clipped_to_image(self, rng):
        n = len(self.grid)
        outs = head_maps_from_rows(
            self.grid, rng.normal(0.0, 3.0, size=(n, 1)), rng.normal(0.0, 1.0, size=(n, 4))
        )
        for x1, y1, x2, y2 in decode_detections(outs, self.grid, self.eval_cfg, 64, 64).boxes:
            assert 0.0 <= x1 <= x2 <= 64.0
            assert 0.0 <= y1 <= y2 <= 64.0

    def test_non_finite_boxes_rejected(self):
        n = len(self.grid)
        flat_cls = np.full((n, 1), -40.0)
        flat_cls[137, 0] = 40.0
        flat_box = np.zeros((n, 4))
        flat_box[137, 0] = np.nan
        outs = head_maps_from_rows(self.grid, flat_cls, flat_box)
        with pytest.raises(NumericError, match="not finite"):
            decode_detections(outs, self.grid, self.eval_cfg, 64, 64)

    def test_dim_mismatch_rejected(self):
        n = len(self.grid)
        outs = head_maps_from_rows(self.grid, np.zeros((n, 1)), np.zeros((n, 4)))
        wrong = [(outs[0][0][:, :4, :], outs[0][1])] + outs[1:]
        with pytest.raises(ValidationError):
            decode_detections(wrong, self.grid, self.eval_cfg, 64, 64)

    def test_wired_to_network_outputs(self, rng):
        net_cfg = NetworkConfig()
        params = init_params(net_cfg, [8, 16], np.random.default_rng(2))
        img = rng.standard_normal((3, 64, 64)).astype(np.float32)
        outs, _ = forward(img, params, net_cfg, [8, 16])
        dets = decode_detections(outs, self.grid, self.eval_cfg, 64, 64)
        assert isinstance(dets, Detections)


class TestDetectionsIo:
    def test_round_trip(self, tmp_path, rng):
        dets = [
            Detection(
                box=random_box(rng, 0, 64, min_side=1),
                score=float(rng.uniform(0, 1)),
                class_id=0,
                image_id=int(rng.integers(0, 5)),
            )
            for _ in range(50)
        ]
        path = tmp_path / "dets.jsonl"
        write_detections(Detections.from_list(dets), path)
        back = read_detections(path)
        assert len(back) == len(dets)
        for a, b in zip(dets, back):
            assert a.box.as_tuple() == b.box.as_tuple()
            assert a.score == b.score and a.image_id == b.image_id

    def test_bad_line_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"image_id": 0, "box": [0, 0, 1, 1]}\n')
        with pytest.raises(ValidationError, match="line 1"):
            read_detections(path)
