import json

import numpy as np
import pytest

from oracles import (
    box_array,
    iou,
    level_slice,
    naive_decode_detections,
    naive_nms_indices,
    random_box,
    read_detections,
)
from retina_kit.anchors import AnchorConfig, generate_anchors
from retina_kit.boxes import BBox, clip_boxes, decode_boxes
from retina_kit.config import RunConfig
from retina_kit.errors import NumericError, ValidationError
from retina_kit.network import NetworkConfig, forward, init_params
from retina_kit.postprocess import (
    Detections,
    EvalConfig,
    decode_detections,
    detection_rows,
    nms_indices,
    write_detections,
)
from retina_kit.training import infer_detections


def det(x1, y1, x2, y2, score):
    return BBox(x1, y1, x2, y2), score


def run_nms(dets, iou_thresh, max_out):
    """nms_indices over (BBox, score) rows, as a batch of one image."""
    boxes = box_array([b for b, _ in dets])
    scores = np.array([s for _, s in dets], dtype=np.float64)
    return nms_indices(boxes[None], scores[None], [len(dets)], iou_thresh, max_out).tolist()


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
            dict(pre_nms_topk=2.5),
            dict(max_detections_per_image=2.5),
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


def keep_lists(flat, counts, k):
    """Split nms_indices' flat B * K indices into per-image keep lists."""
    flat = np.asarray(flat)
    k = max(k, 1)  # no rows at all: flat is empty
    return [(flat[flat // k == b] - b * k).tolist() for b in range(len(counts))]


def grid_scene(rng, n):
    """n boxes on an integer grid, with exact score ties, duplicates and zero-area boxes."""
    x1 = rng.integers(0, 12, size=n)
    y1 = rng.integers(0, 12, size=n)
    w = rng.integers(0, 6, size=n)  # a zero side gives a zero-area box
    h = rng.integers(1, 6, size=n)
    boxes = np.stack([x1, y1, x1 + w, y1 + h], axis=1).astype(np.float64)
    if n:
        boxes[rng.uniform(size=n) < 0.2] = boxes[0]
    scores = rng.integers(0, 5, size=n) / 4.0
    return boxes, scores


class TestBatchedNms:
    """nms_indices on a padded batch returns exactly the per-image greedy loop's keep lists."""

    def padded(self, scenes, rng):
        counts = np.array([len(s) for _, s in scenes])
        k = int(counts.max(initial=0))
        # padding holds garbage that must never be kept nor suppress anything
        boxes = rng.uniform(-5.0, 20.0, size=(len(scenes), k, 4))
        scores = rng.uniform(0.0, 2.0, size=(len(scenes), k))
        for b, (bx, sc) in enumerate(scenes):
            boxes[b, : len(sc)] = bx
            scores[b, : len(sc)] = sc
        return boxes, scores, counts

    def check(self, scenes, rng, iou_thresh, max_out):
        boxes, scores, counts = self.padded(scenes, rng)
        got = keep_lists(nms_indices(boxes, scores, counts, iou_thresh, max_out), counts, boxes.shape[1])
        want = [naive_nms_indices(bx, sc, iou_thresh, max_out) for bx, sc in scenes]
        assert got == want

    def test_matches_oracle_on_ragged_batches(self, rng):
        for batch in (1, 8):
            for _ in range(25):
                sizes = rng.integers(0, 40, size=batch)
                if batch > 1:
                    sizes[rng.integers(batch)] = 0
                scenes = [grid_scene(rng, int(n)) for n in sizes]
                for iou_thresh in (0.0, 1 / 3, 0.5, 0.7, 1.0):
                    for max_out in (1, 3, 100):
                        self.check(scenes, rng, iou_thresh, max_out)

    def test_edge_scenes(self, rng):
        at_threshold = np.array([[0, 0, 4, 4], [2, 0, 6, 4], [4, 0, 8, 4]], dtype=np.float64)
        zero_area = np.array([[3, 3, 3, 3], [3, 3, 3, 3], [3, 3, 3, 8], [0, 0, 4, 4]], dtype=np.float64)
        scenes = [
            (np.zeros((0, 4)), np.zeros(0)),  # no candidates
            (at_threshold, np.array([0.9, 0.8, 0.7])),  # IoU of neighbours is exactly 1/3
            (zero_area, np.array([0.5, 0.5, 0.5, 0.5])),  # union == 0 between the first two; all tied
            (np.tile([[1.0, 1.0, 5.0, 5.0]], (6, 1)), np.full(6, 0.25)),  # duplicates with tied scores
        ]
        for iou_thresh in (0.0, 1 / 3, 0.5):
            for max_out in (1, 2, 100):
                self.check(scenes, rng, iou_thresh, max_out)
        boxes, scores, counts = self.padded(scenes, rng)
        k = boxes.shape[1]
        assert keep_lists(nms_indices(boxes, scores, counts, 1 / 3, 100), counts, k)[:2] == [[], [0, 1, 2]]

    def test_empty_batch(self):
        assert nms_indices(np.zeros((3, 0, 4)), np.zeros((3, 0)), [0, 0, 0], 0.5, 10).size == 0
        assert nms_indices(np.zeros((0, 0, 4)), np.zeros((0, 0)), [], 0.5, 10).size == 0


class TestDecode:
    def setup_method(self):
        self.anchor_cfg = AnchorConfig()
        self.grid = generate_anchors(self.anchor_cfg, 64, 64)
        self.eval_cfg = EvalConfig()

    def test_all_low_logits_give_nothing(self):
        n = len(self.grid)
        dets = decode_detections(np.full((1, n), -40.0), np.zeros((1, n, 4)), self.grid, self.eval_cfg, 64, 64, [0])
        assert len(dets) == 0

    def test_single_hot_anchor(self):
        n = len(self.grid)
        flat_cls = np.full(n, -40.0)
        flat_cls[137] = 40.0
        dets = decode_detections(flat_cls[None], np.zeros((1, n, 4)), self.grid, self.eval_cfg, 64, 64, [0])
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
            got = decode_detections(flat_cls[None], flat_box[None], self.grid, self.eval_cfg, 64, 64, [0])
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

    def test_pre_nms_topk_per_level_ties_to_lower_anchor(self, rng):
        # nms_iou 1.0 suppresses nothing, so the output is exactly the candidate set
        cfg = EvalConfig(pre_nms_topk=6, nms_iou=1.0, max_detections_per_image=10_000)
        n = len(self.grid)
        flat_cls = np.minimum(rng.normal(-1.0, 2.0, size=n), 2.0)
        for start in (0, self.grid.per_level_counts[0]):
            flat_cls[start + np.array([20, 30, 40, 50])] = [5.0, 4.5, 4.0, 3.5]
            flat_cls[start + np.array([90, 3, 41, 100])] = 3.0  # tied across the cut
        scores = 1.0 / (1.0 + np.exp(-flat_cls))
        want = []
        for li in range(len(self.grid.per_level_counts)):
            sl = level_slice(self.grid, li)
            idx = [i for i in range(sl.start, sl.stop) if scores[i] >= cfg.score_threshold]
            want += sorted(idx, key=lambda i: (-flat_cls[i], i))[: cfg.pre_nms_topk]
        assert sorted(want)[:6] == [3, 20, 30, 40, 41, 50]
        want = [want[j] for j in sorted(range(len(want)), key=lambda j: (-flat_cls[want[j]], j))]
        zeros = np.zeros((1, n, 4))
        dets = decode_detections(flat_cls[None], zeros, self.grid, cfg, 64, 64, [0])
        expect = clip_boxes(decode_boxes(self.grid.anchors[want], zeros[0, want]), 64, 64)
        assert np.array_equal(dets.boxes, expect)

    def test_detection_count_capped(self, rng):
        cfg = EvalConfig(max_detections_per_image=5)
        n = len(self.grid)
        dets = decode_detections(rng.normal(2.0, 1.0, size=(1, n)), np.zeros((1, n, 4)), self.grid, cfg, 64, 64, [0])
        assert len(dets) <= 5

    def test_boxes_clipped_to_image(self, rng):
        n = len(self.grid)
        dets = decode_detections(
            rng.normal(0.0, 3.0, size=(1, n)), rng.normal(0.0, 1.0, size=(1, n, 4)), self.grid, self.eval_cfg,
            64, 64, [0],
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
            decode_detections(flat_cls[None], flat_box[None], self.grid, self.eval_cfg, 64, 64, [0])

    def test_dim_mismatch_rejected(self):
        n = len(self.grid)
        # 2N logits, or two per row, would read as a second class; the head has exactly one
        for cls_shape in ((1, n - 1), (1, 2 * n), (1, n, 2), (n,)):
            with pytest.raises(ValidationError):
                decode_detections(np.zeros(cls_shape), np.zeros((1, n, 4)), self.grid, self.eval_cfg, 64, 64, [0])

    def test_wired_to_network_outputs(self, rng):
        net_cfg = NetworkConfig()
        params = init_params(net_cfg, self.anchor_cfg, np.random.default_rng(2))
        img = rng.standard_normal((1, 3, 64, 64)).astype(np.float32)
        (cls_rows, box_rows), _ = forward(img, params, net_cfg, self.anchor_cfg)
        dets = decode_detections(cls_rows, box_rows, self.grid, self.eval_cfg, 64, 64, [0])
        assert isinstance(dets, Detections)


class TestBatchIndependence:
    """An image's detections do not depend on the batch it is decoded in (detect == eval)."""

    def setup_method(self):
        self.grid = generate_anchors(AnchorConfig(), 64, 64)

    def batch_rows(self, rng, b):
        n = len(self.grid)
        cls_rows = rng.normal(-4.0, 2.5, size=(b, n)) + rng.normal(0.0, 2.0, size=(b, 1))
        cls_rows[1] = -40.0  # an image with no candidates
        return cls_rows, rng.normal(0.0, 0.3, size=(b, n, 4))

    @staticmethod
    def assert_same(got: Detections, want: Detections):
        for name in ("boxes", "scores", "image_ids"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()

    @pytest.mark.parametrize(
        "eval_cfg", [EvalConfig(), EvalConfig(pre_nms_topk=7, max_detections_per_image=4)]
    )
    def test_decode_in_batch_equals_alone(self, rng, eval_cfg):
        cls_rows, box_rows = self.batch_rows(rng, 8)
        ids = np.arange(8) * 3 + 5
        batch = decode_detections(cls_rows, box_rows, self.grid, eval_cfg, 64, 64, ids)
        alone = Detections.concat(
            decode_detections(cls_rows[i : i + 1], box_rows[i : i + 1], self.grid, eval_cfg, 64, 64, ids[i : i + 1])
            for i in range(8)
        )
        assert len(batch) > 0
        self.assert_same(batch, alone)

    def test_infer_detections_chunk_equals_single_images(self, rng):
        cfg = RunConfig()
        params = init_params(cfg.network, cfg.anchors, np.random.default_rng(4))
        params["cls_out.w"] = params["cls_out.w"] * 3.0  # lift some scores over the prior
        tensors = [rng.uniform(0.0, 1.0, size=(3, 64, 64)).astype(np.float32) for _ in range(5)]
        ids = [7, 8, 9, 10, 11]
        grid = generate_anchors(cfg.anchors, *cfg.training.input_size)
        chunk = infer_detections(params, cfg, grid, tensors, ids)
        singles = Detections.concat(infer_detections(params, cfg, grid, [t], [i]) for t, i in zip(tensors, ids))
        assert len(chunk) > 0
        self.assert_same(chunk, singles)

    def test_non_finite_row_names_its_image(self):
        n = len(self.grid)
        cls_rows = np.full((8, n), -40.0)
        cls_rows[:, 137] = 40.0
        box_rows = np.zeros((8, n, 4))
        box_rows[5, 137] = np.nan
        cfg = EvalConfig()
        with pytest.raises(NumericError, match="image 5: .*not finite"):
            decode_detections(cls_rows, box_rows, self.grid, cfg, 64, 64, np.arange(8))
        with pytest.raises(NumericError, match="image 45: .*not finite"):
            decode_detections(cls_rows, box_rows, self.grid, cfg, 64, 64, np.arange(8) + 40)
        box_rows[6, 137] = np.nan  # the first image in batch order is named
        with pytest.raises(NumericError, match="image 5: "):
            decode_detections(cls_rows, box_rows, self.grid, cfg, 64, 64, np.arange(8))


class TestDetectionsIo:
    def test_round_trip(self, tmp_path, rng):
        dets = Detections(
            boxes=box_array([random_box(rng, 0, 64, min_side=1) for _ in range(50)]),
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

    def test_writer_matches_json_dumps(self, tmp_path, rng):
        # integral floats, short decimals, full-precision doubles and 1e-05
        boxes = rng.uniform(0, 64, size=(300, 4))
        boxes[::3] = boxes[::3].round()
        boxes[1::3] = boxes[1::3].round(2)
        boxes[:, 2:] += boxes[:, :2] + 1.0
        boxes[:4] = [[0.0, 0.0, 1.0, 2.0], [3.0, 4.0, 50.0, 60.0], [1e-05, 0.0, 0.5, 7.25], [0.1, 0.2, 0.3, 64.0]]
        scores = rng.uniform(0, 1, size=300)
        scores[:4] = [1e-05, 0.0, 1.0, 0.5]
        dets = Detections(boxes=boxes, scores=scores, image_ids=rng.integers(0, 1000, size=300))
        path = tmp_path / "dets.jsonl"
        write_detections(dets, path)
        rows = zip(dets.image_ids.tolist(), dets.boxes.tolist(), dets.scores.tolist())
        want = "".join(
            json.dumps({"image_id": i, "box": b, "score": s}) + "\n" for i, b, s in rows
        )
        assert path.read_text(encoding="utf-8") == want

    def test_chunk_rows_join_to_the_written_file(self, tmp_path, rng):
        # `eval` formats each chunk's rows where the chunk is decoded and
        # writes them joined; empty chunks at the start, middle and end
        boxes = rng.uniform(0, 64, size=(200, 4))
        boxes[::3] = boxes[::3].round()
        boxes[:, 2:] += boxes[:, :2] + 1.0
        boxes[:3] = [[0.0, 0.0, 1.0, 2.0], [1e-05, 0.0, 0.5, 7.0], [3.0, 4.0, 50.0, 60.0]]
        scores = rng.uniform(0, 1, size=200)
        scores[:3] = [1e-05, 0.0, 1.0]
        dets = Detections(boxes=boxes, scores=scores, image_ids=rng.integers(0, 1000, size=200))
        write_detections(dets, tmp_path / "whole.jsonl")
        cuts = [0, 0, 1, 57, 57, 140, 200, 200]
        chunks = [
            Detections(boxes[lo:hi], scores[lo:hi], dets.image_ids[lo:hi])
            for lo, hi in zip(cuts, cuts[1:])
        ]
        joined = "".join(detection_rows(chunk) for chunk in chunks)
        assert joined.encode("utf-8") == (tmp_path / "whole.jsonl").read_bytes()
        assert joined.startswith('{"image_id": %d, "box": [0.0, 0.0, 1.0, 2.0], "score": 1e-05}\n'
                                 % dets.image_ids[0])

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
