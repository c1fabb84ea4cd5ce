import math

import numpy as np
import pytest
from hypothesis import given

from conftest import boxes
from oracles import box_array, clip_to_image, encode, iou, random_box, random_round_trip_pair
from retina_kit.boxes import (
    DELTA_CLAMP,
    BBox,
    box_areas,
    clip_boxes,
    decode_boxes,
    encode_boxes,
    iou_matrix,
    transform_boxes,
)


def rows(*coords):
    return np.array(coords, dtype=np.float64).reshape(-1, 4)


class TestBBox:
    def test_accessors(self):
        b = BBox(1.0, 2.0, 4.0, 8.0)
        assert b.width == 3.0 and b.height == 6.0 and b.area == 18.0
        assert b.center == (2.5, 5.0)

    def test_rejects_inverted_corners(self):
        with pytest.raises(ValueError):
            BBox(4.0, 0.0, 1.0, 2.0)
        with pytest.raises(ValueError):
            BBox(0.0, 5.0, 1.0, 2.0)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            BBox(0.0, 0.0, math.inf, 1.0)
        with pytest.raises(ValueError):
            BBox(0.0, math.nan, 1.0, 1.0)

    def test_zero_area_allowed(self):
        assert BBox(1.0, 1.0, 1.0, 1.0).area == 0.0


class TestIou:
    def test_identity(self):
        b = rows(3.0, 4.0, 10.0, 20.0)
        assert iou_matrix(b, b)[0, 0] == 1.0

    def test_disjoint(self):
        assert iou_matrix(rows(0, 0, 1, 1), rows(5, 5, 6, 6))[0, 0] == 0.0

    def test_partial_overlap(self):
        # intersection 1x1 = 1, union 4 + 4 - 1 = 7
        v = iou_matrix(rows(0, 0, 2, 2), rows(1, 1, 3, 3))[0, 0]
        assert v == pytest.approx(1 / 7, abs=1e-12)

    def test_degenerate_union_is_zero(self):
        z = rows(2.0, 2.0, 2.0, 2.0)
        assert iou_matrix(z, z)[0, 0] == 0.0

    @given(boxes(), boxes())
    def test_symmetric_and_bounded(self, a, b):
        v = iou_matrix(box_array([a]), box_array([b]))[0, 0]
        assert v == iou_matrix(box_array([b]), box_array([a]))[0, 0]
        assert 0.0 <= v <= 1.0
        assert v == iou(a, b)

    def test_matrix_matches_pairwise(self, rng):
        a = [random_box(rng) for _ in range(3)]
        b = [random_box(rng) for _ in range(4)]
        m = iou_matrix(box_array(a), box_array(b))
        assert m.shape == (3, 4)
        for i in range(3):
            for j in range(4):
                assert m[i, j] == iou(a[i], b[j])

    def test_matrix_empty(self):
        assert iou_matrix([], box_array([BBox(0, 0, 1, 1)])).shape == (0, 1)
        assert iou_matrix(box_array([BBox(0, 0, 1, 1)]), []).shape == (1, 0)

    def test_matrix_identity(self):
        b = BBox(0, 0, 4, 4)
        m = iou_matrix(box_array([b]), box_array([b]))
        assert m.shape == (1, 1) and m[0, 0] == 1.0


class TestEncodeDecode:
    def test_encode_identity(self):
        b = rows(0, 0, 10, 10)
        assert encode_boxes(b, b).tolist() == [[0.0, 0.0, 0.0, 0.0]]

    def test_encode_shift(self):
        d = encode_boxes(rows(5, 5, 15, 15), rows(0, 0, 10, 10))
        assert d[0] == pytest.approx((0.5, 0.5, 0.0, 0.0))

    def test_encode_width_change(self):
        d = encode_boxes(rows(0, 0, 20, 10), rows(0, 0, 10, 10))
        assert d[0] == pytest.approx((0.5, 0.0, math.log(2.0), 0.0))

    def test_encode_rejects_degenerate(self):
        flat = rows(0, 0, 0, 10)
        with pytest.raises(ValueError):
            encode_boxes(flat, rows(0, 0, 10, 10))
        with pytest.raises(ValueError):
            encode_boxes(rows(0, 0, 10, 10), flat)

    def test_decode_identity(self):
        a = rows(2, 3, 12, 23)
        assert decode_boxes(a, np.zeros((1, 4)))[0] == pytest.approx(a[0])

    def test_decode_known_width(self):
        out = decode_boxes(rows(0, 0, 10, 10), rows(0.0, 0.0, math.log(2.0), 0.0))
        assert out[0] == pytest.approx((-5.0, 0.0, 15.0, 10.0), abs=1e-9)

    def test_decode_clamps_log_sizes(self):
        out = decode_boxes(rows(0, 0, 10, 10), rows(0.0, 0.0, 1000.0, 1000.0))
        assert out[0, 2] - out[0, 0] == pytest.approx(10.0 * math.exp(DELTA_CLAMP), rel=1e-9)
        assert np.isfinite(box_areas(out)).all()

    def test_round_trip_random(self, rng):
        # sides span [1, 512]; size ratios stay under the decode clamp, the
        # only region where decode can invert encode
        pairs = [random_round_trip_pair(rng) for _ in range(1000)]
        gts = box_array([g for g, _ in pairs])
        anchors = box_array([a for _, a in pairs])
        deltas = encode_boxes(gts, anchors)
        assert np.allclose(deltas, [encode(g, a) for g, a in pairs], rtol=0.0, atol=1e-9)
        rt = decode_boxes(anchors, deltas)
        assert np.max(np.abs(rt - gts)) < 1e-4

    def test_array_round_trip(self, rng):
        pairs = [random_round_trip_pair(rng) for _ in range(100)]
        gts = np.array([g.as_tuple() for g, _ in pairs])
        anchors = np.array([a.as_tuple() for _, a in pairs])
        rt = decode_boxes(anchors, encode_boxes(gts, anchors))
        assert np.max(np.abs(rt - gts)) < 1e-4


class TestClip:
    def test_interior_unchanged(self):
        b = rows(1, 1, 5, 5)
        assert clip_boxes(b, 10, 10).tolist() == b.tolist()

    def test_clamps_negative(self):
        assert clip_boxes(rows(-5, -5, 3, 3), 10, 10).tolist() == [[0, 0, 3, 3]]

    def test_fully_outside_collapses(self):
        out = clip_boxes(rows(20, 20, 30, 30), 10, 10)
        assert out.tolist() == [[10, 10, 10, 10]]
        assert box_areas(out)[0] == 0.0

    @given(boxes(lo=-100, hi=300))
    def test_idempotent(self, b):
        once = clip_boxes(box_array([b]), 128, 128)
        assert clip_boxes(once, 128, 128).tolist() == once.tolist()
        assert once.tolist() == [list(clip_to_image(b, 128, 128).as_tuple())]


class TestTransforms:
    def test_identity(self):
        b = rows(1, 2, 5, 9)
        identity = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        assert transform_boxes(b, identity).tolist() == b.tolist()

    def test_translation(self):
        out = transform_boxes(rows(0, 0, 4, 4), np.array([[1.0, 0.0, 3.0], [0.0, 1.0, -2.0]]))
        assert out[0] == pytest.approx((3, -2, 7, 2))

    def test_rotation_90(self):
        out = transform_boxes(rows(0, 0, 2, 4), np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0]]))
        assert out[0] == pytest.approx((-4, 0, 0, 2), abs=1e-9)

    def test_hflip_box(self):
        out = transform_boxes(rows(10, 0, 20, 5), np.array([[-1.0, 0.0, 64.0], [0.0, 1.0, 0.0]]))
        assert out[0] == pytest.approx((44, 0, 54, 5))
