import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    box_array,
    naive_augment_boxes,
    naive_augment_transform,
    naive_warp_affine,
    random_box,
)
from retina_kit.boxes import BBox, box_areas, transform_boxes
from retina_kit.data import (
    IMAGENET_MEAN,
    AugmentConfig,
    ManifestError,
    SampleRecord,
    augment,
    draw_augment_transform,
    preprocess,
    read_manifest,
    resize_bilinear,
    warp_affine,
    write_manifest,
)
from retina_kit.errors import ValidationError

IDENTITY_AUG = dict(
    translate_frac=0.0, max_rot_deg=0.0, scale_min=1.0, scale_max=1.0, hflip_prob=0.0
)
WIDE_AUG = dict(translate_frac=0.4, max_rot_deg=30.0, scale_min=0.6, scale_max=1.6)


def translation(tx, ty):
    return np.array([[1.0, 0.0, tx], [0.0, 1.0, ty]])


def hflip(width):
    return np.array([[-1.0, 0.0, width], [0.0, 1.0, 0.0]])


class TestPreprocess:
    def test_all_zero_image(self):
        out = preprocess(np.zeros((3, 8, 8), np.float32), (8, 8))
        for c, mean in enumerate(IMAGENET_MEAN):
            assert np.allclose(out[c], -mean, atol=1e-6)

    def test_all_255_image(self):
        out = preprocess(np.full((3, 8, 8), 255.0, np.float32), (8, 8))
        for c, mean in enumerate(IMAGENET_MEAN):
            assert np.allclose(out[c], 1.0 - mean, atol=1e-6)

    def test_resize_preserves_constants(self):
        img = np.full((3, 10, 6), 77.0, np.float32)
        out = preprocess(img, (16, 32))
        assert out.shape == (3, 32, 16)
        for c in range(3):
            assert np.allclose(out[c], 77.0 / 255.0 - IMAGENET_MEAN[c], atol=1e-6)

    def test_same_size_resize_is_exact(self, rng):
        img = rng.uniform(-1, 1, size=(3, 9, 11)).astype(np.float32)
        assert np.array_equal(resize_bilinear(img, 11, 9), img)

    def test_bounds_hold_for_any_input(self, rng):
        img = rng.integers(0, 256, size=(3, 17, 5)).astype(np.float32)
        out = preprocess(img, (24, 8))
        assert out.min() >= -0.6 and out.max() <= 0.6

    def test_rejects_zero_target(self):
        with pytest.raises(ValidationError):
            preprocess(np.zeros((3, 4, 4)), (0, 4))


class TestWarp:
    def test_identity_is_bitwise(self, rng):
        img = rng.integers(0, 256, size=(3, 12, 9)).astype(np.float32)
        out = warp_affine(img, translation(0.0, 0.0))
        assert np.array_equal(out, img)

    def test_translation_moves_pixels(self):
        img = np.zeros((1, 6, 6), np.float32)
        img[0, 2, 3] = 9.0
        out = warp_affine(img, translation(1.0, 2.0))
        assert out[0, 4, 4] == 9.0
        assert out[0, 2, 3] == 0.0

    def test_out_of_frame_fills_zero(self):
        img = np.full((1, 4, 4), 5.0, np.float32)
        out = warp_affine(img, translation(2.0, 0.0))
        assert np.all(out[0, :, :2] == 0.0)
        assert np.all(out[0, :, 2:] == 5.0)

    def test_hflip_is_exact_mirror(self, rng):
        img = rng.integers(0, 256, size=(3, 5, 8)).astype(np.float32)
        out = warp_affine(img, hflip(8))
        assert np.array_equal(out, img[:, :, ::-1])

    @pytest.mark.parametrize("shape", [(3, 64, 64), (3, 24, 40), (1, 17, 9)])
    def test_matches_naive_warp_bytes(self, shape):
        # the cached grid and flat gather keep the four-corner sums bit-exact
        _, h, w = shape
        img = np.random.default_rng(7).uniform(-120, 140, size=shape).astype(np.float32)
        cfg = AugmentConfig(translate_frac=0.3, max_rot_deg=30.0, scale_min=0.7, scale_max=1.4)
        for seed in range(60):
            m = draw_augment_transform(w, h, cfg, np.random.default_rng(seed))
            assert warp_affine(img, m).tobytes() == naive_warp_affine(img, m).tobytes()


class TestAugment:
    def test_identity_config_is_exact_identity(self, rng):
        img = rng.integers(0, 256, size=(3, 16, 16)).astype(np.float32)
        boxes = np.array([[2.0, 3.0, 10.0, 12.0]])
        cfg = AugmentConfig(**IDENTITY_AUG)
        out_img, out_boxes = augment(img, boxes, cfg, np.random.default_rng(0))
        assert np.array_equal(out_img, img)
        assert out_boxes.tolist() == boxes.tolist()

    def test_pure_translation_shifts_boxes(self):
        img = np.zeros((3, 32, 32), np.float32)
        boxes = np.array([[5.0, 6.0, 15.0, 20.0]])
        moved = transform_boxes(boxes, translation(3.0, -2.0))
        assert moved[0] == pytest.approx((8.0, 4.0, 18.0, 18.0))

    def test_hflip_box_arithmetic(self):
        img = np.zeros((3, 16, 64), np.float32)
        cfg = AugmentConfig(**{**IDENTITY_AUG, "hflip_prob": 1.0})
        boxes = np.array([[10.0, 0.0, 20.0, 5.0]])
        _, out_boxes = augment(img, boxes, cfg, np.random.default_rng(1))
        assert out_boxes[0] == pytest.approx((44.0, 0.0, 54.0, 5.0))

    def test_boxes_always_in_bounds_positive_area(self, rng):
        cfg = AugmentConfig()
        for _ in range(200):
            img = np.zeros((3, 64, 64), np.float32)
            boxes = box_array([random_box(rng, 0, 64, min_side=3) for _ in range(3)])
            _, out = augment(img, boxes, cfg, rng)
            for x1, y1, x2, y2 in out:
                assert 0.0 <= x1 <= x2 <= 64.0
                assert 0.0 <= y1 <= y2 <= 64.0
            assert np.all(box_areas(out) > 0.0)

    def test_small_survivors_dropped(self):
        img = np.zeros((3, 32, 32), np.float32)
        cfg = AugmentConfig(**{**IDENTITY_AUG, "min_box_area_px": 16.0})
        _, out = augment(img, np.array([[1.0, 1.0, 3.0, 3.0]]), cfg, np.random.default_rng(0))
        assert out.shape == (0, 4)

    def test_clipped_slivers_dropped_by_visibility(self):
        img = np.zeros((3, 32, 32), np.float32)
        cfg = AugmentConfig(
            translate_frac=0.5,
            max_rot_deg=0.0,
            scale_min=1.0,
            scale_max=1.0,
            hflip_prob=0.0,
            min_box_area_px=1.0,
            min_visible_frac=0.9,
        )
        # find a draw that pushes the box mostly out of frame
        dropped = False
        for seed in range(50):
            rng = np.random.default_rng(seed)
            t = draw_augment_transform(32, 32, cfg, np.random.default_rng(seed))
            if abs(t[0, 2]) > 12:
                box = np.array([[0.0, 0.0, 16.0, 16.0]])
                _, out = augment(img, box, cfg, np.random.default_rng(seed))
                dropped = dropped or len(out) == 0
        assert dropped

    def test_deterministic_given_seed(self, rng):
        img = rng.integers(0, 256, size=(3, 32, 32)).astype(np.float32)
        boxes = np.array([[4.0, 4.0, 20.0, 28.0]])
        cfg = AugmentConfig()
        a_img, a_boxes = augment(img, boxes, cfg, np.random.default_rng(42))
        b_img, b_boxes = augment(img, boxes, cfg, np.random.default_rng(42))
        assert np.array_equal(a_img, b_img)
        assert np.array_equal(a_boxes, b_boxes)

    def test_boxes_match_per_box_oracle(self):
        # Non-square images and boxes that straddle the border, so a clip that
        # mixes up width and height, or a wrong corner set, changes the bits.
        rng = np.random.default_rng(29)
        configs = [
            AugmentConfig(),
            AugmentConfig(**WIDE_AUG),
        ]
        kept = dropped = 0
        for i in range(1200):
            cfg = configs[i % 2]
            w, h = int(rng.integers(8, 48)), int(rng.integers(8, 48))
            bxs = []
            for _ in range(int(rng.integers(0, 5))):
                x1, y1 = rng.uniform(-0.2 * w, w), rng.uniform(-0.2 * h, h)
                bxs.append(BBox(x1, y1, x1 + rng.uniform(1, w / 2), y1 + rng.uniform(1, h / 2)))
            seed = int(rng.integers(2**32))
            img = np.zeros((1, h, w), np.float32)
            _, got = augment(img, box_array(bxs), cfg, np.random.default_rng(seed))
            m = draw_augment_transform(w, h, cfg, np.random.default_rng(seed))
            want = naive_augment_boxes(bxs, m, w, h, cfg.min_box_area_px, cfg.min_visible_frac)
            assert got.tobytes() == box_array(want).tobytes(), i
            kept += len(want)
            dropped += len(bxs) - len(want)
        assert kept > 1000 and dropped > 200


class TestAugmentTransform:
    @pytest.mark.parametrize("wide", [False, True], ids=["default", "wide"])
    def test_matches_homogeneous_oracle(self, wide):
        cfg = AugmentConfig(**WIDE_AUG) if wide else AugmentConfig()
        sizes = np.random.default_rng(3).integers(8, 71, size=(1000, 2))
        for seed, (w, h) in enumerate(sizes.tolist()):
            got = draw_augment_transform(w, h, cfg, np.random.default_rng(seed))
            want = naive_augment_transform(w, h, cfg, np.random.default_rng(seed))
            assert got.shape == (2, 3) and got.dtype == np.float64
            assert np.max(np.abs(got - want)) <= 1e-12, (seed, w, h)

    def test_hflip_only_mirrors_x(self):
        cfg = AugmentConfig(**{**IDENTITY_AUG, "hflip_prob": 1.0})
        pts = np.array([[0.0, 0.0], [10.0, 3.0], [40.0, 17.0]])
        m = draw_augment_transform(40, 20, cfg, np.random.default_rng(0))
        want = [[40.0, 0.0], [30.0, 3.0], [0.0, 17.0]]
        assert np.allclose(pts @ m[:, :2].T + m[:, 2], want, rtol=0, atol=1e-12)

    def test_rotation_only_turns_about_the_centre(self):
        cfg = AugmentConfig(**{**IDENTITY_AUG, "max_rot_deg": 45.0})
        for seed in range(20):
            m = draw_augment_transform(30, 20, cfg, np.random.default_rng(seed))
            rng = np.random.default_rng(seed)
            rng.uniform()  # the hflip draw comes first, then the angle
            a = np.radians(rng.uniform(-45.0, 45.0))
            # the centre stays put; a point 10 px right of it turns by the drawn angle
            pts = np.array([[15.0, 10.0], [25.0, 10.0]])
            want = [[15.0, 10.0], [15.0 + 10 * np.cos(a), 10.0 + 10 * np.sin(a)]]
            assert np.allclose(pts @ m[:, :2].T + m[:, 2], want, rtol=0, atol=1e-12)


class TestManifest:
    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert read_manifest(path) == []

    def test_round_trip_exact(self, tmp_path, rng):
        records = []
        for i in range(100):
            n = int(rng.integers(0, 4))
            boxes = box_array([random_box(rng, 0, 64, min_side=1) for _ in range(n)])
            records.append(SampleRecord(f"img_{i}.ppm", boxes))
        path = tmp_path / "m.jsonl"
        write_manifest(records, path)
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert all(r["labels"] == [0] * len(r["boxes"]) for r in rows)
        back = read_manifest(path)
        assert len(back) == len(records)
        for a, b in zip(records, back):
            assert a.image_path == b.image_path
            assert a.boxes.tolist() == b.boxes.tolist()

    def test_invalid_json_names_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"image": "a.ppm", "boxes": [], "labels": []}\nnot json\n')
        with pytest.raises(ManifestError, match="line 2"):
            read_manifest(path)

    def test_inverted_box_names_line(self, tmp_path):
        path = tmp_path / "inv.jsonl"
        rows = [
            {"image": "a.ppm", "boxes": [[0, 0, 4, 4]], "labels": [0]},
            {"image": "b.ppm", "boxes": [[5, 0, 1, 4]], "labels": [0]},
        ]
        path.write_text("".join(json.dumps(r) + "\n" for r in rows))
        with pytest.raises(ManifestError, match="line 2"):
            read_manifest(path)

    def test_missing_keys_rejected(self, tmp_path):
        path = tmp_path / "keys.jsonl"
        path.write_text('{"image": "a.ppm", "boxes": []}\n')
        with pytest.raises(ManifestError, match="labels"):
            read_manifest(path)

    def test_count_mismatch_rejected(self, tmp_path):
        path = tmp_path / "count.jsonl"
        path.write_text('{"image": "a.ppm", "boxes": [[0, 0, 2, 2]], "labels": []}\n')
        with pytest.raises(ManifestError, match="line 1"):
            read_manifest(path)

    def test_non_zero_label_rejected(self, tmp_path):
        path = tmp_path / "classes.jsonl"
        rows = [
            {"image": "a.ppm", "boxes": [[0, 0, 4, 4]], "labels": [0]},
            {"image": "b.ppm", "boxes": [[0, 0, 4, 4], [5, 5, 9, 9]], "labels": [0, 1]},
        ]
        path.write_text("".join(json.dumps(r) + "\n" for r in rows))
        with pytest.raises(ManifestError, match=r"classes\.jsonl: line 2: .*single-class"):
            read_manifest(path)

    @pytest.mark.parametrize("label", [0.7, -0.4, 0.0, "0", False, None])
    def test_label_must_be_integer_zero(self, tmp_path, label):
        path = tmp_path / "labels.jsonl"
        rows = [
            {"image": "a.ppm", "boxes": [[0, 0, 4, 4]], "labels": [0]},
            {"image": "b.ppm", "boxes": [[0, 0, 4, 4]], "labels": [label]},
        ]
        path.write_text("".join(json.dumps(r) + "\n" for r in rows))
        with pytest.raises(ManifestError, match=r"labels\.jsonl: line 2: .*integer 0"):
            read_manifest(path)

    @pytest.mark.parametrize(
        "line",
        [
            '{"image": "b.ppm", "boxes": [["1", true, "10", 20]], "labels": [0]}',
            '{"image": 5, "boxes": [], "labels": []}',
            '{"image": null, "boxes": [], "labels": []}',
            '{"image": "b.ppm", "boxes": [[0, 0, 1%s, 4]], "labels": [0]}' % ("0" * 4999),
            '{"image": "b.ppm", "boxes": [[0, 0, 1%s, 4]], "labels": [0]}' % ("0" * 400),
        ],
        ids=["string-and-bool-coords", "image-int", "image-null", "5000-digits", "401-digits"],
    )
    def test_coords_must_be_json_numbers_and_image_a_string(self, tmp_path, line):
        path = tmp_path / "types.jsonl"
        path.write_text('{"image": "a.ppm", "boxes": [[0, 0, 4, 4]], "labels": [0]}\n' + line + "\n")
        with pytest.raises(ManifestError, match=r"types\.jsonl: line 2: "):
            read_manifest(path)

    @pytest.mark.parametrize(
        "line, message",
        [
            ('{"image": "b.ppm", "boxes": [[0, 0, NaN, 4]], "labels": [0]}',
             r"box coordinates must be finite, got \(0\.0, 0\.0, nan, 4\.0\)"),
            ('{"image": "b.ppm", "boxes": [[2, 0, 2, 4]], "labels": [0]}',
             r"b\.ppm: box \(2\.0, 0\.0, 2\.0, 4\.0\) has no area"),
            ('{"image": "", "boxes": [], "labels": []}', "sample image_path must be non-empty"),
            ('{"image": "b.ppm", "boxes": [], "labels": ""}', "labels must be a list, got ''"),
            ('{"image": "b.ppm", "boxes": [], "labels": {}}', r"labels must be a list, got \{\}"),
        ],
        ids=["nan", "zero-area", "empty-image", "labels-string", "labels-object"],
    )
    def test_rejection_messages(self, tmp_path, line, message):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"image": "a.ppm", "boxes": [[0, 0, 4, 4]], "labels": [0]}\n' + line + "\n")
        with pytest.raises(ManifestError, match=rf"bad\.jsonl: line 2: {message}$"):
            read_manifest(path)


class TestAugmentConfig:
    @pytest.mark.parametrize(
        "kw",
        [
            dict(translate_frac=-0.1),
            dict(translate_frac=1.0),
            dict(scale_min=0.0),
            dict(scale_min=1.2, scale_max=1.1),
            dict(hflip_prob=1.5),
            dict(min_visible_frac=2.0),
        ],
    )
    def test_rejects_bad_values(self, kw):
        with pytest.raises(ValidationError):
            AugmentConfig(**kw)
