import filecmp

import numpy as np
import pytest

from retina_kit.data import read_manifest
from retina_kit.errors import ValidationError
from retina_kit.ppm import load_ppm
from retina_kit.synth import (
    BRIGHT_BAND,
    DARK_BAND,
    STREAM_SYNTH,
    SynthConfig,
    render_sample,
    synth_generate,
    template_mask,
    template_size,
)


def small_config(**kw):
    defaults = dict(image_size=(64, 64), num_images=6, seed=9)
    defaults.update(kw)
    return SynthConfig(**defaults)


class TestConfig:
    def test_rejects_template_larger_than_image(self):
        with pytest.raises(ValidationError, match="cannot fit"):
            SynthConfig(image_size=(32, 32), template_height_px=(20, 48))

    def test_rejects_wide_template(self):
        # height 30 at aspect 1.0 needs a 30 px width
        with pytest.raises(ValidationError, match="cannot fit"):
            SynthConfig(image_size=(24, 64), template_aspect=(1.0, 2.0), template_height_px=(20, 30))

    def test_rejects_bad_mode(self):
        with pytest.raises(ValidationError):
            SynthConfig(background_mode="plaid")

    def test_rejects_negative_noise(self):
        with pytest.raises(ValidationError):
            SynthConfig(noise_std=-0.1)


class TestTemplateMask:
    @pytest.mark.parametrize("w,h", [(6, 20), (10, 30), (3, 12), (20, 40)])
    def test_tight_bbox_equals_rectangle(self, w, h):
        mask = template_mask(w, h)
        assert mask.shape == (h, w)
        rows = np.nonzero(mask.any(axis=1))[0]
        cols = np.nonzero(mask.any(axis=0))[0]
        assert rows[0] == 0 and rows[-1] == h - 1
        assert cols[0] == 0 and cols[-1] == w - 1


class TestGenerate:
    def test_manifest_row_count_and_ranges(self, tmp_path):
        cfg = small_config(pedestrians_per_image=(1, 3))
        records = synth_generate(cfg, tmp_path)
        assert len(records) == cfg.num_images
        manifest = read_manifest(tmp_path / "manifest.jsonl")
        assert len(manifest) == cfg.num_images
        for rec in manifest:
            assert 1 <= len(rec.boxes) <= 3
            for x1, y1, x2, y2 in rec.boxes:
                assert 0 <= x1 <= x2 <= 64
                assert 0 <= y1 <= y2 <= 64

    def test_zero_pedestrians(self, tmp_path):
        cfg = small_config(pedestrians_per_image=(0, 0))
        synth_generate(cfg, tmp_path)
        manifest = read_manifest(tmp_path / "manifest.jsonl")
        assert all(rec.boxes.shape == (0, 4) for rec in manifest)

    def test_deterministic_output_trees(self, tmp_path):
        cfg = small_config()
        a = tmp_path / "a"
        b = tmp_path / "b"
        synth_generate(cfg, a)
        synth_generate(cfg, b)
        names = sorted(p.name for p in a.iterdir())
        assert names == sorted(p.name for p in b.iterdir())
        match, mismatch, errors = filecmp.cmpfiles(a, b, names, shallow=False)
        assert mismatch == [] and errors == []

    def test_noise_free_template_matches_rng_trace(self, tmp_path):
        cfg = small_config(
            num_images=1,
            pedestrians_per_image=(1, 1),
            template_height_px=(24, 24),
            template_aspect=(2.0, 2.0),
            noise_std=0.0,
            seed=5,
        )
        records = synth_generate(cfg, tmp_path)
        # replay the documented draw order: count, height, aspect, x, y, band, intensity
        rng = np.random.default_rng([cfg.seed, STREAM_SYNTH, 0])
        assert int(rng.integers(1, 2)) == 1
        t_h = int(rng.integers(24, 25))
        aspect = rng.uniform(2.0, 2.0)
        t_w, t_h = template_size(t_h, aspect)
        x0 = int(rng.integers(0, 64 - t_w + 1))
        y0 = int(rng.integers(0, 64 - t_h + 1))
        band = DARK_BAND if rng.integers(0, 2) == 0 else BRIGHT_BAND
        intensity = rng.uniform(*band) * 255.0

        box = records[0].boxes[0]
        assert box.tolist() == [x0, y0, x0 + t_w, y0 + t_h]

        img = load_ppm(tmp_path / "img_00000.ppm")
        mask = template_mask(t_w, t_h)
        painted = img[:, y0 : y0 + t_h, x0 : x0 + t_w][:, mask]
        assert np.all(np.abs(painted - round(intensity)) <= 0.5)

    def test_flat_background_value(self, tmp_path):
        cfg = small_config(num_images=1, pedestrians_per_image=(0, 0), noise_std=0.0)
        synth_generate(cfg, tmp_path)
        img = load_ppm(tmp_path / "img_00000.ppm")
        assert np.all(img == 128.0)  # 0.5 * 255 rounds to 128

    def test_gradient_background(self, tmp_path):
        cfg = small_config(
            num_images=1, pedestrians_per_image=(0, 0), noise_std=0.0, background_mode="gradient"
        )
        synth_generate(cfg, tmp_path)
        img = load_ppm(tmp_path / "img_00000.ppm")
        col = img[0, :, 0]
        assert col[0] < col[-1]
        assert np.all(np.diff(col) >= 0)

    def test_pixels_stay_in_u8_range(self, tmp_path):
        cfg = small_config(num_images=2, noise_std=0.5)
        synth_generate(cfg, tmp_path)
        img = load_ppm(tmp_path / "img_00000.ppm")
        assert img.min() >= 0.0 and img.max() <= 255.0

    def test_render_sample_pure(self):
        cfg = small_config()
        a_img, a_boxes = render_sample(cfg, 3)
        b_img, b_boxes = render_sample(cfg, 3)
        assert np.array_equal(a_img, b_img)
        assert np.array_equal(a_boxes, b_boxes)
