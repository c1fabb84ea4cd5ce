import numpy as np
import pytest

from oracles import naive_assign, random_box
from retina_kit.anchors import (
    IGNORE,
    NEGATIVE,
    POSITIVE,
    AnchorConfig,
    AnchorLevel,
    assign_targets,
    generate_anchors,
)
from retina_kit.boxes import BBox
from retina_kit.errors import ValidationError


def single_level_config(**kw):
    defaults = dict(
        levels=(AnchorLevel(8, 32.0),),
        scales=(1.0, 2 ** (1 / 3), 2 ** (2 / 3)),
        ratios=(0.5, 1.0, 2.0),
        pos_iou=0.5,
        neg_iou=0.4,
        force_match=True,
    )
    defaults.update(kw)
    return AnchorConfig(**defaults)


class TestConfig:
    def test_defaults(self):
        cfg = AnchorConfig()
        assert [lvl.stride for lvl in cfg.levels] == [8, 16]
        assert cfg.num_anchors_per_cell == 9

    def test_rejects_unordered_strides(self):
        with pytest.raises(ValidationError):
            AnchorConfig(levels=(AnchorLevel(16, 32.0), AnchorLevel(8, 16.0)))

    def test_rejects_bad_thresholds(self):
        with pytest.raises(ValidationError):
            AnchorConfig(pos_iou=0.4, neg_iou=0.5)

    def test_rejects_empty_scales(self):
        with pytest.raises(ValidationError):
            AnchorConfig(scales=())


class TestGenerate:
    def test_count_formula(self):
        grid = generate_anchors(single_level_config(), 64, 64)
        assert len(grid) == 8 * 8 * 9
        assert grid.per_level_counts == [576]

    def test_two_level_count(self):
        grid = generate_anchors(AnchorConfig(), 64, 64)
        assert grid.per_level_counts == [8 * 8 * 9, 4 * 4 * 9]

    def test_first_cell_unit_anchor(self):
        cfg = single_level_config(scales=(1.0,), ratios=(1.0,))
        grid = generate_anchors(cfg, 64, 64)
        # cell (0, 0): center (4, 4), width = height = 32
        assert grid.anchors[0] == pytest.approx([-12.0, -12.0, 20.0, 20.0])

    def test_anchor_geometry(self):
        cfg = single_level_config(scales=(2.0,), ratios=(4.0,))
        grid = generate_anchors(cfg, 64, 64)
        w = grid.anchors[0, 2] - grid.anchors[0, 0]
        h = grid.anchors[0, 3] - grid.anchors[0, 1]
        assert w * h == pytest.approx((32.0 * 2.0) ** 2)
        assert h / w == pytest.approx(4.0)

    def test_ordering_row_major_then_cell(self):
        cfg = single_level_config(scales=(1.0,), ratios=(1.0,))
        grid = generate_anchors(cfg, 64, 64)
        # second anchor is the next column of the same row
        c0 = 0.5 * (grid.anchors[0, 0] + grid.anchors[0, 2])
        c1 = 0.5 * (grid.anchors[1, 0] + grid.anchors[1, 2])
        assert c1 - c0 == pytest.approx(8.0)
        r0 = 0.5 * (grid.anchors[0, 1] + grid.anchors[0, 3])
        r8 = 0.5 * (grid.anchors[8, 1] + grid.anchors[8, 3])
        assert r8 - r0 == pytest.approx(8.0)

    def test_deterministic(self):
        a = generate_anchors(AnchorConfig(), 64, 64)
        b = generate_anchors(AnchorConfig(), 64, 64)
        assert np.array_equal(a.anchors, b.anchors)

    def test_rejects_non_divisible(self):
        with pytest.raises(ValidationError, match="16"):
            generate_anchors(AnchorConfig(), 60, 64)


class TestAssign:
    def test_empty_gts_all_negative(self):
        grid = generate_anchors(single_level_config(), 64, 64)
        out = assign_targets(grid, [], single_level_config())
        assert np.all(out.labels == NEGATIVE)
        assert out.num_positive == 0

    def test_exact_anchor_is_positive_with_zero_delta(self):
        cfg = single_level_config()
        grid = generate_anchors(cfg, 64, 64)
        target = BBox(*grid.anchors[17])
        out = assign_targets(grid, [target], cfg)
        assert out.labels[17] == POSITIVE
        assert out.matched_gt[17] == 0
        assert out.deltas[17] == pytest.approx([0.0, 0.0, 0.0, 0.0], abs=1e-9)

    def test_rejects_degenerate_gt(self):
        cfg = single_level_config()
        grid = generate_anchors(cfg, 64, 64)
        with pytest.raises(ValidationError):
            assign_targets(grid, np.array([[1.0, 1.0, 1.0, 5.0]]), cfg)

    def test_partition_invariant(self, rng):
        cfg = single_level_config()
        grid = generate_anchors(cfg, 64, 64)
        gts = [random_box(rng, 0, 64, min_side=4) for _ in range(3)]
        out = assign_targets(grid, gts, cfg)
        n_pos = int(np.sum(out.labels == POSITIVE))
        n_neg = int(np.sum(out.labels == NEGATIVE))
        n_ign = int(np.sum(out.labels == IGNORE))
        assert n_pos + n_neg + n_ign == len(grid)
        assert n_pos == out.num_positive

    @pytest.mark.parametrize("force", [True, False])
    def test_matches_brute_force(self, rng, force):
        cfg = single_level_config(force_match=force)
        grid = generate_anchors(cfg, 64, 64)
        for _ in range(5):
            gts = [random_box(rng, 0, 64, min_side=4) for _ in range(rng.integers(1, 4))]
            got = assign_targets(grid, gts, cfg)
            anchor_boxes = [BBox(*row) for row in grid.anchors]
            labels, matched, forced = naive_assign(
                anchor_boxes, gts, cfg.pos_iou, cfg.neg_iou, force
            )
            assert got.labels.tolist() == labels
            assert got.matched_gt.tolist() == matched
            assert got.forced.tolist() == forced

    def test_raising_pos_iou_never_adds_positives(self, rng):
        grid = generate_anchors(single_level_config(), 64, 64)
        gts = [random_box(rng, 0, 64, min_side=6) for _ in range(2)]
        counts = []
        for pos in (0.45, 0.55, 0.65, 0.75):
            cfg = single_level_config(pos_iou=pos, neg_iou=0.4, force_match=False)
            counts.append(assign_targets(grid, gts, cfg).num_positive)
        assert all(b <= a for a, b in zip(counts, counts[1:]))

    def test_force_match_covers_every_overlapping_gt(self, rng):
        cfg = single_level_config(pos_iou=0.99)  # thresholds alone match nothing
        grid = generate_anchors(cfg, 64, 64)
        # gts in separate cells so their best anchors cannot collide
        gts = [BBox(2.0, 2.0, 14.0, 20.0), BBox(40.0, 30.0, 56.0, 60.0)]
        out = assign_targets(grid, gts, cfg)
        assert out.num_positive >= len(gts)
        assert set(out.matched_gt[out.labels == POSITIVE]) == {0, 1}
        assert np.all(out.forced[out.labels == POSITIVE])

    def test_force_match_flag_distinguishes_threshold_positives(self):
        cfg = single_level_config()
        grid = generate_anchors(cfg, 64, 64)
        target = BBox(*grid.anchors[100])
        out = assign_targets(grid, [target], cfg)
        assert out.labels[100] == POSITIVE
        assert not out.forced[100]  # threshold positive, not a promotion

    def test_permutation_invariance_up_to_relabel(self, rng):
        cfg = single_level_config()
        grid = generate_anchors(cfg, 64, 64)
        gts = [BBox(2.0, 2.0, 14.0, 20.0), BBox(40.0, 30.0, 56.0, 60.0)]
        fwd = assign_targets(grid, gts, cfg)
        rev = assign_targets(grid, gts[::-1], cfg)
        assert np.array_equal(fwd.labels, rev.labels)
        relabeled = np.where(rev.matched_gt >= 0, 1 - rev.matched_gt, -1)
        assert np.array_equal(fwd.matched_gt, relabeled)
