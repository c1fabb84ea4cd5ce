import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import box_array, central_difference, logsumexp_bce, naive_detection_loss, rel_err
from retina_kit.anchors import AnchorConfig, AnchorLevel, assign_targets, generate_anchors
from retina_kit.boxes import BBox
from retina_kit.errors import ValidationError
from retina_kit.losses import (
    LossConfig,
    loss_targets,
    sigmoid_focal_loss,
    smooth_l1,
    total_detection_loss,
)


class TestLossConfig:
    def test_defaults(self):
        cfg = LossConfig()
        assert cfg.gamma == 2.0 and cfg.alpha == 0.25

    def test_alpha_one_allowed(self):
        assert LossConfig(alpha=1.0).alpha == 1.0

    @pytest.mark.parametrize("kw", [dict(gamma=-1), dict(alpha=0.0), dict(alpha=1.5), dict(smooth_l1_beta=0.0)])
    def test_rejects_bad_values(self, kw):
        with pytest.raises(ValidationError):
            LossConfig(**kw)


class TestFocal:
    def test_plain_ce_at_zero_logit(self):
        # gamma 0, alpha 1 reduces to cross-entropy on positives
        cfg = LossConfig(gamma=0.0, alpha=1.0)
        loss, _ = sigmoid_focal_loss(np.array([0.0]), np.array([1.0]), cfg)
        assert loss[0] == pytest.approx(math.log(2.0), rel=1e-12)

    def test_known_value_gamma2(self):
        # p = 0.9 on a positive: 0.25 * 0.1^2 * (-ln 0.9)
        cfg = LossConfig(gamma=2.0, alpha=0.25)
        logit = math.log(9.0)
        loss, _ = sigmoid_focal_loss(np.array([logit]), np.array([1.0]), cfg)
        assert loss[0] == pytest.approx(0.25 * 0.01 * -math.log(0.9), rel=1e-9)

    def test_well_classified_limit(self):
        cfg = LossConfig(gamma=2.0, alpha=0.25)
        loss, grad = sigmoid_focal_loss(np.array([40.0]), np.array([1.0]), cfg)
        assert 0.0 <= loss[0] < 1e-15
        assert np.isfinite(grad).all()

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            sigmoid_focal_loss(np.zeros(3), np.zeros(4), LossConfig())

    def test_non_binary_targets_rejected(self):
        with pytest.raises(ValidationError):
            sigmoid_focal_loss(np.zeros(3), np.array([0.0, 0.5, 1.0]), LossConfig())

    def test_gamma0_equals_weighted_bce(self, rng):
        logits = rng.uniform(-30, 30, size=10_000)
        targets = rng.integers(0, 2, size=10_000).astype(np.float64)
        for alpha in (0.25, 0.5, 1.0):
            cfg = LossConfig(gamma=0.0, alpha=alpha)
            loss, _ = sigmoid_focal_loss(logits, targets, cfg)
            ref = logsumexp_bce(logits, targets, alpha)
            assert np.max(np.abs(loss - ref)) < 1e-12

    def test_gamma_monotone_for_confident(self, rng):
        # p_t >= 0.5 (correct side): higher gamma never increases the loss
        logits = np.abs(rng.uniform(0, 10, size=256))
        targets = np.ones(256)
        l2, _ = sigmoid_focal_loss(logits, targets, LossConfig(gamma=2.0, alpha=0.25))
        l0, _ = sigmoid_focal_loss(logits, targets, LossConfig(gamma=0.0, alpha=0.25))
        assert np.all(l2 <= l0)

    def test_gradient_against_fd(self, rng):
        worst = 0.0
        for _ in range(100):
            logit = float(rng.uniform(-6, 6))
            target = float(rng.integers(0, 2))
            gamma = float(rng.choice([0.0, 1.0, 2.0]))
            alpha = float(rng.choice([0.25, 0.5]))
            cfg = LossConfig(gamma=gamma, alpha=alpha)
            t = np.array([target])

            def f(x):
                loss, _ = sigmoid_focal_loss(np.array([x]), t, cfg)
                return float(loss[0])

            _, grad = sigmoid_focal_loss(np.array([logit]), t, cfg)
            worst = max(worst, rel_err(float(grad[0]), central_difference(f, logit), 1e-10))
        assert worst < 1e-6

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_stable_over_extreme_logits(self, dtype):
        logits = np.linspace(-80, 80, 641).astype(dtype)
        for target in (0.0, 1.0):
            targets = np.full_like(logits, target)
            loss, grad = sigmoid_focal_loss(logits, targets, LossConfig())
            assert np.all(np.isfinite(loss))
            assert np.all(np.isfinite(grad))


class TestSmoothL1:
    def test_zero_residual(self):
        loss, grad = smooth_l1(np.array([3.0]), np.array([3.0]), 1.0)
        assert loss[0] == 0.0 and grad[0] == 0.0

    def test_continuity_at_beta(self):
        beta = 0.25
        loss, grad = smooth_l1(np.array([beta]), np.array([0.0]), beta)
        assert loss[0] == pytest.approx(beta / 2.0, rel=1e-12)
        assert grad[0] == 1.0

    def test_linear_branch_value(self):
        beta = 1.0 / 9.0
        loss, grad = smooth_l1(np.array([1.0]), np.array([0.0]), beta)
        assert loss[0] == pytest.approx(1.0 - 1.0 / 18.0, rel=1e-12)
        assert grad[0] == 1.0

    @given(st.floats(-3, 3), st.floats(0.05, 2.0))
    @settings(max_examples=200)
    def test_branches_meet(self, d, beta):
        eps = 1e-9
        below, _ = smooth_l1(np.array([beta - eps]), np.array([0.0]), beta)
        above, _ = smooth_l1(np.array([beta + eps]), np.array([0.0]), beta)
        assert abs(float(below[0]) - float(above[0])) < 1e-6

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            smooth_l1(np.zeros(2), np.zeros(3), 1.0)

    def test_gradient_against_fd(self, rng):
        beta = 1.0 / 9.0
        worst = 0.0
        for _ in range(100):
            d = float(rng.uniform(-2, 2))
            if abs(abs(d) - beta) < 1e-3:
                d += 5e-3

            def f(x):
                loss, _ = smooth_l1(np.array([x]), np.array([0.0]), beta)
                return float(loss[0])

            _, grad = smooth_l1(np.array([d]), np.array([0.0]), beta)
            worst = max(worst, rel_err(float(grad[0]), central_difference(f, d), 1e-10))
        assert worst < 1e-6


def small_scene(rng, n_gts=2):
    cfg = AnchorConfig(
        levels=(AnchorLevel(8, 12.0),),
        scales=(1.0, 1.4),
        ratios=(0.5, 1.0, 2.0),
        pos_iou=0.4,
        neg_iou=0.3,
    )
    grid = generate_anchors(cfg, 16, 16)
    gts = [BBox(1.0, 1.0, 9.0, 13.0), BBox(6.0, 2.0, 14.0, 15.0)][:n_gts]
    assignment = assign_targets(grid, box_array(gts), cfg)
    logits = rng.standard_normal(len(grid)) * 2.0
    deltas = rng.standard_normal((len(grid), 4)) * 0.3
    return assignment, logits, deltas


def image_loss(logits, deltas, assignment, cfg):
    """total_detection_loss on a batch of one image, with the batch axis taken off."""
    losses, g_cls, g_box = total_detection_loss(
        logits[None], deltas[None], *loss_targets([assignment]), cfg
    )
    return losses[0], g_cls[0], g_box[0]


class TestTotalLoss:
    def test_empty_scene_easy_negatives(self):
        rng = np.random.default_rng(0)
        assignment, logits, deltas = small_scene(rng, n_gts=0)
        logits = np.full_like(logits, -40.0)
        total, g_cls, g_box = image_loss(logits, deltas, assignment, LossConfig())
        assert total < 1e-10
        assert np.all(g_box == 0.0)

    def test_perfect_prediction(self):
        rng = np.random.default_rng(0)
        assignment, logits, deltas = small_scene(rng)
        logits = np.where(assignment.labels == 1, 40.0, -40.0).astype(np.float64)
        deltas = assignment.deltas.copy()
        total, _, _ = image_loss(logits, deltas, assignment, LossConfig())
        assert total < 1e-12

    def test_normalizes_by_positive_count(self):
        rng = np.random.default_rng(0)
        assignment, logits, deltas = small_scene(rng)
        assert assignment.num_positive >= 1
        total, _, _ = image_loss(logits, deltas, assignment, LossConfig())
        cls, _ = sigmoid_focal_loss(
            logits,
            np.where(assignment.labels == 1, 1.0, 0.0),
            LossConfig(),
        )
        valid = assignment.labels != -1
        reg, _ = smooth_l1(
            deltas[assignment.labels == 1],
            assignment.deltas[assignment.labels == 1],
            LossConfig().smooth_l1_beta,
        )
        expect = (float(cls[valid].sum()) + float(reg.sum())) / assignment.num_positive
        assert total == pytest.approx(expect, rel=1e-12)

    def test_ignore_anchors_are_inert(self, rng):
        assignment, logits, deltas = small_scene(rng)
        ignore_idx = np.nonzero(assignment.labels == -1)[0]
        assert ignore_idx.size > 0
        base = image_loss(logits, deltas, assignment, LossConfig())
        bumped = logits.copy()
        bumped[ignore_idx] += 7.5
        after = image_loss(bumped, deltas, assignment, LossConfig())
        assert after[0] == base[0]
        assert np.array_equal(after[1][ignore_idx], np.zeros(ignore_idx.size))
        assert np.array_equal(
            np.delete(after[1], ignore_idx, axis=0), np.delete(base[1], ignore_idx, axis=0)
        )

    def test_shape_mismatch_rejected(self, rng):
        assignment, logits, deltas = small_scene(rng)
        with pytest.raises(ValidationError):
            image_loss(logits[:-1], deltas, assignment, LossConfig())
        # (N, 1) would be a class axis; the single-class head takes (N,)
        with pytest.raises(ValidationError):
            image_loss(logits[:, None], deltas, assignment, LossConfig())
        with pytest.raises(ValidationError):
            image_loss(logits, deltas[:, :3], assignment, LossConfig())
        labels, targets = loss_targets([assignment])
        with pytest.raises(ValidationError):
            total_detection_loss(logits[None], deltas[None], labels, targets[1:], LossConfig())

    def test_gradients_match_fd(self, rng):
        assignment, logits, deltas = small_scene(rng)
        cfg = LossConfig()
        total, g_cls, g_box = image_loss(logits, deltas, assignment, cfg)

        def scalar():
            v, _, _ = image_loss(logits, deltas, assignment, cfg)
            return v

        worst = 0.0
        for arr, grad in ((logits, g_cls), (deltas, g_box)):
            flat, gflat = arr.reshape(-1), grad.reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + 1e-5
                up = scalar()
                flat[i] = orig - 1e-5
                down = scalar()
                flat[i] = orig
                worst = max(worst, rel_err(float(gflat[i]), (up - down) / 2e-5, 1e-8))
        assert worst < 1e-4


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_batched_loss_equals_per_image_oracle(rng, dtype):
    anchors = AnchorConfig()
    grid = generate_anchors(anchors, 64, 64)
    assignments = []
    for count in (0, 1, 3, 2, 5, 1, 0, 4):
        xy = rng.uniform(0, 44, size=(count, 2))
        wh = rng.uniform(8, 20, size=(count, 2))
        assignments.append(assign_targets(grid, np.hstack([xy, xy + wh]), anchors))
    n = len(grid)
    logits = (rng.standard_normal((8, n)) * 4).astype(dtype)
    deltas = (rng.standard_normal((8, n, 4)) * 0.5).astype(dtype)
    losses, g_cls, g_box = total_detection_loss(
        logits, deltas, *loss_targets(assignments), LossConfig()
    )
    assert g_cls.dtype == g_box.dtype == dtype
    for i, assignment in enumerate(assignments):
        loss, gc, gb = naive_detection_loss(logits[i], deltas[i], assignment, LossConfig())
        assert losses[i] == loss
        assert gc.tobytes() == g_cls[i].tobytes() and gb.tobytes() == g_box[i].tobytes()
