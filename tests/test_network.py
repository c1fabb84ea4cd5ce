import numpy as np
import pytest

from oracles import rel_err
from retina_kit.anchors import AnchorConfig, AnchorLevel, assign_targets, generate_anchors
from retina_kit.boxes import BBox
from retina_kit.config import run_config_from_dict
from retina_kit.errors import ValidationError
from retina_kit.layers import sigmoid
from retina_kit.losses import LossConfig, total_detection_loss
from retina_kit.network import (
    NetworkConfig,
    _flatten_level_outputs,
    _unflatten_row_grads,
    backward,
    check_level_strides,
    forward,
    init_params,
    param_shapes,
)

ANCHORS = AnchorConfig()  # strides 8 and 16, 9 anchors per cell


def anchors_at(*strides):
    return AnchorConfig(levels=tuple(AnchorLevel(s, 2.0 * s) for s in strides))


def make_net(seed=0, **kw):
    cfg = NetworkConfig(**kw)
    params = init_params(cfg, ANCHORS, np.random.default_rng(seed))
    return cfg, params


class TestConfigAndInit:
    def test_rejects_missing_stage(self):
        cfg = NetworkConfig(stem_channels=(8, 16))  # deepest stride is 4
        with pytest.raises(ValidationError):
            check_level_strides(cfg, anchors_at(8, 16))

    def test_rejects_non_power_of_two_stride(self):
        cfg = NetworkConfig()
        with pytest.raises(ValidationError):
            check_level_strides(cfg, anchors_at(6))

    def test_rejects_non_consecutive_strides(self):
        cfg = NetworkConfig()
        with pytest.raises(ValidationError):
            check_level_strides(cfg, anchors_at(4, 16))

    @pytest.mark.parametrize(
        "head_depth, anchors",
        [
            pytest.param(0, ANCHORS, id="depth0"),
            pytest.param(2, ANCHORS, id="depth2"),
            pytest.param(2, anchors_at(4, 8, 16), id="three-levels"),
        ],
    )
    def test_param_shapes_match_init(self, head_depth, anchors):
        cfg = NetworkConfig(head_depth=head_depth)
        params = init_params(cfg, anchors, np.random.default_rng(0))
        shapes = param_shapes(cfg, anchors)
        assert list(shapes) == list(params)
        assert shapes == {name: p.shape for name, p in params.items()}

    def test_param_inventory(self):
        cfg, params = make_net(head_depth=2)
        expected = {"stem0.w", "stem0.b", "stem1.w", "stem1.b", "stem2.w", "stem2.b",
                    "stem3.w", "stem3.b"}
        for li in range(2):
            expected |= {f"lateral{li}.w", f"lateral{li}.b", f"smooth{li}.w", f"smooth{li}.b"}
        for prefix in ("cls", "box"):
            expected |= {f"{prefix}0.w", f"{prefix}0.b", f"{prefix}1.w", f"{prefix}1.b",
                         f"{prefix}_out.w", f"{prefix}_out.b"}
        assert set(params) == expected
        assert all(p.dtype == np.float32 for p in params.values())

    def test_init_deterministic(self):
        _, a = make_net(seed=7)
        _, b = make_net(seed=7)
        assert all(np.array_equal(a[k], b[k]) for k in a)


class TestForward:
    def test_output_shapes(self):
        cfg, params = make_net()
        (cls_rows, box_rows), cache = forward(np.zeros((3, 64, 64), np.float32), params, cfg, ANCHORS)
        assert cls_rows.shape == (len(generate_anchors(ANCHORS, 64, 64)),) == (720,)
        assert box_rows.shape == (720, 4)
        (cls0, box0), (cls1, box1) = cache["outputs"]
        assert cls0.shape == (9, 8, 8) and box0.shape == (36, 8, 8)
        assert cls1.shape == (9, 4, 4) and box1.shape == (36, 4, 4)

    def test_prior_prob_bias_init(self, rng):
        cfg, params = make_net(prior_prob=0.01)
        img = rng.standard_normal((3, 64, 64)).astype(np.float32) * 0.3
        (cls_rows, _), _ = forward(img, params, cfg, ANCHORS)
        assert 0.005 <= float(sigmoid(cls_rows).mean()) <= 0.02

    def test_deterministic_forward(self, rng):
        cfg, params = make_net()
        img = rng.standard_normal((3, 64, 64)).astype(np.float32)
        (ca, ba), _ = forward(img, params, cfg, ANCHORS)
        (cb, bb), _ = forward(img, params, cfg, ANCHORS)
        assert np.array_equal(ca, cb) and np.array_equal(ba, bb)

    def test_rejects_bad_image_dims(self):
        cfg, params = make_net()
        with pytest.raises(ValidationError):
            forward(np.zeros((3, 60, 64), np.float32), params, cfg, ANCHORS)
        with pytest.raises(ValidationError):
            forward(np.zeros((1, 64, 64), np.float32), params, cfg, ANCHORS)


class TestFlatten:
    def test_round_trip(self, rng):
        cfg, params = make_net()
        img = rng.standard_normal((3, 64, 64)).astype(np.float32)
        (cls_rows, box_rows), cache = forward(img, params, cfg, ANCHORS)
        outputs = cache["outputs"]
        flat_cls, flat_box = _flatten_level_outputs(outputs, 9)
        assert flat_cls.shape == (720,) and flat_box.shape == (720, 4)
        assert np.array_equal(flat_cls, cls_rows) and np.array_equal(flat_box, box_rows)
        back = _unflatten_row_grads(flat_cls, flat_box, outputs, 9)
        for (gc, gb), (c, b) in zip(back, outputs):
            assert np.array_equal(gc, c) and np.array_equal(gb, b)

    def test_anchor_order_alignment(self, rng):
        # a one-hot bump on the head map lands on the matching flat row
        cfg, params = make_net()
        img = np.zeros((3, 64, 64), np.float32)
        _, cache = forward(img, params, cfg, ANCHORS)
        (cls0, box0), (cls1, box1) = cache["outputs"]
        probe = np.zeros_like(cls0)
        a_idx, r, c = 5, 2, 3
        probe[a_idx, r, c] = 1.0
        flat, _ = _flatten_level_outputs([(probe, box0), (np.zeros_like(cls1), box1)], 9)
        row = (r * 8 + c) * 9 + a_idx
        assert flat[row] == 1.0
        assert flat.sum() == 1.0


class TestBackward:
    def test_zero_grads(self, rng):
        cfg, params = make_net()
        img = rng.standard_normal((3, 64, 64)).astype(np.float32)
        (cls_rows, box_rows), cache = forward(img, params, cfg, ANCHORS)
        grads = backward(cache, np.zeros_like(cls_rows), np.zeros_like(box_rows))
        assert all(not g.any() for g in grads.values())

    def test_backward_linearity(self, rng):
        cfg, params = make_net()
        img = rng.standard_normal((3, 64, 64)).astype(np.float32)
        (cls_rows, box_rows), cache = forward(img, params, cfg, ANCHORS)
        gc = rng.standard_normal(cls_rows.shape).astype(np.float32)
        gb = rng.standard_normal(box_rows.shape).astype(np.float32)
        g1 = backward(cache, gc, gb)
        g2 = backward(cache, 2 * gc, 2 * gb)
        for name in g1:
            assert np.allclose(g2[name], 2 * g1[name], rtol=1e-5, atol=1e-6)

    def test_grad_shape_mismatch_rejected(self, rng):
        cfg, params = make_net()
        img = rng.standard_normal((3, 64, 64)).astype(np.float32)
        (cls_rows, box_rows), cache = forward(img, params, cfg, ANCHORS)
        with pytest.raises(ValidationError):
            backward(cache, np.zeros(cls_rows.shape[0] - 1), np.zeros_like(box_rows))

    def test_sum_of_outputs_matches_fd(self, rng):
        # scalar = sum of all head outputs; check ~40 random parameters at a
        # fan-in-scaled point (FD probes need headroom from the ReLU kinks)
        from retina_kit.gradcheck import _well_conditioned_params

        cfg = run_config_from_dict({"seed": 3})
        params = _well_conditioned_params(cfg.network, cfg.anchors, np.random.default_rng(5))
        img = rng.standard_normal((3, 16, 16)) * 0.3

        def scalar():
            (c, b), _ = forward(img, params, cfg.network, cfg.anchors)
            return float(c.sum() + b.sum())

        (cls_rows, box_rows), cache = forward(img, params, cfg.network, cfg.anchors)
        grads = backward(cache, np.ones_like(cls_rows), np.ones_like(box_rows))
        names = sorted(params)
        worst = 0.0
        for _ in range(40):
            name = names[int(rng.integers(0, len(names)))]
            flat = params[name].reshape(-1)
            i = int(rng.integers(0, flat.size))
            orig = flat[i]
            h = 1e-6 * max(1.0, abs(orig))
            flat[i] = orig + h
            up = scalar()
            flat[i] = orig - h
            down = scalar()
            flat[i] = orig
            worst = max(worst, rel_err(float(grads[name].reshape(-1)[i]), (up - down) / (2 * h), 1e-6))
        assert worst < 1e-3


class TestTrainingStep:
    def test_single_positive_step_decreases_loss(self):
        # smoke test over 10 seeds; one Adam-sized step at lr 1e-3
        from retina_kit.optim import AdamState, adam_step

        anchor_cfg = AnchorConfig()
        grid = generate_anchors(anchor_cfg, 64, 64)
        loss_cfg = LossConfig()
        gts = [BBox(20.0, 12.0, 36.0, 44.0)]
        assignment = assign_targets(grid, gts, anchor_cfg)
        failures = 0
        for seed in range(10):
            net_cfg = NetworkConfig()
            params = init_params(net_cfg, anchor_cfg, np.random.default_rng(seed))
            img = (np.random.default_rng(seed + 100).standard_normal((3, 64, 64)) * 0.3).astype(
                np.float32
            )

            def loss_of(p):
                (fc, fb), cache = forward(img, p, net_cfg, anchor_cfg)
                val, gc, gb = total_detection_loss(fc, fb, assignment, loss_cfg)
                return val, cache, gc, gb

            before, cache, gc, gb = loss_of(params)
            grads = backward(cache, gc, gb)
            state = AdamState.zeros_like(params)
            adam_step(params, grads, state, lr=1e-3)
            after, _, _, _ = loss_of(params)
            if after >= before:
                failures += 1
        assert failures <= 1
