import numpy as np
import pytest

from oracles import rel_err
from retina_kit.anchors import AnchorConfig, AnchorLevel, assign_targets, generate_anchors
from retina_kit.boxes import BBox
from retina_kit.config import run_config_from_dict
from retina_kit.errors import ValidationError
from retina_kit.layers import sigmoid
from retina_kit.losses import LossConfig, loss_targets, total_detection_loss
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
        (cls_rows, box_rows), cache = forward(
            np.zeros((2, 3, 64, 64), np.float32), params, cfg, ANCHORS
        )
        assert cls_rows.shape == (2, len(generate_anchors(ANCHORS, 64, 64))) == (2, 720)
        assert box_rows.shape == (2, 720, 4)
        t = cache["tensors"]
        cls0, box0, cls1, box1 = t["cls_out/0"], t["box_out/0"], t["cls_out/1"], t["box_out/1"]
        assert cls0.shape == (9, 2, 8, 8) and box0.shape == (36, 2, 8, 8)
        assert cls1.shape == (9, 2, 4, 4) and box1.shape == (36, 2, 4, 4)

    def test_prior_prob_bias_init(self, rng):
        cfg, params = make_net(prior_prob=0.01)
        img = rng.standard_normal((1, 3, 64, 64)).astype(np.float32) * 0.3
        (cls_rows, _), _ = forward(img, params, cfg, ANCHORS)
        assert 0.005 <= float(sigmoid(cls_rows).mean()) <= 0.02

    def test_deterministic_forward(self, rng):
        cfg, params = make_net()
        img = rng.standard_normal((2, 3, 64, 64)).astype(np.float32)
        (ca, ba), _ = forward(img, params, cfg, ANCHORS)
        (cb, bb), _ = forward(img, params, cfg, ANCHORS)
        assert np.array_equal(ca, cb) and np.array_equal(ba, bb)

    def test_rows_do_not_depend_on_the_batch(self, rng):
        # detect runs a batch of one and eval batches of eight; both must
        # give every image the same bytes
        cfg, params = make_net()
        imgs = (rng.standard_normal((8, 3, 64, 64)) * 50).astype(np.float32)
        (cls_rows, box_rows), _ = forward(imgs, params, cfg, ANCHORS)
        for i in range(8):
            (c, b), _ = forward(imgs[i : i + 1], params, cfg, ANCHORS)
            assert c[0].tobytes() == cls_rows[i].tobytes()
            assert b[0].tobytes() == box_rows[i].tobytes()

    def test_rejects_bad_image_dims(self):
        cfg, params = make_net()
        with pytest.raises(ValidationError):
            forward(np.zeros((1, 3, 60, 64), np.float32), params, cfg, ANCHORS)
        with pytest.raises(ValidationError):
            forward(np.zeros((1, 1, 64, 64), np.float32), params, cfg, ANCHORS)
        with pytest.raises(ValidationError, match=r"\(B, 3, H, W\)"):
            forward(np.zeros((3, 64, 64), np.float32), params, cfg, ANCHORS)


class TestFlatten:
    def test_round_trip(self, rng):
        cfg, params = make_net()
        img = rng.standard_normal((2, 3, 64, 64)).astype(np.float32)
        (cls_rows, box_rows), cache = forward(img, params, cfg, ANCHORS)
        t = cache["tensors"]
        outputs = [(t["cls_out/0"], t["box_out/0"]), (t["cls_out/1"], t["box_out/1"])]
        flat_cls, flat_box = _flatten_level_outputs(outputs, 9)
        assert flat_cls.shape == (2, 720) and flat_box.shape == (2, 720, 4)
        assert np.array_equal(flat_cls, cls_rows) and np.array_equal(flat_box, box_rows)
        back = _unflatten_row_grads(flat_cls, flat_box, outputs, 9)
        for (gc, gb), (c, b) in zip(back, outputs):
            assert np.array_equal(gc, c) and np.array_equal(gb, b)

    def test_anchor_order_alignment(self, rng):
        # a one-hot bump on the head map lands on the matching flat row
        cfg, params = make_net()
        img = np.zeros((2, 3, 64, 64), np.float32)
        _, cache = forward(img, params, cfg, ANCHORS)
        t = cache["tensors"]
        cls0, box0, cls1, box1 = t["cls_out/0"], t["box_out/0"], t["cls_out/1"], t["box_out/1"]
        probe = np.zeros_like(cls0)
        a_idx, b, r, c = 5, 1, 2, 3
        probe[a_idx, b, r, c] = 1.0
        flat, _ = _flatten_level_outputs([(probe, box0), (np.zeros_like(cls1), box1)], 9)
        row = (r * 8 + c) * 9 + a_idx
        assert flat[b, row] == 1.0
        assert flat.sum() == 1.0


class TestBackward:
    def test_zero_grads(self, rng):
        cfg, params = make_net()
        img = rng.standard_normal((2, 3, 64, 64)).astype(np.float32)
        (cls_rows, box_rows), cache = forward(img, params, cfg, ANCHORS)
        grads = backward(cache, np.zeros_like(cls_rows), np.zeros_like(box_rows))
        assert all(not g.any() for g in grads.values())

    def test_backward_linearity(self, rng):
        cfg, params = make_net()
        img = rng.standard_normal((2, 3, 64, 64)).astype(np.float32)
        (cls_rows, box_rows), cache = forward(img, params, cfg, ANCHORS)
        gc = rng.standard_normal(cls_rows.shape).astype(np.float32)
        gb = rng.standard_normal(box_rows.shape).astype(np.float32)
        g1 = backward(cache, gc, gb)
        g2 = backward(cache, 2 * gc, 2 * gb)
        for name in g1:
            assert np.allclose(g2[name], 2 * g1[name], rtol=1e-5, atol=1e-6)

    def test_grad_shape_mismatch_rejected(self, rng):
        cfg, params = make_net()
        img = rng.standard_normal((2, 3, 64, 64)).astype(np.float32)
        (cls_rows, box_rows), cache = forward(img, params, cfg, ANCHORS)
        with pytest.raises(ValidationError):
            backward(cache, np.zeros((2, cls_rows.shape[1] - 1)), np.zeros_like(box_rows))
        with pytest.raises(ValidationError):
            backward(cache, cls_rows[0], box_rows[0])

    def test_sum_of_outputs_matches_fd(self, rng):
        assert sum_of_outputs_fd_error(run_config_from_dict({"seed": 3}), rng) < 1e-3

    def test_shared_head_grads_sum_levels_in_order(self, rng):
        # a shared head's gradient is the level-0-first sum of the per-level
        # passes, bit for bit; with three levels any other order changes it
        anchors = anchors_at(4, 8, 16)
        cfg = NetworkConfig(head_depth=1)
        params = init_params(cfg, anchors, np.random.default_rng(2))
        img = rng.standard_normal((2, 3, 32, 32)).astype(np.float32)
        (cls_rows, box_rows), cache = forward(img, params, cfg, anchors)
        gc = rng.standard_normal(cls_rows.shape).astype(np.float32)
        gb = rng.standard_normal(box_rows.shape).astype(np.float32)
        full = backward(cache, gc, gb)
        grid = generate_anchors(anchors, 32, 32)
        per_level = []
        for li in range(3):
            keep = np.zeros(len(grid), bool)
            keep[grid.level_slice(li)] = True
            per_level.append(backward(cache, np.where(keep, gc, 0), np.where(keep[:, None], gb, 0)))
        for name, g in full.items():
            summed = (per_level[0][name] + per_level[1][name]) + per_level[2][name]
            if name.startswith(("cls", "box")):
                assert np.array_equal(g, summed), name
            else:
                assert np.allclose(g, summed, rtol=1e-4, atol=1e-5 * np.abs(g).max()), name

    def test_stem_stage_past_deepest_level_gets_zero_grad(self, rng):
        # stage 4 (stride 32) feeds nothing: one level at stride 16, no head blocks
        cfg = run_config_from_dict({
            "seed": 3,
            "network": {"stem_channels": [8, 16, 32, 64, 64], "head_depth": 0},
            "anchors": {"levels": [{"stride": 16, "base_size": 32}]},
        })
        params = init_params(cfg.network, cfg.anchors, np.random.default_rng(4))
        img = rng.standard_normal((2, 3, 32, 32)).astype(np.float32)
        (cls_rows, box_rows), cache = forward(img, params, cfg.network, cfg.anchors)
        assert not any(name.startswith("stem4") for name in cache["tensors"])
        grads = backward(cache, np.ones_like(cls_rows), np.ones_like(box_rows))
        assert not grads["stem4.w"].any() and not grads["stem4.b"].any()
        assert all(grads[f"stem{i}.w"].any() for i in range(4))
        assert sum_of_outputs_fd_error(cfg, rng) < 1e-3

    def test_batch_grads_are_per_image_sums(self, rng):
        from retina_kit.gradcheck import _well_conditioned_params

        cfg = NetworkConfig()
        params = _well_conditioned_params(cfg, ANCHORS, np.random.default_rng(6))
        imgs = rng.standard_normal((3, 3, 64, 64)) * 0.3
        (cls_rows, box_rows), cache = forward(imgs, params, cfg, ANCHORS)
        gc, gb = rng.standard_normal(cls_rows.shape), rng.standard_normal(box_rows.shape)
        full = backward(cache, gc, gb)
        alone = []
        for i in range(3):
            _, cache_i = forward(imgs[i : i + 1], params, cfg, ANCHORS)
            alone.append(backward(cache_i, gc[i : i + 1], gb[i : i + 1]))
        for name, g in full.items():
            assert np.allclose(g, sum(a[name] for a in alone), rtol=1e-12, atol=1e-12), name

    def test_image_gradient_not_computed(self, rng, monkeypatch):
        from retina_kit import layers

        asked = []
        real = layers.conv2d_backward

        def recording(inp, weights, stride, grad_out, input_grad=True):
            asked.append(input_grad)
            return real(inp, weights, stride, grad_out, input_grad=input_grad)

        monkeypatch.setattr(layers, "conv2d_backward", recording)
        cfg, params = make_net()
        (cls_rows, box_rows), cache = forward(
            rng.standard_normal((2, 3, 64, 64)).astype(np.float32), params, cfg, ANCHORS
        )
        backward(cache, np.ones_like(cls_rows), np.ones_like(box_rows))
        assert asked.count(False) == 1 and asked[-1] is False  # stem0, walked last


def sum_of_outputs_fd_error(cfg, rng):
    """Worst relative FD error of backward for scalar = sum of all head outputs.

    Checks ~40 random parameters at a fan-in-scaled point (FD probes need
    headroom from the ReLU kinks).
    """
    from retina_kit.gradcheck import _well_conditioned_params

    params = _well_conditioned_params(cfg.network, cfg.anchors, np.random.default_rng(5))
    img = rng.standard_normal((1, 3, 16, 16)) * 0.3

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
    return worst


class TestTrainingStep:
    def test_single_positive_step_decreases_loss(self):
        # smoke test over 10 seeds; one Adam-sized step at lr 1e-3
        from retina_kit.optim import AdamState, adam_step

        anchor_cfg = AnchorConfig()
        grid = generate_anchors(anchor_cfg, 64, 64)
        loss_cfg = LossConfig()
        gts = [BBox(20.0, 12.0, 36.0, 44.0)]
        labels, targets = loss_targets([assign_targets(grid, gts, anchor_cfg)])
        failures = 0
        for seed in range(10):
            net_cfg = NetworkConfig()
            params = init_params(net_cfg, anchor_cfg, np.random.default_rng(seed))
            img = np.random.default_rng(seed + 100).standard_normal((1, 3, 64, 64)) * 0.3
            img = img.astype(np.float32)

            def loss_of(p):
                (fc, fb), cache = forward(img, p, net_cfg, anchor_cfg)
                val, gc, gb = total_detection_loss(fc, fb, labels, targets, loss_cfg)
                return val[0], cache, gc, gb

            before, cache, gc, gb = loss_of(params)
            grads = backward(cache, gc, gb)
            state = AdamState.zeros_like(params)
            adam_step(params, grads, state, lr=1e-3)
            after, _, _, _ = loss_of(params)
            if after >= before:
                failures += 1
        assert failures <= 1
