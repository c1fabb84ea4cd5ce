import numpy as np
import pytest

from oracles import naive_conv2d, rel_err, tap_gemm_conv2d_backward, tap_gemm_conv2d_forward
from retina_kit.errors import ValidationError
from retina_kit.layers import (
    columns,
    conv2d_backward,
    conv2d_forward,
    crop,
    pad,
    relu,
    relu_backward,
    sigmoid,
    softplus,
    upsample_nearest_x2,
    upsample_nearest_x2_backward,
)


class TestElementwise:
    def test_relu_values(self):
        assert relu(np.array(-1.0)) == 0.0
        assert relu(np.array(2.0)) == 2.0

    def test_relu_backward_gates_and_zeroes_at_kink(self):
        pre = np.array([-1.0, 0.0, 3.0])
        g = relu_backward(np.ones(3), pre)
        assert g.tolist() == [0.0, 0.0, 1.0]

    def test_sigmoid_extremes_finite(self):
        x = np.array([-800.0, -80.0, 0.0, 80.0, 800.0])
        s = sigmoid(x)
        assert np.all(np.isfinite(s))
        assert s[2] == 0.5
        assert 0.0 <= s[0] < s[1] < 0.5 < s[3] <= s[4] <= 1.0

    def test_softplus_matches_logaddexp(self, rng):
        x = rng.uniform(-60, 60, size=100)
        assert np.allclose(softplus(x), np.logaddexp(0.0, x), atol=1e-13)


def per_image_naive(x, w, b, stride):
    """naive_conv2d on each image of a (C, B, H, W) batch, restacked."""
    return np.stack([naive_conv2d(x[:, i], w, b, stride) for i in range(x.shape[1])], axis=1)


class TestUpsample:
    def test_forward_repeats_blocks(self):
        x = np.arange(8.0).reshape(1, 2, 2, 2)
        y = upsample_nearest_x2(x)
        assert y.shape == (1, 2, 4, 4)
        assert np.array_equal(y[0, 0, :2, :2], np.full((2, 2), 0.0))
        assert np.array_equal(y[0, 0, 2:, 2:], np.full((2, 2), 3.0))
        assert np.array_equal(y[0, 1, 2:, 2:], np.full((2, 2), 7.0))

    def test_backward_sums_blocks(self):
        g = upsample_nearest_x2_backward(np.ones((3, 2, 4, 6)))
        assert g.shape == (3, 2, 2, 3)
        assert np.all(g == 4.0)

    def test_round_trip_gradient_identity(self, rng):
        x = rng.standard_normal((2, 3, 3, 5))
        g = rng.standard_normal((2, 3, 6, 10))
        # <upsample(x), g> == <x, upsample_backward(g)> (adjoint property)
        lhs = float(np.sum(upsample_nearest_x2(x) * g))
        rhs = float(np.sum(x * upsample_nearest_x2_backward(g)))
        assert lhs == pytest.approx(rhs, rel=1e-12)


class TestConvForward:
    def test_center_tap_identity(self):
        x = np.arange(24.0).reshape(3, 2, 2, 2)
        w = np.zeros((3, 3, 3, 3))
        for c in range(3):
            w[c, c, 1, 1] = 1.0
        out = conv2d_forward(x, w, np.zeros(3), 1)
        assert np.array_equal(out, x)

    def test_all_ones_hand_counts(self):
        x = np.ones((1, 2, 3, 3))
        w = np.ones((1, 1, 3, 3))
        out = conv2d_forward(x, w, np.zeros(1), 1)
        for b in range(2):
            assert out[0, b, 1, 1] == 9.0
            assert out[0, b, 0, 0] == 4.0
            assert out[0, b, 0, 2] == 4.0
            assert out[0, b, 2, 0] == 4.0

    def test_bias_added(self):
        x = np.zeros((1, 2, 2, 2))
        w = np.zeros((2, 1, 3, 3))
        out = conv2d_forward(x, w, np.array([1.5, -2.0]), 1)
        assert np.all(out[0] == 1.5) and np.all(out[1] == -2.0)

    @pytest.mark.parametrize("stride,h,w", [(1, 8, 8), (2, 8, 8), (2, 7, 9), (1, 5, 6)])
    def test_matches_naive_loop_exactly_on_integers(self, rng, stride, h, w):
        # integer-valued inputs make every sum exact, so any summation order
        # must agree bit for bit with the six-loop reference, image by image
        for batch in (2, 3):
            x = rng.integers(-4, 5, size=(2, batch, h, w)).astype(np.float32)
            wgt = rng.integers(-3, 4, size=(3, 2, 3, 3)).astype(np.float32)
            b = rng.integers(-2, 3, size=3).astype(np.float32)
            got = conv2d_forward(x, wgt, b, stride)
            want = per_image_naive(x, wgt, b, stride)
            assert got.shape == want.shape
            assert np.array_equal(got, want)

    def test_matches_naive_loop_on_floats(self, rng):
        x = rng.standard_normal((2, 3, 8, 8))
        wgt = rng.standard_normal((4, 2, 3, 3))
        b = rng.standard_normal(4)
        for stride in (1, 2):
            got = conv2d_forward(x, wgt, b, stride)
            want = per_image_naive(x, wgt, b, stride)
            assert np.allclose(got, want, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("batch", [2, 3])
    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("h,w", [(8, 6), (7, 9), (1, 2)])
    def test_batch_matches_naive_per_image(self, rng, batch, k, stride, h, w):
        x = rng.standard_normal((3, batch, h, w))
        wgt = rng.standard_normal((4, 3, k, k))
        b = rng.standard_normal(4)
        got = conv2d_forward(x, wgt, b, stride)
        assert got.shape == (4, batch, -(-h // stride), -(-w // stride))
        assert np.allclose(got, per_image_naive(x, wgt, b, stride), rtol=1e-12, atol=1e-12)

    def test_1x1_kernel(self, rng):
        x = rng.standard_normal((3, 2, 4, 4))
        wgt = rng.standard_normal((2, 3, 1, 1))
        out = conv2d_forward(x, wgt, np.zeros(2), 1)
        want = np.einsum("oc,cbhw->obhw", wgt[:, :, 0, 0], x)
        assert np.allclose(out, want, atol=1e-12)

    def test_output_dims_ceil(self):
        w = np.zeros((1, 1, 3, 3))
        assert conv2d_forward(np.zeros((1, 2, 7, 9)), w, np.zeros(1), 2).shape == (1, 2, 4, 5)
        assert conv2d_forward(np.zeros((1, 1, 1, 1)), w, np.zeros(1), 2).shape == (1, 1, 1, 1)

    def test_channel_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            conv2d_forward(np.zeros((2, 1, 4, 4)), np.zeros((1, 3, 3, 3)), np.zeros(1), 1)
        with pytest.raises(ValidationError, match=r"\(C, B, H, W\)"):
            conv2d_forward(np.zeros((3, 4, 4)), np.zeros((1, 3, 3, 3)), np.zeros(1), 1)


class TestConvBackward:
    def test_zero_grad_out(self):
        x = np.ones((2, 2, 4, 4))
        w = np.ones((3, 2, 3, 3))
        gi, gw, gb = conv2d_backward(x, w, 1, np.zeros((3, 2, 4, 4)))
        assert not gi.any() and not gw.any() and not gb.any()

    def test_single_pixel_bias_path(self):
        x = np.zeros((1, 2, 4, 4))
        w = np.zeros((2, 1, 3, 3))
        g = np.zeros((2, 2, 4, 4))
        g[1, 1, 2, 3] = 1.0
        _, _, gb = conv2d_backward(x, w, 1, g)
        assert gb.tolist() == [0.0, 1.0]

    def test_grad_out_shape_rejected(self):
        with pytest.raises(ValidationError):
            conv2d_backward(np.zeros((1, 1, 4, 4)), np.zeros((1, 1, 3, 3)), 2, np.zeros((1, 1, 4, 4)))

    @pytest.mark.parametrize("stride,k", [(1, 3), (2, 3), (1, 1), (2, 1)])
    def test_matches_finite_differences(self, rng, stride, k):
        x = rng.standard_normal((2, 3, 5, 6))
        w = rng.standard_normal((3, 2, k, k))
        b = rng.standard_normal(3)
        proj = rng.standard_normal(conv2d_forward(x, w, b, stride).shape)

        def scalar():
            return float(np.sum(conv2d_forward(x, w, b, stride) * proj))

        gi, gw, gb = conv2d_backward(x, w, stride, proj)
        worst = 0.0
        for arr, grad in ((x, gi), (w, gw), (b, gb)):
            flat, gflat = arr.reshape(-1), grad.reshape(-1)
            idx = rng.choice(flat.size, size=min(20, flat.size), replace=False)
            for i in idx:
                orig = flat[i]
                flat[i] = orig + 1e-6
                up = scalar()
                flat[i] = orig - 1e-6
                down = scalar()
                flat[i] = orig
                worst = max(worst, rel_err(float(gflat[i]), (up - down) / 2e-6, 1e-9))
        assert worst < 1e-4

    @pytest.mark.parametrize("stride,k", [(1, 3), (2, 3), (1, 1), (2, 1)])
    def test_batch_grads_sum_per_image_grads(self, rng, stride, k):
        # odd sides on purpose; weight and bias gradients are the per-image
        # sums, the input gradient is the per-image gradients stacked
        x = rng.standard_normal((2, 3, 7, 5))
        w = rng.standard_normal((3, 2, k, k))
        g = rng.standard_normal(conv2d_forward(x, w, np.zeros(3), stride).shape)
        gi, gw, gb = conv2d_backward(x, w, stride, g)
        alone = [conv2d_backward(x[:, i : i + 1], w, stride, g[:, i : i + 1]) for i in range(3)]
        assert np.allclose(gi, np.concatenate([a[0] for a in alone], axis=1), rtol=1e-12, atol=1e-12)
        assert np.allclose(gw, sum(a[1] for a in alone), rtol=1e-12, atol=1e-12)
        assert np.allclose(gb, sum(a[2] for a in alone), rtol=1e-12, atol=1e-12)

    def test_input_grad_skipped_on_request(self, rng):
        x = rng.standard_normal((2, 2, 6, 6))
        w = rng.standard_normal((3, 2, 3, 3))
        g = rng.standard_normal((3, 2, 3, 3))
        full = conv2d_backward(x, w, 2, g)
        gi, gw, gb = conv2d_backward(x, w, 2, g, input_grad=False)
        assert gi is None
        assert np.array_equal(gw, full[1]) and np.array_equal(gb, full[2])

    def test_linearity_in_grad_out(self, rng):
        x = rng.standard_normal((2, 2, 4, 4))
        w = rng.standard_normal((3, 2, 3, 3))
        g = rng.standard_normal((3, 2, 4, 4))
        gi1, gw1, gb1 = conv2d_backward(x, w, 1, g)
        gi2, gw2, gb2 = conv2d_backward(x, w, 1, 2.0 * g)
        assert np.allclose(gi2, 2 * gi1) and np.allclose(gw2, 2 * gw1) and np.allclose(gb2, 2 * gb1)


def same_bytes(a, b):
    same_type = a.dtype == b.dtype and a.shape == b.shape
    return same_type and np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()


class TestTapGemmOracle:
    """The conv pair gives the tap-GEMM oracle's bytes, on the padded path too."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("batch", [1, 3, 8])
    @pytest.mark.parametrize("k, stride", [(3, 1), (3, 2), (1, 1), (1, 2)])
    def test_conv_pair_matches_oracle_bytes(self, rng, k, stride, batch, dtype):
        x = rng.standard_normal((5, batch, 7, 10)).astype(dtype)  # an odd height at stride 2
        w = rng.standard_normal((7, 5, k, k)).astype(dtype)
        b = rng.standard_normal(7).astype(dtype)
        out = conv2d_forward(x, w, b, stride)
        assert same_bytes(out, tap_gemm_conv2d_forward(x, w, b, stride))
        g = rng.standard_normal(out.shape).astype(dtype)
        want = tap_gemm_conv2d_backward(x, w, stride, g)
        for got, wanted in zip(conv2d_backward(x, w, stride, g), want):
            assert same_bytes(got, wanted)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize(
        "batch, height, width",
        # past 8,192 values per channel numpy sums a crop view in another order than
        # the contiguous array, so the bias gradient must sum a contiguous copy
        [(1, 4, 6), (3, 4, 6), (8, 4, 6), (3, 48, 64)],
    )
    def test_padded_buffers_match_oracle_bytes(self, rng, batch, height, width, dtype):
        # input read from its padded buffer, output written into one, gradient in columns
        x = rng.standard_normal((4, batch, height, width)).astype(dtype)
        w = rng.standard_normal((6, 4, 3, 3)).astype(dtype)
        b = rng.standard_normal(6).astype(dtype)
        x_buf = pad(x)
        out_shape = (6, batch, height, width)
        out_buf = np.zeros((6, x_buf.shape[1]), dtype)
        x_view = crop(columns(x_buf, x.shape), x.shape)
        out = conv2d_forward(x_view, w, b, 1, padded=x_buf, out=out_buf)
        assert np.shares_memory(out, out_buf)
        assert same_bytes(out, tap_gemm_conv2d_forward(x, w, b, 1))
        assert same_bytes(out_buf, pad(np.ascontiguousarray(out)))  # the pads stay +0.0

        g = -np.abs(rng.standard_normal(out_shape)).astype(dtype)
        g_cols = columns(pad(g), out_shape).copy()
        g_view = crop(g_cols, out_shape)
        gi, gw, gb = conv2d_backward(x, w, 1, g_view, padded=x_buf, grad_cols=g_cols)
        want_gi, want_gw, want_gb = tap_gemm_conv2d_backward(x, w, 1, g)
        assert same_bytes(gw, want_gw) and same_bytes(gb, want_gb)
        # the input gradient in columns: the oracle's values with +0.0 in every junk column
        assert same_bytes(gi, columns(pad(want_gi), x.shape))

    def test_padded_buffer_of_wrong_layout_rejected(self, rng):
        x = rng.standard_normal((2, 1, 4, 4))
        w = rng.standard_normal((3, 2, 3, 3))
        with pytest.raises(ValidationError, match="padded buffer"):
            conv2d_forward(x, w, np.zeros(3), 2, padded=pad(x))
        with pytest.raises(ValidationError, match="padded buffer"):
            conv2d_forward(x, w, np.zeros(3), 1, padded=pad(x)[:, 1:])
        out = np.zeros((3, pad(x).shape[1]), np.float32)  # float64 output into float32
        with pytest.raises(ValidationError, match="out is float32"):
            conv2d_forward(x, w, np.zeros(3), 1, padded=pad(x), out=out)
