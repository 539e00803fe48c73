import math

import numpy as np
import pytest

from ranktrack import numerics as nm
from ranktrack.correlation import _attention_weights, dw_corr, pw_corr
from ranktrack.gradcheck import finite_diff_check
from ranktrack.numerics import Tensor

import reference_ops as refops
from test_numerics import reference_conv2d


def attention_weights(fz, fx):
    """``_attention_weights`` of CHW feature arrays."""
    return _attention_weights(fz.reshape(fz.shape[0], -1), fx.reshape(fx.shape[0], -1))


class TestDwCorr:
    def test_identity_template(self):
        rng = np.random.default_rng(0)
        fx = rng.normal(size=(3, 5, 5))
        out = dw_corr(Tensor(np.ones((3, 1, 1))), Tensor(fx))
        np.testing.assert_array_equal(out.data, fx)

    def test_peak_at_matching_offset(self):
        # non-negative search map with a dominant patch; the template is
        # that exact patch, so the matching offset maximizes the response
        rng = np.random.default_rng(1)
        fx = rng.uniform(0.05, 0.2, size=(2, 8, 8))
        r, c = 3, 2
        fx[:, r:r + 3, c:c + 3] = rng.uniform(0.8, 1.0, size=(2, 3, 3))
        fz = fx[:, r:r + 3, c:c + 3].copy()
        out = dw_corr(Tensor(fz), Tensor(fx)).data.sum(axis=0)
        assert np.unravel_index(np.argmax(out), out.shape) == (r, c)

    def test_output_shape(self):
        out = dw_corr(Tensor(np.zeros((4, 3, 3))), Tensor(np.zeros((4, 7, 7))))
        assert out.data.shape == (4, 5, 5)

    def test_template_larger_than_search_rejected(self):
        with pytest.raises(ValueError):
            dw_corr(Tensor(np.zeros((1, 5, 5))), Tensor(np.zeros((1, 3, 3))))

    def test_channel_mismatch_rejected(self):
        with pytest.raises(ValueError):
            dw_corr(Tensor(np.zeros((2, 2, 2))), Tensor(np.zeros((3, 4, 4))))

    def test_linear_in_search(self):
        rng = np.random.default_rng(2)
        fz = Tensor(rng.normal(size=(3, 2, 2)))
        fx = rng.normal(size=(3, 6, 6))
        a = 2.7
        out1 = dw_corr(fz, Tensor(a * fx)).data
        out2 = a * dw_corr(fz, Tensor(fx)).data
        np.testing.assert_allclose(out1, out2, atol=1e-10)

    def test_matches_per_channel_conv_composition(self):
        rng = np.random.default_rng(3)
        fz = Tensor(rng.normal(size=(4, 3, 3)), requires_grad=True)
        fx = Tensor(rng.normal(size=(4, 7, 7)), requires_grad=True)
        out = dw_corr(fz, fx)
        per_channel = [reference_conv2d(fx.data[c:c + 1], fz.data[c].reshape(1, 1, 3, 3), 1)
                       for c in range(4)]
        ref = np.concatenate([conv for conv, _ in per_channel])
        np.testing.assert_allclose(out.data, ref, atol=1e-13)

        w = rng.normal(size=out.data.shape)
        nm.backward(nm.sum_(nm.mul(out, Tensor(w))))
        ref_grads = [grads(w[c:c + 1]) for c, (_, grads) in enumerate(per_channel)]
        ref_gz = np.concatenate([gk.reshape(1, 3, 3) for _, gk in ref_grads])
        np.testing.assert_allclose(fz.grad, ref_gz, atol=1e-12)
        np.testing.assert_allclose(fx.grad, np.concatenate([gx for gx, _ in ref_grads]), atol=1e-12)

    def test_constant_side_gets_no_gradient(self):
        rng = np.random.default_rng(6)
        fz, fx = rng.normal(size=(2, 3, 3)), rng.normal(size=(2, 7, 6))
        g = rng.normal(size=(2, 5, 4))
        both = dw_corr(Tensor(fz, requires_grad=True), Tensor(fx, requires_grad=True))._backward_fn(g)
        fixed_x = dw_corr(Tensor(fz, requires_grad=True), Tensor(fx))._backward_fn(g)
        fixed_z = dw_corr(Tensor(fz), Tensor(fx, requires_grad=True))._backward_fn(g)
        assert fixed_x[1] is None and fixed_x[0].tobytes() == both[0].tobytes()
        assert fixed_z[0] is None and fixed_z[1].tobytes() == both[1].tobytes()

    @pytest.mark.parametrize("c,hz,hx", [(32, 8, 16), (32, 15, 31), (3, 2, 7)])
    def test_search_gradient_matches_offset_loop(self, c, hz, hx):
        # the backward scatters channels-last; every element gets the same
        # products in the same order as the channels-first loop it replaced
        rng = np.random.default_rng(c + hz)
        fz, fx = rng.standard_normal((c, hz, hz)), rng.standard_normal((c, hx, hx))
        oh = hx - hz + 1
        g = rng.standard_normal((c, oh, oh))
        g[:, ::3] = -0.0
        _, gx = dw_corr(Tensor(fz), Tensor(fx, requires_grad=True))._backward_fn(g)
        want = np.zeros((c, hx, hx))
        for i in range(hz):
            for j in range(hz):
                want[:, i:i + oh, j:j + oh] += g * fz[:, i:i + 1, j:j + 1]
        assert gx.flags.c_contiguous and gx.tobytes() == want.tobytes()


class TestPwCorr:
    def test_single_template_pixel_weights(self):
        rng = np.random.default_rng(4)
        w = attention_weights(rng.normal(size=(3, 1, 1)), rng.normal(size=(3, 4, 4)))
        np.testing.assert_allclose(w, np.ones((1, 16)), atol=1e-15)

    def test_column_sums_to_one(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            w = attention_weights(rng.normal(size=(4, 3, 2)), rng.normal(size=(4, 5, 5)))
            np.testing.assert_allclose(w.sum(axis=0), 1.0, atol=1e-6)

    def test_identical_template_pixels_split_weight(self):
        pix = np.array([0.3, -1.0, 2.0])
        fz = np.stack([pix, pix], axis=-1).reshape(3, 1, 2)
        w = attention_weights(fz, np.random.default_rng(6).normal(size=(3, 3, 3)))
        np.testing.assert_allclose(w, 0.5, atol=1e-12)

    def test_first_channels_are_search_features(self):
        rng = np.random.default_rng(7)
        fz = Tensor(rng.normal(size=(5, 2, 2)))
        fx = Tensor(rng.normal(size=(5, 4, 3)))
        out = pw_corr(fz, fx)
        assert out.data.shape == (10, 4, 3)
        np.testing.assert_array_equal(out.data[:5], fx.data)

    def test_channel_mismatch_rejected(self):
        with pytest.raises(ValueError):
            pw_corr(Tensor(np.zeros((2, 2, 2))), Tensor(np.zeros((3, 3, 3))))

    def test_differentiable_end_to_end(self, rng_points):
        w = rng_points.normal(size=(6, 3, 3))
        fx0 = rng_points.normal(size=(3, 3, 3))
        fz0 = rng_points.normal(size=(3, 2, 2))
        err = finite_diff_check(
            lambda t: nm.sum_(nm.mul(pw_corr(t, Tensor(fx0)), Tensor(w))), Tensor(fz0))
        assert err < 1e-4
        err = finite_diff_check(
            lambda t: nm.sum_(nm.mul(pw_corr(Tensor(fz0), t), Tensor(w))), Tensor(fx0))
        assert err < 1e-4

    def test_aggregation_matches_manual_attention(self):
        rng = np.random.default_rng(8)
        c, hz, wz, hx, wx = 3, 2, 2, 3, 4
        fz = rng.normal(size=(c, hz, wz))
        fx = rng.normal(size=(c, hx, wx))
        out = pw_corr(Tensor(fz), Tensor(fx)).data

        z = fz.reshape(c, hz * wz).T
        x = fx.reshape(c, hx * wx)
        scores = (z @ x) / np.sqrt(c)
        e = np.exp(scores - scores.max(axis=0, keepdims=True))
        w = e / e.sum(axis=0, keepdims=True)
        aggregated = (z.T @ w).reshape(c, hx, wx)
        np.testing.assert_allclose(out[c:], aggregated, atol=1e-12)


def composed_pw_corr(fz, fx):
    """``pw_corr`` as it was composed op by op before it became one node."""
    c, hz, wz = fz.data.shape
    _, hx, wx = fx.data.shape
    z = refops.transpose(nm.reshape(fz, (c, hz * wz)))
    x = nm.reshape(fx, (c, hx * wx))
    w = nm.softmax(nm.mul(refops.matmul(z, x), 1.0 / math.sqrt(c)))
    aggregated = nm.reshape(refops.matmul(refops.transpose(z), w), (c, hx, wx))
    return refops.concat([fx, aggregated])


def grads_into(op, fz, fx, g, need_z=True, need_x=True):
    """Output of ``op`` and the exact gradients that reach fz and fx for an
    output gradient ``g``: the leaves start from ``grad`` None, so backward
    stores the incoming flow as is (a -0.0 stays -0.0)."""
    tz, tx = Tensor(fz, requires_grad=need_z), Tensor(fx, requires_grad=need_x)
    tz.grad = tx.grad = None
    out = op(tz, tx)
    nm.backward(nm.sum_(nm.mul(out, Tensor(g))))
    return out.data, tz.grad, tx.grad


class TestPwCorrBits:
    """The single ``pw_corr`` node equals the op-by-op composition byte for
    byte, forward and both gradients."""

    @pytest.mark.parametrize("c,hz,hx", [(32, 15, 31), (32, 8, 16), (3, 2, 5), (1, 1, 3)])
    def test_matches_composition(self, c, hz, hx):
        rng = np.random.default_rng(c * 100 + hz)
        fz = rng.standard_normal((c, hz, hz))
        fx = rng.standard_normal((c, hx, hx))
        g = rng.standard_normal((2 * c, hx, hx))
        g[:, ::3] = -0.0
        g[c] = 0.0
        got = grads_into(pw_corr, fz, fx, g)
        want = grads_into(composed_pw_corr, fz, fx, g)
        for a, b in zip(got, want):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("need_z,need_x", [(True, False), (False, True)])
    def test_constant_side(self, need_z, need_x):
        rng = np.random.default_rng(9)
        fz, fx = rng.standard_normal((4, 3, 3)), rng.standard_normal((4, 7, 6))
        g = rng.standard_normal((8, 7, 6))
        got = grads_into(pw_corr, fz, fx, g, need_z, need_x)
        want = grads_into(composed_pw_corr, fz, fx, g, need_z, need_x)
        for a, b in zip(got, want):
            assert (a is None and b is None) or a.tobytes() == b.tobytes()

    def test_one_node_keeps_only_the_attention(self):
        rng = np.random.default_rng(10)
        fz = Tensor(rng.standard_normal((4, 3, 3)), requires_grad=True)
        fx = Tensor(rng.standard_normal((4, 6, 6)))
        out = pw_corr(fz, fx)
        assert out._op == "pw_corr" and out._parents == (fz, None)
        kept = [cell.cell_contents for cell in out._backward_fn.__closure__]
        assert not any(isinstance(v, Tensor) for v in kept)
        assert sum(isinstance(v, np.ndarray) and v.shape == (9, 36) for v in kept) == 1
