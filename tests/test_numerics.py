import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ranktrack import numerics as nm
from ranktrack.numerics import NonFiniteError, Tensor, backward, finite_diff_check

import reference_ops as refops


class TestSoftmax:
    def test_symmetry_two_zeros(self):
        out = nm.softmax(Tensor([0.0, 0.0]))
        np.testing.assert_allclose(out.data, [0.5, 0.5], atol=1e-15)

    def test_known_values(self):
        # frozen from direct exp/sum evaluation of [1, 2, 3]
        out = nm.softmax(Tensor([1.0, 2.0, 3.0]))
        expected = [0.09003057317038046, 0.24472847105479767, 0.6652409557748219]
        np.testing.assert_allclose(out.data, expected, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("x", [-3.0, 0.0, 7.5, 1e8])
    def test_single_element(self, x):
        assert nm.softmax(Tensor([x])).item() == 1.0

    def test_output_sums_to_one_and_positive(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            v = rng.normal(0, 5, size=rng.integers(1, 12))
            out = nm.softmax(Tensor(v))
            assert abs(out.data.sum() - 1.0) < 1e-12
            assert np.all(out.data > 0)

    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=10),
           st.floats(-30, 30))
    @settings(max_examples=60, deadline=None)
    def test_shift_invariance(self, values, shift):
        a = nm.softmax(Tensor(values))
        b = nm.softmax(Tensor([v + shift for v in values]))
        np.testing.assert_allclose(a.data, b.data, atol=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            nm.softmax(Tensor(np.zeros(0)))

    def test_nonfinite_rejected(self):
        with pytest.raises(NonFiniteError):
            Tensor([np.inf, 0.0])


class TestConv2d:
    def test_identity_kernel(self):
        x = np.arange(9.0).reshape(1, 3, 3)
        k = np.ones((1, 1, 1, 1))
        out = nm.conv2d(Tensor(x), Tensor(k))
        np.testing.assert_array_equal(out.data, x)

    def test_hand_sum(self):
        x = Tensor([[[1.0, 2.0], [3.0, 4.0]]])
        k = Tensor(np.ones((1, 1, 2, 2)))
        assert nm.conv2d(x, k).item() == 10.0

    def test_output_shape(self):
        # 8 rows and columns hold two whole 3x3 windows; the last two are left over
        out = nm.conv2d(Tensor(np.zeros((1, 8, 8))), Tensor(np.zeros((5, 1, 3, 3))))
        assert out.data.shape == (5, 2, 2)

    def test_stride(self):
        # the windows tile the input: the stride is the kernel size, and rows
        # and columns past the last whole window neither feed the output nor
        # receive a gradient
        x = Tensor(np.arange(2 * 7 * 10.0).reshape(2, 7, 10), requires_grad=True)
        out = nm.conv2d(x, Tensor(np.ones((3, 2, 3, 3))))
        assert out.data.shape == (3, 2, 3)
        for i in range(2):
            for j in range(3):
                window = x.data[:, 3 * i:3 * i + 3, 3 * j:3 * j + 3]
                assert out.data[0, i, j] == window.sum()
        backward(nm.sum_(out))
        np.testing.assert_array_equal(x.grad[:, :6, :9], 3.0)
        np.testing.assert_array_equal(x.grad[:, 6:, :], 0.0)
        np.testing.assert_array_equal(x.grad[:, :, 9:], 0.0)

    def test_non_square_kernel_rejected(self):
        with pytest.raises(ValueError, match="square"):
            nm.conv2d(Tensor(np.zeros((1, 4, 4))), Tensor(np.zeros((1, 1, 2, 1))))

    def test_channel_mismatch(self):
        with pytest.raises(ValueError):
            nm.conv2d(Tensor(np.zeros((2, 4, 4))), Tensor(np.zeros((1, 3, 2, 2))))

    def test_kernel_too_large(self):
        with pytest.raises(ValueError):
            nm.conv2d(Tensor(np.zeros((1, 2, 2))), Tensor(np.zeros((1, 1, 3, 3))))


def reference_conv2d(x, k, stride):
    """A valid conv at any stride, forward and input/kernel gradients:
    im2col through ``sliding_window_view`` and a col2im loop over kernel
    offsets. At ``stride`` equal to the kernel size it is ``conv2d``."""
    c, h, w = x.shape
    o, _, kh, kw = k.shape
    oh, ow = (h - kh) // stride + 1, (w - kw) // stride + 1
    win = np.lib.stride_tricks.sliding_window_view(x, (kh, kw), axis=(1, 2))
    win = win[:, ::stride, ::stride]
    cols = win.transpose(1, 2, 0, 3, 4).reshape(oh * ow, c * kh * kw)
    wmat = k.reshape(o, c * kh * kw)
    out = (wmat @ cols.T).reshape(o, oh, ow)

    def grads(g):
        gm = g.reshape(o, oh * ow)
        gk = (gm @ cols).reshape(o, c, kh, kw)
        return reference_col2im(gm.T @ wmat, x.shape, kh, kw, stride), gk

    return out, grads


def reference_col2im(gcols, shape, kh, kw, stride):
    c, h, w = shape
    oh, ow = (h - kh) // stride + 1, (w - kw) // stride + 1
    gcols = gcols.reshape(oh, ow, c, kh, kw).transpose(2, 0, 1, 3, 4)
    gx = np.zeros((c, h, w))
    for i in range(kh):
        for j in range(kw):
            gx[:, i:i + stride * oh:stride, j:j + stride * ow:stride] += gcols[:, :, :, i, j]
    return gx


class TestConv2dTiledBits:
    """conv2d's reshape im2col and one-shot col2im give the bytes of the
    sliding-window reference at stride equal to the kernel size, forward
    and both gradients."""

    @pytest.mark.parametrize("c,h,w,o,k", [
        (3, 128, 128, 16, 2), (3, 127, 127, 16, 2), (16, 63, 64, 32, 2),
        (32, 31, 31, 32, 2), (5, 9, 7, 4, 3), (3, 2, 2, 2, 2),
        (32, 9, 9, 16, 1), (64, 31, 31, 16, 1), (16, 16, 16, 4, 1),
    ])
    def test_matches_reference(self, c, h, w, o, k):
        rng = np.random.default_rng(c * 1000 + h * 10 + k)
        x = rng.standard_normal((c, h, w))
        kern = rng.standard_normal((o, c, k, k))
        oh, ow = (h - k) // k + 1, (w - k) // k + 1
        g = rng.standard_normal((o, oh, ow))
        g[:, ::3] = -0.0          # negative zeros, whole rows of them
        g[0] = 0.0
        out = nm.conv2d(Tensor(x, requires_grad=True), Tensor(kern, requires_grad=True))
        want_out, grads = reference_conv2d(x, kern, k)
        assert out.data.tobytes() == want_out.tobytes()
        gx, gk = out._backward_fn(g)
        want_gx, want_gk = grads(g)
        assert gx.tobytes() == want_gx.tobytes()
        assert gk.tobytes() == want_gk.tobytes()

    @pytest.mark.parametrize("c,h,w,k", [(3, 127, 128, 2), (5, 9, 7, 3), (8, 5, 5, 1)])
    def test_col2im_adds_negative_zero_to_zero(self, c, h, w, k):
        # matmul returns +0.0 for a sum of zero products, so no -0.0 reaches
        # col2im through conv2d here; feed it one directly. The loop adds
        # every entry to 0.0, which turns -0.0 into +0.0; so must the
        # one-shot path.
        oh, ow = (h - k) // k + 1, (w - k) // k + 1
        gcols = np.random.default_rng(c + h).standard_normal((oh * ow, c * k * k))
        gcols[::2] = -0.0
        got = nm._col2im(gcols, (c, h, w), k)
        assert got[got == 0].size and not np.signbit(got[got == 0]).any()
        assert got.tobytes() == reference_col2im(gcols, (c, h, w), k, k, k).tobytes()

    def test_non_contiguous_input(self):
        x = np.random.default_rng(1).standard_normal((9, 8, 3)).transpose(2, 0, 1)
        kern = np.random.default_rng(2).standard_normal((4, 3, 2, 2))
        out = nm.conv2d(Tensor(x), Tensor(kern))
        assert out.data.tobytes() == reference_conv2d(x, kern, 2)[0].tobytes()

    def test_only_required_gradients_are_computed(self):
        x = np.random.default_rng(3).standard_normal((3, 8, 8))
        kern = np.random.default_rng(4).standard_normal((4, 3, 2, 2))
        g = np.ones((4, 4, 4))
        raster_in = nm.conv2d(Tensor(x), Tensor(kern, requires_grad=True))
        gx, gk = raster_in._backward_fn(g)
        assert gx is None and gk.tobytes() == reference_conv2d(x, kern, 2)[1](g)[1].tobytes()
        fixed_kernel = nm.conv2d(Tensor(x, requires_grad=True), Tensor(kern))
        gx, gk = fixed_kernel._backward_fn(g)
        assert gk is None and gx.tobytes() == reference_conv2d(x, kern, 2)[1](g)[0].tobytes()


def composed_layer(x, k, b, relu):
    """A conv layer as it was composed before the fused op: conv2d, add,
    relu, three recorded nodes."""
    out = nm.add(nm.conv2d(x, k), b)
    return refops.relu(out) if relu else out


def layer_grads(layer, x, k, b, relu, g, need_x=True):
    """Output of ``layer`` and the exact gradients that reach x, k and b for
    an output gradient ``g``: the leaves start from ``grad`` None, so
    backward stores the incoming flow as is (a -0.0 stays -0.0)."""
    tx = Tensor(x, requires_grad=need_x)
    tk, tb = Tensor(k, requires_grad=True), Tensor(b, requires_grad=True)
    tx.grad = tk.grad = tb.grad = None
    out = layer(tx, tk, tb, relu)
    backward(nm.sum_(nm.mul(out, Tensor(g))))
    return out.data, tx.grad, tk.grad, tb.grad


def fused_layer(x, k, b, relu):
    return nm.conv2d(x, k, bias=b, relu=relu)


class TestConv2dFusedLayer:
    """conv2d with bias and relu is one node with the bits of the
    conv2d -> add -> relu composition, forward and every gradient."""

    @pytest.mark.parametrize("c,h,w,o,k", [
        (3, 127, 127, 16, 2), (16, 63, 63, 32, 2), (32, 15, 31, 32, 2),
        (64, 31, 31, 16, 1), (16, 16, 16, 4, 1), (5, 9, 7, 4, 3),
    ])
    @pytest.mark.parametrize("relu", [True, False])
    def test_matches_composition(self, c, h, w, o, k, relu):
        rng = np.random.default_rng(c * 1000 + h * 10 + k)
        x = rng.standard_normal((c, h, w))
        kern = rng.standard_normal((o, c, k, k))
        bias = rng.standard_normal((o, 1, 1))
        oh, ow = (h - k) // k + 1, (w - k) // k + 1
        g = rng.standard_normal((o, oh, ow))
        g[:, ::3] = -0.0
        g[0] = 0.0
        got = layer_grads(fused_layer, x, kern, bias, relu, g)
        want = layer_grads(composed_layer, x, kern, bias, relu, g)
        for a, b in zip(got, want):
            assert a.tobytes() == b.tobytes()

    def test_constant_input(self):
        rng = np.random.default_rng(11)
        x, kern = rng.standard_normal((3, 127, 127)), rng.standard_normal((16, 3, 2, 2))
        bias, g = rng.standard_normal((16, 1, 1)), rng.standard_normal((16, 63, 63))
        got = layer_grads(fused_layer, x, kern, bias, True, g, need_x=False)
        want = layer_grads(composed_layer, x, kern, bias, True, g, need_x=False)
        assert got[1] is None and want[1] is None
        for a, b in zip(got[::2] + got[3:], want[::2] + want[3:]):
            assert a.tobytes() == b.tobytes()

    def test_one_node_that_drops_the_constant_input(self):
        rng = np.random.default_rng(12)
        kern = Tensor(rng.standard_normal((4, 3, 2, 2)), requires_grad=True)
        bias = Tensor(rng.standard_normal((4, 1, 1)), requires_grad=True)
        out = nm.conv2d(Tensor(rng.standard_normal((3, 8, 8))), kern, bias=bias, relu=True)
        assert out._op == "conv2d" and out._parents == (None, kern, bias)
        kept = [cell.cell_contents for cell in out._backward_fn.__closure__]
        assert not any(isinstance(v, Tensor) for v in kept)

    def test_relu_zeroes_non_positive_outputs(self):
        out = nm.conv2d(Tensor(np.ones((1, 2, 2))), Tensor(np.ones((3, 1, 1, 1))),
                        bias=Tensor(np.array([-1.0, -2.0, 0.5]).reshape(3, 1, 1)), relu=True)
        np.testing.assert_array_equal(out.data[:, 0, 0], [0.0, 0.0, 1.5])
        assert not np.signbit(out.data).any()

    def test_finite_differences(self, rng_points):
        x0 = rng_points.normal(size=(3, 6, 6))
        k0 = rng_points.normal(size=(4, 3, 2, 2))
        b0 = rng_points.normal(size=(4, 1, 1))
        w = rng_points.normal(size=(4, 3, 3))

        def loss(x, k, b):
            return nm.sum_(nm.mul(nm.conv2d(x, k, bias=b, relu=True), Tensor(w)))

        assert finite_diff_check(lambda b: loss(Tensor(x0), Tensor(k0), b), Tensor(b0)) < 1e-4
        assert finite_diff_check(lambda x: loss(x, Tensor(k0), Tensor(b0)), Tensor(x0)) < 1e-4
        assert finite_diff_check(lambda k: loss(Tensor(x0), k, Tensor(b0)), Tensor(k0)) < 1e-4

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("relu", [True, False])
    def test_overflowing_bias_add_raises(self, sign, relu):
        # conv output and bias are finite; their sum is +-inf, which a ReLU
        # would hide for the negative sign
        x = Tensor(np.ones((1, 1, 1)))
        k = Tensor(np.full((1, 1, 1, 1), sign * 1e308), requires_grad=True)
        b = Tensor(np.full((1, 1, 1), sign * 1e308))
        with pytest.raises(NonFiniteError):
            nm.conv2d(x, k, bias=b, relu=relu)

    def test_bias_that_does_not_broadcast_is_rejected(self):
        with pytest.raises(ValueError):
            nm.conv2d(Tensor(np.ones((1, 4, 4))), Tensor(np.ones((2, 1, 1, 1))),
                      bias=Tensor(np.ones((3, 1, 1))))


class TestBackward:
    def test_square(self):
        x = Tensor(3.0, requires_grad=True)
        backward(nm.mul(x, x))
        assert x.grad == pytest.approx(6.0, abs=0)

    def test_product_rule(self):
        x = Tensor(2.0, requires_grad=True)
        y = Tensor(5.0, requires_grad=True)
        backward(nm.mul(x, y))
        assert x.grad == 5.0 and y.grad == 2.0

    def test_softmax_sum_is_constant(self):
        x = Tensor([0.3, -1.2, 2.0], requires_grad=True)
        backward(nm.sum_(nm.softmax(x)))
        np.testing.assert_allclose(x.grad, 0.0, atol=1e-14)

    def test_diamond_graph_counts_once(self):
        # y = (x + x) * (x + x) = 4x^2, dy/dx = 8x
        x = Tensor(1.5, requires_grad=True)
        s = nm.add(x, x)
        backward(nm.mul(s, s))
        assert x.grad == pytest.approx(12.0, abs=1e-12)

    def test_accumulation_without_reset(self):
        x = Tensor(3.0, requires_grad=True)
        backward(nm.mul(x, x))
        backward(nm.mul(x, x))
        assert x.grad == pytest.approx(12.0, abs=0)
        x.zero_grad()
        assert x.grad == 0.0

    def test_linearity_of_subgraph_sums(self):
        rng = np.random.default_rng(3)
        v = rng.normal(size=5)
        x1 = Tensor(v, requires_grad=True)
        backward(nm.sum_(nm.mul(x1, x1)))
        g_a = x1.grad.copy()
        x1.zero_grad()
        backward(nm.sum_(nm.exp(x1)))
        g_b = x1.grad.copy()

        x2 = Tensor(v, requires_grad=True)
        backward(nm.add(nm.sum_(nm.mul(x2, x2)), nm.sum_(nm.exp(x2))))
        np.testing.assert_array_equal(x2.grad, g_a + g_b)

    def test_per_call_accumulation_matches_one_backward(self):
        # Two losses over shared leaves, backpropagated one call after the
        # other at weight 1/2 each, leave the bits of one backward of their
        # mean. x receives 1.0 from l1, then 2**-53 twice from l2: added on
        # arrival that rounds to 1.0 in both runs, while summing one call's
        # contributions before adding them gives 1 + 2**-52. y receives
        # only -0.0, which an add to the zeroed buffer turns into +0.0.
        tiny = 2.0 ** -53
        assert (1.0 + tiny) + tiny != 1.0 + (tiny + tiny)

        def losses_of(x, y):
            l1 = nm.add(nm.sum_(nm.mul(x, 2.0)), nm.sum_(nm.mul(y, -0.0)))
            l2 = nm.add(nm.sum_(nm.mul(x, 2.0 * tiny)), nm.sum_(nm.mul(x, 2.0 * tiny)))
            return l1, l2

        def leaves():
            return (Tensor([0.25, -1.5, 3.0], requires_grad=True),
                    Tensor([0.5, -2.0], requires_grad=True))

        x, y = leaves()
        for loss in losses_of(x, y):
            backward(nm.mul(loss, 0.5))
        xb, yb = leaves()
        backward(nm.mul(nm.add(*losses_of(xb, yb)), 0.5))
        assert x.grad.tobytes() == xb.grad.tobytes()
        assert y.grad.tobytes() == yb.grad.tobytes()
        np.testing.assert_array_equal(x.grad, 1.0)
        assert not np.signbit(y.grad).any()

    def test_second_backward_of_a_graph_raises(self):
        x = Tensor(3.0, requires_grad=True)
        loss = nm.mul(x, x)
        backward(loss)
        with pytest.raises(RuntimeError, match="graph already consumed"):
            backward(loss)
        assert x.grad == 6.0

    def test_consumed_node_as_a_parent_raises_instead_of_taking_a_grad(self):
        # were a consumed node to pass for a leaf, h would collect a grad
        # and x would silently miss the second loss's gradient
        x = Tensor([0.5, -1.0], requires_grad=True)
        h = nm.exp(x)
        backward(nm.sum_(nm.mul(h, 3.0)))
        first = x.grad.copy()
        with pytest.raises(RuntimeError, match="graph already consumed"):
            backward(nm.sum_(nm.mul(h, 2.0)))
        assert h.grad is None and x.grad.tobytes() == first.tobytes()

    def test_fresh_graph_on_the_same_leaves_accumulates(self):
        x = Tensor([0.5, -1.0], requires_grad=True)
        h = nm.exp(x)
        backward(nm.sum_(h))
        with pytest.raises(RuntimeError):
            backward(nm.sum_(h))
        backward(nm.sum_(nm.exp(x)))
        assert x.grad.tobytes() == (np.exp(x.data) + np.exp(x.data)).tobytes()

    def test_only_leaves_receive_gradients(self):
        x = Tensor([0.5, -1.0], requires_grad=True)
        h = nm.exp(nm.mul(x, 2.0))
        s = nm.sum_(h)
        backward(nm.mul(s, s))
        assert h.grad is None and s.grad is None
        np.testing.assert_allclose(x.grad, 4.0 * s.data * h.data, rtol=1e-15)

    @pytest.mark.parametrize("op", [nm.add, nm.sub, nm.mul, refops.matmul])
    def test_constant_parent_is_not_kept(self, op):
        rng = np.random.default_rng(7)
        a = Tensor(rng.standard_normal((3, 3)), requires_grad=True)
        out = op(a, Tensor(rng.standard_normal((3, 3))))
        assert out._parents == (a, None)
        kept = [cell.cell_contents for cell in out._backward_fn.__closure__]
        assert not any(isinstance(v, Tensor) for v in kept)

    @pytest.mark.parametrize("op", [nm.add, nm.sub, nm.mul, refops.matmul])
    def test_constant_parent_gets_no_gradient(self, op):
        rng = np.random.default_rng(5)
        a, b = rng.standard_normal((3, 3)), rng.standard_normal((3, 3))
        g = rng.standard_normal((3, 3))
        both = op(Tensor(a, requires_grad=True), Tensor(b, requires_grad=True))._backward_fn(g)
        left = op(Tensor(a, requires_grad=True), Tensor(b))._backward_fn(g)
        right = op(Tensor(a), Tensor(b, requires_grad=True))._backward_fn(g)
        assert left[1] is None and left[0].tobytes() == both[0].tobytes()
        assert right[0] is None and right[1].tobytes() == both[1].tobytes()

    def test_non_scalar_rejected(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ValueError):
            backward(nm.mul(x, x))

    def test_detached_rejected(self):
        with pytest.raises(ValueError):
            backward(Tensor(1.0))
        with pytest.raises(ValueError):
            backward(Tensor(1.0, requires_grad=True))

    def test_matmul_grads(self):
        a = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        b = Tensor(np.arange(12.0).reshape(3, 4), requires_grad=True)
        backward(nm.sum_(refops.matmul(a, b)))
        np.testing.assert_allclose(a.grad, np.ones((2, 4)) @ b.data.T)
        np.testing.assert_allclose(b.grad, a.data.T @ np.ones((2, 4)))

    def test_getitem_scatter_accumulates(self):
        x = Tensor(np.arange(4.0), requires_grad=True)
        idx = np.array([1, 1, 3])
        backward(nm.sum_(x[idx]))
        np.testing.assert_array_equal(x.grad, [0.0, 2.0, 0.0, 1.0])


class TestLogSoftmax:
    # ``axis`` is the axis the reference composition reduces over: the
    # class axis, 0, in every case
    @pytest.mark.parametrize("shape,axis", [((2, 9, 9), 0), ((2, 16, 16), 0), ((7,), 0)])
    def test_forward_bytes_equal_the_composition(self, shape, axis):
        a = np.random.default_rng(len(shape) * 10 + axis).normal(0, 8, shape)
        a.reshape(-1)[::5] = 0.0
        shifted = a - np.max(a, axis=axis, keepdims=True)
        want = shifted - np.log(np.sum(np.exp(shifted), axis=axis, keepdims=True))
        assert nm.log_softmax(Tensor(a)).data.tobytes() == want.tobytes()

    def test_one_node_whose_gradient_is_g_minus_softmax_times_sum_g(self):
        rng = np.random.default_rng(4)
        a = Tensor(rng.normal(0, 3, (2, 4, 5)), requires_grad=True)
        out = nm.log_softmax(a)
        assert out._op == "log_softmax" and out._parents == (a,)
        g = rng.normal(size=(2, 4, 5))
        p = nm.softmax(Tensor(a.data)).data
        np.testing.assert_allclose(out._backward_fn(g)[0], g - p * g.sum(axis=0), rtol=1e-14,
                                   atol=1e-15)

    def test_finite_differences(self, rng_points):
        w = Tensor(rng_points.normal(size=(2, 3, 3)))
        err = finite_diff_check(lambda t: nm.sum_(nm.mul(nm.log_softmax(t), w)),
                                Tensor(rng_points.normal(0, 2, (2, 3, 3))))
        assert err < 1e-7


class TestOpsForwardValues:
    def test_exp_overflow_raises(self):
        with pytest.raises(NonFiniteError):
            nm.exp(Tensor([1000.0]))

    def test_softplus_matches_naive_in_safe_range(self):
        for t in (-30.0, -2.0, 0.0, 2.0, 30.0):
            assert nm.softplus(Tensor(t)).item() == pytest.approx(
                math.log(1.0 + math.exp(t)), abs=1e-12)

    def test_softplus_large_argument(self):
        assert nm.softplus(Tensor(800.0)).item() == 800.0
        assert nm.softplus(Tensor(-800.0)).item() == 0.0

    def test_concat_and_split_gradients(self):
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        b = Tensor(np.ones((1, 2)), requires_grad=True)
        out = refops.concat([a, b])
        assert out.data.shape == (3, 2)
        backward(nm.sum_(nm.mul(out, Tensor([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]))))
        np.testing.assert_array_equal(a.grad, [[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(b.grad, [[5.0, 6.0]])

    def test_broadcast_add_unbroadcasts_grad(self):
        a = Tensor(np.zeros((3, 1, 2)), requires_grad=True)
        b = Tensor(np.zeros((4, 2)), requires_grad=True)
        backward(nm.sum_(nm.add(a, b)))
        assert a.grad.shape == (3, 1, 2) and np.all(a.grad == 4.0)
        assert b.grad.shape == (4, 2) and np.all(b.grad == 3.0)


class TestSubAndFloatConstants:
    @pytest.mark.parametrize("sa,sb", [((3, 4), (3, 4)), ((3, 4), (1, 4)), ((3, 4), (4,)),
                                       ((2, 1), (1, 3)), ((), (2, 3))])
    def test_one_node_with_the_bits_of_add_of_negated(self, sa, sb):
        rng = np.random.default_rng(17)
        a = Tensor(rng.standard_normal(sa), requires_grad=True)
        b = Tensor(rng.standard_normal(sb), requires_grad=True)
        out = nm.sub(a, b)
        neg = nm.mul(b, -1.0)
        ref = nm.add(a, neg)
        assert out._op == "sub" and out._parents == (a, b)
        assert out.data.tobytes() == ref.data.tobytes()
        g = rng.standard_normal(out.data.shape)
        g.reshape(-1)[::2] = -0.0           # in a (3, 4) g, whole columns of -0.0
        ga, gb = out._backward_fn(g)
        ra, rneg = ref._backward_fn(g)
        rb = neg._backward_fn(rneg)[0]
        assert np.asarray(ga).tobytes() == np.asarray(ra).tobytes()
        assert np.asarray(gb).tobytes() == np.asarray(rb).tobytes()

    @pytest.mark.parametrize("op", [nm.add, nm.sub, nm.mul])
    @pytest.mark.parametrize("left", [False, True])
    def test_float_constant_is_not_wrapped(self, monkeypatch, op, left):
        rng = np.random.default_rng(19)
        a = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
        g = rng.standard_normal((2, 3))
        args = (0.75, a) if left else (a, 0.75)
        ref = op(*(Tensor(x) if isinstance(x, float) else x for x in args))
        checked = []
        real_check = nm._check_finite

        def counting_check(arr, name):
            checked.append(name)
            real_check(arr, name)

        monkeypatch.setattr(nm, "_check_finite", counting_check)
        out = op(*args)
        assert checked == [out._op], "only the output is checked"
        assert out._parents == ((None, a) if left else (a, None))
        assert out.data.tobytes() == ref.data.tobytes()
        got, want = out._backward_fn(g), ref._backward_fn(g)
        k = 1 if left else 0
        assert got[1 - k] is None and got[k].tobytes() == want[k].tobytes()


class TestFiniteDiffCheck:
    def test_quadratic_is_tight(self):
        err = finite_diff_check(lambda t: nm.sum_(nm.mul(t, t)), Tensor([3.0, -1.0]), 1e-5)
        assert err < 1e-8

    def test_composite_ops(self, rng_points):
        point = Tensor(rng_points.normal(size=6))
        err = finite_diff_check(
            lambda t: nm.sum_(nm.mul(nm.softplus(t), nm.softmax(t))), point)
        assert err < 1e-7

    def test_rejects_nonscalar_op(self):
        with pytest.raises(ValueError):
            finite_diff_check(lambda t: t, Tensor([1.0, 2.0]))

    def test_rejects_bad_step(self):
        with pytest.raises(ValueError):
            finite_diff_check(lambda t: nm.sum_(t), Tensor([1.0]), step=0.0)

    def test_propagates_nonfinite(self):
        with pytest.raises(NonFiniteError):
            # exp(709.78) is finite; exp(709.79) overflows
            finite_diff_check(lambda t: nm.sum_(nm.exp(t)), Tensor([709.78]), step=0.01)


def test_gradient_suite_all_ops_pass():
    """Every differentiable op in the repo stays under 1e-4 at random points."""
    from ranktrack.gradcheck import run_suite
    from ranktrack.rng import SplitMix64
    for name, err, tol in run_suite(SplitMix64(99)):
        assert err < tol, f"{name}: {err:.3e} >= {tol}"


def test_tensor_value_semantics():
    arr = np.ones(3)
    t = Tensor(arr)
    arr[0] = 99.0
    assert t.data[0] == 1.0
