import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ranktrack import numerics as nm
from ranktrack.geometry import (
    Box,
    HeadGrid,
    IGNORE,
    NEGATIVE,
    POSITIVE,
    assign_labels,
    decode_boxes,
    iou,
    iou_tensor,
)
from ranktrack.gradcheck import finite_diff_check
from ranktrack.numerics import Tensor, backward

boxes = st.builds(
    lambda x, y, w, h: Box(x, y, x + w, y + h),
    st.floats(-50, 50), st.floats(-50, 50), st.floats(0, 60), st.floats(0, 60))

# iou's translation contract covers extents of exactly 0 or >= 0.25 px;
# tinier positive extents do not survive the shift itself (see iou).
translatable_extents = st.just(0.0) | st.floats(0.25, 60)
translatable_boxes = st.builds(
    lambda x, y, w, h: Box(x, y, x + w, y + h),
    st.floats(-50, 50), st.floats(-50, 50), translatable_extents, translatable_extents)


class TestIoU:
    def test_identical(self):
        b = Box(2, 3, 10, 12)
        assert iou(b, b) == 1.0

    def test_disjoint(self):
        assert iou(Box(0, 0, 5, 5), Box(10, 10, 12, 12)) == 0.0

    def test_half_overlap_strip(self):
        # frozen: intersection 50, union 150
        assert iou(Box(0, 0, 10, 10), Box(5, 0, 15, 10)) == pytest.approx(
            0.3333333333333333, abs=1e-15)

    def test_degenerate_is_zero(self):
        assert iou(Box(1, 1, 1, 1), Box(1, 1, 1, 1)) == 0.0

    @given(boxes, boxes)
    @settings(max_examples=80, deadline=None)
    def test_symmetric(self, a, b):
        assert iou(a, b) == iou(b, a)

    @given(translatable_boxes, translatable_boxes, st.floats(-100, 100),
           st.floats(-100, 100))
    @settings(max_examples=80, deadline=None)
    def test_translation_invariant(self, a, b, dx, dy):
        assert iou(a.translated(dx, dy), b.translated(dx, dy)) == pytest.approx(
            iou(a, b), abs=1e-12)

    @given(boxes, boxes)
    @settings(max_examples=80, deadline=None)
    def test_range(self, a, b):
        assert 0.0 <= iou(a, b) <= 1.0


class TestBox:
    def test_invalid_extent_rejected(self):
        with pytest.raises(ValueError):
            Box(5, 0, 4, 10)

    @pytest.mark.parametrize("corners", [
        (np.nan, 0, 4, 10), (0, np.nan, 4, 10), (0, 0, np.nan, 10), (0, 0, 4, np.nan),
        (-np.inf, 0, 4, 10), (0, 0, np.inf, 10), (0, -np.inf, 4, 10), (0, 0, 4, np.inf),
        (np.inf, 0, np.inf, 10), (0, -np.inf, 4, -np.inf)])
    def test_non_finite_corner_rejected(self, corners):
        with pytest.raises(ValueError, match="degenerate box extents"):
            Box(*corners)

    def test_clipped(self):
        b = Box(-5, -5, 300, 40).clipped(100, 50)
        assert (b.x1, b.y1, b.x2, b.y2) == (0, 0, 100, 40)

    def test_contains_includes_edges_elementwise(self):
        b = Box(10.0, 20.0, 30.0, 40.0)
        px = np.array([10.0, 30.0, 20.0, 20.0, np.nextafter(10.0, 0), np.nextafter(30.0, 99), 20.0])
        py = np.array([30.0, 30.0, 20.0, 40.0, 30.0, 30.0, np.nextafter(40.0, 99)])
        want = [True, True, True, True, False, False, False]
        assert b.contains(px, py).tolist() == want
        assert [bool(b.contains(x, y)) for x, y in zip(px.tolist(), py.tolist())] == want


class TestAssignLabels:
    def grid(self):
        return HeadGrid.centered(128, 9, 8.0)

    def test_center_is_positive(self):
        grid = self.grid()
        gt = Box(54, 54, 74, 74)  # center 64, half-width 10, shrunk half 5
        labels = assign_labels(grid, gt)
        px, py = grid.pixel_xy()
        center_idx = np.argwhere((px == 64.0) & (py == 64.0))
        assert labels.cls[tuple(center_idx[0])] == POSITIVE

    def test_outside_is_negative(self):
        grid = self.grid()
        labels = assign_labels(grid, Box(54, 54, 74, 74))
        assert labels.cls[0, 0] == NEGATIVE

    def test_ring_is_ignore(self):
        grid = self.grid()
        # gt half-width 12 about 64: shrunk box spans [58, 70]; grid point at
        # 72 sits at 0.75 of the half-width: inside gt, outside shrunk
        gt = Box(52, 52, 76, 76)
        labels = assign_labels(grid, gt)
        px, py = grid.pixel_xy()
        idx = tuple(np.argwhere((px == 72.0) & (py == 64.0))[0])
        assert labels.cls[idx] == IGNORE

    def test_partition_covers_grid(self):
        grid = self.grid()
        labels = assign_labels(grid, Box(40, 50, 90, 88))
        counts = sum(int(np.sum(labels.cls == c)) for c in (POSITIVE, NEGATIVE, IGNORE))
        assert counts == grid.size * grid.size

    def test_gt_outside_grid_all_negative(self):
        labels = assign_labels(self.grid(), Box(200, 200, 220, 220))
        assert labels.n_pos == 0
        assert labels.n_neg == 81


class TestEncodeDecode:
    def test_symmetric_offsets(self):
        assert Box(*decode_boxes(50, 50, (10, 10, 10, 10))) == Box(40, 40, 60, 60)

    def test_round_trip(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            x1, y1 = rng.uniform(0, 100, 2)
            b = Box(x1, y1, x1 + rng.uniform(1, 80), y1 + rng.uniform(1, 80))
            px = rng.uniform(b.x1, b.x2)
            py = rng.uniform(b.y1, b.y2)
            back = decode_boxes(px, py, (px - b.x1, py - b.y1, b.x2 - px, b.y2 - py))
            for got, want in zip(back, b.as_array()):
                assert got == pytest.approx(want, abs=1e-12)

    def test_zero_offsets_degenerate(self):
        b = Box(*decode_boxes(7, 9, (0, 0, 0, 0)))
        assert b.area == 0.0 and b.center == (7, 9)

    def test_elementwise_on_scalars_arrays_and_tensors(self):
        rng = np.random.default_rng(8)
        px, py = rng.uniform(0, 128, 6), rng.uniform(0, 128, 6)
        offs = 8.0 * np.exp(rng.normal(size=(4, 6)))
        arrays = decode_boxes(px, py, offs)
        tensors = decode_boxes(Tensor(px), Tensor(py), [Tensor(o) for o in offs])
        for k in range(6):
            cell = decode_boxes(px[k], py[k], offs[:, k])
            assert [a[k] for a in arrays] == list(cell)
        for a, t in zip(arrays, tensors):
            assert a.tobytes() == t.data.tobytes()


def loc_loss(pred: Tensor, gt: Box) -> Tensor:
    """Training's localization term, 1 - IoU, for one [x1, y1, x2, y2] prediction."""
    return nm.sub(1.0, iou_tensor(pred[0], pred[1], pred[2], pred[3], gt))


class TestIoULossTensor:
    def test_perfect_prediction(self):
        gt = Box(10, 20, 50, 80)
        loss = loc_loss(Tensor(gt.as_array()), gt)
        assert loss.item() == 0.0

    def test_disjoint_is_one(self):
        loss = loc_loss(Tensor([0.0, 0.0, 5.0, 5.0]), Box(50, 50, 80, 80))
        assert loss.item() == 1.0

    def test_one_third_overlap(self):
        # frozen: 1 - 50/150
        loss = loc_loss(Tensor([0.0, 0.0, 10.0, 10.0]), Box(5, 0, 15, 10))
        assert loss.item() == pytest.approx(0.6666666666666667, abs=1e-12)

    def test_zero_area_pred_flat_region(self):
        pred = Tensor([30.0, 30.0, 30.0, 30.0], requires_grad=True)
        loss = loc_loss(pred, Box(10, 10, 50, 50))
        assert loss.item() == 1.0
        backward(loss)
        np.testing.assert_array_equal(pred.grad, np.zeros(4))

    def test_prediction_touching_an_edge_is_flat(self):
        # zero overlap width with a positive overlap height: the ReLU mask is
        # > 0, so the width passes no gradient
        pred = Tensor([-8.0, 0.0, 0.0, 8.0], requires_grad=True)
        loss = loc_loss(pred, Box(0, 0, 8, 8))
        assert loss.item() == 1.0
        backward(loss)
        np.testing.assert_array_equal(pred.grad, np.zeros(4))

    def test_gradient_matches_finite_differences(self, rng_points):
        gt = Box(20, 30, 60, 75)
        for _ in range(10):
            pred = np.array([20, 30, 60, 75]) + rng_points.uniform(-8, 8, 4)
            err = finite_diff_check(lambda t: loc_loss(t, gt), Tensor(pred))
            assert err < 1e-4

    def test_matches_float_iou(self, rng_points):
        """The forward has the bytes of the scalar ``iou`` on vectors of boxes
        that overlap the ground truth, lie inside it, miss it, tie its edges
        or have zero extents. The scoring pass's Kendall tau reads its IoUs
        from ``iou_tensor`` and must not move."""
        gt = Box(10.25, 10, 40, 45.5)
        edges = gt.as_array()
        fixed = np.array([edges,                          # itself: exactly 1
                          edges + [-1, -1, 1, 1],         # holds it
                          [20, 20, 20, 20],               # a point inside
                          [40, 20, 55, 30],               # touches its right edge
                          [10.25, 10, 10.25, 45.5]])      # its left edge, zero width
        for _ in range(200):
            lo = rng_points.uniform(0, 55, (50, 2))
            boxes = np.concatenate([lo, lo + rng_points.uniform(0, 30, (50, 2))], axis=1)
            boxes[:10, :2] = rng_points.uniform(edges[:2], edges[2:] - 5, (10, 2))  # inside
            boxes[:10, 2:] = boxes[:10, :2] + rng_points.uniform(0, 5, (10, 2))
            boxes[10:15] += [60, 0, 60, 0]                                          # beyond
            boxes = np.where(rng_points.random((50, 4)) < 0.2, edges, boxes)         # ties
            boxes = np.sort(boxes.reshape(50, 2, 2), axis=1).reshape(50, 4)          # x1 <= x2
            boxes = np.concatenate([fixed, boxes])
            want = np.array([iou(Box(*b), gt) for b in boxes])
            assert iou_tensor(*boxes.T, gt).data.tobytes() == want.tobytes()
        assert want[:5].tolist() == [1.0, want[1], 0.0, 0.0, 0.0] and 0 < want[1] < 1
        # zero-area ground truths, against zero-area predictions on and off
        # them as well: a zero union reads 0 like the scalar ``iou``, and
        # passes a zero gradient
        boxes = np.array([[5, 6, 5, 8], [5, 5, 5, 9], [5, 7, 5, 7], [5, 5, 9, 5],
                          [1, 1, 1, 1], [4, 5, 6, 9], [0, 0, 10, 10]], dtype=float)
        for gt in (Box(5, 5, 5, 9), Box(5, 5, 9, 5), Box(5, 7, 5, 7)):
            want = np.array([iou(Box(*b), gt) for b in boxes])
            coords = [Tensor(c, requires_grad=True) for c in boxes.T]
            out = iou_tensor(*coords, gt)
            assert out.data.tobytes() == want.tobytes() and not want.any()
            backward(nm.sum_(out))
            assert not any(c.grad.any() for c in coords)

    def test_prediction_equal_to_its_ground_truth_is_exactly_one(self):
        rng = np.random.default_rng(17)
        corners = rng.uniform(-50, 250, (2000, 2))
        extents = np.exp(rng.uniform(np.log(1e-3), np.log(300), (2000, 2)))
        for (x, y), (w, h) in zip(corners, extents):
            gt = Box(x, y, x + w, y + h)
            got = iou_tensor(*(Tensor(v) for v in gt.as_array()), gt)
            assert got.item() == 1.0, gt

    def test_never_above_one(self):
        rng = np.random.default_rng(18)
        gt = Box(20, 30, 60, 75)
        x1, y1 = rng.uniform(0, 80, (2, 4000))
        x2, y2 = x1 + rng.uniform(0, 60, 4000), y1 + rng.uniform(0, 60, 4000)
        out = iou_tensor(Tensor(x1), Tensor(y1), Tensor(x2), Tensor(y2), gt)
        assert out._op == "iou" and 0.0 <= out.data.min() and out.data.max() <= 1.0

    @pytest.mark.parametrize("pred,want", [
        ((0.0, 0.0, 8.0, 8.0), (-1 / 8, -1 / 8, 1 / 8, 1 / 8)),
        ((0.0, 0.0, 8.0, 4.0), (-1 / 16, -1 / 8, 1 / 16, 1 / 8)),
    ])
    def test_tied_edges_send_the_intersection_gradient_to_the_prediction(self, pred, want):
        # an edge that ties the ground truth's moves the intersection as a
        # predicted edge inside it would; were the tie the ground truth's,
        # x1 of the second case would get +1/32 from the area alone
        coords = [Tensor(v, requires_grad=True) for v in pred]
        backward(iou_tensor(*coords, Box(0, 0, 8, 8)))
        assert [c.grad.item() for c in coords] == list(want)

    def test_vectorized_matches_scalar(self):
        gt = Box(0, 0, 10, 10)
        xs1 = Tensor([1.0, -5.0])
        ys1 = Tensor([1.0, 0.0])
        xs2 = Tensor([9.0, 2.0])
        ys2 = Tensor([11.0, 10.0])
        out = iou_tensor(xs1, ys1, xs2, ys2, gt)
        expect = [iou(Box(1, 1, 9, 11), gt), iou(Box(-5, 0, 2, 10), gt)]
        np.testing.assert_allclose(out.data, expect, atol=1e-12)


def test_head_grid_mapping():
    grid = HeadGrid.centered(128, 9, 8.0)
    px, py = grid.pixel_xy()
    assert px[0, 0] == 32.0 and px[0, -1] == 96.0
    assert py[4, 4] == 64.0
    assert px.shape == (9, 9)
    assert py.tobytes() == px.T.tobytes()
