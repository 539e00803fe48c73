import copy
import hashlib
import sys

import numpy as np
import pytest

from ranktrack import configio, pipeline
from ranktrack.geometry import Box, iou
from ranktrack.synthdata import (
    CropTransform,
    Sequence,
    SequenceSpec,
    SHAPE_FAMILIES,
    _shape_mask,
    _shape_window,
    context_side,
    crop_pair,
    crop_search,
    crop_template,
    crop_window,
    export_sequence,
    gen_sequence,
    import_sequence,
)

from conftest import quick_config


def digest(seq: Sequence) -> str:
    h = hashlib.sha256()
    for f in seq.frames:
        h.update(f.tobytes())
    for b in seq.gt:
        h.update(repr((b.x1, b.y1, b.x2, b.y2)).encode())
    return h.hexdigest()


class TestGenSequence:
    def test_regeneration_is_byte_identical(self):
        spec = SequenceSpec(seed=12, frames=4)
        assert digest(gen_sequence(spec)) == digest(gen_sequence(spec))

    def test_different_seeds_differ(self):
        a = gen_sequence(SequenceSpec(seed=1, frames=2))
        b = gen_sequence(SequenceSpec(seed=2, frames=2))
        assert digest(a) != digest(b)

    def test_no_distractors(self):
        seq = gen_sequence(SequenceSpec(seed=3, frames=3, distractors=0))
        assert all(len(d) == 0 for d in seq.distractor_boxes)

    def test_zero_motion_freezes_target(self):
        seq = gen_sequence(SequenceSpec(seed=4, frames=5, motion_sigma=0.0))
        assert all(b == seq.gt[0] for b in seq.gt)

    def test_gt_boxes_valid_and_in_bounds(self):
        spec = SequenceSpec(seed=5, frames=6, motion_sigma=8.0)
        seq = gen_sequence(spec)
        for b in seq.gt:
            assert b.x2 > b.x1 and b.y2 > b.y1
            assert 0 <= b.x1 and b.x2 <= spec.image_size
            assert 0 <= b.y1 and b.y2 <= spec.image_size

    def test_distractors_never_overlap_target(self):
        seq = gen_sequence(SequenceSpec(seed=6, frames=8, distractors=3, motion_sigma=5.0))
        for t in range(len(seq)):
            for d in seq.distractor_boxes[t]:
                assert iou(d, seq.gt[t]) == 0.0

    def test_identical_appearance_at_similarity_one(self):
        spec = SequenceSpec(seed=7, frames=1, distractors=1, similarity=1.0, clutter=0)
        seq = gen_sequence(spec)
        img = seq.frames[0]

        def stats(box):
            xs = slice(int(box.x1) + 2, int(box.x2) - 2)
            ys = slice(int(box.y1) + 2, int(box.y2) - 2)
            patch = img[:, ys, xs]
            return patch.mean(axis=(1, 2)), patch.var(axis=(1, 2))

        mt, vt = stats(seq.gt[0])
        md, vd = stats(seq.distractor_boxes[0][0])
        assert np.all(np.abs(mt - md) < 0.05)
        assert np.all(np.abs(vt - vd) < 0.05)

    def test_frames_in_unit_range(self):
        seq = gen_sequence(SequenceSpec(seed=8, frames=2))
        for f in seq.frames:
            assert f.min() >= 0.0 and f.max() <= 1.0

    def test_bad_specs_rejected(self):
        with pytest.raises(ValueError):
            gen_sequence(SequenceSpec(frames=0))
        with pytest.raises(ValueError):
            gen_sequence(SequenceSpec(similarity=1.5))
        with pytest.raises(ValueError):
            gen_sequence(SequenceSpec(image_size=40, target_size=26.0))
        with pytest.raises(ValueError):
            gen_sequence(SequenceSpec(shape="hexagon"))
        with pytest.raises(configio.ConfigError, match="'target_size' must be positive"):
            gen_sequence(SequenceSpec(target_size=0.0))
        with pytest.raises(configio.ConfigError, match="'noise_sigma' must be finite"):
            gen_sequence(SequenceSpec(noise_sigma=float("nan")))


class TestGeneratedFrames:
    """Generated frames read like a list of rasters, each read a fresh
    read-only array; a deep copy is a plain list of writable arrays."""

    def test_list_protocol(self):
        seq = gen_sequence(SequenceSpec(seed=9, frames=3))
        assert len(seq.frames) == 3 and len(list(seq.frames)) == 3
        for t in range(-3, 0):
            assert seq.frames[t].tobytes() == seq.frames[3 + t].tobytes()
        assert [f.tobytes() for f in seq.frames] == [seq.frames[t].tobytes() for t in range(3)]
        for t in (3, -4):
            with pytest.raises(IndexError):
                seq.frames[t]

    def test_each_read_is_fresh_and_read_only(self):
        spec = SequenceSpec(seed=10, frames=2)
        seq = gen_sequence(spec)
        a, b = seq.frames[1], seq.frames[1]
        assert a.shape == (3, spec.image_size, spec.image_size) and a.dtype == np.float64
        assert not np.shares_memory(a, b)
        with pytest.raises(ValueError):
            a[0, 5, 5] = 1.5
        assert a.tobytes() == b.tobytes()

    def test_deepcopy_is_writable_and_edits_persist(self):
        seq = gen_sequence(SequenceSpec(seed=11, frames=3))
        dense = copy.deepcopy(seq)
        assert [f.tobytes() for f in dense.frames] == [f.tobytes() for f in seq.frames]
        dense.frames[1][0, 5, 5] = 1.5
        assert dense.frames[1][0, 5, 5] == 1.5
        assert seq.frames[1][0, 5, 5] != 1.5

    def test_pool_holds_a_fraction_of_the_dense_rasters(self):
        cfg = quick_config(eval_sequences=4, eval_frames=20)
        dense = cfg.eval_sequences * cfg.eval_frames * 3 * cfg.image_size ** 2 * 8
        pool = pipeline.eval_pool(cfg)
        held = held_bytes(pool)
        assert sum(len(seq) for seq in pool) == cfg.eval_sequences * cfg.eval_frames
        assert held <= dense / 4, f"pool holds {held / 2**20:.1f} MiB"


def held_bytes(obj) -> int:
    """Bytes reachable from ``obj`` through containers, instance attributes
    and array bases. An array's buffer counts once, at the array (or other
    object) that owns it, so a view keeps its whole base alive here too."""
    total, seen, todo = 0, set(), [obj]
    while todo:
        o = todo.pop()
        if id(o) in seen:
            continue
        seen.add(id(o))
        if isinstance(o, np.ndarray) and o.base is not None:
            todo.append(o.base)
            continue
        total += o.nbytes if isinstance(o, np.ndarray) else sys.getsizeof(o)
        if isinstance(o, dict):
            todo.extend(o.values())
        elif isinstance(o, (list, tuple)):
            todo.extend(o)
        elif hasattr(o, "__dict__") and not isinstance(o, type):
            todo.append(vars(o))
    return total


def windowed_mask(shape: str, h: int, w: int, box: Box) -> np.ndarray:
    rows, cols = _shape_window(box, h, w)
    full = np.zeros((h, w), dtype=bool)
    full[rows, cols] = _shape_mask(shape, np.arange(rows.start, rows.stop) + 0.5,
                                   np.arange(cols.start, cols.stop) + 0.5, box)
    return full


class TestShapeWindow:
    H, W = 40, 48

    def boxes(self):
        rng = np.random.default_rng(2024)
        out = []
        for _ in range(150):  # anywhere, partly or wholly off-frame
            x1, y1 = rng.uniform(-30, 60), rng.uniform(-30, 50)
            out.append(Box(x1, y1, x1 + rng.uniform(0, 30), y1 + rng.uniform(0, 30)))
        for _ in range(100):  # sub-pixel extents, including zero
            x1, y1 = rng.uniform(-2, 50), rng.uniform(-2, 42)
            out.append(Box(x1, y1, x1 + rng.choice([0.0, rng.uniform(0, 1.5)]),
                           y1 + rng.choice([0.0, rng.uniform(0, 1.5)])))
        for _ in range(100):  # edges on pixel centers and pixel borders
            x1, y1 = rng.integers(-4, 50) / 2, rng.integers(-4, 42) / 2
            out.append(Box(x1, y1, x1 + rng.integers(0, 40) / 2, y1 + rng.integers(0, 40) / 2))
        return out

    @pytest.mark.parametrize("shape", SHAPE_FAMILIES)
    def test_window_equals_full_frame(self, shape):
        ys, xs = np.arange(self.H) + 0.5, np.arange(self.W) + 0.5
        for box in self.boxes():
            full = _shape_mask(shape, ys, xs, box)
            np.testing.assert_array_equal(windowed_mask(shape, self.H, self.W, box), full,
                                          err_msg=f"{shape} {box}")


def reference_crop_window(frame, cx, cy, side, out_size):
    """``crop_window`` as written before the row-then-column gather: four
    2-D fancy-index gathers and broadcast weights. The fast path must give
    the same bytes."""
    c, h, w = frame.shape
    xs = cx - side / 2.0 + (np.arange(out_size) + 0.5) * (side / out_size) - 0.5
    ys = cy - side / 2.0 + (np.arange(out_size) + 0.5) * (side / out_size) - 0.5
    x0 = np.floor(xs).astype(int)
    y0 = np.floor(ys).astype(int)
    fx = xs - x0
    fy = ys - y0
    means = frame.reshape(c, -1).mean(axis=1)
    padded = np.empty((c, h + 2, w + 2))
    padded[:] = means[:, None, None]
    padded[:, 1:h + 1, 1:w + 1] = frame
    x0c = np.clip(x0 + 1, 0, w + 1)
    x1c = np.clip(x0 + 2, 0, w + 1)
    y0c = np.clip(y0 + 1, 0, h + 1)
    y1c = np.clip(y0 + 2, 0, h + 1)
    out_of_x = (x0 < -1) | (x0 > w)
    out_of_y = (y0 < -1) | (y0 > h)
    x0c[out_of_x] = 0
    x1c[out_of_x] = 0
    y0c[out_of_y] = 0
    y1c[out_of_y] = 0
    tl = padded[:, y0c[:, None], x0c[None, :]]
    tr = padded[:, y0c[:, None], x1c[None, :]]
    bl = padded[:, y1c[:, None], x0c[None, :]]
    br = padded[:, y1c[:, None], x1c[None, :]]
    wx = fx[None, None, :]
    wy = fy[None, :, None]
    return (tl * (1 - wx) * (1 - wy) + tr * wx * (1 - wy)
            + bl * (1 - wx) * wy + br * wx * wy)


class TestCropWindowBits:
    """The fast ``crop_window`` equals the reference byte for byte."""

    def crops(self, rng, h, w):
        out = []
        for _ in range(12):  # anywhere, partly or wholly off-frame
            out.append((rng.uniform(-200, w + 200), rng.uniform(-200, h + 200),
                        rng.uniform(1, 400)))
        for _ in range(6):  # sub-pixel sides and sub-pixel centers
            out.append((rng.uniform(0, w), rng.uniform(0, h), rng.uniform(0.01, 1.0)))
        for _ in range(6):  # sides and centers on pixel borders
            out.append((rng.integers(0, 2 * w) / 2, rng.integers(0, 2 * h) / 2,
                        float(rng.integers(1, 200))))
        out.append((w / 2, h / 2, float(max(h, w))))  # the whole frame
        out.append((-1e4, 3e4, 50.0))                    # nowhere near it
        return out

    @pytest.mark.parametrize("out_size", [64, 127, 128, 255])
    def test_random_crops(self, out_size):
        rng = np.random.default_rng(out_size)
        frames = [rng.random((3, 160, 160)), rng.random((1, 37, 90)),
                  gen_sequence(SequenceSpec(seed=out_size, frames=1)).frames[0]]
        for frame in frames:
            for cx, cy, side in self.crops(rng, *frame.shape[1:]):
                got = crop_window(frame, cx, cy, side, out_size)
                want = reference_crop_window(frame, cx, cy, side, out_size)
                assert got.shape == want.shape
                assert got.tobytes() == want.tobytes(), (frame.shape, cx, cy, side)


class TestCropPair:
    def test_centered_target_maps_to_search_center(self):
        seq = gen_sequence(SequenceSpec(seed=9, frames=3, motion_sigma=0.0))
        _, _, gt_s, _ = crop_pair(seq, 0, 64, 128)
        cx, cy = gt_s.center
        assert cx == pytest.approx(64.0, abs=1e-9)
        assert cy == pytest.approx(64.0, abs=1e-9)

    def test_padding_equals_channel_mean(self):
        frame = np.random.default_rng(0).uniform(0.2, 0.8, size=(3, 32, 32))
        means = frame.reshape(3, -1).mean(axis=1)
        crop = crop_window(frame, cx=-500.0, cy=-500.0, side=20.0, out_size=8)
        for ch in range(3):
            np.testing.assert_allclose(crop[ch], means[ch], atol=1e-12)

    def test_scale_round_trip_within_half_pixel(self):
        seq = gen_sequence(SequenceSpec(seed=10, frames=4, motion_sigma=4.0))
        for idx in range(4):
            _, _, gt_s, tf = crop_pair(seq, idx, 64, 128)
            back = tf.to_image(gt_s)
            gt = seq.gt[idx]
            for got, want in zip(back.as_array(), gt.as_array()):
                assert abs(got - want) < 0.5

    def test_search_center_override(self):
        seq = gen_sequence(SequenceSpec(seed=11, frames=2, motion_sigma=0.0))
        _, _, gt_a, _ = crop_pair(seq, 1, 64, 128)
        _, gt_b, tf = crop_search(seq, 1, 64, 128,
                                  search_center=(seq.gt[1].center[0] + 10, seq.gt[1].center[1]))
        assert gt_b.center[0] < gt_a.center[0]

    def test_out_of_range_index(self):
        seq = gen_sequence(SequenceSpec(seed=12, frames=2))
        with pytest.raises(IndexError):
            crop_pair(seq, 5)
        with pytest.raises(IndexError):
            crop_search(seq, -1)

    def test_pair_is_template_plus_search(self):
        seq = gen_sequence(SequenceSpec(seed=14, frames=3))
        template, search, gt_s, tf = crop_pair(seq, 2, 48, 96)
        s2, gt2, tf2 = crop_search(seq, 2, 48, 96)
        assert template.tobytes() == crop_template(seq, 48).tobytes()
        assert search.tobytes() == s2.tobytes()
        assert (gt_s, tf) == (gt2, tf2)

    def test_shapes(self):
        seq = gen_sequence(SequenceSpec(seed=13, frames=1))
        t, s, _, _ = crop_pair(seq, 0, 48, 96)
        assert t.shape == (3, 48, 48)
        assert s.shape == (3, 96, 96)

    def test_context_side_formula(self):
        b = Box(0, 0, 24, 24)
        # margin 0.5 * (w + h) = 24 added to each side before the sqrt
        assert context_side(b) == pytest.approx(48.0, abs=1e-12)


class TestExportImport:
    def test_round_trip(self, tmp_path):
        spec = SequenceSpec(seed=14, frames=3, distractors=2)
        seq = gen_sequence(spec)
        out = tmp_path / "seq"
        export_sequence(seq, str(out))
        loaded = import_sequence(str(out))

        assert len(loaded) == len(seq)
        assert loaded.spec == spec
        for a, b in zip(loaded.gt, seq.gt):
            assert a == b
        for t in range(len(seq)):
            for a, b in zip(loaded.distractor_boxes[t], seq.distractor_boxes[t]):
                assert a == b
        # rasters are 8-bit quantized on disk
        for a, b in zip(loaded.frames, seq.frames):
            assert np.abs(a - b).max() <= 0.5 / 255.0 + 1e-12

    def test_export_is_deterministic(self, tmp_path):
        seq = gen_sequence(SequenceSpec(seed=15, frames=2))
        a, b = tmp_path / "a", tmp_path / "b"
        export_sequence(seq, str(a))
        export_sequence(seq, str(b))
        for name in sorted(p.name for p in a.iterdir()):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_spec_kv_round_trip(self):
        spec = SequenceSpec(seed=16, frames=5, shape="ellipse", color=(0.25, 0.5, 0.75),
                            similarity=0.625)
        assert configio.from_kv(SequenceSpec, configio.to_kv(spec)) == spec

    def test_import_missing_frames(self, tmp_path):
        with pytest.raises(ValueError):
            import_sequence(str(tmp_path))


class TestCropTransform:
    def test_inverse(self):
        tf = CropTransform(cx=50.0, cy=60.0, side=40.0, out_size=128)
        b = Box(45.0, 55.0, 58.0, 63.0)
        back = tf.to_image(tf.to_crop(b))
        for got, want in zip(back.as_array(), b.as_array()):
            assert got == pytest.approx(want, abs=1e-9)
