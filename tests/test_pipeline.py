import hashlib
import os
import platform
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from ranktrack import numerics as nm
from ranktrack import configio, pipeline, synthdata
from ranktrack.configio import ConfigError
from ranktrack.geometry import Box, assign_labels, iou
from ranktrack.pipeline import (
    DivergenceError,
    LogRow,
    ModelParams,
    TrainConfig,
    feature_extent,
    forward,
    head_grid,
    image_loss,
    init_params,
    load_checkpoint,
    save_checkpoint,
    track,
    track_step,
    train,
)
from ranktrack.rng import SplitMix64

from conftest import quick_config


PAPER_PRESET = dict(template_size=127, search_size=255, corr_mode="pw")


def log_digest(log) -> str:
    h = hashlib.sha256()
    for r in log:
        h.update(repr((r.iteration, r.cls, r.loc, r.rank_cls, r.rank_iou,
                       r.total, r.margin)).encode())
    return h.hexdigest()


class TestConfig:
    def test_defaults_follow_published_recipe(self):
        cfg = TrainConfig()
        assert (cfg.alpha, cfg.beta, cfg.gamma, cfg.tau_neg) == (0.5, 4.0, 3.0, 0.5)
        assert (cfg.w_rpn, cfg.w_rank_cls, cfg.w_rank_iou) == (1.0, 0.5, 0.25)
        assert (cfg.template_size, cfg.search_size) == (127, 255)
        assert cfg.momentum == 0.9

    def test_kv_round_trip(self):
        cfg = quick_config(rank_cls=True, gamma=2.5)
        assert configio.from_kv(TrainConfig, configio.to_kv(cfg)) == cfg

    def test_invalid_gamma(self):
        with pytest.raises(ConfigError):
            configio.from_kv(TrainConfig, {"gamma": "0"})

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            configio.from_kv(TrainConfig, {"learning_rate_typo": "1"})

    def test_exclusive_iou_flags(self):
        with pytest.raises(ConfigError):
            quick_config(rank_iou=True, rank_iou_ori=True)

    def test_bad_value_names_field(self):
        with pytest.raises(ConfigError, match="gamma"):
            configio.from_kv(TrainConfig, {"gamma": "fast"})

    @pytest.mark.parametrize("field,value,text", [
        ("w_rpn", -1.0, "must be non-negative"),
        ("w_rank_cls", -0.5, "must be non-negative"),
        ("w_rank_iou", -1e-9, "must be non-negative"),
        ("tau_neg", 1.0, "must be less than 1"),
        ("tau_neg", 2.5, "must be less than 1"),
        ("momentum", 1.0, "must be less than 1"),
        ("momentum", 1.5, "must be less than 1")])
    def test_config_that_disables_or_inverts_a_loss_rejected(self, field, value, text):
        with pytest.raises(ConfigError, match=f"field '{field}' {text}"):
            quick_config(**{field: value})

    @pytest.mark.parametrize("field,value", [
        ("w_rpn", 0.0), ("w_rank_cls", 0.0), ("w_rank_iou", 0.0), ("tau_neg", 0.0),
        ("tau_neg", np.nextafter(1.0, 0.0)), ("momentum", 0.0),
        ("momentum", np.nextafter(1.0, 0.0))])
    def test_boundary_values_accepted(self, field, value):
        quick_config(**{field: value})


class TestModelShapes:
    def test_feature_extent_halves_three_times(self):
        assert feature_extent(64) == 8
        assert feature_extent(128) == 16
        assert feature_extent(127) == 15
        assert feature_extent(255) == 31

    def test_dw_head_grid_64_128(self):
        cfg = quick_config()
        grid = head_grid(cfg)
        assert (grid.height, grid.width) == (9, 9)
        assert grid.stride == 8.0

    def test_pw_head_grid_matches_search_features(self):
        cfg = quick_config(corr_mode="pw")
        grid = head_grid(cfg)
        assert (grid.height, grid.width) == (16, 16)

    def test_forward_output_shapes(self):
        for mode, g in (("dw", 9), ("pw", 16)):
            cfg = quick_config(corr_mode=mode)
            mp = init_params(cfg, SplitMix64(0))
            t = np.zeros((3, 64, 64))
            s = np.zeros((3, 128, 128))
            a_cls, a_loc = forward(mp, t, s)
            assert a_cls.data.shape == (2, g, g)
            assert a_loc.data.shape == (4, g, g)
            assert np.all(a_loc.data > 0)  # exponential offsets

    def test_pw_first_channels_pass_search_features(self):
        cfg = quick_config(corr_mode="pw")
        mp = init_params(cfg, SplitMix64(1))
        rng = np.random.default_rng(2)
        t = rng.uniform(0, 1, (3, 64, 64))
        s = rng.uniform(0, 1, (3, 128, 128))
        from ranktrack import correlation
        fz = pipeline._backbone(mp, t)
        fx = pipeline._backbone(mp, s)
        sim = correlation.pw_corr(fz, fx)
        np.testing.assert_array_equal(sim.data[:32], fx.data)

    def test_raster_channel_mismatch(self):
        cfg = quick_config()
        mp = init_params(cfg, SplitMix64(0))
        with pytest.raises(ValueError):
            forward(mp, np.zeros((1, 64, 64)), np.zeros((1, 128, 128)))

    def test_init_is_fan_in_bounded(self):
        cfg = quick_config()
        mp = init_params(cfg, SplitMix64(3))
        w1 = mp.params["bb1_w"]
        bound = 1.0 / np.sqrt(3 * 2 * 2)
        assert np.abs(w1.data).max() <= bound
        assert w1.data.std() > 0


class TestImageLoss:
    def setup_model(self, **overrides):
        cfg = quick_config(**overrides)
        mp = init_params(cfg, SplitMix64(5))
        seq = synthdata.gen_sequence(synthdata.SequenceSpec(seed=6, frames=3))
        t, s, gt_s, _ = synthdata.crop_pair(seq, 1, 64, 128)
        return cfg, mp, t, s, gt_s

    def test_flags_off_total_is_cls_plus_loc(self):
        cfg, mp, t, s, gt_s = self.setup_model()
        out, margin = image_loss(cfg, mp, t, s, gt_s, head_grid(cfg))
        assert margin is None
        assert out.total.item() == pytest.approx(out.cls.item() + out.loc.item(), abs=1e-12)
        assert out.rank_cls.item() == 0.0 and out.rank_iou.item() == 0.0

    def test_rank_terms_present_when_enabled(self):
        cfg, mp, t, s, gt_s = self.setup_model(rank_cls=True, rank_iou=True)
        out, margin = image_loss(cfg, mp, t, s, gt_s, head_grid(cfg))
        expected = (out.cls.item() + out.loc.item()
                    + 0.5 * out.rank_cls.item() + 0.25 * out.rank_iou.item())
        assert out.total.item() == pytest.approx(expected, abs=1e-12)
        if not out.skipped_rank_cls:
            assert margin is not None

    def test_skip_rule_flags_image_without_hard_negatives(self):
        cfg, mp, t, s, gt_s = self.setup_model(rank_cls=True)
        # bias the classifier head so every location scores ~0 foreground
        mp.params["cls2_b"].data[:] = np.array([[[12.0]], [[-12.0]]])
        out, margin = image_loss(cfg, mp, t, s, gt_s, head_grid(cfg))
        assert out.skipped_rank_cls
        assert out.rank_cls.item() == 0.0
        assert margin is None

    def test_gt_off_grid_returns_none(self):
        cfg, mp, t, s, _ = self.setup_model()
        far = Box(1.0, 1.0, 6.0, 6.0)  # inside search but off the 9x9 grid span
        assert image_loss(cfg, mp, t, s, far, head_grid(cfg)) is None


    def test_graph_of_a_paper_loss_holds_at_most_16_mib(self):
        # 127/255 pw: one node per conv layer and one attention matrix in
        # pw_corr. With conv, bias add and ReLU recorded as three nodes and
        # pw_corr composed op by op, the same graph held 26.3 MiB.
        cfg = quick_config(template_size=127, search_size=255, corr_mode="pw",
                           rank_cls=True, rank_iou=True)
        mp = init_params(cfg, SplitMix64(5))
        seq = synthdata.gen_sequence(synthdata.SequenceSpec(seed=6, frames=3))
        t, s, gt_s, _ = synthdata.crop_pair(seq, 1, 127, 255)
        grid = head_grid(cfg)
        assert image_loss(cfg, mp, t, s, gt_s, grid) is not None  # warm caches
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out, _ = image_loss(cfg, mp, t, s, gt_s, grid)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert out.total._backward_fn is not None
        assert held <= 16 * 2**20, f"graph holds {held / 2**20:.1f} MiB"

    def test_backward_of_a_paper_loss_peaks_at_most_18_mib(self):
        # The same sample through its loss and backward. Keeping the whole
        # graph until backward returned, with pw_corr's backward on fresh
        # temporaries, peaked at 20.5 MiB, at the bb2 search conv's backward;
        # backward now frees each node once its gradients are out.
        cfg = quick_config(template_size=127, search_size=255, corr_mode="pw",
                           rank_cls=True, rank_iou=True)
        mp = init_params(cfg, SplitMix64(5))
        seq = synthdata.gen_sequence(synthdata.SequenceSpec(seed=6, frames=3))
        t, s, gt_s, _ = synthdata.crop_pair(seq, 1, 127, 255)
        grid = head_grid(cfg)
        nm.backward(image_loss(cfg, mp, t, s, gt_s, grid)[0].total)  # warm caches
        tracemalloc.start()
        try:
            nm.backward(image_loss(cfg, mp, t, s, gt_s, grid)[0].total)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 18 * 2**20, f"loss and backward peaked at {peak / 2**20:.1f} MiB"

    def test_raster_is_not_kept_by_the_graph(self):
        cfg, mp, t, _, _ = self.setup_model()
        first = pipeline._backbone(mp, t)
        while first._parents[0] is not None:
            first = first._parents[0]
        assert first._op == "conv2d" and first._parents[1] is mp.params["bb1_w"]


class TestTrainLoop:
    def test_same_seed_bit_identical(self):
        cfg = quick_config(iterations=12, train_sequences=2, frames_per_sequence=3,
                           batch_size=2)
        r1 = train(cfg)
        r2 = train(cfg)
        assert log_digest(r1.log) == log_digest(r2.log)
        for name, t in r1.params.leaves():
            np.testing.assert_array_equal(t.data, r2.params.params[name].data)

    def test_different_seed_differs(self):
        cfg1 = quick_config(iterations=8, train_sequences=2, frames_per_sequence=3,
                            batch_size=2)
        cfg2 = quick_config(iterations=8, train_sequences=2, frames_per_sequence=3,
                            batch_size=2, seed=8)
        assert log_digest(train(cfg1).log) != log_digest(train(cfg2).log)

    def test_adversarial_lr_diverges(self):
        cfg = quick_config(iterations=300, lr=1e3, train_sequences=2,
                           frames_per_sequence=3, batch_size=2)
        with pytest.raises(DivergenceError) as exc:
            train(cfg)
        assert exc.value.snapshot  # diagnostic snapshot captured

    def test_loss_drops_by_half(self, trained_baseline):
        _, result = trained_baseline
        log = result.log
        k = max(len(log) // 20, 5)
        first = np.mean([r.total for r in log[:k]])
        last = np.mean([r.total for r in log[-k:]])
        assert last <= 0.5 * first

    def test_rank_cls_margin_trend(self):
        cfg = quick_config(iterations=260, rank_cls=True, train_sequences=4,
                           frames_per_sequence=6, batch_size=4)
        log = train(cfg).log
        k = max(len(log) // 10, 5)
        first = np.nanmean([r.margin for r in log[:k]])
        last = np.nanmean([r.margin for r in log[-k:]])
        assert last > first


def batch_mean_train(cfg: TrainConfig) -> tuple[ModelParams, list[LogRow], list[int]]:
    """Reference for ``train``: the loop that records the graphs of every
    accepted sample of a batch and then runs one backward of their mean.
    Also returns the batch sizes."""
    pool = pipeline.training_pool(cfg)
    master = SplitMix64(cfg.seed)
    init_rng = master.spawn(pipeline._DOM_INIT)
    sampler = master.spawn(pipeline._DOM_SAMPLER)
    mp = init_params(cfg, init_rng)
    grid = head_grid(cfg)
    templates = [synthdata.crop_template(seq, cfg.template_size) for seq in pool]
    velocity = {name: np.zeros_like(t.data) for name, t in mp.leaves()}
    log, sizes = [], []
    for it in range(cfg.iterations):
        parts, margins, attempts = [], [], 0
        while len(parts) < cfg.batch_size and attempts < 10 * cfg.batch_size:
            attempts += 1
            k = sampler.randint(len(pool))
            seq = pool[k]
            idx = sampler.randint(len(seq))
            cx, cy = seq.gt[idx].center
            cx += sampler.uniform(-cfg.shift_aug, cfg.shift_aug)
            cy += sampler.uniform(-cfg.shift_aug, cfg.shift_aug)
            search, gt_s, _ = synthdata.crop_search(
                seq, idx, cfg.template_size, cfg.search_size, search_center=(cx, cy))
            result = image_loss(cfg, mp, templates[k], search, gt_s, grid)
            if result is not None:
                parts.append(result[0])
                if result[1] is not None:
                    margins.append(result[1])
        sizes.append(len(parts))
        acc = parts[0].total
        for p in parts[1:]:
            acc = nm.add(acc, p.total)
        total = nm.mul(acc, 1.0 / len(parts))
        nm.backward(total)
        log.append(LogRow(
            iteration=it,
            cls=float(np.mean([p.cls.item() for p in parts])),
            loc=float(np.mean([p.loc.item() for p in parts])),
            rank_cls=float(np.mean([p.rank_cls.item() for p in parts])),
            rank_iou=float(np.mean([p.rank_iou.item() for p in parts])),
            total=total.item(),
            margin=float(np.mean(margins)) if margins else float("nan"),
        ))
        for name, t in mp.leaves():
            velocity[name] = cfg.momentum * velocity[name] + t.grad
            t.data = t.data - cfg.lr * velocity[name]
        mp.zero_grad()
    return mp, log, sizes


class TestPerSampleBackward:
    def test_short_batches_match_the_batch_mean_loop(self):
        # a jitter of up to 110 px moves most search crops off the target,
        # so many iterations run out of draws with fewer than 4 samples
        cfg = quick_config(seed=9, shift_aug=110.0, iterations=8, train_sequences=3,
                           frames_per_sequence=3, rank_cls=True, rank_iou=True)
        ref_params, ref_log, sizes = batch_mean_train(cfg)
        assert min(sizes) == 1 and max(sizes) == cfg.batch_size
        assert sum(n < cfg.batch_size for n in sizes) >= 3
        result = train(cfg)
        assert log_digest(result.log) == log_digest(ref_log)
        for name, t in result.params.leaves():
            assert t.data.tobytes() == ref_params.params[name].data.tobytes(), name

    def test_batch_with_every_draw_rejected_raises(self):
        cfg = quick_config(shift_aug=1e6, iterations=2, train_sequences=2,
                           frames_per_sequence=3)
        with pytest.raises(DivergenceError, match="no trainable samples at iteration 0") as exc:
            train(cfg)
        assert exc.value.snapshot["iteration"] == 0

    @pytest.mark.parametrize("preset, most", [({}, 4), (PAPER_PRESET, 16)])
    def test_largest_positive_count_of_training_draws(self, monkeypatch, preset, most):
        # The rank losses once subsampled the positives of a sample beyond
        # 256 before pairing them; training draws come nowhere near that.
        # Pixels do not decide the labels, so the crops are skipped.
        monkeypatch.setattr(synthdata, "crop_window", lambda *args: None)
        cfg = quick_config(**preset)
        pool = pipeline.training_pool(cfg)
        grid = head_grid(cfg)
        sampler = SplitMix64(cfg.seed).spawn(pipeline._DOM_SAMPLER)
        counts = [assign_labels(grid, gt).n_pos
                  for _ in range(750)
                  for _, _, gt in pipeline._draw_batch(cfg, pool, sampler, grid)]
        assert len(counts) == 3000
        assert max(counts) == most

    def test_paper_training_traces_at_most_64_mib(self):
        # One sample's graph is alive at a time. Recording the four graphs of
        # a batch before one backward, and keeping them until the next
        # batch's forwards were done, peaked at 107.2 MiB.
        cfg = quick_config(iterations=3, rank_cls=True, rank_iou=True, **PAPER_PRESET)
        pool = pipeline.training_pool(cfg)
        tracemalloc.start()
        try:
            train(cfg, pool)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 64 * 2**20, f"training peaked at {peak / 2**20:.1f} MiB"

    @pytest.mark.skipif(not sys.platform.startswith("linux")
                        or platform.libc_ver()[0] != "glibc",
                        reason="page-fault counts and heap thresholds are glibc's")
    def test_paper_training_reuses_freed_heap(self):
        # Freeing a graph per sample lets glibc trim the heap top and fault
        # it back in: 10 iterations took 242-295 thousand minor faults
        # without the heap thresholds set in ranktrack.numerics, and 8.3-9.4
        # thousand when a batch's graphs were freed together.
        script = textwrap.dedent("""
            import dataclasses, resource
            from conftest import quick_config
            from ranktrack import pipeline
            cfg = quick_config(template_size=127, search_size=255, corr_mode="pw",
                               iterations=3, rank_cls=True, rank_iou=True)
            pool = pipeline.training_pool(cfg)
            pipeline.train(cfg, pool)
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            pipeline.train(dataclasses.replace(cfg, iterations=10), pool)
            print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
        """)
        tests_dir = Path(__file__).resolve().parent
        path = [str(tests_dir.parent / "src"), str(tests_dir)]
        out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                             timeout=300, check=True,
                             env={**os.environ, "PYTHONPATH": os.pathsep.join(path)})
        faults = int(out.stdout.split()[-1])
        assert faults < 2000, f"{faults} minor page faults in 10 iterations"


class TestCheckpoint:
    def test_bit_exact_round_trip(self, tmp_path, trained_baseline):
        _, result = trained_baseline
        path = tmp_path / "ckpt.bin"
        save_checkpoint(result.params, str(path))
        loaded = load_checkpoint(str(path))
        assert loaded.corr_mode == result.params.corr_mode
        assert loaded.in_channels == result.params.in_channels
        assert set(loaded.params) == set(result.params.params)
        for name, t in result.params.leaves():
            np.testing.assert_array_equal(loaded.params[name].data, t.data)

    def test_rejects_garbage(self, tmp_path):
        p = tmp_path / "bad.bin"
        p.write_bytes(b"not a checkpoint")
        with pytest.raises(ValueError):
            load_checkpoint(str(p))


class TestTrack:
    def test_first_frame_is_ground_truth(self, trained_baseline):
        cfg, result = trained_baseline
        seq = synthdata.gen_sequence(synthdata.SequenceSpec(seed=30, frames=3))
        preds = track(result.params, seq, cfg)
        assert preds[0] == seq.gt[0]

    def test_static_easy_sequence_stays_on_target(self, trained_baseline):
        cfg, result = trained_baseline
        seq = synthdata.gen_sequence(synthdata.SequenceSpec(
            seed=31, frames=6, motion_sigma=0.0, distractors=0, clutter=0))
        preds = track(result.params, seq, cfg)
        for p, g in zip(preds, seq.gt):
            assert iou(p, g) >= 0.5

    def test_track_equals_raster_track_step_loop(self, trained_baseline):
        # track embeds the template once per sequence; the boxes must be the
        # bits of a frame-by-frame track_step loop that passes the raster
        cfg, result = trained_baseline
        for seq in pipeline.eval_pool(cfg)[:2]:
            template = synthdata.crop_template(seq, cfg.template_size)
            boxes = [seq.gt[0]]
            for t in range(1, len(seq)):
                boxes.append(track_step(result.params, template, seq.frames[t], boxes[-1], cfg)[1])
            assert track(result.params, seq, cfg) == boxes

    def test_forward_on_template_features_equals_raster(self, trained_baseline):
        cfg, result = trained_baseline
        t, s, _, _ = synthdata.crop_pair(pipeline.eval_pool(cfg)[0], 2,
                                         cfg.template_size, cfg.search_size)
        fz = pipeline.embed_template(result.params, t)
        for got, want in zip(forward(result.params, fz, s), forward(result.params, t, s)):
            assert got.data.tobytes() == want.data.tobytes()

    def test_predictions_clamped_to_frame(self, trained_baseline):
        cfg, result = trained_baseline
        spec = synthdata.SequenceSpec(seed=33, frames=6, motion_sigma=10.0)
        seq = synthdata.gen_sequence(spec)
        for b in track(result.params, seq, cfg):
            assert 0 <= b.x1 and b.x2 <= spec.image_size
            assert 0 <= b.y1 and b.y2 <= spec.image_size

    def test_centered_search_argmax_on_target(self, trained_baseline):
        cfg, result = trained_baseline
        grid = head_grid(cfg)
        px, py = grid.pixel_xy()
        seqs = pipeline.eval_pool(cfg)
        hits = 0
        for seq in seqs:
            t, s, gt_s, _ = synthdata.crop_pair(seq, 0, cfg.template_size, cfg.search_size)
            a_cls, _ = forward(result.params, t, s)
            probs = nm.softmax(a_cls).data[1]
            r, c = np.unravel_index(int(np.argmax(probs)), probs.shape)
            hits += gt_s.contains(px[r, c], py[r, c])
        assert hits >= len(seqs) - 1
