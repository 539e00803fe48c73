import hashlib
import multiprocessing
import os
import platform
import signal
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from ranktrack import numerics as nm
from ranktrack import cli, configio, losses, pipeline, synthdata
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

from conftest import quick_config, use_processes


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


def test_eval_pool_reads_exactly_its_fields():
    cfg = quick_config(eval_sequences=2, eval_frames=1)
    read = set()

    class Recorder:
        def __getattr__(self, name):
            read.add(name)
            return getattr(cfg, name)

    assert [s.gt for s in pipeline.eval_pool(Recorder())] == \
        [s.gt for s in pipeline.eval_pool(cfg)]
    assert read == set(pipeline.EVAL_POOL_FIELDS)


class TestModelShapes:
    def test_feature_extent_halves_three_times(self):
        assert feature_extent(64) == 8
        assert feature_extent(128) == 16
        assert feature_extent(127) == 15
        assert feature_extent(255) == 31

    def test_dw_head_grid_64_128(self):
        cfg = quick_config()
        grid = head_grid(cfg)
        assert grid.size == 9
        assert grid.stride == 8.0

    def test_pw_head_grid_matches_search_features(self):
        cfg = quick_config(corr_mode="pw")
        grid = head_grid(cfg)
        assert grid.size == 16

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
        fz = pipeline.embed(mp, t)
        fx = pipeline.embed(mp, s)
        sim = correlation.pw_corr(fz, fx)
        np.testing.assert_array_equal(sim.data[:32], fx.data)

    def test_raster_channel_mismatch(self):
        cfg = quick_config()
        mp = init_params(cfg, SplitMix64(0))
        with pytest.raises(ValueError, match="conv2d channel mismatch: input 1, kernels 3"):
            forward(mp, np.zeros((1, 64, 64)), np.zeros((1, 128, 128)))
        with pytest.raises(ValueError, match="conv2d channel mismatch: input 1, kernels 3"):
            forward(mp, np.zeros((3, 64, 64)), np.zeros((1, 128, 128)))

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
        assert (margin is None) == (out.plan.hard_idx.size == 0)

    def test_skip_rule_flags_image_without_hard_negatives(self):
        cfg, mp, t, s, gt_s = self.setup_model(rank_cls=True)
        # bias the classifier head so every location scores ~0 foreground
        mp.params["cls2_b"].data[:] = np.array([[[12.0]], [[-12.0]]])
        out, margin = image_loss(cfg, mp, t, s, gt_s, head_grid(cfg))
        assert out.plan.hard_idx.size == 0
        assert out.rank_cls.item() == 0.0
        assert margin is None

    def test_one_class_log_softmax_feeds_every_confidence(self):
        # two-stage CE, CR and IGR on, every negative hard: the graph holds one
        # log-softmax and no softmax of the class map; the one softmax left is
        # expectations' weighting of the hard negatives
        cfg, mp, t, s, gt_s = self.setup_model(two_stage_ce=True, rank_cls=True, rank_iou=True,
                                               tau_neg=0.0)
        out, margin = image_loss(cfg, mp, t, s, gt_s, head_grid(cfg))
        assert margin is not None and out.rank_iou.item() > 0.0
        nodes, stack = {}, [out.total]
        while stack:
            node = stack.pop()
            nodes[id(node)] = node
            stack.extend(p for p in node._parents if p is not None and id(p) not in nodes)
        assert [n._op for n in nodes.values()].count("log_softmax") == 1
        assert [n.data.shape for n in nodes.values() if n._op == "softmax"] == \
            [(out.plan.hard_idx.size,)]

    def test_rank_iou_ori_is_the_ori_loss_of_the_rank_batch(self):
        cfg, mp, t, s, gt_s = self.setup_model(rank_iou_ori=True)
        grid = head_grid(cfg)
        out, _ = image_loss(cfg, mp, t, s, gt_s, grid)
        a_cls, a_loc = forward(mp, t, s)
        batch = pipeline.rank_batch(grid, assign_labels(grid, gt_s),
                                    losses.foreground_probs(losses.class_log_probs(a_cls)),
                                    nm.reshape(a_loc, (4, -1)), gt_s)
        want = losses.rank_iou_loss_ori(batch, cfg.ori_alpha)
        assert want.item() > 0.0 and out.rank_iou.data.tobytes() == want.data.tobytes()

    def test_second_stage_cells_are_the_cr_hard_set(self, monkeypatch):
        cfg, mp, t, s, gt_s = self.setup_model(two_stage_ce=True, rank_cls=True, tau_neg=0.499)
        seen = {}
        for name in ("two_stage_ce", "expectations"):
            def spy(*args, fn=getattr(losses, name), name=name):
                seen[name] = args
                return fn(*args)
            monkeypatch.setattr(losses, name, spy)
        grid = head_grid(cfg)
        out, _ = image_loss(cfg, mp, t, s, gt_s, grid)
        neg = assign_labels(grid, gt_s).neg_flat()
        logp, _, hard_idx = seen["two_stage_ce"]
        assert hard_idx is out.plan.hard_idx and 0 < hard_idx.size < neg.size
        p_fg = np.exp(logp.data[1])
        cells = neg[hard_idx]
        np.testing.assert_array_equal(cells, neg[p_fg[neg] > cfg.tau_neg])
        assert seen["expectations"][1].data.tobytes() == p_fg[cells].tobytes()
        second = -np.sum(logp.data[0, cells]) / cells.size
        assert out.cls.item() == pytest.approx(
            losses.cross_entropy(logp, assign_labels(grid, gt_s)).item() + second, abs=1e-12)

    def test_read_out_reads_the_loss_probabilities(self, monkeypatch):
        cfg = quick_config(rank_cls=True)
        mp = init_params(cfg, SplitMix64(5))
        seq = synthdata.gen_sequence(synthdata.SequenceSpec(seed=6, frames=3))
        template, search, gt_s, tf = synthdata.crop_pair(seq, 1, 64, 128)
        captured = []

        def spy(logp, fn=losses.foreground_probs):
            captured.append(fn(logp))
            return captured[-1]

        monkeypatch.setattr(losses, "foreground_probs", spy)
        image_loss(cfg, mp, template, search, gt_s, head_grid(cfg))
        p_fg = captured[0]
        got_tf, probs, _, _ = pipeline.read_out(mp, template, seq.frames[1], seq.gt[1],
                                                seq.gt[1].center, cfg)
        assert got_tf == tf
        assert probs.data.shape == (81,) and probs.data.tobytes() == p_fg.data.tobytes()

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
        first = pipeline.embed(mp, t)
        while first._parents[0] is not None:
            first = first._parents[0]
        assert first._op == "conv2d" and first._parents[1] is mp.params["bb1_w"]


class TestTrainLoop:
    @pytest.mark.parametrize("procs", [1, 2])
    def test_same_seed_bit_identical(self, monkeypatch, procs):
        use_processes(monkeypatch, procs)
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
            tf = synthdata.context_crop(seq.gt[idx], (cx, cy), cfg.search_size / cfg.template_size,
                                        cfg.search_size)
            result = image_loss(cfg, mp, templates[k], tf.crop(seq.frames[idx]),
                                tf.to_crop(seq.gt[idx]), grid)
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
    @pytest.mark.parametrize("procs", [1, 2])
    def test_short_batches_match_the_batch_mean_loop(self, monkeypatch, procs):
        # a jitter of up to 110 px moves most search crops off the target,
        # so many iterations run out of draws with fewer than 4 samples
        use_processes(monkeypatch, procs)
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
    def test_largest_positive_count_of_training_draws(self, preset, most):
        # The rank losses once subsampled the positives of a sample beyond
        # 256 before pairing them; training draws come nowhere near that.
        cfg = quick_config(**preset)
        pool = pipeline.training_pool(cfg)
        grid = head_grid(cfg)
        sampler = SplitMix64(cfg.seed).spawn(pipeline._DOM_SAMPLER)
        counts = [assign_labels(grid, gt).n_pos
                  for _ in range(750)
                  for _, _, _, gt in pipeline._draw_batch(cfg, pool, sampler, grid)]
        assert len(counts) == 3000
        assert max(counts) == most

    def test_paper_training_traces_at_most_64_mib(self, monkeypatch):
        # One sample's graph is alive at a time. Recording the four graphs of
        # a batch before one backward, and keeping them until the next
        # batch's forwards were done, peaked at 107.2 MiB. One process runs
        # every sample, so tracemalloc sees all of them.
        use_processes(monkeypatch, 1)
        cfg = quick_config(iterations=3, rank_cls=True, rank_iou=True, **PAPER_PRESET)
        pool = pipeline.training_pool(cfg)
        tracemalloc.start()
        try:
            train(cfg, pool)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 64 * 2**20, f"training peaked at {peak / 2**20:.1f} MiB"

    @staticmethod
    def minor_faults(procs: int, iterations: list[int]) -> list[int]:
        """Minor page faults of this process and its joined children over
        127/255 ``pw`` training calls of ``iterations`` each, run in a fresh
        interpreter at ``procs`` processes after a 3-iteration warm-up."""
        script = textwrap.dedent(f"""
            import dataclasses, resource
            from conftest import quick_config
            from ranktrack import pipeline
            pipeline._usable_cpus = lambda: {procs}
            cfg = quick_config(template_size=127, search_size=255, corr_mode="pw",
                               iterations=3, rank_cls=True, rank_iou=True)
            pool = pipeline.training_pool(cfg)
            pipeline.train(cfg, pool)
            def faults():
                return sum(resource.getrusage(who).ru_minflt
                           for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
            for n in {iterations}:
                before = faults()
                pipeline.train(dataclasses.replace(cfg, iterations=n), pool)
                print(faults() - before)
        """)
        tests_dir = Path(__file__).resolve().parent
        path = [str(tests_dir.parent / "src"), str(tests_dir)]
        out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                             timeout=300, check=True,
                             env={**os.environ, "PYTHONPATH": os.pathsep.join(path)})
        return [int(line) for line in out.stdout.split()]

    @pytest.mark.skipif(not sys.platform.startswith("linux")
                        or platform.libc_ver()[0] != "glibc",
                        reason="page-fault counts and heap thresholds are glibc's")
    def test_paper_training_reuses_freed_heap(self):
        # Freeing a graph per sample lets glibc trim the heap top and fault
        # it back in: 10 iterations took 242-295 thousand minor faults
        # without the heap thresholds set in ranktrack.numerics, and 8.3-9.4
        # thousand when a batch's graphs were freed together.
        (faults,) = self.minor_faults(1, [10])
        assert faults < 2000, f"{faults} minor page faults in 10 iterations"

    @pytest.mark.skipif(not sys.platform.startswith("linux")
                        or platform.libc_ver()[0] != "glibc",
                        reason="page-fault counts and heap thresholds are glibc's")
    def test_paper_training_reuses_freed_heap_in_every_process(self):
        # With a worker, each call pays a one-time cost: after the fork,
        # the first write of either process to a page they share faults once
        # (copy on write), about 7 thousand faults in each process, whatever
        # the iteration count. Ten more iterations must add no more than the
        # bound above: each process reuses its freed heap from sample to
        # sample.
        ten, twenty = self.minor_faults(2, [10, 20])
        assert twenty - ten < 2000, f"{ten} minor page faults in 10 iterations, {twenty} in 20"


class TestWorkers:
    """``train`` spreads a batch's samples over min(batch_size, usable CPUs)
    processes and gives the bits of one process."""

    CASES = {
        "dw-cr-igr": dict(iterations=6, rank_cls=True, rank_iou=True),
        "paper-pw-cr-igr": dict(iterations=3, rank_cls=True, rank_iou=True, **PAPER_PRESET),
        # short batches: most draws miss the target
        "dw-jitter-110": dict(seed=9, shift_aug=110.0, iterations=8, train_sequences=3,
                              frames_per_sequence=3, rank_cls=True, rank_iou=True),
    }

    @staticmethod
    def trained_bytes(monkeypatch, tmp_path, cfg, procs) -> tuple[bytes, str, bytes]:
        use_processes(monkeypatch, procs)
        result = train(cfg)
        assert multiprocessing.active_children() == []
        path = tmp_path / f"runlog{procs}.csv"
        pipeline.write_run_log(result.log, str(path))
        params = b"".join(t.data.tobytes() for _, t in result.params.leaves())
        return params, log_digest(result.log), path.read_bytes()

    # four processes: three workers, more than a 2-CPU machine has cores
    @pytest.mark.parametrize("case, procs", [(c, 2) for c in CASES] + [("dw-cr-igr", 4)])
    def test_process_count_changes_no_byte(self, monkeypatch, tmp_path, case, procs):
        cfg = quick_config(**self.CASES[case])
        one = self.trained_bytes(monkeypatch, tmp_path, cfg, 1)
        assert self.trained_bytes(monkeypatch, tmp_path, cfg, procs) == one

    @pytest.mark.parametrize("batch_size, cpus, workers", [(2, 8, 1), (4, 3, 2), (4, 1, 0)])
    def test_worker_count_is_capped_by_batch_and_cpus(self, monkeypatch, batch_size, cpus,
                                                      workers):
        started = []

        class CountedProcess(multiprocessing.context.ForkProcess):
            def start(self):
                started.append(self)
                super().start()

        monkeypatch.setattr(multiprocessing.context.ForkContext, "Process", CountedProcess)
        use_processes(monkeypatch, cpus)
        train(quick_config(iterations=2, batch_size=batch_size))
        assert len(started) == workers
        assert multiprocessing.active_children() == []

    @pytest.mark.skipif(not os.path.exists("/proc/self/stat"),
                        reason="reads the thread count from /proc/self/stat")
    def test_workers_fork_a_single_threaded_process(self):
        # Python 3.12 and later warn when a process that runs threads forks.
        # Without OPENBLAS_NUM_THREADS, importing numpy can leave an idle
        # OpenBLAS thread, which OpenBLAS stops before a fork.
        script = textwrap.dedent("""
            import multiprocessing.context
            from conftest import quick_config
            from ranktrack import pipeline
            def threads():
                with open("/proc/self/stat") as f:   # field 20, after the ")" of comm
                    return int(f.read().rsplit(")", 1)[1].split()[17])
            start = multiprocessing.context.ForkProcess.start
            def start_and_count(self):
                start(self)
                print(threads())
            multiprocessing.context.ForkProcess.start = start_and_count
            pipeline._usable_cpus = lambda: 3
            for _ in range(2):
                pipeline.train(quick_config(iterations=2, train_sequences=2,
                                            frames_per_sequence=3))
        """)
        tests_dir = Path(__file__).resolve().parent
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        env["PYTHONPATH"] = os.pathsep.join([str(tests_dir.parent / "src"), str(tests_dir)])
        out = subprocess.run([sys.executable, "-W", "error", "-c", script], capture_output=True,
                             text=True, timeout=300, check=True, env=env)
        # two calls, each forking two workers
        assert [int(line) for line in out.stdout.split()] == [1, 1, 1, 1]

    def test_usable_cpus_follow_the_affinity_mask(self):
        assert 1 <= pipeline._usable_cpus() <= len(os.sched_getaffinity(0))

    @pytest.mark.parametrize("procs", [1, 2])
    def test_one_crop_per_accepted_sample_and_template(self, monkeypatch, procs):
        # counters in shared memory, so that forked workers count too
        ctx = multiprocessing.get_context("fork")
        crops, losses = ctx.Value("i", 0), ctx.Value("i", 0)

        def counted(fn, counter):
            def wrapper(*args, **kwargs):
                with counter.get_lock():
                    counter.value += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(synthdata, "crop_window", counted(synthdata.crop_window, crops))
        monkeypatch.setattr(pipeline, "image_loss", counted(pipeline.image_loss, losses))
        use_processes(monkeypatch, procs)
        cfg = quick_config(**self.CASES["dw-jitter-110"])
        train(cfg)
        # 8 iterations of at most 4 accepted draws, many draws rejected
        assert 8 <= losses.value < 32
        assert crops.value == losses.value + cfg.train_sequences

    @staticmethod
    def poisoned(slots: dict[int, str], it: int = 1):
        """An ``image_loss`` that raises NonFiniteError with the given text for
        the given slots of iteration ``it`` of the dw-cr-igr case, recognised
        by their ground truth."""
        cfg = quick_config(**TestWorkers.CASES["dw-cr-igr"])
        pool = pipeline.training_pool(cfg)
        sampler = SplitMix64(cfg.seed).spawn(pipeline._DOM_SAMPLER)
        grid = head_grid(cfg)
        for _ in range(it + 1):
            batch = pipeline._draw_batch(cfg, pool, sampler, grid)
        texts = {batch[slot][3]: text for slot, text in slots.items()}
        image_loss = pipeline.image_loss

        def poisoned_loss(cfg, mp, template, search, gt, grid):
            if gt in texts:
                raise nm.NonFiniteError(texts[gt])
            return image_loss(cfg, mp, template, search, gt, grid)
        return cfg, poisoned_loss

    @pytest.mark.parametrize("slots, first", [({1: "in slot 1"}, 1),
                                              ({1: "in slot 1", 2: "in slot 2"}, 1),
                                              ({0: "in slot 0", 1: "in slot 1"}, 0)])
    def test_non_finite_loss_fails_as_in_one_process(self, monkeypatch, tmp_path, capsys,
                                                     slots, first):
        # slot 1 runs on the worker and slots 0 and 2 here at two processes;
        # the lowest failing slot decides the error either way
        cfg, poisoned_loss = self.poisoned(slots)
        monkeypatch.setattr(pipeline, "image_loss", poisoned_loss)
        cfg_path = tmp_path / "train.cfg"
        cfg_path.write_text(configio.format_kv(cfg.to_kv()))
        outcomes = []
        for procs in (1, 2):
            use_processes(monkeypatch, procs)
            out = tmp_path / f"run{procs}"
            code = cli.main(["train", "--config", str(cfg_path), "--out", str(out)])
            assert multiprocessing.active_children() == []
            outcomes.append((code, capsys.readouterr().err.replace(str(out), "OUT"),
                             (out / "divergence.txt").read_text()))
        assert outcomes[0] == outcomes[1]
        code, err, report = outcomes[0]
        assert code == cli.EXIT_DIVERGED
        assert f"non-finite loss at iteration 1: {slots[first]}" in err
        assert report.startswith(f"non-finite loss at iteration 1: {slots[first]}")

    def test_dead_worker_raises(self, monkeypatch):
        parent = os.getpid()
        run_slots = pipeline._run_slots

        def dying(*args):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return run_slots(*args)

        def timeout(signum, frame):
            raise TimeoutError("train did not notice its dead worker")

        monkeypatch.setattr(pipeline, "_run_slots", dying)
        use_processes(monkeypatch, 2)
        old = signal.signal(signal.SIGALRM, timeout)
        signal.alarm(60)
        try:
            with pytest.raises(RuntimeError, match=r"training worker \(pid \d+\) died .*"
                                                   r"exit code -9"):
                train(quick_config(iterations=3))
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, old)
        assert multiprocessing.active_children() == []

    def test_worker_ignores_sigint(self, monkeypatch, tmp_path):
        # An interrupt meant for the parent (a terminal's Ctrl-C reaches the
        # whole process group) does not stop a worker, even one that has
        # not yet reached its first line: here it arrives before that line.
        worker = pipeline._worker

        def interrupted_worker(*args):
            os.kill(os.getpid(), signal.SIGINT)
            worker(*args)

        cfg = quick_config(iterations=4)
        want = self.trained_bytes(monkeypatch, tmp_path, cfg, 1)
        monkeypatch.setattr(pipeline, "_worker", interrupted_worker)
        assert self.trained_bytes(monkeypatch, tmp_path, cfg, 2) == want


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


def track_seq(mp, seq, cfg):
    """``track`` of ``seq`` with its template's features, as ``evaluate`` runs it."""
    return track(mp, pipeline.embed(mp, synthdata.crop_template(seq, cfg.template_size)), seq, cfg)


class TestTrack:
    def test_first_frame_is_ground_truth(self, trained_baseline):
        cfg, result = trained_baseline
        seq = synthdata.gen_sequence(synthdata.SequenceSpec(seed=30, frames=3))
        preds = track_seq(result.params, seq, cfg)
        assert preds[0] == seq.gt[0]

    def test_static_easy_sequence_stays_on_target(self, trained_baseline):
        cfg, result = trained_baseline
        seq = synthdata.gen_sequence(synthdata.SequenceSpec(
            seed=31, frames=6, motion_sigma=0.0, distractors=0, clutter=0))
        preds = track_seq(result.params, seq, cfg)
        for p, g in zip(preds, seq.gt):
            assert iou(p, g) >= 0.5

    def test_track_equals_raster_track_step_loop(self, trained_baseline):
        # track runs on the template's embed features; the boxes must be the
        # bits of a frame-by-frame track_step loop that passes the raster
        cfg, result = trained_baseline
        for seq in pipeline.eval_pool(cfg)[:2]:
            template = synthdata.crop_template(seq, cfg.template_size)
            boxes = [seq.gt[0]]
            for t in range(1, len(seq)):
                boxes.append(track_step(result.params, template, seq.frames[t], boxes[-1], cfg)[1])
            assert track_seq(result.params, seq, cfg) == boxes

    def test_forward_on_template_features_equals_raster(self, trained_baseline):
        cfg, result = trained_baseline
        t, s, _, _ = synthdata.crop_pair(pipeline.eval_pool(cfg)[0], 2,
                                         cfg.template_size, cfg.search_size)
        fz = pipeline.embed(result.params, t)
        for got, want in zip(forward(result.params, fz, s), forward(result.params, t, s)):
            assert got.data.tobytes() == want.data.tobytes()

    def test_predictions_clamped_to_frame(self, trained_baseline):
        cfg, result = trained_baseline
        spec = synthdata.SequenceSpec(seed=33, frames=6, motion_sigma=10.0)
        seq = synthdata.gen_sequence(spec)
        for b in track_seq(result.params, seq, cfg):
            assert 0 <= b.x1 and b.x2 <= spec.image_size
            assert 0 <= b.y1 and b.y2 <= spec.image_size

    def test_centered_search_argmax_on_target(self, trained_baseline):
        cfg, result = trained_baseline
        grid = head_grid(cfg)
        px, py = grid.pixel_xy()
        seqs = pipeline.eval_pool(cfg)
        hits = 0
        for seq in seqs:
            template = synthdata.crop_template(seq, cfg.template_size)
            tf, _, _, cell = pipeline.read_out(result.params, template, seq.frames[0],
                                               seq.gt[0], seq.gt[0].center, cfg)
            r, c = divmod(cell, grid.size)
            hits += tf.to_crop(seq.gt[0]).contains(px[r, c], py[r, c])
        assert hits >= len(seqs) - 1
