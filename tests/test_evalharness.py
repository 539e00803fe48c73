import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ranktrack import evalharness, losses, pipeline, synthdata
from ranktrack import numerics as nm
from ranktrack.evalharness import (
    MetricReport,
    SequenceMetrics,
    ablation_table,
    dp_at,
    kendall_tau,
    precision_curve,
    report_csv,
    success_auc,
    success_curve,
)
from ranktrack.geometry import NEGATIVE, Box
from ranktrack.rng import SplitMix64

from conftest import quick_config


def shifted(b: Box, dx: float, dy: float = 0.0) -> Box:
    return b.translated(dx, dy)


BOX = Box(10, 10, 30, 30)


class TestSuccessAuc:
    def test_perfect_is_one(self):
        preds = [BOX] * 5
        assert success_auc(preds, preds) == 1.0

    def test_disjoint_is_one_twentyfirst(self):
        # frozen: only the t=0 bin succeeds
        preds = [shifted(BOX, 100.0)] * 4
        gts = [BOX] * 4
        assert success_auc(preds, gts) == pytest.approx(0.047619047619047616, abs=1e-15)

    def test_constant_half_iou(self):
        # frozen: 11 of 21 inclusive thresholds pass at IoU 0.5
        pred = Box(0, 0, 10, 20)
        gt = Box(0, 0, 10, 10)  # iou exactly 0.5
        assert success_auc([pred] * 3, [gt] * 3) == pytest.approx(
            0.5238095238095238, abs=1e-15)

    def test_monotone_in_frame_improvement(self):
        gts = [BOX] * 4
        worse = [shifted(BOX, 18.0)] * 4
        better = [shifted(BOX, 18.0)] * 3 + [shifted(BOX, 6.0)]
        assert success_auc(better, gts) >= success_auc(worse, gts)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            success_auc([BOX], [BOX, BOX])

    def test_curve_shape(self):
        curve = success_curve([BOX], [BOX])
        assert len(curve) == 21
        assert curve[0][0] == 0.0 and curve[-1][0] == 1.0


class TestDpAt:
    def test_zero_error(self):
        assert dp_at([BOX] * 3, [BOX] * 3, 20.0) == 1.0

    def test_all_30px_off_at_radius_20(self):
        preds = [shifted(BOX, 30.0)] * 3
        assert dp_at(preds, [BOX] * 3, 20.0) == 0.0

    def test_half_within(self):
        preds = [shifted(BOX, 30.0), shifted(BOX, 5.0)]
        assert dp_at(preds, [BOX, BOX], 20.0) == 0.5

    def test_boundary_inclusive(self):
        assert dp_at([shifted(BOX, 20.0)], [BOX], 20.0) == 1.0

    def test_precision_curve_monotone(self):
        rng = np.random.default_rng(0)
        preds = [shifted(BOX, rng.uniform(0, 40)) for _ in range(10)]
        rates = [r for _, r in precision_curve(preds, [BOX] * 10)]
        assert all(b >= a for a, b in zip(rates, rates[1:]))


class TestKendallTau:
    def test_identical_orderings(self):
        assert kendall_tau([1, 2, 3, 4], [10, 20, 30, 40]) == 1.0

    def test_reversed(self):
        assert kendall_tau([1, 2, 3], [3, 2, 1]) == -1.0

    def test_one_discordant_pair(self):
        # frozen: (2 - 1) / 3
        assert kendall_tau([1, 2, 3], [1, 3, 2]) == pytest.approx(1 / 3, abs=1e-15)

    def test_ties_count_in_neither(self):
        assert kendall_tau([1, 1, 2], [1, 2, 3]) == pytest.approx(2 / 3, abs=1e-15)

    def test_too_short(self):
        with pytest.raises(ValueError):
            kendall_tau([1.0], [2.0])

    @given(st.lists(st.floats(-100, 100), min_size=2, max_size=12, unique=True))
    @settings(max_examples=50, deadline=None)
    def test_self_is_one_and_antisymmetric(self, a):
        assert kendall_tau(a, a) == 1.0
        assert kendall_tau(a, [-x for x in a]) == -1.0

    @given(st.lists(st.floats(-50, 50), min_size=2, max_size=10, unique=True),
           st.lists(st.floats(-50, 50), min_size=2, max_size=10, unique=True))
    @settings(max_examples=50, deadline=None)
    def test_range(self, a, b):
        n = min(len(a), len(b))
        t = kendall_tau(a[:n], b[:n])
        assert -1.0 <= t <= 1.0

    @given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=2, max_size=12))
    @settings(max_examples=100, deadline=None)
    def test_equals_the_pair_loop(self, pairs):
        # small integers, so most lists hold tied values
        a, b = zip(*pairs)
        n = len(pairs)
        s = sum(int(np.sign(a[i] - a[j]) * np.sign(b[i] - b[j]))
                for i in range(n) for j in range(i + 1, n))
        assert kendall_tau(a, b) == s / (n * (n - 1) / 2)


def make_report(**overrides):
    vals = dict(success_auc=0.5, dp20=0.6, rank_consistency=0.7,
                distractor_margin=0.1, kendall_tau=0.3)
    vals.update(overrides)
    return MetricReport(per_sequence=[SequenceMetrics(name="s0", **vals)], predictions=[])


class TestAblationTable:
    def rows(self):
        configs = {
            "baseline": quick_config(),
            "cr": quick_config(rank_cls=True),
            "cr_igr_ori": quick_config(rank_cls=True, rank_iou_ori=True),
            "cr_igr": quick_config(rank_cls=True, rank_iou=True),
        }
        return [(arm, cfg, make_report()) for arm, cfg in configs.items()]

    def test_four_rows_plus_header(self):
        table = ablation_table(self.rows())
        lines = table.strip().splitlines()
        assert len(lines) == 5
        assert lines[0].startswith("arm,")
        assert [ln.split(",")[0] for ln in lines[1:]] == [arm for arm, _, _ in self.rows()]

    def test_regeneration_identical(self):
        assert ablation_table(self.rows()) == ablation_table(self.rows())

    def test_inactive_flags_marked(self):
        table = ablation_table(self.rows())
        baseline_row = table.strip().splitlines()[1].split(",")
        assert baseline_row[1] == "False"  # rank_cls inactive on the baseline


class TestReportCsv:
    def test_aggregate_row_is_nanmean(self):
        report = MetricReport(per_sequence=[
            SequenceMetrics("a", 0.4, 0.6, 0.8, float("nan"), 0.2),
            SequenceMetrics("b", 0.6, 0.8, 1.0, 0.3, 0.4),
        ], predictions=[])
        agg = report.aggregate()
        assert agg["success_auc"] == pytest.approx(0.5)
        assert agg["distractor_margin"] == pytest.approx(0.3)
        text = report_csv(report)
        assert text.splitlines()[-1].startswith("aggregate,")

    def test_all_nan_column_is_nan_without_a_warning(self):
        report = MetricReport(per_sequence=[
            SequenceMetrics("a", 0.4, 0.6, 0.8, float("nan"), 0.2),
            SequenceMetrics("b", 0.6, 0.8, 1.0, float("nan"), 0.4),
        ], predictions=[])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            agg = report.aggregate()
            text = report_csv(report)
        assert np.isnan(agg["distractor_margin"])
        assert agg["kendall_tau"] == pytest.approx(0.3)
        assert text.splitlines()[-1].split(",")[4] == "nan"

    def test_csv_deterministic(self):
        report = make_report()
        assert report_csv(report) == report_csv(report)


class TestEvaluateEndToEnd:
    def test_trained_model_clears_easy_floor(self, trained_baseline):
        cfg, result = trained_baseline
        seqs = pipeline.eval_pool(cfg)
        report = evalharness.evaluate(result.params, seqs, cfg)
        agg = report.aggregate()
        assert agg["success_auc"] >= 0.4
        assert agg["rank_consistency"] >= 0.5
        assert len(report.per_sequence) == cfg.eval_sequences

    def test_evaluation_deterministic(self, trained_baseline):
        cfg, result = trained_baseline
        seqs = pipeline.eval_pool(cfg)
        a = report_csv(evalharness.evaluate(result.params, seqs, cfg))
        b = report_csv(evalharness.evaluate(result.params, seqs, cfg))
        assert a == b


def test_evaluate_records_no_graph_and_leaves_the_parameters_alone(monkeypatch):
    cfg = quick_config(eval_sequences=2, eval_frames=4)
    mp = pipeline.init_params(cfg, SplitMix64(3))
    for _, t in mp.leaves():
        t.grad += 0.5
    before = {name: (t.data.tobytes(), t.grad.tobytes()) for name, t in mp.leaves()}
    recorded = []
    real_from_op = nm._from_op

    def counting_from_op(*args, **kwargs):
        out = real_from_op(*args, **kwargs)
        recorded.append(out.requires_grad)
        return out

    monkeypatch.setattr(nm, "_from_op", counting_from_op)
    evalharness.evaluate(mp, pipeline.eval_pool(cfg), cfg)
    assert recorded and not any(recorded), \
        f"{sum(recorded)} of {len(recorded)} op outputs recorded a node"
    after = {name: (t.data.tobytes(), t.grad.tobytes()) for name, t in mp.leaves()}
    assert after == before and all(t.requires_grad for _, t in mp.leaves())


def test_every_search_crop_keeps_the_template_scale_as_the_target_doubles(tmp_path,
                                                                           monkeypatch):
    # An imported target that grows from 26 to 52 px over 10 frames. The
    # template shows it at 32 px of 64, and so does every scoring crop,
    # training draw and crop_pair search crop of 128, each sized from its own
    # frame's box; sized from frame 0's box, frame 9 would show it at 64 px.
    seq_dir = tmp_path / "seq"
    synthdata.export_sequence(synthdata.gen_sequence(synthdata.SequenceSpec(seed=3, frames=10)),
                              str(seq_dir))
    sides = [26.0 * 2.0 ** (t / 9) for t in range(10)]
    (seq_dir / "annotations.txt").write_text("".join(
        f"{t} {80 - w / 2!r} {70 - w / 2!r} {80 + w / 2!r} {70 + w / 2!r}\n"
        for t, w in enumerate(sides)))
    seq = synthdata.import_sequence(str(seq_dir))
    assert seq.gt[9].width == pytest.approx(52.0, rel=1e-12)
    cfg = quick_config(eval_jitter=12.0, shift_aug=16.0)
    grid = pipeline.head_grid(cfg)
    gt0 = seq.gt[0]
    template = synthdata.context_crop(gt0, gt0.center, 1.0, cfg.template_size).to_crop(gt0)
    assert template.width == pytest.approx(32.0, rel=1e-12)

    scored = []
    read_out = pipeline.read_out

    def spy(*args):
        out = read_out(*args)
        scored.append(out[0].to_crop(seq.gt[len(scored)]))
        return out

    monkeypatch.setattr(pipeline, "read_out", spy)
    mp = pipeline.init_params(cfg, SplitMix64(5))
    template = pipeline.embed(mp, synthdata.crop_template(seq, cfg.template_size))
    evalharness._scoring_pass(mp, template, seq, cfg, SplitMix64(1))
    sampler = SplitMix64(2)
    drawn = [gt_s for _ in range(20)
             for _, _, _, gt_s in pipeline._draw_batch(cfg, [seq], sampler, grid)]
    paired = [synthdata.crop_pair(seq, t, cfg.template_size, cfg.search_size)[2]
              for t in range(len(seq))]
    assert len(scored) == len(seq) and len(drawn) >= 40
    for b in scored + drawn + paired:
        assert (b.width, b.height) == pytest.approx((32.0, 32.0), rel=1e-12)


def test_tau_reads_the_pairs_the_loss_ranks(monkeypatch):
    # Scored without jitter, frame 0 is crop_pair's search crop of frame 0:
    # the Kendall tau's inputs are the bytes of the batch IGR ranks on it.
    cfg = quick_config(eval_jitter=0.0, rank_iou=True)
    mp = pipeline.init_params(cfg, SplitMix64(5))
    seq = synthdata.gen_sequence(synthdata.SequenceSpec(seed=6, frames=1))
    taus, ranked = [], []
    monkeypatch.setattr(evalharness, "kendall_tau", lambda a, b: taus.append((a, b)) or 0.0)
    template = pipeline.embed(mp, synthdata.crop_template(seq, cfg.template_size))
    evalharness._scoring_pass(mp, template, seq, cfg, SplitMix64(1))
    rank_iou_loss = losses.rank_iou_loss

    def spy(batch, *args):
        ranked.append(batch)
        return rank_iou_loss(batch, *args)

    monkeypatch.setattr(losses, "rank_iou_loss", spy)
    raster, search, gt_s, _ = synthdata.crop_pair(seq, 0, cfg.template_size, cfg.search_size)
    pipeline.image_loss(cfg, mp, raster, search, gt_s, pipeline.head_grid(cfg))
    assert len(taus) == len(ranked) == 1 and ranked[0].n_pos >= 2
    (p, v), batch = taus[0], ranked[0]
    assert p.tobytes() == batch.pos_scores.data.tobytes()
    assert v.tobytes() == batch.pos_ious.data.tobytes()


@pytest.mark.parametrize("sizes", [(64, 128, "dw"), (127, 255, "pw")])
def test_the_label_map_marks_the_inside_of_the_target_box(monkeypatch, sizes):
    # rank consistency and the distractor margin read the label map's
    # non-negative cells as the target; they are the cells in its box
    template_size, search_size, corr_mode = sizes
    cfg = quick_config(template_size=template_size, search_size=search_size,
                       corr_mode=corr_mode)
    px, py = pipeline.head_grid(cfg).pixel_xy()
    scored = []
    assign_labels = evalharness.assign_labels

    def spy(grid, gt_s):
        labels = assign_labels(grid, gt_s)
        scored.append(np.array_equal(labels.cls != NEGATIVE, gt_s.contains(px, py)))
        return labels

    monkeypatch.setattr(evalharness, "assign_labels", spy)
    seqs = pipeline.eval_pool(cfg)
    evalharness.evaluate(pipeline.init_params(cfg, SplitMix64(5)), seqs, cfg)
    assert len(scored) == sum(len(seq) for seq in seqs) and all(scored)


def test_evaluate_embeds_each_template_once(monkeypatch):
    cfg = quick_config(eval_sequences=3, eval_frames=4)
    sizes = []
    embed = pipeline.embed

    def spy(mp, raster):
        sizes.append(raster.shape[-1])
        return embed(mp, raster)

    monkeypatch.setattr(pipeline, "embed", spy)
    evalharness.evaluate(pipeline.init_params(cfg, SplitMix64(5)), pipeline.eval_pool(cfg), cfg)
    assert sizes.count(cfg.template_size) == cfg.eval_sequences
    assert sizes.count(cfg.search_size) == 2 * cfg.eval_sequences * cfg.eval_frames \
        - cfg.eval_sequences
