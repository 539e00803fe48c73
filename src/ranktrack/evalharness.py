"""Tracking metrics and ranking diagnostics.

Tracking quality uses overlap success AUC and center-distance precision.
Ranking quality is probed on crops sized from each frame's ground truth
(with a seeded jitter so the target is not parked at the crop center):

* rank consistency - fraction of frames whose globally best-scoring
  grid location falls on the target;
* distractor margin - best target-location score minus best
  distractor-location score, on the loss's foreground probabilities;
* Kendall tau between positive-location confidences and the IoUs of
  their decoded boxes, the quantity the IoU-guided ranking loss aligns.

A frame is read as the loss reads a crop: a label map marks the target
and one each distractor, and the tau takes the (p_i, v_i) pairs that IGR
ranks, ``pipeline.rank_batch``.

Success thresholds are inclusive (iou >= t), so a perfect tracker
scores exactly 1.0.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import numerics as nm
from . import pipeline, synthdata
from .geometry import NEGATIVE, Box, assign_labels, center_distance, iou
from .rng import SplitMix64

SUCCESS_THRESHOLDS = np.round(np.arange(0, 21) * 0.05, 2)
PRECISION_RADII = tuple(range(0, 51))


def success_curve(pred: list[Box], gt: list[Box]) -> list[tuple[float, float]]:
    if len(pred) != len(gt):
        raise ValueError("pred/gt length mismatch")
    if not pred:
        raise ValueError("empty sequence")
    ious = np.array([iou(p, g) for p, g in zip(pred, gt)])
    return [(float(t), float(np.mean(ious >= t))) for t in SUCCESS_THRESHOLDS]


def success_auc(pred: list[Box], gt: list[Box]) -> float:
    return float(np.mean([rate for _, rate in success_curve(pred, gt)]))


def precision_curve(pred: list[Box], gt: list[Box],
                    radii=PRECISION_RADII) -> list[tuple[float, float]]:
    if len(pred) != len(gt):
        raise ValueError("pred/gt length mismatch")
    dists = np.array([center_distance(p, g) for p, g in zip(pred, gt)])
    return [(float(r), float(np.mean(dists <= r))) for r in radii]


def dp_at(pred: list[Box], gt: list[Box], radius: float) -> float:
    """Fraction of frames with center error within ``radius`` pixels."""
    return precision_curve(pred, gt, (radius,))[0][1]


def kendall_tau(a, b) -> float:
    """(concordant - discordant) / C(n, 2); tied pairs count in neither."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("kendall_tau expects two equal-length vectors")
    n = a.size
    if n < 2:
        raise ValueError("kendall_tau needs at least two items")
    # the sign products are symmetric and 0 on the diagonal: each pair twice
    prod = np.sign(a[:, None] - a[None, :]) * np.sign(b[:, None] - b[None, :])
    concordant = int(np.sum(prod > 0)) // 2
    discordant = int(np.sum(prod < 0)) // 2
    return (concordant - discordant) / (n * (n - 1) / 2)


# -- per-sequence evaluation ------------------------------------------------------

@dataclass
class SequenceMetrics:
    name: str
    success_auc: float
    dp20: float
    rank_consistency: float
    distractor_margin: float   # nan when no frame exposed a distractor
    kendall_tau: float         # nan when no frame had >= 2 positives


@dataclass
class MetricReport:
    per_sequence: list[SequenceMetrics]
    predictions: list[list[Box]]  # tracked boxes per sequence

    def aggregate(self) -> dict[str, float]:
        out = {}
        for key in _AGG_COLUMNS:
            vals = np.array([getattr(s, key) for s in self.per_sequence])
            # all-NaN (or empty) is NaN, without nanmean's "Mean of empty slice"
            out[key] = float("nan") if np.isnan(vals).all() else float(np.nanmean(vals))
        return out


def _scoring_pass(mp: pipeline.ModelParams, template: nm.Tensor, seq: synthdata.Sequence,
                  cfg: pipeline.TrainConfig, jitter_rng: SplitMix64,
                  ) -> tuple[float, float, float]:
    """Ground-truth-anchored scoring diagnostics for one sequence and its template."""
    grid = pipeline.head_grid(cfg)
    consistent, margins, taus = [], [], []

    for t in range(len(seq)):
        cx, cy = seq.gt[t].center
        if cfg.eval_jitter > 0:
            cx += jitter_rng.uniform(-cfg.eval_jitter, cfg.eval_jitter)
            cy += jitter_rng.uniform(-cfg.eval_jitter, cfg.eval_jitter)
        tf, p_fg, offsets, cell = pipeline.read_out(mp, template, seq.frames[t], seq.gt[t],
                                                    (cx, cy), cfg)
        gt_s = tf.to_crop(seq.gt[t])
        labels = assign_labels(grid, gt_s)
        on_target = labels.cls.reshape(-1) != NEGATIVE
        consistent.append(on_target[cell])

        in_dist = np.zeros_like(on_target)
        for db in seq.distractor_boxes[t]:
            in_dist |= assign_labels(grid, tf.to_crop(db)).cls.reshape(-1) != NEGATIVE
        in_dist &= ~on_target
        if on_target.any() and in_dist.any():
            margins.append(float(p_fg.data[on_target].max() - p_fg.data[in_dist].max()))

        if labels.n_pos >= 2:
            batch = pipeline.rank_batch(grid, labels, p_fg, offsets, gt_s)
            p_vec, ious = batch.pos_scores.data, batch.pos_ious.data
            if len(set(p_vec.tolist())) > 1 and len(set(ious.tolist())) > 1:
                taus.append(kendall_tau(p_vec, ious))

    return (
        float(np.mean(consistent)),
        float(np.mean(margins)) if margins else float("nan"),
        float(np.mean(taus)) if taus else float("nan"),
    )


def evaluate(mp: pipeline.ModelParams, seqs: list[synthdata.Sequence],
             cfg: pipeline.TrainConfig, names: list[str] | None = None,
             ) -> MetricReport:
    """Track plus score every sequence; deterministic given cfg.eval_seed.

    The report keeps the tracked boxes of every sequence in
    ``predictions``, so callers that need curves do not track again.
    Tracking and scoring run on a copy of the parameters that does not
    require gradients, so no op records a graph and every intermediate
    array is freed once the next op has read it; ``mp`` is not touched.

    A sequence is one unit of work: its template is embedded once, then it
    is tracked and scored with the i-th child of the jitter stream, so its
    metrics are a function of the model, the sequence and its index i. It
    runs on process i mod W, W = min(len(seqs), usable CPUs): this one and
    W - 1 ``pipeline.fork_workers``, which inherit the parameter copy and
    the sequences and send back metrics and boxes. The report is assembled
    in sequence order, so W changes no byte of it. When sequences raise,
    the exception of the lowest failing index is raised, as in one process.
    """
    mp = replace(mp, params={name: nm.Tensor(t.data) for name, t in mp.leaves()})
    jitter_master = SplitMix64(cfg.eval_seed).spawn(pipeline._DOM_JITTER)

    def run(indices) -> list[tuple]:
        """(i, (metrics, boxes)) for each sequence i of ``indices`` in turn,
        ending at (i, exception) for the first that raises."""
        done = []
        for i in indices:
            seq = seqs[i]
            try:
                template = pipeline.embed(mp, synthdata.crop_template(seq, cfg.template_size))
                preds = pipeline.track(mp, template, seq, cfg)
                cons, margin, tau = _scoring_pass(mp, template, seq, cfg, jitter_master.spawn(i))
            except Exception as e:
                return done + [(i, e)]
            done.append((i, (SequenceMetrics(
                name=names[i] if names else f"seq{i:03d}",
                success_auc=success_auc(preds, seq.gt),
                dp20=dp_at(preds, seq.gt, 20.0),
                rank_consistency=cons,
                distractor_margin=margin,
                kendall_tau=tau,
            ), preds)))
        return done

    n_procs = max(1, min(len(seqs), pipeline._usable_cpus()))
    with pipeline.fork_workers(n_procs - 1, run, "evaluation") as workers:
        for j, w in enumerate(workers, start=1):
            w.send(range(j, len(seqs), n_procs))
        done = run(range(0, len(seqs), n_procs))
        for w in workers:
            done += w.recv()
    done.sort(key=lambda d: d[0])
    # a process stops at its first failure, so every index below the lowest is done
    for _, outcome in done:
        if isinstance(outcome, Exception):
            raise outcome
    return MetricReport(per_sequence=[m for _, (m, _) in done],
                        predictions=[preds for _, (_, preds) in done])


# -- CSV emission -------------------------------------------------------------------

_AGG_COLUMNS = ("success_auc", "dp20", "rank_consistency", "distractor_margin",
                "kendall_tau")


def report_csv(report: MetricReport) -> str:
    lines = ["sequence," + ",".join(_AGG_COLUMNS)]
    for s in report.per_sequence:
        lines.append(s.name + "," + ",".join(repr(getattr(s, k)) for k in _AGG_COLUMNS))
    agg = report.aggregate()
    lines.append("aggregate," + ",".join(repr(agg[k]) for k in _AGG_COLUMNS))
    return "\n".join(lines) + "\n"


def curve_csv(curve: list[tuple[float, float]], x_name: str, y_name: str) -> str:
    lines = [f"{x_name},{y_name}"]
    lines += [f"{x!r},{y!r}" for x, y in curve]
    return "\n".join(lines) + "\n"


def ablation_table(rows: list[tuple[str, pipeline.TrainConfig, MetricReport]]) -> str:
    """One row per (arm name, config, report) of ``rows``, in order: aggregate columns.

    Rank-loss columns are reported for every arm; flags mark which
    losses were active so inactive columns read as context, not claims.
    """
    header = ("arm,rank_cls_active,rank_iou_active,rank_iou_ori_active,seed,"
              + ",".join(_AGG_COLUMNS))
    lines = [header]
    for arm, cfg, report in rows:
        agg = report.aggregate()
        rc, ri, ro = cfg.rank_cls, cfg.rank_iou, cfg.rank_iou_ori
        lines.append(f"{arm},{rc},{ri},{ro},{cfg.seed},"
                     + ",".join(repr(agg[k]) for k in _AGG_COLUMNS))
    return "\n".join(lines) + "\n"
