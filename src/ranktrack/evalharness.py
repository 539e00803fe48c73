"""Tracking metrics and ranking diagnostics.

Tracking quality uses overlap success AUC and center-distance precision.
Ranking quality is probed on ground-truth-anchored crops (with a seeded
jitter so the target is not parked at the crop center):

* rank consistency - fraction of frames whose globally best-scoring
  grid location falls on the target;
* distractor margin - best target-location score minus best
  distractor-location score, on post-softmax probabilities;
* Kendall tau between positive-location confidences and the IoUs of
  their decoded boxes, the quantity the IoU-guided ranking loss aligns.

Success thresholds are inclusive (iou >= t), so a perfect tracker
scores exactly 1.0.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import numerics as nm
from . import pipeline, synthdata
from .geometry import Box, assign_labels, center_distance, decode_boxes, iou
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


def dp_at(pred: list[Box], gt: list[Box], radius: float = 20.0) -> float:
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
    da = np.sign(a[:, None] - a[None, :])
    db = np.sign(b[:, None] - b[None, :])
    upper = np.triu_indices(n, k=1)
    prod = da[upper] * db[upper]
    concordant = int(np.sum(prod > 0))
    discordant = int(np.sum(prod < 0))
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
    predictions: list[list[Box]] = field(default_factory=list)  # tracked boxes per sequence

    def aggregate(self) -> dict[str, float]:
        out = {}
        for key in _AGG_COLUMNS:
            vals = np.array([getattr(s, key) for s in self.per_sequence])
            # all-NaN (or empty) is NaN, without nanmean's "Mean of empty slice"
            out[key] = float("nan") if np.isnan(vals).all() else float(np.nanmean(vals))
        return out


def _scoring_pass(mp: pipeline.ModelParams, seq: synthdata.Sequence,
                  cfg: pipeline.TrainConfig, jitter_rng: SplitMix64,
                  ) -> tuple[float, float, float]:
    """Ground-truth-anchored scoring diagnostics for one sequence."""
    grid = pipeline.head_grid(cfg)
    px, py = grid.pixel_xy()
    template = pipeline.embed_template(mp, synthdata.crop_template(seq, cfg.template_size))
    consistent, margins, taus = [], [], []

    for t in range(len(seq)):
        cx, cy = seq.gt[t].center
        if cfg.eval_jitter > 0:
            cx += jitter_rng.uniform(-cfg.eval_jitter, cfg.eval_jitter)
            cy += jitter_rng.uniform(-cfg.eval_jitter, cfg.eval_jitter)
        search, gt_s, tf = synthdata.crop_search(
            seq, t, cfg.template_size, cfg.search_size, search_center=(cx, cy))
        a_cls, a_loc = pipeline.forward(mp, template, search)
        probs = nm.softmax(a_cls).data[1]

        r, c = np.unravel_index(int(np.argmax(probs)), probs.shape)
        consistent.append(gt_s.contains(px[r, c], py[r, c]))

        in_gt = gt_s.contains(px, py)
        in_dist = np.zeros_like(in_gt)
        for db in seq.distractor_boxes[t]:
            in_dist |= tf.to_crop(db).contains(px, py)
        in_dist &= ~in_gt
        if in_gt.any() and in_dist.any():
            margins.append(float(probs[in_gt].max() - probs[in_dist].max()))

        labels = assign_labels(grid, gt_s)
        pos = labels.pos_flat()
        if pos.size >= 2:
            p_vec = probs.reshape(-1)[pos]
            corners = decode_boxes(px.reshape(-1)[pos], py.reshape(-1)[pos],
                                   a_loc.data.reshape(4, -1)[:, pos])
            ious = [iou(Box(*b), gt_s) for b in zip(*corners)]
            if len(set(p_vec.tolist())) > 1 and len(set(ious)) > 1:
                taus.append(kendall_tau(p_vec, np.array(ious)))

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
    """
    jitter_master = SplitMix64(cfg.eval_seed).spawn(pipeline._DOM_JITTER)
    per_seq, predictions = [], []
    for i, seq in enumerate(seqs):
        preds = pipeline.track(mp, seq, cfg)
        predictions.append(preds)
        cons, margin, tau = _scoring_pass(mp, seq, cfg, jitter_master.spawn(i))
        per_seq.append(SequenceMetrics(
            name=names[i] if names else f"seq{i:03d}",
            success_auc=success_auc(preds, seq.gt),
            dp20=dp_at(preds, seq.gt, 20.0),
            rank_consistency=cons,
            distractor_margin=margin,
            kendall_tau=tau,
        ))
    return MetricReport(per_sequence=per_seq, predictions=predictions)


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


ARM_ORDER = ("baseline", "cr", "cr_igr_ori", "cr_igr")


def ablation_table(arm_reports: dict[str, MetricReport],
                   arm_configs: dict[str, "pipeline.TrainConfig"]) -> str:
    """Four-arm comparison table; one row per arm, aggregate columns.

    Rank-loss columns are reported for every arm; flags mark which
    losses were active so inactive columns read as context, not claims.
    """
    missing = [a for a in ARM_ORDER if a not in arm_reports]
    if missing:
        raise ValueError(f"missing ablation arm(s): {', '.join(missing)}")
    header = ("arm,rank_cls_active,rank_iou_active,rank_iou_ori_active,seed,"
              + ",".join(_AGG_COLUMNS))
    lines = [header]
    for arm in ARM_ORDER:
        cfg = arm_configs[arm]
        agg = arm_reports[arm].aggregate()
        rc, ri, ro = cfg.rank_cls, cfg.rank_iou, cfg.rank_iou_ori
        lines.append(f"{arm},{rc},{ri},{ro},{cfg.seed},"
                     + ",".join(repr(agg[k]) for k in _AGG_COLUMNS))
    return "\n".join(lines) + "\n"
