"""Training objectives: split-normalized cross-entropy, ranking losses, and
their combination.

The two ranking terms are the interesting part:

* ``rank_cls_loss`` pushes the softmax-weighted expectation of
  hard-negative confidences below the mean positive confidence by a
  margin, instead of comparing every positive/negative pair.
* ``rank_iou_loss`` aligns the ordering of positive confidences with
  the ordering of their predicted-box IoUs, in both directions, with
  the lower-IoU side of each confidence-ordered pair held constant
  during backprop so the regressor is never rewarded for getting worse.

Scores entering these losses are foreground probabilities in [0, 1], exp
of the class log-softmax that the cross-entropy reads (``class_log_probs``);
IoUs are differentiable through the box regression. Pair and threshold
comparisons are strict, so ties contribute nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from . import numerics as nm
from .geometry import LabelMap
from .numerics import Tensor


@dataclass
class RankBatch:
    """Flattened per-image collections consumed by the ranking losses.

    pos_scores and pos_ious are index-aligned over the positive
    locations; neg_scores covers every negative location.
    """

    pos_scores: Tensor
    neg_scores: Tensor
    pos_ious: Tensor

    def __post_init__(self):
        if self.pos_scores.data.ndim != 1 or self.neg_scores.data.ndim != 1 \
                or self.pos_ious.data.ndim != 1:
            raise ValueError("RankBatch fields must be vectors")
        if self.pos_scores.data.shape != self.pos_ious.data.shape:
            raise ValueError("pos_scores and pos_ious must align")
        for name in ("pos_scores", "neg_scores", "pos_ious"):
            v = getattr(self, name).data
            if v.size and (v.min() < 0.0 or v.max() > 1.0):
                raise ValueError(f"{name} must lie in [0, 1]")

    @property
    def n_pos(self) -> int:
        return self.pos_scores.data.size


def class_log_probs(a_cls: Tensor) -> Tensor:
    """The (2, H*W) log-softmax of a (2, H, W) class map: row 0 is log p_bg,
    row 1 log p_fg. The loss, the hard negatives and the tracker all read
    their confidences from this one map."""
    if a_cls.data.ndim != 3 or a_cls.data.shape[0] != 2:
        raise ValueError("expected a (2, H, W) class map")
    return nm.reshape(nm.log_softmax(a_cls), (2, -1))


def cross_entropy(logp: Tensor, labels: LabelMap) -> Tensor:
    """Binary cross-entropy with separate positive/negative normalization,
    on the ``class_log_probs`` map ``logp``.

    The positive term averages -log p_fg over positive locations with
    weight 1/N_pos, the negative term averages -log p_bg with weight
    1/N_neg; ignore locations contribute nothing.
    """
    n_pos, n_neg = labels.n_pos, labels.n_neg
    if n_pos == 0 and n_neg == 0:
        raise ValueError("cross_entropy with no labelled locations")
    loss = Tensor(0.0)
    if n_pos:
        loss = nm.add(loss, nm.mul(nm.sum_(logp[1, labels.pos_flat()]), -1.0 / n_pos))
    if n_neg:
        loss = nm.add(loss, nm.mul(nm.sum_(logp[0, labels.neg_flat()]), -1.0 / n_neg))
    return loss


def foreground_probs(logp: Tensor) -> Tensor:
    """Flattened per-location foreground probability: exp of the
    ``class_log_probs`` map's foreground row."""
    return nm.exp(logp[1])


def hard_negative_set(neg_scores: Tensor, tau_neg: float) -> np.ndarray:
    """Indices of the negative confidences strictly above ``tau_neg``, in order.

    An empty result is valid and triggers the skip rule upstream.
    """
    return np.flatnonzero(neg_scores.data > tau_neg)


def expectations(pos_scores: Tensor, hard_negs: Tensor) -> tuple[Tensor, Tensor]:
    """(P_plus, P_minus): mean positive confidence and softmax-weighted
    expectation of hard-negative confidences.

    The hard-negative weighting emphasizes the most confident
    distractors; the flat positive weighting preserves the positive
    score distribution. Both outputs are differentiable through their
    inputs (including through the softmax weights).
    """
    if pos_scores.data.size == 0:
        raise ValueError("expectations requires at least one positive score")
    if hard_negs.data.size == 0:
        raise ValueError("expectations requires a non-empty hard-negative set")
    p_plus = nm.mean(pos_scores)
    weights = nm.softmax(hard_negs)
    p_minus = nm.sum_(nm.mul(weights, hard_negs))
    return p_plus, p_minus


def rank_cls_loss(p_minus, p_plus, alpha: float, beta: float) -> Tensor:
    """Logistic loss (1/beta) * log(1 + exp(beta * (P_minus - P_plus + alpha))).

    Callers apply the skip rule: when an image has no hard negatives
    this term is 0 and the image is flagged, not trained on.
    """
    if alpha < 0:
        raise ValueError("alpha must be >= 0")
    if beta <= 0:
        raise ValueError("beta must be > 0")
    arg = nm.mul(nm.add(nm.sub(p_minus, p_plus), alpha), beta)
    return nm.mul(nm.softplus(arg), 1.0 / beta)


def _pair_indices(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ordered index pairs (i, j) with values[i] > values[j], row-major order."""
    gt = values[:, None] > values[None, :]
    return np.nonzero(gt)


@dataclass
class RankPlan:
    """The data-dependent selections of one image's rank terms.

    ``hard_idx`` indexes the hard negatives in ``neg_scores``;
    ``iou_pairs`` are the positive pairs (i, j) with v_i > v_j and
    ``conf_pairs`` those with p_i > p_j; ``frozen_v`` holds v_j of each
    confidence-ordered pair, the constant side of the second IGR sum. A
    plan taken at one point and passed back in at another pins these
    choices, so a finite-difference oracle sees the function whose
    gradient the base point records.
    """

    hard_idx: np.ndarray
    iou_pairs: tuple[np.ndarray, np.ndarray]
    conf_pairs: tuple[np.ndarray, np.ndarray]
    frozen_v: np.ndarray


def rank_plan(batch: RankBatch, tau_neg: float) -> RankPlan:
    """``batch``'s own plan; negatives strictly above the config's ``tau_neg`` are hard."""
    v = batch.pos_ious.data
    conf_pairs = _pair_indices(batch.pos_scores.data)
    return RankPlan(hard_idx=hard_negative_set(batch.neg_scores, tau_neg),
                    iou_pairs=_pair_indices(v), conf_pairs=conf_pairs,
                    frozen_v=v[conf_pairs[1]])


def rank_iou_loss(batch: RankBatch, gamma: float, plan: RankPlan) -> Tensor:
    """Pairwise exponential loss aligning confidence order with IoU order.

    Over positive locations:

      sum over pairs with v_i > v_j of exp(-gamma * (p_i - p_j))
    + sum over pairs with p_i > p_j of exp(-gamma * (v_i - v_j))

    all divided by the positive count. In the second sum v_j is frozen
    (treated as a constant during backprop) and only v_i is optimized;
    otherwise the loss could be lowered by degrading the j-th box.
    Strict comparisons: tied pairs contribute to neither sum. The pairs
    and frozen values come from ``plan``, such as ``rank_plan(batch, tau_neg)``.
    """
    if gamma <= 0:
        raise ValueError("gamma must be > 0")
    n = batch.n_pos
    if n <= 1:
        return Tensor(0.0)
    p, v = batch.pos_scores, batch.pos_ious

    i1, j1 = plan.iou_pairs
    s1 = nm.sum_(nm.exp(nm.mul(nm.sub(p[i1], p[j1]), -gamma))) if i1.size else Tensor(0.0)
    i2 = plan.conf_pairs[0]
    s2 = nm.sum_(nm.exp(nm.mul(nm.sub(v[i2], Tensor(plan.frozen_v)), -gamma))) \
        if i2.size else Tensor(0.0)
    return nm.mul(nm.add(s1, s2), 1.0 / n)


def rank_iou_loss_ori(batch: RankBatch, alpha: float) -> Tensor:
    """Coupled pairwise baseline: mean over ordered pairs (i != j) of
    (1/alpha) * log(1 + exp(-alpha * (p_i - p_j) * (v_i - v_j))).

    All four pair variables receive gradient; kept as an ablation arm to
    show why the decoupled, frozen variant above is preferred.
    """
    if alpha <= 0:
        raise ValueError("alpha must be > 0")
    n = batch.n_pos
    if n <= 1:
        return Tensor(0.0)
    p, v = batch.pos_scores, batch.pos_ious
    idx = np.arange(n)
    i, j = np.meshgrid(idx, idx, indexing="ij")
    keep = i != j
    i, j = i[keep], j[keep]
    prod = nm.mul(nm.sub(p[i], p[j]), nm.sub(v[i], v[j]))
    per_pair = nm.mul(nm.softplus(nm.mul(prod, -alpha)), 1.0 / alpha)
    return nm.mean(per_pair)


def two_stage_ce(logp: Tensor, labels: LabelMap, hard_idx: np.ndarray) -> Tensor:
    """Cross-entropy plus a second pass restricted to hard negatives.

    ``hard_idx`` indexes the hard negatives in ``labels.neg_flat()``, as the
    rank plan's ``hard_idx`` does, so the second stage re-penalizes the
    negatives that CR ranks against (mean of -log p_bg over that subset).
    Both stages read the ``class_log_probs`` map ``logp``. With no hard
    negatives this is exactly ``cross_entropy``.
    """
    base = cross_entropy(logp, labels)
    if hard_idx.size == 0:
        return base
    hard = labels.neg_flat()[hard_idx]
    return nm.add(base, nm.mul(nm.sum_(logp[0, hard]), -1.0 / hard.size))


@dataclass
class LossBreakdown:
    """One image's loss terms, their weighted ``total`` (``combine``) and the
    rank plan they were built with."""

    cls: Tensor
    loc: Tensor
    rank_cls: Tensor
    rank_iou: Tensor
    total: Tensor
    plan: RankPlan

    def floats(self) -> dict[str, float]:
        """Each loss term and the total, by field name, as a float."""
        return {f.name: getattr(self, f.name).item() for f in fields(self) if f.name != "plan"}


def combine(cls, loc, rank_cls, rank_iou, *, weights: tuple[float, float, float]) -> Tensor:
    """Weighted total: (cls + loc) * w0 + rank_cls * w1 + rank_iou * w2, with
    ``weights`` the config's (w_rpn, w_rank_cls, w_rank_iou); the default
    config keeps the base objective dominant (1 : 0.5 : 0.25)."""
    parts = [nm._as_tensor(t) for t in (cls, loc, rank_cls, rank_iou)]
    for t in parts:
        if t.data.size != 1:
            raise ValueError("combine expects scalar loss parts")
    cls_t, loc_t, rc_t, ri_t = parts
    w0, w1, w2 = weights
    return nm.add(nm.mul(nm.add(cls_t, loc_t), w0),
                  nm.add(nm.mul(rc_t, w1), nm.mul(ri_t, w2)))
