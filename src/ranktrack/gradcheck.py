"""Finite-difference verification of every differentiable op.

Each check evaluates an op as a scalar function of one packed input
tensor and compares recorded gradients against central differences at
several random points (relative error, see ``finite_diff_check``).

Two conventions keep checks honest where ops branch on data:

* sampled points keep comparison margins (pairwise gaps, distance to
  thresholds) far above the step size so no branch flips inside +-h;
* the IoU-guided ranking loss deliberately freezes the lower-ranked IoU
  of each confidence-ordered pair, so its oracle pins the rank plan
  (``losses.RankPlan``: hard negatives, pair sets and frozen values) at
  the base point and passes it back into every perturbed evaluation of
  the same loss function. Passed back at the base point, the plan gives
  the bits of a fresh evaluation, which the test suite asserts.
"""

from __future__ import annotations

import numpy as np

from . import correlation, losses, pipeline, synthdata
from . import numerics as nm
from .geometry import Box, LabelMap, assign_labels, iou_tensor
from .numerics import Tensor, finite_diff_check
from .rng import SplitMix64

OP_TOL = 1e-4
END_TO_END_TOL = 1e-3
END_TO_END_WEIGHTS = 20   # weights the end-to-end check perturbs
END_TO_END_STEP = 1e-5
POINTS = 10


def _uniform_array(rng: SplitMix64, shape, lo=-1.0, hi=1.0) -> np.ndarray:
    n = int(np.prod(shape))
    return np.fromiter((rng.uniform(lo, hi) for _ in range(n)),
                       dtype=np.float64, count=n).reshape(shape)


def _separated(rng: SplitMix64, n: int, lo: float, hi: float, gap: float) -> np.ndarray:
    """n values in (lo, hi) with pairwise gaps > ``gap``."""
    while True:
        vals = np.array([rng.uniform(lo, hi) for _ in range(n)])
        if n < 2 or np.min(np.diff(np.sort(vals))) > gap:
            return vals


def _weighted_scalar(t: Tensor, weights: np.ndarray) -> Tensor:
    """Fixed random projection to a scalar so full Jacobians get exercised."""
    return nm.sum_(nm.mul(t, Tensor(weights)))


def _two_inputs(op, shape_a, shape_b, shape_out):
    """Per-point check of a two-input op: the larger error of its gradient
    in either input, with the other held fixed, under a random projection."""
    def one(r):
        a = _uniform_array(r.spawn(1), shape_a)
        b = _uniform_array(r.spawn(2), shape_b)
        w = _uniform_array(r.spawn(3), shape_out)
        err_a = finite_diff_check(lambda t: _weighted_scalar(op(t, Tensor(b)), w), Tensor(a))
        err_b = finite_diff_check(lambda t: _weighted_scalar(op(Tensor(a), t), w), Tensor(b))
        return max(err_a, err_b)
    return one


# -- per-point op checks: each maps a point's generator to a relative error -----

def _softmax(r: SplitMix64) -> float:
    w = _uniform_array(r.spawn(1), (7,))
    x = Tensor(_uniform_array(r.spawn(2), (7,), -2, 2))
    return finite_diff_check(lambda t: _weighted_scalar(nm.softmax(t), w), x)


def _random_labels(rng: SplitMix64, h: int, w: int) -> LabelMap:
    codes = np.array([rng.randint(3) - 1 for _ in range(h * w)], dtype=np.int8)
    if not np.any(codes == 1):
        codes[rng.randint(h * w)] = 1
    if not np.any(codes == 0):
        codes[(np.flatnonzero(codes == 1)[0] + 1) % (h * w)] = 0
    return LabelMap(cls=codes.reshape(h, w))


def _cross_entropy(r: SplitMix64) -> float:
    labels = _random_labels(r.spawn(1), 4, 4)
    x = Tensor(_uniform_array(r.spawn(2), (2, 4, 4), -2, 2))
    return finite_diff_check(lambda t: losses.cross_entropy(t, labels), x)


def _iou_loss(r: SplitMix64) -> float:
    gt = Box(20.0, 30.0, 60.0, 75.0)
    # overlapping but not edge-tied prediction
    base = np.array([20.0 + r.uniform(-8, 8), 30.0 + r.uniform(-8, 8),
                     60.0 + r.uniform(-8, 8), 75.0 + r.uniform(-8, 8)])
    return finite_diff_check(
        lambda t: nm.sub(1.0, iou_tensor(t[0], t[1], t[2], t[3], gt)), Tensor(base))


def _expectations(r: SplitMix64) -> float:
    pos = Tensor(_separated(r.spawn(1), 5, 0.05, 0.95, 1e-3))
    neg = Tensor(_separated(r.spawn(2), 4, 0.55, 0.95, 1e-3))
    err_p = finite_diff_check(lambda t: losses.expectations(t, Tensor(neg.data))[0], pos)
    err_n = finite_diff_check(lambda t: losses.expectations(Tensor(pos.data), t)[1], neg)
    return max(err_p, err_n)


def _rank_cls_loss(r: SplitMix64) -> float:
    x = Tensor(np.array([r.uniform(0, 1), r.uniform(0, 1)]))
    return finite_diff_check(lambda t: losses.rank_cls_loss(t[0], t[1], alpha=0.5, beta=4.0), x)


def _rank_point(r: SplitMix64) -> tuple[int, Tensor]:
    """n positives packed as [p, v], with well-separated values."""
    n = 4 + r.randint(3)
    p0 = _separated(r.spawn(1), n, 0.05, 0.95, 1e-3)
    v0 = _separated(r.spawn(2), n, 0.05, 0.95, 1e-3)
    return n, Tensor(np.concatenate([p0, v0]))


def _pos_batch(x: Tensor, n: int) -> losses.RankBatch:
    return losses.RankBatch(pos_scores=x[:n], neg_scores=Tensor(np.zeros(0)), pos_ious=x[n:])


def _rank_iou_loss(r: SplitMix64) -> float:
    n, x0 = _rank_point(r)
    plan = losses.rank_plan(_pos_batch(x0, n))
    return finite_diff_check(
        lambda x: losses.rank_iou_loss(_pos_batch(x, n), 3.0, plan), x0, step=1e-6)


def _rank_iou_loss_ori(r: SplitMix64) -> float:
    n, x0 = _rank_point(r)
    return finite_diff_check(
        lambda x: losses.rank_iou_loss_ori(_pos_batch(x, n), alpha=4.0), x0, step=1e-6)


def _combine(r: SplitMix64) -> float:
    x = Tensor(np.array([r.uniform(0, 2) for _ in range(4)]))
    return finite_diff_check(lambda t: losses.combine(t[0], t[1], t[2], t[3]).total, x)


# -- end-to-end -----------------------------------------------------------------

def end_to_end_error(rng: SplitMix64) -> float:
    """Central-difference check of the training loss, ``pipeline.image_loss``
    with every loss switched on, against its recorded gradients, on a
    random sample of ``END_TO_END_WEIGHTS`` weights at a random init.

    The IoU-ranking term keeps the freeze convention: every perturbed
    evaluation gets the base evaluation's rank plan (otherwise the
    intentionally-dropped gradient term would register as an error).
    """
    cfg = pipeline.TrainConfig(seed=5, template_size=64, search_size=128,
                               rank_cls=True, rank_iou=True, iterations=1,
                               train_sequences=2, frames_per_sequence=3,
                               eval_sequences=1, eval_frames=2)
    cfg.validate()
    seq = pipeline.training_pool(cfg)[0]
    template, search, gt_s, _ = synthdata.crop_pair(seq, 1, cfg.template_size,
                                                    cfg.search_size)
    grid = pipeline.head_grid(cfg)
    mp = pipeline.init_params(cfg, rng.spawn(7))
    if assign_labels(grid, gt_s).n_pos < 2:
        raise RuntimeError("end-to-end check needs >= 2 positive locations")

    def loss(plan=None) -> losses.LossBreakdown:
        return pipeline.image_loss(cfg, mp, template, search, gt_s, grid, plan=plan)[0]

    base = loss()
    nm.backward(base.total)

    names = sorted(mp.params)
    picks = []
    pick_rng = rng.spawn(9)
    for _ in range(END_TO_END_WEIGHTS):
        name = names[pick_rng.randint(len(names))]
        picks.append((name, pick_rng.randint(mp.params[name].data.size)))

    worst = 0.0
    for name, flat in picks:
        t = mp.params[name]
        analytic = float(t.grad.reshape(-1)[flat])
        orig = float(t.data.reshape(-1)[flat])
        t.data.reshape(-1)[flat] = orig + END_TO_END_STEP
        f_plus = loss(base.plan).total.item()
        t.data.reshape(-1)[flat] = orig - END_TO_END_STEP
        f_minus = loss(base.plan).total.item()
        t.data.reshape(-1)[flat] = orig
        numeric = (f_plus - f_minus) / (2 * END_TO_END_STEP)
        err = abs(analytic - numeric) / max(1e-12, abs(analytic) + abs(numeric))
        worst = max(worst, err)
    mp.zero_grad()
    return worst


# -- suite -----------------------------------------------------------------------

CHECKS = [
    ("softmax", _softmax),
    ("conv2d", _two_inputs(nm.conv2d, (2, 6, 6), (3, 2, 2, 2), (3, 3, 3))),
    ("dw_corr", _two_inputs(correlation.dw_corr, (3, 3, 3), (3, 6, 6), (3, 4, 4))),
    ("pw_corr", _two_inputs(correlation.pw_corr, (3, 2, 2), (3, 3, 3), (6, 3, 3))),
    ("cross_entropy", _cross_entropy),
    ("iou_loss", _iou_loss),
    ("expectations", _expectations),
    ("rank_cls_loss", _rank_cls_loss),
    ("rank_iou_loss(frozen)", _rank_iou_loss),
    ("rank_iou_loss_ori", _rank_iou_loss_ori),
    ("combine", _combine),
]


def run_suite(rng: SplitMix64):
    """(name, max relative error, tolerance) for the whole op inventory:
    each op check at ``POINTS`` random points, then the end-to-end check."""
    results = [(name, max(one(rng.spawn(100 + k).spawn(661, p)) for p in range(POINTS)), OP_TOL)
               for k, (name, one) in enumerate(CHECKS)]
    results.append(("end_to_end_total", end_to_end_error(rng.spawn(31337)), END_TO_END_TOL))
    return results
