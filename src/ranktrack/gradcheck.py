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
POINTS = 10


def _uniform_array(rng: SplitMix64, shape, lo=-1.0, hi=1.0) -> np.ndarray:
    n = int(np.prod(shape))
    return np.fromiter((rng.uniform(lo, hi) for _ in range(n)),
                       dtype=np.float64, count=n).reshape(shape)


def _separated(rng: SplitMix64, n: int, lo: float, hi: float, gap: float,
               avoid: float | None = None) -> np.ndarray:
    """n values in (lo, hi) with pairwise gaps > ``gap``, away from ``avoid``."""
    while True:
        vals = np.array([rng.uniform(lo, hi) for _ in range(n)])
        s = np.sort(vals)
        if n > 1 and np.min(np.diff(s)) <= gap:
            continue
        if avoid is not None and np.min(np.abs(vals - avoid)) <= gap:
            continue
        return vals


def _weighted_scalar(t: Tensor, weights: np.ndarray) -> Tensor:
    """Fixed random projection to a scalar so full Jacobians get exercised."""
    return nm.sum_(nm.mul(t, Tensor(weights)))


def _max_over_points(fn, rng: SplitMix64, points: int = POINTS) -> float:
    return max(fn(rng.spawn(661, k)) for k in range(points))


# -- individual op checks ------------------------------------------------------

def check_softmax(rng: SplitMix64) -> float:
    def one(r):
        w = _uniform_array(r.spawn(1), (7,))
        x = Tensor(_uniform_array(r.spawn(2), (7,), -2, 2))
        return finite_diff_check(lambda t: _weighted_scalar(nm.softmax(t, axis=0), w), x)
    return _max_over_points(one, rng)


def check_conv2d(rng: SplitMix64) -> float:
    def one(r):
        x = _uniform_array(r.spawn(1), (2, 6, 6))
        k = _uniform_array(r.spawn(2), (3, 2, 3, 3))
        w = _uniform_array(r.spawn(3), (3, 2, 2))
        err_x = finite_diff_check(
            lambda t: _weighted_scalar(nm.conv2d(t, Tensor(k), stride=2), w), Tensor(x))
        err_k = finite_diff_check(
            lambda t: _weighted_scalar(nm.conv2d(Tensor(x), t, stride=2), w), Tensor(k))
        return max(err_x, err_k)
    return _max_over_points(one, rng)


def check_dw_corr(rng: SplitMix64) -> float:
    def one(r):
        fz = _uniform_array(r.spawn(1), (3, 3, 3))
        fx = _uniform_array(r.spawn(2), (3, 6, 6))
        w = _uniform_array(r.spawn(3), (3, 4, 4))
        err_z = finite_diff_check(
            lambda t: _weighted_scalar(correlation.dw_corr(t, Tensor(fx)), w), Tensor(fz))
        err_x = finite_diff_check(
            lambda t: _weighted_scalar(correlation.dw_corr(Tensor(fz), t), w), Tensor(fx))
        return max(err_z, err_x)
    return _max_over_points(one, rng)


def check_pw_corr(rng: SplitMix64) -> float:
    def one(r):
        fz = _uniform_array(r.spawn(1), (3, 2, 2))
        fx = _uniform_array(r.spawn(2), (3, 3, 3))
        w = _uniform_array(r.spawn(3), (6, 3, 3))
        err_z = finite_diff_check(
            lambda t: _weighted_scalar(correlation.pw_corr(t, Tensor(fx)), w), Tensor(fz))
        err_x = finite_diff_check(
            lambda t: _weighted_scalar(correlation.pw_corr(Tensor(fz), t), w), Tensor(fx))
        return max(err_z, err_x)
    return _max_over_points(one, rng)


def _random_labels(rng: SplitMix64, h: int, w: int) -> LabelMap:
    codes = np.array([rng.randint(3) - 1 for _ in range(h * w)], dtype=np.int8)
    if not np.any(codes == 1):
        codes[rng.randint(h * w)] = 1
    if not np.any(codes == 0):
        codes[(np.flatnonzero(codes == 1)[0] + 1) % (h * w)] = 0
    return LabelMap(cls=codes.reshape(h, w))


def check_cross_entropy(rng: SplitMix64) -> float:
    def one(r):
        labels = _random_labels(r.spawn(1), 4, 4)
        x = Tensor(_uniform_array(r.spawn(2), (2, 4, 4), -2, 2))
        return finite_diff_check(lambda t: losses.cross_entropy(t, labels), x)
    return _max_over_points(one, rng)


def check_iou_loss(rng: SplitMix64) -> float:
    gt = Box(20.0, 30.0, 60.0, 75.0)

    def one(r):
        # overlapping but not edge-tied prediction
        base = np.array([20.0 + r.uniform(-8, 8), 30.0 + r.uniform(-8, 8),
                         60.0 + r.uniform(-8, 8), 75.0 + r.uniform(-8, 8)])
        return finite_diff_check(
            lambda t: nm.sub(1.0, iou_tensor(t[0], t[1], t[2], t[3], gt)), Tensor(base))
    return _max_over_points(one, rng)


def check_expectations(rng: SplitMix64) -> float:
    def one(r):
        pos = Tensor(_separated(r.spawn(1), 5, 0.05, 0.95, 1e-3))
        neg = Tensor(_separated(r.spawn(2), 4, 0.55, 0.95, 1e-3))
        err_p = finite_diff_check(
            lambda t: losses.expectations(t, Tensor(neg.data))[0], pos)
        err_n = finite_diff_check(
            lambda t: losses.expectations(Tensor(pos.data), t)[1], neg)
        return max(err_p, err_n)
    return _max_over_points(one, rng)


def check_rank_cls_loss(rng: SplitMix64) -> float:
    def one(r):
        x = Tensor(np.array([r.uniform(0, 1), r.uniform(0, 1)]))
        return finite_diff_check(
            lambda t: losses.rank_cls_loss(t[0], t[1], alpha=0.5, beta=4.0), x)
    return _max_over_points(one, rng)


def _rank_point(r: SplitMix64) -> tuple[int, Tensor]:
    """n positives packed as [p, v], with well-separated values."""
    n = 4 + r.randint(3)
    p0 = _separated(r.spawn(1), n, 0.05, 0.95, 1e-3)
    v0 = _separated(r.spawn(2), n, 0.05, 0.95, 1e-3)
    return n, Tensor(np.concatenate([p0, v0]))


def _pos_batch(x: Tensor, n: int) -> losses.RankBatch:
    return losses.RankBatch(pos_scores=x[:n], neg_scores=Tensor(np.zeros(0)), pos_ious=x[n:])


def check_rank_iou_loss(rng: SplitMix64) -> float:
    def one(r):
        n, x0 = _rank_point(r)
        plan = losses.rank_plan(_pos_batch(x0, n))
        return finite_diff_check(
            lambda x: losses.rank_iou_loss(_pos_batch(x, n), 3.0, plan), x0, step=1e-6)
    return _max_over_points(one, rng)


def check_rank_iou_loss_ori(rng: SplitMix64) -> float:
    def one(r):
        n, x0 = _rank_point(r)
        return finite_diff_check(
            lambda x: losses.rank_iou_loss_ori(_pos_batch(x, n), alpha=4.0), x0, step=1e-6)
    return _max_over_points(one, rng)


def check_combine(rng: SplitMix64) -> float:
    def one(r):
        x = Tensor(np.array([r.uniform(0, 2) for _ in range(4)]))
        return finite_diff_check(
            lambda t: losses.combine(t[0], t[1], t[2], t[3]).total, x)
    return _max_over_points(one, rng)


# -- end-to-end -----------------------------------------------------------------

def end_to_end_error(rng: SplitMix64, n_weights: int = 20, step: float = 1e-5) -> float:
    """Central-difference check of the training loss, ``pipeline.image_loss``
    with every loss switched on, against its recorded gradients, on a
    random weight sample at a random init.

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
    for _ in range(n_weights):
        name = names[pick_rng.randint(len(names))]
        picks.append((name, pick_rng.randint(mp.params[name].data.size)))

    worst = 0.0
    for name, flat in picks:
        t = mp.params[name]
        analytic = float(t.grad.reshape(-1)[flat])
        orig = float(t.data.reshape(-1)[flat])
        t.data.reshape(-1)[flat] = orig + step
        f_plus = loss(base.plan).total.item()
        t.data.reshape(-1)[flat] = orig - step
        f_minus = loss(base.plan).total.item()
        t.data.reshape(-1)[flat] = orig
        numeric = (f_plus - f_minus) / (2 * step)
        err = abs(analytic - numeric) / max(1e-12, abs(analytic) + abs(numeric))
        worst = max(worst, err)
    mp.zero_grad()
    return worst


# -- suite -----------------------------------------------------------------------

def run_suite(rng: SplitMix64):
    """(name, max relative error, tolerance) for the whole op inventory."""
    checks = [
        ("softmax", check_softmax, OP_TOL),
        ("conv2d", check_conv2d, OP_TOL),
        ("dw_corr", check_dw_corr, OP_TOL),
        ("pw_corr", check_pw_corr, OP_TOL),
        ("cross_entropy", check_cross_entropy, OP_TOL),
        ("iou_loss", check_iou_loss, OP_TOL),
        ("expectations", check_expectations, OP_TOL),
        ("rank_cls_loss", check_rank_cls_loss, OP_TOL),
        ("rank_iou_loss(frozen)", check_rank_iou_loss, OP_TOL),
        ("rank_iou_loss_ori", check_rank_iou_loss_ori, OP_TOL),
        ("combine", check_combine, OP_TOL),
    ]
    results = [(name, fn(rng.spawn(100 + k)), tol)
               for k, (name, fn, tol) in enumerate(checks)]
    results.append(("end_to_end_total", end_to_end_error(rng.spawn(31337)), END_TO_END_TOL))
    return results
