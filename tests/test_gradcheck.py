"""The gradient-check suite, pinned to the bit.

``ranktrack gradcheck`` prints the largest relative error of every check.
Their ``repr`` at the CLI's seed depends on every op, every oracle and the
training loss the end-to-end check differentiates, so a refactor of any of
them that is meant to change no bit must leave these strings as they are.
``end_to_end_total`` moved on purpose, in its last bits, when the training
loss read its foreground probabilities as exp of its class log-softmax.
"""

from ranktrack import numerics as nm
from ranktrack import pipeline, synthdata
from ranktrack.gradcheck import run_suite
from ranktrack.rng import SplitMix64

from conftest import quick_config

SUITE_GOLDENS = {
    "softmax": "1.1393932959673087e-07",
    "conv2d": "3.728629331135403e-09",
    "dw_corr": "3.101773514664717e-07",
    "pw_corr": "1.19793818642283e-09",
    "cross_entropy": "1.704101900056832e-09",
    "iou_loss": "5.185762921121556e-10",
    "expectations": "2.6591295721041133e-11",
    "rank_cls_loss": "1.6418300184291987e-11",
    "rank_iou_loss(frozen)": "2.8190017058204465e-09",
    "rank_iou_loss_ori": "2.8740715214471346e-09",
    "combine": "6.988898348447898e-11",
    "end_to_end_total": "1.1082832332678597e-07",
}


def test_suite_errors_are_bit_identical():
    got = {name: repr(err) for name, err, _ in run_suite(SplitMix64(20240))}
    assert got == SUITE_GOLDENS


def _sample_with_rank_terms(cfg, grid, mp):
    """The first training crop whose loss has hard negatives and >= 2 positives."""
    for seq in pipeline.training_pool(cfg):
        for t in range(len(seq)):
            sample = synthdata.crop_pair(seq, t, cfg.template_size, cfg.search_size)[:3]
            out = pipeline.image_loss(cfg, mp, *sample, grid)
            if out is not None and out[0].plan.hard_idx.size and out[0].plan.conf_pairs[0].size:
                return sample
    raise AssertionError("no sample with hard negatives and >= 2 positives")


def test_pinned_plan_at_the_base_point_gives_the_fresh_bits():
    """The end-to-end oracle passes the base evaluation's rank plan back into
    ``image_loss``; at the base point that must change no bit of any term or
    of any leaf gradient."""
    cfg = quick_config(rank_cls=True, rank_iou=True)
    grid = pipeline.head_grid(cfg)
    mp = pipeline.init_params(cfg, SplitMix64(3))
    sample = _sample_with_rank_terms(cfg, grid, mp)

    def evaluate(plan):
        mp.zero_grad()
        breakdown, margin = pipeline.image_loss(cfg, mp, *sample, grid, plan=plan)
        nm.backward(breakdown.total)
        terms = [getattr(breakdown, k).data.tobytes()
                 for k in ("cls", "loc", "rank_cls", "rank_iou", "total")]
        grads = {name: t.grad.tobytes() for name, t in mp.leaves()}
        return breakdown, terms, margin, grads

    fresh, *fresh_bits = evaluate(None)
    pinned, *pinned_bits = evaluate(fresh.plan)
    assert fresh.rank_cls.item() > 0.0 and fresh.rank_iou.item() > 0.0
    assert pinned.plan is fresh.plan
    assert pinned_bits == fresh_bits
