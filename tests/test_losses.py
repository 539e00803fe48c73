import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ranktrack import numerics as nm
from ranktrack.geometry import LabelMap
from ranktrack.losses import (
    LossBreakdown,
    RankBatch,
    class_log_probs,
    combine,
    cross_entropy,
    expectations,
    foreground_probs,
    hard_negative_set,
    rank_cls_loss,
    rank_iou_loss,
    rank_iou_loss_ori,
    rank_plan,
    two_stage_ce,
)
from ranktrack.numerics import Tensor, backward
from ranktrack.rng import SplitMix64


def make_batch(p, v, neg=()):
    return RankBatch(pos_scores=Tensor(np.asarray(p, dtype=float)),
                     neg_scores=Tensor(np.asarray(neg, dtype=float)),
                     pos_ious=Tensor(np.asarray(v, dtype=float)))


WEIGHTS = (1.0, 0.5, 0.25)   # the default config's (w_rpn, w_rank_cls, w_rank_iou)


def own_rank_iou(batch, gamma):
    """``rank_iou_loss`` with the batch's own plan (its pairs do not depend
    on ``tau_neg``)."""
    return rank_iou_loss(batch, gamma, rank_plan(batch, 0.5))


def labels_from_codes(codes):
    codes = np.asarray(codes, dtype=np.int8)
    return LabelMap(cls=codes)


def ce(a, labels):
    """``cross_entropy`` of a (2, H, W) class map."""
    return cross_entropy(class_log_probs(a), labels)


def two_stage(a, labels, tau_neg):
    """``two_stage_ce`` of a class map with the hard negatives of the rank
    plan's rule: foreground probability strictly above ``tau_neg``."""
    logp = class_log_probs(a)
    hard = hard_negative_set(foreground_probs(logp)[labels.neg_flat()], tau_neg)
    return two_stage_ce(logp, labels, hard)


def logit_pair(p_fg):
    """(bg, fg) logits whose softmax foreground probability is p_fg."""
    return (0.0, math.log(p_fg / (1.0 - p_fg)))


class TestCrossEntropy:
    def test_saturated_correct_is_tiny(self):
        a = np.zeros((2, 1, 2))
        a[:, 0, 0] = (-20.0, 20.0)   # confident foreground at the positive
        a[:, 0, 1] = (20.0, -20.0)   # confident background at the negative
        labels = labels_from_codes([[1, 0]])
        assert ce(Tensor(a), labels).item() < 1e-6

    def test_uniform_is_ln2_per_side(self):
        a = np.zeros((2, 1, 2))
        labels = labels_from_codes([[1, 0]])
        assert ce(Tensor(a), labels).item() == pytest.approx(
            2 * math.log(2), abs=1e-12)

    def test_split_normalized_example(self):
        # frozen: -ln 0.8 - ln 0.6 with one positive and one negative
        a = np.zeros((2, 1, 2))
        a[:, 0, 0] = logit_pair(0.8)
        a[:, 0, 1] = logit_pair(0.4)
        labels = labels_from_codes([[1, 0]])
        got = ce(Tensor(a), labels).item()
        assert got == pytest.approx(0.2231435513142097 + 0.5108256237659907, abs=1e-12)

    def test_ignore_locations_excluded(self):
        a = np.zeros((2, 1, 3))
        a[:, 0, 0] = logit_pair(0.8)
        a[:, 0, 1] = logit_pair(0.4)
        a[:, 0, 2] = logit_pair(0.99)  # ignored, must not contribute
        with_ignore = ce(Tensor(a), labels_from_codes([[1, 0, -1]])).item()
        without = ce(Tensor(a[:, :, :2]), labels_from_codes([[1, 0]])).item()
        assert with_ignore == pytest.approx(without, abs=1e-15)

    def test_split_normalization_weights(self):
        # two negatives share one 1/N_neg weight
        a = np.zeros((2, 1, 3))
        a[:, 0, 0] = logit_pair(0.8)
        a[:, 0, 1] = logit_pair(0.4)
        a[:, 0, 2] = logit_pair(0.4)
        got = ce(Tensor(a), labels_from_codes([[1, 0, 0]])).item()
        assert got == pytest.approx(-math.log(0.8) - math.log(0.6), abs=1e-12)

    def test_no_labels_rejected(self):
        with pytest.raises(ValueError):
            ce(Tensor(np.zeros((2, 1, 1))), labels_from_codes([[-1]]))

    def test_wrong_channel_count_rejected(self):
        with pytest.raises(ValueError):
            ce(Tensor(np.zeros((3, 1, 1))), labels_from_codes([[1]]))


class TestHardNegativeSet:
    def test_threshold_rule(self):
        out = hard_negative_set(Tensor([0.6, 0.4]), 0.5)
        np.testing.assert_array_equal(out, [0])

    def test_all_below_is_empty(self):
        assert hard_negative_set(Tensor([0.1, 0.2, 0.5]), 0.5).size == 0

    def test_boundary_is_strict(self):
        assert hard_negative_set(Tensor([0.5]), 0.5).size == 0

    def test_order_preserved(self):
        out = hard_negative_set(Tensor([0.9, 0.2, 0.7, 0.6]), 0.5)
        np.testing.assert_array_equal(out, [0, 2, 3])

    @given(st.lists(st.floats(0, 1), max_size=30), st.floats(0.1, 0.9))
    @settings(max_examples=60, deadline=None)
    def test_filter_property(self, scores, tau):
        out = np.array(scores)[hard_negative_set(Tensor(np.array(scores)), tau)]
        assert np.all(out > tau)
        assert out.size == sum(1 for s in scores if s > tau)


class TestExpectations:
    def test_single_hard_negative(self):
        _, p_minus = expectations(Tensor([0.5]), Tensor([0.8]))
        assert p_minus.item() == pytest.approx(0.8, abs=1e-15)

    def test_softmax_weighted_example(self):
        # frozen from softmax([0.6, 0.8]) . [0.6, 0.8]
        _, p_minus = expectations(Tensor([0.5]), Tensor([0.6, 0.8]))
        assert p_minus.item() == pytest.approx(0.7099667994624956, abs=1e-12)

    def test_positive_mean(self):
        p_plus, _ = expectations(Tensor([0.2, 0.4, 0.6]), Tensor([0.9]))
        assert p_plus.item() == pytest.approx(0.4, abs=1e-15)

    def test_empty_positive_rejected(self):
        with pytest.raises(ValueError):
            expectations(Tensor(np.zeros(0)), Tensor([0.9]))

    def test_empty_hard_negatives_rejected(self):
        with pytest.raises(ValueError):
            expectations(Tensor([0.5]), Tensor(np.zeros(0)))

    def test_convex_combination_bounds(self):
        rng = SplitMix64(17)
        for _ in range(50):
            h = np.array([rng.uniform(0, 1) for _ in range(1 + rng.randint(10))])
            _, p_minus = expectations(Tensor([0.5]), Tensor(h))
            assert h.min() - 1e-12 <= p_minus.item() <= h.max() + 1e-12

    def test_oracle_equality(self):
        """Matches an independent re-derivation bit for bit."""
        rng = SplitMix64(23)
        for _ in range(300):
            n_pos = 1 + rng.randint(8)
            n_hard = 1 + rng.randint(8)
            p = np.array([rng.uniform(0, 1) for _ in range(n_pos)])
            h = np.array([rng.uniform(0, 1) for _ in range(n_hard)])
            p_plus, p_minus = expectations(Tensor(p), Tensor(h))
            e = np.exp(h - np.max(h))
            w = e / np.sum(e)
            assert p_minus.item() == np.sum(w * h)
            assert p_plus.item() == np.mean(p)


class TestRankClsLoss:
    def test_frozen_values(self):
        assert rank_cls_loss(Tensor(0.9), Tensor(0.6), 0.5, 4.0).item() == pytest.approx(
            0.8099883332906076, abs=1e-12)
        assert rank_cls_loss(Tensor(0.1), Tensor(0.95), 0.5, 4.0).item() == pytest.approx(
            0.055104352479612734, abs=1e-12)

    def test_zero_argument(self):
        # P- - P+ + alpha == 0  ->  ln(2) / beta
        assert rank_cls_loss(Tensor(0.2), Tensor(0.7), 0.5, 4.0).item() == pytest.approx(
            0.17328679513998632, abs=1e-12)

    def test_matches_direct_evaluation_across_stable_range(self):
        rng = SplitMix64(31)
        beta, alpha = 4.0, 0.5
        for _ in range(400):
            t = rng.uniform(-50.0, 50.0)       # the logistic argument
            p_minus = t / beta - alpha
            direct = math.log(1.0 + math.exp(t)) / beta
            got = rank_cls_loss(Tensor(p_minus), Tensor(0.0), alpha, beta).item()
            assert got == pytest.approx(direct, abs=1e-12)

    def test_monotonicity_via_gradient_signs(self):
        rng = SplitMix64(37)
        for _ in range(40):
            pm = Tensor(rng.uniform(0, 1), requires_grad=True)
            pp = Tensor(rng.uniform(0, 1), requires_grad=True)
            backward(rank_cls_loss(pm, pp, 0.5, 4.0))
            assert pm.grad > 0.0   # strictly increasing in P-
            assert pp.grad < 0.0   # strictly decreasing in P+

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            rank_cls_loss(Tensor(0.5), Tensor(0.5), alpha=-0.1, beta=4.0)
        with pytest.raises(ValueError):
            rank_cls_loss(Tensor(0.5), Tensor(0.5), alpha=0.5, beta=0.0)


def rank_iou_oracle(p, v, gamma, n):
    """Independent ordered-pair enumeration mirroring the documented
    arithmetic realization (term vector in index order, np.exp + np.sum,
    reciprocal scaling)."""
    d1, d2 = [], []
    for i in range(n):
        for j in range(n):
            if v[i] > v[j]:
                d1.append(-gamma * (p[i] - p[j]))
            if p[i] > p[j]:
                d2.append(-gamma * (v[i] - v[j]))
    s1 = np.sum(np.exp(np.array(d1))) if d1 else 0.0
    s2 = np.sum(np.exp(np.array(d2))) if d2 else 0.0
    return (s1 + s2) * (1.0 / n)


class TestRankIoULoss:
    def test_single_positive_is_zero(self):
        assert own_rank_iou(make_batch([0.7], [0.5]), 3.0).item() == 0.0

    def test_frozen_two_element_example(self):
        got = own_rank_iou(make_batch([0.8, 0.6], [0.9, 0.5]), 3.0).item()
        assert got == pytest.approx(0.42500292400311424, abs=1e-12)

    def test_all_tied_is_zero(self):
        assert own_rank_iou(make_batch([0.5, 0.5, 0.5], [0.3, 0.3, 0.3]), 3.0).item() == 0.0

    def test_oracle_equality_exact(self):
        rng = SplitMix64(41)
        for _ in range(300):
            n = 2 + rng.randint(63)
            p = np.array([rng.uniform(0, 1) for _ in range(n)])
            v = np.array([rng.uniform(0, 1) for _ in range(n)])
            got = own_rank_iou(make_batch(p, v), 3.0).item()
            assert got == rank_iou_oracle(p, v, 3.0, n)

    def test_freeze_rule_gradients(self):
        rng = SplitMix64(43)
        for _ in range(100):
            p1 = rng.uniform(0.55, 0.95)
            p2 = rng.uniform(0.05, 0.45)
            v1 = rng.uniform(0.55, 0.95)
            v2 = rng.uniform(0.05, 0.45)
            p = Tensor(np.array([p1, p2]), requires_grad=True)
            v = Tensor(np.array([v1, v2]), requires_grad=True)
            batch = RankBatch(pos_scores=p, neg_scores=Tensor(np.zeros(0)), pos_ious=v)
            backward(own_rank_iou(batch, 3.0))
            # second sum freezes v_2; first sum gives v no gradient at all
            assert v.grad[1] == 0.0
            assert v.grad[0] != 0.0
            # increasing v_1 decreases the loss
            assert v.grad[0] < 0.0

    def test_nonnegative(self):
        rng = SplitMix64(47)
        for _ in range(50):
            n = 2 + rng.randint(10)
            p = [rng.uniform(0, 1) for _ in range(n)]
            v = [rng.uniform(0, 1) for _ in range(n)]
            assert own_rank_iou(make_batch(p, v), 3.0).item() >= 0.0

    def test_gamma_validation(self):
        with pytest.raises(ValueError):
            own_rank_iou(make_batch([0.5, 0.6], [0.2, 0.3]), 0.0)


class TestRankIoULossOri:
    def test_single_positive_is_zero(self):
        assert rank_iou_loss_ori(make_batch([0.7], [0.5]), alpha=4.0).item() == 0.0

    def test_frozen_concordant_pair(self):
        got = rank_iou_loss_ori(make_batch([0.9, 0.1], [0.9, 0.1]), alpha=4.0).item()
        assert got == pytest.approx(0.018615577802107593, abs=1e-12)

    def test_tied_scores_give_ln2_over_alpha(self):
        got = rank_iou_loss_ori(make_batch([0.4, 0.4], [0.2, 0.9]), alpha=4.0).item()
        assert got == pytest.approx(math.log(2) / 4.0, abs=1e-12)

    def test_mean_over_ordered_pairs(self):
        rng = SplitMix64(59)
        for _ in range(50):
            n = 2 + rng.randint(6)
            p = np.array([rng.uniform(0, 1) for _ in range(n)])
            v = np.array([rng.uniform(0, 1) for _ in range(n)])
            got = rank_iou_loss_ori(make_batch(p, v), alpha=4.0).item()
            terms = []
            for i in range(n):
                for j in range(n):
                    if i != j:
                        t = -4.0 * (p[i] - p[j]) * (v[i] - v[j])
                        terms.append((max(t, 0.0) + math.log1p(math.exp(-abs(t)))) / 4.0)
            assert got == pytest.approx(np.mean(terms), abs=1e-12)

    def test_couples_all_four_variables(self):
        p = Tensor(np.array([0.8, 0.3]), requires_grad=True)
        v = Tensor(np.array([0.7, 0.2]), requires_grad=True)
        batch = RankBatch(pos_scores=p, neg_scores=Tensor(np.zeros(0)), pos_ious=v)
        backward(rank_iou_loss_ori(batch, alpha=4.0))
        assert np.all(p.grad != 0.0) and np.all(v.grad != 0.0)


class TestTwoStageCE:
    def build(self, fg_probs, codes):
        a = np.zeros((2, 1, len(fg_probs)))
        for i, p in enumerate(fg_probs):
            a[:, 0, i] = logit_pair(p)
        return Tensor(a), labels_from_codes([codes])

    def test_no_hard_negatives_equals_plain(self):
        a, labels = self.build([0.8, 0.3], [1, 0])
        assert two_stage(a, labels, 0.5).item() == ce(a, labels).item()

    def test_single_hard_negative_adds_frozen_term(self):
        a, labels = self.build([0.9, 0.8], [1, 0])
        plain = ce(a, labels).item()
        got = two_stage(a, labels, 0.5).item()
        assert got == pytest.approx(plain + 1.6094379124341003, abs=1e-12)

    def test_saturated_correct_is_tiny(self):
        a = np.zeros((2, 1, 2))
        a[:, 0, 0] = (-20, 20)
        a[:, 0, 1] = (20, -20)
        labels = labels_from_codes([[1, 0]])
        assert two_stage(a := Tensor(a), labels, 0.5).item() < 1e-6

    def test_one_log_softmax_serves_both_stages(self):
        a, labels = self.build([0.9, 0.8, 0.6, 0.2], [1, 0, 0, 0])
        loss = two_stage(Tensor(a.data, requires_grad=True), labels, 0.5)
        nodes, stack = {}, [loss]
        while stack:
            node = stack.pop()
            nodes[id(node)] = node
            stack.extend(p for p in node._parents if p is not None and id(p) not in nodes)
        ops = [node._op for node in nodes.values()]
        assert ops.count("log_softmax") == 1 and "softmax" not in ops

    def test_second_stage_averages_over_hard_set(self):
        a, labels = self.build([0.9, 0.8, 0.6, 0.2], [1, 0, 0, 0])
        got = two_stage(a, labels, 0.5).item()
        plain = ce(a, labels).item()
        extra = (-math.log(1 - 0.8) - math.log(1 - 0.6)) / 2
        assert got == pytest.approx(plain + extra, abs=1e-12)


class TestCombine:
    def test_weighted_total(self):
        out = combine(0.7, 0.3, 0.2, 0.4, weights=WEIGHTS)
        assert out.item() == pytest.approx(1.2, abs=1e-15)

    def test_rank_terms_zero(self):
        out = combine(0.9, 0.4, 0.0, 0.0, weights=WEIGHTS)
        assert out.item() == pytest.approx(1.3, abs=1e-15)

    def test_all_zero(self):
        assert combine(0.0, 0.0, 0.0, 0.0, weights=WEIGHTS).item() == 0.0

    def test_custom_weights(self):
        out = combine(1.0, 1.0, 1.0, 1.0, weights=(2.0, 3.0, 5.0))
        assert out.item() == pytest.approx(2 * 2 + 3 + 5, abs=1e-15)

    def test_nonfinite_rejected(self):
        with pytest.raises(Exception):
            combine(float("nan"), 0.0, 0.0, 0.0, weights=WEIGHTS)

    def test_gradients_flow_to_parts(self):
        cls = Tensor(0.5, requires_grad=True)
        ri = Tensor(0.2, requires_grad=True)
        out = combine(cls, 0.1, 0.0, ri, weights=WEIGHTS)
        backward(out)
        assert cls.grad == 1.0 and ri.grad == 0.25


class TestRankBatchValidation:
    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            make_batch([0.5, 0.6], [0.5])

    def test_out_of_range_scores(self):
        with pytest.raises(ValueError):
            make_batch([1.5], [0.5])

    def test_iou_above_one_rejected(self):
        assert make_batch([0.5, 0.5], [0.0, 1.0]).n_pos == 2
        for v in (1.0 + 2.0 ** -52, -5e-324):
            with pytest.raises(ValueError):
                make_batch([0.5], [v])


class TestLossesNonNegative:
    def test_all_losses_nonnegative_at_random_points(self):
        rng = SplitMix64(61)
        for _ in range(30):
            n = 2 + rng.randint(6)
            p = [rng.uniform(0, 1) for _ in range(n)]
            v = [rng.uniform(0, 1) for _ in range(n)]
            neg = [rng.uniform(0, 1) for _ in range(5)]
            batch = make_batch(p, v, neg)
            assert own_rank_iou(batch, 3.0).item() >= 0.0
            assert rank_iou_loss_ori(batch, 4.0).item() >= 0.0
            hard = batch.neg_scores[hard_negative_set(batch.neg_scores, 0.5)]
            if hard.data.size:
                p_plus, p_minus = expectations(batch.pos_scores, hard)
                assert rank_cls_loss(p_minus, p_plus, 0.5, 4.0).item() >= 0.0
