"""Ranking-based optimization for Siamese matching.

Core pieces: a float64 reverse-mode tensor core (``numerics``), box
geometry and label assignment (``geometry``), depth-wise and pixel-wise
correlation (``correlation``), the ranking losses (``losses``), a toy
train/track pipeline (``pipeline``), deterministic synthetic sequences
(``synthdata``), metrics (``evalharness``), and a CLI (``cli``).
"""

from .geometry import Box, HeadGrid, LabelMap, assign_labels, decode_boxes, iou
from .losses import (
    LossBreakdown,
    RankBatch,
    RankPlan,
    combine,
    cross_entropy,
    expectations,
    hard_negative_set,
    rank_cls_loss,
    rank_iou_loss,
    rank_iou_loss_ori,
    rank_plan,
    two_stage_ce,
)
from .numerics import NonFiniteError, Tensor, backward, finite_diff_check
from .correlation import dw_corr, pw_corr
from .rng import SplitMix64
from .synthdata import Sequence, SequenceSpec, crop_pair, gen_sequence

__version__ = "0.1.0"

__all__ = [
    "Box", "HeadGrid", "LabelMap", "assign_labels", "decode_boxes", "iou",
    "LossBreakdown", "RankBatch", "RankPlan", "combine", "cross_entropy",
    "expectations", "hard_negative_set", "rank_cls_loss", "rank_iou_loss",
    "rank_iou_loss_ori", "rank_plan", "two_stage_ce", "NonFiniteError", "Tensor", "backward",
    "finite_diff_check", "dw_corr", "pw_corr", "SplitMix64", "Sequence",
    "SequenceSpec", "crop_pair", "gen_sequence", "__version__",
]
