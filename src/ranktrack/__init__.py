"""Ranking-based optimization for Siamese matching.

Core pieces: a float64 reverse-mode tensor core (``numerics``), box
geometry and label assignment (``geometry``), depth-wise and pixel-wise
correlation (``correlation``), the ranking losses (``losses``), a toy
train/track pipeline (``pipeline``), deterministic synthetic sequences
(``synthdata``), metrics (``evalharness``), and a CLI (``cli``).
"""
