"""Ops the model does not use, kept for the tests that hold fused nodes to
their op-by-op compositions bit for bit: ``relu`` for the conv layer
(``conv2d`` with ``relu=True``), and ``matmul``, ``transpose`` and
``concat`` for ``pw_corr``. Each records a node through ``numerics._from_op``
exactly as the library's own ops do."""

from typing import Sequence

import numpy as np

from ranktrack import numerics as nm
from ranktrack.numerics import Tensor


def relu(a) -> Tensor:
    a = nm._as_tensor(a)
    mask = a.data > 0

    def bw(g):
        return (g * mask,)

    return nm._from_op(np.where(mask, a.data, 0.0), (a,), bw, "relu")


def matmul(a, b) -> Tensor:
    a, b = nm._as_tensor(a), nm._as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ValueError("matmul expects 2-D operands")
    if a.data.shape[1] != b.data.shape[0]:
        raise ValueError(f"matmul shape mismatch: {a.data.shape} @ {b.data.shape}")
    x, y = a.data, b.data
    need_a, need_b = a.requires_grad, b.requires_grad

    def bw(g):
        return (g @ y.T if need_a else None,
                x.T @ g if need_b else None)

    return nm._from_op(x @ y, (a, b), bw, "matmul")


def concat(tensors: Sequence) -> Tensor:
    """Join tensors along axis 0, the channel axis."""
    parts = [nm._as_tensor(t) for t in tensors]
    if not parts:
        raise ValueError("concat of no tensors")
    ends = np.cumsum([p.data.shape[0] for p in parts])
    out = np.concatenate([p.data for p in parts])

    def bw(g):
        return tuple(np.split(g, ends[:-1]))

    return nm._from_op(out, parts, bw, "concat")


def transpose(a) -> Tensor:
    """Reverse the axes, as ``a.T``."""
    a = nm._as_tensor(a)

    def bw(g):
        return (g.T,)

    return nm._from_op(a.data.T, (a,), bw, "transpose")
