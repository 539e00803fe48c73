"""Similarity operators that match template features against search features.

Two interchangeable flavors:

* ``dw_corr`` slides the whole template feature map over the search map,
  one channel at a time (depth-wise cross-correlation). Output keeps the
  channel count and shrinks spatially to the valid sliding range.
* ``pw_corr`` treats every template location as a key: each search
  location attends over all template locations with dot-product weights
  (scaled by 1/sqrt(C), softmax-normalized over the template axis), and
  the aggregated template features are concatenated onto the search
  features. Output doubles the channel count and keeps the search extent.
"""

from __future__ import annotations

import math

import numpy as np

from . import numerics as nm
from .numerics import Tensor


def dw_corr(fz: Tensor, fx: Tensor) -> Tensor:
    """Per-channel valid cross-correlation of search ``fx`` with template ``fz``.

    Shapes: fz (C, Hz, Wz), fx (C, Hx, Wx) -> (C, Hx-Hz+1, Wx-Wz+1).
    Equivalent to one single-kernel valid conv2d per channel, recorded
    as a single vectorized op.
    """
    fz, fx = nm._as_tensor(fz), nm._as_tensor(fx)
    if fz.data.ndim != 3 or fx.data.ndim != 3:
        raise ValueError("dw_corr expects C x H x W tensors")
    c, hz, wz = fz.data.shape
    cx, hx, wx = fx.data.shape
    if c != cx:
        raise ValueError(f"dw_corr channel mismatch: template {c}, search {cx}")
    if hz > hx or wz > wx:
        raise ValueError("dw_corr template larger than search")
    oh, ow = hx - hz + 1, wx - wz + 1

    windows = np.lib.stride_tricks.sliding_window_view(fx.data, (hz, wz), axis=(1, 2))
    out = np.einsum("cuvij,cij->cuv", windows, fz.data, optimize=True)
    z = fz.data
    need_z, need_x = fz.requires_grad, fx.requires_grad

    def bw(g):
        gz = np.einsum("cuvij,cuv->cij", windows, g, optimize=True) if need_z else None
        if not need_x:
            return gz, None
        # scatter channels-last, so each of the hz*wz products and adds runs
        # over contiguous rows of C values; every element still gets its
        # terms in the same order, starting from 0.0
        gt = np.ascontiguousarray(g.transpose(1, 2, 0))
        zt = np.ascontiguousarray(z.transpose(1, 2, 0))
        gxt = np.zeros((hx, wx, c))
        for i in range(hz):
            for j in range(wz):
                gxt[i:i + oh, j:j + ow] += gt * zt[i, j]
        return gz, np.ascontiguousarray(gxt.transpose(2, 0, 1))

    return nm._from_op(out, (fz, fx), bw, "dw_corr")


def _attention_weights(zt: np.ndarray, x: np.ndarray) -> np.ndarray:
    """softmax over template pixels of zt.T @ x / sqrt(C): the normalized
    (HzWz, HxWx) attention matrix of ``pw_corr`` for template features
    ``zt`` (C, HzWz) and search features ``x`` (C, HxWx)."""
    scores = zt.T @ x
    nm._check_finite(scores, "pw_corr matmul")
    scores = scores * (1.0 / math.sqrt(zt.shape[0]))
    nm._check_finite(scores, "pw_corr scale")
    e = np.exp(scores - np.max(scores, axis=0, keepdims=True))
    w = e / np.sum(e, axis=0, keepdims=True)
    nm._check_finite(w, "pw_corr softmax")
    return w


def pw_corr(fz: Tensor, fx: Tensor) -> Tensor:
    """Search-to-template attention followed by channel concatenation.

    For template pixels i and search pixels j, attention weights are
    w[i, j] = softmax_i(fz_i . fx_j / sqrt(C)); the output stacks fx on
    top of the re-aggregated template features, giving 2C channels at
    the search extent. The first C output channels are fx unchanged.

    Recorded as one op that keeps only ``w`` besides its inputs. Forward
    and backward run the numpy steps of the composition
    ``concat([fx, reshape(transpose(z) @ softmax((z @ x) * s))])`` in its
    order and memory layouts, so the bits equal those of the composed
    graph; the two gradient terms that reach ``fz`` and ``fx`` are each
    summed once.
    """
    fz, fx = nm._as_tensor(fz), nm._as_tensor(fx)
    if fz.data.ndim != 3 or fx.data.ndim != 3:
        raise ValueError("pw_corr expects C x H x W tensors")
    c, hz, wz = fz.data.shape
    cx, hx, wx = fx.data.shape
    if c != cx:
        raise ValueError(f"pw_corr channel mismatch: template {c}, search {cx}")
    if c == 0:
        raise ValueError("pw_corr requires at least one channel")

    zt = fz.data.reshape(c, hz * wz)                      # (C, HzWz)
    x = fx.data.reshape(c, hx * wx)                       # (C, HxWx)
    scale = 1.0 / math.sqrt(c)
    w = _attention_weights(zt, x)
    aggregated = zt @ w
    nm._check_finite(aggregated, "pw_corr aggregation")
    out = np.concatenate([fx.data, aggregated.reshape(c, hx, wx)], axis=0)
    need_z, need_x = fz.requires_grad, fx.requires_grad

    def bw(g):
        g_agg = g[c:].reshape(c, hx * wx)
        # gm is the gradient of w, then, in place, that of the scaled
        # scores: w * (gm - dot) * scale, the composition's steps in order
        gm = zt.T @ g_agg
        gzt = g_agg @ w.T if need_z else None
        dot = np.sum(gm * w, axis=0, keepdims=True)
        gm -= dot
        np.multiply(w, gm, out=gm)
        gm *= scale
        gz = gx = None
        if need_z:
            gz = np.transpose(np.transpose(gzt) + gm @ x.T).reshape(c, hz, wz)
        if need_x:
            gx = g[:c] + (zt @ gm).reshape(c, hx, wx)
        return gz, gx

    return nm._from_op(out, (fz, fx), bw, "pw_corr")
