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

    def bw(g):
        gz = np.einsum("cuvij,cuv->cij", windows, g, optimize=True) if fz.requires_grad else None
        if not fx.requires_grad:
            return gz, None
        gx = np.zeros_like(fx.data)
        for i in range(hz):
            for j in range(wz):
                gx[:, i:i + oh, j:j + ow] += g * fz.data[:, i:i + 1, j:j + 1]
        return gz, gx

    return nm._from_op(out, (fz, fx), bw, "dw_corr")


def pw_corr(fz: Tensor, fx: Tensor) -> Tensor:
    """Search-to-template attention followed by channel concatenation.

    For template pixels i and search pixels j, attention weights are
    w[i, j] = softmax_i(fz_i . fx_j / sqrt(C)); the output stacks fx on
    top of the re-aggregated template features, giving 2C channels at
    the search extent. The first C output channels are fx unchanged.
    """
    if fz.data.ndim != 3 or fx.data.ndim != 3:
        raise ValueError("pw_corr expects C x H x W tensors")
    c, hz, wz = fz.data.shape
    cx, hx, wx = fx.data.shape
    if c != cx:
        raise ValueError(f"pw_corr channel mismatch: template {c}, search {cx}")
    if c == 0:
        raise ValueError("pw_corr requires at least one channel")

    z = nm.transpose(nm.reshape(fz, (c, hz * wz)))        # (HzWz, C)
    x = nm.reshape(fx, (c, hx * wx))                      # (C, HxWx)
    scores = nm.mul(nm.matmul(z, x), 1.0 / math.sqrt(c))  # (HzWz, HxWx)
    w = nm.softmax(scores, axis=0)
    aggregated = nm.reshape(nm.matmul(nm.transpose(z), w), (c, hx, wx))
    return nm.concat([fx, aggregated], axis=0)


def attention_weights(fz: Tensor, fx: Tensor) -> Tensor:
    """The normalized (HzWz, HxWx) attention matrix used by ``pw_corr``."""
    c, hz, wz = fz.data.shape
    _, hx, wx = fx.data.shape
    z = nm.transpose(nm.reshape(fz, (c, hz * wz)))
    x = nm.reshape(fx, (c, hx * wx))
    return nm.softmax(nm.mul(nm.matmul(z, x), 1.0 / math.sqrt(c)), axis=0)
