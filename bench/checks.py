"""Output checks, made apart from the program or from properties the method
must have. Each check returns a list of failure messages; empty means pass.

The reference forward pass and the IoU used for success AUC are written
here in plain numpy/scipy, independently of ``ranktrack``'s own code.
"""

from __future__ import annotations

import csv
import hashlib
import math

import numpy as np
import scipy.signal
import scipy.special

# SplitMix64(1234567): the first outputs published with the generator's
# reference implementation
SPLITMIX64_1234567 = (6457827717110365317, 3203168211198807973, 9817491932198370423)

SUCCESS_THRESHOLDS = [k / 20 for k in range(21)]


def check_rng(words) -> list[str]:
    words = tuple(int(w) for w in words)
    if words != SPLITMIX64_1234567:
        return [f"SplitMix64(1234567) gave {words}, expected {SPLITMIX64_1234567}"]
    return []


def check_frames(seqs, image_size: int) -> list[str]:
    """Frames are (3, S, S) in [0, 1]; ground-truth boxes lie in the image."""
    errs = []
    for k, seq in enumerate(seqs):
        for t, (frame, gt) in enumerate(zip(seq.frames, seq.gt)):
            if frame.shape != (3, image_size, image_size):
                errs.append(f"seq {k} frame {t}: shape {frame.shape}")
            elif not (np.all(np.isfinite(frame)) and frame.min() >= 0.0 and frame.max() <= 1.0):
                errs.append(f"seq {k} frame {t}: values outside [0, 1]")
            if not (0.0 <= gt.x1 < gt.x2 <= image_size and 0.0 <= gt.y1 < gt.y2 <= image_size):
                errs.append(f"seq {k} frame {t}: ground truth {gt} outside the image")
    return errs


# -- reference forward pass ------------------------------------------------------

def _conv(x: np.ndarray, w: np.ndarray, b: np.ndarray, stride: int) -> np.ndarray:
    """Valid convolution as a sum over kernel taps of strided slices."""
    o, c, kh, kw = w.shape
    _, h, wd = x.shape
    oh, ow = (h - kh) // stride + 1, (wd - kw) // stride + 1
    out = np.zeros((o, oh, ow))
    for u in range(kh):
        for v in range(kw):
            tap = x[:, u:u + stride * (oh - 1) + 1:stride, v:v + stride * (ow - 1) + 1:stride]
            out += np.tensordot(w[:, :, u, v], tap, axes=(1, 0))
    return out + b


def reference_forward(params: dict[str, np.ndarray], corr_mode: str,
                      template: np.ndarray, search: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The tracker's forward pass: a 3-layer 2x2/stride-2 ReLU backbone on
    rasters centred at 0.5, depth-wise or pixel-wise correlation, and two
    1x1 conv heads; offsets are 8 * exp(raw)."""
    def backbone(x):
        x = x - 0.5
        for i in (1, 2, 3):
            x = np.maximum(_conv(x, params[f"bb{i}_w"], params[f"bb{i}_b"], 2), 0.0)
        return x

    fz, fx = backbone(template), backbone(search)
    c = fz.shape[0]
    if corr_mode == "dw":
        sim = np.stack([scipy.signal.correlate2d(fx[k], fz[k], mode="valid") for k in range(c)])
    else:
        z = fz.reshape(c, -1)
        x = fx.reshape(c, -1)
        att = scipy.special.softmax(z.T @ x / math.sqrt(c), axis=0)
        sim = np.concatenate([fx, (z @ att).reshape(fx.shape)], axis=0)

    def head(name):
        h = np.maximum(_conv(sim, params[f"{name}1_w"], params[f"{name}1_b"], 1), 0.0)
        return _conv(h, params[f"{name}2_w"], params[f"{name}2_b"], 1)

    return head("cls"), 8.0 * np.exp(head("loc"))


def check_forward(program_out, reference_out, label: str, rtol: float = 1e-9) -> list[str]:
    errs = []
    for part, got, want in zip(("cls", "loc"), program_out, reference_out):
        if got.shape != want.shape:
            errs.append(f"{label} {part}: shape {got.shape} vs reference {want.shape}")
            continue
        err = float(np.max(np.abs(got - want))) / max(1.0, float(np.max(np.abs(want))))
        if not err <= rtol:
            errs.append(f"{label} {part}: relative error {err:.3e} above {rtol:.0e}")
    return errs


# -- gradients -------------------------------------------------------------------

def check_gradients(loss_value, recorded: dict[str, np.ndarray], params: dict[str, np.ndarray],
                    names, step: float = 1e-6, rtol: float = 1e-5, atol: float = 1e-8,
                    tries: int = 5) -> list[str]:
    """Central differences of ``loss_value(params) -> float`` against the
    ``recorded`` gradient, at the steepest entry of each named tensor.

    An entry where the differences at ``step`` and ``step / 10`` disagree
    has a ReLU kink within a step and is replaced by the next steepest one;
    a dead unit's zero gradient would check nothing.
    """
    def central(arr, idx, h):
        orig = arr[idx]
        arr[idx] = orig + h
        f_plus = loss_value(params)
        arr[idx] = orig - h
        f_minus = loss_value(params)
        arr[idx] = orig
        return (f_plus - f_minus) / (2.0 * h)

    def close(a, b):
        return abs(a - b) <= rtol * (abs(a) + abs(b)) + atol

    errs = []
    for name in names:
        arr, grad = params[name], recorded[name]
        for flat in np.argsort(-np.abs(grad), axis=None, kind="stable")[:tries]:
            idx = tuple(int(i) for i in np.unravel_index(flat, arr.shape))
            coarse, fine = central(arr, idx, step), central(arr, idx, step / 10)
            if not close(coarse, fine):
                continue
            if not close(fine, float(grad[idx])):
                errs.append(f"d loss / d {name}{list(idx)}: recorded {float(grad[idx]):.9g}, "
                            f"finite difference {fine:.9g}")
            break
        else:
            errs.append(f"d loss / d {name}: no smooth entry among the {tries} steepest")
    return errs


def check_loss_decreases(totals) -> list[str]:
    """Mean total loss over the last third of a run is below the first third's."""
    totals = np.asarray(totals, dtype=np.float64)
    third = len(totals) // 3
    first, last = totals[:third].mean(), totals[-third:].mean()
    if not (third >= 1 and last < first):
        return [f"loss did not fall: first third {first:.4f}, last third {last:.4f}"]
    return []


# -- tracking and eval outputs -----------------------------------------------------

def check_tracks(tracks, seqs, image_size: int) -> list[str]:
    """Boxes lie in the frame and frame 0 is the ground truth."""
    errs = []
    for k, (boxes, seq) in enumerate(zip(tracks, seqs)):
        if len(boxes) != len(seq.gt):
            errs.append(f"seq {k}: {len(boxes)} boxes for {len(seq.gt)} frames")
            continue
        if tuple(boxes[0]) != tuple(seq.gt[0].as_array()):
            errs.append(f"seq {k}: frame 0 box {boxes[0]} is not the ground truth")
        for t, (x1, y1, x2, y2) in enumerate(boxes):
            if not (0.0 <= x1 <= x2 <= image_size and 0.0 <= y1 <= y2 <= image_size):
                errs.append(f"seq {k} frame {t}: box {(x1, y1, x2, y2)} outside the frame")
    return errs


def box_iou(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """IoU of aligned (N, 4) x1y1x2y2 arrays; 0 where there is no overlap."""
    iw = np.minimum(a[:, 2], b[:, 2]) - np.maximum(a[:, 0], b[:, 0])
    ih = np.minimum(a[:, 3], b[:, 3]) - np.maximum(a[:, 1], b[:, 1])
    inter = np.where((iw > 0) & (ih > 0), iw * ih, 0.0)
    union = ((a[:, 2] - a[:, 0]) * (a[:, 3] - a[:, 1])
             + (b[:, 2] - b[:, 0]) * (b[:, 3] - b[:, 1]) - inter)
    return np.where(union > 0, inter / np.where(union > 0, union, 1.0), 0.0)


def success_auc(boxes, gts) -> float:
    ious = box_iou(np.asarray(boxes, dtype=np.float64), np.asarray(gts, dtype=np.float64))
    return float(np.mean([np.mean(ious >= t) for t in SUCCESS_THRESHOLDS]))


def read_csv(path: str) -> list[dict[str, str]]:
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def check_eval_auc(tracks, seqs, metrics_rows, atol: float = 1e-9) -> list[str]:
    """Per-sequence success AUC of the benchmark's own tracks matches metrics.csv."""
    rows = [r for r in metrics_rows if r["sequence"] != "aggregate"]
    if len(rows) != len(seqs):
        return [f"metrics.csv has {len(rows)} sequences, expected {len(seqs)}"]
    errs = []
    for k, (boxes, seq, row) in enumerate(zip(tracks, seqs, rows)):
        mine = success_auc(boxes, [g.as_array() for g in seq.gt])
        theirs = float(row["success_auc"])
        if not abs(mine - theirs) <= atol:
            errs.append(f"seq {k}: success AUC {theirs!r} in metrics.csv, {mine!r} recomputed")
    return errs


def check_eval_curves(metrics_rows, success_rows, precision_rows, atol: float = 1e-12) -> list[str]:
    """The aggregate equals the mean of the success curve, and its dp20 the
    precision curve at 20 px; sequences have equal length, so both hold."""
    agg = next((r for r in metrics_rows if r["sequence"] == "aggregate"), None)
    if agg is None:
        return ["metrics.csv has no aggregate row"]
    errs = []
    curve_mean = float(np.mean([float(r["rate"]) for r in success_rows]))
    if not abs(curve_mean - float(agg["success_auc"])) <= atol:
        errs.append(f"aggregate success_auc {agg['success_auc']} != success.csv mean {curve_mean!r}")
    at20 = [float(r["rate"]) for r in precision_rows if float(r["radius"]) == 20.0]
    if len(at20) != 1 or not abs(at20[0] - float(agg["dp20"])) <= atol:
        errs.append(f"aggregate dp20 {agg['dp20']} != precision.csv at 20 px {at20}")
    return errs


def params_digest(params: dict[str, np.ndarray]) -> str:
    h = hashlib.sha256()
    for name in sorted(params):
        h.update(name.encode())
        h.update(np.ascontiguousarray(params[name], dtype="<f8").tobytes())
    return h.hexdigest()


def check_digests(digests) -> list[str]:
    distinct = sorted(set(digests))
    if len(distinct) != 1:
        return [f"one seed gave {len(distinct)} parameter digests: {distinct}"]
    return []
