"""Toy Siamese matcher: shared conv backbone, correlation, twin heads,
a deterministic SGD training loop, and frame-by-frame tracking.

The backbone is three stride-2 valid convolutions with 2x2 kernels
(channels in -> 16 -> 32 -> 32), so every feature cell covers a
disjoint 8x8 pixel block and the effective stride is exactly 8. Heads
are 1x1 conv stacks, so the prediction grid is the correlation output
grid: with the 64/128 preset that is 9x9 in depth-wise mode and 16x16
in pixel-wise mode.

Everything is float64 and all randomness flows from the config seed, so
a run is reproducible bit for bit.
"""

from __future__ import annotations

import contextlib
import io
import math
import multiprocessing
import os
import signal
import struct
import time
from dataclasses import dataclass, field, fields

import numpy as np

from . import configio, correlation, losses, synthdata
from . import numerics as nm
from .configio import ConfigError
from .geometry import Box, HeadGrid, LabelMap, assign_labels, decode_boxes, iou_tensor
from .numerics import Tensor
from .rng import SplitMix64

BACKBONE_CHANNELS = (16, 32, 32)
BACKBONE_KERNEL = 2
HEAD_HIDDEN = 16
TOTAL_STRIDE = 8

_DOM_INIT = 1
_DOM_DATA = 2
_DOM_SAMPLER = 3
_DOM_EVAL_DATA = 4
_DOM_JITTER = 5


class DivergenceError(RuntimeError):
    """Training produced a non-finite loss or parameter."""

    def __init__(self, message: str, snapshot: dict):
        super().__init__(message)
        self.snapshot = snapshot


@dataclass
class TrainConfig:
    seed: int = 7
    template_size: int = 127
    search_size: int = 255
    corr_mode: str = "dw"            # dw | pw
    in_channels: int = 3

    # loss switches (one ablation arm each)
    rank_cls: bool = False
    rank_iou: bool = False
    rank_iou_ori: bool = False
    two_stage_ce: bool = False

    # loss hyperparameters
    alpha: float = 0.5
    beta: float = 4.0
    gamma: float = 3.0
    tau_neg: float = 0.5
    ori_alpha: float = 4.0
    w_rpn: float = 1.0
    w_rank_cls: float = 0.5
    w_rank_iou: float = 0.25

    # optimizer
    lr: float = 0.005
    momentum: float = 0.9
    batch_size: int = 4
    iterations: int = 1000
    shift_aug: float = 16.0          # max search-center jitter during training, px

    # training data
    train_sequences: int = 12
    frames_per_sequence: int = 10
    image_size: int = 160
    target_size: float = 26.0
    distractors: int = 2
    similarity: float = 0.85
    clutter: int = 3
    motion_sigma: float = 3.0

    # held-out evaluation data
    eval_sequences: int = 20
    eval_frames: int = 10
    eval_seed: int = 900
    eval_jitter: float = 12.0

    def validate(self) -> None:
        configio.check_finite(self)
        if self.corr_mode not in ("dw", "pw"):
            raise ConfigError("corr_mode must be 'dw' or 'pw'")
        if self.rank_iou and self.rank_iou_ori:
            raise ConfigError("rank_iou and rank_iou_ori are mutually exclusive")
        if self.in_channels != 3:
            raise ConfigError("field 'in_channels' must be 3: sequences are RGB frames")
        positive = ["template_size", "search_size", "beta", "gamma",
                    "ori_alpha", "lr", "batch_size", "iterations", "train_sequences",
                    "frames_per_sequence", "image_size", "eval_sequences", "eval_frames"]
        for name in positive:
            if getattr(self, name) <= 0:
                raise ConfigError(f"field {name!r} must be positive")
        nonneg = ["alpha", "tau_neg", "momentum", "w_rpn", "w_rank_cls", "w_rank_iou",
                  "shift_aug", "eval_jitter"]
        for name in nonneg:
            if getattr(self, name) < 0:
                raise ConfigError(f"field {name!r} must be non-negative")
        if self.tau_neg >= 1:
            raise ConfigError("field 'tau_neg' must be less than 1, or no negative is hard")
        if self.momentum >= 1:
            raise ConfigError("field 'momentum' must be less than 1, or steps never fade")
        if self.template_size >= self.search_size:
            raise ConfigError("template_size must be smaller than search_size")
        if feature_extent(self.template_size) < 1:
            raise ConfigError("template_size too small for the backbone")
        # the scene fields are checked where the pools use them
        _sequence_spec(self, 0, 0, 1).validate()

    def to_kv(self) -> dict[str, str]:
        return configio.to_kv(self)


# the config fields that every pool's sequences share, by their SequenceSpec names
SCENE_FIELDS = ("image_size", "target_size", "distractors", "similarity", "clutter",
                "motion_sigma")
# every config field that ``eval_pool`` reads
EVAL_POOL_FIELDS = ("eval_seed", "eval_sequences", "eval_frames") + SCENE_FIELDS


def _sequence_spec(cfg: TrainConfig, seed: int, i: int, frames: int) -> synthdata.SequenceSpec:
    """The i-th sequence of a pool: the config's scene, shape families in turn."""
    return synthdata.SequenceSpec(
        seed=seed, frames=frames, shape=synthdata.SHAPE_FAMILIES[i % len(synthdata.SHAPE_FAMILIES)],
        **{name: getattr(cfg, name) for name in SCENE_FIELDS})


def feature_extent(n: int) -> int:
    """Spatial extent after the backbone's three 2x2 convs, each tiling its input."""
    for _ in BACKBONE_CHANNELS:
        n //= BACKBONE_KERNEL
    return n


def head_grid(cfg: TrainConfig) -> HeadGrid:
    fz = feature_extent(cfg.template_size)
    fx = feature_extent(cfg.search_size)
    g = fx - fz + 1 if cfg.corr_mode == "dw" else fx
    return HeadGrid.centered(cfg.search_size, g, float(TOTAL_STRIDE))


@dataclass
class ModelParams:
    """Named weight tensors plus the architecture facts needed to run them."""

    corr_mode: str
    in_channels: int
    params: dict[str, Tensor] = field(default_factory=dict)

    def leaves(self) -> list[tuple[str, Tensor]]:
        return list(self.params.items())

    def zero_grad(self) -> None:
        for _, t in self.params.items():
            t.zero_grad()


def _conv_shapes(cfg: TrainConfig) -> list[tuple[str, tuple[int, ...]]]:
    shapes: list[tuple[str, tuple[int, ...]]] = []
    c_in = cfg.in_channels
    for i, c_out in enumerate(BACKBONE_CHANNELS, start=1):
        shapes.append((f"bb{i}_w", (c_out, c_in, BACKBONE_KERNEL, BACKBONE_KERNEL)))
        shapes.append((f"bb{i}_b", (c_out, 1, 1)))
        c_in = c_out
    sim_channels = BACKBONE_CHANNELS[-1] * (2 if cfg.corr_mode == "pw" else 1)
    for head, c_out in (("cls", 2), ("loc", 4)):
        shapes.append((f"{head}1_w", (HEAD_HIDDEN, sim_channels, 1, 1)))
        shapes.append((f"{head}1_b", (HEAD_HIDDEN, 1, 1)))
        shapes.append((f"{head}2_w", (c_out, HEAD_HIDDEN, 1, 1)))
        shapes.append((f"{head}2_b", (c_out, 1, 1)))
    return shapes


def init_params(cfg: TrainConfig, rng: SplitMix64) -> ModelParams:
    """Uniform init in [-1/sqrt(fan_in), +1/sqrt(fan_in)] per layer."""
    mp = ModelParams(corr_mode=cfg.corr_mode, in_channels=cfg.in_channels)
    for name, shape in _conv_shapes(cfg):
        if name.endswith("_w"):  # each bias follows its weight and shares its fan-in
            bound = 1.0 / np.sqrt(int(np.prod(shape[1:])))
        flat = np.fromiter((rng.uniform(-bound, bound) for _ in range(int(np.prod(shape)))),
                           dtype=np.float64, count=int(np.prod(shape)))
        mp.params[name] = Tensor(flat.reshape(shape), requires_grad=True)
    return mp


def embed(mp: ModelParams, raster: np.ndarray) -> Tensor:
    """Backbone features of a raster. A template's are reused across the
    ``forward`` calls that match it against many search crops."""
    # rasters live in [0, 1]; center them so early conv outputs are not
    # swamped by the DC component
    x = Tensor(raster - 0.5)
    for i in range(1, len(BACKBONE_CHANNELS) + 1):
        x = nm.conv2d(x, mp.params[f"bb{i}_w"], bias=mp.params[f"bb{i}_b"], relu=True)
    return x


def _head(mp: ModelParams, name: str, s: Tensor) -> Tensor:
    h = nm.conv2d(s, mp.params[f"{name}1_w"], bias=mp.params[f"{name}1_b"], relu=True)
    return nm.conv2d(h, mp.params[f"{name}2_w"], bias=mp.params[f"{name}2_b"])


def forward(mp: ModelParams, template: np.ndarray | Tensor, search: np.ndarray,
            ) -> tuple[Tensor, Tensor]:
    """Class logits (2, G, G) and positive side offsets (4, G, G) in pixels.

    ``template`` is a raster or its features from ``embed``; the two give
    the same bits. Offsets are stride * exp(raw), so decoded boxes always
    have non-negative extents and a zero raw output means one stride unit;
    consumers read the class logits through ``losses.class_log_probs``.
    """
    fz = template if isinstance(template, Tensor) else embed(mp, template)
    fx = embed(mp, search)
    if mp.corr_mode == "dw":
        sim = correlation.dw_corr(fz, fx)
    else:
        sim = correlation.pw_corr(fz, fx)
    a_cls = _head(mp, "cls", sim)
    a_loc = nm.mul(nm.exp(_head(mp, "loc", sim)), float(TOTAL_STRIDE))
    return a_cls, a_loc


# -- per-image loss -------------------------------------------------------------

def rank_batch(grid: HeadGrid, labels: LabelMap, p_fg: Tensor, offsets: Tensor,
               gt: Box) -> losses.RankBatch:
    """One crop as training and the scoring diagnostics read it: ``p_fg`` of
    ``labels``' positive and negative cells, and v_i, the IoU with ``gt`` of
    each positive cell's box decoded from its (4, G*G) side ``offsets``."""
    pos = labels.pos_flat()
    px, py = grid.cell_xy(pos)
    boxes = decode_boxes(Tensor(px), Tensor(py), [offsets[k, pos] for k in range(4)])
    return losses.RankBatch(pos_scores=p_fg[pos], neg_scores=p_fg[labels.neg_flat()],
                            pos_ious=iou_tensor(*boxes, gt))


def image_loss(cfg: TrainConfig, mp: ModelParams, template: np.ndarray,
               search: np.ndarray, gt: Box, grid: HeadGrid,
               plan: losses.RankPlan | None = None,
               ) -> tuple[losses.LossBreakdown, float | None] | None:
    """Loss terms for one (template, search, gt) triple, plus the
    classification ranking margin P_plus - P_minus (None when that term
    was skipped or disabled).

    Returns None when the ground truth captures no positive grid
    location (the sample cannot supervise regression). Every term reads one
    class log-softmax, ``losses.class_log_probs``, or the crop's ``rank_batch``
    of its exp. The rank terms follow the configured switches; an image with
    no hard negatives contributes rank_cls = 0 and no margin. Hard negatives
    (for CR and ``two_stage_ce``), pairs and frozen IoUs come from ``plan``,
    by default a fresh ``losses.rank_plan`` of this evaluation; the
    breakdown's ``plan`` is the one used.
    """
    labels = assign_labels(grid, gt)
    if labels.n_pos == 0:
        return None
    a_cls, a_loc = forward(mp, template, search)
    logp = losses.class_log_probs(a_cls)
    batch = rank_batch(grid, labels, losses.foreground_probs(logp),
                       nm.reshape(a_loc, (4, -1)), gt)
    loc_term = nm.mean(nm.sub(1.0, batch.pos_ious))
    if plan is None:
        plan = losses.rank_plan(batch, cfg.tau_neg)

    cls_term = (losses.two_stage_ce(logp, labels, plan.hard_idx) if cfg.two_stage_ce
                else losses.cross_entropy(logp, labels))

    rank_cls_term = Tensor(0.0)
    margin: float | None = None
    if cfg.rank_cls and plan.hard_idx.size:
        p_plus, p_minus = losses.expectations(batch.pos_scores,
                                              batch.neg_scores[plan.hard_idx])
        rank_cls_term = losses.rank_cls_loss(p_minus, p_plus, cfg.alpha, cfg.beta)
        margin = p_plus.item() - p_minus.item()

    rank_iou_term = Tensor(0.0)
    if cfg.rank_iou:
        rank_iou_term = losses.rank_iou_loss(batch, cfg.gamma, plan)
    elif cfg.rank_iou_ori:
        rank_iou_term = losses.rank_iou_loss_ori(batch, cfg.ori_alpha)

    total = losses.combine(cls_term, loc_term, rank_cls_term, rank_iou_term,
                           weights=(cfg.w_rpn, cfg.w_rank_cls, cfg.w_rank_iou))
    return losses.LossBreakdown(cls_term, loc_term, rank_cls_term, rank_iou_term, total,
                                plan), margin


# -- training -------------------------------------------------------------------

@dataclass
class LogRow:
    iteration: int
    cls: float
    loc: float
    rank_cls: float
    rank_iou: float
    total: float
    margin: float  # P_plus - P_minus, nan when no image had hard negatives


@dataclass
class TrainResult:
    params: ModelParams
    log: list[LogRow]
    seconds: float


def _pool(cfg: TrainConfig, seed: int, domain: int, count: int,
          frames: int) -> list[synthdata.Sequence]:
    master = SplitMix64(seed)
    return [synthdata.gen_sequence(
        _sequence_spec(cfg, master.spawn(domain, i).next_u64(), i, frames))
        for i in range(count)]


def training_pool(cfg: TrainConfig) -> list[synthdata.Sequence]:
    return _pool(cfg, cfg.seed, _DOM_DATA, cfg.train_sequences, cfg.frames_per_sequence)


def eval_pool(cfg: TrainConfig) -> list[synthdata.Sequence]:
    """Held-out sequences, seeded independently of the training pool; a
    function of ``cfg``'s ``EVAL_POOL_FIELDS`` alone."""
    return _pool(cfg, cfg.eval_seed, _DOM_EVAL_DATA, cfg.eval_sequences, cfg.eval_frames)


def _snapshot(mp: ModelParams, it: int, last: LogRow | None) -> dict:
    norms = {name: float(np.linalg.norm(t.data)) for name, t in mp.leaves()}
    return {"iteration": it, "param_norms": norms,
            "last_row": None if last is None else vars(last)}


def _draw_batch(cfg: TrainConfig, pool: list[synthdata.Sequence], sampler: SplitMix64,
                grid: HeadGrid) -> list[tuple[int, int, synthdata.CropTransform, Box]]:
    """Up to ``batch_size`` training samples (sequence index, frame index,
    search crop transform, ground truth in crop coordinates), drawn in turn
    from ``sampler``.

    A draw picks a sequence and a frame, sizes the search crop from that
    frame's box and jitters its center by up to ``shift_aug``; it is kept
    when its ground truth captures a positive grid cell. That depends on
    the crop's geometry alone, so no pixel is cropped here. Drawing stops after ``10 * batch_size`` draws, so a batch
    can come back short or empty.
    """
    batch: list[tuple[int, int, synthdata.CropTransform, Box]] = []
    for _ in range(10 * cfg.batch_size):
        if len(batch) == cfg.batch_size:
            break
        k = sampler.randint(len(pool))
        seq = pool[k]
        idx = sampler.randint(len(seq))
        cx, cy = seq.gt[idx].center
        if cfg.shift_aug > 0:
            cx += sampler.uniform(-cfg.shift_aug, cfg.shift_aug)
            cy += sampler.uniform(-cfg.shift_aug, cfg.shift_aug)
        tf = synthdata.context_crop(seq.gt[idx], (cx, cy), cfg.search_size / cfg.template_size,
                                    cfg.search_size)
        gt_s = tf.to_crop(seq.gt[idx])
        if assign_labels(grid, gt_s).n_pos > 0:
            batch.append((k, idx, tf, gt_s))
    return batch


def _usable_cpus() -> int:
    """CPUs this process may run on; 1 where it cannot fork workers."""
    if "fork" not in multiprocessing.get_all_start_methods():
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_slots(cfg: TrainConfig, mp: ModelParams, pool: list[synthdata.Sequence],
               templates: list[np.ndarray], grid: HeadGrid, scale: float, slots: list,
               ) -> tuple[list, tuple[int, BaseException] | None]:
    """Train the samples ``slots``, (slot, draw) pairs, in turn on ``mp``:
    the search crop, ``image_loss``, and the backward of ``scale`` times its
    total into a sink, freeing the graph before the next sample.

    Returns (slot, loss terms, margin, [(leaf index, gradient), ...]) for
    each sample done, and (slot, exception) for the first sample that
    raised (None when none did); the samples after it are not run.
    """
    index = {id(t): i for i, (_, t) in enumerate(mp.leaves())}
    done = []
    for slot, (k, idx, tf, gt_s) in slots:
        try:
            search = tf.crop(pool[k].frames[idx])
            breakdown, margin = image_loss(cfg, mp, templates[k], search, gt_s, grid)
            del search
            sink: list = []
            nm.backward(nm.mul(breakdown.total, scale), sink)
        except Exception as e:
            return done, (slot, e)
        done.append((slot, breakdown.floats(), margin, [(index[id(t)], g) for t, g in sink]))
        del breakdown, sink   # free the graph before the next forward
    return done, None


def _worker(conn, parent_ends: list, serve) -> None:
    """A forked worker. It answers each message on ``conn``, a tuple of
    arguments, with ``serve``'s result on them, exits when the pipe reaches
    EOF and leaves SIGINT to the parent."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)   # blocked until now, see fork_workers
    signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGINT})
    for end in parent_ends:   # or a closed parent end would not reach EOF here
        end.close()
    while True:
        try:
            message = conn.recv()
        except EOFError:
            return
        try:
            conn.send(serve(*message))
        except OSError:       # the parent has gone
            return


@dataclass
class _Worker:
    """A worker of ``fork_workers``: its process and this process's end of its pipe."""

    proc: multiprocessing.Process
    conn: object
    job: str

    def send(self, *args) -> None:
        """Ask the worker for its ``serve(*args)``."""
        try:
            self.conn.send(args)
        except OSError:
            raise self._died() from None

    def recv(self):
        """The answer to the oldest message not yet answered."""
        try:
            return self.conn.recv()
        except (EOFError, OSError):
            raise self._died() from None

    def _died(self) -> RuntimeError:
        self.proc.join(timeout=5.0)
        return RuntimeError(f"the {self.job} worker (pid {self.proc.pid}) died in the middle of "
                            f"{self.job}, exit code {self.proc.exitcode}")


@contextlib.contextmanager
def fork_workers(count: int, serve, job: str):
    """Fork ``count`` workers of ``job`` (a noun for error messages), each
    answering messages with ``serve``, and yield them as ``_Worker``s.

    Fork once the state that ``serve`` reads is built: the workers inherit
    it, so only messages and answers cross the pipes. SIGINT is blocked
    across each fork, so an interrupt cannot reach a worker before it
    ignores SIGINT. A worker that dies raises RuntimeError naming its pid.
    Any exception terminates the workers; on every path each pipe is closed
    and each worker joined before the ``with`` block is left.
    """
    workers: list[_Worker] = []
    try:
        ctx = multiprocessing.get_context("fork") if count else None
        ends: list = []
        for _ in range(count):
            here, there = ctx.Pipe()
            ends.append(here)
            proc = ctx.Process(target=_worker, args=(there, ends, serve))
            mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
            try:
                proc.start()
            finally:
                signal.pthread_sigmask(signal.SIG_SETMASK, mask)
            there.close()
            workers.append(_Worker(proc, here, job))
        yield workers
    except BaseException:
        for w in workers:
            w.proc.terminate()
        raise
    finally:
        for w in workers:
            w.conn.close()
            w.proc.join()
            w.proc.close()


def train(cfg: TrainConfig, pool: list[synthdata.Sequence] | None = None) -> TrainResult:
    """Deterministic SGD-with-momentum run over synthetic crops.

    Each iteration draws its batch first (``_draw_batch``), n samples with
    1 <= n <= ``batch_size``. Each sample, in slot order within its
    process, records its loss graph, backpropagates 1/n times its total
    into a sink (``numerics.backward``) and frees the graph before the
    next sample's forward, so one sample's graph is alive at a time in a
    process. Then every sample's leaf contributions are added to the
    leaves' ``grad`` in draw order, so the leaves receive the bits of one
    backward of the batch mean (see ``numerics``), and the logged total is
    the left-to-right sum of the sample totals times 1/n. The momentum
    step follows.

    The samples run on W = min(``batch_size``, usable CPUs) processes: this
    one takes slots 0, W, 2W, ... and W - 1 ``fork_workers``, forked once
    per call after the pool and the templates are built, take the others.
    They inherit the pool and the templates; each iteration sends them the
    parameter arrays and their draws, and they send back their loss terms
    and gradient contributions. With one usable CPU there are no workers.
    The worker count changes no bit of the result. Every worker is joined
    before ``train`` returns or raises; a worker that dies raises
    RuntimeError. Python 3.12 and later warn when a process that runs
    threads forks; importing numpy can leave an idle OpenBLAS thread, but
    OpenBLAS stops it before a fork, so this process forks with one thread.

    Identical config (seed included) reproduces the final parameters bit
    for bit. Raises DivergenceError with a diagnostic snapshot when any
    loss or parameter stops being finite (for the loss, that of the
    lowest failing slot of the batch), or when no draw of an iteration
    yields a trainable sample.
    """
    cfg.validate()
    t0 = time.perf_counter()
    if pool is None:
        pool = training_pool(cfg)
    master = SplitMix64(cfg.seed)
    init_rng = master.spawn(_DOM_INIT)
    sampler = master.spawn(_DOM_SAMPLER)
    mp = init_params(cfg, init_rng)
    leaves = [t for _, t in mp.leaves()]
    grid = head_grid(cfg)

    templates = [synthdata.crop_template(seq, cfg.template_size) for seq in pool]
    velocity = {name: np.zeros_like(t.data) for name, t in mp.leaves()}
    log: list[LogRow] = []
    last_row: LogRow | None = None

    def serve(arrays, scale, slots):   # in a worker: its slots on this iteration's parameters
        for t, data in zip(leaves, arrays):
            t.data = data
        return _run_slots(cfg, mp, pool, templates, grid, scale, slots)

    n_procs = min(cfg.batch_size, _usable_cpus())
    with fork_workers(n_procs - 1, serve, "training") as workers:
        for it in range(cfg.iterations):
            batch = _draw_batch(cfg, pool, sampler, grid)
            if not batch:
                raise DivergenceError(f"no trainable samples at iteration {it}",
                                      _snapshot(mp, it, last_row))
            scale = 1.0 / len(batch)
            arrays = [t.data for t in leaves]
            busy = workers[:len(batch) - 1]
            for j, w in enumerate(busy, start=1):
                w.send(arrays, scale, [(s, batch[s]) for s in range(j, len(batch), n_procs)])
            done, failure = _run_slots(cfg, mp, pool, templates, grid, scale,
                                       [(s, batch[s]) for s in range(0, len(batch), n_procs)])
            failures = [failure] if failure else []
            for w in busy:
                theirs, failure = w.recv()
                done += theirs
                failures += [failure] if failure else []
            if failures:
                _, e = min(failures, key=lambda f: f[0])
                if isinstance(e, nm.NonFiniteError):
                    raise DivergenceError(f"non-finite loss at iteration {it}: {e}",
                                          _snapshot(mp, it, last_row)) from e
                raise e

            done.sort(key=lambda d: d[0])
            for _, _, _, grads in done:
                for i, g in grads:
                    leaves[i].grad = leaves[i].grad + g
            terms = [floats for _, floats, _, _ in done]
            margins = [margin for _, _, margin, _ in done if margin is not None]

            total = terms[0]["total"]
            for f in terms[1:]:
                total += f["total"]
            means = {k: float(np.mean([f[k] for f in terms])) for k in terms[0] if k != "total"}
            row = LogRow(iteration=it, total=total * scale,
                         margin=float(np.mean(margins)) if margins else float("nan"), **means)
            log.append(row)
            last_row = row

            for name, t in mp.leaves():
                velocity[name] = cfg.momentum * velocity[name] + t.grad
                t.data = t.data - cfg.lr * velocity[name]
                if not np.all(np.isfinite(t.data)):
                    raise DivergenceError(f"non-finite parameter {name!r} at iteration {it}",
                                          _snapshot(mp, it, last_row))
            mp.zero_grad()

    return TrainResult(params=mp, log=log, seconds=time.perf_counter() - t0)


def write_run_log(log: list[LogRow], path: str) -> None:
    names = [f.name for f in fields(LogRow)]
    with open(path, "w") as f:
        f.write(",".join(names) + "\n")
        for r in log:
            f.write(",".join(repr(getattr(r, n)) for n in names) + "\n")


# -- checkpoints ----------------------------------------------------------------

_CKPT_MAGIC = b"RTCK"
_CKPT_VERSION = 1


def save_checkpoint(mp: ModelParams, path: str) -> None:
    """Binary layout: magic, version, mode/channels header, then per
    tensor: name, shape header, raw float64 little-endian payload."""
    with open(path, "wb") as f:
        f.write(_CKPT_MAGIC)
        f.write(struct.pack("<I", _CKPT_VERSION))
        header = f"corr_mode={mp.corr_mode};in_channels={mp.in_channels}".encode()
        f.write(struct.pack("<I", len(header)))
        f.write(header)
        f.write(struct.pack("<I", len(mp.params)))
        for name, t in mp.leaves():
            nb = name.encode()
            f.write(struct.pack("<I", len(nb)))
            f.write(nb)
            f.write(struct.pack("<I", t.data.ndim))
            f.write(struct.pack(f"<{t.data.ndim}I", *t.data.shape))
            f.write(np.ascontiguousarray(t.data, dtype="<f8").tobytes())


def load_checkpoint(path: str) -> ModelParams:
    """Read a ``save_checkpoint`` file. A damaged one, truncated, with a
    header it cannot parse, holding a non-finite value, with bytes after its
    last tensor or with a size field that asks for more bytes than the file
    has left, raises ValueError naming ``path``."""
    with open(path, "rb") as disk:
        blob = disk.read()   # whole, so that the bytes left are known for a pipe too
    with io.BytesIO(blob) as f:
        def read(n: int) -> bytes:
            if n > len(blob) - f.tell():
                raise ValueError(f"truncated checkpoint: {path}")
            return f.read(n)

        def u32s(count: int = 1) -> tuple[int, ...]:
            return struct.unpack(f"<{count}I", read(4 * count))

        if f.read(4) != _CKPT_MAGIC:
            raise ValueError(f"not a checkpoint file: {path}")
        (version,) = u32s()
        if version != _CKPT_VERSION:
            raise ValueError(f"unsupported checkpoint version {version}: {path}")
        raw = read(u32s()[0])
        try:   # undecodable bytes, a pair without '=', other keys or a non-integer count
            header = dict(kv.split("=", 1) for kv in raw.decode().split(";"))
            if set(header) != {"corr_mode", "in_channels"}:
                raise ValueError
            mp = ModelParams(corr_mode=header["corr_mode"],
                             in_channels=int(header["in_channels"]))
        except ValueError:
            raise ValueError(f"bad checkpoint header: {path}") from None
        name = None
        for _ in range(u32s()[0]):
            name = read(u32s()[0]).decode()
            shape = u32s(u32s()[0])
            # math.prod: np.prod wraps in int64 on a damaged shape
            data = np.frombuffer(read(8 * math.prod(shape)), dtype="<f8").reshape(shape)
            if not np.isfinite(data).all():
                raise ValueError(f"non-finite value in tensor {name!r} of checkpoint {path}")
            mp.params[name] = Tensor(data, requires_grad=True)
        if f.read(1):
            raise ValueError(f"bytes after the last tensor, {name!r}, of checkpoint {path}")
    return mp


def check_params(mp: ModelParams, cfg: TrainConfig) -> None:
    """Raise ValueError unless ``mp`` is the model ``cfg`` builds: the same
    correlation mode, input channels and tensor names and shapes."""
    if (mp.corr_mode, mp.in_channels) != (cfg.corr_mode, cfg.in_channels):
        raise ValueError(f"checkpoint has corr_mode={mp.corr_mode}, in_channels="
                         f"{mp.in_channels}; the config has corr_mode={cfg.corr_mode}, "
                         f"in_channels={cfg.in_channels}")
    if {n: t.data.shape for n, t in mp.leaves()} != dict(_conv_shapes(cfg)):
        raise ValueError("checkpoint tensors do not match the config's model")


# -- tracking ---------------------------------------------------------------------

def read_out(mp: ModelParams, template: np.ndarray | Tensor, frame: np.ndarray, anchor: Box,
             center: tuple[float, float], cfg: TrainConfig,
             ) -> tuple[synthdata.CropTransform, Tensor, Tensor, int]:
    """The model's reading of one frame in the loss's layout: the crop
    transform of ``anchor``'s search-size context square around ``center``,
    the (G*G,) foreground probabilities and (4, G*G) side offsets on it, and
    the flat index of the most confident cell. The probabilities are the
    loss's, and no cosine window re-scores them: the ranking losses train
    confidence to rank the target first and in IoU order. ``template`` is
    the template raster or its ``embed`` features."""
    tf = synthdata.context_crop(anchor, center, cfg.search_size / cfg.template_size,
                                cfg.search_size)
    a_cls, a_loc = forward(mp, template, tf.crop(frame))
    p_fg = losses.foreground_probs(losses.class_log_probs(a_cls))
    return tf, p_fg, nm.reshape(a_loc, (4, -1)), int(np.argmax(p_fg.data))


def track_step(mp: ModelParams, template: np.ndarray | Tensor, frame: np.ndarray,
               prev: Box, cfg: TrainConfig) -> tuple[tuple[int, int], Box]:
    """``read_out`` of ``frame`` around ``prev``; returns its (row, col) cell
    and that cell's decoded box in image coordinates, clamped to the frame.
    A degenerate box is replaced by ``prev``."""
    tf, _, offsets, cell = read_out(mp, template, frame, prev, prev.center, cfg)
    grid = head_grid(cfg)
    box_search = Box(*decode_boxes(*grid.cell_xy(cell), offsets.data[:, cell]))
    h_img, w_img = frame.shape[1:]
    box = tf.to_image(box_search).clipped(float(w_img), float(h_img))
    if box.area <= 0.0:  # degenerate prediction: hold the previous box
        box = prev
    return divmod(cell, grid.size), box


def track(mp: ModelParams, template: Tensor, seq: synthdata.Sequence, cfg: TrainConfig,
          ) -> list[Box]:
    """Frame-by-frame ``track_step`` from the first-frame ground truth, on
    ``template``, the ``embed`` features of ``seq``'s template crop."""
    preds = [seq.gt[0]]
    for t in range(1, len(seq)):
        _, box = track_step(mp, template, seq.frames[t], preds[-1], cfg)
        preds.append(box)
    return preds
