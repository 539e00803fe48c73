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

import struct
import time
from dataclasses import dataclass, field, fields

import numpy as np

from . import configio, correlation, losses, synthdata
from . import numerics as nm
from .configio import ConfigError
from .geometry import Box, HeadGrid, assign_labels, decode_boxes, iou_tensor
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

    def __init__(self, message: str, snapshot: dict | None = None):
        super().__init__(message)
        self.snapshot = snapshot or {}


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


def _sequence_spec(cfg: TrainConfig, seed: int, i: int, frames: int) -> synthdata.SequenceSpec:
    """The i-th sequence of a pool: the config's scene, shape families in turn."""
    return synthdata.SequenceSpec(
        seed=seed,
        frames=frames,
        image_size=cfg.image_size,
        shape=synthdata.SHAPE_FAMILIES[i % len(synthdata.SHAPE_FAMILIES)],
        target_size=cfg.target_size,
        distractors=cfg.distractors,
        similarity=cfg.similarity,
        clutter=cfg.clutter,
        motion_sigma=cfg.motion_sigma,
    )


def feature_extent(n: int) -> int:
    """Spatial extent after the backbone's three 2x2 convs, each tiling its input."""
    for _ in BACKBONE_CHANNELS:
        n //= BACKBONE_KERNEL
    return n


def head_grid(cfg: TrainConfig) -> HeadGrid:
    fz = feature_extent(cfg.template_size)
    fx = feature_extent(cfg.search_size)
    g = fx - fz + 1 if cfg.corr_mode == "dw" else fx
    return HeadGrid.centered(cfg.search_size, g, g, float(TOTAL_STRIDE))


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
        if name.endswith("_w"):
            fan_in = int(np.prod(shape[1:]))
        else:
            wshape = dict(_conv_shapes(cfg))[name[:-2] + "_w"]
            fan_in = int(np.prod(wshape[1:]))
        bound = 1.0 / np.sqrt(fan_in)
        flat = np.fromiter((rng.uniform(-bound, bound) for _ in range(int(np.prod(shape)))),
                           dtype=np.float64, count=int(np.prod(shape)))
        mp.params[name] = Tensor(flat.reshape(shape), requires_grad=True)
    return mp


def _backbone(mp: ModelParams, raster: np.ndarray) -> Tensor:
    # rasters live in [0, 1]; center them so early conv outputs are not
    # swamped by the DC component
    x = Tensor(raster - 0.5)
    for i in range(1, len(BACKBONE_CHANNELS) + 1):
        x = nm.conv2d(x, mp.params[f"bb{i}_w"], bias=mp.params[f"bb{i}_b"], relu=True)
    return x


def _head(mp: ModelParams, name: str, s: Tensor) -> Tensor:
    h = nm.conv2d(s, mp.params[f"{name}1_w"], bias=mp.params[f"{name}1_b"], relu=True)
    return nm.conv2d(h, mp.params[f"{name}2_w"], bias=mp.params[f"{name}2_b"])


def _check_channels(mp: ModelParams, raster: np.ndarray) -> None:
    if raster.shape[0] != mp.in_channels:
        raise ValueError("raster channel count does not match the model")


def embed_template(mp: ModelParams, template: np.ndarray) -> Tensor:
    """Backbone features of a template raster, for reuse across ``forward``
    calls that match the same template against many search crops."""
    _check_channels(mp, template)
    return _backbone(mp, template)


def forward(mp: ModelParams, template: np.ndarray | Tensor, search: np.ndarray,
            ) -> tuple[Tensor, Tensor]:
    """Class logits (2, G, G) and positive side offsets (4, G, G) in pixels.

    ``template`` is a raster or its features from ``embed_template``; the
    two give the same bits. Offsets are stride * exp(raw), so decoded boxes
    always have non-negative extents and a zero raw output means one
    stride unit; class logits are softmaxed by consumers.
    """
    _check_channels(mp, search)
    fz = template if isinstance(template, Tensor) else embed_template(mp, template)
    fx = _backbone(mp, search)
    if mp.corr_mode == "dw":
        sim = correlation.dw_corr(fz, fx)
    else:
        sim = correlation.pw_corr(fz, fx)
    a_cls = _head(mp, "cls", sim)
    a_loc = nm.mul(nm.exp(_head(mp, "loc", sim)), float(TOTAL_STRIDE))
    return a_cls, a_loc


# -- per-image loss -------------------------------------------------------------

def image_loss(cfg: TrainConfig, mp: ModelParams, template: np.ndarray,
               search: np.ndarray, gt: Box, grid: HeadGrid,
               plan: losses.RankPlan | None = None,
               ) -> tuple[losses.LossBreakdown, float | None] | None:
    """Loss terms for one (template, search, gt) triple, plus the
    classification ranking margin P_plus - P_minus (None when that term
    was skipped or disabled).

    Returns None when the ground truth captures no positive grid
    location (the sample cannot supervise regression). The rank terms
    follow the configured switches; an image with no hard negatives
    contributes rank_cls = 0 and is flagged skipped. The rank terms take
    their hard negatives, pairs and frozen IoUs from ``plan``, by default
    a fresh ``losses.rank_plan`` of this evaluation; the breakdown's
    ``plan`` is the one used.
    """
    labels = assign_labels(grid, gt)
    if labels.n_pos == 0:
        return None
    a_cls, a_loc = forward(mp, template, search)

    cls_term = (losses.two_stage_ce(a_cls, labels, cfg.tau_neg) if cfg.two_stage_ce
                else losses.cross_entropy(a_cls, labels))

    pos = labels.pos_flat()
    px, py = grid.pixel_xy()
    offs = nm.reshape(a_loc, (4, grid.height * grid.width))
    x1, y1, x2, y2 = decode_boxes(Tensor(px.reshape(-1)[pos]), Tensor(py.reshape(-1)[pos]),
                                  [offs[k][pos] for k in range(4)])
    v_iou = iou_tensor(x1, y1, x2, y2, gt)
    loc_term = nm.mean(nm.sub(1.0, v_iou))

    p_fg = losses.foreground_probs(a_cls)
    batch = losses.RankBatch(pos_scores=p_fg[pos], neg_scores=p_fg[labels.neg_flat()],
                             pos_ious=v_iou)
    if plan is None:
        plan = losses.rank_plan(batch, cfg.tau_neg)

    rank_cls_term: Tensor | float = 0.0
    skipped = False
    margin: float | None = None
    if cfg.rank_cls:
        if plan.hard_idx.size == 0:
            skipped = True
        else:
            p_plus, p_minus = losses.expectations(batch.pos_scores,
                                                  batch.neg_scores[plan.hard_idx])
            rank_cls_term = losses.rank_cls_loss(p_minus, p_plus, cfg.alpha, cfg.beta)
            margin = p_plus.item() - p_minus.item()

    rank_iou_term: Tensor | float = 0.0
    if cfg.rank_iou:
        rank_iou_term = losses.rank_iou_loss(batch, cfg.gamma, plan)
    elif cfg.rank_iou_ori:
        rank_iou_term = losses.rank_iou_loss_ori(batch, cfg.ori_alpha)

    breakdown = losses.combine(cls_term, loc_term, rank_cls_term, rank_iou_term,
                               skipped_rank_cls=skipped,
                               weights=(cfg.w_rpn, cfg.w_rank_cls, cfg.w_rank_iou))
    breakdown.plan = plan
    return breakdown, margin


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
    """Held-out sequences; seeded independently of the training pool."""
    return _pool(cfg, cfg.eval_seed, _DOM_EVAL_DATA, cfg.eval_sequences, cfg.eval_frames)


def _snapshot(mp: ModelParams, it: int, last: LogRow | None) -> dict:
    norms = {name: float(np.linalg.norm(t.data)) for name, t in mp.leaves()}
    return {"iteration": it, "param_norms": norms,
            "last_row": None if last is None else vars(last)}


def _draw_batch(cfg: TrainConfig, pool: list[synthdata.Sequence], sampler: SplitMix64,
                grid: HeadGrid) -> list[tuple[int, np.ndarray, Box]]:
    """Up to ``batch_size`` training samples (sequence index, search crop,
    ground truth in crop coordinates), drawn in turn from ``sampler``.

    A draw picks a sequence and a frame and jitters the search center by up
    to ``shift_aug``; it is kept when its ground truth captures a positive
    grid cell. Drawing stops after ``10 * batch_size`` draws, so a batch can
    come back short or empty.
    """
    batch: list[tuple[int, np.ndarray, Box]] = []
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
        search, gt_s, _ = synthdata.crop_search(
            seq, idx, cfg.template_size, cfg.search_size, search_center=(cx, cy))
        if assign_labels(grid, gt_s).n_pos > 0:
            batch.append((k, search, gt_s))
    return batch


def train(cfg: TrainConfig, pool: list[synthdata.Sequence] | None = None) -> TrainResult:
    """Deterministic SGD-with-momentum run over synthetic crops.

    Each iteration draws its batch first (``_draw_batch``), n samples with
    1 <= n <= ``batch_size``. Then, for each sample in draw order, it
    records that sample's loss graph, backpropagates 1/n times its total
    and frees the graph before the next sample's forward, so one sample's
    graph is alive at a time. The leaves receive the bits of one backward
    of the batch mean (see ``numerics``), and the logged total is the
    left-to-right sum of the sample totals times 1/n. The momentum step
    follows.

    Identical config (seed included) reproduces the final parameters bit
    for bit. Raises DivergenceError with a diagnostic snapshot when any
    loss or parameter stops being finite, or when no draw of an
    iteration yields a trainable sample.
    """
    cfg.validate()
    t0 = time.perf_counter()
    if pool is None:
        pool = training_pool(cfg)
    master = SplitMix64(cfg.seed)
    init_rng = master.spawn(_DOM_INIT)
    sampler = master.spawn(_DOM_SAMPLER)
    mp = init_params(cfg, init_rng)
    grid = head_grid(cfg)

    templates = [synthdata.crop_template(seq, cfg.template_size) for seq in pool]
    velocity = {name: np.zeros_like(t.data) for name, t in mp.leaves()}
    log: list[LogRow] = []
    last_row: LogRow | None = None

    for it in range(cfg.iterations):
        batch = _draw_batch(cfg, pool, sampler, grid)
        if not batch:
            raise DivergenceError(f"no trainable samples at iteration {it}",
                                  _snapshot(mp, it, last_row))
        scale = 1.0 / len(batch)
        terms: list[dict[str, float]] = []
        margins: list[float] = []
        while batch:
            k, search, gt_s = batch.pop(0)
            try:
                breakdown, margin = image_loss(cfg, mp, templates[k], search, gt_s, grid)
            except nm.NonFiniteError as e:
                raise DivergenceError(f"non-finite loss at iteration {it}: {e}",
                                      _snapshot(mp, it, last_row)) from e
            nm.backward(nm.mul(breakdown.total, scale))
            terms.append(breakdown.floats())
            if margin is not None:
                margins.append(margin)
            del breakdown, search   # free the graph and the crop before the next forward

        total = terms[0]["total"]
        for f in terms[1:]:
            total += f["total"]
        row = LogRow(
            iteration=it,
            cls=float(np.mean([f["cls"] for f in terms])),
            loc=float(np.mean([f["loc"] for f in terms])),
            rank_cls=float(np.mean([f["rank_cls"] for f in terms])),
            rank_iou=float(np.mean([f["rank_iou"] for f in terms])),
            total=total * scale,
            margin=float(np.mean(margins)) if margins else float("nan"),
        )
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
    with open(path, "w") as f:
        f.write("iteration,cls,loc,rank_cls,rank_iou,total,margin\n")
        for r in log:
            f.write(f"{r.iteration},{r.cls!r},{r.loc!r},{r.rank_cls!r},"
                    f"{r.rank_iou!r},{r.total!r},{r.margin!r}\n")


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
    """Read a ``save_checkpoint`` file. A damaged one, truncated, holding a
    non-finite value or with bytes after its last tensor, raises ValueError."""
    with open(path, "rb") as f:
        def read(n: int) -> bytes:
            data = f.read(n)
            if len(data) != n:
                raise ValueError(f"truncated checkpoint: {path}")
            return data

        def u32s(count: int = 1) -> tuple[int, ...]:
            return struct.unpack(f"<{count}I", read(4 * count))

        if f.read(4) != _CKPT_MAGIC:
            raise ValueError(f"not a checkpoint file: {path}")
        (version,) = u32s()
        if version != _CKPT_VERSION:
            raise ValueError(f"unsupported checkpoint version {version}")
        header = dict(kv.split("=", 1) for kv in read(u32s()[0]).decode().split(";"))
        if set(header) != {"corr_mode", "in_channels"}:
            raise ValueError(f"bad checkpoint header: {path}")
        mp = ModelParams(corr_mode=header["corr_mode"], in_channels=int(header["in_channels"]))
        name = None
        for _ in range(u32s()[0]):
            name = read(u32s()[0]).decode()
            shape = u32s(u32s()[0])
            data = np.frombuffer(read(8 * int(np.prod(shape))), dtype="<f8").reshape(shape)
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

def search_transform(prev: Box, cfg: TrainConfig) -> synthdata.CropTransform:
    """Search crop for one tracking step: centered on the previous box, its
    context square scaled by search_size / template_size."""
    cx, cy = prev.center
    side = synthdata.context_side(prev) * (cfg.search_size / cfg.template_size)
    return synthdata.CropTransform(cx=cx, cy=cy, side=side, out_size=cfg.search_size)


def track_step(mp: ModelParams, template: np.ndarray | Tensor, frame: np.ndarray,
               prev: Box, cfg: TrainConfig) -> tuple[tuple[int, int], Box]:
    """One tracking step: search ``frame`` around ``prev`` and pick the
    grid cell with the highest foreground probability, as described in
    ``track``. ``template`` is the template raster or its
    ``embed_template`` features.

    Returns the chosen grid cell (row, col) and its decoded box in image
    coordinates, clamped to the frame; a degenerate box is replaced by
    ``prev``.
    """
    grid = head_grid(cfg)
    tf = search_transform(prev, cfg)
    search = synthdata.crop_window(frame, tf.cx, tf.cy, tf.side, cfg.search_size)

    a_cls, a_loc = forward(mp, template, search)
    probs = nm.softmax(a_cls).data[1]
    r, c = (int(i) for i in np.unravel_index(int(np.argmax(probs)), probs.shape))
    # the chosen cell's pixel alone, with the bytes of grid.pixel_xy()[r, c]
    box_search = Box(*decode_boxes(grid.offset_x + grid.stride * c,
                                   grid.offset_y + grid.stride * r, a_loc.data[:, r, c]))
    h_img, w_img = frame.shape[1:]
    box = tf.to_image(box_search).clipped(float(w_img), float(h_img))
    if box.area <= 0.0:  # degenerate prediction: hold the previous box
        box = prev
    return (r, c), box


def track(mp: ModelParams, seq: synthdata.Sequence, cfg: TrainConfig) -> list[Box]:
    """Frame-by-frame inference from the first-frame ground truth.

    Each later frame is one ``track_step`` from the previous prediction:
    crop the search region around it, pick the grid cell with the highest
    foreground probability, decode its box, and map it back to image
    coordinates clamped to the frame. Confidence alone picks the box, with
    no cosine window or other re-scoring: the ranking losses train that
    confidence to rank the target above distractors and in IoU order. The
    template features are computed once per sequence, so a frame costs
    one search crop and one search forward.
    """
    template = embed_template(mp, synthdata.crop_template(seq, cfg.template_size))
    preds = [seq.gt[0]]
    for t in range(1, len(seq)):
        _, box = track_step(mp, template, seq.frames[t], preds[-1], cfg)
        preds.append(box)
    return preds
