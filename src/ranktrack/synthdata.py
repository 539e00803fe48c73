"""Deterministic synthetic scenes: a moving target, look-alike distractors,
and background clutter.

Each sequence is a pure function of its spec (seed included), so
regeneration is byte-identical. Objects are filled shapes from three
families (rectangle, ellipse, triangle); class identity is the shape
family. Distractors share the target's family and interpolate towards
its exact color and size as ``similarity`` approaches 1, which is what
makes them hard negatives rather than generic background. Clutter
objects come from the other families.

Frames are RGB float rasters in [0, 1], shaped (3, H, W). Motion is an
independent per-object random walk with step sigma in pixels, clamped
to keep boxes inside the image.

Each frame is painted in three steps. First every object's window and
shape mask are computed, in paint order: clutter, distractors, target.
Then one ``normals`` block from the frame's noise stream draws every
painted pixel, object by object and channel by channel, with each
object's colour as the mean; it is clipped to [0, 1] once. Last, each
object's pixels are pasted in paint order, so a later object covers an
earlier one where they overlap.

A generated frame is mostly flat background, so ``PaintedFrames`` keeps
its colour plus each painted object's window, about a seventh of the
dense raster, and rebuilds the painted bytes on every read.

Every crop follows one rule, ``context_crop``: SiamFC's context square of
a w x h box, side sqrt((w + m) * (h + m)) with m = 0.5 * (w + h), times
search_size / template_size for a search region. Each crop is sized from
the box of the frame it crops, as in SiamFC: the template from frame 0's
box, a training or scoring search crop from its own frame's box, so the
target keeps the template's scale as it changes size. Tracking, which does
not know the frame's box, sizes from the previous prediction.
"""

from __future__ import annotations

import math
import os
import re
from collections import abc
from dataclasses import dataclass

import numpy as np

from . import configio
from .geometry import Box
from .rng import SplitMix64

SHAPE_FAMILIES = ("rect", "ellipse", "triangle")

# how far outside the frame an imported box may reach, in frame sizes
BOX_REACH = 100

_DOMAIN_APPEARANCE = 11
_DOMAIN_MOTION = 12
_DOMAIN_NOISE = 13
_DOMAIN_CLUTTER = 14


@dataclass(frozen=True)
class SequenceSpec:
    seed: int = 0
    frames: int = 8
    image_size: int = 160
    shape: str = "rect"
    target_size: float = 26.0
    distractors: int = 2
    similarity: float = 0.85      # 1.0 = identical appearance to the target
    clutter: int = 3
    motion_sigma: float = 3.0
    noise_sigma: float = 0.05
    color: tuple[float, float, float] | None = None  # None: drawn from seed

    def validate(self) -> None:
        configio.check_finite(self)
        if self.frames < 1:
            raise configio.ConfigError("field 'frames' must be positive")
        if self.shape not in SHAPE_FAMILIES:
            raise configio.ConfigError(f"field 'shape': unknown shape family {self.shape!r}")
        if not (0.0 <= self.similarity <= 1.0):
            raise configio.ConfigError("field 'similarity' must lie in [0, 1]")
        if self.target_size <= 0:
            raise configio.ConfigError("field 'target_size' must be positive")
        if self.target_size >= self.image_size / 2:
            raise configio.ConfigError("field 'target_size' must be less than half of "
                                       f"image_size ({self.image_size})")
        for name in ("distractors", "clutter", "motion_sigma", "noise_sigma"):
            if getattr(self, name) < 0:
                raise configio.ConfigError(f"field {name!r} must be non-negative")
        if self.color is not None and len(self.color) != 3:
            raise configio.ConfigError("color must have 3 components")


class PaintedFrames(abc.Sequence):
    """Frames of a generated sequence as one background colour plus, per
    frame, the (rows, cols, pixels) windows of the painted objects.

    Each window holds the final pixels of its rows and columns, so pasting
    them over the background in any order rebuilds the painted raster.
    Built frames are not cached: a cache would bring the memory back.
    """

    def __init__(self, size: int, bg: np.ndarray,
                 windows: list[list[tuple[slice, slice, np.ndarray]]]):
        self._size, self._bg, self._windows = size, bg, windows

    def __len__(self) -> int:
        return len(self._windows)

    def __getitem__(self, t: int) -> np.ndarray:
        """A fresh read-only (3, H, W) float64 raster; a write raises
        instead of being lost. A deep copy gives a list of writable ones."""
        img = np.empty((3, self._size, self._size))
        img[:] = self._bg[:, None, None]
        for rows, cols, pixels in self._windows[t]:
            img[:, rows, cols] = pixels
        img.flags.writeable = False
        return img

    def __deepcopy__(self, memo) -> list[np.ndarray]:
        return [frame.copy() for frame in self]


@dataclass
class Sequence:
    frames: abc.Sequence[np.ndarray]     # (3, H, W) float64 in [0, 1]; PaintedFrames if generated
    gt: list[Box]                        # target box per frame
    distractor_boxes: list[list[Box]]    # per frame, one box per distractor
    spec: SequenceSpec | None            # echo of the generating spec; None if imported

    def __len__(self) -> int:
        return len(self.frames)


def _shape_mask(shape: str, ys: np.ndarray, xs: np.ndarray, box: Box) -> np.ndarray:
    """Boolean raster of a filled shape inscribed in ``box``, sampled at the
    pixel-center rows ``ys`` and columns ``xs``."""
    yy, xx = ys[:, None], xs[None, :]
    if shape == "rect":
        return (xx >= box.x1) & (xx <= box.x2) & (yy >= box.y1) & (yy <= box.y2)
    if shape == "ellipse":
        cx, cy = box.center
        rx, ry = max(box.width / 2, 1e-9), max(box.height / 2, 1e-9)
        return ((xx - cx) / rx) ** 2 + ((yy - cy) / ry) ** 2 <= 1.0
    if shape == "triangle":
        # isoceles: apex at the top edge midpoint, base along the bottom edge
        ax, ay = 0.5 * (box.x1 + box.x2), box.y1
        in_y = (yy >= box.y1) & (yy <= box.y2)
        frac = np.clip((yy - ay) / max(box.height, 1e-9), 0.0, 1.0)
        half = 0.5 * box.width * frac
        return in_y & (np.abs(xx - ax) <= half)
    raise ValueError(f"unknown shape family: {shape}")


def _shape_window(box: Box, h: int, w: int) -> tuple[slice, slice]:
    """Rows and columns of an h x w frame that can hold a pixel center of a
    shape inscribed in ``box``: its bounding pixels plus a 1 px margin,
    which covers rounding in the ellipse and triangle tests."""
    def span(lo: float, hi: float, n: int) -> slice:
        return slice(min(max(math.floor(lo) - 1, 0), n), min(max(math.ceil(hi) + 1, 0), n))
    return span(box.y1, box.y2, h), span(box.x1, box.x2, w)


def _walk(rng: SplitMix64, start: tuple[float, float], frames: int, sigma: float,
          half: float, size: int) -> list[tuple[float, float]]:
    """Random-walk centers clamped so a box of half-extent ``half`` stays inside."""
    lo, hi = half + 1.0, size - half - 1.0
    cx, cy = start
    out = []
    for _ in range(frames):
        out.append((cx, cy))
        cx = min(max(cx + rng.normal(0.0, sigma), lo), hi)
        cy = min(max(cy + rng.normal(0.0, sigma), lo), hi)
    return out


def gen_sequence(spec: SequenceSpec) -> Sequence:
    """Render a full sequence from its spec; deterministic in every byte."""
    spec.validate()
    root = SplitMix64(spec.seed)
    appear = root.spawn(_DOMAIN_APPEARANCE)
    motion = root.spawn(_DOMAIN_MOTION)

    size = spec.image_size
    color = np.array(spec.color if spec.color is not None
                     else [appear.uniform(0.25, 0.95) for _ in range(3)])
    bg = np.array([appear.uniform(0.02, 0.18) for _ in range(3)])

    half_t = spec.target_size / 2.0
    lo, hi = half_t + 2.0, size - half_t - 2.0
    target_centers = _walk(motion, (motion.uniform(lo, hi), motion.uniform(lo, hi)),
                           spec.frames, spec.motion_sigma, half_t, size)

    # distractors: same family, appearance interpolated towards the
    # target's, orbiting the target inside a radius band so they stay
    # inside typical search crops without ever overlapping the target
    dist_colors, dist_halves, dist_centers = [], [], []
    for d in range(spec.distractors):
        drift = 1.0 - spec.similarity
        dcolor = np.clip(color + drift * np.array([appear.uniform(-0.5, 0.5) for _ in range(3)]),
                         0.0, 1.0)
        dhalf = half_t * (1.0 + drift * appear.uniform(-0.4, 0.4))
        dm = motion.spawn(_DOMAIN_MOTION, d + 1)
        r_min = 1.47 * (half_t + dhalf)
        r_max = max(r_min + 6.0, 0.34 * size)
        theta = dm.uniform(0.0, 2.0 * np.pi)
        radius = dm.uniform(r_min, r_max)
        centers = []
        for t in range(spec.frames):
            tx, ty = target_centers[t]
            lo_d, hi_d = dhalf + 1.0, size - dhalf - 1.0
            for attempt in range(2):
                cand = theta + (np.pi if attempt else 0.0)
                cx = min(max(tx + radius * np.cos(cand), lo_d), hi_d)
                cy = min(max(ty + radius * np.sin(cand), lo_d), hi_d)
                if max(abs(cx - tx), abs(cy - ty)) > half_t + dhalf + 1.0:
                    break
            centers.append((cx, cy))
            theta += dm.normal(0.0, 0.02 * spec.motion_sigma)
            radius = min(max(radius + dm.normal(0.0, 0.6 * spec.motion_sigma), r_min), r_max)
        dist_colors.append(dcolor)
        dist_halves.append(dhalf)
        dist_centers.append(centers)

    clutter_rng = root.spawn(_DOMAIN_CLUTTER)
    other_families = [s for s in SHAPE_FAMILIES if s != spec.shape]
    clutter_items = []
    for _ in range(spec.clutter):
        fam = other_families[clutter_rng.randint(len(other_families))]
        chalf = clutter_rng.uniform(3.0, max(4.0, half_t * 0.7))
        ccolor = np.array([clutter_rng.uniform(0.1, 0.9) for _ in range(3)])
        start = (clutter_rng.uniform(chalf + 1, size - chalf - 1),
                 clutter_rng.uniform(chalf + 1, size - chalf - 1))
        cm = clutter_rng.spawn(_DOMAIN_MOTION, len(clutter_items) + 101)
        clutter_items.append((fam, chalf, ccolor,
                              _walk(cm, start, spec.frames, spec.motion_sigma, chalf, size)))

    windows, gts, dist_boxes = [], [], []
    img = np.empty((3, size, size))  # scratch raster, repainted every frame
    for t in range(spec.frames):
        gt_cx, gt_cy = target_centers[t]
        gt = Box(gt_cx - half_t, gt_cy - half_t, gt_cx + half_t, gt_cy + half_t)
        boxes_t = []
        for d in range(spec.distractors):
            dcx, dcy = dist_centers[d][t]
            dh = dist_halves[d]
            boxes_t.append(Box(dcx - dh, dcy - dh, dcx + dh, dcy + dh))

        objects = []  # (family, box, colour) in paint order
        for fam, chalf, ccolor, centers in clutter_items:
            cx, cy = centers[t]
            objects.append((fam, Box(cx - chalf, cy - chalf, cx + chalf, cy + chalf), ccolor))
        objects += [(spec.shape, db, dcolor) for db, dcolor in zip(boxes_t, dist_colors)]
        objects.append((spec.shape, gt, color))

        painted, counts = [], []
        for shape, box, _ in objects:
            rows, cols = _shape_window(box, size, size)
            mask = _shape_mask(shape, np.arange(rows.start, rows.stop) + 0.5,
                               np.arange(cols.start, cols.stop) + 0.5, box)
            painted.append((rows, cols, mask))
            counts.append(np.count_nonzero(mask))
        mu = np.repeat([c for _, _, c in objects], np.repeat(counts, 3))
        vals = np.clip(root.spawn(_DOMAIN_NOISE, t).normals(mu, spec.noise_sigma, mu.size),
                       0.0, 1.0)

        img[:] = bg[:, None, None]
        start = 0
        for (rows, cols, mask), count in zip(painted, counts):
            img[:, rows, cols][:, mask] = vals[start:start + 3 * count].reshape(3, count)
            start += 3 * count
        # copied after the last paste, so overlapping windows agree
        windows.append([(rows, cols, img[:, rows, cols].copy())
                        for (rows, cols, _), count in zip(painted, counts) if count])
        gts.append(gt)
        dist_boxes.append(boxes_t)

    return Sequence(frames=PaintedFrames(size, bg, windows), gt=gts,
                    distractor_boxes=dist_boxes, spec=spec)


# -- cropping ------------------------------------------------------------------

@dataclass(frozen=True)
class CropTransform:
    """Affine map between image coordinates and a square resized crop."""

    cx: float
    cy: float
    side: float
    out_size: int

    @property
    def scale(self) -> float:
        return self.out_size / self.side

    def to_crop(self, box: Box) -> Box:
        x0, y0 = self.cx - self.side / 2.0, self.cy - self.side / 2.0
        return Box((box.x1 - x0) * self.scale, (box.y1 - y0) * self.scale,
                   (box.x2 - x0) * self.scale, (box.y2 - y0) * self.scale)

    def to_image(self, box: Box) -> Box:
        x0, y0 = self.cx - self.side / 2.0, self.cy - self.side / 2.0
        return Box(box.x1 / self.scale + x0, box.y1 / self.scale + y0,
                   box.x2 / self.scale + x0, box.y2 / self.scale + y0)

    def crop(self, frame: np.ndarray) -> np.ndarray:
        """The (C, out_size, out_size) crop of ``frame`` that this maps to."""
        return crop_window(frame, self.cx, self.cy, self.side, self.out_size)


def context_crop(box: Box, center: tuple[float, float], scale: float,
                 out_size: int) -> CropTransform:
    """The square crop, resized to ``out_size``, centred on ``center`` with
    ``scale`` times the side of ``box``'s context square."""
    m = 0.5 * (box.width + box.height)
    side = float(np.sqrt((box.width + m) * (box.height + m))) * scale
    return CropTransform(cx=center[0], cy=center[1], side=side, out_size=out_size)


def crop_window(frame: np.ndarray, cx: float, cy: float, side: float,
                out_size: int) -> np.ndarray:
    """Bilinear square crop; regions outside the frame read as channel mean.

    The operation order is fixed for bit-identity: each output pixel is
    ((tl*(1-fx))*(1-fy)) + ((tr*fx)*(1-fy)) + ((bl*(1-fx))*fy) + ((br*fx)*fy),
    added left to right. Precombined or separable weights round
    differently.
    """
    c, h, w = frame.shape
    xs = cx - side / 2.0 + (np.arange(out_size) + 0.5) * (side / out_size) - 0.5
    ys = cy - side / 2.0 + (np.arange(out_size) + 0.5) * (side / out_size) - 0.5
    x0 = np.floor(xs).astype(int)
    y0 = np.floor(ys).astype(int)
    fx = xs - x0
    fy = ys - y0

    means = frame.reshape(c, -1).mean(axis=1)
    padded = np.empty((c, h + 2, w + 2))
    padded[:] = means[:, None, None]
    padded[:, 1:h + 1, 1:w + 1] = frame

    x0c = np.clip(x0 + 1, 0, w + 1)
    x1c = np.clip(x0 + 2, 0, w + 1)
    y0c = np.clip(y0 + 1, 0, h + 1)
    y1c = np.clip(y0 + 2, 0, h + 1)
    # any source pixel outside the frame collapses onto the mean border ring
    out_of_x = (x0 < -1) | (x0 > w)
    out_of_y = (y0 < -1) | (y0 > h)
    x0c[out_of_x] = 0
    x1c[out_of_x] = 0
    y0c[out_of_y] = 0
    y1c[out_of_y] = 0

    # gather rows, then columns, into contiguous (C, out, out) corners
    top = padded.take(y0c, axis=1)
    bottom = padded.take(y1c, axis=1)
    out = top.take(x0c, axis=2)
    tr = top.take(x1c, axis=2)
    bl = bottom.take(x0c, axis=2)
    br = bottom.take(x1c, axis=2)
    wx = np.tile(fx, (out_size, 1))
    wy = np.repeat(fy[:, None], out_size, axis=1)
    ux, uy = 1 - wx, 1 - wy
    # in place, in the order of the docstring; tl's buffer becomes the output
    out *= ux
    out *= uy
    for corner, wcol, wrow in ((tr, wx, uy), (bl, ux, wy), (br, wx, wy)):
        corner *= wcol
        corner *= wrow
        out += corner
    return out


def crop_template(seq: Sequence, template_size: int) -> np.ndarray:
    """Frame 0's crop of the first ground truth's context square."""
    gt0 = seq.gt[0]
    return context_crop(gt0, gt0.center, 1.0, template_size).crop(seq.frames[0])


def crop_pair(seq: Sequence, index: int, template_size: int,
              search_size: int) -> tuple[np.ndarray, np.ndarray, Box, CropTransform]:
    """Template (frame 0) and search (frame ``index``, centred on its target
    and sized from its box) crops, the ground truth mapped into search
    coordinates, and the search transform."""
    if not (0 <= index < len(seq)):   # a negative index would wrap to a frame from the end
        raise IndexError("frame index out of range")
    gt = seq.gt[index]
    tf = context_crop(gt, gt.center, search_size / template_size, search_size)
    return crop_template(seq, template_size), tf.crop(seq.frames[index]), tf.to_crop(gt), tf


# -- export / import -----------------------------------------------------------

def _write_ppm(path: str, img: np.ndarray) -> None:
    c, h, w = img.shape
    data = np.clip(np.rint(img * 255.0), 0, 255).astype(np.uint8)
    with open(path, "wb") as f:
        f.write(f"P6\n{w} {h}\n255\n".encode())
        f.write(data.transpose(1, 2, 0).tobytes())


def _read_ppm(path: str) -> np.ndarray:
    with open(path, "rb") as f:
        blob = f.read()
    m = re.match(rb"P6\s+(\d+)\s+(\d+)\s+(\d+)\s", blob)
    if not m:
        raise ValueError(f"not a binary PPM file: {path}")
    w, h, maxval = (int(g) for g in m.groups())
    if w == 0 or h == 0:
        raise ValueError(f"{path}: a {w}x{h} image has no pixels")
    if maxval != 255:
        raise ValueError(f"{path}: only maxval 255 PPMs are supported")
    if len(blob) - m.end() < h * w * 3:
        raise ValueError(f"{path}: truncated: {len(blob) - m.end()} pixel bytes "
                         f"for a {w}x{h} image, expected {h * w * 3}")
    raw = np.frombuffer(blob[m.end():], dtype=np.uint8, count=h * w * 3)
    return raw.reshape(h, w, 3).transpose(2, 0, 1).astype(np.float64) / 255.0


def export_sequence(seq: Sequence, out_dir: str) -> None:
    """Write frames as binary PPMs plus a plain-text annotation file.

    annotations.txt carries one block per object (target first,
    then each distractor), one "frame x1 y1 x2 y2" line per frame,
    blocks separated by blank lines. The generating spec, when present,
    is echoed to spec.txt.
    """
    os.makedirs(out_dir, exist_ok=True)
    for t, frame in enumerate(seq.frames):
        _write_ppm(os.path.join(out_dir, f"frame_{t:06d}.ppm"), frame)

    blocks = [seq.gt] + [[seq.distractor_boxes[t][d] for t in range(len(seq))]
                         for d in range(len(seq.distractor_boxes[0]) if seq.distractor_boxes else 0)]
    lines = []
    for block in blocks:
        for t, box in enumerate(block):
            lines.append(f"{t} {box.x1!r} {box.y1!r} {box.x2!r} {box.y2!r}")
        lines.append("")
    with open(os.path.join(out_dir, "annotations.txt"), "w") as f:
        f.write("\n".join(lines))

    if seq.spec is not None:
        with open(os.path.join(out_dir, "spec.txt"), "w") as f:
            f.write(configio.format_kv(configio.to_kv(seq.spec)))


def import_sequence(in_dir: str) -> Sequence:
    """Read a directory written by ``export_sequence``; raises a ValueError
    that names the file, and for annotations the line, when a frame is not
    a whole PPM with pixels, frames differ in shape, an annotation line is
    not a valid "frame x1 y1 x2 y2" box with finite corners, names a frame
    that does not exist or that its block already gave, or a box block
    lacks a frame's line. A ``spec.txt`` is not read: the sequence's spec is None.

    A box corner more than ``BOX_REACH`` times the frame's longer side
    outside the frame is rejected too: nothing of a tracking sequence lies
    there, and such a box's extents, mapped into a crop, can overflow to
    infinity (a corner at 1e308 does). Inside that reach every coordinate
    the crop mappings compute stays within a few orders of magnitude of
    the frame size. So is a target box, which sizes its frame's crops, whose
    context square has side 0: a zero-size box, or one 1e-200 wide at 0."""
    names = sorted(n for n in os.listdir(in_dir) if n.startswith("frame_") and n.endswith(".ppm"))
    if not names:
        raise ValueError(f"no frames found in {in_dir}")
    frames = [_read_ppm(os.path.join(in_dir, n)) for n in names]
    for name, frame in zip(names, frames):
        if frame.shape != frames[0].shape:
            raise ValueError(f"{in_dir}: {name} has shape {frame.shape}, {names[0]} {frames[0].shape}")

    h, w = frames[0].shape[1:]
    reach = BOX_REACH * max(h, w)
    ann_path = os.path.join(in_dir, "annotations.txt")
    with open(ann_path) as f:
        lines = f.read().splitlines()
    blocks: list[dict[int, Box]] = []  # one per run of non-blank lines
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        if lineno == 1 or not lines[lineno - 2].strip():
            blocks.append({})
        try:
            t, *xyxy = line.split()
            if len(xyxy) != 4:
                raise ValueError(f"expected 'frame x1 y1 x2 y2', got {line!r}")
            t = int(t)
            if not 0 <= t < len(frames):
                raise ValueError(f"frame {t} is outside 0..{len(frames) - 1}")
            if t in blocks[-1]:
                raise ValueError(f"a second line for frame {t} in this block")
            box = Box(*map(float, xyxy))
            if min(box.x1, box.y1) < -reach or max(box.x2 - w, box.y2 - h) > reach:
                raise ValueError(f"a box corner lies more than {BOX_REACH} frame sizes "
                                 f"outside the {w}x{h} frame")
            if len(blocks) == 1 and context_crop(box, box.center, 1.0, 1).side == 0.0:
                raise ValueError(f"the target box of frame {t} has a context square of side 0")
            blocks[-1][t] = box
        except ValueError as e:
            raise ValueError(f"{ann_path}: line {lineno}: {e}") from None
    if not blocks:
        raise ValueError(f"{in_dir}: annotations.txt has no target block")
    parsed: list[list[Box]] = []
    for k, boxes in enumerate(blocks):
        missing = [t for t in range(len(frames)) if t not in boxes]
        if missing:
            raise ValueError(f"{in_dir}: annotation block {k} has no line for frame {missing[0]}")
        parsed.append([boxes[t] for t in range(len(frames))])

    distractors = [[parsed[d + 1][t] for d in range(len(parsed) - 1)]
                   for t in range(len(frames))]
    return Sequence(frames=frames, gt=parsed[0], distractor_boxes=distractors, spec=None)
