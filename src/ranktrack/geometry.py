"""Boxes, IoU, head-grid label assignment, and box decoding.

The classifier/regressor head predicts one box per grid location
(anchor-free). A location is labelled positive when it falls inside the
ground-truth box shrunk by ``POSITIVE_SHRINK`` about its center,
negative when it falls outside the full box, and ignore in between.
The shrink rule is a stand-in convention (common for anchor-free heads)
and a module constant, so a run's manifest (its config) does not record it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numerics as nm
from .numerics import Tensor

POSITIVE_SHRINK = 0.5


@dataclass(frozen=True)
class Box:
    """Axis-aligned rectangle in pixel coordinates, corners inclusive of x1y1.

    Any finite corners with extents >= 0 are accepted (NaN and infinite
    ones are not), but an extent is only as exact as the
    coordinates that bound it: a positive width far below the rounding
    step of x1 and x2 (e.g. 1e-38 at x = 1) becomes 0 when the box is
    ``translated``. See ``iou`` for the extents under which IoU survives
    translation.
    """

    x1: float
    y1: float
    x2: float
    y2: float

    def __post_init__(self):
        for name in ("x1", "y1", "x2", "y2"):
            object.__setattr__(self, name, float(getattr(self, name)))
        if not (-np.inf < self.x1 <= self.x2 < np.inf and -np.inf < self.y1 <= self.y2 < np.inf):
            raise ValueError(f"degenerate box extents: {self}")

    @property
    def width(self) -> float:
        return self.x2 - self.x1

    @property
    def height(self) -> float:
        return self.y2 - self.y1

    @property
    def area(self) -> float:
        return self.width * self.height

    @property
    def center(self) -> tuple[float, float]:
        return (0.5 * (self.x1 + self.x2), 0.5 * (self.y1 + self.y2))

    def contains(self, px, py):
        """Whether each point (px, py) lies in the box, edges included;
        elementwise on scalars or arrays."""
        return (px >= self.x1) & (px <= self.x2) & (py >= self.y1) & (py <= self.y2)

    def translated(self, dx: float, dy: float) -> "Box":
        return Box(self.x1 + dx, self.y1 + dy, self.x2 + dx, self.y2 + dy)

    def scaled_about_center(self, factor: float) -> "Box":
        cx, cy = self.center
        hw, hh = 0.5 * factor * self.width, 0.5 * factor * self.height
        return Box(cx - hw, cy - hh, cx + hw, cy + hh)

    def clipped(self, width: float, height: float) -> "Box":
        x1 = min(max(self.x1, 0.0), width)
        y1 = min(max(self.y1, 0.0), height)
        x2 = min(max(self.x2, x1), width)
        y2 = min(max(self.y2, y1), height)
        return Box(x1, y1, x2, y2)

    def as_array(self) -> np.ndarray:
        return np.array([self.x1, self.y1, self.x2, self.y2])


def iou(a: Box, b: Box) -> float:
    """Intersection over union; 0 when the boxes do not overlap with area.

    Translation invariance holds up to the rounding of the shifted
    coordinates. If every extent of both boxes is exactly 0 or at least
    m, translating both by the same (dx, dy) changes the result by at
    most 16 * d / m, where d is the largest rounding error of a shifted
    coordinate (half an ulp: 2**-46 below 256 px). For m = 0.25 px that
    is under 1e-12. Exact-zero extents stay exactly zero. A positive
    extent far below d is not preserved: translation can round it to 0,
    and the result then drops to 0 by the degenerate rule.
    """
    iw = min(a.x2, b.x2) - max(a.x1, b.x1)
    ih = min(a.y2, b.y2) - max(a.y1, b.y1)
    if iw <= 0.0 or ih <= 0.0:
        return 0.0
    inter = iw * ih
    union = a.area + b.area - inter
    if union <= 0.0:
        return 0.0
    return inter / union


def center_distance(a: Box, b: Box) -> float:
    (ax, ay), (bx, by) = a.center, b.center
    return float(np.hypot(ax - bx, ay - by))


@dataclass(frozen=True)
class HeadGrid:
    """Geometry of the square prediction grid over a square search image.

    Grid location (row, col) sits at search pixel
    (offset + stride*row, offset + stride*col).
    """

    size: int
    stride: float
    offset: float

    @classmethod
    def centered(cls, search_size: int, size: int, stride: float) -> "HeadGrid":
        return cls(size=size, stride=stride, offset=0.5 * (search_size - (size - 1) * stride))

    def cell_xy(self, flat):
        """Pixel coordinates (x, y) of the locations at row-major indices ``flat``."""
        row, col = np.divmod(flat, self.size)
        return self.offset + self.stride * col, self.offset + self.stride * row

    def pixel_xy(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-location pixel coordinates, each shaped (size, size)."""
        return self.cell_xy(np.arange(self.size * self.size).reshape(self.size, self.size))


POSITIVE, NEGATIVE, IGNORE = 1, 0, -1


@dataclass
class LabelMap:
    """Per-location class in {POSITIVE, NEGATIVE, IGNORE}.

    Regression is supervised by the IoU of each positive cell's decoded
    box with the ground truth, so no side-distance targets are kept.
    """

    cls: np.ndarray       # (H, W) int8

    @property
    def n_pos(self) -> int:
        return int(np.sum(self.cls == POSITIVE))

    @property
    def n_neg(self) -> int:
        return int(np.sum(self.cls == NEGATIVE))

    def pos_flat(self) -> np.ndarray:
        return np.flatnonzero(self.cls.reshape(-1) == POSITIVE)

    def neg_flat(self) -> np.ndarray:
        return np.flatnonzero(self.cls.reshape(-1) == NEGATIVE)


def assign_labels(grid: HeadGrid, gt: Box) -> LabelMap:
    """Label grid locations against one ground-truth box.

    Positive inside the shrunk box, negative outside the full box,
    ignore in the ring between. A ground truth that misses the grid
    entirely yields zero positives; callers must handle that.
    """
    px, py = grid.pixel_xy()
    cls = np.full((grid.size, grid.size), NEGATIVE, dtype=np.int8)
    cls[gt.contains(px, py)] = IGNORE
    cls[gt.scaled_about_center(POSITIVE_SHRINK).contains(px, py)] = POSITIVE
    return LabelMap(cls=cls)


def decode_boxes(px, py, offsets):
    """Corners (x1, y1, x2, y2) of the boxes predicted at grid points
    (px, py) from their side offsets (left, top, right, bottom).

    Elementwise on scalars, arrays or tensors alike; the head's offsets
    are non-negative, so every decoded box has non-negative extents.
    """
    left, top, right, bottom = offsets
    return px - left, py - top, px + right, py + bottom


def iou_tensor(x1, y1, x2, y2, gt: Box) -> Tensor:
    """Differentiable IoU of predicted box coordinates against a fixed box,
    recorded as one node; inputs may be scalars or aligned vectors.

    The forward is ``iou``'s arithmetic, inter / ((pred_area + gt.area) -
    inter). Rounding is monotone and inter is at most either area, so the
    IoU never exceeds 1. The backward is closed-form: with q = g / union,
    inter receives q * (1 + IoU) and pred_area -q * IoU. A predicted edge
    that ties the ground truth's bounds the intersection, and an extent
    that is not > 0 passes no gradient (a miss has zero gradient). Two
    empty boxes have a zero union, and IoU 0 with zero gradient as in ``iou``.
    """
    coords = [nm._as_tensor(t) for t in (x1, y1, x2, y2)]
    shapes = [t.data.shape for t in coords]
    a1, b1, a2, b2 = (t.data for t in coords)
    lo_x, lo_y = a1 >= gt.x1, b1 >= gt.y1     # the prediction's edge bounds the overlap
    hi_x, hi_y = a2 <= gt.x2, b2 <= gt.y2
    extents = (np.where(hi_x, a2, gt.x2) - np.where(lo_x, a1, gt.x1),
               np.where(hi_y, b2, gt.y2) - np.where(lo_y, b1, gt.y1), a2 - a1, b2 - b1)
    mw, mh, mpw, mph = masks = [e > 0 for e in extents]
    iw, ih, pw, ph = (np.where(m, e, 0.0) for m, e in zip(masks, extents))
    inter = iw * ih
    union = (pw * ph + gt.area) - inter
    out = np.divide(inter, union, out=np.zeros_like(union), where=union > 0)

    def bw(g):
        q = np.divide(g, union, out=np.zeros_like(union), where=union > 0)
        g_area = -q * out
        g_inter = q - g_area
        giw, gih = g_inter * ih * mw, g_inter * iw * mh
        gpw, gph = g_area * ph * mpw, g_area * pw * mph
        grads = (-giw * lo_x - gpw, -gih * lo_y - gph, giw * hi_x + gpw, gih * hi_y + gph)
        return tuple(nm._unbroadcast(gr, sh) for gr, sh in zip(grads, shapes))

    return nm._from_op(out, coords, bw, "iou")
