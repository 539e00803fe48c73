"""Float64 tensors with recorded reverse-mode differentiation.

Every differentiable quantity in this library flows through the ops
here. The arithmetic surface is no bigger than the model needs: add,
sub, mul, conv2d over tiling square windows, exp, softplus, whole-tensor
sum and mean, and softmax and log-softmax over axis 0, the class axis.
Shape plumbing (reshape, indexing) moves data without arithmetic.
Everything else in the repo composes from these, apart from three nodes
built on ``_from_op`` elsewhere: ``correlation.dw_corr``,
``correlation.pw_corr`` (the attention of template features over search
features) and ``geometry.iou_tensor`` (box IoU with a closed-form
gradient). ``conv2d(x, k, bias=b, relu=True)`` records a conv layer with
its bias add and ReLU as one node with the bits of that composition, and
``log_softmax`` is one node with the forward bits of its composition. The
tests hold the fused layer and ``pw_corr`` to op-by-op compositions bit
for bit; the ops those need beyond these (``tests/reference_ops.py``) are
not part of the library.

All storage is float64. Every op validates that its output is finite
and raises :class:`NonFiniteError` instead of propagating NaN/Inf.

Recording model: an op output whose parents include one that requires a
gradient records a node: the parents that require gradients (None in
the place of any other, so a raster or a constant factor is freed once
the forward is done) and a closure that maps the output gradient to
parent gradients. The closure keeps only the arrays its backward reads
(a conv keeps its patch matrix, weights and ReLU mask, a softmax its
output), not the parent tensors. ``backward`` walks the record once per
node in reverse topological order. Recorded intermediate nodes sum the
gradients they receive, pass the sum on and keep ``grad`` None; a
gradient reaching a leaf is added to the leaf's ``grad`` buffer at once,
in the order the walk produces it. A closure computes gradients only for
the parents that require them and returns None for the others.

A graph is consumed by its ``backward``: each node drops its parents and
its closure as the walk reaches it, so its arrays are freed once its
gradients are out, before the walk reaches the layers below. A second
``backward`` over a consumed node, whether of the same loss or of a new
graph built on top of it, raises ``RuntimeError``; a consumed node never
passes for a leaf. Leaves are not consumed, and a fresh graph on them
accumulates into their ``grad`` as before. A plain Python float operand
of ``add``, ``sub`` or ``mul`` is a constant used as it is, without a
Tensor around it.

Adding on arrival makes accumulation across calls exact: for losses
l_1..l_n that share only leaves, ``backward(mul(l_k, 1/n))`` for k = 1..n
in turn gives the leaves the bits of one ``backward`` of the mean
``mul((l_1 + l_2) + ... + l_n, 1/n)``. That walk reaches the nodes of l_1
first, then those of l_2 and so on, so each leaf receives the same
contributions in the same order either way. Summing a leaf's
contributions within a call before adding them would group them per call
and change the rounding. Training relies on this to hold one sample's
graph at a time.

``backward(loss, sink)`` takes a list instead and appends each
``(leaf, g)`` to it in the order the contributions arrive, leaving the
leaves' ``grad`` alone. Adding them later, in list order, with
``leaf.grad + g`` gives the leaf the bits that ``backward(loss)`` would
have given it then; so the losses l_1..l_n above can run their backward
in any order, or in other processes on copies of the leaves, as long as
their lists are added in the order 1..n. Training runs a batch's samples
this way.

A recorded graph belongs to the process and the thread that built it:
its closures hold arrays of that process, and ``backward`` consumes it.
Tensors themselves are plain values, safe to hand between threads and to
copy to another process as their arrays. Importing this module pins
numpy's bundled OpenBLAS to one thread, so a seed gives the same bits
whatever thread count the environment asks for.
"""

from __future__ import annotations

import ctypes
import glob
import os
import warnings
from typing import Sequence

import numpy as np

__all__ = [
    "NonFiniteError", "Tensor", "add", "sub", "mul", "conv2d", "exp", "softplus",
    "reshape", "sum_", "mean", "softmax", "log_softmax", "backward",
]


# glibc mallopt parameters
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _keep_freed_heap() -> None:
    """Let glibc keep freed memory for reuse instead of returning it.

    Training frees one sample's graph before building the next. With
    glibc's dynamic thresholds the freed heap top is trimmed back to the
    kernel and faulted in again by the next sample: 10 training iterations
    at 127/255 ``pw`` took 242-295 thousand minor page faults, against
    0-42 with these thresholds. Allocations below 32 MiB come from the
    heap, and the heap is trimmed only once 64 MiB lie free at its top.
    Without glibc (no ``mallopt``) this does nothing.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 64 << 20)


_keep_freed_heap()


def _pin_blas_threads() -> None:
    """Run numpy's bundled OpenBLAS on one thread: some 127/255 matmul
    shapes round differently when it splits them over two. The environment
    variable acts only before numpy loads; the library's setter at any time.
    """
    pattern = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                           "libscipy_openblas*.so")
    try:
        set_threads = ctypes.CDLL(sorted(glob.glob(pattern))[0]).scipy_openblas_set_num_threads64_
    except (IndexError, OSError, AttributeError):
        warnings.warn("numpy's bundled OpenBLAS was not found; BLAS may run several "
                      "threads, and their count can change the bits of a seed",
                      RuntimeWarning)
        return
    set_threads.argtypes = (ctypes.c_int,)
    set_threads(1)


_pin_blas_threads()


class NonFiniteError(ArithmeticError):
    """An operation would have produced NaN or infinity."""


def _check_finite(arr: np.ndarray, op: str) -> None:
    if not np.isfinite(arr).all():
        raise NonFiniteError(f"{op} produced a non-finite value")


class Tensor:
    """Dense float64 array with optional gradient accumulation.

    ``grad`` is allocated (zeros) for tensors created with
    ``requires_grad=True`` and is populated/accumulated by ``backward``.
    Only such leaves receive gradients: outputs of recorded ops keep
    ``grad`` None. Repeated backward calls accumulate; use ``zero_grad``
    to reset.
    """

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward_fn", "_op")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.array(data, dtype=np.float64)
        _check_finite(arr, "tensor")
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad = np.zeros_like(arr) if requires_grad else None
        self._parents: tuple[Tensor | None, ...] = ()
        self._backward_fn = None
        self._op = "leaf"

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError("item() requires a single-element tensor")
        return float(self.data.reshape(())[()])

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, op={self._op}, requires_grad={self.requires_grad})"

    def zero_grad(self) -> None:
        self.grad = np.zeros_like(self.data) if self.requires_grad else None

    # -- operator sugar: what ``geometry.decode_boxes`` and indexing use ----
    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __getitem__(self, idx):
        return getitem(self, idx)


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _from_op(data: np.ndarray, parents: Sequence[Tensor | None], backward_fn,
             op: str) -> Tensor:
    """The output tensor of an op; None in ``parents`` stands for a constant."""
    data = np.asarray(data, dtype=np.float64)
    _check_finite(data, op)
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    if any(p is not None and p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(p if p is not None and p.requires_grad else None
                             for p in parents)
        out._backward_fn = backward_fn
    else:
        out.requires_grad = False
        out._parents = ()
        out._backward_fn = None
    out._op = op
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a gradient back down to the shape it was broadcast from."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, d in enumerate(shape) if d == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


# -- elementwise arithmetic ---------------------------------------------------

def _operand(x) -> tuple[Tensor | None, np.ndarray | float, bool]:
    """(tensor, value, requires_grad) of an operand of add, sub or mul; a plain
    float is a constant, (None, x, False), with no checked Tensor around it."""
    if isinstance(x, float):
        return None, x, False
    t = _as_tensor(x)
    return t, t.data, t.requires_grad


def add(a, b) -> Tensor:
    a, x, need_a = _operand(a)
    b, y, need_b = _operand(b)
    sa, sb = np.shape(x), np.shape(y)

    def bw(g):
        return (_unbroadcast(g, sa) if need_a else None,
                _unbroadcast(g, sb) if need_b else None)

    return _from_op(x + y, (a, b), bw, "add")


def sub(a, b) -> Tensor:
    """a - b as one node, with the bits of ``add(a, mul(b, -1.0))``:
    negation is exact and commutes with the sum of ``_unbroadcast``."""
    a, x, need_a = _operand(a)
    b, y, need_b = _operand(b)
    sa, sb = np.shape(x), np.shape(y)

    def bw(g):
        return (_unbroadcast(g, sa) if need_a else None,
                np.negative(_unbroadcast(g, sb)) if need_b else None)

    return _from_op(x - y, (a, b), bw, "sub")


def mul(a, b) -> Tensor:
    a, x, need_a = _operand(a)
    b, y, need_b = _operand(b)

    def bw(g):
        return (_unbroadcast(g * y, np.shape(x)) if need_a else None,
                _unbroadcast(g * x, np.shape(y)) if need_b else None)

    return _from_op(x * y, (a, b), bw, "mul")


def exp(a) -> Tensor:
    a = _as_tensor(a)
    with np.errstate(over="ignore"):
        out = np.exp(a.data)

    def bw(g):
        return (g * out,)

    return _from_op(out, (a,), bw, "exp")


def softplus(a) -> Tensor:
    """log(1 + exp(a)) evaluated as max(a, 0) + log1p(exp(-|a|))."""
    a = _as_tensor(a)
    x = a.data
    out = np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))
    sig = np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))), np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))

    def bw(g):
        return (g * sig,)

    return _from_op(out, (a,), bw, "softplus")


# -- convolution --------------------------------------------------------------

def _kernel_rows(a: np.ndarray, kw: int) -> np.ndarray:
    """View each run of ``kw`` adjacent float64 values on the last axis as
    one opaque element, so a layout shuffle moves whole kernel rows as raw
    bytes instead of iterating over an inner axis of length ``kw``."""
    return a.view(np.dtype((np.void, a.itemsize * kw)))


def _im2col(x: np.ndarray, k: int) -> np.ndarray:
    """C-contiguous (OH*OW, C*K*K) patch matrix of a CHW array cut into
    tiling KxK windows: rows in output raster order, columns in (channel,
    kernel row, kernel column) order. It is a reshape of the input."""
    c, h, w = x.shape
    oh, ow = h // k, w // k
    rows = _kernel_rows(np.ascontiguousarray(x)[:, :oh * k, :ow * k], k)
    cols = rows.reshape(c, oh, k, ow).transpose(1, 3, 0, 2).reshape(oh * ow, c * k)
    return cols.view(np.float64)


def _col2im(gcols: np.ndarray, shape: tuple[int, int, int], k: int) -> np.ndarray:
    """Adjoint of ``_im2col``: add every patch-matrix entry into a zero
    array at the input position it was read from. Tiling windows touch each
    position once, so one ``+=`` does it; adding to 0.0 turns a -0.0 into
    +0.0. Rows and columns past the last whole window keep 0.0."""
    c, h, w = shape
    oh, ow = h // k, w // k
    rows = _kernel_rows(np.ascontiguousarray(gcols), k).reshape(oh, ow, c, k)
    rows = rows.transpose(2, 0, 3, 1).reshape(c, oh * k, ow).view(np.float64)
    gx = np.zeros(shape)
    gx[:, :oh * k, :ow * k] += rows
    return gx


def conv2d(x, kernels, bias=None, relu: bool = False) -> Tensor:
    """2-D convolution of a CHW input with OCKK square kernels whose windows
    tile the input (the stride is the kernel size, no padding; rows and
    columns past the last whole window are not read), optionally followed
    by a broadcast ``bias`` add and a ReLU, recorded as one node. The
    forward matmul and the kernel gradient read one patch matrix, a
    reshape of the input (``_im2col``).

    The fused layer gives the same bits as ``relu(add(conv2d(x, k), b))``:
    the bias is added in place on the matmul result and the finiteness
    check runs once, on the sum, before the ReLU zeroes anything (it raises
    whenever one of the three checks of the composition would). The
    backward masks the gradient, sums it onto the bias, then runs the conv
    gradients on the masked gradient, as the three nodes would in turn.
    """
    x, kernels = _as_tensor(x), _as_tensor(kernels)
    if x.data.ndim != 3:
        raise ValueError("conv2d input must be C x H x W")
    if kernels.data.ndim != 4:
        raise ValueError("conv2d kernels must be O x C x K x K")
    c, h, w = x.data.shape
    o, ck, k, kw = kernels.data.shape
    if ck != c:
        raise ValueError(f"conv2d channel mismatch: input {c}, kernels {ck}")
    if kw != k:
        raise ValueError(f"conv2d kernels must be square, got {k}x{kw}")
    if k > h or k > w:
        raise ValueError("conv2d kernel larger than input")
    oh, ow = h // k, w // k

    cols = _im2col(x.data, k)
    wmat = kernels.data.reshape(o, c * k * k)
    out = (wmat @ cols.T).reshape(o, oh, ow)
    parents, bias_shape = (x, kernels), None
    if bias is not None:
        bias = _as_tensor(bias)
        bias_shape = bias.data.shape
        with np.errstate(over="ignore"):
            out += bias.data            # raises ValueError unless it broadcasts
        parents += (bias,)
    mask = out > 0 if relu else None
    need_x, need_k = x.requires_grad, kernels.requires_grad
    need_b = bias is not None and bias.requires_grad

    def bw(g):
        if mask is not None:
            g = g * mask
        gm = g.reshape(o, oh * ow)
        gk = (gm @ cols).reshape(o, c, k, k) if need_k else None
        gx = _col2im(gm.T @ wmat, (c, h, w), k) if need_x else None
        if bias_shape is None:
            return gx, gk
        return gx, gk, _unbroadcast(g, bias_shape) if need_b else None

    # _from_op checks the pre-activation values; the ReLU then zeroes the
    # recorded output in place
    node = _from_op(out, parents, bw, "conv2d")
    if mask is not None:
        np.copyto(out, 0.0, where=~mask)
    return node


# -- shape plumbing -----------------------------------------------------------

def reshape(a, shape) -> Tensor:
    a = _as_tensor(a)
    src = a.data.shape

    def bw(g):
        return (g.reshape(src),)

    return _from_op(a.data.reshape(shape), (a,), bw, "reshape")


def getitem(a, idx) -> Tensor:
    a = _as_tensor(a)
    x = a.data

    def bw(g):
        ga = np.zeros_like(x)
        np.add.at(ga, idx, g)
        return (ga,)

    return _from_op(a.data[idx], (a,), bw, "getitem")


# -- reductions ---------------------------------------------------------------

def sum_(a) -> Tensor:
    a = _as_tensor(a)
    shape = a.data.shape

    def bw(g):
        return (np.full(shape, g),)

    return _from_op(np.sum(a.data), (a,), bw, "sum")


def mean(a) -> Tensor:
    a = _as_tensor(a)
    shape, n = a.data.shape, a.data.size

    def bw(g):
        return (np.full(shape, g) / n,)

    return _from_op(np.mean(a.data), (a,), bw, "mean")


# -- softmax ------------------------------------------------------------------

def softmax(a) -> Tensor:
    """Stable softmax over axis 0, the class axis."""
    a = _as_tensor(a)
    if a.data.size == 0:
        raise ValueError("softmax of an empty tensor")
    shifted = a.data - np.max(a.data, axis=0, keepdims=True)
    e = np.exp(shifted)
    out = e / np.sum(e, axis=0, keepdims=True)

    def bw(g):
        dot = np.sum(g * out, axis=0, keepdims=True)
        return (out * (g - dot),)

    return _from_op(out, (a,), bw, "softmax")


def log_softmax(a) -> Tensor:
    """Stable log-softmax over axis 0, the class axis:
    a - max - log(sum(exp(a - max))).

    The gradient is g - softmax * sum(g), with the softmax read back as
    exp of the output.
    """
    a = _as_tensor(a)
    shifted = a.data - np.max(a.data, axis=0, keepdims=True)
    out = shifted - np.log(np.sum(np.exp(shifted), axis=0, keepdims=True))

    def bw(g):
        return (g - np.exp(out) * np.sum(g, axis=0, keepdims=True),)

    return _from_op(out, (a,), bw, "log_softmax")


# -- backward pass ------------------------------------------------------------

def _topo_order(root: Tensor) -> list[Tensor]:
    order: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p is not None and p._backward_fn is not None and id(p) not in visited:
                stack.append((p, False))
    return order


def _consumed(g):
    raise RuntimeError("graph already consumed")


def backward(loss: Tensor, sink: list | None = None) -> None:
    """Accumulate d(loss)/d(leaf) into every requires_grad leaf; recorded
    intermediate nodes are not given a ``grad``.

    Each recorded node is visited exactly once, in reverse topological
    order, so shared subexpressions contribute exactly once. Each
    contribution to a leaf is added to its ``grad`` as it arrives, or,
    given a ``sink`` list, appended to it as ``(leaf, g)`` instead (see the
    module docstring). The walk consumes the graph: a visited node loses
    its parents and its closure, whose place takes ``_consumed``, so a
    node's arrays are freed once its gradients are out.
    """
    if not isinstance(loss, Tensor):
        raise TypeError("backward expects a Tensor")
    if loss.data.size != 1:
        raise ValueError("backward requires a scalar loss")
    if loss._backward_fn is None:
        raise ValueError("loss is detached from any recorded computation")

    order = _topo_order(loss)
    flows: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    while order:
        node = order.pop()
        fn, parents = node._backward_fn, node._parents
        node._backward_fn, node._parents = _consumed, ()
        flow = flows.pop(id(node), None)
        if flow is None:
            continue
        grads = fn(flow)
        del fn, flow
        for parent, g in zip(parents, grads):
            if parent is None or g is None:
                continue
            if parent._backward_fn is None:
                if sink is not None:
                    sink.append((parent, g))
                else:
                    parent.grad = g.copy() if parent.grad is None else parent.grad + g
                continue
            prev = flows.get(id(parent))
            flows[id(parent)] = g if prev is None else prev + g
        del grads

