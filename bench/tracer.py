"""In-memory span tracer that wraps the public functions of ranktrack modules.

Instrumentation is applied from outside: ``instrument`` replaces module
attributes (``pipeline.forward``, ``numerics.conv2d``, ...) with timing
wrappers and ``Tracer.restore`` puts the originals back. Callers look these
functions up through the module at call time, so every call made by the
program or by the benchmark passes through a wrapper while it is installed.

A span is recorded as ``[name, start, end, parent, ops_start, ops_end,
value]``: ``parent`` is the index of the enclosing span (-1 at top level),
``ops_*`` read the recorded-op counter (calls of ``numerics._from_op``) at
entry and exit, and ``value`` is an optional figure taken from the call,
such as the number of frames a generator returned. Spans stay in memory
until ``write`` dumps them as JSON lines.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager

_NAME, _T0, _T1, _PARENT, _OPS0, _OPS1, _VALUE = range(7)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.ops = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------
    def _open(self, name: str) -> list:
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.ops, 0, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[_T0] = time.perf_counter()
        return rec

    def _close(self, rec: list) -> None:
        rec[_T1] = time.perf_counter()
        self._stack.pop()
        rec[_OPS1] = self.ops

    def wrap(self, fn, name: str, value_of=None):
        """``fn`` with a span around every call; ``value_of(args, result)``
        stores one number from the call in the span."""
        def traced(*args, **kwargs):
            rec = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if value_of is not None:
                rec[_VALUE] = value_of(args, out)
            return out
        return traced

    @contextmanager
    def span(self, name: str):
        rec = self._open(name)
        try:
            yield
        finally:
            self._close(rec)

    # -- patching ------------------------------------------------------------
    def patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def trace_attr(self, owner, attr: str, name: str, value_of=None) -> None:
        self.patch(owner, attr, self.wrap(getattr(owner, attr), name, value_of))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self):
        instrument(self)
        try:
            yield self
        finally:
            self.restore()

    def write(self, path: str) -> None:
        with open(path, "w") as f:
            for rec in self.spans:
                f.write(json.dumps(rec) + "\n")


def instrument(tracer: Tracer) -> None:
    """Wrap every call boundary a per-layer metric reads."""
    from ranktrack import correlation, evalharness, losses, pipeline, synthdata
    from ranktrack import numerics as nm

    t = tracer
    t.trace_attr(synthdata, "gen_sequence", "synthdata.gen_sequence",
                 lambda args, seq: len(seq))
    t.trace_attr(synthdata, "crop_window", "synthdata.crop_window")
    t.trace_attr(synthdata, "crop_pair", "synthdata.crop_pair")

    original_from_op = nm._from_op

    def counted_from_op(*args, **kwargs):
        t.ops += 1
        return original_from_op(*args, **kwargs)

    t.patch(nm, "_from_op", counted_from_op)

    original_conv2d = nm.conv2d

    def conv2d(*args, **kwargs):
        # the backward closure holds the col2im loop; time it as a child
        # span of numerics.backward
        with t.span("numerics.conv2d"):
            out = original_conv2d(*args, **kwargs)
        if out._backward_fn is not None:
            out._backward_fn = t.wrap(out._backward_fn, "numerics.conv2d.grad")
        return out

    t.patch(nm, "conv2d", conv2d)
    t.trace_attr(nm, "backward", "numerics.backward")

    t.trace_attr(correlation, "dw_corr", "correlation.dw_corr")
    t.trace_attr(correlation, "pw_corr", "correlation.pw_corr")

    for fn in ("cross_entropy", "two_stage_ce", "foreground_probs", "hard_negative_set",
               "expectations", "rank_cls_loss", "rank_iou_loss", "rank_iou_loss_ori",
               "combine"):
        t.trace_attr(losses, fn, f"losses.{fn}")

    # pipeline and evalharness import these geometry functions by name
    for owner in (pipeline, evalharness):
        t.trace_attr(owner, "assign_labels", "geometry.assign_labels")
    t.trace_attr(pipeline, "iou_tensor", "geometry.iou_tensor")

    t.trace_attr(pipeline, "forward", "pipeline.forward")
    t.trace_attr(pipeline, "image_loss", "pipeline.image_loss",
                 lambda args, result: 0 if result is None else 1)
    t.trace_attr(pipeline, "train", "pipeline.train",
                 lambda args, result: args[0].iterations)
    t.trace_attr(pipeline, "track", "pipeline.track")
    t.trace_attr(pipeline, "track_step", "pipeline.track_step")
    t.trace_attr(evalharness, "evaluate", "evalharness.evaluate")


# -- per-layer metrics -----------------------------------------------------------

def _enclosing(spans: list[list], name: str) -> list[int]:
    """For each span, the index of the nearest span called ``name`` that
    contains it (itself included), or -1. Parents precede children."""
    out = [-1] * len(spans)
    for i, rec in enumerate(spans):
        if rec[_NAME] == name:
            out[i] = i
        elif rec[_PARENT] >= 0:
            out[i] = out[rec[_PARENT]]
    return out


def _self_times(spans: list[list]) -> list[float]:
    """Span duration minus the time its direct children cover."""
    own = [rec[_T1] - rec[_T0] for rec in spans]
    for rec in spans:
        if rec[_PARENT] >= 0:
            own[rec[_PARENT]] -= rec[_T1] - rec[_T0]
    return own


def layer_metrics(main: Tracer, fallback: Tracer, eval_sequences: int) -> dict[str, tuple[float, str]]:
    """Per-layer figures from the spans of ``main``.

    A correlation flavour that never ran in ``main`` (``pw_corr`` on a
    ``dw`` workload and the reverse) is timed from ``fallback``, which holds
    the spans of the output checks; those run ``pipeline.forward`` in both
    modes.
    """
    spans = main.spans
    in_train = _enclosing(spans, "pipeline.train")
    in_cli = _enclosing(spans, "cli.eval")
    own = _self_times(spans)

    def dur(rec):
        return rec[_T1] - rec[_T0]

    def select(name=None, prefix=None, train=False):
        out = []
        for i, rec in enumerate(spans):
            if name is not None and rec[_NAME] != name:
                continue
            if prefix is not None and not rec[_NAME].startswith(prefix):
                continue
            if train and in_train[i] < 0:
                continue
            out.append(i)
        return out

    trains = select("pipeline.train")
    iters = sum(spans[i][_VALUE] for i in trains)
    ops = sum(spans[i][_OPS1] - spans[i][_OPS0] for i in trains)

    def per_iter_ms(idx):
        return 1e3 * sum(dur(spans[i]) for i in idx) / iters

    def ms_per_call(name):
        recs = [r for r in spans if r[_NAME] == name] or \
            [r for r in fallback.spans if r[_NAME] == name]
        return 1e3 * sum(dur(r) for r in recs) / len(recs)

    gens = select("synthdata.gen_sequence")
    crops = select("synthdata.crop_window")
    forwards = select("pipeline.forward")
    losses_top = [i for i in select(prefix="losses.", train=True)
                  if not (spans[i][_PARENT] >= 0
                          and spans[spans[i][_PARENT]][_NAME].startswith("losses."))]
    samples = select("pipeline.image_loss", train=True)
    accepted = sum(spans[i][_VALUE] for i in samples)
    evals = select("cli.eval")
    tracks_in_eval = [i for i in select("pipeline.track") if in_cli[i] >= 0]
    evaluates = select("evalharness.evaluate")

    return {
        "synthdata.gen_ms_per_frame": (
            1e3 * sum(dur(spans[i]) for i in gens) / sum(spans[i][_VALUE] for i in gens), "ms"),
        "synthdata.crop_ms_per_call": (1e3 * sum(dur(spans[i]) for i in crops) / len(crops), "ms"),
        "synthdata.crop_calls_per_sample": (len(crops) / len(forwards), "count"),
        "numerics.ops_per_iter": (ops / iters, "count"),
        "numerics.conv2d_ms_per_iter": (
            per_iter_ms(select("numerics.conv2d", train=True)
                        + select("numerics.conv2d.grad", train=True)), "ms"),
        "numerics.backward_ms_per_iter": (per_iter_ms(select("numerics.backward", train=True)), "ms"),
        "correlation.dw_corr_ms_per_call": (ms_per_call("correlation.dw_corr"), "ms"),
        "correlation.pw_corr_ms_per_call": (ms_per_call("correlation.pw_corr"), "ms"),
        "losses.ms_per_iter": (per_iter_ms(losses_top), "ms"),
        "losses.rank_cls_active_ratio": (
            len(select("losses.rank_cls_loss", train=True)) / accepted, "ratio"),
        "geometry.ms_per_iter": (per_iter_ms(select(prefix="geometry.", train=True)), "ms"),
        "pipeline.forward_ms_per_call": (
            1e3 * sum(dur(spans[i]) for i in forwards) / len(forwards), "ms"),
        "pipeline.train_self_ms_per_iter": (1e3 * sum(own[i] for i in trains) / iters, "ms"),
        "pipeline.sample_accept_ratio": (accepted / len(samples), "ratio"),
        "pipeline.track_step_ms": (ms_per_call("pipeline.track_step"), "ms"),
        "pipeline.track_calls_per_sequence": (
            len(tracks_in_eval) / (len(evals) * eval_sequences), "count"),
        "evalharness.evaluate_self_s": (sum(own[i] for i in evaluates) / len(evaluates), "s"),
        "cli.eval_self_s": (sum(own[i] for i in evals) / len(evals), "s"),
    }
