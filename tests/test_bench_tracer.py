"""``bench/tracer.py`` patches ranktrack functions by module and name, and
``bench/run.py --trace 1`` reads its per-layer figures from the spans. A
refactor that renames one of those functions, or calls it past its module
attribute, breaks the traced run; these tests catch that without running
the benchmark. They import the tracer from its file and change nothing
under ``bench/``."""

import importlib.util
from pathlib import Path

from ranktrack import correlation, evalharness, losses, pipeline, synthdata
from ranktrack import numerics as nm
from ranktrack.rng import SplitMix64

from conftest import quick_config

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"
PATCHED_MODULES = (synthdata, nm, correlation, losses, pipeline, evalharness)


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_installs_every_patch_and_restores_the_originals():
    before = [dict(vars(m)) for m in PATCHED_MODULES]
    with load_tracer().Tracer().installed() as t:  # a name that is gone raises here
        patched = {(owner.__name__, attr) for owner, attr, _ in t._patches}
        assert all(getattr(owner, attr) is not original for owner, attr, original in t._patches)
    for module, names in zip(PATCHED_MODULES, before):
        assert vars(module).keys() == names.keys()
        assert all(vars(module)[k] is v for k, v in names.items()), module.__name__
    assert {("ranktrack.evalharness", "assign_labels"), ("ranktrack.pipeline", "iou_tensor"),
            ("ranktrack.pipeline", "track_step"), ("ranktrack.pipeline", "forward"),
            ("ranktrack.synthdata", "crop_window")} <= patched


def test_spans_cover_tracking_scoring_and_the_loss():
    """Every call the per-layer figures count passes through a wrapper: one
    forward inside each tracking step, one per scored frame, and the loss's
    IoU and labels."""
    cfg = quick_config(eval_sequences=1, eval_frames=3)
    mp = pipeline.init_params(cfg, SplitMix64(5))
    seq = pipeline.eval_pool(cfg)[0]
    with load_tracer().Tracer().installed() as t:
        evalharness.evaluate(mp, [seq], cfg)
        pipeline.image_loss(cfg, mp, *synthdata.crop_pair(seq, 1, cfg.template_size,
                                                          cfg.search_size)[:3],
                            pipeline.head_grid(cfg))
    names = [rec[0] for rec in t.spans]
    parents = [t.spans[rec[3]][0] if rec[3] >= 0 else None for rec in t.spans]
    forward_parents = [p for n, p in zip(names, parents) if n == "pipeline.forward"]
    assert forward_parents.count("pipeline.track_step") == names.count("pipeline.track_step") == 2
    assert forward_parents.count("evalharness.evaluate") == len(seq)
    assert forward_parents.count("pipeline.image_loss") == 1
    for name in ("evalharness.evaluate", "pipeline.track", "synthdata.crop_window",
                 "geometry.assign_labels", "geometry.iou_tensor", "losses.cross_entropy"):
        assert name in names, name
