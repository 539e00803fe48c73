"""``bench/run.py`` calls the program positionally in places:
``ModelParams(cfg.corr_mode, cfg.in_channels, ...)``, ``crop_pair(seq, i, t, s)``
and ``image_loss(cfg, mp, *crop, grid)``. A refactor that breaks one of those
calls breaks the benchmark; these tests run the functions that make them on
a 2-iteration 64/128 model, without running the benchmark. They import the
module from its file and change nothing under ``bench/``; ``set_up`` and
``run_round`` stay out, since they import ``bench/checks.py`` and scipy."""

import dataclasses
import importlib.util
import math
import os
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from ranktrack import pipeline, synthdata

RUN = Path(__file__).resolve().parent.parent / "bench" / "run.py"


@pytest.fixture(scope="module")
def bench():
    """The loaded module, the config of a 2-iteration workload, its set-up
    and its trained parameters."""
    spec = importlib.util.spec_from_file_location("bench_run", RUN)
    run = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = run       # its dataclasses resolve their module by name
    with mock.patch.dict(os.environ):  # it pins BLAS threads and pops RBO_SEED
        spec.loader.exec_module(run)
    workload = run.Workload(dict(iterations=2, eval_sequences=2, eval_frames=4), True, False)
    cfg = run.make_config(workload, 3)
    pool, eval_seqs = pipeline.training_pool(cfg), pipeline.eval_pool(cfg)
    with mock.patch.object(pipeline, "_usable_cpus", lambda: 1):
        mp = pipeline.train(cfg, pool).params
    return run, cfg, run.SetUp(pool, eval_seqs, None, 0.0, 0.0, ""), mp


def test_forward_cases_run_both_modes_on_two_samples(bench):
    run, cfg, setup, mp = bench
    cases = list(run.forward_cases(cfg, setup, mp))
    assert [c[:2] for c in cases] == [(f"forward {m} sample {k}", m)
                                      for m in ("dw", "pw") for k in (0, 1)]
    for label, mode, weights, template, search, got in cases:
        g = 9 if mode == "dw" else 16
        assert [a.shape for a in got] == [(2, g, g), (4, g, g)], label
        assert template.shape == (3, 64, 64) and search.shape == (3, 128, 128)
        if mode == cfg.corr_mode:
            assert weights.keys() == dict(mp.leaves()).keys()
            want = pipeline.forward(mp, template, search)
            assert [a.tobytes() for a in got] == [t.data.tobytes() for t in want], label


def test_gradient_case_records_the_gradient_of_its_loss(bench):
    run, cfg, setup, mp = bench
    loss, recorded, weights, names = run.gradient_case(cfg, setup, mp)
    assert set(names) <= recorded.keys() == weights.keys()
    assert all(recorded[n].shape == weights[n].shape for n in names)
    base = loss(weights)
    assert math.isfinite(base)
    step, grad = 1e-6, recorded["cls2_b"].reshape(-1)[0]
    shifted = []
    for sign in (1, -1):
        w = {n: a.copy() for n, a in weights.items()}
        w["cls2_b"].reshape(-1)[0] += sign * step
        shifted.append(loss(w))
    assert (shifted[0] - shifted[1]) / (2 * step) == pytest.approx(grad, rel=1e-6, abs=1e-9)


def test_track_pool_follows_pipeline_track(bench):
    run, cfg, setup, mp = bench
    tracks, frame_ms = run.track_pool(mp, setup.eval_seqs, cfg)
    assert len(frame_ms) == sum(len(seq) - 1 for seq in setup.eval_seqs)
    assert all(ms >= 0.0 for ms in frame_ms)
    for boxes, seq in zip(tracks, setup.eval_seqs, strict=True):
        template = pipeline.embed(mp, synthdata.crop_template(seq, cfg.template_size))
        want = pipeline.track(mp, template, seq, cfg)
        assert np.array(boxes).tobytes() == np.array([b.as_array() for b in want]).tobytes()
