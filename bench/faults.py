#!/usr/bin/env python3
"""Planted faults: every output check of the benchmark must pass on clean
inputs and fail on a deliberately broken one.

    python3 bench/faults.py

Builds a small run (64/128 dw, 60 iterations, 2 x 6 eval frames), then feeds
each check its clean input and a planted fault. Exits 0 when every fault is
caught. Outputs go to .bench_out/faults/.
"""

from __future__ import annotations

import copy
import dataclasses
import os
import shutil
import sys

import run  # sets the BLAS thread count before numpy loads

sys.path.insert(0, os.path.join(run.ROOT, "src"))

import checks  # noqa: E402
from ranktrack import configio, pipeline  # noqa: E402
from ranktrack.rng import SplitMix64  # noqa: E402

WORKLOAD = run.Workload(dict(iterations=60, train_sequences=3, frames_per_sequence=4,
                             eval_sequences=2, eval_frames=6), True, True)
SEED = 3


def main() -> int:
    cfg = run.make_config(WORKLOAD, SEED)
    out_dir = os.path.join(run.ROOT, ".bench_out", "faults")
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    with open(os.path.join(out_dir, "config.txt"), "w") as f:
        f.write(configio.format_kv(cfg.to_kv()))
    setup = run.set_up(cfg, WORKLOAD)
    rnd = run.run_round(cfg, WORKLOAD, setup, out_dir, None)
    eval_dir = os.path.join(out_dir, "eval")
    metrics_rows = checks.read_csv(os.path.join(eval_dir, "metrics.csv"))
    success_rows = checks.read_csv(os.path.join(eval_dir, "success.csv"))
    precision_rows = checks.read_csv(os.path.join(eval_dir, "precision.csv"))

    cases = []

    def case(name, clean, planted):
        cases.append((name, clean, planted))

    rng = SplitMix64(1234567)
    words = [rng.next_u64() for _ in range(3)]
    case("rng: a wrong word", checks.check_rng(words),
         checks.check_rng(words[:2] + [words[2] ^ 1]))

    seqs = setup.pool + setup.eval_seqs
    bright = copy.deepcopy(seqs[0])
    bright.frames[1][0, 5, 5] = 1.5
    outside = copy.deepcopy(seqs[0])
    outside.gt[2] = outside.gt[2].translated(float(cfg.image_size), 0.0)
    case("frames: a pixel above 1", checks.check_frames(seqs, cfg.image_size),
         checks.check_frames([bright], cfg.image_size))
    case("frames: a ground truth outside the image", [],
         checks.check_frames([outside], cfg.image_size))

    for label, mode, weights, template, search, got in run.forward_cases(cfg, setup, rnd.params):
        perturbed = {k: v.copy() for k, v in weights.items()}
        perturbed["cls2_b"][1, 0, 0] += 1e-6
        case(f"{label}: a perturbed weight in the reference",
             checks.check_forward(got, checks.reference_forward(weights, mode, template, search),
                                  label),
             checks.check_forward(got, checks.reference_forward(perturbed, mode, template, search),
                                  label))

    loss_value, recorded, weights, names = run.gradient_case(cfg, setup, rnd.params)
    wrong = dict(recorded)
    wrong[names[3]] = recorded[names[3]] * 1.001 + 1e-6
    case(f"gradients: the recorded d loss / d {names[3]} off by 0.1%",
         checks.check_gradients(loss_value, recorded, weights, names),
         checks.check_gradients(loss_value, wrong, weights, names))

    case("loss: the run log reversed", checks.check_loss_decreases(rnd.log),
         checks.check_loss_decreases(rnd.log[::-1]))

    shifted = [list(boxes) for boxes in rnd.tracks]
    x1, y1, x2, y2 = shifted[0][0]
    shifted[0][0] = (x1 + 1.0, y1, x2 + 1.0, y2)
    escaped = [list(boxes) for boxes in rnd.tracks]
    x1, y1, x2, y2 = escaped[1][3]
    escaped[1][3] = (x1, y1, cfg.image_size + 1.0, y2)
    case("tracks: frame 0 moved off the ground truth",
         checks.check_tracks(rnd.tracks, setup.eval_seqs, cfg.image_size),
         checks.check_tracks(shifted, setup.eval_seqs, cfg.image_size))
    case("tracks: a box past the frame edge", [],
         checks.check_tracks(escaped, setup.eval_seqs, cfg.image_size))

    swapped = rnd.tracks[::-1]
    case("eval AUC: tracks of two sequences swapped",
         checks.check_eval_auc(rnd.tracks, setup.eval_seqs, metrics_rows),
         checks.check_eval_auc(swapped, setup.eval_seqs, metrics_rows))

    bent = [dict(r) for r in success_rows]
    bent[5]["rate"] = repr(float(bent[5]["rate"]) + 0.05)
    shuffled = [dict(r) for r in precision_rows]
    at20 = next(r for r in shuffled if float(r["radius"]) == 20.0)
    swap = next(r for r in shuffled if r["rate"] != at20["rate"])
    at20["rate"], swap["rate"] = swap["rate"], at20["rate"]
    case("eval curves: a success rate moved",
         checks.check_eval_curves(metrics_rows, success_rows, precision_rows),
         checks.check_eval_curves(metrics_rows, bent, precision_rows))
    case("eval curves: two precision rates swapped", [],
         checks.check_eval_curves(metrics_rows, success_rows, shuffled))

    other = pipeline.train(dataclasses.replace(cfg, seed=SEED + 1), setup.pool)
    case("digests: a run of another seed",
         checks.check_digests([rnd.digest, rnd.digest]),
         checks.check_digests([rnd.digest, checks.params_digest(
             {n: t.data for n, t in other.params.leaves()})]))

    caught = 0
    for name, clean, planted in cases:
        ok = not clean and bool(planted)
        caught += ok
        print(f"{'ok    ' if ok else 'MISSED'} {name}")
        for msg in clean:
            print(f"       clean input failed: {msg}")
        if planted:
            print(f"       -> {planted[0]}")
    print(f"{caught}/{len(cases)} planted faults caught, clean inputs passing")
    return 0 if caught == len(cases) else 1


if __name__ == "__main__":
    sys.exit(main())
