#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of ranktrack: training, online tracking
and ``ranktrack eval``.

    python3 bench/run.py --workload train-small --seed 1 --seconds 24 --trace 0

Run from the repository root; the program is imported from ``src/``. With
``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of a
traced run instead. Run outputs go to ``.bench_out/``. See bench/README.md.
"""

from __future__ import annotations

import os
import sys

# One BLAS thread, set before numpy loads: the workloads are single-process
# and the figures must not depend on how many cores the BLAS pool grabs.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
# ``ranktrack eval`` lets RBO_SEED override the config seed; the seed must
# come from --seed alone.
os.environ.pop("RBO_SEED", None)

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import resource
import shutil
import statistics
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SETUP_REPEATS = 3
P90_MIN_FRAMES = 100

# The cr_igr arm at the settings the tests and ablations use (tests/conftest.py
# quick_config), 64/128 depth-wise unless a workload overrides it.
BASE_CONFIG = dict(template_size=64, search_size=128, corr_mode="dw",
                   rank_cls=True, rank_iou=True, batch_size=4, lr=0.005,
                   train_sequences=6, frames_per_sequence=6, similarity=0.9,
                   distractors=2)


@dataclasses.dataclass(frozen=True)
class Workload:
    config: dict
    # True: every round trains a model from scratch; False: the checkpoint
    # is trained once per set-up and the rounds only track and evaluate
    train_in_rounds: bool
    # whether its training runs are long enough for the loss to fall on
    # every seed
    loss_falls: bool


# Rounds are kept short, so that every metric is sampled several times across
# a run: on a shared 2-vCPU VM the speed of identical work swings by up to 25%
# within seconds.
WORKLOADS = {
    # 64/128 dw: per-op overhead, crops and backward dominate
    "train-small": Workload(dict(iterations=60, eval_sequences=3, eval_frames=12), True, True),
    # the paper's 127/255 crops with pixel-wise correlation: array work dominates
    "train-paper": Workload(dict(template_size=127, search_size=255, corr_mode="pw",
                                 iterations=10, eval_sequences=3, eval_frames=13), True, False),
    # forward only: a short checkpoint, then tracking and eval over 4 x 20 frames
    "eval-track": Workload(dict(iterations=60, eval_sequences=4, eval_frames=20), False, True),
}

EVAL_SEED_OFFSET = 1_000_000


def make_config(workload: Workload, seed: int):
    from ranktrack import pipeline
    cfg = pipeline.TrainConfig(**{**BASE_CONFIG, **workload.config,
                                  "seed": seed, "eval_seed": seed + EVAL_SEED_OFFSET})
    cfg.validate()
    return cfg


def sequences_digest(seqs) -> str:
    h = hashlib.sha256()
    for seq in seqs:
        for frame, gt in zip(seq.frames, seq.gt):
            h.update(frame.tobytes())
            h.update(gt.as_array().tobytes())
    return h.hexdigest()


@dataclasses.dataclass
class SetUp:
    pool: list
    eval_seqs: list
    trained: object      # pipeline.TrainResult, or None when rounds train
    train_s: float       # wall time of that training, 0.0 when none
    seconds: float
    digest: str          # of the generated sequences and any trained weights


def set_up(cfg, workload: Workload) -> SetUp:
    from ranktrack import pipeline
    from checks import params_digest
    t0 = time.perf_counter()
    pool = pipeline.training_pool(cfg)
    eval_seqs = pipeline.eval_pool(cfg)
    trained, train_s = None, 0.0
    if not workload.train_in_rounds:
        t1 = time.perf_counter()
        trained = pipeline.train(cfg, pool)
        train_s = time.perf_counter() - t1
    seconds = time.perf_counter() - t0
    digest = sequences_digest(pool + eval_seqs)
    if trained is not None:
        digest += params_digest({name: t.data for name, t in trained.params.leaves()})
    return SetUp(pool, eval_seqs, trained, train_s, seconds, digest)


def track_pool(mp, seqs, cfg) -> tuple[list[list[tuple]], list[float]]:
    """Track every sequence frame by frame from its first ground truth,
    timing each ``track_step``."""
    from ranktrack import pipeline, synthdata
    tracks, frame_ms = [], []
    for seq in seqs:
        template = synthdata.crop_template(seq, cfg.template_size)
        prev = seq.gt[0]
        boxes = [tuple(prev.as_array())]
        for t in range(1, len(seq)):
            t0 = time.perf_counter()
            _, prev = pipeline.track_step(mp, template, seq.frames[t], prev, cfg)
            frame_ms.append(1e3 * (time.perf_counter() - t0))
            boxes.append(tuple(prev.as_array()))
        tracks.append(boxes)
    return tracks, frame_ms


@dataclasses.dataclass
class Round:
    seconds: float
    train_s: float       # wall time of pipeline.train, 0.0 when none
    eval_s: float        # wall time of the `ranktrack eval` command
    frame_ms: list[float]
    digest: str
    tracks: list
    log: list            # total loss per iteration of the model's training
    params: object
    attempted: int
    failed: int


def run_round(cfg, workload: Workload, setup: SetUp, out_dir: str, tracer) -> Round:
    from ranktrack import cli, pipeline
    from checks import params_digest

    t_round = time.perf_counter()
    attempted = failed = 0
    train_s = 0.0
    if workload.train_in_rounds:
        t0 = time.perf_counter()
        result = pipeline.train(cfg, setup.pool)
        train_s = time.perf_counter() - t0
        attempted += cfg.iterations
    else:
        result = setup.trained
    mp = result.params
    ckpt = os.path.join(out_dir, "checkpoint.bin")
    pipeline.save_checkpoint(mp, ckpt)

    tracks, frame_ms = track_pool(mp, setup.eval_seqs, cfg)
    attempted += len(frame_ms)

    argv = ["eval", "--checkpoint", ckpt, "--config", os.path.join(out_dir, "config.txt"),
            "--out", os.path.join(out_dir, "eval")]
    span = tracer.span("cli.eval") if tracer else contextlib.nullcontext()
    t0 = time.perf_counter()
    with span, contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    eval_s = time.perf_counter() - t0
    attempted += 1
    if code != cli.EXIT_OK:
        print(f"ranktrack eval exited with {code}", file=sys.stderr)
        failed += 1

    digest = params_digest({name: t.data for name, t in mp.leaves()})
    return Round(time.perf_counter() - t_round, train_s, eval_s, frame_ms, digest,
                 tracks, [row.total for row in result.log], mp, attempted, failed)


def forward_cases(cfg, setup: SetUp, mp):
    """(label, mode, weights, template, search, program output) for both
    correlation modes on two samples: the run's weights for its own mode,
    seeded initial weights for the other."""
    from ranktrack import pipeline, synthdata
    from ranktrack.rng import SplitMix64
    samples = [synthdata.crop_pair(setup.pool[0], 1, cfg.template_size, cfg.search_size),
               synthdata.crop_pair(setup.eval_seqs[-1], len(setup.eval_seqs[-1]) - 1,
                                   cfg.template_size, cfg.search_size)]
    for mode in ("dw", "pw"):
        model = mp if mode == cfg.corr_mode else pipeline.init_params(
            dataclasses.replace(cfg, corr_mode=mode), SplitMix64(cfg.seed))
        weights = {name: t.data for name, t in model.leaves()}
        for k, (template, search, _, _) in enumerate(samples):
            got = [t.data for t in pipeline.forward(model, template, search)]
            yield f"forward {mode} sample {k}", mode, weights, template, search, got


def gradient_case(cfg, setup: SetUp, mp):
    """(loss_value, recorded gradient, weights, tensor names) for the finite
    difference check of cls + loc + CR on the first trainable sample.

    IGR freezes v_j by design, so it is off. tau_neg = 0 makes every
    negative hard, so the CR term is computed on every seed."""
    from ranktrack import numerics as nm
    from ranktrack import pipeline, synthdata
    from ranktrack.numerics import Tensor
    cfg_fd = dataclasses.replace(cfg, rank_iou=False, tau_neg=0.0)
    grid = pipeline.head_grid(cfg)
    crops = (synthdata.crop_pair(seq, idx, cfg.template_size, cfg.search_size)[:3]
             for seq in setup.pool for idx in range(len(seq)))
    sample = next(c for c in crops
                  if pipeline.image_loss(cfg_fd, mp, *c, grid) is not None)

    def loss(weights):
        model = pipeline.ModelParams(cfg.corr_mode, cfg.in_channels,
                                     {n: Tensor(a, requires_grad=True) for n, a in weights.items()})
        return model, pipeline.image_loss(cfg_fd, model, *sample, grid)[0].total

    weights = {name: t.data.copy() for name, t in mp.leaves()}
    model, total = loss(weights)
    nm.backward(total)
    recorded = {name: t.grad.copy() for name, t in model.leaves()}
    names = ("bb1_w", "bb2_w", "bb3_w", "cls1_w", "cls2_w", "loc1_w", "loc2_w", "cls2_b")
    return (lambda w: loss(w)[1].item()), recorded, weights, names


def run_checks(cfg, workload: Workload, setups: list[SetUp], rounds: list[Round],
               out_dir: str) -> list[str]:
    from ranktrack.rng import SplitMix64
    import checks

    setup, last = setups[0], rounds[-1]
    errs = []
    rng = SplitMix64(1234567)
    errs += checks.check_rng([rng.next_u64() for _ in range(3)])
    errs += checks.check_frames(setup.pool + setup.eval_seqs, cfg.image_size)

    # determinism: identical inputs, parameters and tracks for one seed
    errs += checks.check_digests([s.digest for s in setups])
    errs += checks.check_digests([r.digest for r in rounds])
    if any(r.tracks != last.tracks for r in rounds):
        errs.append("tracked boxes differ between rounds")

    for label, mode, weights, template, search, got in forward_cases(cfg, setup, last.params):
        errs += checks.check_forward(got, checks.reference_forward(weights, mode, template, search),
                                     label)
    errs += checks.check_gradients(*gradient_case(cfg, setup, last.params))
    if workload.loss_falls:
        errs += checks.check_loss_decreases(last.log)

    errs += checks.check_tracks(last.tracks, setup.eval_seqs, cfg.image_size)
    eval_dir = os.path.join(out_dir, "eval")
    metrics_rows = checks.read_csv(os.path.join(eval_dir, "metrics.csv"))
    errs += checks.check_eval_auc(last.tracks, setup.eval_seqs, metrics_rows)
    errs += checks.check_eval_curves(metrics_rows,
                                     checks.read_csv(os.path.join(eval_dir, "success.csv")),
                                     checks.read_csv(os.path.join(eval_dir, "precision.csv")))
    return errs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "ranktrack", "__init__.py")):
        print(f"error: no ranktrack sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, BENCH_DIR)
    import numpy as np
    from ranktrack import configio
    from tracer import Tracer, layer_metrics

    workload = WORKLOADS[args.workload]
    cfg = make_config(workload, args.seed)
    out_dir = os.path.join(ROOT, ".bench_out", f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    with open(os.path.join(out_dir, "config.txt"), "w") as f:
        f.write(configio.format_kv(cfg.to_kv()))

    traced = bool(args.trace)
    main_tracer, check_tracer = Tracer(), Tracer()

    # set-up: repeated for a median, traced once in the traced run
    setups = []
    for _ in range(1 if traced else SETUP_REPEATS):
        with main_tracer.installed() if traced else contextlib.nullcontext():
            setups.append(set_up(cfg, workload))
        if len(setups) > 1:  # keep one copy of the sequences, not one per repeat
            setups[-1].pool = setups[-1].eval_seqs = setups[-1].trained = None
    setup = setups[0]

    # rounds: each one trains (train workloads), tracks the eval pool frame by
    # frame and runs one `ranktrack eval`; the traced run alternates untraced
    # and traced rounds to measure the tracing overhead
    rounds: list[Round] = []
    traced_s, untraced_s = [], []
    # enough rounds that at least 10 tracked frames lie beyond the p90
    min_rounds = -(-P90_MIN_FRAMES // (cfg.eval_sequences * (cfg.eval_frames - 1)))
    if traced:
        min_rounds = max(min_rounds, 2)
    deadline = time.perf_counter() + args.seconds
    while (len(rounds) < min_rounds
           or time.perf_counter() + rounds[-1].seconds <= deadline):
        trace_this = traced and len(rounds) % 2 == 1
        with main_tracer.installed() if trace_this else contextlib.nullcontext():
            rnd = run_round(cfg, workload, setup, out_dir, main_tracer if trace_this else None)
        (traced_s if trace_this else untraced_s).append(rnd.seconds)
        rounds.append(rnd)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)

    with check_tracer.installed() if traced else contextlib.nullcontext():
        errs = run_checks(cfg, workload, setups, rounds, out_dir)
    for e in errs:
        print(f"check failed: {e}", file=sys.stderr)
    print(f"params_digest {rounds[-1].digest}")

    if traced:
        main_tracer.write(os.path.join(out_dir, "trace.jsonl"))
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit)
                   in layer_metrics(main_tracer, check_tracer, cfg.eval_sequences).items()}
        metrics["bench.trace_overhead_pct"] = {
            "value": 100.0 * (statistics.median(traced_s) / statistics.median(untraced_s) - 1.0),
            "unit": "%"}
    else:
        # rates over the whole run (work / time), not medians of rounds: the
        # host's speed is bimodal, and a median jumps between the modes
        frame_ms = [ms for r in rounds for ms in r.frame_ms]
        trainings = rounds if workload.train_in_rounds else setups
        values = {
            "setup_s": (statistics.median(s.seconds for s in setups), "s"),
            "train_it_per_s": (cfg.iterations * len(trainings)
                               / sum(t.train_s for t in trainings), "iterations/s"),
            "eval_frames_per_s": (cfg.eval_sequences * cfg.eval_frames * len(rounds)
                                  / sum(r.eval_s for r in rounds), "frames/s"),
            "track_frame_ms_mean": (statistics.fmean(frame_ms), "ms"),
            "track_frame_ms_p90": (float(np.percentile(frame_ms, 90)), "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in values.items()}
        print(f"# {len(rounds)} rounds, {len(frame_ms)} tracked frames", file=sys.stderr)

    print(json.dumps({"correct": not errs, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
