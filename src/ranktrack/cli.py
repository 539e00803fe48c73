"""Operator commands: synth, train, eval, gradcheck, ablation.

Exit codes are a stable contract, mapped in ``main`` alone: 0 success,
2 usage/config problems, 3 I/O failures, 4 numeric divergence during
training, 5 verification (gradient-check) failure. Every failure prints
one ``error:`` line. An input that cannot be read or parsed (a config,
spec, checkpoint or sequence directory) is a config problem, not an I/O
failure, and so is a checkpoint whose model computes a non-finite value
on frames in [0, 1]. All randomness comes from config seeds, which ``--seed``
overrides for synth and train. ``ablation`` runs ``train --seed s`` and ``eval``
into OUT/<arm>/seed<s>/ per ``--seed`` s (default: the arms' shared seed) and
arm config, named by its file's stem, one ablation.csv row each, seed-major.
Re-running any command over the same inputs rewrites byte-identical outputs.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import os
import sys

from . import configio, evalharness, pipeline, synthdata
from .configio import ConfigError
from .numerics import NonFiniteError
from .rng import SplitMix64

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_DIVERGED = 4
EXIT_VERIFY = 5


@contextlib.contextmanager
def _loading_inputs():
    """Inputs that cannot be read or parsed raise ConfigError (EXIT_CONFIG)."""
    try:
        yield
    except (OSError, ValueError) as e:
        raise ConfigError(str(e)) from None


def _load(path: str, cls=None, seed: int | None = None):
    """Read one key = value file, once: its text and its pairs, or, given
    ``cls``, its text and the ``cls`` it holds, with ``seed`` in place of
    the file's seed when given. A file that does not decode, parse or
    validate raises a ConfigError that names it."""
    try:
        with open(path, encoding="utf-8") as f:
            text = f.read()
        kv = configio.parse_kv(text)
        if cls is None:
            return text, kv
        if seed is not None:
            kv["seed"] = str(seed)
        return text, configio.from_kv(cls, kv)
    except ValueError as e:
        raise ConfigError(f"{path}: {e}") from None


def _row_name(name: str, path: str) -> str:
    """``name``, taken from ``path``, once checked to fit the first field of a CSV row."""
    if any(c in name for c in ",\n\r"):
        raise ConfigError(f"{path!r}: a name with ',', '\\n' or '\\r' would break a CSV row")
    return name


def _train_run(out_dir: str, cfg: pipeline.TrainConfig,
               config_text: str) -> pipeline.TrainResult:
    """Train ``cfg`` into ``out_dir``: a diagnostic snapshot when training
    diverges, otherwise the manifest, checkpoint and run log."""
    os.makedirs(out_dir, exist_ok=True)
    try:
        result = pipeline.train(cfg)
    except pipeline.DivergenceError as e:
        snap_path = os.path.join(out_dir, "divergence.txt")
        with contextlib.suppress(OSError):  # best effort: the error line still prints
            with open(snap_path, "w") as f:
                f.write(f"{e}\n{e.snapshot}\n")
            print(f"diagnostic snapshot written to {snap_path}", file=sys.stderr)
        raise
    kv = {"digest": configio.sha256_text(config_text), "out_dir": out_dir}
    kv.update(configio.to_kv(cfg))
    with open(os.path.join(out_dir, "manifest.txt"), "w") as f:
        f.write(configio.format_kv(kv))
    pipeline.save_checkpoint(result.params, os.path.join(out_dir, "checkpoint.bin"))
    pipeline.write_run_log(result.log, os.path.join(out_dir, "runlog.csv"))
    return result


def _write_eval(out_dir: str, report: evalharness.MetricReport,
                seqs: list[synthdata.Sequence]) -> str:
    """Write ``report``'s metrics and its success and precision curves on
    ``seqs``, and return the one-line summary that ``eval`` prints."""
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "metrics.csv"), "w") as f:
        f.write(evalharness.report_csv(report))
    all_preds = [b for p in report.predictions for b in p]
    all_gts = [b for s in seqs for b in s.gt]
    with open(os.path.join(out_dir, "success.csv"), "w") as f:
        f.write(evalharness.curve_csv(
            evalharness.success_curve(all_preds, all_gts), "threshold", "rate"))
    with open(os.path.join(out_dir, "precision.csv"), "w") as f:
        f.write(evalharness.curve_csv(
            evalharness.precision_curve(all_preds, all_gts), "radius", "rate"))
    return ", ".join(f"{k}={v:.4f}" for k, v in report.aggregate().items())


# -- commands ---------------------------------------------------------------------

def cmd_synth(args) -> int:
    with _loading_inputs():
        _, spec = _load(args.spec, synthdata.SequenceSpec, args.seed)
    seq = synthdata.gen_sequence(spec)
    synthdata.export_sequence(seq, args.out)
    print(f"wrote {len(seq)} frames to {args.out}")
    return EXIT_OK


def cmd_train(args) -> int:
    with _loading_inputs():
        config_text, cfg = _load(args.config, pipeline.TrainConfig, args.seed)
    result = _train_run(args.out, cfg, config_text)
    print(f"trained {cfg.iterations} iterations in {result.seconds:.1f}s; "
          f"final total {result.log[-1].total:.4f}")
    return EXIT_OK


def _check_run_sizes(checkpoint: str, cfg: pipeline.TrainConfig) -> None:
    """The checkpoint does not record the crop sizes it was trained at; the
    manifest that ``train`` writes next to it does, and they must match."""
    path = os.path.join(os.path.dirname(checkpoint), "manifest.txt")
    if not os.path.isfile(path):
        return
    _, kv = _load(path)
    for key in ("template_size", "search_size"):
        if kv.get(key) != str(getattr(cfg, key)):
            raise ConfigError(f"checkpoint was trained with {key}={kv.get(key)}, "
                              f"the config has {getattr(cfg, key)}")


def cmd_eval(args) -> int:
    names = None
    with _loading_inputs():
        _, cfg = _load(args.config, pipeline.TrainConfig)
        mp = pipeline.load_checkpoint(args.checkpoint)
        pipeline.check_params(mp, cfg)
        _check_run_sizes(args.checkpoint, cfg)
        if args.seqs:
            names = sorted(_row_name(d, os.path.join(args.seqs, d)) for d in os.listdir(args.seqs)
                           if os.path.isdir(os.path.join(args.seqs, d)))
            if not names:
                raise ValueError(f"no sequence directories under {args.seqs}")
            seqs = [synthdata.import_sequence(os.path.join(args.seqs, d)) for d in names]
    if names is None:
        seqs = pipeline.eval_pool(cfg)
    try:
        report = evalharness.evaluate(mp, seqs, cfg, names)
    except NonFiniteError as e:
        raise ConfigError(f"checkpoint {args.checkpoint}: its weights overflow: {e}") from None
    print(_write_eval(args.out, report, seqs))
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    from . import gradcheck
    failures = []
    for name, err, tol in gradcheck.run_suite(SplitMix64(20240)):
        status = "ok" if err < tol else "FAIL"
        print(f"{name:<26} max_rel_err={err:.3e}  tol={tol:.0e}  {status}")
        if err >= tol:
            failures.append(name)
    if failures:
        print(f"error: gradient check failed for: {', '.join(failures)}", file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


def cmd_ablation(args) -> int:
    names = [_row_name(os.path.splitext(os.path.basename(p))[0], p) for p in args.arms]
    for what, given in (("arm names", names + ["ablation.csv"]), ("seeds", args.seed or [])):
        if len(set(given)) < len(given):
            raise ConfigError(f"the {what} must differ: {' '.join(map(str, given))}")
    with _loading_inputs():
        arms = [(name, *_load(path, pipeline.TrainConfig, args.seed and args.seed[0]))
                for name, path in zip(names, args.arms)]
    first_name, _, first = arms[0]
    # every arm is evaluated on the first arm's eval pool
    for path, (_, _, cfg) in zip(args.arms, arms):
        for key in ("seed",) + pipeline.EVAL_POOL_FIELDS:
            if getattr(cfg, key) != getattr(first, key):
                raise ConfigError(f"{path}: {key} = {getattr(cfg, key)}, arm {first_name}'s is "
                                  f"{getattr(first, key)}; the arms must share seed and eval pool")

    rows = []
    seqs = pipeline.eval_pool(first)
    for seed in args.seed or [first.seed]:
        for name, config_text, cfg in arms:
            cfg = dataclasses.replace(cfg, seed=seed)
            run_dir = os.path.join(args.out, name, f"seed{seed}")
            try:
                result = _train_run(run_dir, cfg, config_text)
            except pipeline.DivergenceError as e:
                raise pipeline.DivergenceError(f"arm {name} seed {seed}: {e}", e.snapshot) from None
            report = evalharness.evaluate(result.params, seqs, cfg)
            print(f"arm {name} seed {seed}: {_write_eval(run_dir, report, seqs)}")
            rows.append((name, cfg, report))

    with open(os.path.join(args.out, "ablation.csv"), "w") as f:
        f.write(evalharness.ablation_table(rows))
    return EXIT_OK


# -- entry point --------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ranktrack",
        description="ranking-optimized Siamese matching on synthetic sequences")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate and export a synthetic sequence")
    p.add_argument("--spec", required=True, help="sequence spec file (key = value)")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=None, help="override the spec seed")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train one model from a config")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seqs", default=None,
                   help="directory of exported sequences (default: config eval pool)")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("gradcheck", help="run the finite-difference verification suite")
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("ablation", help="train and evaluate each arm at each seed")
    p.add_argument("--arms", nargs="+", required=True,
                   help="one config per arm; an arm is named by its file's stem")
    p.add_argument("--out", required=True, help="OUT/<arm>/seed<s>/ per run, and OUT/ablation.csv")
    p.add_argument("--seed", type=int, nargs="+", help="seeds in place of the arms' config seed")
    p.set_defaults(func=cmd_ablation)
    return parser


def main(argv=None) -> int:
    """Run one command and return its exit code: the command's own (EXIT_OK,
    or EXIT_VERIFY from gradcheck), or from the one map of failures to
    codes: ConfigError exits EXIT_CONFIG, DivergenceError EXIT_DIVERGED and
    OSError EXIT_IO, each with one ``error:`` line on stderr."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except pipeline.DivergenceError as e:
        print(f"error: training diverged: {e}", file=sys.stderr)
        return EXIT_DIVERGED
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_IO


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
