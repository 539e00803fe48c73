"""Operator commands: synth, train, eval, gradcheck, ablation.

Exit codes are a stable contract: 0 success, 2 usage/config problems,
3 I/O failures, 4 numeric divergence during training, 5 verification
(gradient-check) failure. All randomness comes from config seeds; the
only environment hook is RBO_SEED, which overrides the config seed for
CI sweeps. Re-running any command over the same inputs rewrites
byte-identical outputs.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import configio, evalharness, pipeline, synthdata
from . import numerics as nm
from .configio import ConfigError
from .rng import SplitMix64

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_DIVERGED = 4
EXIT_VERIFY = 5


def _read_text(path: str) -> str:
    with open(path) as f:
        return f.read()


def _env_seed() -> int | None:
    raw = os.environ.get("RBO_SEED")
    if raw is None:
        return None
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"RBO_SEED must be an integer, got {raw!r}") from None


def _load_train_config(path: str, seed_override: int | None) -> pipeline.TrainConfig:
    kv = configio.parse_kv(_read_text(path))
    cfg = pipeline.TrainConfig.from_kv(kv)
    seed = seed_override if seed_override is not None else _env_seed()
    if seed is not None:
        cfg.seed = seed
        cfg.validate()
    return cfg


def _write_run(out_dir: str, cfg: pipeline.TrainConfig, config_text: str,
               result: pipeline.TrainResult) -> None:
    """The artifacts of one training run: manifest, checkpoint and run log."""
    kv = {"digest": configio.sha256_text(config_text), "out_dir": out_dir}
    kv.update(cfg.to_kv())
    with open(os.path.join(out_dir, "manifest.txt"), "w") as f:
        f.write(configio.format_kv(kv))
    pipeline.save_checkpoint(result.params, os.path.join(out_dir, "checkpoint.bin"))
    pipeline.write_run_log(result.log, os.path.join(out_dir, "runlog.csv"))


# -- commands ---------------------------------------------------------------------

def cmd_synth(args) -> int:
    try:
        kv = configio.parse_kv(_read_text(args.spec))
        spec = synthdata.spec_from_kv(kv)
        seed = args.seed if args.seed is not None else _env_seed()
        if seed is not None:
            from dataclasses import replace
            spec = replace(spec, seed=seed)
    except FileNotFoundError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except (ConfigError, ValueError) as e:
        print(f"error: bad sequence spec: {e}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        seq = synthdata.gen_sequence(spec)
        synthdata.export_sequence(seq, args.out)
    except OSError as e:
        print(f"error: cannot write {args.out}: {e}", file=sys.stderr)
        return EXIT_IO
    print(f"wrote {len(seq)} frames to {args.out}")
    return EXIT_OK


def cmd_train(args) -> int:
    try:
        config_text = _read_text(args.config)
        cfg = _load_train_config(args.config, args.seed)
    except FileNotFoundError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except ConfigError as e:
        print(f"error: bad config: {e}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        os.makedirs(args.out, exist_ok=True)
    except OSError as e:
        print(f"error: cannot create {args.out}: {e}", file=sys.stderr)
        return EXIT_IO
    try:
        result = pipeline.train(cfg)
    except pipeline.DivergenceError as e:
        print(f"error: training diverged: {e}", file=sys.stderr)
        snap_path = os.path.join(args.out, "divergence.txt")
        try:
            with open(snap_path, "w") as f:
                f.write(f"{e}\n{e.snapshot}\n")
            print(f"diagnostic snapshot written to {snap_path}", file=sys.stderr)
        except OSError:
            pass
        return EXIT_DIVERGED
    try:
        _write_run(args.out, cfg, config_text, result)
    except OSError as e:
        print(f"error: cannot write outputs: {e}", file=sys.stderr)
        return EXIT_IO
    print(f"trained {cfg.iterations} iterations in {result.seconds:.1f}s; "
          f"final total {result.log[-1].total:.4f}")
    return EXIT_OK


def _check_run_sizes(checkpoint: str, cfg: pipeline.TrainConfig) -> None:
    """The checkpoint does not record the crop sizes it was trained at; the
    manifest that ``train`` writes next to it does, and they must match."""
    path = os.path.join(os.path.dirname(checkpoint), "manifest.txt")
    if not os.path.isfile(path):
        return
    kv = configio.parse_kv(_read_text(path))
    for key in ("template_size", "search_size"):
        if kv.get(key) != str(getattr(cfg, key)):
            raise ConfigError(f"checkpoint was trained with {key}={kv.get(key)}, "
                              f"the config has {getattr(cfg, key)}")


def _load_eval_inputs(args):
    cfg = _load_train_config(args.config, args.seed)
    mp = pipeline.load_checkpoint(args.checkpoint)
    pipeline.check_params(mp, cfg)
    _check_run_sizes(args.checkpoint, cfg)
    if args.seqs:
        dirs = sorted(d for d in os.listdir(args.seqs)
                      if os.path.isdir(os.path.join(args.seqs, d)))
        if not dirs:
            raise FileNotFoundError(f"no sequence directories under {args.seqs}")
        seqs = [synthdata.import_sequence(os.path.join(args.seqs, d)) for d in dirs]
        names = dirs
    else:
        seqs = pipeline.eval_pool(cfg)
        names = None
    return cfg, mp, seqs, names


def cmd_eval(args) -> int:
    try:
        cfg, mp, seqs, names = _load_eval_inputs(args)
    except FileNotFoundError as e:
        print(f"error: missing artifact: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except (ConfigError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    report = evalharness.evaluate(mp, seqs, cfg, names)
    try:
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, "metrics.csv"), "w") as f:
            f.write(evalharness.report_csv(report))
        all_preds = [b for p in report.predictions for b in p]
        all_gts = [b for s in seqs for b in s.gt]
        with open(os.path.join(args.out, "success.csv"), "w") as f:
            f.write(evalharness.curve_csv(
                evalharness.success_curve(all_preds, all_gts), "threshold", "rate"))
        with open(os.path.join(args.out, "precision.csv"), "w") as f:
            f.write(evalharness.curve_csv(
                evalharness.precision_curve(all_preds, all_gts), "radius", "rate"))
    except OSError as e:
        print(f"error: cannot write outputs: {e}", file=sys.stderr)
        return EXIT_IO
    agg = report.aggregate()
    print(", ".join(f"{k}={v:.4f}" for k, v in agg.items()))
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
    if len(args.arms) != 4:
        print("error: ablation requires exactly 4 arm configs "
              "(baseline, cr, cr_igr_ori, cr_igr)", file=sys.stderr)
        return EXIT_CONFIG
    arm_cfgs, arm_texts = {}, {}
    try:
        for arm_name, path in zip(evalharness.ARM_ORDER, args.arms):
            arm_texts[arm_name] = _read_text(path)
            arm_cfgs[arm_name] = _load_train_config(path, args.seed)
    except FileNotFoundError as e:
        print(f"error: missing arm config: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except ConfigError as e:
        print(f"error: bad arm config: {e}", file=sys.stderr)
        return EXIT_CONFIG

    base = arm_cfgs["baseline"]
    for arm_name, cfg in arm_cfgs.items():
        if (cfg.seed, cfg.eval_seed) != (base.seed, base.eval_seed):
            print("error: ablation arms must share seed and eval_seed", file=sys.stderr)
            return EXIT_CONFIG

    try:
        os.makedirs(args.out, exist_ok=True)
    except OSError as e:
        print(f"error: cannot create {args.out}: {e}", file=sys.stderr)
        return EXIT_IO

    reports = {}
    seqs = pipeline.eval_pool(base)
    for arm_name in evalharness.ARM_ORDER:
        cfg = arm_cfgs[arm_name]
        arm_dir = os.path.join(args.out, arm_name)
        try:
            result = pipeline.train(cfg)
        except pipeline.DivergenceError as e:
            print(f"error: arm {arm_name} diverged: {e}", file=sys.stderr)
            return EXIT_DIVERGED
        try:
            os.makedirs(arm_dir, exist_ok=True)
            _write_run(arm_dir, cfg, arm_texts[arm_name], result)
            report = evalharness.evaluate(result.params, seqs, cfg)
            reports[arm_name] = report
            with open(os.path.join(arm_dir, "metrics.csv"), "w") as f:
                f.write(evalharness.report_csv(report))
        except OSError as e:
            print(f"error: cannot write outputs: {e}", file=sys.stderr)
            return EXIT_IO
        agg = reports[arm_name].aggregate()
        print(f"arm {arm_name}: " + ", ".join(f"{k}={v:.4f}" for k, v in agg.items()))

    try:
        with open(os.path.join(args.out, "ablation.csv"), "w") as f:
            f.write(evalharness.ablation_table(reports, arm_cfgs))
    except OSError as e:
        print(f"error: cannot write ablation table: {e}", file=sys.stderr)
        return EXIT_IO
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
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("gradcheck", help="run the finite-difference verification suite")
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("ablation", help="train/evaluate the four loss arms")
    p.add_argument("--arms", nargs="+", required=True,
                   help="four configs: baseline, cr, cr_igr_ori, cr_igr")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_ablation)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
