import numpy as np
import pytest

from ranktrack import configio, pipeline
from ranktrack.rng import SplitMix64


def quick_config(**overrides) -> pipeline.TrainConfig:
    """Small-but-real training config used across the suite."""
    base = dict(
        seed=7,
        template_size=64,
        search_size=128,
        iterations=500,
        train_sequences=6,
        frames_per_sequence=6,
        batch_size=4,
        lr=0.005,
        similarity=0.9,
        distractors=2,
        eval_sequences=4,
        eval_frames=6,
    )
    base.update(overrides)
    cfg = pipeline.TrainConfig(**base)
    cfg.validate()
    return cfg


def eval_argv(tmp_path, cfg: pipeline.TrainConfig, init_seed: int = 5) -> list[str]:
    """`ranktrack eval` arguments for cfg's eval pool with a seeded untrained
    checkpoint, writing into tmp_path/out."""
    cfg_path = tmp_path / "eval.cfg"
    cfg_path.write_text(configio.format_kv(configio.to_kv(cfg)))
    ckpt = tmp_path / "init.bin"
    pipeline.save_checkpoint(pipeline.init_params(cfg, SplitMix64(init_seed)), str(ckpt))
    return ["eval", "--checkpoint", str(ckpt), "--config", str(cfg_path),
            "--out", str(tmp_path / "out")]


@pytest.fixture(scope="session")
def trained_baseline():
    """One shared baseline model; training it per-test would dominate runtime."""
    cfg = quick_config()
    result = pipeline.train(cfg)
    return cfg, result


@pytest.fixture(scope="session")
def rng_points():
    return np.random.default_rng(20240)
