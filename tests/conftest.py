import ctypes
import glob
import multiprocessing
import os

import numpy as np
import pytest

from ranktrack import configio, pipeline
from ranktrack.rng import SplitMix64


def pytest_report_header(config) -> list[str]:
    """The kernels the bit-pinning goldens run under: numpy's version and
    enabled SIMD dispatch targets, and the core and build of numpy's bundled
    OpenBLAS, found where ``numerics._pin_blas_threads`` finds it. Another
    fingerprint computes other last bits, so a golden may fail under it."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as umath
    targets = [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)]
    lines = [f"numpy {np.__version__}, SIMD dispatch: {', '.join(targets) or 'none'}"]
    pattern = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                           "libscipy_openblas*.so")
    try:
        lib = ctypes.CDLL(sorted(glob.glob(pattern))[0])
        corename, build = lib.scipy_openblas_get_corename64_, lib.scipy_openblas_get_config64_
    except (IndexError, OSError, AttributeError):
        return lines + ["OpenBLAS: numpy's bundled library was not found"]
    for fn in (corename, build):
        fn.argtypes, fn.restype = (), ctypes.c_char_p
    return lines + [f"OpenBLAS core: {corename().decode()}; build: {build().decode()}"]


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


def use_processes(monkeypatch, n: int) -> None:
    """Make ``train`` and ``evaluate`` see ``n`` usable CPUs, so they run
    min(batch_size, n) and min(sequence count, n) processes."""
    monkeypatch.setattr(pipeline, "_usable_cpus", lambda: n)


class SharedList:
    """An append-only list of integers in shared memory, so that what forked
    workers append reaches the process that made it."""

    def __init__(self, capacity: int = 1 << 16):
        ctx = multiprocessing.get_context("fork")
        self._items = ctx.Array("q", capacity)
        self._size = ctx.Value("l", 0, lock=False)

    def append(self, value: int) -> None:
        with self._items.get_lock():
            self._items[self._size.value] = value
            self._size.value += 1

    def __len__(self) -> int:
        return self._size.value

    def __iter__(self):
        return iter(self._items[:len(self)])


@pytest.fixture(autouse=True)
def no_process_left_behind():
    """Fail a test after which a child process of this one still runs: ``train``
    and ``evaluate`` join their workers on every path."""
    yield
    left = multiprocessing.active_children()
    for proc in left:
        proc.kill()
        proc.join()
    assert left == [], f"child processes left running: {left}"


@pytest.fixture(scope="session")
def trained_baseline():
    """One shared baseline model; training it per-test would dominate runtime."""
    cfg = quick_config()
    result = pipeline.train(cfg)
    return cfg, result


@pytest.fixture(scope="session")
def rng_points():
    return np.random.default_rng(20240)
