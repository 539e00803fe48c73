from pathlib import Path

import numpy as np
import pytest

from ranktrack import cli, configio, pipeline, synthdata
from ranktrack.numerics import Tensor
from ranktrack.rng import SplitMix64

from conftest import eval_argv, quick_config


def test_eval_tracks_each_sequence_once(tmp_path, monkeypatch):
    calls = []
    track = pipeline.track

    def counting_track(mp, seq, cfg, *args, **kwargs):
        calls.append(seq)
        return track(mp, seq, cfg, *args, **kwargs)

    monkeypatch.setattr(pipeline, "track", counting_track)
    cfg = quick_config(eval_sequences=3, eval_frames=4)
    assert cli.main(eval_argv(tmp_path, cfg)) == cli.EXIT_OK
    assert len(calls) == cfg.eval_sequences
    assert len({id(seq) for seq in calls}) == cfg.eval_sequences
    for name in ("metrics.csv", "success.csv", "precision.csv"):
        assert (tmp_path / "out" / name).stat().st_size > 0


def _eval_exit(capsys, argv) -> tuple[int, str]:
    code = cli.main(argv)
    return code, capsys.readouterr().err


def _only_error_line(err: str, text: str) -> None:
    assert err.count("\n") == 1 and err.startswith("error: ") and text in err, err


class TestBadCheckpoints:
    """`eval` rejects a checkpoint that is damaged or belongs to another model
    with one error line and EXIT_CONFIG instead of a traceback or metrics."""

    @pytest.mark.parametrize("keep", [10, 60, -8])
    def test_truncated(self, tmp_path, capsys, keep):
        argv = eval_argv(tmp_path, quick_config())
        ckpt = tmp_path / "init.bin"
        ckpt.write_bytes(ckpt.read_bytes()[:keep])
        code, err = _eval_exit(capsys, argv)
        assert code == cli.EXIT_CONFIG
        _only_error_line(err, "truncated checkpoint")

    def test_corr_mode_mismatch(self, tmp_path, capsys):
        argv = eval_argv(tmp_path, quick_config())
        pipeline.save_checkpoint(
            pipeline.init_params(quick_config(corr_mode="pw"), SplitMix64(5)),
            str(tmp_path / "init.bin"))
        code, err = _eval_exit(capsys, argv)
        assert code == cli.EXIT_CONFIG
        _only_error_line(err, "corr_mode=pw")

    def test_tensor_shape_mismatch(self, tmp_path, capsys):
        cfg = quick_config()
        argv = eval_argv(tmp_path, cfg)
        mp = pipeline.init_params(cfg, SplitMix64(5))
        mp.params["cls2_b"] = Tensor(np.zeros((3, 1, 1)), requires_grad=True)
        pipeline.save_checkpoint(mp, str(tmp_path / "init.bin"))
        code, err = _eval_exit(capsys, argv)
        assert code == cli.EXIT_CONFIG
        _only_error_line(err, "checkpoint tensors do not match")

    def test_crop_size_mismatch(self, tmp_path, capsys):
        trained = quick_config(iterations=1, eval_sequences=2, eval_frames=3)
        cfg_path = tmp_path / "train.cfg"
        cfg_path.write_text(configio.format_kv(trained.to_kv()))
        run_dir = tmp_path / "run"
        assert cli.main(["train", "--config", str(cfg_path), "--out", str(run_dir)]) == 0
        ckpt = str(run_dir / "checkpoint.bin")
        argv = eval_argv(tmp_path, quick_config(template_size=72, search_size=144,
                                                eval_sequences=2, eval_frames=3))
        argv[argv.index("--checkpoint") + 1] = ckpt
        capsys.readouterr()
        code, err = _eval_exit(capsys, argv)
        assert code == cli.EXIT_CONFIG
        _only_error_line(err, "template_size=64")
        # the same checkpoint under its own config evaluates
        assert cli.main(["eval", "--checkpoint", ckpt, "--config", str(cfg_path),
                         "--out", str(tmp_path / "ok")]) == cli.EXIT_OK


class TestBadSequenceDirs:
    """`eval --seqs` rejects a malformed sequence directory with one error
    line and EXIT_CONFIG instead of a traceback or metrics."""

    @staticmethod
    def exported(tmp_path) -> tuple[list[str], Path]:
        seq_dir = tmp_path / "seqs" / "seq0"
        synthdata.export_sequence(synthdata.gen_sequence(synthdata.SequenceSpec(seed=3, frames=5)),
                                  str(seq_dir))
        argv = eval_argv(tmp_path, quick_config()) + ["--seqs", str(tmp_path / "seqs")]
        return argv, seq_dir

    def test_block_missing_a_frame(self, tmp_path, capsys):
        argv, seq_dir = self.exported(tmp_path)
        ann = seq_dir / "annotations.txt"
        ann.write_text("\n".join(line for line in ann.read_text().split("\n")
                                 if not line.startswith("3 ")))
        code, err = _eval_exit(capsys, argv)
        assert code == cli.EXIT_CONFIG
        _only_error_line(err, "no line for frame 3")

    def test_no_target_block(self, tmp_path, capsys):
        argv, seq_dir = self.exported(tmp_path)
        (seq_dir / "annotations.txt").write_text("")
        code, err = _eval_exit(capsys, argv)
        assert code == cli.EXIT_CONFIG
        _only_error_line(err, "no target block")

    def test_frames_of_different_shapes(self, tmp_path, capsys):
        argv, seq_dir = self.exported(tmp_path)
        small = tmp_path / "small"
        synthdata.export_sequence(synthdata.gen_sequence(synthdata.SequenceSpec(
            seed=3, frames=1, image_size=80, target_size=20.0)), str(small))
        (seq_dir / "frame_000002.ppm").write_bytes((small / "frame_000000.ppm").read_bytes())
        code, err = _eval_exit(capsys, argv)
        assert code == cli.EXIT_CONFIG
        _only_error_line(err, "frame_000002.ppm has shape (3, 80, 80)")
