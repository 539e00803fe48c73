import hashlib
import struct
from pathlib import Path

import numpy as np
import pytest

from ranktrack import cli, configio, gradcheck, pipeline, synthdata
from ranktrack.numerics import Tensor
from ranktrack.rng import SplitMix64

from conftest import eval_argv, quick_config


def test_eval_tracks_each_sequence_once(tmp_path, monkeypatch):
    calls = []
    track = pipeline.track

    def counting_track(mp, template, seq, cfg):
        calls.append(seq)
        return track(mp, template, seq, cfg)

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
        cfg_path.write_text(configio.format_kv(configio.to_kv(trained)))
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

    def test_truncated_frame(self, tmp_path, capsys):
        argv, seq_dir = self.exported(tmp_path)
        frame = seq_dir / "frame_000001.ppm"
        frame.write_bytes(frame.read_bytes()[:-1])
        code, err = _eval_exit(capsys, argv)
        assert code == cli.EXIT_CONFIG
        _only_error_line(err, f"{frame}: truncated: 76799 pixel bytes for a 160x160 image")

    def test_annotation_line_without_five_fields(self, tmp_path, capsys):
        argv, seq_dir = self.exported(tmp_path)
        ann = seq_dir / "annotations.txt"
        lines = ann.read_text().split("\n")
        lines[2] = " ".join(lines[2].split()[:4])
        ann.write_text("\n".join(lines))
        code, err = _eval_exit(capsys, argv)
        assert code == cli.EXIT_CONFIG
        _only_error_line(err, f"{ann}: line 3: expected 'frame x1 y1 x2 y2'")

    def test_annotation_box_inside_out(self, tmp_path, capsys):
        argv, seq_dir = self.exported(tmp_path)
        ann = seq_dir / "annotations.txt"
        lines = ann.read_text().split("\n")
        t, x1, y1, x2, y2 = lines[7].split()
        lines[7] = " ".join([t, x2, y1, x1, y2])
        ann.write_text("\n".join(lines))
        code, err = _eval_exit(capsys, argv)
        assert code == cli.EXIT_CONFIG
        _only_error_line(err, f"{ann}: line 8: degenerate box extents")

    def annotated(self, tmp_path, edit) -> tuple[list[str], Path]:
        """An exported directory whose annotation lines ``edit`` changes in place."""
        argv, seq_dir = self.exported(tmp_path)
        ann = seq_dir / "annotations.txt"
        lines = ann.read_text().split("\n")
        edit(lines)
        ann.write_text("\n".join(lines))
        return argv, ann

    @pytest.mark.parametrize("field,value", [(3, "nan"), (3, "inf"), (1, "-inf"), (2, "nan")])
    def test_annotation_coordinate_not_finite(self, tmp_path, capsys, field, value):
        def edit(lines):
            fields = lines[7].split()
            fields[field] = value
            lines[7] = " ".join(fields)
        argv, ann = self.annotated(tmp_path, edit)
        code, err = _eval_exit(capsys, argv)
        assert code == cli.EXIT_CONFIG
        _only_error_line(err, f"{ann}: line 8: degenerate box extents")

    def test_second_line_for_a_frame(self, tmp_path, capsys):
        argv, ann = self.annotated(tmp_path, lambda lines: lines.insert(3, "2 1.0 2.0 3.0 4.0"))
        code, err = _eval_exit(capsys, argv)
        assert code == cli.EXIT_CONFIG
        _only_error_line(err, f"{ann}: line 4: a second line for frame 2 in this block")

    @pytest.mark.parametrize("corner, ok", [({1: "-16000.0"}, True), ({1: "-16000.5"}, False),
                                            ({2: "-16000.0"}, True), ({2: "-16000.5"}, False),
                                            ({3: "16160.0"}, True), ({3: "16160.5"}, False),
                                            ({4: "16160.0"}, True), ({4: "16160.5"}, False),
                                            ({1: "-1e308", 3: "1e308"}, False)])
    def test_annotation_box_beyond_reach(self, tmp_path, capsys, corner, ok):
        # the frames are 160 px square: corners may lie up to 100 * 160 px
        # outside them, in a distractor block too
        def edit(lines):
            fields = lines[7].split()
            for i, value in corner.items():
                fields[i] = value
            lines[7] = " ".join(fields)
        argv, ann = self.annotated(tmp_path, edit)
        code, err = _eval_exit(capsys, argv)
        if ok:
            assert code == cli.EXIT_OK, err
        else:
            assert code == cli.EXIT_CONFIG
            _only_error_line(err, f"{ann}: line 8: a box corner lies more than 100 frame "
                                  "sizes outside the 160x160 frame")

    @pytest.mark.parametrize("frame", ["7", "-1", "5"])
    def test_frame_number_outside_the_sequence(self, tmp_path, capsys, frame):
        argv, ann = self.annotated(tmp_path,
                                   lambda lines: lines.insert(8, f"{frame} 1.0 2.0 3.0 4.0"))
        code, err = _eval_exit(capsys, argv)
        assert code == cli.EXIT_CONFIG
        _only_error_line(err, f"{ann}: line 9: frame {frame} is outside 0..4")

    @pytest.mark.parametrize("size", ["0 0", "0 160", "160 0"])
    def test_frame_without_pixels(self, tmp_path, capsys, size):
        argv, seq_dir = self.exported(tmp_path)
        frame = seq_dir / "frame_000003.ppm"
        frame.write_bytes(f"P6\n{size}\n255\n".encode())
        code, err = _eval_exit(capsys, argv)
        assert code == cli.EXIT_CONFIG
        _only_error_line(err, f"{frame}: a {size.replace(' ', 'x')} image has no pixels")


# sha256 of the files `train` and `synth` write, taken before the config codec
# and the command error handling were rewritten; that rewrite keeps every byte.
# manifest.txt was re-taken when the config lost its rank warm-up field: the
# manifest echoes every field, so it lost that field's line and nothing else.
# The checkpoint and run log did not move then; they moved in their last bits
# when one class log-softmax fed the loss and its hard negatives, and again
# when training crops were sized from their own frame's box. manifest.txt
# was re-taken once more when it stopped recording out_dir, the one line that
# differed between copies of a run in two directories.
TRAIN_CONFIG = """# 64/128 dw, CR + IGR
seed = 7
template_size = 64
search_size = 128
iterations = 3
train_sequences = 6
frames_per_sequence = 6
similarity = 0.9
rank_cls = true
rank_iou = yes
"""
TRAIN_ARTIFACT_GOLDENS = {
    "manifest.txt": "9753b4d281e3494af647c56345382f61f5bcfc21faa143dada356421707c1d61",
    "runlog.csv": "901e9f261b0a2de75af1ee5955d72bc27e3004387935bf7741d22b984d606c62",
    "checkpoint.bin": "921f07fe2857c5cdcb48c0f6eeb107951722f6a56ebcfc68a40a91e8aec91ad8",
}
SPEC_TEXTS = {
    "drawn": ("seed = 3\nframes = 2\nshape = ellipse\n", []),
    "given": ("seed = 3\nframes = 2\ncolor = 0.2, 0.5,0.8\nnoise_sigma = 0.1\n", []),
    "seeded": ("frames = 2\n", ["--seed", "11"]),
}
SPEC_GOLDENS = {
    "drawn": "4dccd76b524f1d64731c4587b829fb9f9b22b7bd8a96916df261e3e8d0f9d526",
    "given": "5d55d65132a9cd8693bb5113c5acbce218f360db7f290fdce16d9b4b2427b02d",
    "seeded": "580e6c1fd126821910710d9cdbe08bd28964f94e0fa3e8696108c7b91f9dd732",
}


def _sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def test_train_artifacts_golden(tmp_path):
    (tmp_path / "train.cfg").write_text(TRAIN_CONFIG)
    run = tmp_path / "run"
    assert cli.main(["train", "--config", str(tmp_path / "train.cfg"),
                     "--out", str(run)]) == cli.EXIT_OK
    assert {n: _sha256(run / n) for n in TRAIN_ARTIFACT_GOLDENS} == TRAIN_ARTIFACT_GOLDENS


@pytest.mark.parametrize("case", SPEC_GOLDENS)
def test_synth_spec_golden(tmp_path, case):
    text, extra = SPEC_TEXTS[case]
    (tmp_path / "spec.cfg").write_text(text)
    out = tmp_path / "seq"
    assert cli.main(["synth", "--spec", str(tmp_path / "spec.cfg"), "--out", str(out)]
                    + extra) == cli.EXIT_OK
    assert _sha256(out / "spec.txt") == SPEC_GOLDENS[case]


# -- exit codes ---------------------------------------------------------------------

TINY_CONFIG = """template_size = 64
search_size = 128
iterations = 3
train_sequences = 2
frames_per_sequence = 3
eval_sequences = 1
eval_frames = 2
"""
CASE_TEXTS = {
    "unknown-key": "distractor = 4\n",
    "bad-value": "frames = abc\n",
    "two-colour-components": "color = 0.1,0.2\n",
    "diverges": TINY_CONFIG + "lr = 1e6\n",
    "nan-noise": "noise_sigma = nan\n",
    "infinite-motion": "motion_sigma = inf\n",
    "nan-colour": "color = 0.1,nan,0.2\n",
    "zero-target": "target_size = 0\n",
    "nan-lr": TINY_CONFIG + "lr = nan\n",
    "infinite-shift": TINY_CONFIG + "shift_aug = -inf\n",
    "similarity-above-one": TINY_CONFIG + "similarity = 1.5\n",
    "target-too-large": TINY_CONFIG + "target_size = 90\n",
    "in-channels-1": TINY_CONFIG + "in_channels = 1\n",
    "negative-rank-weight": TINY_CONFIG + "rank_cls = true\nw_rank_cls = -0.5\n",
    "tau-neg-one": TINY_CONFIG + "rank_cls = true\ntau_neg = 1\n",
    "momentum-one": TINY_CONFIG + "momentum = 1\n",
    "other-eval-pool": TINY_CONFIG.replace("eval_sequences = 1\neval_frames = 2",
                                           "eval_sequences = 3\neval_frames = 5")
                       + "similarity = 0.5\n",
    "other-scene": TINY_CONFIG + "similarity = 0.5\n",
    "other-seed": TINY_CONFIG + "seed = 8\n",
    "no-equals": TINY_CONFIG + "rank_cls\n",
    "empty-key": TINY_CONFIG + " = 3\n",
    "duplicate-key": TINY_CONFIG + "iterations = 4\n",
    "corr-mode-xx": TINY_CONFIG + "corr_mode = xx\n",
    "template-not-smaller": TINY_CONFIG.replace("search_size = 128", "search_size = 64"),
    "template-4": TINY_CONFIG.replace("template_size = 64", "template_size = 4"),
    "negative-distractors": "distractors = -1\n",
    "negative-noise": "noise_sigma = -0.1\n",
}
# how `eval`'s checkpoint, input.bin, is damaged: the second value of a
# weight set (a non-finite value, or a finite loc2_b that overflows the
# offsets' exp), bytes appended, or the size fields of its first tensor,
# bb1_w (16, 3, 2, 2), rewritten: a shape of 60000**4 values, beyond int64,
# or 0xFFFFFFF0 dimensions; or its version or its header rewritten
BB1_W_SIZES = b"bb1_w" + struct.pack("<5I", 4, 16, 3, 2, 2)
DAMAGED_CHECKPOINTS = {
    "nan-weight": ("cls2_b", np.nan), "inf-weight": ("cls2_b", np.inf),
    "overflowing-weight": ("loc2_b", 1e3), "trailing-bytes": b"\0",
    "huge-shape": lambda data: data.replace(
        BB1_W_SIZES, b"bb1_w" + struct.pack("<5I", 4, *[60000] * 4), 1),
    "huge-ndim": lambda data: data.replace(
        BB1_W_SIZES, b"bb1_w" + struct.pack("<5I", 0xFFFFFFF0, 16, 3, 2, 2), 1),
    "version-2": lambda data: data[:4] + struct.pack("<I", 2) + data[8:],
    "header-without-in-channels": lambda data: data.replace(
        struct.pack("<I", 26) + b"corr_mode=dw;in_channels=3",
        struct.pack("<I", 12) + b"corr_mode=dw", 1),
}
# `eval --seqs` reads one exported sequence whose target block has this line
# in place of the line of the frame it names, in annotations.txt
ANNOTATION_LINES = {"far-box": "2 -1e308 10.0 1e308 40.0", "zero-box": "0 20.0 30.0 20.0 30.0",
                    "underflowing-box": "0 0.0 0.0 1e-200 1e-200",
                    "later-zero-box": "2 20.0 30.0 20.0 30.0"}
ANNOTATIONS = Path("seqs") / "seq0" / "annotations.txt"
# ... or whose second frame has these bytes
DAMAGED_FRAME = ANNOTATIONS.with_name("frame_000001.ppm")
DAMAGED_FRAMES = {"not-p6": b"P3\n1 1\n255\n0 0 0\n",
                  "maxval-65535": b"P6\n1 1\n65535\n" + bytes(6)}
ZERO_SIDE_BOX = "line 1: the target box of frame 0 has a context square of side 0"
# `eval --seqs` reads one exported sequence, and `ablation` its second arm,
# under a name that would break the first field of a CSV row, or that would
# put the arm's runs where ablation.csv goes; or `eval --seqs` reads the one
# sequence exported straight into it, so that it holds no sequence directory
COMMA_NAMES = {"comma-sequence": Path("seqs") / "a,b", "comma-arm": Path("a,b.cfg"),
               "table-name": Path("ablation.csv.cfg"), "no-sequences": Path("seqs")}
CSV_NAME = "a name with ',', '\\n' or '\\r' would break a CSV row"
EXIT_CASES = [(f"{c}-{k}", cli.EXIT_CONFIG, text) for c in ("synth", "train", "eval", "ablation")
              for k, text in (("missing", "No such file"), ("directory", "Is a directory"),
                              ("non-utf8", "codec can't decode"))] + [
    ("synth-unknown-key", cli.EXIT_CONFIG, "unknown config field(s): distractor"),
    ("synth-bad-value", cli.EXIT_CONFIG, "field 'frames': cannot parse 'abc'"),
    ("synth-two-colour-components", cli.EXIT_CONFIG, "color must have 3 components"),
    ("synth-nan-noise", cli.EXIT_CONFIG, "field 'noise_sigma' must be finite"),
    ("synth-infinite-motion", cli.EXIT_CONFIG, "field 'motion_sigma' must be finite"),
    ("synth-nan-colour", cli.EXIT_CONFIG, "field 'color' must be finite"),
    ("synth-zero-target", cli.EXIT_CONFIG, "field 'target_size' must be positive"),
    ("train-nan-lr", cli.EXIT_CONFIG, "field 'lr' must be finite"),
    ("train-infinite-shift", cli.EXIT_CONFIG, "field 'shift_aug' must be finite"),
    ("eval-nan-lr", cli.EXIT_CONFIG, "field 'lr' must be finite"),
    ("train-similarity-above-one", cli.EXIT_CONFIG, "field 'similarity' must lie in [0, 1]"),
    ("train-target-too-large", cli.EXIT_CONFIG, "field 'target_size' must be less than half"),
    ("eval-similarity-above-one", cli.EXIT_CONFIG, "field 'similarity' must lie in [0, 1]"),
    ("eval-nan-weight", cli.EXIT_CONFIG, "non-finite value in tensor 'cls2_b' of checkpoint"),
    ("eval-inf-weight", cli.EXIT_CONFIG, "non-finite value in tensor 'cls2_b' of checkpoint"),
    ("eval-trailing-bytes", cli.EXIT_CONFIG, "bytes after the last tensor, 'loc2_b', of checkpoint"),
    ("eval-overflowing-weight", cli.EXIT_CONFIG,
     "its weights overflow: exp produced a non-finite value"),
    ("eval-far-box", cli.EXIT_CONFIG,
     "line 3: a box corner lies more than 100 frame sizes outside the 160x160 frame"),
    ("eval-huge-shape", cli.EXIT_CONFIG, "truncated checkpoint"),
    ("eval-huge-ndim", cli.EXIT_CONFIG, "truncated checkpoint"),
    ("eval-zero-box", cli.EXIT_CONFIG, ZERO_SIDE_BOX),
    ("eval-underflowing-box", cli.EXIT_CONFIG, ZERO_SIDE_BOX),
    ("eval-later-zero-box", cli.EXIT_CONFIG,
     "line 3: the target box of frame 2 has a context square of side 0"),
    ("train-in-channels-1", cli.EXIT_CONFIG, "field 'in_channels' must be 3"),
    ("ablation-in-channels-1", cli.EXIT_CONFIG, "field 'in_channels' must be 3"),
    ("train-negative-rank-weight", cli.EXIT_CONFIG, "field 'w_rank_cls' must be non-negative"),
    ("train-tau-neg-one", cli.EXIT_CONFIG, "field 'tau_neg' must be less than 1"),
    ("ablation-tau-neg-one", cli.EXIT_CONFIG, "field 'tau_neg' must be less than 1"),
    ("train-momentum-one", cli.EXIT_CONFIG, "field 'momentum' must be less than 1"),
    ("ablation-same-name", cli.EXIT_CONFIG,
     "the arm names must differ: first input input ablation.csv"),
    ("ablation-table-name", cli.EXIT_CONFIG,
     "the arm names must differ: first ablation.csv ablation.csv"),
    ("ablation-same-seed", cli.EXIT_CONFIG, "the seeds must differ: 1 1"),
    ("eval-comma-sequence", cli.EXIT_CONFIG, CSV_NAME),
    ("train-no-equals", cli.EXIT_CONFIG, "line 8: expected 'key = value', got 'rank_cls'"),
    ("train-empty-key", cli.EXIT_CONFIG, "line 8: empty key"),
    ("train-duplicate-key", cli.EXIT_CONFIG, "line 8: duplicate key 'iterations'"),
    ("train-corr-mode-xx", cli.EXIT_CONFIG, "corr_mode must be 'dw' or 'pw'"),
    ("train-template-not-smaller", cli.EXIT_CONFIG,
     "template_size must be smaller than search_size"),
    ("train-template-4", cli.EXIT_CONFIG, "template_size too small for the backbone"),
    ("synth-negative-distractors", cli.EXIT_CONFIG, "field 'distractors' must be non-negative"),
    ("synth-negative-noise", cli.EXIT_CONFIG, "field 'noise_sigma' must be non-negative"),
    ("eval-no-sequences", cli.EXIT_CONFIG, "no sequence directories under"),
    ("eval-not-p6", cli.EXIT_CONFIG, "not a binary PPM file"),
    ("eval-maxval-65535", cli.EXIT_CONFIG, "only maxval 255 PPMs are supported"),
    ("eval-version-2", cli.EXIT_CONFIG, "unsupported checkpoint version 2"),
    ("eval-header-without-in-channels", cli.EXIT_CONFIG, "bad checkpoint header"),
    ("ablation-comma-arm", cli.EXIT_CONFIG, CSV_NAME),
    ("ablation-other-eval-pool", cli.EXIT_CONFIG,
     "eval_sequences = 3, arm first's is 1; the arms must share seed and eval pool"),
    ("ablation-other-scene", cli.EXIT_CONFIG, "similarity = 0.5, arm first's is 0.85"),
    ("ablation-other-seed", cli.EXIT_CONFIG, "seed = 8, arm first's is 7"),
    ("synth-out-under-file", cli.EXIT_IO, "Not a directory"),
    ("train-out-under-file", cli.EXIT_IO, "Not a directory"),
    ("ablation-out-under-file", cli.EXIT_IO, "Not a directory"),
    ("train-diverges", cli.EXIT_DIVERGED, "training diverged: non-finite loss at iteration 1:"),
    ("ablation-diverges", cli.EXIT_DIVERGED,
     "training diverged: arm input seed 7: non-finite loss at iteration 1:"),
]


def exit_case_argv(tmp_path, case: str) -> list[str]:
    """The command named first in ``case``, reading the input the rest of
    ``case`` names as its spec, its config, its checkpoint, its sequence
    directory or its second arm."""
    command, what = case.split("-", 1)
    path, out, first = tmp_path / "input.cfg", tmp_path / "out", tmp_path / "first.cfg"
    first.write_text(TINY_CONFIG)
    if what in ("comma-arm", "table-name"):
        path = tmp_path / COMMA_NAMES[what]
    if what == "directory":
        path.mkdir()
    elif what == "non-utf8":
        path.write_bytes(b"seed = 7\n# caf\xe9\n")
    elif what != "missing":
        path.write_text(CASE_TEXTS.get(what, "frames = 2\n" if command == "synth" else TINY_CONFIG))
    if what == "out-under-file":
        (tmp_path / "file").write_text("")
        out = tmp_path / "file" / "out"
    if command == "ablation":
        arms = [first, path] + ([tmp_path / "again" / "input.cfg"] if what == "same-name" else [])
        seeds = ["--seed", "1", "1"] if what == "same-seed" else []
        return ["ablation", "--arms", *map(str, arms), "--out", str(out)] + seeds
    flag = "--spec" if command == "synth" else "--config"
    extra = ["--checkpoint", str(tmp_path / "none.bin")] if command == "eval" else []
    sequence = (what in ANNOTATION_LINES or what in DAMAGED_FRAMES
                or what in ("comma-sequence", "no-sequences"))
    if what in DAMAGED_CHECKPOINTS or sequence:
        damage, ckpt = DAMAGED_CHECKPOINTS.get(what), tmp_path / "input.bin"
        cfg = configio.from_kv(pipeline.TrainConfig, configio.parse_kv(TINY_CONFIG))
        mp = pipeline.init_params(cfg, SplitMix64(5))
        if isinstance(damage, tuple):
            name, value = damage
            mp.params[name].data.reshape(-1)[1] = value
        pipeline.save_checkpoint(mp, str(ckpt))
        if isinstance(damage, bytes):
            ckpt.write_bytes(ckpt.read_bytes() + damage)
        elif callable(damage):
            data = ckpt.read_bytes()
            assert data.count(BB1_W_SIZES) == 1
            ckpt.write_bytes(damage(data))
        extra = ["--checkpoint", str(ckpt)]
    if sequence:
        seq_dir = tmp_path / COMMA_NAMES.get(what, ANNOTATIONS.parent)
        synthdata.export_sequence(synthdata.gen_sequence(synthdata.SequenceSpec(seed=3, frames=5)),
                                  str(seq_dir))
        if what in ANNOTATION_LINES:
            ann, line = seq_dir / ANNOTATIONS.name, ANNOTATION_LINES[what]
            lines = ann.read_text().split("\n")
            lines[int(line.split()[0])] = line
            ann.write_text("\n".join(lines))
        if what in DAMAGED_FRAMES:
            (tmp_path / DAMAGED_FRAME).write_bytes(DAMAGED_FRAMES[what])
        extra += ["--seqs", str(tmp_path / ANNOTATIONS.parts[0])]
    return [command, flag, str(path), "--out", str(out)] + extra


@pytest.mark.parametrize("case,code,text", EXIT_CASES, ids=[c for c, _, _ in EXIT_CASES])
def test_exit_codes(tmp_path, capsys, case, code, text):
    """Each failure exits with its code and exactly one ``error:`` line; an
    input file that cannot be read or parsed is named in it."""
    assert cli.main(exit_case_argv(tmp_path, case)) == code
    err = capsys.readouterr().err
    errors = [line for line in err.splitlines() if line.startswith("error: ")]
    assert len(errors) == 1 and text in errors[0] and "Traceback" not in err, err
    if code == cli.EXIT_CONFIG and not case.endswith(("same-name", "same-seed", "table-name")):
        what = case.split("-", 1)[1]
        named = ("input.bin" if what in DAMAGED_CHECKPOINTS
                 else ANNOTATIONS if what in ANNOTATION_LINES
                 else DAMAGED_FRAME if what in DAMAGED_FRAMES
                 else COMMA_NAMES.get(what, "input.cfg"))
        assert str(tmp_path / named) in errors[0], "the error names the input file"
    if code == cli.EXIT_DIVERGED:  # ablation's diverging arm is the second, input
        run_dir = tmp_path / "out" / ("input/seed7" if case.startswith("ablation") else "")
        assert (run_dir / "divergence.txt").read_text().startswith(
            "non-finite loss at iteration 1:")


# two arms whose file seeds differ, which --seed overrides
ARM_TEXTS = {"plain": TINY_CONFIG + "seed = 3\n",
             "cr_igr": TINY_CONFIG + "seed = 5\nrank_cls = true\nrank_iou = true\n"}
RUN_FILES = ("manifest.txt", "checkpoint.bin", "runlog.csv", "metrics.csv", "success.csv",
             "precision.csv")


def test_ablation_is_train_then_eval_per_arm_and_seed(tmp_path, monkeypatch):
    """Each OUT/<arm>/seed<s>/ holds the files that `train --seed s` and then
    `eval` of the arm's config write, with their bytes, and ablation.csv holds
    each run's aggregate, seed-major."""
    monkeypatch.chdir(tmp_path)
    for name, text in ARM_TEXTS.items():
        Path(f"{name}.cfg").write_text(text.replace("iterations = 3", "iterations = 2"))
    assert cli.main(["ablation", "--arms", "plain.cfg", "cr_igr.cfg", "--seed", "1", "2",
                     "--out", "abl"]) == cli.EXIT_OK
    rows = [line.split(",") for line in Path("abl/ablation.csv").read_text().splitlines()[1:]]
    runs = [("plain", 1), ("cr_igr", 1), ("plain", 2), ("cr_igr", 2)]
    assert [(row[0], int(row[4])) for row in rows] == runs
    for (name, seed), row in zip(runs, rows):
        run, ref = Path("abl") / name / f"seed{seed}", Path(f"ref-{name}-{seed}")
        assert cli.main(["train", "--config", f"{name}.cfg", "--seed", str(seed),
                         "--out", str(ref)]) == cli.EXIT_OK
        assert cli.main(["eval", "--checkpoint", str(ref / "checkpoint.bin"),
                         "--config", f"{name}.cfg", "--out", str(ref)]) == cli.EXIT_OK
        assert sorted(p.name for p in run.iterdir()) == sorted(p.name for p in ref.iterdir())
        for f in RUN_FILES:
            assert (run / f).read_bytes() == (ref / f).read_bytes(), (name, seed, f)
        assert f"seed = {seed}\n" in (run / "manifest.txt").read_text()
        assert row[5:] == (run / "metrics.csv").read_text().splitlines()[-1].split(",")[1:]


def test_a_run_directory_holds_one_run(tmp_path, capsys):
    """`train` first removes the files that an earlier run or its evaluation
    left in its directory, and no other file: a good run leaves no diverged
    run's snapshot behind, a diverged run no good run's checkpoint, and a
    re-run rewrites the same bytes."""
    good, bad, run = tmp_path / "good.cfg", tmp_path / "bad.cfg", tmp_path / "run"
    good.write_text(TINY_CONFIG)
    bad.write_text(CASE_TEXTS["diverges"])
    run.mkdir()
    (run / "notes.txt").write_text("kept\n")

    def train(cfg: Path) -> int:
        return cli.main(["train", "--config", str(cfg), "--out", str(run)])

    def files() -> dict[str, bytes]:
        return {p.name: p.read_bytes() for p in run.iterdir()}

    assert train(bad) == cli.EXIT_DIVERGED
    assert train(good) == cli.EXIT_OK
    first = files()
    assert sorted(first) == ["checkpoint.bin", "manifest.txt", "notes.txt", "runlog.csv"]
    assert cli.main(["eval", "--checkpoint", str(run / "checkpoint.bin"), "--config", str(good),
                     "--out", str(run)]) == cli.EXIT_OK
    assert train(good) == cli.EXIT_OK
    assert files() == first
    assert train(bad) == cli.EXIT_DIVERGED
    assert sorted(files()) == ["divergence.txt", "notes.txt"]


def test_an_ablation_run_directory_holds_one_run(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    Path("plain.cfg").write_text(TINY_CONFIG)
    run = Path("abl") / "plain" / "seed7"
    run.mkdir(parents=True)
    (run / "divergence.txt").write_text("an earlier run diverged\n")
    assert cli.main(["ablation", "--arms", "plain.cfg", "--out", "abl"]) == cli.EXIT_OK
    assert sorted(p.name for p in run.iterdir()) == sorted(RUN_FILES)


@pytest.mark.parametrize("worst,code", [(2e-4, cli.EXIT_OK), (2e-3, cli.EXIT_VERIFY)])
def test_gradcheck_prints_each_check_and_fails_on_one_above_its_tolerance(
        monkeypatch, capsys, worst, code):
    checks = [("softmax", 1e-9, 1e-4), ("end_to_end_total", worst, 1e-3)]
    monkeypatch.setattr(gradcheck, "run_suite", lambda rng: checks)
    assert cli.main(["gradcheck"]) == code
    out, err = capsys.readouterr()
    lines = out.splitlines()
    assert [line.split()[0] for line in lines] == ["softmax", "end_to_end_total"]
    assert lines[1].endswith("ok" if code == cli.EXIT_OK else "FAIL")
    if code == cli.EXIT_OK:
        assert err == ""
    else:
        _only_error_line(err, "gradient check failed for: end_to_end_total")


def test_train_reads_its_config_once(tmp_path, monkeypatch):
    """The manifest's digest and the trained config come from one read, so a
    config that changes between reads (a pipe, a file being edited) cannot
    train one config under the digest of another."""
    cfg_path = tmp_path / "train.cfg"
    cfg_path.write_text(TINY_CONFIG.replace("iterations = 3", "iterations = 1"))
    opened = []

    def counting_open(file, *args, **kwargs):
        opened.append(str(file))
        return open(file, *args, **kwargs)

    monkeypatch.setattr(cli, "open", counting_open, raising=False)
    assert cli.main(["train", "--config", str(cfg_path),
                     "--out", str(tmp_path / "run")]) == cli.EXIT_OK
    assert opened.count(str(cfg_path)) == 1
