from ranktrack import cli, pipeline

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
