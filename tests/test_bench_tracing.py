"""The benchmark's tracer still finds what it patches in the package.

`bench/tracing.py` replaces public names where the CLI looks them up and
reads the fields of `laeo` results. A rename in the package drops a layer
from the benchmark's per-layer table without failing the run, and so
does a command that calls a function by a name bound before the tracer
replaced it. So these tests install the tracer and run traced commands.
They only read `bench/`.
"""

from __future__ import annotations

from pathlib import Path

from headpose import cli

BENCH = Path(__file__).parent.parent / "bench"
DATA = Path(__file__).parent / "data"


def test_tracer_covers_the_laeo_command(tmp_path, monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(BENCH))
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        # the names the package no longer has, all twelve autodiff ops among
        # them (the network and the losses are in closed form); any other is a
        # lost layer
        assert tracer.missing == [
            "headpose.training.stack_normalized",
            "headpose.autodiff.dense", "headpose.autodiff.conv1d", "headpose.autodiff.leaky_relu",
            "headpose.autodiff.sigmoid", "headpose.autodiff.mul", "headpose.autodiff.concat",
            "headpose.autodiff.flatten",
            "headpose.autodiff.slice_last", "headpose.autodiff.sub", "headpose.autodiff.exp",
            "headpose.autodiff.scale", "headpose.autodiff.tsum",
            "headpose.laeo.score_pair",
        ]
        argv = ["laeo", "--frames", str(DATA / "laeo_frames_labelled.jsonl"),
                "--out", str(tmp_path / "pairs.jsonl")]
        code = tracer.command("laeo", cli.main, argv)
    finally:
        tracer.uninstall()
    assert code == 0, capsys.readouterr().err
    assert tracer.check() == []
    names = {span[0] for span in tracer.spans}
    assert {"cli.laeo", "formats.read_frames", "laeo.evaluate_laeo",
            "formats.write_out"} <= names
    # heads_gated comes from the weights of the results evaluate_laeo returned
    assert tracer.heads_seen > 0
    assert 0.0 <= tracer.layer_metrics()["laeo.heads_gated"] <= 1.0


def test_tracer_covers_synth_and_train(tmp_path, monkeypatch, capsys):
    # cli resolves generate_dataset and train on first use; the commands must
    # still call the names the tracer replaced on the cli module
    monkeypatch.syspath_prepend(str(BENCH))
    from tracing import Tracer

    data = str(tmp_path / "d.jsonl")
    tracer = Tracer()
    tracer.install()
    try:
        codes = [
            tracer.command("synth", cli.main, ["synth", "--n", "12", "--seed", "1", "--out", data]),
            tracer.command("train", cli.main, ["train", "--data", data, "--epochs", "1",
                                               "--alpha", "0.2", "--out",
                                               str(tmp_path / "m.hpm")]),
        ]
    finally:
        tracer.uninstall()
    assert codes == [0, 0], capsys.readouterr().err
    assert tracer.check() == []
    spans = {(span[1], span[0]) for span in tracer.spans}
    assert {(0, "cli.synth"), (0, "synthetic.generate_dataset"), (0, "formats.write_dataset"),
            (1, "cli.train"), (1, "training.train"), (1, "formats.write_model")} <= spans
    assert tracer.epochs == 1  # the train span saw the history it returned
