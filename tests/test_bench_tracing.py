"""The benchmark's tracer still finds what it patches in the package.

`bench/tracing.py` replaces public names where the CLI looks them up and
reads the fields of `laeo` results. A rename in the package drops a layer
from the benchmark's per-layer table without failing the run, so this
test installs the tracer and runs one traced `laeo` command. It only
reads `bench/`.
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
        # the two names the package no longer has; any other is a lost layer
        assert tracer.missing == [
            "headpose.training.stack_normalized", "headpose.laeo.score_pair",
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
