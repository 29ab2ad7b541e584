"""The benchmark's closed loop still runs on the package.

`bench/loop.py` imports names from the package and predicts one record
per request; a rename there fails every latency round of the benchmark
without failing a test elsewhere. So this runs it as the benchmark does,
in a fresh process, and checks its outputs against the benchmark's numpy
oracle. It only reads `bench/`.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from headpose import cli
from headpose.formats import read_dataset

BENCH = Path(__file__).parent.parent / "bench"
DATA = Path(__file__).parent / "data"


def test_closed_loop_matches_the_reference(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import reference
    from workloads import TOL

    model = DATA / "score_pin_unc.hpm"
    kps = read_dataset(DATA / "score_pin.jsonl").keypoints
    requests, out = tmp_path / "requests.npy", tmp_path / "loop.npz"
    np.save(requests, kps)
    # 20 requests from record 30 on wrap around the 41 records
    src = str(Path(cli.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run([sys.executable, str(BENCH / "loop.py"), str(model), str(requests),
                           "30", "20", str(out)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    config, params = reference.read_model_file(model)
    expected = reference.forward(config, params, kps)
    with np.load(out) as result:
        assert result["index"].tolist() == [(30 + i) % len(kps) for i in range(20)]
        got, want = result["outputs"], expected[result["index"]]
        assert result["latency_ns"].shape == (20,)
    assert got.shape == want.shape == (20, 6)
    assert np.abs(got - want).max() <= TOL
