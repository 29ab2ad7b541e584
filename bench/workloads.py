"""The three workloads: seeded inputs, CLI command sequences and output checks.

Every workload is two CLI stages run one after the other, each reported
as items per second, plus the requests of a closed loop of single-record
predictions:

* train: stage 1 `synth` (training and validation sets), stage 2
  `train --loss unc`. Loads backward, Adam, the losses and the B=64
  forward; never predicts one record at a time and never scores pairs.
* score: stage 1 `eval`, stage 2 `infer`, on a labelled set with missing
  keypoints. Forward only, at batch N and batch 1; no backward, no Adam.
* laeo: stage 1 `laeo` on frames whose heads carry ready estimates (pair
  scoring alone), stage 2 `laeo --model` on the same heads as raw
  keypoints (per-head predict plus pair scoring).

Inputs are generated from the seed before timing starts; the program only
ever receives the generated files.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import reference

NOISE = "1,0.05"
TOL = 1e-9
LAEO_TAU = 0.93
LAEO_DELTA = 7.0

# Fixture model shared by score and laeo. Its seeds are fixed, so every
# --seed scores with the same model; with some initialisations the variance
# head stays above the default gate for every head, and these seeds give a
# model whose gate keeps most heads.
FIXTURE_TRAIN, FIXTURE_VAL, FIXTURE_EPOCHS, FIXTURE_LR = 3000, 300, 12, "0.003"
FIXTURE_SEED = 402


@dataclass
class CliRun:
    wall_s: float
    max_rss_kb: int
    code: int
    stderr: str


@dataclass
class Stage:
    label: str  # what the items are, for the printed table
    items: int
    commands: list[list[str]]


class Context:
    """Per-run paths, seeds and the environment the CLI runs in."""

    def __init__(self, work: Path, seed: int, env: dict[str, str]):
        self.work = work
        self.env = env
        self.seeds = [int(s) for s in np.random.SeedSequence(seed).generate_state(5)]

    def run_cli(self, argv: list[str]) -> CliRun:
        """Run `python -m headpose ARGV` to completion; one process at a time."""
        err_path = self.work / "cli.stderr"
        with open(err_path, "wb") as err, open(os.devnull, "wb") as out:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, "-m", "headpose", *argv],
                cwd=self.work, env=self.env, stdout=out, stderr=err,
            )
            # wait4 gives this child's own peak RSS, not the max over all
            # children so far as RUSAGE_CHILDREN would.
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        return CliRun(wall, usage.ru_maxrss, proc.returncode, err_path.read_text())

    def must_run(self, argv: list[str]) -> None:
        run = self.run_cli(argv)
        if run.code != 0:
            raise RuntimeError(f"input generation failed: {' '.join(argv)}: {run.stderr}")


def read_dataset_file(path: Path) -> tuple[list[str], np.ndarray, np.ndarray]:
    """ids, (N, 5, 3) keypoints and (N, 3) poses from a dataset file."""
    ids, kps, poses = [], [], []
    with open(path, encoding="utf-8") as f:
        for line in f:
            row = json.loads(line)
            ids.append(row["id"])
            kps.append(row["keypoints"])
            poses.append(row["pose"])
    return ids, np.array(kps, dtype=np.float64), np.array(poses, dtype=np.float64)


def read_jsonl(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as f:
        return [json.loads(line) for line in f if line.strip()]


def train_fixture_model(ctx: Context) -> Path:
    d = ctx.work / "fixture"
    d.mkdir()
    seed = FIXTURE_SEED
    ctx.must_run(["synth", "--n", str(FIXTURE_TRAIN), "--noise", NOISE,
                  "--seed", str(seed), "--out", str(d / "train.jsonl")])
    ctx.must_run(["synth", "--n", str(FIXTURE_VAL), "--noise", NOISE,
                  "--seed", str(seed + 1000), "--out", str(d / "val.jsonl")])
    ctx.must_run(["train", "--data", str(d / "train.jsonl"), "--val", str(d / "val.jsonl"),
                  "--loss", "unc", "--epochs", str(FIXTURE_EPOCHS), "--lr", FIXTURE_LR,
                  "--seed", str(seed), "--out", str(d / "model.hpm")])
    return d / "model.hpm"


class Workload:
    """One named workload; subclasses fill in inputs, stages and checks."""

    name = ""
    stage_names = ("", "")

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.inputs = ctx.work / "inputs"
        self.inputs.mkdir()
        self.model_path: Path | None = None  # model read by setup_s and the loop
        self.loop_kps: np.ndarray | None = None  # (N, 5, 3) closed-loop requests

    def prepare(self) -> None:
        raise NotImplementedError

    def stages(self, out: Path) -> tuple[Stage, Stage]:
        """The two stages of one repeat, writing outputs under `out`."""
        raise NotImplementedError

    def check(self, out: Path) -> list[str]:
        """Problems found in the outputs of one repeat; empty when correct."""
        raise NotImplementedError


class TrainWorkload(Workload):
    name = "train"
    stage_names = ("synth", "train")
    N_TRAIN, N_VAL, EPOCHS, BATCH = 2000, 250, 4, 64

    def prepare(self) -> None:
        for argv in self._synth_argv(self.inputs):
            self.ctx.must_run(argv)
        self.expected = {
            name: (self.inputs / name).read_bytes() for name in ("train.jsonl", "val.jsonl")
        }
        _, self.loop_kps, _ = read_dataset_file(self.inputs / "val.jsonl")
        self.model_bytes: bytes | None = None

    def _synth_argv(self, out: Path) -> list[list[str]]:
        s = self.ctx.seeds
        return [
            ["synth", "--n", str(self.N_TRAIN), "--noise", NOISE, "--seed", str(s[0]),
             "--out", str(out / "train.jsonl")],
            ["synth", "--n", str(self.N_VAL), "--noise", NOISE, "--seed", str(s[1]),
             "--out", str(out / "val.jsonl")],
        ]

    def stages(self, out: Path) -> tuple[Stage, Stage]:
        train = ["train", "--data", str(self.inputs / "train.jsonl"),
                 "--val", str(self.inputs / "val.jsonl"), "--loss", "unc",
                 "--epochs", str(self.EPOCHS), "--batch-size", str(self.BATCH),
                 "--seed", str(self.ctx.seeds[2]), "--out", str(out / "model.hpm")]
        return (
            Stage("records", self.N_TRAIN + self.N_VAL, self._synth_argv(out)),
            Stage("epochs x samples", self.EPOCHS * self.N_TRAIN, [train]),
        )

    def check(self, out: Path) -> list[str]:
        problems = []
        for name, data in self.expected.items():
            if (out / name).read_bytes() != data:
                problems.append(f"synth {name} differs from the first run with this seed")
        model = (out / "model.hpm").read_bytes()
        if self.model_bytes is None:
            # The first repeat's model becomes the fixture of the closed loop.
            self.model_bytes = model
            self.model_path = self.inputs / "model.hpm"
            self.model_path.write_bytes(model)
        elif model != self.model_bytes:
            problems.append("train wrote a model that differs from the first repeat")
        history = json.loads((out / "model.hpm.history.json").read_text())["history"]
        for key in ("train_loss", "val_loss"):
            values = history[key]
            if len(values) != self.EPOCHS or not all(math.isfinite(v) for v in values):
                problems.append(f"history {key} is not {self.EPOCHS} finite values")
        return problems


class ScoreWorkload(Workload):
    name = "score"
    stage_names = ("eval", "infer")
    N, DROP = 1500, "0.3"

    def prepare(self) -> None:
        self.model_path = train_fixture_model(self.ctx)
        self.data = self.inputs / "score.jsonl"
        self.ctx.must_run(["synth", "--n", str(self.N), "--noise", NOISE,
                           "--drop-fraction", self.DROP, "--seed", str(self.ctx.seeds[3]),
                           "--out", str(self.data)])
        self.ids, self.loop_kps, self.poses = read_dataset_file(self.data)
        config, params = reference.read_model_file(self.model_path)
        self.expected = reference.forward(config, params, self.loop_kps)
        self.report_bytes: bytes | None = None

    def stages(self, out: Path) -> tuple[Stage, Stage]:
        model, data = str(self.model_path), str(self.data)
        return (
            Stage("records", self.N,
                  [["eval", "--model", model, "--data", data, "--report", str(out / "report.json")]]),
            Stage("records", self.N,
                  [["infer", "--model", model, "--data", data, "--out", str(out / "infer.jsonl")]]),
        )

    def check(self, out: Path) -> list[str]:
        problems = []
        report_bytes = (out / "report.json").read_bytes()
        if self.report_bytes is None:
            self.report_bytes = report_bytes
        elif report_bytes != self.report_bytes:
            problems.append("eval wrote a report that differs from the first repeat")
        report = json.loads(report_bytes)
        if report["n_samples"] != self.N:
            problems.append(f"eval n_samples {report['n_samples']} != {self.N}")
        groups = sorted(report["by_keypoint_count"])
        if groups != ["2", "3", "4", "5"]:
            problems.append(f"eval keypoint-count groups {groups} are not 2..5")
        rows = read_jsonl(out / "infer.jsonl")
        if [r["id"] for r in rows] != self.ids:
            return problems + ["infer rows are not one per record in input order"]
        got = np.array([[r["yaw"], r["pitch"], r["roll"], *r["log_variance"]] for r in rows])
        diff = float(np.abs(got - self.expected).max())
        if diff > TOL:
            problems.append(f"infer differs from the numpy forward by {diff:.3g}")
        mae = np.abs(got[:, :3] - self.poses).mean(axis=0)
        for i, angle in enumerate(("yaw", "pitch", "roll")):
            if abs(mae[i] - report["mae"][angle]) > TOL:
                problems.append(f"infer {angle} MAE {mae[i]} != eval report {report['mae'][angle]}")
        return problems


class LaeoWorkload(Workload):
    name = "laeo"
    stage_names = ("laeo (ready estimates)", "laeo --model")
    N_FRAMES, MAX_HEADS = 250, 8
    FRAME_SIZE = (1920.0, 1080.0)

    def prepare(self) -> None:
        self.model_path = train_fixture_model(self.ctx)
        rng = np.random.default_rng(self.ctx.seeds[4])
        frames = self._build_frames(rng)
        kps = np.array([h["keypoints"] for f in frames for h in f["heads"]], dtype=np.float64)
        config, params = reference.read_model_file(self.model_path)
        pred = reference.forward(config, params, kps)
        self.loop_kps = kps
        self.heads = {}  # (frame_id, head_id) -> (centroid, predicted yaw/pitch, log-variance)
        estimated = []
        k = 0
        for f in frames:
            heads = []
            for h in f["heads"]:
                p = pred[k]
                k += 1
                self.heads[(f["frame_id"], h["id"])] = (h["centroid"], p[:2], p[3:6])
                heads.append({"id": h["id"], "centroid": h["centroid"],
                              "pose": [float(v) for v in p[:3]],
                              "log_variance": [float(v) for v in p[3:6]]})
            estimated.append({"frame_id": f["frame_id"], "heads": heads,
                              "laeo_pairs": f["laeo_pairs"]})
        self.n_pairs = sum(math.comb(len(f["heads"]), 2) for f in frames)
        self.n_positive = sum(len(f["laeo_pairs"]) for f in frames)
        self.keypoint_frames = self.inputs / "frames_keypoints.jsonl"
        self.estimate_frames = self.inputs / "frames_estimates.jsonl"
        for path, rows in ((self.keypoint_frames, frames), (self.estimate_frames, estimated)):
            path.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")

    def _build_frames(self, rng: np.random.Generator) -> list[dict]:
        """Crowd frames of 2..MAX_HEADS synthetic heads at random centroids.

        In half the frames the second head is placed on the first head's
        true gaze line, so some pairs face each other. A pair is labelled
        LAEO by the paper's rule on the true poses: the mean of the two
        gaze cosines is at least tau.
        """
        from headpose.synthetic import NoiseModel, generate_dataset

        counts = rng.integers(2, self.MAX_HEADS + 1, size=self.N_FRAMES)
        base, gain = (float(v) for v in NOISE.split(","))
        samples = generate_dataset(int(counts.sum()), rng, noise=NoiseModel(base, gain))
        frames = []
        k = 0
        for f, n in enumerate(counts):
            heads = samples[k : k + n]
            k += n
            centroids = rng.uniform((0.0, 0.0), self.FRAME_SIZE, size=(n, 2))
            gazes = [reference.gaze(s.pose.yaw, s.pose.pitch) for s in heads]
            if rng.uniform() < 0.5:
                g = np.array(gazes[0]) / math.hypot(*gazes[0])
                centroids[1] = centroids[0] + rng.uniform(100.0, 600.0) * g
            ids = [f"h{i}" for i in range(n)]
            pairs = []
            for i in range(n):
                for j in range(i + 1, n):
                    ca, cb = reference.gaze_cosines(centroids[i], centroids[j], gazes[i], gazes[j])
                    if 0.5 * (ca + cb) >= LAEO_TAU:
                        pairs.append([ids[i], ids[j]])
            frames.append({
                "frame_id": f"f{f:05d}",
                "heads": [
                    {"id": ids[i], "centroid": [float(v) for v in centroids[i]],
                     "keypoints": [[p.x1, p.x2, p.c] for p in s.keypoints.points]}
                    for i, s in enumerate(heads)
                ],
                "laeo_pairs": pairs,
            })
        return frames

    def stages(self, out: Path) -> tuple[Stage, Stage]:
        return (
            Stage("frames", self.N_FRAMES,
                  [["laeo", "--frames", str(self.estimate_frames),
                    "--out", str(out / "laeo_estimates.jsonl")]]),
            Stage("frames", self.N_FRAMES,
                  [["laeo", "--frames", str(self.keypoint_frames), "--model", str(self.model_path),
                    "--out", str(out / "laeo_model.jsonl")]]),
        )

    def check(self, out: Path) -> list[str]:
        problems = []
        for name in ("laeo_estimates.jsonl", "laeo_model.jsonl"):
            rows = read_jsonl(out / name)
            summary = rows.pop()["summary"]
            if summary["n_pairs"] != self.n_pairs or len(rows) != self.n_pairs:
                problems.append(f"{name}: n_pairs {summary['n_pairs']} != {self.n_pairs}")
            if summary["gated"]["n_positive"] != self.n_positive:
                problems.append(f"{name}: n_positive differs from the labels")
            worst = 0.0
            for row in rows:
                a, b = (self.heads[(row["frame_id"], h)] for h in row["pair"])
                ca, cb = reference.gaze_cosines(a[0], b[0], reference.gaze(*a[1]),
                                                reference.gaze(*b[1]))
                value = reference.gated_laeo_value(ca, cb, a[2], b[2], LAEO_DELTA)
                worst = max(worst, abs(value - row["laeo_value"]))
            if worst > TOL:
                problems.append(f"{name}: laeo_value differs from the numpy recomputation by {worst:.3g}")
        return problems


WORKLOADS = {w.name: w for w in (TrainWorkload, ScoreWorkload, LaeoWorkload)}

