"""Command-line surface: flags, file outputs, error reporting, seeding."""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from headpose import cli, training
from headpose.evaluation import evaluate
from headpose.formats import read_dataset, read_model, write_model
from headpose.keypoints import Keypoint, KeypointSet, normalize
from headpose.model import MAX_FC_WIDTH, Model, ModelConfig
from headpose.synthetic import generate_dataset, synthesize

from frame_rows import frame, head, write
from test_formats import _spoilt_files, _spoilt_frame_files

DATA = Path(__file__).parent / "data"


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def data_file(tmp_path, capsys):
    path = tmp_path / "train.jsonl"
    code, _, _ = run(
        capsys, "synth", "--n", "12", "--noise", "1,0.02", "--seed", "5", "--out", str(path)
    )
    assert code == 0
    return path


@pytest.fixture()
def unc_model(tmp_path, data_file, capsys):
    path = tmp_path / "unc.hpm"
    code, out, err = run(
        capsys,
        "train", "--data", str(data_file), "--loss", "unc",
        "--epochs", "2", "--batch-size", "4", "--seed", "3", "--out", str(path),
    )
    assert code == 0, err
    return path


class TestSynth:
    def test_writes_requested_rows(self, tmp_path, capsys):
        out = tmp_path / "d.jsonl"
        code, stdout, _ = run(capsys, "synth", "--n", "7", "--seed", "1", "--out", str(out))
        assert code == 0
        assert "wrote 7 samples" in stdout
        data = read_dataset(out)
        assert len(data) == 7
        assert data.has_pose.all()

    def test_same_seed_same_bytes(self, tmp_path, capsys):
        a, b, c = (tmp_path / n for n in ("a.jsonl", "b.jsonl", "c.jsonl"))
        run(capsys, "synth", "--n", "6", "--noise", "2,0.05", "--seed", "4", "--out", str(a))
        run(capsys, "synth", "--n", "6", "--noise", "2,0.05", "--seed", "4", "--out", str(b))
        run(capsys, "synth", "--n", "6", "--noise", "2,0.05", "--seed", "8", "--out", str(c))
        assert a.read_bytes() == b.read_bytes()
        assert a.read_bytes() != c.read_bytes()

    def test_range_flags_bound_poses(self, tmp_path, capsys):
        out = tmp_path / "d.jsonl"
        run(
            capsys, "synth", "--n", "40", "--seed", "2", "--out", str(out),
            "--yaw-range", "10", "--pitch-range", "5", "--roll-range", "1",
        )
        poses = np.abs(read_dataset(out).poses)
        assert (poses <= [10, 5, 1]).all()

    def test_bad_noise_flag_exits_nonzero(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "synth", "--n", "3", "--noise", "1", "--out", str(tmp_path / "x.jsonl")
        )
        assert code == 1
        assert err.startswith("error:")
        assert not (tmp_path / "x.jsonl").exists()

    def test_non_finite_keypoints_are_not_written(self, tmp_path, capsys):
        # noise this wide overflows the keypoints, which JSON would spell Infinity
        out = tmp_path / "x.jsonl"
        code, stdout, err = run(capsys, "synth", "--n", "5", "--noise", "1e308,1e308",
                                "--seed", "0", "--out", str(out))
        assert code == 1 and stdout == ""
        assert err == f"error: {out}: refusing to write non-finite value in record 's000000'\n"
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("flag", ["--yaw-range", "--pitch-range", "--roll-range"])
    def test_negative_zero_range_is_zero(self, tmp_path, capsys, flag):
        # -0.0 passes the range check and means the half-width 0
        minus, plus = tmp_path / "minus.jsonl", tmp_path / "plus.jsonl"
        for value, out in (("-0.0", minus), ("0", plus)):
            code, _, err = run(capsys, "synth", "--n", "6", "--noise", "1,0.05", "--seed", "2",
                               flag, value, "--out", str(out))
            assert code == 0, err
        assert minus.read_bytes() == plus.read_bytes()

    def test_impossible_n_fails_before_generating(self, tmp_path, capsys):
        # the arrays are allocated before any draw, so this fails at once
        out = tmp_path / "x.jsonl"
        code, stdout, err = run(capsys, "synth", "--n", str(10**15), "--out", str(out))
        assert code == 1 and stdout == ""
        assert re.fullmatch(r"error: Unable to allocate [^\n]*\n", err)
        assert not list(tmp_path.iterdir())

    def test_default_seed_is_zero(self, tmp_path, capsys, monkeypatch):
        # the seed comes from --seed alone: the environment cannot change it
        monkeypatch.setenv("HEADPOSE_SEED", "9")
        default = tmp_path / "default.jsonl"
        zero = tmp_path / "zero.jsonl"
        run(capsys, "synth", "--n", "5", "--out", str(default))
        run(capsys, "synth", "--n", "5", "--seed", "0", "--out", str(zero))
        assert default.read_bytes() == zero.read_bytes()


class TestTrain:
    def test_writes_model_and_history(self, tmp_path, data_file, unc_model, capsys):
        model = read_model(unc_model)
        assert model.config.loss_kind == "heteroscedastic"
        history_path = tmp_path / (unc_model.name + ".history.json")
        doc = json.loads(history_path.read_text())
        assert list(doc.keys()) == ["seed", "loss", "model_config", "history"]
        assert doc["seed"] == 3 and doc["loss"] == "unc"
        hist = doc["history"]
        assert list(hist.keys()) == [
            "train_loss", "val_loss", "val_mae", "best_epoch", "best_val_loss",
        ]
        assert len(hist["train_loss"]) == 2
        assert len(hist["val_loss"]) == 2

    def test_explicit_val_and_history_paths(self, tmp_path, data_file, capsys):
        val = tmp_path / "val.jsonl"
        run(capsys, "synth", "--n", "6", "--noise", "1,0.02", "--seed", "6", "--out", str(val))
        model_path = tmp_path / "m.hpm"
        hist_path = tmp_path / "h.json"
        code, out, err = run(
            capsys,
            "train", "--data", str(data_file), "--val", str(val), "--loss", "mse",
            "--epochs", "1", "--batch-size", "6", "--seed", "0",
            "--out", str(model_path), "--history", str(hist_path),
        )
        assert code == 0, err
        assert "trained loss=mse" in out
        assert read_model(model_path).config.loss_kind == "mse"
        doc = json.loads(hist_path.read_text())
        assert len(doc["history"]["val_loss"]) == 1

    def test_malformed_data_reports_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        good = json.dumps(
            {"id": "a", "keypoints": [[0, 0, 1]] * 5, "pose": [0, 0, 0]}
        )
        bad.write_text(good + "\n" + good + "\n{nope\n")
        code, _, err = run(
            capsys, "train", "--data", str(bad), "--epochs", "1", "--out", str(tmp_path / "m")
        )
        assert code == 1
        assert f"error: {bad}: line 3" in err


    def test_split_does_not_depend_on_loss_or_width(self, tmp_path, capsys, monkeypatch):
        # without --val, the split comes from a child stream of the --seed
        # generator, not from the draws left over after building the model
        data = tmp_path / "d.jsonl"
        run(capsys, "synth", "--n", "40", "--noise", "1,0.02", "--seed", "5", "--out", str(data))
        validated = []
        validation_pass = training._validation_pass

        def recording(model, arrays):
            validated.append(arrays[3].copy())
            return validation_pass(model, arrays)

        monkeypatch.setattr(training, "_validation_pass", recording)
        for flags in (["--loss", "unc"], ["--loss", "mse"], ["--loss", "comb"],
                      ["--loss", "unc", "--alpha", "0.6"]):
            code, _, err = run(capsys, "train", "--data", str(data), *flags, "--epochs", "1",
                               "--seed", "0", "--out", str(tmp_path / "m.hpm"))
            assert code == 0, err
        assert len(validated) == 4 and validated[0].shape == (4, 3)
        assert all(np.array_equal(targets, validated[0]) for targets in validated)


class TestEval:
    def test_report_and_determinism(self, tmp_path, data_file, unc_model, capsys):
        r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
        code, out, err = run(
            capsys, "eval", "--model", str(unc_model), "--data", str(data_file),
            "--report", str(r1),
        )
        assert code == 0, err
        assert "mae yaw=" in out
        run(capsys, "eval", "--model", str(unc_model), "--data", str(data_file),
            "--report", str(r2))
        assert r1.read_bytes() == r2.read_bytes()
        report = json.loads(r1.read_text())
        assert list(report.keys()) == ["n_samples", "mae", "uncertainty", "by_keypoint_count"]
        assert report["n_samples"] == 12
        assert report["uncertainty"] is not None

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("scale", [1e30, 1e36])
    def test_overflowing_pearson_is_null(self, tmp_path, capsys, scale):
        # large but finite estimates square past the float range in pearson,
        # which read as NaN (1e36) or a wrong 0.0 (1e30); they are null
        model = Model.build(ModelConfig("heteroscedastic"), np.random.default_rng(0))
        model.flat[:] = np.abs(model.flat) * scale
        model_path, report = tmp_path / "big.hpm", tmp_path / "r.json"
        write_model(model_path, model)
        code, _, err = run(capsys, "eval", "--model", str(model_path),
                           "--data", str(DATA / "score_pin.jsonl"), "--report", str(report))
        assert code == 0 and err == ""

        def refuse(constant):
            raise AssertionError(f"{constant} is not JSON")

        unc = json.loads(report.read_text(), parse_constant=refuse)["uncertainty"]
        assert unc["pearson_vs_error"] is None and unc["cross_correlation"] is None


class TestInfer:
    def test_stdout_rows_with_uncertainty(self, data_file, unc_model, capsys):
        code, out, err = run(
            capsys, "infer", "--model", str(unc_model), "--data", str(data_file)
        )
        assert code == 0, err
        rows = [json.loads(line) for line in out.splitlines()]
        assert len(rows) == 12
        for row in rows:
            assert list(row.keys()) == ["id", "yaw", "pitch", "roll", "log_variance"]
            assert isinstance(row["log_variance"], list) and len(row["log_variance"]) == 3
        assert rows[0]["id"] == "s000000"

    def test_point_model_emits_null_variance(self, tmp_path, data_file, capsys):
        model_path = tmp_path / "mse.hpm"
        write_model(model_path, Model.build(ModelConfig("mse"), np.random.default_rng(0)))
        code, out, _ = run(capsys, "infer", "--model", str(model_path), "--data", str(data_file))
        assert code == 0
        assert all(json.loads(line)["log_variance"] is None for line in out.splitlines())

    def test_out_file_matches_stdout(self, tmp_path, data_file, unc_model, capsys):
        _, stdout, _ = run(capsys, "infer", "--model", str(unc_model), "--data", str(data_file))
        out_path = tmp_path / "pred.jsonl"
        run(capsys, "infer", "--model", str(unc_model), "--data", str(data_file),
            "--out", str(out_path))
        assert out_path.read_text() == stdout

    def test_unusable_record_exits_nonzero(self, tmp_path, unc_model, capsys):
        bad = tmp_path / "empty.jsonl"
        bad.write_text(json.dumps({"id": "ghost", "keypoints": [[0, 0, 0]] * 5}) + "\n")
        code, _, err = run(capsys, "infer", "--model", str(unc_model), "--data", str(bad))
        assert code == 1
        assert "ghost" in err

    def test_matches_evaluate_bit_for_bit(self, data_file, unc_model, capsys):
        code, out, err = run(capsys, "infer", "--model", str(unc_model), "--data", str(data_file))
        assert code == 0, err
        rows = [json.loads(line) for line in out.splitlines()]
        result = evaluate(read_model(unc_model), read_dataset(data_file))
        assert len(rows) == len(result) == 12
        for row, angles, log_var in zip(rows, result.angles, result.log_variance):
            assert [row["yaw"], row["pitch"], row["roll"]] == angles.tolist()
            assert row["log_variance"] == log_var.tolist()

    def test_empty_file_gives_no_rows(self, tmp_path, unc_model, capsys):
        empty = tmp_path / "none.jsonl"
        empty.write_text("")
        code, out, err = run(capsys, "infer", "--model", str(unc_model), "--data", str(empty))
        assert code == 0, err
        assert out == ""


def mutual_pair():
    return (
        head("a", (0.0, 0.0), pose=(90.0, 0.0, 0.0), log_variance=(0.5, 0.5, 0.5)),
        head("b", (10.0, 0.0), pose=(-90.0, 0.0, 0.0), log_variance=(0.5, 0.5, 0.5)),
    )


def write_labelled_frames(path):
    a, b = mutual_pair()
    looking_away = head("b", (10.0, 0.0), pose=(90.0, 0.0, 0.0))
    write(path, [frame("f0", (a, b), [("a", "b")]), frame("f1", (a, looking_away), [])])


class TestLaeo:
    def test_labelled_frames_full_output(self, tmp_path, capsys):
        frames_path = tmp_path / "frames.jsonl"
        write_labelled_frames(frames_path)
        code, out, err = run(capsys, "laeo", "--frames", str(frames_path))
        assert code == 0, err
        lines = [json.loads(line) for line in out.splitlines()]
        rows, summary = lines[:-1], lines[-1]["summary"]
        assert len(rows) == 2
        assert list(rows[0].keys()) == [
            "frame_id", "pair", "cos_a", "cos_b", "weight_a", "weight_b",
            "laeo_value", "is_laeo", "label",
        ]
        by_frame = {r["frame_id"]: r for r in rows}
        assert by_frame["f0"]["is_laeo"] is True and by_frame["f0"]["label"] is True
        assert by_frame["f1"]["is_laeo"] is False and by_frame["f1"]["label"] is False
        assert list(summary.keys()) == [
            "tau", "delta", "gate", "n_pairs", "n_heads", "n_heads_gated", "gated", "baseline",
        ]
        assert summary["gate"] == "interval" and summary["n_pairs"] == 2
        assert summary["n_heads"] == 4 and summary["n_heads_gated"] == 0
        for block in (summary["gated"], summary["baseline"]):
            assert list(block.keys()) == [
                "precision", "recall", "f1", "average_precision", "n_pairs", "n_positive",
            ]
            assert block["precision"] == 1.0 and block["recall"] == 1.0

    def test_unlabelled_frames_skip_metrics(self, tmp_path, capsys):
        a, b = mutual_pair()
        frames_path = tmp_path / "frames.jsonl"
        write(frames_path, [frame("g0", (a, b))])
        code, out, _ = run(capsys, "laeo", "--frames", str(frames_path))
        assert code == 0
        lines = [json.loads(line) for line in out.splitlines()]
        assert lines[0]["label"] is None
        assert lines[-1]["summary"]["gated"] is None
        assert lines[-1]["summary"]["baseline"] is None

    def test_gate_and_threshold_flags(self, tmp_path, capsys):
        frames_path = tmp_path / "frames.jsonl"
        write_labelled_frames(frames_path)
        code, out, _ = run(
            capsys, "laeo", "--frames", str(frames_path),
            "--tau", "0.5", "--delta", "3.0", "--gate", "open-below",
        )
        assert code == 0
        summary = json.loads(out.splitlines()[-1])["summary"]
        assert summary["tau"] == 0.5 and summary["delta"] == 3.0
        assert summary["gate"] == "open-below"

    def test_out_file_holds_rows(self, tmp_path, capsys):
        frames_path = tmp_path / "frames.jsonl"
        write_labelled_frames(frames_path)
        out_path = tmp_path / "pairs.jsonl"
        _, direct, _ = run(capsys, "laeo", "--frames", str(frames_path))
        code, stdout, _ = run(
            capsys, "laeo", "--frames", str(frames_path), "--out", str(out_path)
        )
        assert code == 0
        assert out_path.read_text() == direct
        assert "summary" in json.loads(stdout.strip())

    def test_frontal_head_scores_zero_and_leaves_other_pairs(self, tmp_path, capsys):
        # a head facing the camera (yaw = pitch = 0) has no gaze direction in
        # the image plane; it no longer aborts the run, and the pairs without
        # it score exactly as in the same frame without it
        others = (
            head("a", (0.0, 0.0), pose=(70.0, 10.0, 0.0), log_variance=(0.5, 1.5, 0.0)),
            head("b", (40.0, 5.0), pose=(-60.0, -5.0, 3.0)),
            head("d", (-25.0, 30.0), pose=(20.0, 40.0, 0.0), log_variance=(9.0, 9.0, 0.0)),
        )
        frontal = head("c", (15.0, -20.0), pose=(0.0, 0.0, 5.0))
        with_path, without_path = tmp_path / "with.jsonl", tmp_path / "without.jsonl"
        write(with_path, [frame("f", others + (frontal,), [("a", "b")])])
        write(without_path, [frame("f", others, [("a", "b")])])
        code, with_out, err = run(capsys, "laeo", "--frames", str(with_path))
        assert code == 0, err
        _, without_out, _ = run(capsys, "laeo", "--frames", str(without_path))
        with_rows = with_out.splitlines()[:-1]
        assert len(with_rows) == 6
        kept = [line for line in with_rows if "c" not in json.loads(line)["pair"]]
        assert kept == without_out.splitlines()[:-1]
        for line in with_rows:
            row = json.loads(line)
            if "c" in row["pair"]:
                assert row["cos_b" if row["pair"][1] == "c" else "cos_a"] == 0.0

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("first", ["a", "b"])
    def test_overflowing_distance_scores_zero(self, tmp_path, capsys, first):
        # every centroid is finite, but the a-b offset has a length beyond the
        # float range and the b-c offset is itself beyond it: such a pair has
        # no direction, so it scores 0 with its weights, as a frontal gaze
        # does, and the run goes on to the next frame
        heads = (head("a", (0.0, 0.0), pose=(30.0, 0.0, 0.0)),
                 head("b", (1e308, 1e308), pose=(-30.0, 0.0, 0.0), log_variance=(9.0, 9.0, 0)),
                 head("c", (-1.7e308, 1e300), pose=(10.0, 5.0, 0.0)))
        heads = heads["abc".index(first):]
        near = (head("a", (0.0, 0.0), pose=(90.0, 0.0, 0.0)),
                head("b", (10.0, 0.0), pose=(-90.0, 0.0, 0.0)))
        frames_path = write(tmp_path / "far.jsonl",
                            [frame("f", heads, [(heads[0]["id"], heads[1]["id"])]),
                             frame("g", near, [("a", "b")])])
        code, out, err = run(capsys, "laeo", "--frames", str(frames_path))
        assert code == 0 and err == ""
        *far, last, summary = [json.loads(line) for line in out.splitlines()]
        assert len(far) == len(heads) * (len(heads) - 1) // 2
        for row in far:
            assert (row["cos_a"], row["cos_b"], row["laeo_value"]) == (0.0, 0.0, 0.0)
            assert [row["weight_a"], row["weight_b"]] == [int(h != "b") for h in row["pair"]]
        assert last["laeo_value"] == pytest.approx(1.0, abs=1e-12)
        assert summary["summary"]["gated"]["n_pairs"] == len(far) + 1

    def test_keypoint_frames_need_model(self, tmp_path, unc_model, data_file, capsys):
        sample = generate_dataset(1, np.random.default_rng(3))[0]
        heads = (
            head("a", (0.0, 0.0), keypoints=sample.keypoints),
            head("b", (30.0, 0.0), pose=(-90.0, 0.0, 0.0)),
        )
        frames_path = tmp_path / "kp.jsonl"
        write(frames_path, [frame("k0", heads)])
        code, _, err = run(capsys, "laeo", "--frames", str(frames_path))
        assert code == 1
        assert err == (f"error: {frames_path}: line 1: frame 'k0' head 'a' has keypoints only; "
                       "pass --model\n")
        code, out, err = run(
            capsys, "laeo", "--frames", str(frames_path), "--model", str(unc_model)
        )
        assert code == 0, err
        rows = [json.loads(line) for line in out.splitlines()]
        assert rows[0]["pair"] == ["a", "b"]

    def test_model_estimates_map_back_to_heads(self, tmp_path, unc_model, capsys):
        # keypoint heads of every frame go through one batch; each estimate
        # must land on its own (frame, head), as if it had been given ready
        data = synthesize(7, np.random.default_rng(4))
        sizes = (2, 3, 2)
        model = read_model(unc_model)
        inputs = normalize(data.keypoints)
        angles, log_var = model.predict_batch(inputs.x1, inputs.x2, inputs.c)
        with_keypoints, with_estimates = [], []
        k = 0
        for f, n in enumerate(sizes):
            kp_heads, ready_heads = [], []
            for h in range(n):
                centroid = (40.0 * h, 25.0 * f)
                keypoints = KeypointSet.from_triplets(data.keypoints[k])
                kp_heads.append(head(f"h{h}", centroid, keypoints=keypoints))
                ready_heads.append(head(f"h{h}", centroid, pose=angles[k].tolist(),
                                        log_variance=log_var[k].tolist()))
                k += 1
            with_keypoints.append(frame(f"f{f}", kp_heads, []))
            with_estimates.append(frame(f"f{f}", ready_heads, []))
        kp_path, ready_path = tmp_path / "kp.jsonl", tmp_path / "ready.jsonl"
        write(kp_path, with_keypoints)
        write(ready_path, with_estimates)
        code, from_model, err = run(
            capsys, "laeo", "--frames", str(kp_path), "--model", str(unc_model), "--gate", "off"
        )
        assert code == 0, err
        _, from_ready, _ = run(capsys, "laeo", "--frames", str(ready_path), "--gate", "off")
        assert len(from_model.splitlines()) == 1 + 3 + 1 + 1  # pairs per frame, summary
        assert from_model == from_ready

    def test_unusable_head_names_frame_and_head(self, tmp_path, unc_model, capsys):
        good = generate_dataset(1, np.random.default_rng(3))[0].keypoints
        blind = KeypointSet((Keypoint(1.0, 2.0, 0.0),) * 5)
        frames = [
            frame("k0", (head("a", (0.0, 0.0), keypoints=good),
                         head("b", (30.0, 0.0), keypoints=good)), []),
            frame("k1", (head("a", (0.0, 0.0), keypoints=good),
                         head("ghost", (30.0, 0.0), keypoints=blind)), []),
        ]
        frames_path = tmp_path / "kp.jsonl"
        write(frames_path, frames)
        code, _, err = run(
            capsys, "laeo", "--frames", str(frames_path), "--model", str(unc_model)
        )
        assert code == 1
        assert err == (f"error: {frames_path}: line 2: frame 'k1' head 'ghost': "
                       "no usable keypoints: all confidences are zero\n")


    def test_unlabelled_frame_in_labelled_file_is_not_scored(self, tmp_path, capsys):
        # f1 has no labels: its row says so, and its hit is no false positive
        a, b = (head(h, c, pose=p) for h, c, p in
                (("a", (0.0, 0.0), (90.0, 0.0, 0.0)), ("b", (10.0, 0.0), (-90.0, 0.0, 0.0))))
        labelled = frame("f0", (a, b), [("a", "b")])
        mixed_path, alone_path = tmp_path / "mixed.jsonl", tmp_path / "alone.jsonl"
        write(mixed_path, [labelled, frame("f1", (a, b))])
        write(alone_path, [labelled])
        code, out, err = run(capsys, "laeo", "--frames", str(mixed_path))
        assert code == 0, err
        lines = [json.loads(line) for line in out.splitlines()]
        assert [row["label"] for row in lines[:-1]] == [True, None]
        assert all(row["is_laeo"] for row in lines[:-1])
        summary = lines[-1]["summary"]
        _, alone, _ = run(capsys, "laeo", "--frames", str(alone_path))
        alone_summary = json.loads(alone.splitlines()[-1])["summary"]
        assert summary["n_pairs"] == 2 and alone_summary["n_pairs"] == 1
        for block in ("gated", "baseline"):
            assert summary[block] == alone_summary[block]
            assert summary[block]["precision"] == 1.0 and summary[block]["n_pairs"] == 1

    def test_model_pose_replaces_a_given_pose(self, tmp_path, unc_model, capsys):
        # a head with keypoints and a pose takes the model's pose under --model
        kp = generate_dataset(1, np.random.default_rng(6))[0].keypoints
        other = head("b", (30.0, 0.0), pose=(-90.0, 0.0, 0.0))
        both_path, kp_path = tmp_path / "both.jsonl", tmp_path / "kp.jsonl"
        write(both_path, [frame("k0", (head("a", (0.0, 0.0), pose=(5.0, 5.0, 5.0),
                                            log_variance=(9.0, 9.0, 9.0), keypoints=kp), other))])
        write(kp_path, [frame("k0", (head("a", (0.0, 0.0), keypoints=kp), other))])
        _, given, _ = run(capsys, "laeo", "--frames", str(both_path))
        code, from_both, err = run(
            capsys, "laeo", "--frames", str(both_path), "--model", str(unc_model))
        assert code == 0, err
        _, from_kp, _ = run(capsys, "laeo", "--frames", str(kp_path), "--model", str(unc_model))
        assert from_both == from_kp != given

    def test_point_model_leaves_heads_ungated(self, tmp_path, capsys):
        # a model without a variance head gives no log-variances to gate on
        model_path = tmp_path / "mse.hpm"
        write_model(model_path, Model.build(ModelConfig("mse"), np.random.default_rng(0)))
        samples = generate_dataset(3, np.random.default_rng(7))
        heads = [head(f"h{i}", (30.0 * i, 0.0), keypoints=s.keypoints)
                 for i, s in enumerate(samples)]
        frames_path = tmp_path / "kp.jsonl"
        write(frames_path, [frame("k0", heads)])
        code, out, err = run(capsys, "laeo", "--frames", str(frames_path),
                             "--model", str(model_path), "--delta", "0.001")
        assert code == 0, err
        lines = [json.loads(line) for line in out.splitlines()]
        assert all(r["weight_a"] == 1 and r["weight_b"] == 1 for r in lines[:-1])
        assert lines[-1]["summary"]["n_heads"] == 3
        assert lines[-1]["summary"]["n_heads_gated"] == 0


    @pytest.mark.filterwarnings("error")
    def test_non_finite_model_estimate_names_head(self, tmp_path, capsys):
        # read_model refuses non-finite weights, but finite keypoints near the
        # float range still overflow in normalize and give a NaN estimate,
        # which is reported without a numpy warning before it
        model_path = tmp_path / "unc.hpm"
        write_model(model_path, Model.build(ModelConfig("heteroscedastic"),
                                            np.random.default_rng(0)))
        huge = [[1.7e308, 0.0, 1.0], [1.7e308, 1.0, 1.0], [-1.7e308, 2.0, 1.0],
                [3.0, 1.0, 1.0], [0.0, 0.0, 1.0]]
        frames_path = tmp_path / "kp.jsonl"
        write(frames_path, [frame("k0", (head("a", (0.0, 0.0), pose=(90.0, 0.0, 0.0)),
                                         head("b", (9.0, 0.0),
                                              keypoints=KeypointSet.from_triplets(huge))))])
        for gate in ("interval", "off"):
            code, _, err = run(capsys, "laeo", "--frames", str(frames_path),
                               "--model", str(model_path), "--gate", gate)
            assert code == 1
            assert "frame 'k0' head 'b': the model gave a non-finite estimate" in err


def write_non_finite_model(path: Path) -> None:
    """A model file whose last output bias is NaN, as write_model would refuse it."""
    write_model(path, Model.build(ModelConfig("heteroscedastic"), np.random.default_rng(0)))
    data = path.read_bytes()
    path.write_bytes(data[:-4] + np.float32(np.nan).tobytes())


@pytest.mark.parametrize("command", ["infer", "eval", "laeo"])
def test_non_finite_model_file_is_refused(tmp_path, data_file, capsys, command):
    model_path = tmp_path / "nan.hpm"
    write_non_finite_model(model_path)
    argv = {
        "infer": ["infer", "--data", str(data_file)],
        "eval": ["eval", "--data", str(data_file), "--report", str(tmp_path / "r.json")],
        "laeo": ["laeo", "--frames", str(DATA / "laeo_frames_labelled.jsonl")],
    }[command]
    code, out, err = run(capsys, *argv, "--model", str(model_path))
    assert code == 1 and out == ""
    assert err == f"error: {model_path}: non-finite value in tensor head_b\n"
    assert not (tmp_path / "r.json").exists()


PIN_MODEL = (DATA / "score_pin_unc.hpm").read_bytes()
PIN_HEADER_END = PIN_MODEL.index(b"\n") + 1
PIN_KEYPOINTS = read_dataset(DATA / "score_pin.jsonl").keypoints[:2].tolist()
KEYPOINT_FRAME = {"frame_id": "k0", "heads": [
    {"id": "a", "centroid": [0.0, 0.0], "keypoints": PIN_KEYPOINTS[0]},
    {"id": "b", "centroid": [30.0, 0.0], "keypoints": PIN_KEYPOINTS[1]}]}
_header_bytes = st.sampled_from(b'0123456789{}[]",:.-+eE ntf\\\n') | st.integers(0, 255)


@st.composite
def _mutated_model(draw) -> bytes:
    """The pinned model file after one to three truncations, header byte edits
    or bit flips in the tensor blob."""
    data = bytearray(PIN_MODEL)
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["truncate", "header", "flip"]))
        if kind == "truncate" and data:
            del data[draw(st.integers(0, len(data) - 1)):]
        elif kind == "header" and data:
            data[draw(st.integers(0, min(PIN_HEADER_END, len(data)) - 1))] = draw(_header_bytes)
        elif kind == "flip" and len(data) > PIN_HEADER_END:
            data[draw(st.integers(PIN_HEADER_END, len(data) - 1))] ^= 1 << draw(st.integers(0, 7))
    return bytes(data)


@settings(max_examples=150, deadline=None)
@given(blob=_mutated_model())
def test_mutated_model_files_fail_cleanly(blob):
    # in-process, so an exception that escapes cli.main fails the example
    with tempfile.TemporaryDirectory() as tmp:
        model, out = os.path.join(tmp, "m.hpm"), os.path.join(tmp, "out")
        with open(model, "wb") as f:
            f.write(blob)
        frames = os.path.join(tmp, "kp.jsonl")
        write(frames, [KEYPOINT_FRAME])
        for argv in (
            ["infer", "--model", model, "--data", str(DATA / "score_pin.jsonl"), "--out", out],
            ["eval", "--model", model, "--data", str(DATA / "score_pin.jsonl"), "--report", out],
            ["laeo", "--frames", frames, "--model", model, "--out", out],
        ):
            stdout, stderr = io.StringIO(), io.StringIO()
            with warnings.catch_warnings(record=True) as caught, \
                    contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                warnings.simplefilter("always")
                code = cli.main(argv)
            err = stderr.getvalue()
            assert code in (0, 1), argv
            assert "Traceback" not in err and not caught, (argv, err, caught)
            assert err == "" if code == 0 else re.fullmatch(r"error: [^\n]*\n", err), (argv, err)


_SYNTH_VALUES = st.sampled_from(["0", "-0.0", "-1", "-1e-300", "5e-324", "1e-9", "0.3", "1",
                                 "20", "180", "181", "1e6", "1e308", "-1e308",
                                 "inf", "-inf", "nan"])


@st.composite
def _synth_argv(draw) -> list[str]:
    """synth flags drawn from edge values; --n is small or far past any memory."""
    argv = ["synth", "--n", draw(st.sampled_from(["1", "2", "3", "4", "5", str(10**15)]))]
    for flag in ("--yaw-range", "--pitch-range", "--roll-range", "--occlusion-yaw",
                 "--drop-fraction"):
        if draw(st.booleans()):
            argv += [flag, draw(_SYNTH_VALUES)]
    if draw(st.booleans()):
        argv += ["--noise", f"{draw(_SYNTH_VALUES)},{draw(_SYNTH_VALUES)}"]
    if draw(st.booleans()):
        argv += ["--seed", draw(st.sampled_from(["0", "7", "-1", "1e3", str(2**70)]))]
    return argv


def _main_cleanly(argv: list[str]) -> int:
    """cli.main(argv) in-process, so an exception that escapes it fails the
    example. Requires exit code 0, 1 or 2 (argparse's refusal), no warning,
    no traceback, no subprocess, and one `error:` line exactly on failure."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), \
            mock.patch.object(subprocess, "Popen", side_effect=AssertionError("subprocess")):
        warnings.simplefilter("always")
        try:
            code = cli.main(argv)
        except SystemExit as e:
            code = e.code
    err = stderr.getvalue()
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err and not caught, (argv, err, caught)
    assert sum("error:" in line for line in err.splitlines()) == (code != 0), (argv, err)
    return code


@settings(max_examples=300, deadline=None)
@given(argv=_synth_argv())
def test_synth_flags_fail_cleanly(argv):
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "d.jsonl")
        code = _main_cleanly([*argv, "--out", out])
        assert os.path.exists(out) == (code == 0), argv


_FLAG_VALUES = st.sampled_from(["0", "-0.0", "-1", "-1e-300", "5e-324", "1e-9", "0.5", "1", "7",
                                "1e6", "1e308", "-1e308", "inf", "-inf", "nan"])
# --alpha is small, or wide enough that the config refuses it before allocating
_ALPHA_VALUES = st.sampled_from(["0", "-0.0", "-1", "-1e308", "5e-324", "1e-9", "0.05", "0.1",
                                 "16.4", "1e6", "1e308", "inf", "nan"])
_INT_VALUES = st.sampled_from(["0", "-1", "1", "2", "64", "1e3", str(10**15), str(2**70)])
_EMPTY = st.sampled_from([b"", b"\n"])


def _joined(lines: list[bytes]) -> bytes:
    return b"\n".join(lines) + b"\n"


_data_blobs = (st.just((DATA / "score_pin.jsonl").read_bytes()) | _EMPTY
               | _spoilt_files().map(_joined))
_frames_blobs = (st.sampled_from([(DATA / "laeo_frames_labelled.jsonl").read_bytes(),
                                  _joined([json.dumps(KEYPOINT_FRAME).encode()])]) | _EMPTY
                 | _spoilt_frame_files().map(_joined))
_model_blobs = st.sampled_from([PIN_MODEL, (DATA / "score_pin_mse.hpm").read_bytes()]) \
    | _EMPTY | _mutated_model()


@st.composite
def _command(draw) -> tuple[list[str], dict[str, bytes]]:
    """A command line over train, eval, infer, laeo and ablate, with its input
    files' bytes by name; flags are drawn from edge values, and --epochs is 1
    or 2."""
    command = draw(st.sampled_from(["train", "eval", "infer", "laeo", "ablate"]))
    files = {"data": draw(_data_blobs)}
    argv = [command]
    if command in ("eval", "infer") or command == "laeo" and draw(st.booleans()):
        files["model"] = draw(_model_blobs)
    if command == "laeo":
        files["frames"] = draw(_frames_blobs)
        del files["data"]
        for flag in ("--tau", "--delta"):
            if draw(st.booleans()):
                argv += [flag, draw(_FLAG_VALUES)]
        if draw(st.booleans()):
            argv += ["--gate", draw(st.sampled_from(["interval", "open-below", "off"]))]
    if command in ("train", "ablate"):
        if command == "ablate" or draw(st.booleans()):
            files["val"] = draw(_data_blobs)
        argv += ["--epochs", draw(st.sampled_from(["1", "2"]))]
        for flag, values in (("--batch-size", _INT_VALUES), ("--lr", _FLAG_VALUES),
                             ("--alpha", _ALPHA_VALUES), ("--seed", _INT_VALUES)):
            if draw(st.booleans()):
                argv += [flag, draw(values)]
    if command == "train" and draw(st.booleans()):
        argv += ["--loss", draw(st.sampled_from(["unc", "mse", "comb"]))]
    return argv, files


@settings(max_examples=400, deadline=None)
@given(command=_command())
def test_command_flags_fail_cleanly(command):
    argv, files = command
    with tempfile.TemporaryDirectory() as tmp:
        for name, blob in files.items():
            path = os.path.join(tmp, name)
            with open(path, "wb") as f:
                f.write(blob)
            argv += [f"--{name}", path]
        _main_cleanly([*argv, "--report" if argv[0] == "eval" else "--out",
                       os.path.join(tmp, "out")])


# a usable record, and one whose finite keypoints near the float range
# overflow in normalize
GOOD_RECORD = {"id": "ok", "keypoints": [[0, 0, 1], [1, 0, 1], [2, 1, 1], [3, 0, 1], [4, 2, 1]],
               "pose": [0, 0, 0]}
HUGE_RECORD = {"id": "huge", "keypoints": [[1.7e308, 0.0, 1.0], [1.7e308, 1.0, 1.0],
                                           [-1.7e308, 2.0, 1.0], [3.0, 1.0, 1.0],
                                           [0.0, 0.0, 1.0]],
               "pose": [0, 0, 0]}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command", ["infer", "eval"])
def test_non_finite_estimate_names_record(tmp_path, capsys, command):
    # the NaN estimate of an overflowing record is refused, not printed as
    # `NaN` or averaged in, and its error line is all that reaches stderr
    model_path = tmp_path / "unc.hpm"
    write_model(model_path, Model.build(ModelConfig("heteroscedastic"), np.random.default_rng(0)))
    data = tmp_path / "d.jsonl"
    data.write_text(json.dumps(GOOD_RECORD) + "\n" + json.dumps(HUGE_RECORD) + "\n")
    out = tmp_path / "out"
    flag = "--out" if command == "infer" else "--report"
    code, stdout, err = run(capsys, command, "--model", str(model_path), "--data", str(data),
                            flag, str(out))
    assert code == 1 and stdout == ""
    assert err == f"error: {data}: line 2: record 'huge': the model gave a non-finite estimate\n"
    assert not out.exists()


@pytest.mark.filterwarnings("error")
def test_overflowing_record_fails_training_with_one_line(tmp_path, capsys):
    # the record's NaN inputs make the first batch loss non-finite; that
    # loss's error line is all that reaches stderr
    data, val, out = tmp_path / "d.jsonl", tmp_path / "v.jsonl", tmp_path / "m.hpm"
    data.write_text(json.dumps(GOOD_RECORD) + "\n" + json.dumps(HUGE_RECORD) + "\n")
    val.write_text(json.dumps(GOOD_RECORD) + "\n")
    code, stdout, err = run(capsys, "train", "--data", str(data), "--val", str(val),
                            "--epochs", "1", "--out", str(out))
    assert code == 1 and stdout == ""
    assert err == "error: non-finite loss at epoch 0, batch 0 (no finite training loss yet)\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "eval"])
def test_record_without_pose_names_its_line(tmp_path, unc_model, capsys, command):
    labelled = {"id": "l", "keypoints": [[0, 0, 1], [1, 0, 1], [2, 1, 1], [3, 0, 1], [4, 2, 1]],
                "pose": [0, 0, 0]}
    unlabelled = {"id": "u", "keypoints": labelled["keypoints"]}
    data = tmp_path / "d.jsonl"
    data.write_text("".join(json.dumps(r) + "\n\n" for r in (labelled, labelled, unlabelled)))
    out = tmp_path / "out"
    argv = {
        "train": ["train", "--data", str(data), "--epochs", "1", "--out", str(out)],
        "eval": ["eval", "--model", str(unc_model), "--data", str(data), "--report", str(out)],
    }[command]
    code, _, err = run(capsys, *argv)
    assert code == 1
    assert err == f"error: {data}: line 5: record 'u' has no ground-truth pose\n"
    assert not out.exists()


@pytest.mark.parametrize("command",
                         ["train", "train-val", "train-fine-val", "eval", "infer", "ablate"])
def test_record_without_usable_keypoints_names_its_line(tmp_path, unc_model, capsys, command):
    good = {"id": "a", "keypoints": [[0, 0, 1], [1, 0, 1], [2, 1, 1], [3, 0, 1], [4, 2, 1]],
            "pose": [0, 0, 0]}
    blind = {"id": "b", "keypoints": [[0, 0, 0], [1, 0, 0], [2, 1, 0], [3, 0, 0], [4, 2, 0]],
             "pose": [0, 0, 0]}
    bad, fine = tmp_path / "bad.jsonl", tmp_path / "fine.jsonl"
    bad.write_text(json.dumps(good) + "\n" + json.dumps(blind) + "\n")
    fine.write_text(json.dumps(good) + "\n" + json.dumps(good) + "\n")
    out = tmp_path / "out"
    argv = {
        "train": ["train", "--data", str(bad), "--epochs", "1", "--out", str(out)],
        "train-val": ["train", "--data", str(fine), "--val", str(bad), "--epochs", "1",
                      "--out", str(out)],
        "train-fine-val": ["train", "--data", str(bad), "--val", str(fine), "--epochs", "1",
                           "--out", str(out)],
        "eval": ["eval", "--model", str(unc_model), "--data", str(bad), "--report", str(out)],
        "infer": ["infer", "--model", str(unc_model), "--data", str(bad), "--out", str(out)],
        "ablate": ["ablate", "--data", str(bad), "--val", str(fine), "--epochs", "1",
                   "--out", str(out)],
    }[command]
    code, stdout, err = run(capsys, *argv)
    assert code == 1 and stdout == ""
    # the file is named: with --data and --val, either may hold the bad record
    assert err == (f"error: {bad}: line 2: record 'b': "
                   "no usable keypoints: all confidences are zero\n")
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "ablate"])
@pytest.mark.parametrize("wide_flag", ["--data", "--val"])
def test_pose_outside_the_bins_names_its_record(tmp_path, capsys, command, wide_flag):
    # the combined loss bins each angle over [-99, 99] degrees; a pose beyond
    # them is refused, naming its record, before any training step
    good = {"id": "a", "keypoints": [[0, 0, 1], [1, 0, 1], [2, 1, 1], [3, 0, 1], [4, 2, 1]],
            "pose": [0, 0, 0]}
    wide = {**good, "id": "w", "pose": [0, -120.5, 0]}
    wide_file, fine = tmp_path / "wide.jsonl", tmp_path / "fine.jsonl"
    wide_file.write_text(json.dumps(good) + "\n" + json.dumps(wide) + "\n")
    fine.write_text(json.dumps(good) + "\n" + json.dumps(good) + "\n")
    files = {"--data": fine, "--val": fine, wide_flag: wide_file}
    out = tmp_path / "out"
    argv = [command, "--data", str(files["--data"]), "--val", str(files["--val"]),
            "--epochs", "1", "--out", str(out)]
    code, stdout, err = run(capsys, *argv, *(["--loss", "comb"] if command == "train" else []))
    assert code == 1 and stdout == ""
    assert err == (f"error: {wide_file}: line 2: record 'w': pose outside [-99.0, 99.0] "
                   "degrees, the range of the combined loss's bins\n")
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "train-val", "eval", "ablate", "ablate-val"])
def test_empty_data_file_is_refused_before_training(tmp_path, unc_model, data_file, capsys,
                                                    monkeypatch, command):
    def boom(*args, **kwargs):
        raise AssertionError("a model was trained")

    monkeypatch.setattr(cli, "train", boom, raising=False)
    empty, out = tmp_path / "empty.jsonl", tmp_path / "out"
    empty.write_text("\n")
    argv = {
        "train": ["train", "--data", str(empty), "--out", str(out)],
        "train-val": ["train", "--data", str(data_file), "--val", str(empty), "--out", str(out)],
        "eval": ["eval", "--model", str(unc_model), "--data", str(empty), "--report", str(out)],
        "ablate": ["ablate", "--data", str(empty), "--val", str(data_file), "--out", str(out)],
        "ablate-val": ["ablate", "--data", str(data_file), "--val", str(empty),
                       "--out", str(out)],
    }[command]
    code, stdout, err = run(capsys, *argv)
    assert code == 1 and stdout == ""
    assert err == f"error: {empty}: no records\n"
    assert not out.exists()


def test_empty_frames_file_gives_only_the_summary(tmp_path, capsys):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    code, out, err = run(capsys, "laeo", "--frames", str(empty))
    assert code == 0 and err == ""
    assert json.loads(out)["summary"]["n_pairs"] == 0


@pytest.mark.parametrize("command", ["eval", "infer"])
def test_missing_output_directory_names_the_requested_path(tmp_path, unc_model, data_file,
                                                           capsys, command):
    target = tmp_path / "absent" / "out.json"
    flag = "--report" if command == "eval" else "--out"
    code, stdout, err = run(capsys, command, "--model", str(unc_model), "--data", str(data_file),
                            flag, str(target))
    assert code == 1 and stdout == ""
    assert err == f"error: [Errno 2] No such file or directory: '{target}'\n"


PINS = json.loads((DATA / "train_pins.json").read_text())


@pytest.mark.parametrize("loss", sorted(PINS["sha256"]))
def test_training_output_is_pinned(tmp_path, capsys, loss):
    # tests/data/train_pins.json holds the SHA-256 of the model and history
    # files that `train` wrote for these inputs and flags
    out = tmp_path / f"{loss}.hpm"
    code, _, err = run(capsys, "train", "--data", str(DATA / PINS["train"]),
                       "--val", str(DATA / PINS["val"]), "--loss", loss, *PINS["args"],
                       "--out", str(out))
    assert code == 0, err
    digest = {
        "model": hashlib.sha256(out.read_bytes()).hexdigest(),
        "history": hashlib.sha256(Path(f"{out}.history.json").read_bytes()).hexdigest(),
    }
    assert digest == PINS["sha256"][loss]


SYNTH_PINS = json.loads((DATA / "synth_pins.json").read_text())


@pytest.mark.parametrize("name", sorted(SYNTH_PINS["sha256"]))
def test_synth_output_is_pinned(tmp_path, capsys, name):
    # tests/data/synth_pins.json holds the SHA-256 of the files that `synth`
    # wrote for these flags: clean, noisy, with drops, and with every
    # generator flag away from its default
    out = tmp_path / "synth.jsonl"
    code, _, err = run(capsys, "synth", "--n", str(SYNTH_PINS["n"]),
                       "--seed", str(SYNTH_PINS["seed"]), *SYNTH_PINS["args"][name],
                       "--out", str(out))
    assert code == 0, err
    assert hashlib.sha256(out.read_bytes()).hexdigest() == SYNTH_PINS["sha256"][name]


@pytest.mark.parametrize("loss", ["unc", "mse"])
def test_score_output_is_pinned(tmp_path, capsys, loss):
    # tests/data holds a labelled file with missing keypoints (its last line
    # has integer values and meta), a small model per head kind, and the
    # `eval` report and `infer` rows that the CLI wrote for them
    model, data = str(DATA / f"score_pin_{loss}.hpm"), str(DATA / "score_pin.jsonl")
    report, rows = tmp_path / "report.json", tmp_path / "rows.jsonl"
    code, _, err = run(capsys, "eval", "--model", model, "--data", data, "--report", str(report))
    assert code == 0, err
    code, _, err = run(capsys, "infer", "--model", model, "--data", data, "--out", str(rows))
    assert code == 0, err
    assert report.read_bytes() == (DATA / f"score_pin_{loss}_report.json").read_bytes()
    assert rows.read_bytes() == (DATA / f"score_pin_{loss}_infer.jsonl").read_bytes()


@pytest.mark.parametrize("kind", ["labelled", "unlabelled"])
@pytest.mark.parametrize("gate", ["interval", "open-below", "off"])
def test_laeo_output_is_pinned(tmp_path, capsys, kind, gate):
    # tests/data holds ready-estimate frames (one head without variances,
    # one facing the camera) and the output of `laeo` on them
    out_path = tmp_path / "pairs.jsonl"
    code, _, err = run(capsys, "laeo", "--frames", str(DATA / f"laeo_frames_{kind}.jsonl"),
                       "--gate", gate, "--out", str(out_path))
    assert code == 0, err
    assert out_path.read_bytes() == (DATA / f"laeo_{kind}_{gate}.jsonl").read_bytes()


class TestAblate:
    def test_table_and_report(self, tmp_path, data_file, capsys):
        report = tmp_path / "ablate.json"
        code, out, err = run(
            capsys,
            "ablate", "--data", str(data_file), "--val", str(data_file),
            "--epochs", "1", "--batch-size", "6",
            "--seed", "2", "--out", str(report),
        )
        assert code == 0, err
        lines = out.strip().splitlines()
        assert lines[0].split() == ["loss", "err_yaw", "err_pitch", "err_roll", "mae"]
        assert [line.split()[0] for line in lines[1:4]] == ["mse", "comb", "unc"]
        doc = json.loads(report.read_text())
        assert doc["seed"] == 2 and doc["epochs"] == 1
        assert [row["loss"] for row in doc["rows"]] == ["mse", "comb", "unc"]
        for row in doc["rows"]:
            assert list(row.keys()) == ["loss", "err_yaw", "err_pitch", "err_roll", "mae"]
            assert np.isfinite(row["mae"])


class TestParser:
    def test_missing_subcommand_exits(self, capsys):
        with pytest.raises(SystemExit):
            cli.main([])
        capsys.readouterr()

    def test_unknown_loss_rejected(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            cli.main(["train", "--data", "x", "--loss", "huber", "--out", "y"])
        capsys.readouterr()

    @pytest.mark.parametrize(
        "argv",
        [
            pytest.param(["train", "--data", "d", "--out", "m", "--lr", "nan"], id="train-lr"),
            pytest.param(["train", "--data", "d", "--out", "m", "--alpha", "inf"],
                         id="train-alpha"),
            pytest.param(["ablate", "--data", "d", "--lr=-inf"], id="ablate-lr"),
            pytest.param(["ablate", "--data", "d", "--alpha", "nan"], id="ablate-alpha"),
            pytest.param(["laeo", "--frames", "f", "--tau", "nan"], id="laeo-tau"),
            pytest.param(["laeo", "--frames", "f", "--delta", "nan"], id="laeo-delta"),
            pytest.param(["synth", "--n", "3", "--out", "x", "--yaw-range", "inf"],
                         id="synth-yaw-range"),
            pytest.param(["synth", "--n", "3", "--out", "x", "--pitch-range", "nan"],
                         id="synth-pitch-range"),
            pytest.param(["synth", "--n", "3", "--out", "x", "--roll-range", "1e999"],
                         id="synth-roll-range"),
            pytest.param(["synth", "--n", "3", "--out", "x", "--occlusion-yaw", "nan"],
                         id="synth-occlusion-yaw"),
            pytest.param(["synth", "--n", "3", "--out", "x", "--drop-fraction", "nan"],
                         id="synth-drop-fraction"),
        ],
    )
    def test_non_finite_flag_rejected(self, capsys, argv):
        with pytest.raises(SystemExit) as info:
            cli.main(argv)
        assert info.value.code == 2
        assert "expected a finite number" in capsys.readouterr().err

    def test_ablate_needs_val(self, capsys):
        # each loss would otherwise draw its own split after its build
        with pytest.raises(SystemExit) as info:
            cli.main(["ablate", "--data", "d"])
        assert info.value.code == 2
        assert "--val" in capsys.readouterr().err

    @pytest.mark.parametrize("noise", ["nan,0", "1,inf"])
    def test_non_finite_noise_rejected(self, tmp_path, capsys, noise):
        out = tmp_path / "x.jsonl"
        code, _, err = run(capsys, "synth", "--n", "3", "--noise", noise, "--out", str(out))
        assert code == 1
        assert err.startswith("error: --noise: expected a finite number")
        assert not out.exists()

    @pytest.mark.parametrize("alpha", ["1e308", "1000"])
    def test_too_wide_model_is_refused_before_allocation(self, tmp_path, data_file, capsys,
                                                          monkeypatch, alpha):
        def build(config, rng):
            raise AssertionError("a model was allocated")

        monkeypatch.setattr(Model, "build", staticmethod(build))
        out = tmp_path / "m.hpm"
        code, stdout, err = run(capsys, "train", "--data", str(data_file), "--alpha", alpha,
                                "--out", str(out))
        assert code == 1 and stdout == ""
        assert err == (f"error: width_scale {float(alpha)} makes a layer wider than "
                       f"{MAX_FC_WIDTH} units\n")
        assert not out.exists()

    @pytest.mark.filterwarnings("error")
    def test_overflowing_training_prints_only_its_error(self, tmp_path, data_file, capsys):
        # the first step overflows the weights, so the validation pass after
        # it fails the run; a numpy warning would raise here before the error
        code, stdout, err = run(capsys, "train", "--data", str(data_file), "--epochs", "3",
                                "--lr", "1e300", "--seed", "3", "--out", str(tmp_path / "m.hpm"))
        assert code == 1 and stdout == ""
        assert err.startswith("error: non-finite validation loss at epoch 0 (last finite")
        assert err.count("\n") == 1

    @pytest.mark.filterwarnings("error")
    def test_non_finite_validation_loss_fails_the_run(self, tmp_path, capsys):
        # one epoch of one step: the overflowed weights were never scored
        # finite, so without the check they reached the model writer
        data, out = tmp_path / "d.jsonl", tmp_path / "m.hpm"
        assert run(capsys, "synth", "--n", "200", "--seed", "1", "--out", str(data))[0] == 0
        code, stdout, err = run(capsys, "train", "--data", str(data), "--epochs", "1",
                                "--batch-size", "1000", "--lr", "1e300", "--out", str(out))
        assert code == 1 and stdout == ""
        assert re.fullmatch(r"error: non-finite validation loss at epoch 0 "
                            r"\(last finite training loss [^()]+\)\n", err)
        assert not out.exists() and not Path(str(out) + ".history.json").exists()

    def test_diverging_training_reports_error(self, tmp_path, data_file, capsys):
        code, _, err = run(
            capsys, "train", "--data", str(data_file), "--epochs", "3", "--batch-size", "4",
            "--seed", "3", "--lr", "1e9", "--out", str(tmp_path / "m.hpm"),
        )
        assert code == 1
        assert err.startswith("error: non-finite") and "epoch" in err and "batch" in err
        # the message ends with the last finite batch loss of the run
        last = err.strip().rsplit("last finite training loss ", 1)[1].rstrip(")")
        assert math.isfinite(float(last))
        assert not (tmp_path / "m.hpm").exists()


# The headpose modules each command loads when `cli.main` runs it in a fresh
# process: `laeo` without a model loads no network or training code, only
# `train` loads training and loss code, no command here loads synthesis
# code, only `eval` loads evaluation code, and none loads `autodiff`, the
# engine of the test oracles. `geometry` comes with `model`.
SCORING = {"cli", "formats", "keypoints", "laeo_settings"}
NETWORK = {"model", "geometry"}
LOADED_BY = {
    "laeo": SCORING | {"laeo"},
    "laeo --model": SCORING | NETWORK | {"laeo"},
    "infer": SCORING | NETWORK,
    "eval": SCORING | NETWORK | {"evaluation"},
    "train": SCORING | NETWORK | {"training", "losses"},
}
LIST_MODULES = """
import sys
from headpose.cli import main
code = main(sys.argv[1:])
loaded = sorted(m.split(".", 1)[1] for m in sys.modules if m.startswith("headpose."))
print(code, *loaded, file=sys.stderr)
"""


@pytest.mark.parametrize("command", list(LOADED_BY))
def test_command_loads_only_the_modules_it_runs(tmp_path, command):
    model = str(DATA / "score_pin_unc.hpm")
    frames = tmp_path / "kp.jsonl"
    sample = generate_dataset(1, np.random.default_rng(3))[0]
    write(frames, [frame("k0", (head("a", (0.0, 0.0), keypoints=sample.keypoints),
                                head("b", (30.0, 0.0), pose=(-90.0, 0.0, 0.0))))])
    out = str(tmp_path / "out")
    argv = {
        "laeo": ["laeo", "--frames", str(DATA / "laeo_frames_labelled.jsonl"), "--out", out],
        "laeo --model": ["laeo", "--frames", str(frames), "--model", model, "--out", out],
        "infer": ["infer", "--model", model, "--data", str(DATA / "score_pin.jsonl"),
                  "--out", out],
        "eval": ["eval", "--model", model, "--data", str(DATA / "score_pin.jsonl"),
                 "--report", out],
        "train": ["train", "--data", str(DATA / "score_pin.jsonl"), "--epochs", "1",
                  "--alpha", "0.2", "--out", out],
    }[command]
    src = str(Path(cli.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run([sys.executable, "-c", LIST_MODULES, *argv],
                          env=env, capture_output=True, text=True, timeout=120)
    code, *loaded = proc.stderr.split()
    assert code == "0", proc.stderr
    assert set(loaded) == LOADED_BY[command]
