"""Command-line surface: flags, file outputs, error reporting, seeding."""

from __future__ import annotations

import json

import numpy as np
import pytest

from headpose import cli
from headpose.evaluation import evaluate
from headpose.formats import (
    FrameRecord,
    HeadRecord,
    read_dataset,
    read_model,
    samples_from_records,
    write_frames,
    write_model,
)
from headpose.geometry import EulerPose
from headpose.keypoints import Keypoint, KeypointSet, normalize
from headpose.model import Model, ModelConfig
from headpose.synthetic import generate_dataset


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
        records = read_dataset(out)
        assert len(records) == 7
        assert all(r.pose is not None for r in records)

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
        for r in read_dataset(out):
            assert abs(r.pose.yaw) <= 10 and abs(r.pose.pitch) <= 5 and abs(r.pose.roll) <= 1

    def test_bad_noise_flag_exits_nonzero(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "synth", "--n", "3", "--noise", "1", "--out", str(tmp_path / "x.jsonl")
        )
        assert code == 1
        assert err.startswith("error:")
        assert not (tmp_path / "x.jsonl").exists()

    def test_env_seed_fallback(self, tmp_path, capsys, monkeypatch):
        flagged = tmp_path / "flagged.jsonl"
        from_env = tmp_path / "env.jsonl"
        run(capsys, "synth", "--n", "5", "--seed", "9", "--out", str(flagged))
        monkeypatch.setenv("HEADPOSE_SEED", "9")
        run(capsys, "synth", "--n", "5", "--out", str(from_env))
        assert flagged.read_bytes() == from_env.read_bytes()
        monkeypatch.delenv("HEADPOSE_SEED")
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
        assert "error: line 3" in err


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
        result = evaluate(read_model(unc_model), samples_from_records(read_dataset(data_file)))
        assert len(rows) == len(result.records) == 12
        for row, record in zip(rows, result.records):
            pose = record.estimate.pose
            assert (row["yaw"], row["pitch"], row["roll"]) == (pose.yaw, pose.pitch, pose.roll)
            assert row["log_variance"] == record.estimate.log_variance.tolist()

    def test_empty_file_gives_no_rows(self, tmp_path, unc_model, capsys):
        empty = tmp_path / "none.jsonl"
        empty.write_text("")
        code, out, err = run(capsys, "infer", "--model", str(unc_model), "--data", str(empty))
        assert code == 0, err
        assert out == ""


def mutual_pair():
    return (
        HeadRecord("a", (0.0, 0.0), pose=EulerPose(90.0, 0.0, 0.0), log_variance=(0.5, 0.5, 0.5)),
        HeadRecord("b", (10.0, 0.0), pose=EulerPose(-90.0, 0.0, 0.0), log_variance=(0.5, 0.5, 0.5)),
    )


def write_labelled_frames(path):
    a, b = mutual_pair()
    looking_away = HeadRecord("b", (10.0, 0.0), pose=EulerPose(90.0, 0.0, 0.0))
    frames = [
        FrameRecord("f0", heads=(a, b), laeo_pairs=(("a", "b"),)),
        FrameRecord("f1", heads=(a, looking_away), laeo_pairs=()),
    ]
    write_frames(path, frames)


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
        write_frames(frames_path, [FrameRecord("g0", heads=(a, b), has_labels=False)])
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
            HeadRecord("a", (0.0, 0.0), pose=EulerPose(70.0, 10.0, 0.0),
                       log_variance=(0.5, 1.5, 0.0)),
            HeadRecord("b", (40.0, 5.0), pose=EulerPose(-60.0, -5.0, 3.0)),
            HeadRecord("d", (-25.0, 30.0), pose=EulerPose(20.0, 40.0, 0.0),
                       log_variance=(9.0, 9.0, 0.0)),
        )
        frontal = HeadRecord("c", (15.0, -20.0), pose=EulerPose(0.0, 0.0, 5.0))
        with_path, without_path = tmp_path / "with.jsonl", tmp_path / "without.jsonl"
        write_frames(with_path, [FrameRecord("f", heads=others + (frontal,),
                                             laeo_pairs=(("a", "b"),))])
        write_frames(without_path, [FrameRecord("f", heads=others, laeo_pairs=(("a", "b"),))])
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

    def test_keypoint_frames_need_model(self, tmp_path, unc_model, data_file, capsys):
        sample = generate_dataset(1, np.random.default_rng(3))[0]
        heads = (
            HeadRecord("a", (0.0, 0.0), keypoints=sample.keypoints),
            HeadRecord("b", (30.0, 0.0), pose=EulerPose(-90.0, 0.0, 0.0)),
        )
        frames_path = tmp_path / "kp.jsonl"
        write_frames(frames_path, [FrameRecord("k0", heads=heads, has_labels=False)])
        code, _, err = run(capsys, "laeo", "--frames", str(frames_path))
        assert code == 1
        assert "pass --model" in err
        code, out, err = run(
            capsys, "laeo", "--frames", str(frames_path), "--model", str(unc_model)
        )
        assert code == 0, err
        rows = [json.loads(line) for line in out.splitlines()]
        assert rows[0]["pair"] == ["a", "b"]

    def test_model_estimates_map_back_to_heads(self, tmp_path, unc_model, capsys):
        # keypoint heads of every frame go through one batch; each estimate
        # must land on its own (frame, head), as if it had been given ready
        samples = generate_dataset(7, np.random.default_rng(4))
        sizes = (2, 3, 2)
        model = read_model(unc_model)
        inputs = normalize([s.keypoints for s in samples])
        angles, log_var = model.predict_batch(inputs.x1, inputs.x2, inputs.c)
        with_keypoints, with_estimates = [], []
        k = 0
        for f, n in enumerate(sizes):
            kp_heads, ready_heads = [], []
            for h in range(n):
                centroid = (40.0 * h, 25.0 * f)
                kp_heads.append(HeadRecord(f"h{h}", centroid, keypoints=samples[k].keypoints))
                ready_heads.append(HeadRecord(
                    f"h{h}", centroid, pose=EulerPose(*angles[k].tolist()),
                    log_variance=tuple(log_var[k].tolist()),
                ))
                k += 1
            with_keypoints.append(FrameRecord(f"f{f}", heads=tuple(kp_heads), laeo_pairs=()))
            with_estimates.append(FrameRecord(f"f{f}", heads=tuple(ready_heads), laeo_pairs=()))
        kp_path, ready_path = tmp_path / "kp.jsonl", tmp_path / "ready.jsonl"
        write_frames(kp_path, with_keypoints)
        write_frames(ready_path, with_estimates)
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
            FrameRecord("k0", heads=(HeadRecord("a", (0.0, 0.0), keypoints=good),
                                     HeadRecord("b", (30.0, 0.0), keypoints=good))),
            FrameRecord("k1", heads=(HeadRecord("a", (0.0, 0.0), keypoints=good),
                                     HeadRecord("ghost", (30.0, 0.0), keypoints=blind))),
        ]
        frames_path = tmp_path / "kp.jsonl"
        write_frames(frames_path, frames)
        code, _, err = run(
            capsys, "laeo", "--frames", str(frames_path), "--model", str(unc_model)
        )
        assert code == 1
        assert "'k1'" in err and "'ghost'" in err and "confidences are zero" in err


class TestAblate:
    def test_table_and_report(self, tmp_path, data_file, capsys):
        report = tmp_path / "ablate.json"
        code, out, err = run(
            capsys,
            "ablate", "--data", str(data_file), "--epochs", "1", "--batch-size", "6",
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
