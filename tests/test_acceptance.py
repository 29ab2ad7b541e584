"""End-to-end acceptance suite for the shipped claims.

One test per claim, in order; each prints a one-line PASS/FAIL verdict
with the measured numbers so a full run reads as a checklist. The two
training fixtures are module-scoped and shared by the tests that need
them. Everything runs on generated data with fixed seeds.
"""

from __future__ import annotations

import json
import math
import time

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from headpose import cli
from headpose.evaluation import build_report, evaluate, pearson
from headpose.formats import read_dataset, read_model, write_model
from headpose.geometry import EulerPose
from headpose.keypoints import KeypointSet, normalize
from headpose.laeo import evaluate_laeo
from headpose.losses import batch_loss
from headpose.model import Model, ModelConfig, PoseEstimate
from headpose.synthetic import NoiseModel, PoseRange, generate_dataset, synthesize
from headpose.training import TrainConfig, loss_and_gradient, prepare_arrays, train

import frame_rows
from autodiff_reference import difference_check
from laeo_reference import brute_force_scores
from loss_reference import heteroscedastic_loss, nll_gap, squared_error_loss
from test_laeo import as_plain, random_frames, separable_frames

NOISE = NoiseModel(base_sigma=1.0, yaw_gain=0.05)


def announce(capsys, number, ok, detail):
    with capsys.disabled():
        print(f"\ncriterion {number}: {'PASS' if ok else 'FAIL'} - {detail}")


@pytest.fixture(scope="module")
def zero_noise_run():
    """Uncertainty model on clean geometry: 10,000 train / 1,000 val."""
    t0 = time.perf_counter()
    train_samples = synthesize(10_000, np.random.default_rng(41))
    val_samples = synthesize(1_000, np.random.default_rng(42))
    model = Model.build(ModelConfig("heteroscedastic"), np.random.default_rng(43))
    config = TrainConfig(n_epochs=200, batch_size=64, learning_rate=0.001)
    train(model, train_samples, config, np.random.default_rng(44), val_samples)
    return model, val_samples, time.perf_counter() - t0


@pytest.fixture(scope="module")
def noisy_drop_run():
    """Uncertainty model on yaw-dependent noise plus random keypoint drops.

    Training data loses keypoints on half the samples so the variance head
    sees the sparse regime it must flag; the clean validation split carries
    the accuracy bar, the heavily dropped split carries the count study.
    Each stage trains on every training sample and keeps its best epoch on
    a fourth split, drawn as the training data is.
    """
    t0 = time.perf_counter()
    train_samples = synthesize(
        10_000, np.random.default_rng(11), NOISE, drop_fraction=0.5
    )
    val_select = synthesize(1_000, np.random.default_rng(14), NOISE, drop_fraction=0.5)
    val_clean = synthesize(1_000, np.random.default_rng(12), NOISE)
    val_drop = synthesize(
        1_000, np.random.default_rng(13), NOISE, drop_fraction=0.75
    )
    model = Model.build(ModelConfig("heteroscedastic"), np.random.default_rng(21))
    config = TrainConfig(n_epochs=100, batch_size=64, learning_rate=0.001)
    for stage in range(2):
        train(model, train_samples, config, np.random.default_rng(31 + stage), val_select)
    return model, val_clean, val_drop, time.perf_counter() - t0


def test_criterion_1_parameter_budget(capsys):
    checks = []
    for alpha, target, tolerance in ((1.0, 94_000, 0.02), (0.6, 37_000, 0.05), (0.2, 6_000, 0.10)):
        config = ModelConfig("heteroscedastic", width_scale=alpha)
        count = Model.build(config, np.random.default_rng(0)).n_parameters()
        checks.append(
            (f"params(alpha={alpha})={count} vs {target}", abs(count - target) <= tolerance * target)
        )
    full = Model.build(ModelConfig("heteroscedastic"), np.random.default_rng(0))
    mult_adds = full.n_mult_adds()
    checks.append((f"mult-adds={mult_adds} vs 93000", abs(mult_adds - 93_000) <= 0.05 * 93_000))
    ok = all(passed for _, passed in checks)
    announce(capsys, 1, ok, "; ".join(label for label, _ in checks))
    assert ok


def test_criterion_2_model_file_size(tmp_path, capsys):
    model = Model.build(ModelConfig("heteroscedastic"), np.random.default_rng(2))
    path = tmp_path / "full.hpm"
    write_model(path, model)
    size = path.stat().st_size
    x1, x2, c, _ = prepare_arrays(synthesize(64, np.random.default_rng(3)))
    before = model.outputs(x1, x2, c)
    after = read_model(path).outputs(x1, x2, c)
    drift = float(np.abs(after - before).max())
    ok = size < 500_000 and drift < 1e-4
    announce(
        capsys, 2,
        ok, f"serialized full-width model {size} bytes (< 0.5 MB), reload drift {drift:.2e} deg",
    )
    assert ok


def test_criterion_3_loss_correctness(capsys):
    rng = np.random.default_rng(3)
    worst_gap = 0.0
    for _ in range(1_000):
        angles = rng.uniform(-99, 99, size=3)
        # log-variances a trained head actually emits: sigma ~ 0.4 to 55 deg
        log_var = rng.uniform(-2, 8, size=3)
        target = EulerPose(*rng.uniform(-99, 99, size=3))
        estimate = PoseEstimate(EulerPose(*angles), log_var)
        worst_gap = max(worst_gap, nll_gap(estimate, target))

    values = rng.uniform(-99, 99, size=(1_000, 6))
    values[:, 3:] = 0.0
    targets = rng.uniform(-99, 99, size=(1_000, 3))
    zero_s_exact = np.array_equal(
        heteroscedastic_loss(values, targets), 0.5 * squared_error_loss(values, targets)
    )

    worst_minimizer = 0.0
    for residual in (0.3, 1.0, 2.0, 7.3):
        found = minimize_scalar(
            lambda s: 0.5 * math.exp(-s) * residual**2 + 0.5 * s,
            bounds=(-30.0, 30.0),
            method="bounded",
            options={"xatol": 1e-9},
        ).x
        worst_minimizer = max(worst_minimizer, abs(found - math.log(residual**2)))

    ok = worst_gap < 1e-9 and zero_s_exact and worst_minimizer < 1e-6
    announce(
        capsys, 3,
        ok,
        f"likelihood gap {worst_gap:.2e} over 1000 draws; zero log-variance halves the "
        f"squared error exactly: {zero_s_exact}; 1-D minimizer off log r^2 by {worst_minimizer:.2e}",
    )
    assert ok


def test_criterion_4_gradient_integrity(capsys):
    # the flat_grad of loss_and_gradient against central differences of
    # batch_loss, perturbing model.flat through the parameter views
    t0 = time.perf_counter()
    worst = 0.0
    for seed in range(5):
        data = synthesize(8, np.random.default_rng(seed), pose_range=PoseRange(10.0, 10.0, 10.0))
        x1, x2, c, _ = prepare_arrays(data)
        for kind in ("heteroscedastic", "mse", "combined"):
            model = Model.build(ModelConfig(kind), np.random.default_rng(100 + seed))
            base = model.outputs(x1, x2, c)
            targets = base[:, :3] + np.random.default_rng(1000 + seed).normal(0.0, 0.3, (8, 3))

            def value() -> float:
                return float(batch_loss(kind, model.outputs(x1, x2, c), targets)[0])

            loss_and_gradient(model, x1, x2, c, targets)
            worst = max(
                worst,
                difference_check(
                    value,
                    list(model.params.values()),
                    [g.copy() for g in model.grads.values()],
                    epsilon=1e-5,
                    max_elements_per_param=20,
                    rng=np.random.default_rng(seed),
                ),
            )
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-4 and elapsed < 60
    announce(
        capsys, 4,
        ok, f"worst relative gradient error {worst:.2e} over 3 losses x 5 seeds in {elapsed:.1f}s",
    )
    assert ok


def test_criterion_5_synthetic_regression(zero_noise_run, noisy_drop_run, capsys):
    clean_model, clean_val, clean_elapsed = zero_noise_run
    clean_mae = evaluate(clean_model, clean_val).mae_overall

    noisy_model, val_clean, _, noisy_elapsed = noisy_drop_run
    result = evaluate(noisy_model, val_clean)
    noisy_mae = result.mae_overall
    correlation = pearson(result.mean_uncertainty, result.overall_error)
    elapsed = clean_elapsed + noisy_elapsed
    ok = clean_mae < 1.5 and noisy_mae < 5.0 and correlation > 0.3 and elapsed < 900
    announce(
        capsys, 5,
        ok,
        f"zero-noise val MAE {clean_mae:.3f} deg (< 1.5); noisy val MAE {noisy_mae:.3f} deg "
        f"(< 5); uncertainty-error correlation {correlation:.3f} (> 0.3); {elapsed:.0f}s total",
    )
    assert ok


def test_criterion_6_keypoint_count_study(noisy_drop_run, capsys):
    model, _, val_drop, _ = noisy_drop_run
    groups = build_report(evaluate(model, val_drop))["by_keypoint_count"]
    counts_seen = sorted(int(k) for k in groups if k in ("2", "3", "4", "5"))
    has_range = {2, 5} <= set(counts_seen)
    unc_sparse = groups["2"]["uncertainty"]["median"]
    unc_full = groups["5"]["uncertainty"]["median"]
    err_sparse = groups["2"]["error"]["median"]
    err_full = groups["5"]["error"]["median"]
    ok = has_range and unc_full < unc_sparse and err_full < err_sparse
    announce(
        capsys, 6,
        ok,
        f"median uncertainty 5-pt {unc_full:.2f} < 2-pt {unc_sparse:.2f}; "
        f"median error 5-pt {err_full:.2f} < 2-pt {err_sparse:.2f} deg; counts {counts_seen}",
    )
    assert ok


def test_criterion_7_ablation_harness(tmp_path, capsys):
    t0 = time.perf_counter()
    train_file = tmp_path / "train.jsonl"
    val_file = tmp_path / "val.jsonl"
    report_file = tmp_path / "ablate.json"
    assert cli.main(
        ["synth", "--n", "10000", "--noise", "1,0.05", "--seed", "11", "--out", str(train_file)]
    ) == 0
    assert cli.main(
        ["synth", "--n", "1000", "--noise", "1,0.05", "--seed", "12", "--out", str(val_file)]
    ) == 0
    code = cli.main(
        [
            "ablate", "--data", str(train_file), "--val", str(val_file),
            "--epochs", "150", "--batch-size", "64", "--lr", "0.001",
            "--seed", "0", "--out", str(report_file),
        ]
    )
    table = capsys.readouterr().out
    elapsed = time.perf_counter() - t0
    doc = json.loads(report_file.read_text())
    rows = doc["rows"]
    shape_ok = (
        code == 0
        and [row["loss"] for row in rows] == ["mse", "comb", "unc"]
        and all(
            list(row.keys()) == ["loss", "err_yaw", "err_pitch", "err_roll", "mae"]
            for row in rows
        )
        and len([line for line in table.splitlines() if line.strip()]) >= 4
    )
    maes = {row["loss"]: row["mae"] for row in rows}
    ok = shape_ok and all(m < 6.0 for m in maes.values()) and elapsed < 2_700
    announce(
        capsys, 7,
        ok,
        "3x4 table; val MAE "
        + ", ".join(f"{k}={v:.3f}" for k, v in maes.items())
        + f" deg (all < 6) in {elapsed:.0f}s",
    )
    assert ok


def test_criterion_8_mutual_gaze_oracle(capsys):
    rows = random_frames(np.random.default_rng(88), 200)
    frames = frame_rows.read(rows)
    worst = 0.0
    n_scored = 0
    for mode, delta in (("interval", 7.0), ("open-below", 4.0), ("off", 7.0)):
        scored = evaluate_laeo(frames, tau=0.5, delta=delta, mode=mode)
        reference = brute_force_scores(as_plain(rows), delta, mode)
        assert len(scored.results) == len(reference)
        for frame_id, result, _ in scored.results:
            key = (frame_id, *sorted(result.pair))
            worst = max(worst, abs(result.laeo_value - reference[key]))
            n_scored += 1

    separable = evaluate_laeo(frame_rows.read(separable_frames(40)), tau=0.93).gated
    perfect = (
        separable["precision"] == 1.0
        and separable["recall"] == 1.0
        and separable["f1"] == 1.0
        and separable["average_precision"] == 1.0
    )

    unbounded = evaluate_laeo(frames, tau=0.5, delta=math.inf, mode="open-below")
    baseline = evaluate_laeo(frames, tau=0.5, mode="off")
    bit_equal = unbounded.gated == baseline.gated and all(
        r1.laeo_value == r2.laeo_value and r1.is_laeo == r2.is_laeo
        for (_, r1, _), (_, r2, _) in zip(unbounded.results, baseline.results)
    )

    ok = worst < 1e-12 and perfect and bit_equal
    announce(
        capsys, 8,
        ok,
        f"{n_scored} pair scores within {worst:.1e} of brute force over 200 frames; "
        f"separable frames score precision=recall=f1=ap=1: {perfect}; "
        f"unbounded gate equals ungated bit-for-bit: {bit_equal}",
    )
    assert ok


def test_criterion_9_determinism(tmp_path, capsys):
    data_file = tmp_path / "d.jsonl"
    val_file = tmp_path / "v.jsonl"
    assert cli.main(
        ["synth", "--n", "200", "--noise", "1,0.05", "--seed", "5", "--out", str(data_file)]
    ) == 0
    assert cli.main(
        ["synth", "--n", "50", "--noise", "1,0.05", "--seed", "6", "--out", str(val_file)]
    ) == 0

    models, histories, reports, pair_files = [], [], [], []
    for run in range(2):
        model_file = tmp_path / f"m{run}.hpm"
        history_file = tmp_path / f"h{run}.json"
        report_file = tmp_path / f"r{run}.json"
        assert cli.main(
            [
                "train", "--data", str(data_file), "--val", str(val_file),
                "--loss", "unc", "--epochs", "5", "--batch-size", "32", "--seed", "7",
                "--out", str(model_file), "--history", str(history_file),
            ]
        ) == 0
        assert cli.main(
            ["eval", "--model", str(model_file), "--data", str(val_file),
             "--report", str(report_file)]
        ) == 0
        frames_file = tmp_path / "frames.jsonl"
        if run == 0:
            keypoints = read_dataset(val_file).keypoints[:20]
            frame_rows.write(frames_file, [
                frame_rows.frame(
                    f"fr{i}",
                    (
                        frame_rows.head("a", (0.0, 0.0),
                                        keypoints=KeypointSet.from_triplets(keypoints[2 * i])),
                        frame_rows.head("b", (25.0, 5.0),
                                        keypoints=KeypointSet.from_triplets(keypoints[2 * i + 1])),
                    ),
                    [("a", "b")] if i % 2 == 0 else [],
                )
                for i in range(10)
            ])
        pairs_file = tmp_path / f"p{run}.jsonl"
        assert cli.main(
            ["laeo", "--frames", str(frames_file), "--model", str(model_file),
             "--out", str(pairs_file)]
        ) == 0
        models.append(model_file.read_bytes())
        histories.append(history_file.read_bytes())
        reports.append(report_file.read_bytes())
        pair_files.append(pairs_file.read_bytes())
    capsys.readouterr()

    same = {
        "model": models[0] == models[1],
        "history": histories[0] == histories[1],
        "eval report": reports[0] == reports[1],
        "pair scores": pair_files[0] == pair_files[1],
    }
    ok = all(same.values())
    announce(
        capsys, 9,
        ok,
        "byte-identical repeat runs: "
        + ", ".join(f"{name}={'yes' if match else 'NO'}" for name, match in same.items()),
    )
    assert ok


def test_criterion_10_inference_latency(capsys):
    model = Model.build(ModelConfig("heteroscedastic"), np.random.default_rng(10))
    sample = generate_dataset(1, np.random.default_rng(11))[0]
    inputs = normalize(sample.keypoints)
    for _ in range(50):
        model.predict(inputs)
    n = 300
    t0 = time.perf_counter()
    for _ in range(n):
        model.predict(inputs)
    per_sample_ms = (time.perf_counter() - t0) / n * 1_000
    ok = per_sample_ms < 1.0
    announce(
        capsys, 10,
        ok, f"single-sample forward {per_sample_ms:.3f} ms at full width (< 1 ms)",
    )
    assert ok
