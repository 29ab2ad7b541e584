"""Command-line surface for the pose pipeline.

Subcommands: synth (make data), train, eval, infer, laeo, ablate. Every
command is deterministic for a fixed --seed; HEADPOSE_SEED overrides the
default seed when the flag is omitted. Data errors exit non-zero with the
offending file and line.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import evaluation, formats, laeo
from .geometry import EulerPose
from .keypoints import UnusableKeypoints, normalize
from .model import Model, ModelConfig, PoseEstimate
from .synthetic import NoiseModel, PoseRange, generate_dataset
from .training import TrainConfig, TrainHistory, train

LOSS_BY_FLAG = {"unc": "heteroscedastic", "mse": "mse", "comb": "combined"}
ABLATE_ORDER = ("mse", "comb", "unc")


def _default_seed() -> int:
    return int(os.environ.get("HEADPOSE_SEED", "0"))


def _resolve_seed(args: argparse.Namespace) -> int:
    return _default_seed() if args.seed is None else args.seed


def _add_train_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--epochs", type=int, default=100)
    p.add_argument("--batch-size", type=int, default=64)
    p.add_argument("--lr", type=float, default=0.001)
    p.add_argument("--alpha", type=float, default=1.0, help="width multiplier")
    p.add_argument("--seed", type=int, default=None)


def _train_one(
    loss_flag: str,
    samples,
    val_samples,
    args: argparse.Namespace,
    seed: int,
) -> tuple[Model, TrainHistory]:
    config = ModelConfig(loss_kind=LOSS_BY_FLAG[loss_flag], width_scale=args.alpha)
    rng = np.random.default_rng(seed)
    model = Model.build(config, rng)
    train_config = TrainConfig(
        n_epochs=args.epochs, batch_size=args.batch_size, learning_rate=args.lr
    )
    history = train(model, samples, train_config, rng, val_samples)
    return model, history


def cmd_train(args: argparse.Namespace) -> int:
    seed = _resolve_seed(args)
    samples = formats.samples_from_records(formats.read_dataset(args.data))
    val_samples = None
    if args.val:
        val_samples = formats.samples_from_records(formats.read_dataset(args.val))
    model, history = _train_one(args.loss, samples, val_samples, args, seed)
    formats.write_model(args.out, model)
    history_path = args.history or args.out + ".history.json"
    formats.write_json(
        history_path,
        {
            "seed": seed,
            "loss": args.loss,
            "model_config": model.config.to_dict(),
            "history": history.to_dict(),
        },
    )
    print(
        f"trained loss={args.loss} alpha={args.alpha} "
        f"best_epoch={history.best_epoch} -> {args.out}"
    )
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    model = formats.read_model(args.model)
    samples = formats.samples_from_records(formats.read_dataset(args.data))
    result = evaluation.evaluate(model, samples)
    formats.write_json(args.report, evaluation.build_report(result))
    print(
        f"mae yaw={result.mae_yaw:.3f} pitch={result.mae_pitch:.3f} "
        f"roll={result.mae_roll:.3f} overall={result.mae_overall:.3f} "
        f"-> {args.report}"
    )
    return 0


def cmd_infer(args: argparse.Namespace) -> int:
    model = formats.read_model(args.model)
    records = formats.read_dataset(args.data)
    try:
        inputs = normalize([r.keypoints for r in records])
    except UnusableKeypoints as e:
        raise ValueError(f"record {records[e.index].id!r}: {e}") from e
    angles, log_var = model.predict_batch(inputs.x1, inputs.x2, inputs.c)
    log_var_rows = log_var.tolist() if log_var is not None else [None] * len(records)
    lines = [
        json.dumps({"id": r.id, "yaw": yaw, "pitch": pitch, "roll": roll, "log_variance": lv})
        for r, (yaw, pitch, roll), lv in zip(records, angles.tolist(), log_var_rows)
    ]
    text = "\n".join(lines) + "\n" if lines else ""
    if args.out:
        formats.atomic_write_bytes(args.out, text.encode("utf-8"))
    else:
        sys.stdout.write(text)
    return 0


def _head_estimates(
    frame_records: list[formats.FrameRecord], model: Model | None
) -> list[PoseEstimate]:
    """Every head's estimate in file order; with a model, the keypoint heads
    of all frames go through one normalize + predict_batch call."""
    heads = [(fr.frame_id, h) for fr in frame_records for h in fr.heads]
    batch = [i for i, (_, h) in enumerate(heads) if h.keypoints is not None and model is not None]
    estimates = {}
    if batch:
        try:
            inputs = normalize([heads[i][1].keypoints for i in batch])
        except UnusableKeypoints as e:
            frame_id, head = heads[batch[e.index]]
            raise ValueError(f"frame {frame_id!r} head {head.id!r}: {e}") from e
        angles, log_var = model.predict_batch(inputs.x1, inputs.x2, inputs.c)
        for row, i in enumerate(batch):
            lv = log_var[row] if log_var is not None else None
            estimates[i] = PoseEstimate(EulerPose(*angles[row].tolist()), lv)
    for i, (frame_id, head) in enumerate(heads):
        if i in estimates:
            continue
        if head.pose is None:
            raise ValueError(
                f"frame {frame_id!r} head {head.id!r} has keypoints only; pass --model"
            )
        lv = None if head.log_variance is None else np.array(head.log_variance, dtype=np.float64)
        estimates[i] = PoseEstimate(head.pose, lv)
    return [estimates[i] for i in range(len(heads))]


def cmd_laeo(args: argparse.Namespace) -> int:
    frame_records = formats.read_frames(args.frames)
    model = formats.read_model(args.model) if args.model else None
    estimates = iter(_head_estimates(frame_records, model))
    frames = [
        laeo.Frame(
            frame_id=fr.frame_id,
            heads=tuple(
                laeo.HeadInstance(id=h.id, centroid=h.centroid, estimate=next(estimates))
                for h in fr.heads
            ),
            laeo_pairs=frozenset(frozenset(p) for p in fr.laeo_pairs),
        )
        for fr in frame_records
    ]
    scored = laeo.evaluate_laeo(frames, args.tau, args.delta, mode=args.gate)
    labelled = any(fr.has_labels for fr in frame_records)
    lines = []
    labels_by_frame = {fr.frame_id: fr.has_labels for fr in frame_records}
    for frame_id, result, label in scored.results:
        row = {"frame_id": frame_id}
        row.update(result.to_dict())
        row["label"] = label if labels_by_frame[frame_id] else None
        lines.append(json.dumps(row))
    summary = {
        "summary": {
            "tau": args.tau,
            "delta": args.delta,
            "gate": args.gate,
            "n_pairs": scored.n_pairs,
            "n_heads": scored.n_heads,
            "n_heads_gated": scored.n_heads_gated,
            "gated": scored.to_dict() if labelled else None,
            "baseline": scored.baseline if labelled else None,
        }
    }
    lines.append(json.dumps(summary))
    text = "\n".join(lines) + "\n"
    if args.out:
        formats.atomic_write_bytes(args.out, text.encode("utf-8"))
        print(json.dumps(summary))
    else:
        sys.stdout.write(text)
    return 0


def _parse_noise(text: str) -> NoiseModel:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError("--noise expects 'base_sigma,yaw_gain'")
    return NoiseModel(base_sigma=float(parts[0]), yaw_gain=float(parts[1]))


def cmd_synth(args: argparse.Namespace) -> int:
    seed = _resolve_seed(args)
    rng = np.random.default_rng(seed)
    samples = generate_dataset(
        args.n,
        rng,
        noise=_parse_noise(args.noise),
        pose_range=PoseRange(yaw=args.yaw_range, pitch=args.pitch_range, roll=args.roll_range),
        occlusion_yaw=args.occlusion_yaw,
        drop_fraction=args.drop_fraction,
    )
    formats.write_dataset(args.out, formats.records_from_samples(samples))
    print(f"wrote {len(samples)} samples -> {args.out}")
    return 0


def cmd_ablate(args: argparse.Namespace) -> int:
    seed = _resolve_seed(args)
    samples = formats.samples_from_records(formats.read_dataset(args.data))
    val_samples = None
    if args.val:
        val_samples = formats.samples_from_records(formats.read_dataset(args.val))
    eval_samples = val_samples if val_samples is not None else samples
    rows = []
    for loss_flag in ABLATE_ORDER:
        model, _ = _train_one(loss_flag, samples, val_samples, args, seed)
        result = evaluation.evaluate(model, eval_samples)
        rows.append(
            {
                "loss": loss_flag,
                "err_yaw": result.mae_yaw,
                "err_pitch": result.mae_pitch,
                "err_roll": result.mae_roll,
                "mae": result.mae_overall,
            }
        )
    header = f"{'loss':<6} {'err_yaw':>8} {'err_pitch':>10} {'err_roll':>9} {'mae':>8}"
    print(header)
    for row in rows:
        print(
            f"{row['loss']:<6} {row['err_yaw']:>8.3f} {row['err_pitch']:>10.3f} "
            f"{row['err_roll']:>9.3f} {row['mae']:>8.3f}"
        )
    if args.out:
        formats.write_json(
            args.out,
            {"seed": seed, "epochs": args.epochs, "alpha": args.alpha, "rows": rows},
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="headpose",
        description="Head pose estimation from facial keypoints, with "
        "per-angle uncertainty and mutual-gaze detection.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a model on a dataset file")
    p.add_argument("--data", required=True)
    p.add_argument("--val", default=None, help="held-out dataset for best-epoch selection")
    p.add_argument("--loss", choices=sorted(LOSS_BY_FLAG), default="unc")
    _add_train_flags(p)
    p.add_argument("--out", required=True, help="model file to write")
    p.add_argument("--history", default=None, help="history JSON path (default: OUT.history.json)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="score a model on labelled data")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--report", required=True, help="JSON report to write")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("infer", help="stream pose estimates for a dataset")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", default=None, help="write JSON lines here instead of stdout")
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("laeo", help="score mutual gaze over head-pair frames")
    p.add_argument("--frames", required=True)
    p.add_argument("--model", default=None, help="needed when frames carry raw keypoints")
    p.add_argument("--tau", type=float, default=laeo.DEFAULT_TAU)
    p.add_argument("--delta", type=float, default=laeo.DEFAULT_DELTA)
    p.add_argument("--gate", choices=laeo.GATE_MODES, default="interval")
    p.add_argument("--out", default=None, help="write pair results here instead of stdout")
    p.set_defaults(func=cmd_laeo)

    p = sub.add_parser("synth", help="generate a synthetic labelled dataset")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--noise", default="0,0", help="base_sigma,yaw_gain (pixels, pixels/deg)")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--yaw-range", type=float, default=75.0)
    p.add_argument("--pitch-range", type=float, default=60.0)
    p.add_argument("--roll-range", type=float, default=40.0)
    p.add_argument("--occlusion-yaw", type=float, default=60.0)
    p.add_argument("--drop-fraction", type=float, default=0.0)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("ablate", help="train all three losses and compare errors")
    p.add_argument("--data", required=True)
    p.add_argument("--val", default=None)
    _add_train_flags(p)
    p.add_argument("--out", default=None, help="optional JSON report")
    p.set_defaults(func=cmd_ablate)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except formats.RecordError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
