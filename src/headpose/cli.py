"""Command-line surface for the pose pipeline.

Subcommands: synth (make data), train, eval, infer, laeo, ablate. Every
command is deterministic for a fixed --seed, whose default is 0. Data
errors exit non-zero with the offending file and line.

Each command imports the modules it runs when it starts, so `laeo` loads
no training code and `infer` no training or scoring code.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from typing import TYPE_CHECKING

import numpy as np

from . import formats
from .keypoints import UnusableKeypoints, normalize
from .laeo_settings import DEFAULT_DELTA, DEFAULT_TAU, GATE_MODES

if TYPE_CHECKING:
    from .laeo import Frames
    from .model import Model
    from .synthetic import NoiseModel, PoseRange
    from .training import TrainConfig, TrainHistory


# The benchmark's tracer replaces these two functions on this module to time
# synth's generator and training, so the commands call them by bare name, looked
# up at call time; each imports its module only when a command runs it.
def generate_dataset(n: int, rng: np.random.Generator, noise: NoiseModel, pose_range: PoseRange,
                     occlusion_yaw: float, drop_fraction: float) -> formats.Dataset:
    from . import synthetic

    return synthetic.synthesize(n, rng, noise, pose_range, occlusion_yaw, drop_fraction)


def train(model: Model, data: formats.Dataset, config: TrainConfig, rng: np.random.Generator,
          val: formats.Dataset | None) -> TrainHistory:
    from . import training

    return training.train(model, data, config, rng, val)


LOSS_BY_FLAG = {"unc": "heteroscedastic", "mse": "mse", "comb": "combined"}
ABLATE_ORDER = ("mse", "comb", "unc")


def _finite_float(text: str) -> float:
    """argparse type: a float that is neither infinite nor NaN."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _add_train_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--epochs", type=int, default=100)
    p.add_argument("--batch-size", type=int, default=64)
    p.add_argument("--lr", type=_finite_float, default=0.001)
    p.add_argument("--alpha", type=_finite_float, default=1.0, help="width multiplier")
    p.add_argument("--seed", type=int, default=0)


def _read_records(path: str) -> formats.Dataset:
    """A dataset file that holds at least one record; ValueError naming an empty one."""
    data = formats.read_dataset(path)
    if not len(data):
        raise ValueError(f"{path}: no records")
    return data


def _train_one(
    loss_flag: str,
    data: formats.Dataset,
    val: formats.Dataset | None,
    args: argparse.Namespace,
) -> tuple[Model, TrainHistory]:
    from .model import Model, ModelConfig
    from .training import TrainConfig

    config = ModelConfig(loss_kind=LOSS_BY_FLAG[loss_flag], width_scale=args.alpha)
    rng = np.random.default_rng(args.seed)
    model = Model.build(config, rng)
    train_config = TrainConfig(
        n_epochs=args.epochs, batch_size=args.batch_size, learning_rate=args.lr
    )
    history = train(model, data, train_config, rng, val)
    return model, history


def cmd_train(args: argparse.Namespace) -> int:
    if args.history and os.path.realpath(args.history) == os.path.realpath(args.out):
        raise ValueError(f"--history and --out name the same file: {args.out}")
    data = _read_records(args.data)
    val = _read_records(args.val) if args.val is not None else None
    model, history = _train_one(args.loss, data, val, args)
    formats.write_model(args.out, model)
    history_path = args.history or args.out + ".history.json"
    formats.write_json(
        history_path,
        {
            "seed": args.seed,
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


def _require_finite(angles: np.ndarray, log_var: np.ndarray | None, name) -> None:
    """ValueError naming, as name(i), the first row i with a non-finite estimate."""
    estimates = angles if log_var is None else np.hstack([angles, log_var])
    bad = np.flatnonzero(~np.isfinite(estimates).all(axis=1))
    if bad.size:
        raise ValueError(f"{name(bad[0])}: the model gave a non-finite estimate")


def _estimate(model: Model, keypoints: np.ndarray, name) -> tuple[np.ndarray, np.ndarray | None]:
    """The model's angles and log-variances for (N, 5, 3) keypoints, in one batch.

    Raises ValueError naming, as name(i), the first row i whose keypoints
    are unusable or whose estimate is not finite.
    """
    try:
        inputs = normalize(keypoints)
    except UnusableKeypoints as e:
        raise ValueError(f"{name(e.index)}: {e}") from e
    angles, log_var = model.predict_batch(inputs.x1, inputs.x2, inputs.c)
    _require_finite(angles, log_var, name)
    return angles, log_var


def cmd_eval(args: argparse.Namespace) -> int:
    from . import evaluation

    model = formats.read_model(args.model)
    data = _read_records(args.data)
    result = evaluation.evaluate(model, data)
    _require_finite(result.angles, result.log_variance, data.record_name)
    formats.write_json(args.report, evaluation.build_report(result))
    print(
        f"mae yaw={result.mae_yaw:.3f} pitch={result.mae_pitch:.3f} "
        f"roll={result.mae_roll:.3f} overall={result.mae_overall:.3f} "
        f"-> {args.report}"
    )
    return 0


def cmd_infer(args: argparse.Namespace) -> int:
    model = formats.read_model(args.model)
    data = formats.read_dataset(args.data)
    angles, log_var = _estimate(model, data.keypoints, data.record_name)
    formats.write_text(args.out, formats.infer_lines(data.ids, angles, log_var))
    return 0


def _with_model_poses(frames: Frames, model: Model | None) -> Frames:
    """Frames whose keypoint heads carry the model's pose and log-variances.

    With a model, the keypoint heads of all frames go through one
    normalize + predict_batch call, in file order; a model without a
    variance head leaves their log-variances NaN. Raises ValueError naming
    the first head left without a pose, or given a non-finite estimate.
    """
    if model is None:
        missing = np.flatnonzero(np.isnan(frames.poses[:, 0]))
        if missing.size:
            raise ValueError(f"{frames.head_name(missing[0])} has keypoints only; pass --model")
        return frames
    batch = np.flatnonzero(~np.isnan(frames.keypoints[:, 0, 0]))
    angles, log_var = _estimate(model, frames.keypoints[batch],
                                lambda i: frames.head_name(batch[i]))
    poses, log_variance = frames.poses.copy(), frames.log_variance.copy()
    poses[batch] = angles
    log_variance[batch] = np.nan if log_var is None else log_var
    return dataclasses.replace(frames, poses=poses, log_variance=log_variance)


def cmd_laeo(args: argparse.Namespace) -> int:
    from . import laeo

    frames = formats.read_frames(args.frames)
    model = formats.read_model(args.model) if args.model else None
    frames = _with_model_poses(frames, model)
    scored = laeo.evaluate_laeo(frames, args.tau, args.delta, mode=args.gate)
    summary = {
        "summary": {
            "tau": args.tau,
            "delta": args.delta,
            "gate": args.gate,
            "n_pairs": scored.n_pairs,
            "n_heads": scored.n_heads,
            "n_heads_gated": scored.n_heads_gated,
            "gated": scored.gated,
            "baseline": scored.baseline,
        }
    }
    summary_line = json.dumps(summary) + "\n"
    formats.write_text(args.out, formats.laeo_lines(scored.results) + summary_line)
    if args.out:
        sys.stdout.write(summary_line)
    return 0


def _parse_noise(text: str) -> NoiseModel:
    from .synthetic import NoiseModel

    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError("--noise expects 'base_sigma,yaw_gain'")
    try:
        base_sigma, yaw_gain = map(_finite_float, parts)
    except argparse.ArgumentTypeError as e:
        raise ValueError(f"--noise: {e}") from e
    return NoiseModel(base_sigma=base_sigma, yaw_gain=yaw_gain)


def cmd_synth(args: argparse.Namespace) -> int:
    from .synthetic import PoseRange

    rng = np.random.default_rng(args.seed)
    data = generate_dataset(
        args.n,
        rng,
        noise=_parse_noise(args.noise),
        pose_range=PoseRange(yaw=args.yaw_range, pitch=args.pitch_range, roll=args.roll_range),
        occlusion_yaw=args.occlusion_yaw,
        drop_fraction=args.drop_fraction,
    )
    formats.write_dataset(args.out, data)
    print(f"wrote {len(data)} samples -> {args.out}")
    return 0


def cmd_ablate(args: argparse.Namespace) -> int:
    from . import evaluation

    data = _read_records(args.data)
    val = _read_records(args.val)
    rows = []
    for loss_flag in ABLATE_ORDER:
        model, _ = _train_one(loss_flag, data, val, args)
        result = evaluation.evaluate(model, val)
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
            {"seed": args.seed, "epochs": args.epochs, "alpha": args.alpha, "rows": rows},
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
    p.add_argument("--tau", type=_finite_float, default=DEFAULT_TAU)
    p.add_argument("--delta", type=_finite_float, default=DEFAULT_DELTA)
    p.add_argument("--gate", choices=GATE_MODES, default="interval")
    p.add_argument("--out", default=None, help="write pair results here instead of stdout")
    p.set_defaults(func=cmd_laeo)

    p = sub.add_parser("synth", help="generate a synthetic labelled dataset")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--noise", default="0,0", help="base_sigma,yaw_gain (pixels, pixels/deg)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--yaw-range", type=_finite_float, default=75.0)
    p.add_argument("--pitch-range", type=_finite_float, default=60.0)
    p.add_argument("--roll-range", type=_finite_float, default=40.0)
    p.add_argument("--occlusion-yaw", type=_finite_float, default=60.0)
    p.add_argument("--drop-fraction", type=_finite_float, default=0.0)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("ablate", help="train all three losses and compare errors")
    p.add_argument("--data", required=True)
    p.add_argument("--val", required=True, help="held-out dataset to pick epochs and score on")
    _add_train_flags(p)
    p.add_argument("--out", default=None, help="optional JSON report")
    p.set_defaults(func=cmd_ablate)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (formats.RecordError, ValueError, OSError, FloatingPointError, MemoryError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
