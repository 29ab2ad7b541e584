"""Spans around the program's public functions, installed from outside.

A `Tracer` replaces each traced name where the caller looks it up (a
`from x import y` binds at import, so `cli.normalize` is patched rather
than `keypoints.normalize`) and records one span per call: name, command
id, parent span, start and end in nanoseconds. Spans stay in memory until
`write` at the end of the run. A layer's self time is its spans' duration
minus the time covered by their child spans.

The per-op vjp closures inside `Tensor.backward` are not reachable from
outside without touching private fields, so backward stays one span.
"""

from __future__ import annotations

import os
import time
from collections import Counter, defaultdict
from pathlib import Path

AUTODIFF_OPS = ("dense", "conv1d", "leaky_relu", "sigmoid", "mul", "concat",
                "flatten", "slice_last", "sub", "exp", "scale", "tsum")
COMMANDS = ("synth", "train", "eval", "infer", "laeo")

# Metric name -> unit of every metric a traced pass yields.
PER_LAYER: dict[str, str] = {
    "formats.read_dataset.s": "s",
    "formats.read_dataset.records": "count",
    "formats.read_frames.s": "s",
    "formats.read_model.s": "s",
    "formats.write_dataset.s": "s",
    "formats.write_model.s": "s",
    "formats.write_out.s": "s",
    "formats.bytes_read": "B",
    "formats.bytes_written": "B",
    "keypoints.normalize.calls": "count",
    "keypoints.normalize.s": "s",
    "keypoints.stack_normalized.s": "s",
    "synthetic.generate_dataset.s": "s",
    "model.forward.calls": "count",
    "model.forward.rows": "rows/call",
    "model.forward.s": "s",
    "model.predict.calls": "count",
    "model.predict.s": "s",
    "model.predict_batch.s": "s",
    "model.snapshot.s": "s",
    **{f"autodiff.{op}.{k}": u for op in AUTODIFF_OPS for k, u in (("calls", "count"), ("s", "s"))},
    "autodiff.backward.calls": "count",
    "autodiff.backward.s": "s",
    "autodiff.nodes": "count",
    "losses.loss_graph.calls": "count",
    "losses.loss_graph.s": "s",
    "training.train.s": "s",
    "training.adam_step.calls": "count",
    "training.adam_step.s": "s",
    "training.prepare_arrays.s": "s",
    "training.epochs_after_best": "ratio",
    "evaluation.evaluate.s": "s",
    "evaluation.build_report.s": "s",
    "laeo.evaluate_laeo.calls": "count",
    "laeo.evaluate_laeo.s": "s",
    "laeo.score_pair.calls": "count",
    "laeo.score_pair.s": "s",
    "laeo.heads_gated": "ratio",
    **{f"cli.{c}.s": "s" for c in COMMANDS},
}

_WRITE_SPANS = ("formats.write_model", "formats.write_dataset", "formats.write_out")


class Tracer:
    """Span recorder plus the patches that feed it; one per traced run."""

    def __init__(self):
        # (name, command id, parent index or -1, start ns, end ns)
        self.spans: list[tuple[str, int, int, int, int]] = []
        self.counts: Counter = Counter()
        self.heads_seen = 0
        self.heads_gated = 0
        self.epochs = 0
        self.epochs_after_best = 0
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._command = -1
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, self._command, parent, time.perf_counter_ns(), 0))
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        end = time.perf_counter_ns()
        self._stack.pop()
        name, cmd, parent, start, _ = self.spans[idx]
        self.spans[idx] = (name, cmd, parent, start, end)

    def command(self, name: str, fn, argv: list[str]):
        """Run one CLI command as the root span `cli.<name>` of a new command id."""
        self._command += 1
        idx = self._open(f"cli.{name}")
        try:
            return fn(argv)
        finally:
            self._close(idx)

    def _wrap(self, name: str, fn, after=None):
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    # -- patching --------------------------------------------------------

    def _patch(self, owner, attr: str, make) -> None:
        original = getattr(owner, attr, None)
        if original is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        self._patches.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def _span(self, owner, attr: str, name: str, after=None) -> None:
        self._patch(owner, attr, lambda fn: self._wrap(name, fn, after))

    def install(self) -> None:
        from headpose import autodiff, cli, evaluation, formats, laeo, model, training

        def counted(key):
            def after(args, kwargs, result):
                self.counts[key] += 1
            return after

        def read_bytes(args, kwargs, result):
            self.counts["formats.bytes_read"] += os.path.getsize(args[0])

        def read_records(args, kwargs, result):
            read_bytes(args, kwargs, result)
            self.counts["formats.read_dataset.records"] += len(result)

        for attr, after in (("read_dataset", read_records), ("read_frames", read_bytes),
                            ("read_model", read_bytes)):
            self._span(formats, attr, f"formats.{attr}", after)
        for attr in ("write_dataset", "write_model"):
            self._span(formats, attr, f"formats.{attr}")
        self._span(formats, "write_json", "formats.write_out")
        # Every write ends in atomic_write_bytes: count its bytes, and give it
        # a write_out span only when no formats write span encloses it.
        self._patch(formats, "atomic_write_bytes", self._atomic_write)

        self._span(cli, "normalize", "keypoints.normalize", counted("keypoints.normalize.calls"))
        self._span(training, "stack_normalized", "keypoints.stack_normalized")
        self._span(cli, "generate_dataset", "synthetic.generate_dataset")

        def forward_rows(args, kwargs, result):
            self.counts["model.forward.calls"] += 1
            x1 = args[1]
            self.counts["model.forward.row_total"] += x1.shape[0] if x1.ndim == 2 else 1

        self._span(model.Model, "forward", "model.forward", forward_rows)
        self._span(model.Model, "predict", "model.predict", counted("model.predict.calls"))
        self._span(model.Model, "predict_batch", "model.predict_batch")
        self._span(model.Model, "snapshot", "model.snapshot")

        for op in AUTODIFF_OPS:
            self._span(autodiff, op, f"autodiff.{op}", counted(f"autodiff.{op}.calls"))
        self._span(autodiff.Tensor, "backward", "autodiff.backward",
                   counted("autodiff.backward.calls"))
        self._patch(autodiff.Tensor, "__init__", self._count_nodes)

        self._span(training, "loss_graph", "losses.loss_graph", counted("losses.loss_graph.calls"))
        self._span(training.AdamState, "step", "training.adam_step",
                   counted("training.adam_step.calls"))
        self._span(training, "prepare_arrays", "training.prepare_arrays")
        self._span(evaluation, "prepare_arrays", "training.prepare_arrays")
        self._span(cli, "train", "training.train", self._after_train)

        self._span(evaluation, "evaluate", "evaluation.evaluate")
        self._span(evaluation, "build_report", "evaluation.build_report")

        self._span(laeo, "evaluate_laeo", "laeo.evaluate_laeo", self._after_laeo)
        self._span(laeo, "score_pair", "laeo.score_pair", counted("laeo.score_pair.calls"))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _atomic_write(self, fn):
        def traced(path, data):
            self.counts["formats.bytes_written"] += len(data)
            if self._stack and self.spans[self._stack[-1]][0] in _WRITE_SPANS:
                return fn(path, data)
            idx = self._open("formats.write_out")
            try:
                return fn(path, data)
            finally:
                self._close(idx)

        return traced

    def _count_nodes(self, init):
        counts = self.counts

        def traced(tensor, *args, **kwargs):
            counts["autodiff.nodes"] += 1
            init(tensor, *args, **kwargs)

        return traced

    def _after_train(self, args, kwargs, history) -> None:
        n_epochs = len(history.train_loss)
        self.epochs += n_epochs
        self.epochs_after_best += n_epochs - 1 - history.best_epoch

    def _after_laeo(self, args, kwargs, evaluation) -> None:
        self.counts["laeo.evaluate_laeo.calls"] += 1
        mode = kwargs.get("mode", args[3] if len(args) > 3 else "interval")
        if mode == "off":
            return
        weights = {}
        for frame_id, result, _ in evaluation.results:
            weights[(frame_id, result.pair[0])] = result.weight_a
            weights[(frame_id, result.pair[1])] = result.weight_b
        self.heads_seen += len(weights)
        self.heads_gated += sum(1 for w in weights.values() if w == 0)

    # -- analysis --------------------------------------------------------

    def self_times(self) -> list[int]:
        """Self time of each span in ns: its duration minus its children's."""
        own = [end - start for _, _, _, start, end in self.spans]
        for _, _, parent, start, end in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def check(self) -> list[str]:
        """Span tree problems; each command's self times must sum to its root."""
        problems = []
        if self._stack:
            problems.append(f"{len(self._stack)} spans never closed")
        own = self.self_times()
        totals: dict[int, int] = defaultdict(int)
        roots: dict[int, int] = {}
        for i, (name, cmd, parent, start, end) in enumerate(self.spans):
            totals[cmd] += own[i]
            if parent < 0:
                roots[cmd] = end - start
                continue
            p = self.spans[parent]
            if p[1] != cmd or not p[3] <= start <= end <= p[4]:
                problems.append(f"span {i} ({name}) lies outside its parent {p[0]}")
                break
        for cmd, total in totals.items():
            if cmd not in roots or total != roots[cmd]:
                problems.append(f"command {cmd}: self times sum to {total}, root {roots.get(cmd)}")
        return problems

    def layer_metrics(self) -> dict[str, float]:
        """Value of every PER_LAYER metric from this tracer's spans and counts."""
        own = self.self_times()
        seconds: dict[str, int] = defaultdict(int)
        for i, span in enumerate(self.spans):
            seconds[span[0]] += own[i]
        out = {}
        for metric in PER_LAYER:
            if metric.endswith(".s"):
                name = metric[:-2]
                # autodiff.backward is the span of Tensor.backward, and so on:
                # the span name is the metric name without its ".s".
                out[metric] = seconds.get(name, 0) / 1e9
            elif metric in self.counts:
                out[metric] = float(self.counts[metric])
        calls = self.counts["model.forward.calls"]
        out["model.forward.rows"] = self.counts["model.forward.row_total"] / calls if calls else 0.0
        out["training.epochs_after_best"] = (
            self.epochs_after_best / self.epochs if self.epochs else 0.0)
        out["laeo.heads_gated"] = self.heads_gated / self.heads_seen if self.heads_seen else 0.0
        for metric in PER_LAYER:
            out.setdefault(metric, 0.0)
        return out

    def write(self, path: Path) -> None:
        """Spans as TSV: name, command, parent, start_ns, end_ns, self_ns."""
        own = self.self_times()
        with open(path, "w", encoding="utf-8") as f:
            f.write("name\tcommand\tparent\tstart_ns\tend_ns\tself_ns\n")
            for span, s in zip(self.spans, own):
                f.write("\t".join(map(str, span)) + f"\t{s}\n")
