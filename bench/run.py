"""End-to-end and per-layer benchmark of the headpose CLI.

Run from the root of a checkout:

    python3 bench/run.py --workload {train,score,laeo} --seed N --seconds S --trace {0,1}

The program runs from the checkout's own `src/` as `python -m headpose`,
one process at a time. Inputs come from the seed and are generated before
timing starts; one warm-up repeat is discarded.

--trace 0 measures in rounds until S seconds have passed; each round
samples every metric once, and each metric is the median over rounds:
  setup_s            a fresh process importing headpose.cli, plus
                     formats.read_model when the workload has a model
  peak_rss_mb        max RSS over the measured CLI processes (the max,
                     not a median)
  stage1.items_per_s, stage2.items_per_s
                     items/s of the workload's two CLI stages, wall time
                     including interpreter start-up (see workloads.py)
The failure ratio is `failed` / `attempted` in the result line.

--trace 1 runs the same commands in-process through `cli.main`, untraced
and traced alternately, and prints the per-layer table (self times,
calls, counts) from spans recorded by tracing.py, plus:
  trace.overhead     traced wall over untraced wall
  predict.p50_ms, predict.p99_ms
                     a closed loop in a fresh process per round, one
                     caller: normalize + Model.predict on one record at a
                     time (loop.py). Per-process values varied up to 2x
                     between runs on a shared 2-vCPU machine, too much to
                     carry a regression bound, so they are reported here.
Spans are written to .bench_work/spans-<workload>.tsv.

The last line of stdout is the JSON result; lines before it are for people.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_PROBES = 1  # per round
# p99 of 1000 requests has 10 beyond it, the fewest that make it a percentile.
LOOP_REQUESTS = 1000
MIN_ROUNDS = 3
# Start no round past this point, so that a run always ends within 180 s.
HARD_STOP_S = 140.0
SETUP_CODE = (
    "import sys\n"
    "import headpose.cli\n"
    "from headpose import formats\n"
    "if len(sys.argv) > 1:\n"
    "    formats.read_model(sys.argv[1])\n"
)


def percentile(sorted_values: list[float], q: float) -> float:
    """Linear-interpolation percentile of an ascending list."""
    pos = (len(sorted_values) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def machine_facts(nproc: int) -> dict:
    import numpy as np

    cpu = platform.machine()
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as f:
        cpu = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), cpu)
    blas = "unknown"
    with contextlib.suppress(Exception):
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info['name']} {info['version']}"
    return {
        "nproc": nproc,
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {k: os.environ[k] for k in THREAD_VARS if k in os.environ},
    }


class Run:
    """One benchmark invocation: a workload's inputs, repeats and tallies."""

    def __init__(self, workload_cls, ctx, seconds: int):
        self.ctx = ctx
        self.seconds = seconds
        self.started = time.perf_counter()
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.w = workload_cls(ctx)
        self.w.prepare()

    def elapsed(self) -> float:
        return time.perf_counter() - self.started

    def note(self, problems: list[str], ops: int = 1) -> None:
        if problems:
            self.failed += ops
            self.problems.extend(problems)

    # -- untraced: CLI subprocesses -----------------------------------------

    def cli_repeat(self, index: int) -> tuple[list[float], int]:
        """Run both stages once; (wall per stage, max RSS in KB)."""
        out = self.ctx.work / f"r{index}"
        out.mkdir()
        walls, rss, exit_ok = [], 0, True
        for stage in self.w.stages(out):
            wall = 0.0
            for argv in stage.commands:
                run = self.ctx.run_cli(argv)
                self.attempted += 1
                wall += run.wall_s
                rss = max(rss, run.max_rss_kb)
                if run.code != 0:
                    exit_ok = False
                    self.note([f"{argv[0]} exited {run.code}: {run.stderr.strip()}"])
            walls.append(wall)
        if exit_ok:
            self.note(self.w.check(out))
        shutil.rmtree(out)
        return walls, rss

    def setup_seconds(self) -> list[float]:
        argv = [sys.executable, "-c", SETUP_CODE]
        if self.w.model_path is not None:
            argv.append(str(self.w.model_path))
        times = []
        for _ in range(SETUP_PROBES):
            start = time.perf_counter()
            code = subprocess.run(argv, cwd=self.ctx.work, env=self.ctx.env,
                                  stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode
            times.append(time.perf_counter() - start)
            self.attempted += 1
            if code != 0:
                self.note([f"set-up probe exited {code}"])
        return times

    def prepare_loop(self) -> None:
        """Write the closed loop's requests and their numpy-forward outputs."""
        import numpy as np

        import reference

        self.requests = self.ctx.work / "requests.npy"
        np.save(self.requests, self.w.loop_kps)
        config, params = reference.read_model_file(self.w.model_path)
        self.expected = reference.forward(config, params, self.w.loop_kps)
        self.loops = 0

    def loop_round(self) -> tuple[float, float] | None:
        """(p50, p99) in ms of LOOP_REQUESTS predictions in a fresh process."""
        import numpy as np
        from workloads import TOL

        out = self.ctx.work / "loop.npz"
        argv = [sys.executable, str(BENCH / "loop.py"), str(self.w.model_path),
                str(self.requests), str(self.loops * LOOP_REQUESTS), str(LOOP_REQUESTS), str(out)]
        self.loops += 1
        proc = subprocess.run(argv, cwd=self.ctx.work, env=self.ctx.env,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        self.attempted += LOOP_REQUESTS
        if proc.returncode != 0:
            self.note([f"closed loop exited {proc.returncode}: {proc.stderr.strip()}"],
                      ops=LOOP_REQUESTS)
            return None
        with np.load(out) as result:
            latency = sorted((result["latency_ns"] / 1e6).tolist())
            got, want = result["outputs"], self.expected[result["index"]]
        bad = LOOP_REQUESTS
        if got.shape == want.shape:
            bad = int((np.abs(got - want).max(axis=1) > TOL).sum())
        if bad:
            self.note([f"closed loop: {bad} predictions differ from the numpy forward"], ops=bad)
        return percentile(latency, 0.50), percentile(latency, 0.99)

    def measuring(self, start: float, rounds: int) -> bool:
        return rounds < MIN_ROUNDS or (
            time.perf_counter() - start < self.seconds and self.elapsed() < HARD_STOP_S)

    def untraced(self) -> tuple[dict, dict]:
        self.cli_repeat(0)  # warm-up, discarded
        stages = self.w.stages(self.ctx.work)
        setup, rates, peak_kb = [], ([], []), 0
        # Each round samples every metric once, so a burst of load on the
        # shared machine lands on all of them rather than on one.
        start = time.perf_counter()
        rounds = 0
        while self.measuring(start, rounds):
            rounds += 1
            setup += self.setup_seconds()
            walls, rss = self.cli_repeat(rounds)
            peak_kb = max(peak_kb, rss)
            for i, wall in enumerate(walls):
                rates[i].append(stages[i].items / wall)
        for name, values in (("setup_s", setup), ("stage1", rates[0]), ("stage2", rates[1])):
            print(f"rounds {name}: " + " ".join(f"{v:.4g}" for v in values))
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (peak_kb / 1024.0, "MB"),
            "stage1.items_per_s": (statistics.median(rates[0]), "1/s"),
            "stage2.items_per_s": (statistics.median(rates[1]), "1/s"),
        }
        samples = {
            "setup_s": f"median of {len(setup)} processes",
            "peak_rss_mb": f"max over {2 * rounds} stage runs",
            "stage1.items_per_s": f"{self.w.stage_names[0]}: {stages[0].items} "
                                  f"{stages[0].label}, median of {rounds}",
            "stage2.items_per_s": f"{self.w.stage_names[1]}: {stages[1].items} "
                                  f"{stages[1].label}, median of {rounds}",
        }
        return metrics, samples

    # -- traced: in-process cli.main ------------------------------------------

    def inproc_pass(self, index: int, tracer=None) -> float:
        from headpose import cli

        out = self.ctx.work / f"p{index}"
        out.mkdir()
        start = time.perf_counter()
        for stage in self.w.stages(out):
            for argv in stage.commands:
                sink = io.StringIO()
                with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                    if tracer is None:
                        code = cli.main(argv)
                    else:
                        code = tracer.command(argv[0], cli.main, argv)
                self.attempted += 1
                if code != 0:
                    self.note([f"{argv[0]} returned {code}: {sink.getvalue().strip()}"])
        wall = time.perf_counter() - start
        self.note(self.w.check(out))
        shutil.rmtree(out)
        return wall

    def traced(self) -> tuple[dict, dict]:
        from tracing import PER_LAYER, Tracer

        self.inproc_pass(0)  # warm-up, discarded
        self.prepare_loop()
        start = time.perf_counter()
        plain, traced, tables, p50, p99 = [], [], [], [], []
        tracer = None
        while self.measuring(start, len(traced)):
            plain.append(self.inproc_pass(2 * len(traced) + 1))
            tracer = Tracer()
            tracer.install()
            try:
                traced.append(self.inproc_pass(2 * len(traced) + 2, tracer))
            finally:
                tracer.uninstall()
            self.note(tracer.check())
            tables.append(tracer.layer_metrics())
            latency = self.loop_round()
            if latency:
                p50.append(latency[0])
                p99.append(latency[1])
        if tracer.missing:
            print(f"not traced (name not found): {', '.join(tracer.missing)}")
        tracer.write(self.ctx.work.parent / f"spans-{self.w.name}.tsv")
        metrics = {m: (statistics.median(t[m] for t in tables), unit)
                   for m, unit in PER_LAYER.items()}
        metrics["trace.overhead"] = (statistics.median(traced) / statistics.median(plain), "ratio")
        metrics["predict.p50_ms"] = (statistics.median(p50), "ms")
        metrics["predict.p99_ms"] = (statistics.median(p99), "ms")
        loop = f"median over {len(p99)} processes of {LOOP_REQUESTS} requests"
        samples = {
            "trace.overhead": f"median of {len(traced)} traced / {len(plain)} untraced passes",
            "predict.p50_ms": loop,
            "predict.p99_ms": f"{loop}, {LOOP_REQUESTS // 100} beyond p99 in each",
        }
        return metrics, samples


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("train", "score", "laeo"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "headpose" / "__init__.py").is_file():
        print(f"error: {src}/headpose not found; run from the root of a checkout",
              file=sys.stderr)
        return 2

    # BLAS runs one thread unless the environment asks for more, and never
    # more threads than CPUs. The largest products here are (4000 x 250) @
    # (250 x 200); on a 2-vCPU machine a second thread made the CLI slower
    # and its wall time noisier. Set before numpy is first imported, here
    # and in every child.
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        value = os.environ.get(var, "1")
        os.environ[var] = str(min(int(value), nproc)) if value.isdigit() else value
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH")) if p)
    sys.path.insert(0, str(src))

    from workloads import WORKLOADS, Context

    work = root / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        ctx = Context(work, args.seed, dict(os.environ))
        run = Run(WORKLOADS[args.workload], ctx, args.seconds)
        metrics, samples = run.traced() if args.trace else run.untraced()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("machine: " + json.dumps(machine_facts(nproc)))
    for name, (value, unit) in metrics.items():
        extra = f"  ({samples[name]})" if name in samples else ""
        print(f"  {name:32s} {value:14.6g} {unit}{extra}")
    print(f"  {'fail_ratio':32s} {run.failed / run.attempted:14.6g} "
          f"failed/attempted  ({run.failed} of {run.attempted})")
    for problem in run.problems[:20]:
        print(f"  problem: {problem}")
    print(json.dumps({
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
