"""Benchmark for kakeyagf: three workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload verify-all --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; the program is imported from
`src/`, with no install step. Every timed execution starts a fresh
interpreter (`child.py`), because the program caches fields and curve
arrays per process and a second execution in one process would skip the
table builds. The inputs are made here from --seed; the outputs are
checked here, against `gf2ref` and the paper's closed forms, never
against the program itself.

--trace 0: a small warm-up execution is discarded, then one-worker and
two-worker executions alternate, one-worker first, while the next one
(timed as the last of its kind) still fits in --seconds. Set-up is
sampled by every execution and by set-up-only starts, three before the
first execution and one after each. Reported: the medians of setup_s,
wall_s, wall_j2_s, cpu_s and peak_rss_mb.
--trace 1: after the warm-up, untraced and traced one-worker executions
alternate, three of each, then one traced two-worker execution and one
that counts scalar `Field.mul` calls and records no spans. Reported: the
per-layer metrics, each time the median over the three traced executions,
and every span and counter in perfbench/_out/trace-<workload>.json.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics. The exit code is 0 when the benchmark ran, whatever the
correctness verdict; it is 2 when the checkout holds no program.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pickle
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "_out"
CHILD_TIMEOUT_S = 150
SETUP_SAMPLES = 3  # set-up-only starts before the first execution
TRACE_PAIRS = 3  # untraced and traced one-worker executions of a --trace 1 run


class Runner:
    """Starts child interpreters against the checkout's src/ and collects results."""

    def __init__(self, workload: workloads.Workload, scratch: Path):
        self.workload = workload
        self.scratch = scratch
        path = [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
        self.setup_samples: list[float] = []
        self.executions = 0

    def _spawn(self, args: list[str]) -> subprocess.CompletedProcess:
        spawn = time.monotonic()
        return subprocess.run([sys.executable, str(HERE / "child.py"), repr(spawn), *args],
                              env=self.env, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)

    def setup_only(self) -> None:
        proc = self._spawn([])
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child failed:\n{proc.stderr}")
        self.setup_samples.append(float(proc.stdout))

    def execute(self, inputs: dict, workers: int, trace: str | None = None) -> dict | None:
        """One execution, traced in mode `trace` of child.py; None when the child failed."""
        self.executions += 1
        req = self.scratch / f"req-{self.executions}.pkl"
        res = self.scratch / f"res-{self.executions}.pkl"
        with open(req, "wb") as fh:
            pickle.dump({"workload": self.workload.name, "inputs": inputs,
                         "workers": workers, "trace": trace}, fh)
        proc = self._spawn([str(req), str(res)])
        req.unlink()
        if proc.returncode != 0 or not res.exists():
            sys.stderr.write(f"execution failed (exit {proc.returncode}):\n{proc.stderr}\n")
            return None
        with open(res, "rb") as fh:
            result = pickle.load(fh)
        res.unlink()
        if not Path(result["kakeyagf"]).resolve().is_relative_to(ROOT / "src"):
            raise RuntimeError(f"kakeyagf imported from {result['kakeyagf']}, not this checkout")
        self.setup_samples.append(result["setup_s"])
        return result


def digest(outputs) -> str:
    """Stable hash of an outputs tree, to compare executions of the same inputs."""
    h = hashlib.sha256()

    def feed(x):
        if isinstance(x, dict):
            h.update(b"{")
            for k in sorted(x, key=repr):
                feed(k)
                feed(x[k])
            h.update(b"}")
        elif isinstance(x, (list, tuple)):
            h.update(b"[")
            for v in x:
                feed(v)
            h.update(b"]")
        elif isinstance(x, np.ndarray):
            h.update(str(x.dtype).encode() + repr(x.shape).encode() + x.tobytes())
        else:
            h.update(repr(x).encode())
    feed(outputs)
    return h.hexdigest()


class Verdict:
    """Checks the first outputs in full and every later one by digest."""

    def __init__(self, workload: workloads.Workload, inputs: dict):
        self.workload = workload
        self.inputs = inputs
        self.reference: str | None = None
        self.errors: list[str] = []
        self.attempted = 0
        self.failed = 0

    def add(self, result: dict | None) -> None:
        ops = self.workload.ops(self.inputs)
        self.attempted += ops
        if result is None:
            self.failed += ops
            return
        d = digest(result["outputs"])
        if self.reference is None:
            self.errors += self.workload.check(self.inputs, result["outputs"])
            self.reference = d
        elif d != self.reference:
            self.errors.append("an execution's outputs differ from the first execution's")

    @property
    def correct(self) -> bool:
        return not self.errors and self.reference is not None


def measure(runner: Runner, verdict: Verdict, inputs: dict, seconds: float) -> dict:
    samples = {"wall_s": [], "wall_j2_s": [], "cpu_s": [], "peak_rss_mb": []}
    for _ in range(SETUP_SAMPLES):
        runner.setup_only()
    begin = time.monotonic()
    last = {}  # worker count -> duration of its last execution
    workers = 1
    while True:
        start = time.monotonic()
        result = runner.execute(inputs, workers)
        verdict.add(result)
        # set-up swings with the machine's load, so sample it across the whole run
        runner.setup_only()
        last[workers] = time.monotonic() - start
        if result is not None:
            if workers == 1:
                for key in ("wall_s", "cpu_s", "peak_rss_mb"):
                    samples[key].append(result[key])
            else:
                samples["wall_j2_s"].append(result["wall_s"])
        workers = 3 - workers
        if time.monotonic() - begin + last.get(workers, last[3 - workers]) > seconds:
            break
    metrics = {"setup_s": statistics.median(runner.setup_samples)}
    for key, values in samples.items():
        if values:
            metrics[key] = statistics.median(values)
    sys.stderr.write(f"{len(samples['wall_s'])} + {len(samples['wall_j2_s'])} executions, "
                     f"{len(runner.setup_samples)} set-up samples\n")
    return metrics


def per_layer(untraced: list[dict], traced: list[dict], traced_j2: dict,
              counted: dict) -> dict:
    """The per-layer metrics: self times of spans, counters, and derived ratios.

    Times are medians over the traced one-worker executions; the counters
    are the same in each, and `field.mul_calls` comes from `counted`.
    """
    def span(result, name, key="self_s"):
        return result["trace"]["spans"].get(name, {}).get(key, 0.0)

    def median(value):
        return statistics.median(value(r) for r in traced)

    out = {f"{name}_s": median(lambda r: span(r, name)) for name in tracer.SPANS}
    out["field.mul_arrays_calls"] = span(traced[0], "field.mul_arrays", "calls")
    out.update({name: traced[0]["trace"]["counts"].get(name, 0) for name in tracer.COUNT_NAMES})
    out["field.mul_calls"] = counted["trace"]["counts"].get("field.mul_calls", 0)

    # the pool's map time comes from the two-worker run, whose items run in workers
    map_j2 = span(traced_j2, "parallel.map", "total_s")
    out["parallel.map_s"] = map_j2
    items_j1 = median(lambda r: span(r, "parallel.item", "total_s"))
    out["parallel.efficiency"] = items_j1 / (2 * map_j2) if map_j2 else 0.0

    for name in tracer.STAGES:
        out[f"{name}_s"] = median(lambda r: span(r, name, "total_s"))
    stages_ran = any(name in traced[0]["trace"]["spans"] for name in tracer.STAGES)
    out["cli.remainder_s"] = median(
        lambda r: r["wall_s"] - sum(span(r, name, "total_s") for name in tracer.STAGES)
    ) if stages_ran else 0.0
    out["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in traced)
                               - statistics.median(r["wall_s"] for r in untraced))
    return out


def traced_run(runner: Runner, verdict: Verdict, inputs: dict) -> dict:
    untraced, traced = [], []
    for _ in range(TRACE_PAIRS):
        untraced.append(runner.execute(inputs, 1))
        traced.append(runner.execute(inputs, 1, trace="spans"))
    traced_j2 = runner.execute(inputs, 2, trace="spans")
    counted = runner.execute(inputs, 1, trace="mul_calls")
    results = untraced + traced + [traced_j2, counted]
    for result in results:
        verdict.add(result)
    if any(r is None for r in results):
        return {}
    layers = per_layer(untraced, traced, traced_j2, counted)
    report = {"workload": runner.workload.name, "metrics": layers,
              "untraced_wall_s": [r["wall_s"] for r in untraced],
              "traced_wall_s": [r["wall_s"] for r in traced],
              "traced_j1": [r["trace"] for r in traced], "traced_j2": traced_j2["trace"],
              "counted": counted["trace"]["counts"]}
    (OUT / f"trace-{runner.workload.name}.json").write_text(json.dumps(report, indent=1))
    for name, value in layers.items():
        sys.stderr.write(f"  {name:34s} {value:.6g}\n")
    return layers


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "kakeyagf" / "__init__.py").is_file():
        sys.stderr.write(f"no kakeyagf sources under {ROOT / 'src'}; run from a checkout\n")
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    workload = workloads.WORKLOADS[args.workload]
    inputs = workload.make_inputs(args.seed, False)
    scratch = OUT / f"run-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        runner = Runner(workload, scratch)
        warmup = workload.make_inputs(args.seed, True)
        for workers in (1, 2):
            runner.execute(warmup, workers)
        runner.setup_samples.clear()
        verdict = Verdict(workload, inputs)
        if args.trace:
            values = traced_run(runner, verdict, inputs)
            names = [m["name"] for m in spec["per_layer"]]
        else:
            values = measure(runner, verdict, inputs, args.seconds)
            names = [m["name"] for m in spec["end_to_end"]]
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    for error in verdict.errors:
        sys.stderr.write(f"CHECK FAILED: {error}\n")
    metrics = {name: {"value": values[name], "unit": units[name]}
               for name in names if name in values}
    result = {"correct": verdict.correct and len(metrics) == len(names),
              "attempted": verdict.attempted, "failed": verdict.failed, "metrics": metrics}
    (OUT / f"result-{args.workload}.json").write_text(json.dumps(result, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
