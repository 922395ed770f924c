"""Run-to-run spread of the end-to-end metrics, as the bounds are judged.

    python3 perfbench/spread.py --seeds 1-10

Runs `run.py --trace 0` at `run_seconds` once per seed and workload of
BENCHMARK.json, taking the workloads in turn for each seed so that slow phases of a shared machine fall on all of
them. For each workload and metric it prints the median and the distance
between the first and third quartiles (`statistics.quantiles(n=4)`) as a
share of the median, next to the metric's bound in BENCHMARK.json. Every
run's result line is appended to perfbench/_out/spread.jsonl.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", default="1-10")
    args = parser.parse_args()
    names = [w["name"] for w in spec["workloads"]]
    values: dict[str, dict[str, list[float]]] = {w: {} for w in names}
    failed_shares: dict[str, set] = {w: set() for w in names}
    log = HERE / "_out" / "spread.jsonl"
    log.parent.mkdir(exist_ok=True)
    for seed in parse_seeds(args.seeds):
        for w in names:
            proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", w,
                                   "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                                   "--trace", "0"], cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            with open(log, "a") as fh:
                fh.write(json.dumps({"workload": w, "seed": seed, **result}) + "\n")
            if not result["correct"]:
                sys.stderr.write(f"{w} seed {seed}: incorrect\n{proc.stderr}")
            failed_shares[w].add((result["failed"], result["attempted"]))
            for name, m in result["metrics"].items():
                values[w].setdefault(name, []).append(m["value"])
            print(f"{w} seed {seed}: " + " ".join(
                f"{k}={m['value']:.4g}" for k, m in result["metrics"].items()), flush=True)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    print(f"\n{'workload':16s} {'metric':12s} {'median':>10s} {'IQR/med':>8s} {'bound':>6s}")
    for w in names:
        for name, xs in values[w].items():
            q1, med, q3 = statistics.quantiles(xs, n=4)
            print(f"{w:16s} {name:12s} {med:10.4f} {(q3 - q1) / med:8.3f} {bounds[name]:6.2f}")
        print(f"{w:16s} failed/attempted: {sorted(failed_shares[w])}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
