"""Steadiness check: run workloads several times and compare spreads to bounds.

For every end-to-end metric of each workload it prints the median and the
first and third quartiles over the runs (``statistics.quantiles(n=4)``), the
interquartile spread as a share of the median, the metric's bound from
``BENCHMARK.json`` and whether the spread stays under a third of it.  It
also prints each run's share of failed operations, which must not vary.

    python3 perfbench/steady.py                          # every workload, seeds 1..10
    python3 perfbench/steady.py --workload serve --runs 5 --first-seed 11

Runs go one after another; each is ``perfbench/run.py`` in its own process,
run for ``run_seconds`` of ``BENCHMARK.json``.  Exits 0 only when every
spread is under a third of its bound, every run is correct and every run
fails the same share of its operations.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parent.parent


def one_run(workload: str, seed: int, seconds: int) -> dict:
    command = [
        sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(command)} exited {done.returncode}:\n{done.stderr}")
    return json.loads(lines[-1])


def summarize(workload: str, runs: List[dict], bounds: Dict[str, float]) -> bool:
    steady = True
    names = sorted({name for run in runs for name in run["metrics"]})
    print(f"\n{workload}: {len(runs)} runs")
    print(f"  {'metric':<20} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for name in names:
        values = [run["metrics"][name]["value"] for run in runs if name in run["metrics"]]
        q1, mid, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / mid if mid else float("inf")
        bound = bounds.get(name)
        verdict = ""
        if bound is not None:
            ok = spread < bound / 3 or name == "setup_s"
            steady &= ok
            verdict = "ok" if ok else "WIDE"
        print(f"  {name:<20} {mid:>12.6g} {q1:>12.6g} {q3:>12.6g} {spread:>8.3f} "
              f"{bound if bound is not None else '-':>6} {verdict}")
    shares = sorted({run["failed"] / run["attempted"] for run in runs})
    correct = all(run["correct"] for run in runs)
    print(f"  failed share per run: {shares}   all correct: {correct}")
    return steady and correct and len(shares) == 1


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    if args.runs < 2:
        parser.error("--runs must be at least 2 for quartiles")

    bounds = {metric["name"]: metric["bound"] for metric in spec["end_to_end"]}
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    steady = True
    for workload in workloads:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            runs.append(one_run(workload, seed, spec["run_seconds"]))
            print(f"{workload} seed {seed}: {json.dumps(runs[-1]['metrics'])}", flush=True)
        steady &= summarize(workload, runs, bounds)
    print("\nsteady" if steady else "\nNOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
