"""Repeat the benchmark and summarise it: the numbers a change is compared to.

    python3 bench/baseline.py --runs 10 --out bench/baseline.json

Two sets, one after the other, of ``--runs`` untraced runs per workload in
BENCHMARK.json, with seeds 1..runs. Each set gives the median and quartiles
of every end-to-end metric and their spread (quartile distance over median,
as ``statistics.quantiles(values, n=4)`` gives it); ``drift`` is how much
worse the second set's median is than the first's, as a share of the first.
Then one traced run per workload gives the per-layer table and the tracing
overhead. Runs are separate processes, one at a time.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from run import PER_LAYER

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def run_once(workload: str, seed: int, trace: int) -> tuple[dict, dict, float]:
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)],
        cwd=BENCH.parent, capture_output=True, text=True, timeout=600)
    wall = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed:\n{proc.stderr}")
    return json.loads(lines[-1]), json.loads(lines[-2]), wall


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "runs": values}


def worse_by(first: float, second: float, better: str) -> float:
    change = (second - first) / first if first else 0.0
    return change if better == "lower" else -change


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    seeds = list(range(1, args.runs + 1))
    workloads = [w["name"] for w in SPEC["workloads"]]

    sets: dict[str, list] = {w: [] for w in workloads}
    infos: dict[str, dict] = {}
    for number in (1, 2):
        for workload in workloads:
            results, walls = [], []
            for seed in seeds:
                result, infos[workload], wall = run_once(workload, seed, 0)
                results.append(result)
                walls.append(wall)
                print(f"set {number} {workload} seed {seed}: {wall:.1f} s "
                      + " ".join(f"{k}={m['value']:.4g}" for k, m in result["metrics"].items()),
                      file=sys.stderr)
            sets[workload].append({
                "run_wall_s": summarise(walls),
                "end_to_end": {m["name"]: summarise([r["metrics"][m["name"]]["value"]
                                                     for r in results])
                               for m in SPEC["end_to_end"]},
            })

    summary = {}
    for workload in workloads:
        traced, _, traced_wall = run_once(workload, seeds[0], 1)
        first, second = sets[workload]
        summary[workload] = {
            "seeds": [seeds[0], seeds[-1]],
            "bounds": {m["name"]: {"unit": m["unit"], "better": m["better"], "bound": m["bound"],
                                   "drift": worse_by(first["end_to_end"][m["name"]]["median"],
                                                     second["end_to_end"][m["name"]]["median"],
                                                     m["better"])}
                       for m in SPEC["end_to_end"]},
            "sets": sets[workload],
            "properties": infos[workload]["properties"],
            "environment": infos[workload]["environment"],
            "traced_run": {"seed": seeds[0], "wall_s": traced_wall,
                           "per_layer": {k: {"value": m["value"], "unit": m["unit"],
                                             "moves": PER_LAYER[k][1]}
                                         for k, m in traced["metrics"].items()}},
        }
    args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
