"""Repeat the benchmark over several seeds and summarise each metric's spread.

    python3 perfbench/baseline.py --runs 10 [--workload NAME ...] [--trace] [--out FILE]

Runs ``run.py`` once per (workload, seed), one run at a time, seeds 1..N.
For every end-to-end metric it reports the median over runs and the spread:
the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median, next to
the metric's bound from BENCHMARK.json, and the same for the values before
host-speed scaling (run.py's info line). ``--trace`` adds one traced run per
workload for the per-layer metrics. ``--out`` writes the summary, with the
machine it ran on, as JSON.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path


def run_once(spec: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    cmd[0] = sys.executable if cmd[0] == "python3" else cmd[0]
    start = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.splitlines()[-1])
    result["wall_s"] = time.perf_counter() - start
    result["info"] = [json.loads(line.split(" ", 1)[1])
                      for line in proc.stdout.splitlines() if line.startswith("perfbench ")]
    return result


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else 0.0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append", help="default: every workload")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out")
    args = parser.parse_args()

    spec = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    summary = {
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "platform": platform.platform(), "processor": platform.processor()},
        "run_seconds": spec["run_seconds"], "seeds": seeds, "workloads": {},
    }
    for workload in workloads:
        runs = []
        for seed in seeds:
            result = run_once(spec, workload, seed, 0)
            runs.append(result)
            print(f"{workload} seed={seed} correct={result['correct']} failed={result['failed']} "
                  f"wall={result['wall_s']:.1f}s", file=sys.stderr, flush=True)
        metrics = {}
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            metrics[m["name"]] = {
                "unit": m["unit"], "better": m["better"], "bound": m["bound"],
                "median": statistics.median(values), "spread": spread(values), "values": values,
            }
            unscaled = [r["info"][-1]["unscaled"].get(m["name"]) for r in runs]
            if None not in unscaled:
                metrics[m["name"]].update(unscaled_median=statistics.median(unscaled),
                                          unscaled_spread=spread(unscaled), unscaled_values=unscaled)
            row = metrics[m["name"]]
            print(f"  {m['name']:<22} median={row['median']:<12.6g} spread={row['spread']:.4f} "
                  f"unscaled={row.get('unscaled_spread', 0):.4f} bound={m['bound']}", file=sys.stderr)
        entry = {
            "correct": all(r["correct"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "run_wall_s": statistics.median(r["wall_s"] for r in runs),
            "inputs": {seed: {k: r["info"][0][k] for k in ("corpus_sha256", "tools_sha256", "docs", "corpus_bytes")}
                       for seed, r in zip(seeds, runs)},
            "runs": {seed: {k: r["info"][-1][k] for k in ("cycles", "host_loop_s", "outputs")}
                     for seed, r in zip(seeds, runs)},
            "end_to_end": metrics,
        }
        if args.trace:
            traced = run_once(spec, workload, seeds[0], 1)
            entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
            entry["traced_correct"] = traced["correct"]
            # Same seed, separate run: every output must hash the same.
            entry["same_seed_outputs_match"] = traced["info"][-1]["outputs"] == runs[0]["info"][-1]["outputs"]
        summary["workloads"][workload] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
