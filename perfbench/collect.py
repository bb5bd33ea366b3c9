"""Repeat the benchmark over several seeds and summarise each metric.

Usage, from the repository root::

    python3 perfbench/collect.py [--workload NAME ...] [--out FILE]

Runs ``run.py`` once per seed in SEEDS (untraced) and once traced with the
first seed per workload, one process at a time. Every trajectory point uses
the same seeds. For every end-to-end metric it prints the median, the
quartiles and the spread (interquartile distance over the median) next to
the metric's bound from BENCHMARK.json: "steady" below a third of the bound,
"within bound" up to it, "OVER BOUND" beyond it (the exit code is 1 if any
metric is over). With ``--out`` the summary, with provenance, is written as
a trajectory point (see README.md).
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
SEEDS = range(1, 11)


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {done.returncode}:\n{done.stderr}")
    lines = done.stdout.splitlines()
    provenance = json.loads(lines[0].split(" ", 1)[1])
    notes = [line for line in lines if line.startswith("workload ")]
    return {"provenance": provenance, "notes": notes, **json.loads(lines[-1])}


def summarise(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "values": values,
    }


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    summary = {"run_seconds": spec["run_seconds"], "runs": len(SEEDS), "workloads": {}}
    within = True
    for workload in args.workload or names:
        results = []
        for seed in SEEDS:
            results.append(run(workload, seed, spec["run_seconds"], 0))
            print(f"{workload} seed {seed}: " + json.dumps(results[-1]["metrics"]), flush=True)
        entry = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "end_to_end": {},
            "loadavg": [r["provenance"]["loadavg"] for r in results],
            "notes": [note for r in results for note in r["notes"]],
        }
        for metric, bound in bounds.items():
            stats = summarise([r["metrics"][metric]["value"] for r in results])
            stats["unit"] = results[0]["metrics"][metric]["unit"]
            entry["end_to_end"][metric] = stats
            if stats["spread"] < bound / 3:
                flag = "steady"
            elif stats["spread"] <= bound:
                flag = "within bound"
            else:
                flag = "OVER BOUND"
                within = False
            print(f"  {workload:10s} {metric:14s} median {stats['median']:.6g} {stats['unit']}"
                  f"  q1 {stats['q1']:.6g}  q3 {stats['q3']:.6g}  spread {stats['spread']:.4f}"
                  f"  bound {bound}  {flag}", flush=True)
        traced = run(workload, SEEDS[0], spec["run_seconds"], 1)
        entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        entry["traced_correct"] = traced["correct"]
        entry["notes"] += traced["notes"]
        summary["workloads"][workload] = entry
        summary["provenance"] = results[-1]["provenance"]
    if args.out:
        args.out.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 0 if within else 1


if __name__ == "__main__":
    sys.exit(main())
