"""Steadiness check: two sets of benchmark runs of the same code.

    python3 perfbench/steady.py --runs 5 [--workload quick ...] [--baseline perfbench/baseline.json]

Run it from the repository root.  Each set makes --runs runs of every chosen
workload, each with its own seed: set A uses seeds 1..R and set B seeds
R+1..2R, and the runs of the two sets alternate.  For every end-to-end
metric and workload it prints each set's median and spread (the distance
between the quartiles as a share of the median) and a verdict against the
metric's bound in BENCHMARK.json:

* agree: both spreads are within the bound and the medians differ by no
  more than the bound;
* disagree: both spreads are within the bound and the medians differ by
  more than it;
* unresolved: a spread is wider than the bound, so the runs cannot tell.

It also prints the spread over all 2R runs, which must stay within the
bound too.  The exit code is 0 only when every metric agrees on every
workload and no spread over all runs exceeds its bound.

With --baseline it also makes one traced run per workload and writes the
medians, the per-layer figures, each layer's share of self time, the
layer -> end-to-end metric map and a machine note to the given file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import run
import tracing
import workloads

BENCHMARK = Path("BENCHMARK.json")


def bench(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, list[str]]:
    """One run of the benchmark; (its JSON result, its other stdout lines)."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=900, check=True)
    *lines, last = done.stdout.strip().splitlines()
    result = json.loads(last)
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect output\n" + "\n".join(lines))
    return result, lines


def spread(values: list[float]) -> float:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else 0.0


def verdict(a: list[float], b: list[float], bound: float) -> str:
    if spread(a) > bound or spread(b) > bound:
        return "unresolved"
    med_a, med_b = statistics.median(a), statistics.median(b)
    return "agree" if abs(med_b - med_a) <= bound * abs(med_a) else "disagree"


def machine_note() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(), "cpu": cpu}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=5, help="runs per set and workload")
    parser.add_argument("--workload", action="append", choices=sorted(workloads.GENERATORS))
    parser.add_argument("--baseline", type=Path, help="also trace once and write a baseline file")
    args = parser.parse_args()
    spec = json.loads(BENCHMARK.read_text())
    seconds = spec["run_seconds"]
    chosen = args.workload or [w["name"] for w in spec["workloads"]]
    values = {w: {"A": [], "B": []} for w in chosen}
    samples = {w: [] for w in chosen}
    for i in range(args.runs):
        for workload in chosen:
            for name, seed in (("A", 1 + i), ("B", 1 + args.runs + i)):
                result, lines = bench(workload, seed, seconds, 0)
                samples[workload].append(int(next(x for x in lines if x.startswith("samples ")).split()[1]))
                values[workload][name].append({k: v["value"] for k, v in result["metrics"].items()})
                print(f"{workload} set {name} seed {seed}: " + json.dumps(values[workload][name][-1]),
                      flush=True)

    report: dict = {}
    steady = True
    print(f"\n{'workload':9s} {'metric':16s} {'median A':>12s} {'median B':>12s} "
          f"{'spread A':>9s} {'spread B':>9s} {'all':>7s} {'bound':>6s}  verdict")
    for workload in chosen:
        report[workload] = {}
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a = [v[name] for v in values[workload]["A"]]
            b = [v[name] for v in values[workload]["B"]]
            both = a + b
            verdict_ab = verdict(a, b, bound)
            within = spread(both) <= bound
            steady = steady and verdict_ab == "agree" and within
            print(f"{workload:9s} {name:16s} {statistics.median(a):12.6g} {statistics.median(b):12.6g} "
                  f"{spread(a):9.4f} {spread(b):9.4f} {spread(both):7.4f} {bound:6.2f}  {verdict_ab}"
                  + ("" if within else "  (spread over all runs exceeds the bound)"))
            report[workload][name] = {
                "median": statistics.median(both), "spread": round(spread(both), 4), "unit": metric["unit"],
                "median_A": statistics.median(a), "median_B": statistics.median(b), "verdict": verdict_ab,
            }
    if args.baseline:
        write_baseline(args.baseline, spec, chosen, report, samples, args.runs)
    return 0 if steady else 1


def write_baseline(path: Path, spec: dict, chosen: list[str], report: dict, samples: dict, runs: int) -> None:
    doc = {
        "machine": machine_note(),
        "run_seconds": spec["run_seconds"],
        "seeds": f"end-to-end: 1..{2 * runs} per workload; traced: {workloads.DEFAULT_SEED}",
        "layer_map": {m["name"]: {"unit": m["unit"], "better": m["better"], "moves": tracing.MOVES[m["name"]]}
                      for m in spec["per_layer"]},
        "workloads": {},
    }
    for workload in chosen:
        reqs = workloads.generate(workload, workloads.DEFAULT_SEED)
        result, lines = bench(workload, workloads.DEFAULT_SEED, spec["run_seconds"], 1)
        shares = next(line for line in lines if line.startswith("time share by layer: "))
        doc["workloads"][workload] = {
            "pass_requests": len(reqs),
            "latency_tail_percentile": run.tail_percent(run.MIN_PASSES * len(reqs)),
            "latency_tail_basis_samples": run.MIN_PASSES * len(reqs),
            "samples_per_run": {"min": min(samples[workload]), "max": max(samples[workload])},
            "end_to_end": report[workload],
            "time_share": json.loads(shares.split(": ", 1)[1]),
            "per_layer": {k: v["value"] for k, v in result["metrics"].items()},
        }
    path.write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    raise SystemExit(main())
