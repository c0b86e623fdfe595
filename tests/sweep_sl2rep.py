"""Sweep the brute-force oracle's block solve over n and append the record to
BENCH_layers.json.

    PYTHONPATH=src python tests/sweep_sl2rep.py --note "shared 2-core VM"

Each row is [n, seconds, MB, bits] for `sl2rep._brute_force_data.__wrapped__(n, 0)`,
the weight-0 block, (n+1) x (n+1) and augmented by the identity: seconds is the
median of REPS timed calls, MB the tracemalloc peak of one more call, bits the
bit length of the largest entry of the integer rows `_bareiss_echelon` returns.
`slope` is the least-squares slope of log seconds against log n.  The record
names the commit of the checkout `linvariants` was imported from; the sweep
refuses to run when that checkout's `src/` differs from its commit.
"""

from __future__ import annotations

import argparse
import datetime
import json
import math
import os
import platform
import re
import statistics
import subprocess
import time
import tracemalloc
from pathlib import Path

from linvariants import sl2rep

FUNCTION = "sl2rep._brute_force_data"
SIZES = range(6, 17)
REPS = 7


def commit_of(checkout: Path) -> str:
    def git(*argv: str) -> str:
        return subprocess.run(["git", "-C", str(checkout), *argv], capture_output=True,
                              text=True, check=True).stdout.strip()

    if git("status", "--porcelain", "--", "src"):
        raise SystemExit(f"{checkout}/src differs from its commit; commit it before sweeping")
    return git("rev-parse", "--short", "HEAD")


def point(n: int) -> list:
    solve = sl2rep._brute_force_data.__wrapped__
    times = []
    for _ in range(REPS):
        start = time.perf_counter()
        solve(n, 0)
        times.append(time.perf_counter() - start)
    bits = [0]
    echelon = sl2rep._bareiss_echelon

    def measured(rows):
        rows, pivots = echelon(rows)
        bits[0] = max([bits[0]] + [abs(x).bit_length() for row in rows for x in row])
        return rows, pivots

    sl2rep._bareiss_echelon = measured
    tracemalloc.start()
    try:
        solve(n, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        sl2rep._bareiss_echelon = echelon
    return [n, round(statistics.median(times), 6), round(peak / 2**20, 3), bits[0]]


def log_log_slope(rows: list) -> float:
    xs = [math.log(row[0]) for row in rows]
    ys = [math.log(row[1]) for row in rows]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="sweep_sl2rep")
    parser.add_argument("--out", default="BENCH_layers.json")
    parser.add_argument("--note", default="", help="the machine, as a reader should know it")
    args = parser.parse_args(argv)
    commit = commit_of(Path(sl2rep.__file__).resolve().parents[2])
    rows = [point(n) for n in SIZES]
    record = {
        "commit": commit,
        "date": datetime.date.today().isoformat(),
        "machine": f"{args.note}; {platform.machine()}, {os.cpu_count()} CPUs, "
                   f"{platform.system()} {platform.release()}".lstrip("; "),
        "python": platform.python_version(),
        "reps": REPS,
        "layers": {FUNCTION: {"columns": ["n", "seconds", "MB", "bits"], "rows": rows,
                              "slope": round(log_log_slope(rows), 3)}},
    }
    out = Path(args.out)
    bench = json.loads(out.read_text()) if out.exists() else {"records": []}
    bench["records"].append(record)
    # one line per row: the innermost lists are written flat
    text = re.sub(r"\[\s+([^][{}]*?)\s+\]", lambda m: "[" + " ".join(m.group(1).split()) + "]",
                  json.dumps(bench, indent=1))
    out.write_text(text + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
