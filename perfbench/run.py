"""Benchmark runner: cold-process `linvariants` requests, one closed-loop client.

    python3 perfbench/run.py --workload modules --seed 0 --seconds 20 --trace 0

Run it from the repository root.  Every request is a fresh process
(`python -m linvariants.cli ARGS` with PYTHONPATH=src, or perfbench/oracle.py
for the oracle workload), so each one pays for interpreter start, importing
the package and cold caches, as a CLI user does.  The client sends the next
request only when the previous one has exited, so at most the client and one
request run at a time.  The runner repeats the workload's pass of requests
and stops at the end of the pass nearest to `--seconds`, after at least
MIN_PASSES passes, then checks every distinct output.

The machine this runs on is shared, and its speed drifts by a quarter and
more within seconds and over minutes.  So after every request the runner
times perfbench/yardstick.py, a fixed piece of standard-library work, and
reports each request's wall time scaled to a machine on which the
yardstick takes YARDSTICK_REF_S: multiplied by YARDSTICK_REF_S / (the mean
of the yardstick runs just before and just after the request).  Import
probes are scaled by the factor of the request they precede.  The
yardstick does not run the program, so the program's own changes show in
full; the unscaled figures are printed above the result line.

With --trace 0 it prints the end-to-end metrics; with --trace 1 it runs each
request once plain and once under perfbench/traced.py and prints the
per-layer metrics, over at least one pass.  Metric names and units are read
from BENCHMARK.json.  The last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import shutil
import statistics
import sys
import time
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
#: runs keep their request files under here, one directory per process
WORK_ROOT = "perfbench/_work"
#: an untraced run holds at least this many passes; the latency tail
#: percentile is fixed by their sample count
MIN_PASSES = 2
#: import probes behind setup_s in MIN_PASSES passes, spread evenly over them
PROBES = 12
YARDSTICK = HERE / "yardstick.py"
#: yardstick time, spawn to exit, on the reference machine; the reported
#: times are scaled to a machine on which it takes this long
YARDSTICK_REF_S = 0.100
PROBE = (
    "import time; t = time.perf_counter(); import linvariants.cli; "
    "print(time.perf_counter() - t)"
)
def tail_percent(samples: int) -> int:
    """The highest whole percentile that has at least ten samples beyond it."""
    best = 0
    for q in range(1, 100):
        if samples - math.ceil(q * samples / 100) >= 10:
            best = q
    if not best:
        raise ValueError(f"{samples} samples leave no percentile with ten beyond it")
    return best


def percentile(values: list[float], q: int) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[math.ceil(q * len(ordered) / 100) - 1]


class Spawner:
    """Runs one request process at a time and reports what it cost."""

    def __init__(self, root: Path, work: Path):
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.work = work
        self.stdin_null = work / "empty.stdin"
        self.stdin_null.write_bytes(b"")

    def command(self, req: workloads.Request, spans: Path | None = None, rid: int = 0) -> list[str]:
        if spans is not None:
            return [sys.executable, str(HERE / "traced.py"), str(spans), str(rid), req.program, *req.argv]
        if req.program == "oracle":
            return [sys.executable, str(HERE / "oracle.py"), *req.argv]
        return [sys.executable, "-m", "linvariants.cli", *req.argv]

    def run(self, cmd: list[str], stdin: Path | None = None) -> tuple[int, bytes, float, int]:
        """(exit code, stdout, wall seconds from spawn to exit, max RSS in KiB)."""
        out_path, err_path = self.work / "stdout", self.work / "stderr"
        with open(stdin or self.stdin_null, "rb") as fin, open(out_path, "w+b") as fout, \
                open(err_path, "w+b") as ferr:
            actions = [(os.POSIX_SPAWN_DUP2, f.fileno(), fd) for fd, f in enumerate((fin, fout, ferr))]
            start = time.perf_counter()
            pid = os.posix_spawn(cmd[0], cmd, self.env, file_actions=actions)
            _, status, usage = os.wait4(pid, 0)
            wall = time.perf_counter() - start
            fout.seek(0)
            return os.waitstatus_to_exitcode(status), fout.read(), wall, usage.ru_maxrss

    def stderr_tail(self) -> str:
        lines = (self.work / "stderr").read_text(errors="replace").strip().splitlines()
        return lines[-1] if lines else ""

    def probe(self) -> float:
        """Import time of `linvariants.cli` in a fresh process."""
        code, out, _, _ = self.run([sys.executable, "-c", PROBE])
        if code != 0:
            raise RuntimeError(f"import probe failed: {self.stderr_tail()}")
        return float(out)

    def yardstick(self) -> float:
        """Wall time of one yardstick process, spawn to exit.

        It runs isolated (-I) and without the site module (-S), so nothing on
        the program's PYTHONPATH or in site-packages can change its cost.
        """
        code, _, wall, _ = self.run([sys.executable, "-I", "-S", str(YARDSTICK)])
        if code != 0:
            raise RuntimeError(f"yardstick failed: {self.stderr_tail()}")
        return wall


@contextlib.contextmanager
def workspace(root: Path):
    """A private working directory for one run's requests, removed afterwards.

    Requests run with it as their current directory, so their input file
    names resolve there and concurrent runs do not share files.
    """
    work = root / WORK_ROOT / str(os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    os.chdir(work)
    try:
        yield work
    finally:
        os.chdir(root)
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            (root / WORK_ROOT).rmdir()


def prepare(reqs: list[workloads.Request], work: Path) -> dict[str, Path]:
    """Write input files and stdin contents; return the stdin path per request."""
    stdins = {}
    for req in reqs:
        for name, content in req.files.items():
            (work / name).write_bytes(content)
        if req.stdin:
            path = work / f"{req.rid.replace('/', '-')}.stdin"
            path.write_bytes(req.stdin)
            stdins[req.rid] = path
    return stdins


def load_digests(workload: str, seed: int) -> dict[str, str]:
    if seed != workloads.DEFAULT_SEED:
        return {}
    with open(HERE / "digests.json", encoding="utf-8") as handle:
        return json.load(handle)[workload]


def enough(elapsed: float, passes: int, minimum: int, seconds: float) -> bool:
    """Whether to stop after `passes` whole passes that took `elapsed` seconds.

    The run ends at the pass boundary nearest to `seconds`, after at least
    `minimum` passes.
    """
    return passes >= minimum and elapsed + elapsed / passes / 2 >= seconds


def run_plain(reqs, spawner, stdins, seconds):
    """Closed loop over whole passes, with a yardstick run after every request.

    Import probes for setup_s run before every few requests, about PROBES
    of them in MIN_PASSES passes, so they sample the same stretch of time as
    the requests.  Returns samples (output key, wall time, scaled wall time,
    max RSS), distinct outputs, the run's wall time and the scaled probe
    times.
    """
    samples, outputs, probes = [], {}, []
    spawner.probe()  # the first import may compile bytecode; users pay that once
    before = spawner.yardstick()
    step, passes = max(1, MIN_PASSES * len(reqs) // PROBES), 0
    start = time.perf_counter()
    while True:
        for index, req in enumerate(reqs):
            probe = spawner.probe() if index % step == 0 else None
            code, out, wall, rss = spawner.run(spawner.command(req), stdins.get(req.rid))
            key = (index, code, hashlib.sha256(out).hexdigest())
            if key not in outputs:
                outputs[key] = (out, spawner.stderr_tail() if code != req.expect_code else "")
            after = spawner.yardstick()
            scale = YARDSTICK_REF_S / ((before + after) / 2)
            before = after
            samples.append((key, wall, wall * scale, rss))
            if probe is not None:
                probes.append(probe * scale)
        passes += 1
        elapsed = time.perf_counter() - start
        if enough(elapsed, passes, MIN_PASSES, seconds):
            return samples, outputs, elapsed, probes


def end_to_end(reqs, spawner, stdins, seconds, digests) -> tuple[dict, int, int, list[str]]:
    samples, outputs, elapsed, probes = run_plain(reqs, spawner, stdins, seconds)
    verdicts = {}
    for (index, code, sha), (out, stderr) in outputs.items():
        req = reqs[index]
        reason = workloads.verify(req, code, out, digests.get(req.rid))
        verdicts[(index, code, sha)] = reason and f"{reason} {stderr}".strip()
    failures = sorted({f"{reqs[k[0]].rid}: {verdicts[k]}  argv={list(reqs[k[0]].argv)}"
                       for k, _, _, _ in samples if verdicts[k]})
    failed = sum(1 for k, _, _, _ in samples if verdicts[k])
    q = tail_percent(MIN_PASSES * len(reqs))

    def timings(latencies):
        ms = [s * 1000 for s in latencies]
        return {"throughput_rps": len(ms) / sum(latencies), "latency_p50_ms": statistics.median(ms),
                "latency_tail_ms": percentile(ms, q)}

    metrics = timings([scaled for _, _, scaled, _ in samples])
    metrics["peak_rss_mb"] = max(rss for _, _, _, rss in samples) / 1024
    metrics["success_ratio"] = (len(samples) - failed) / len(samples)
    metrics["setup_s"] = statistics.median(probes)
    print(f"samples {len(samples)} in {elapsed:.2f} s ({len(samples) // len(reqs)} passes of {len(reqs)}); "
          f"{len(probes)} import probes")
    print("unscaled " + json.dumps(timings([wall for _, wall, _, _ in samples])) + "; scale factor median "
          f"{statistics.median(scaled / wall for _, wall, scaled, _ in samples):.4f}")
    print(f"latency_tail_ms is p{q}: the highest percentile with ten of {MIN_PASSES} passes' "
          f"{MIN_PASSES * len(reqs)} samples beyond it")
    print(f"error_ratio {failed / len(samples):.4f} ({failed} of {len(samples)} requests failed)")
    return metrics, len(samples), failed, failures


def per_layer(reqs, spawner, stdins, seconds, digests, work, names) -> tuple[dict, int, int, list[str]]:
    totals = tracing.PassTotals()
    failures, attempted, passes = [], 0, 0
    plain_s = traced_s = 0.0
    start = time.perf_counter()
    while True:
        for index, req in enumerate(reqs):
            stdin = stdins.get(req.rid)
            code, out, wall, _ = spawner.run(spawner.command(req), stdin)
            plain_s += wall
            reason = workloads.verify(req, code, out, digests.get(req.rid))
            spans = work / "spans.json"
            spans.unlink(missing_ok=True)
            t_code, t_out, t_wall, _ = spawner.run(spawner.command(req, spans, index), stdin)
            traced_s += t_wall
            if (t_code, t_out) != (code, out):
                reason = reason or "traced output differs from the plain output"
            attempted += 1
            if not spans.is_file():
                reason = reason or f"traced request wrote no spans: {spawner.stderr_tail()}"
            else:
                with open(spans, encoding="utf-8") as handle:
                    totals.add(json.load(handle), req.size, len(out))
            if reason:
                failures.append(f"{req.rid}: {reason}  argv={list(req.argv)}")
        passes += 1
        if enough(time.perf_counter() - start, passes, 1, seconds):
            break
    print(f"traced {attempted} requests ({passes} passes of {len(reqs)}); figures are per pass")
    print("time share by layer: " + json.dumps(totals.shares(), sort_keys=True))
    return totals.metrics(names, passes, traced_s, plain_s), attempted, len(failures), failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.GENERATORS), required=True)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "linvariants" / "cli.py").is_file():
        print("run from the repository root: src/linvariants is missing", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    reqs = workloads.generate(args.workload, args.seed)
    digests = load_digests(args.workload, args.seed)
    with workspace(root) as work:
        spawner = Spawner(root, work)
        stdins = prepare(reqs, work)
        if args.trace:
            metrics, attempted, failed, failures = per_layer(reqs, spawner, stdins, args.seconds, digests, work,
                                                             list(units))
        else:
            metrics, attempted, failed, failures = end_to_end(reqs, spawner, stdins, args.seconds, digests)
    if set(metrics) != set(units):
        raise SystemExit(f"measured {sorted(metrics)}, BENCHMARK.json names {sorted(units)}")
    for line in failures:
        print(f"FAILED {line}")
    for name, value in metrics.items():
        print(f"{name:40s} {value:14.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
