"""Tests of the benchmark itself (not collected by the tier-1 suite).

    python3 -m pytest -q perfbench/tests
"""

import contextlib
import io
import json
import math
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def comparable(reqs):
    return [(r.rid, r.argv, r.program, r.stdin, r.files, r.expect_code, r.size) for r in reqs]


@pytest.mark.parametrize("workload", sorted(workloads.GENERATORS))
def test_generator_is_deterministic_per_seed(workload):
    first = workloads.generate(workload, 7)
    assert comparable(first) == comparable(workloads.generate(workload, 7))
    other = workloads.generate(workload, 8)
    assert comparable(first) != comparable(other)
    # the seed picks values, never the shape of the pass
    assert [(r.argv[0], r.size, r.expect_code) for r in first] == [
        (r.argv[0], r.size, r.expect_code) for r in other
    ]


def span(sid, parent, name, start, end, info=None):
    return (0, sid, parent, name, start, end, info)


def test_self_time_subtracts_covered_child_intervals():
    spans = [
        span(1, 0, "cli.main", 0, 100),
        span(2, 1, "phin.stable_submodules", 10, 30),
        span(3, 1, "phin.regular_submodules", 40, 70, 1),
        span(4, 3, "exactlin.Subspace.intersect", 45, 50),
        span(5, 3, "exactlin.Subspace.intersect", 50, 60),
        # a child reaching past its parent only covers the parent's part
        span(6, 2, "exactlin._rref", 25, 35, [12, 3]),
    ]
    assert tracing.self_times(spans) == {1: 50, 2: 15, 3: 15, 4: 5, 5: 10, 6: 10}
    metrics = tracing.request_metrics({"spans": spans, "caches": {}, "hidden": {}, "counts": {}}, "n3")
    assert metrics["cli.self_s"] == pytest.approx(50e-9)
    assert metrics["phin.self_s"] == pytest.approx(30e-9)
    assert metrics["exactlin.self_s"] == pytest.approx(25e-9)
    assert metrics["phin.self_s.n3"] == metrics["phin.self_s"]
    assert (metrics["phin.regular_found"], metrics["phin.regular_tested"]) == (1, 2)
    assert metrics["exactlin.intersect_calls"] == 2
    assert metrics["exactlin.max_bits"] == 3
    # an _rref outside Matrix.rref / Subspace.from_vectors adds no cells
    assert metrics["exactlin.rref_cells"] == 0


def test_counted_calls_move_from_the_enclosing_span_to_phin():
    spans = [
        span(1, 0, "cli.main", 0, 100),
        span(2, 1, "weylhecke.hecke_diagonal", 10, 60),
    ]
    doc = {
        "spans": spans,
        "caches": {},
        "hidden": {"phin.EigenMonomial": {"2": 30, "1": 5}, "plethysm.CGTable": {"1": 10}},
        "counts": {"phin.EigenMonomial.__mul__": 7, "phin.EigenMonomial.from_dict": 9,
                   "phin.EigenMonomial.is_one": 4, "plethysm.CGTable.coefficient": 3},
    }
    metrics = tracing.request_metrics(doc, None)
    assert metrics["weylhecke.self_s"] == pytest.approx(20e-9)
    assert metrics["cli.self_s"] == pytest.approx(35e-9)
    assert metrics["phin.self_s"] == metrics["phin.monomial_s"] == pytest.approx(35e-9)
    assert metrics["plethysm.self_s"] == pytest.approx(10e-9)
    assert metrics["phin.monomial_ops"] == 16


def test_tracer_counts_without_spans():
    tracer = tracing.Tracer(0)
    square = tracer.count("phin.EigenMonomial.__pow__", lambda x: x * x)
    outer = tracer.wrap("weylhecke.f", lambda x: square(x) + square(x + 1))
    assert outer(2) == 13
    assert tracer.counts == {"phin.EigenMonomial.__pow__": [2]}
    assert [s[3] for s in tracer.spans] == ["weylhecke.f"]
    assert set(tracer.hidden["phin.EigenMonomial"]) == {tracer.spans[0][1]}


@pytest.mark.parametrize("samples", [11, 20, 34, 36, 45, 100, 1000])
def test_tail_percent_keeps_ten_samples_beyond(samples):
    q = run.tail_percent(samples)
    assert samples - math.ceil(q * samples / 100) >= 10
    assert q == 99 or samples - math.ceil((q + 1) * samples / 100) < 10


def test_tail_percent_needs_eleven_samples():
    with pytest.raises(ValueError):
        run.tail_percent(10)


def test_percentile_is_nearest_rank():
    values = list(range(1, 37))
    q = run.tail_percent(len(values))
    assert run.percentile(values, q) == 26
    assert sum(v > run.percentile(values, q) for v in values) == 10


def cli_stdout(req):
    from linvariants.cli import main

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(list(req.argv))
    return code, buf.getvalue().encode()


def test_corrupted_stdout_counts_as_failed():
    req = next(r for r in workloads.generate("quick", 3) if r.argv[:2] == ("bcoeff", "--n"))
    code, out = cli_stdout(req)
    assert workloads.verify(req, code, out, None) is None
    payload = json.loads(out)
    value = payload["value"]
    payload["value"] = value[:-1] + ("1" if value[-1] != "1" else "2")
    corrupted = (json.dumps(payload) + "\n").encode()
    assert "check failed" in workloads.verify(req, code, corrupted, None)
    assert workloads.verify(req, code, out + out, None) == "stdout is not exactly one line"
    assert workloads.verify(req, 2, out, None).startswith("exit code 2")
    assert workloads.verify(req, code, out, "0" * 64) == "stdout differs from the recorded digest"


def test_digests_cover_every_default_seed_success():
    digests = json.loads((BENCH / "digests.json").read_text())
    for workload in workloads.GENERATORS:
        reqs = workloads.generate(workload, workloads.DEFAULT_SEED)
        assert set(digests[workload]) == {r.rid for r in reqs if r.expect_code == 0}


def test_run_stops_at_the_nearest_pass_boundary():
    assert not run.enough(20, 1, 2, 30)  # too few passes
    assert not run.enough(20, 2, 2, 30)  # a third pass ends nearer to 30 s
    assert run.enough(26, 2, 2, 30)
    assert run.enough(45, 1, 1, 30)  # a long pass still ends the run


class FakeSpawner:
    """Requests take 0.2 s; the yardstick takes 0.1, 0.3, 0.1, 0.3, ... s."""

    def __init__(self):
        self.yards = 0

    def command(self, req):
        return [req.rid]

    def run(self, cmd, stdin=None):
        return 0, b"{}\n", 0.2, 1024

    def probe(self):
        return 0.05

    def yardstick(self):
        self.yards += 1
        return 0.1 if self.yards % 2 else 0.3

    def stderr_tail(self):
        return ""


def test_each_request_is_scaled_by_the_yardstick_runs_around_it():
    reqs = [workloads.Request(("x",), rid="w/0"), workloads.Request(("y",), rid="w/1")]
    samples, outputs, _, probes = run.run_plain(reqs, FakeSpawner(), {}, 0)
    assert len(samples) == run.MIN_PASSES * len(reqs) and len(outputs) == len(reqs)
    # the mean of the yardstick runs before and after each request is 0.2 s
    factor = run.YARDSTICK_REF_S / 0.2
    assert [scaled for _, _, scaled, _ in samples] == pytest.approx([0.2 * factor] * len(samples))
    assert probes == pytest.approx([0.05 * factor] * len(probes)) and probes
