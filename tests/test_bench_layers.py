"""The shape of BENCH_layers.json, the per-layer sweep records.

`tests/sweep_sl2rep.py` appends one record per run; each perf change records
its parent next to itself, so the list is the trajectory.
"""

import json
import math
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RECORD_KEYS = {"commit", "date", "machine", "python", "reps", "layers"}


def records() -> list:
    bench = json.loads((ROOT / "BENCH_layers.json").read_text())
    assert set(bench) == {"records"}
    return bench["records"]


def test_every_record_names_its_commit_date_machine_and_python():
    assert records()
    for record in records():
        assert set(record) == RECORD_KEYS
        assert re.fullmatch(r"[0-9a-f]{7,40}", record["commit"])
        assert re.fullmatch(r"\d{4}-\d\d-\d\d", record["date"])
        assert record["machine"].strip()
        assert re.fullmatch(r"3\.\d+\.\d+", record["python"])
        assert isinstance(record["reps"], int) and record["reps"] >= 5


def test_every_layer_has_a_size_ladder_and_its_log_log_slope():
    for record in records():
        assert record["layers"]
        for layer in record["layers"].values():
            assert set(layer) == {"columns", "rows", "slope"}
            assert layer["columns"] == ["n", "seconds", "MB", "bits"]
            rows = layer["rows"]
            sizes = [row[0] for row in rows]
            assert len(rows) >= 5 and sizes == sorted(set(sizes))
            for size, seconds, mb, bits in rows:
                assert isinstance(size, int) and isinstance(bits, int) and bits > 0
                assert seconds > 0 and mb >= 0
            xs = [math.log(row[0]) for row in rows]
            ys = [math.log(row[1]) for row in rows]
            mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
            slope = sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)
            assert abs(layer["slope"] - slope) < 1e-3


def test_the_sl2rep_ladder_runs_from_6_to_16():
    ladders = [r["layers"]["sl2rep._brute_force_data"] for r in records()
               if "sl2rep._brute_force_data" in r["layers"]]
    assert ladders
    for ladder in ladders:
        assert [row[0] for row in ladder["rows"]] == list(range(6, 17))
