"""The shape of BENCH_layers.json, the per-layer sweep records.

`tests/sweep_layers.py` appends one record per run; each perf change records
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
                assert isinstance(size, int) and size >= 0
                assert isinstance(bits, int) and bits > 0
                assert seconds > 0 and mb >= 0
            xs = [math.log(row[0]) for row in rows if row[0] > 0]  # size 0 has no log
            ys = [math.log(row[1]) for row in rows if row[0] > 0]
            mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
            slope = sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)
            assert abs(layer["slope"] - slope) < 1e-3


def ladder_sizes(name: str) -> list[list[int]]:
    """The sizes of every record's ladder `name`; some record must hold it."""
    ladders = [r["layers"][name] for r in records() if name in r["layers"]]
    assert ladders, name
    return [[row[0] for row in ladder["rows"]] for ladder in ladders]


def test_the_sl2rep_ladder_runs_from_6_to_16():
    for sizes in ladder_sizes("sl2rep._brute_force_data"):
        assert sizes == list(range(6, 17))


def test_the_phin_ladders_run_up_to_their_caps():
    # the steinberg --n cap is 30000, the crystalline --all-submodules cap 8
    for sizes in ladder_sizes("phin._cmd_phin steinberg --benois --gr1"):
        assert sizes == [1000, 2000, 4000, 8000, 16000, 30000]
    for case in ("crystalline_split", "crystalline_nonsplit"):
        for sizes in ladder_sizes(f"phin._cmd_phin {case} --all-submodules"):
            assert sizes == list(range(4, 9))


def test_the_cg_ladders_run_up_to_the_cap():
    # the `cg` index cap is 150: the whole table at m = n = p, and one entry
    # at 150 for columns u from 0 to the cap
    for sizes in ladder_sizes("plethysm.cg_table"):
        assert sizes == [20, 40, 60, 80, 100, 120, 150]
    for sizes in ladder_sizes("plethysm._cmd_cg one entry at 150"):
        assert sizes == [0, 10, 25, 50, 75, 100, 125, 150]


def test_the_recover_characters_ladder_runs_up_to_the_cap():
    # the `recover-chi --g` cap is 500
    for sizes in ladder_sizes("weylhecke.recover_characters"):
        assert sizes == [50, 100, 200, 300, 500]


def test_the_whole_request_ladders_run_up_to_their_caps():
    # `cli._answer` times the handler with its compact printing, the same work
    # on a commit whose handler writes the text and on one whose `_emit` does
    for sizes in ladder_sizes("cli._answer phin crystalline_split --all-submodules"):
        assert sizes == list(range(4, 9))
    for sizes in ladder_sizes("cli._answer cg --table"):
        assert sizes == [20, 40, 60, 80, 100, 120, 150]
    # the `hecke --all` cap is 6
    for name in ("cli._answer hecke --all", "cli._answer --format pretty hecke --all"):
        for sizes in ladder_sizes(name):
            assert sizes == list(range(2, 7))


def test_the_per_place_pairs_ladders_run_up_to_the_caps():
    # `gsp_std` by places at the rank cap g = 200, and by g up to that cap at 300 places
    for sizes in ladder_sizes("linv.per_place_pairs gsp_std g = 200, by places"):
        assert sizes == [25, 50, 100, 200, 300]
    for sizes in ladder_sizes("linv.per_place_pairs gsp_std 300 places, by g"):
        assert sizes == [2, 25, 50, 100, 200]


def test_the_linv_request_ladders_run_up_to_the_caps():
    # whole `linv` requests: `gsp_std` at the rank cap g = 200 by places, and `hilbert`
    # by places with 4000-digit gradients, the long-entry shape, up to 100 places
    for sizes in ladder_sizes("cli._answer linv gsp_std g = 200, 3-digit entries, by places"):
        assert sizes == [25, 50, 100, 200, 300]
    for sizes in ladder_sizes("cli._answer linv hilbert, 4000-digit gradients, by places"):
        assert sizes == [10, 25, 50, 75, 100]
