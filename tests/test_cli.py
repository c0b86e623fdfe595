"""CLI contract: exit codes, JSON/CSV shapes, determinism."""

import contextlib
import functools
import gc
import io
import itertools
import json
import os
import random
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kernel_oracles import (
    CharacterData,
    Monomial,
    TorusExponent,
    beta,
    fraction_b_coefficient,
    fraction_cg_table,
    fraction_hecke_diagonal,
    generic_character,
    hecke_diagonal,
    monomial_product,
    normalized_eigenvalues,
    weyl_json,
)
from linvariants import ratio, ratios, weylhecke
from linvariants.cli import main, parse_args
from linvariants.plethysm import (
    BCOEFF_MAX_N,
    PROJECT_ENDO_MAX_N,
    cg_table,
    project_endomorphism_diagonal,
    valid_triple,
)
from linvariants.weylhecke import HECKE_ALL_MAX_DIGITS, WeylElement, hecke_table

rng = random.Random(16)
SRC = str(Path(__file__).resolve().parent.parent / "src")


def stdin_bytes(data: bytes) -> io.TextIOWrapper:
    """A standard input holding `data`, with the byte buffer `--input -` reads."""
    return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out.strip()
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


def test_bcoeff_row(capsys):
    code, payload = run_json(capsys, "bcoeff", "--n", "1", "--k", "1")
    assert code == 0
    assert payload["values"] == ["1", "-1"]


def test_bcoeff_single_value(capsys):
    code, payload = run_json(capsys, "bcoeff", "--n", "3", "--k", "3", "--i", "1")
    assert code == 0
    assert payload["value"] == "-108"


def test_bcoeff_csv(capsys):
    code, out = run(capsys, "--format", "csv", "bcoeff", "--n", "1", "--k", "1")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,k,i,value"
    assert lines[1] == "1,1,0,1"
    assert lines[2] == "1,1,1,-1"


def test_cg_single_value(capsys):
    code, payload = run_json(
        capsys, "cg", "--m", "2", "--n", "2", "--p", "2",
        "--u", "1", "--v", "0", "--w", "0",
    )
    assert code == 0
    assert payload["value"] == "-2"


def test_cg_table_deterministic(capsys):
    args = ("cg", "--m", "2", "--n", "2", "--p", "2", "--table")
    code1, out1 = run(capsys, *args)
    code2, out2 = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    rows = json.loads(out1)["rows"]
    assert rows == sorted(rows), "lexicographic index order"


def cube_scan_rows(m, n, p):
    """The nonzero entries of the whole (m+1)(n+1)(p+1) cube, in index order."""
    table = cg_table(m, n, p)
    rows = []
    for u in range(m + 1):
        for v in range(n + 1):
            for w in range(p + 1):
                value = table.get((u, v, w), 0)
                if value:
                    rows.append((u, v, w, str(value)))
    return rows


def test_cg_table_rows_equal_cube_scan():
    for m in range(11):
        for n in range(11):
            for p in range(abs(m - n), m + n + 1, 2):
                assert valid_triple(m, n, p)
                rows = cube_scan_rows(m, n, p)
                argv = ["cg", f"--m={m}", f"--n={n}", f"--p={p}", "--table"]
                args = parse_args(argv)
                assert json.loads(args.func(args))["rows"] == [list(row) for row in rows], (m, n, p)
                args = parse_args(["--format=csv", *argv])  # the CSV is made only for csv
                assert args.func(args).split("\n")[1:] == [",".join(map(str, row)) for row in rows]


@pytest.mark.parametrize(
    "argv, named",
    [
        pytest.param(["nosuch", "--n", "3"], "'nosuch'", id="unknown-subcommand"),
        pytest.param(["bcoeff", "--n", "3", "--k", "1", "--ab"], "--ab", id="unknown-option"),
        pytest.param(["bcoeff", "--n", "3"], "--k", id="missing-required"),
        pytest.param(["bcoeff", "--n", "x", "--k", "1"], "--n", id="bad-int"),
        pytest.param(["phin", "--case", "nosuch", "--n", "1"], "--case", id="bad-choice"),
        pytest.param(["phin", "--case", "steinberg", "--n"], "--n", id="missing-value"),
        pytest.param(["cg", "--m=1", "--n=1", "--p=0", "--table=yes"], "--table",
                     id="flag-with-value"),
        pytest.param(["bcoeff", "--n", "3", "--k", "1", "--"], "'--'", id="double-dash"),
    ],
)
def test_parse_error_prints_one_json_line(capsys, argv, named):
    # argparse printed its usage to stderr and nothing to stdout
    code, out = run(capsys, *argv)
    assert code == 2
    (line,) = out.splitlines()
    error = json.loads(line)["error"]
    assert error["code"] == "input"
    assert named in error["message"]


def test_cg_invalid_triple_exit_2(capsys):
    code, payload = run_json(capsys, "cg", "--m", "2", "--n", "2", "--p", "3",
                             "--u", "0", "--v", "0", "--w", "0")
    assert code == 2
    assert "error" in payload


@pytest.mark.parametrize("index", ["--u", "--v", "--w"])
def test_cg_table_with_an_index_exit_2(capsys, index):
    # the indices used to be ignored under --table
    code, payload = run_json(capsys, "cg", "--m", "2", "--n", "2", "--p", "2",
                             "--table", index, "0")
    assert code == 2
    assert payload["error"]["code"] == "input"


def test_project_endo(capsys):
    code, payload = run_json(
        capsys, "project-endo", "--n", "1", "--k", "1", "--diag", '["3", "5"]'
    )
    assert code == 0
    assert payload["middle"] == "-2"
    assert all(x == "0" for x in payload["tail"])


def test_phin_benois_and_gr1(capsys):
    code, payload = run_json(
        capsys, "phin", "--case", "steinberg", "--n", "2", "--L", "1",
        "--benois", "--gr1",
    )
    assert code == 0
    assert payload["D"] == [2, 1]
    assert payload["benois"]["D_minus1"] == [2]
    assert payload["benois"]["D_1"] == [2, 1, 0]
    assert payload["gr1"] == {"rank": 1, "eigenvalue": {}}


def test_phin_submodules(capsys):
    code, payload = run_json(
        capsys, "phin", "--case", "steinberg", "--n", "1", "--all-submodules"
    )
    assert code == 0
    assert len(payload["stable_submodules"]) == 4
    assert payload["regular_submodules"] == [[1]]


def test_phin_zero_l_rejected(capsys):
    code, payload = run_json(capsys, "phin", "--case", "steinberg", "--n", "1", "--L", "0")
    assert code == 2
    assert payload["error"]["code"] == "domain"


@pytest.mark.parametrize(
    "case, weight", [("steinberg", "7"), ("crystalline_nonsplit", "2")]
)
def test_phin_weight_outside_split_exit_2(capsys, case, weight):
    # the weight used to be ignored outside crystalline_split
    code, payload = run_json(capsys, "phin", "--case", case, "--n", "1", "--weight", weight)
    assert code == 2
    assert payload["error"]["code"] == "domain"


@pytest.mark.parametrize(
    "argv",
    [
        ["hecke", "--g", "7", "--t", '{"a": [7, 6, 5, 4, 3, 2, 1], "a0": 0}', "--all"],
        ["hecke", "--g", "8", "--t", '{"a": [0, 0, 0, 0, 0, 0, 0, 0], "a0": 1}', "--all"],
        ["phin", "--case", "crystalline_split", "--n", "9", "--all-submodules"],
        ["phin", "--case", "crystalline_nonsplit", "--n", "10", "--all-submodules", "--gr1"],
    ],
)
def test_exponential_listing_past_its_cap_exits_2_at_once(capsys, argv):
    # 2^g g! Weyl elements, 2^(2n+1) stable sets: refused before enumerating
    start = time.perf_counter()
    code, payload = run_json(capsys, *argv)
    assert time.perf_counter() - start < 0.2
    assert code == 2
    assert payload["error"]["code"] == "input"


@pytest.mark.parametrize(
    "argv",
    [
        ("bcoeff", "--n", "601", "--k", "300"),
        ("bcoeff", "--n", "1000000", "--k", "1", "--i", "0"),
        ("cg", "--m", "151", "--n", "151", "--p", "150", "--table"),
        ("--format", "pretty", "hecke", "--g", "7", "--t", json.dumps({"a": [1] * 7, "a0": 0}), "--all"),
        ("cg", "--m", "1", "--n", "1000", "--p", "1000", "--u", "0", "--v", "0", "--w", "0"),
        ("project-endo", "--n", "251", "--k", "1", "--diag", "[1]"),
        ("recover-chi", "--g", "501", "--eigs", json.dumps([{"p": "0"}] * 501),
         "--weights", json.dumps({"mu": [0] * 501, "mu0": 0})),
        # 2n+1 eigenvalues in each case, about n^2 coordinates in the steinberg listing
        ("phin", "--case", "steinberg", "--n", "30001", "--gr1"),
        ("phin", "--case", "crystalline_split", "--n", "200000"),
        ("phin", "--case", "crystalline_nonsplit", "--n", "10000000000", "--benois"),
        ("phin", "--case", "steinberg", "--n", "501", "--all-submodules"),
        ("phin", "--case", "crystalline_split", "--n", "1", "--weight", "1000001"),
    ],
)
def test_table_past_its_size_cap_exits_2_at_once(capsys, argv):
    # refused before any table is built
    start = time.perf_counter()
    code, payload = run_json(capsys, *argv)
    assert time.perf_counter() - start < 0.2
    assert code == 2
    assert payload["error"]["code"] == "input"


LONG = "7" * 5000


@pytest.mark.parametrize(
    "argv",
    [
        ("hecke", "--g", "1", "--t", json.dumps({"a": [LONG], "a0": 0})),
        ("hecke", "--g", "1", "--t", '{"a": [%s], "a0": 0}' % LONG),
        ("project-endo", "--n", "1", "--k", "1", "--diag", json.dumps([LONG + "/3", "1"])),
    ],
    ids=["rational-string", "json-integer", "diag-entry"],
)
def test_integer_past_the_digit_limit_is_refused_by_name(capsys, argv):
    # Python refuses to read an int of over sys.get_int_max_str_digits() digits
    # (parsing one takes quadratic time); the refusal names that bound
    start = time.perf_counter()
    code, out = run(capsys, *argv)
    assert time.perf_counter() - start < 0.2
    assert code == 2
    (line,) = out.splitlines()
    message = json.loads(line)["error"]["message"]
    assert f"Python's limit of {sys.get_int_max_str_digits()} digits" in message
    assert "sys.set_int_max_str_digits" not in message


def test_input_file_integer_past_the_digit_limit_is_refused_by_name(tmp_path, capsys):
    path = tmp_path / "slope.json"
    path.write_text('{"k": [%s], "w": 0, "slopes": [0]}' % LONG)
    code, out = run(capsys, "slope", "--family", "hilbert", "--input", str(path))
    assert code == 2
    (line,) = out.splitlines()
    message = json.loads(line)["error"]["message"]
    assert message == f"--input holds an int past Python's limit of {sys.get_int_max_str_digits()} digits"


def test_input_file_that_is_no_utf8_cannot_be_read(tmp_path, capsys):
    # a decoding error is no int past the digit limit
    path = tmp_path / "slope.json"
    path.write_bytes(b'{"k":[2],"w":0,"slopes":["\xff"]}')
    code, payload = run_json(capsys, "slope", "--family", "hilbert", "--input", str(path))
    assert code == 2
    assert payload["error"]["code"] == "input"
    assert payload["error"]["message"].startswith("cannot read input file: 'utf-8' codec can't decode")


@pytest.mark.parametrize("locale", ["C", "C.UTF-8"])
def test_stdin_that_is_no_utf8_is_refused_as_a_file_is(tmp_path, capsys, locale):
    # stdin used to be decoded with surrogate escapes, so the bad byte reached
    # the rational reader and came back as a domain error naming '\udcff'
    data = b'{"k":[2],"w":0,"slopes":["\xff"]}'
    path = tmp_path / "slope.json"
    path.write_bytes(data)
    argv = ["slope", "--family", "hilbert", "--input"]
    file_code, file_out = run(capsys, *argv, str(path))
    path = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    done = subprocess.run(
        [sys.executable, "-m", "linvariants.cli", *argv, "-"], input=data, capture_output=True,
        env={**os.environ, "PYTHONPATH": path, "LC_ALL": locale},
    )
    assert (done.returncode, done.stderr) == (2, b"")
    assert (file_code, json.loads(file_out)["error"]["code"]) == (2, "input")
    assert done.stdout.decode() == file_out + "\n"


@pytest.mark.parametrize("fmt", ["json", "pretty"])
def test_result_past_the_digit_limit_prints_only_the_error(capsys, monkeypatch, fmt):
    # the twist holds an int of over 4300 digits, after other keys of the payload:
    # nothing of the payload may be written before the refusal
    slope = "9" * 4300
    request = {"weights": [[0, 0], [0, 0]], "mu0": 0, "t": {"a": [0, 0], "a0": -1},
               "slopes": [slope, slope], "find_twist": True}
    monkeypatch.setattr("sys.stdin", stdin_bytes(json.dumps(request).encode()))
    assert main(["--format", fmt, "slope", "--family", "gsp", "--input", "-"]) == 2
    out = capsys.readouterr().out
    (line,) = out.splitlines()
    assert out == line + "\n"
    assert json.loads(line)["error"]["code"] == "output"


@pytest.mark.parametrize(
    "argv",
    [
        ("obstruction", "--exponents", "1," + LONG),
        ("bcoeff", "--n", LONG, "--k", "1"),
        ("hecke", "--g", LONG, "--t", '{"a": [0], "a0": 0}'),
    ],
    ids=["obstruction-exponent", "int-option", "hecke-g"],
)
def test_integer_argument_past_the_digit_limit_is_refused_by_name(capsys, argv):
    # the one integer reader, the package's `_int`, names the limit and echoes a short prefix
    start = time.perf_counter()
    code, out = run(capsys, *argv)
    assert time.perf_counter() - start < 0.2
    assert code == 2
    (line,) = out.splitlines()
    assert len(line.encode()) < 300
    error = json.loads(line)["error"]
    assert error["code"] == "input"
    assert f"holds an int past Python's limit of {sys.get_int_max_str_digits()} digits" in error["message"]


def test_integer_argument_that_is_no_integer_keeps_its_message(capsys):
    code, payload = run_json(capsys, "bcoeff", "--n", "x", "--k", "1")
    assert (code, payload["error"]["message"]) == (2, "--n needs an integer, not 'x'")
    code, payload = run_json(capsys, "obstruction", "--exponents", "1,x")
    assert code == 2 and payload["error"]["code"] == "domain"


def test_result_past_the_digit_limit_is_refused_by_name(tmp_path, capsys):
    # an exact result too long to print is refused with one JSON line naming the limit
    diag = json.dumps(["1" + "0" * 4000] + ["0"] * 250)
    places = [["99999999"]] * 1000  # each place is small, their product is not
    argvs = [
        ("project-endo", "--n", "250", "--k", "125", "--diag", diag),
        ("linv", "--family", "hilbert", "--input", linv_input(tmp_path, ["1"] * 1000, "0", places)),
    ]
    for argv in argvs:
        code, out = run(capsys, *argv)
        assert code == 2
        (line,) = out.splitlines()
        limit = sys.get_int_max_str_digits()
        assert json.loads(line) == {"error": {"code": "output", "message": (
            f"the result holds an int past Python's limit of {limit} digits for printing; refused")}}


@pytest.mark.parametrize("params", [{}, {"g": 1}, {"g": True}])
def test_linv_without_places_exit_2(tmp_path, capsys, params):
    # the place count is checked before the family's rank
    path = linv_input(tmp_path, ["1", "2"], "1", [], params=params)
    code, payload = run_json(capsys, "linv", "--family", "gsp_std", "--input", path)
    assert code == 2
    assert payload == {"error": {"code": "domain", "message": "need at least one place"}}


@pytest.mark.parametrize(
    "family, params, theorem",
    [
        ("unitary", {"n": 101}, None),
        ("unitary", {"n": 101}, "D2"),
        ("gsp_std", {"g": 201}, None),
        ("gsp_std", {"g": 201}, "C"),
    ],
)
def test_linv_rank_past_its_cap_exits_2_at_once(tmp_path, capsys, family, params, theorem):
    path = linv_input(tmp_path, ["1"], "1", [["1"]], params=params)
    argv = ["linv", "--family", family, "--input", path]
    start = time.perf_counter()
    code, payload = run_json(capsys, *argv, *(["--compare-theorem", theorem] if theorem else []))
    assert time.perf_counter() - start < 0.2
    assert code == 2
    assert payload["error"]["code"] == "input"


def test_caps_refuse_only_exponential_listings(capsys):
    # steinberg has 2n+2 stable sets, and one Weyl element is one row
    code, payload = run_json(capsys, "phin", "--case", "steinberg", "--n", "40", "--all-submodules")
    assert code == 0 and len(payload["stable_submodules"]) == 82
    code, payload = run_json(
        capsys, "hecke", "--g", "8", "--t", '{"a": [0, 0, 0, 0, 0, 0, 0, 0], "a0": 1}', "--weyl",
        '{"nu": [8, 7, 6, 5, 4, 3, 2, 1], "eps": [1, -1, 1, -1, 1, -1, 1, -1]}',
    )
    assert code == 0 and payload["weyl"]["nu"] == [8, 7, 6, 5, 4, 3, 2, 1]


def test_hecke_beta0(capsys):
    code, payload = run_json(
        capsys, "hecke", "--g", "2", "--t", '{"a": [0, 0], "a0": -1}'
    )
    assert code == 0
    assert payload["value"] == {"p": "-3/2", "sigma": "-1"}


def test_hecke_all_weyl(capsys):
    code, payload = run_json(
        capsys, "hecke", "--g", "2", "--t", '{"a": [0, 0], "a0": -1}', "--all"
    )
    assert code == 0
    assert len(payload["eigenvalues"]) == 8


def test_hecke_weyl_with_all_exit_2(capsys):
    # --weyl used to go unparsed under --all
    code, payload = run_json(
        capsys, "hecke", "--g", "2", "--t", '{"a": [1, 0], "a0": 0}',
        "--weyl", "garbage", "--all",
    )
    assert code == 2
    assert payload["error"]["code"] == "input"


def compact(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


#: integer tori for g = 1..4 (common denominator 4), a rational one with
#: denominators 3 and 2, and at g = 5 one with a_0 = 0 (sigma drops out), one
#: with an entry past 2^64 and a rational one
HECKE_ALL_TORI = {g: ([g - j for j in range(g)], -1 - g % 2) for g in range(1, 5)}
HECKE_ALL_TORI["rational"] = (["5/3", "2/3", "1/2"], "-1/2")
HECKE_ALL_TORI["g5-a0-zero"] = ([3, 1, 0, -2, -5], 0)
HECKE_ALL_TORI["g5-past-2^64"] = ([str(2**70 + 3), "-7/2", 0, 5, str(-(2**65))], str(2**66 + 1))
HECKE_ALL_TORI["g5-rational"] = (["9/4", "-5/6", "1/3", "0", "7/10"], "-3/5")


def fraction_loop_payload(a, a0) -> dict:
    """The `hecke --all` payload, one `fraction_hecke_diagonal` per Weyl element."""
    g = len(a)
    chi, t = generic_character(g), TorusExponent.make(a, a0)
    rows = []
    for nu in itertools.permutations(range(1, g + 1)):
        for eps in itertools.product((1, -1), repeat=g):
            value = fraction_hecke_diagonal(chi, t, WeylElement(nu, eps))
            rows.append({
                "weyl": {"nu": list(nu), "eps": list(eps)},
                "value": {sym: str(e) for sym, e in sorted(value.exponents)},
            })
    return {"g": g, "eigenvalues": rows}


@pytest.mark.parametrize("torus", HECKE_ALL_TORI)
def test_hecke_all_stdout_equals_the_fraction_loop(capsys, torus):
    a, a0 = HECKE_ALL_TORI[torus]
    argv = ["hecke", "--g", str(len(a)), "--t", json.dumps({"a": a, "a0": a0}), "--all"]
    assert main(argv) == 0
    assert capsys.readouterr().out == compact(fraction_loop_payload(a, a0))


def test_hecke_all_pretty_stdout_equals_the_fraction_loop(capsys):
    a, a0 = HECKE_ALL_TORI["g5-rational"]
    argv = ["--format", "pretty", "hecke", "--g", "5", "--t", json.dumps({"a": a, "a0": a0}), "--all"]
    assert main(argv) == 0
    payload = fraction_loop_payload(a, a0)
    assert capsys.readouterr().out == json.dumps(payload, sort_keys=True, indent=2) + "\n"


def test_hecke_all_pretty_at_the_cap_is_the_compact_listing_indented(capsys):
    # the one cap of `hecke --all` holds in both formats
    argv = ["hecke", "--g", "6", "--t", json.dumps({"a": [1] * 6, "a0": 0}), "--all"]
    assert main(argv) == 0
    compact = capsys.readouterr().out
    assert main(["--format", "pretty", *argv]) == 0
    assert capsys.readouterr().out == json.dumps(json.loads(compact), sort_keys=True, indent=2) + "\n"


#: `main()` as the console script runs it, and an `atexit` handler, which `main` runs before
#: it ends the process, that writes the process's peak RSS (`VmHWM`, in kB) to stderr: the
#: peak `wait4` reports would include the forking test process's own
PEAK_REPORTING_CLI = (
    "import atexit, sys\n"
    "atexit.register(lambda: sys.stderr.write([line for line in open('/proc/self/status')\n"
    "                                          if line.startswith('VmHWM:')][0]))\n"
    "from linvariants.cli import main\n"
    "main()\n"
)


def child_cost(argv) -> tuple[int, bytes, float, float]:
    """(exit code, stdout, CPU seconds, peak RSS in MB) of the request `argv` as a process."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))}
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        child = subprocess.Popen([sys.executable, "-c", PEAK_REPORTING_CLI, *argv], stdout=out,
                                 stderr=err, env=env)
        _, status, usage = os.wait4(child.pid, 0)
        child.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        peak = int(err.read().split()[-2]) / 1024
        return child.returncode, out.read(), usage.ru_utime + usage.ru_stime, peak


#: a g = 6 torus at the `hecke --all` digit budget: a_0 and each a_i of 26 digits, so every
#: row holds g + 2 exponents of 26 to 29 digits, about 17 MB of compact JSON in all
BUDGET_TORUS = {"a": [random.Random(6).randrange(10**25, 10**26) for _ in range(6)], "a0": 10**26 - 1}


@pytest.mark.parametrize("fmt, megabytes", [("json", 100), ("pretty", 130)])
def test_hecke_all_at_its_digit_budget(fmt, megabytes):
    # on a 2-core Xeon VM the listing at the budget took 0.18 s and 68 MB compact, 1.6 to 2.0 s
    # and 107 MB pretty; the torus with one digit more on each entry is refused before the sweep
    argv = ["--format", fmt, "hecke", "--g", "6", "--t", json.dumps(BUDGET_TORUS), "--all"]
    code, out, seconds, peak = child_cost(argv)
    assert code == 0 and len(json.loads(out)["eigenvalues"]) == 2**6 * 720
    assert seconds < 10 and peak < megabytes, (seconds, peak)
    past = {"a": [10 * x for x in BUDGET_TORUS["a"]], "a0": 10 * BUDGET_TORUS["a0"]}
    argv[argv.index("--t") + 1] = json.dumps(past)
    code, out, seconds, peak = child_cost(argv)
    assert (code, json.loads(out)) == (2, {"error": {"code": "input", "message": (
        f"--all would print up to 10368000 digits of exponents; more than {HECKE_ALL_MAX_DIGITS} "
        "is refused")}})
    assert seconds < 1 and peak < 30, (seconds, peak)


def test_pretty_output_is_written_in_runs(capsys, monkeypatch):
    # one write per token would be a system call each on a write-through stdout
    argv = ["phin", "--case", "crystalline_split", "--n", "6", "--all-submodules"]
    assert main(argv) == 0
    compact = capsys.readouterr().out
    writes = []

    class CountingStdout(io.StringIO):
        def write(self, text):
            writes.append(text)
            return super().write(text)

    monkeypatch.setattr(sys, "stdout", CountingStdout())
    assert main(["--format", "pretty", *argv]) == 0
    # 78012 tokens of indented JSON
    assert 1 <= len(writes) <= 5
    assert "".join(writes) == json.dumps(json.loads(compact), sort_keys=True, indent=2) + "\n"


def test_hecke_all_at_g6_equals_the_fraction_loop_on_a_sample(capsys):
    # all 46080 rows in order; the Fraction loop checks every permutation with
    # a random sign vector, and every sign vector of the identity and the reversal
    g = 6
    a, a0 = ["7/2", "-1/3", "5", "0", "-9/4", "2/5"], "-7/6"
    assert main(["hecke", "--g", "6", "--t", json.dumps({"a": a, "a0": a0}), "--all"]) == 0
    rows = json.loads(capsys.readouterr().out)["eigenvalues"]
    signs = list(itertools.product((1, -1), repeat=g))
    elements = [(nu, eps) for nu in itertools.permutations(range(1, g + 1)) for eps in signs]
    assert [(tuple(r["weyl"]["nu"]), tuple(r["weyl"]["eps"])) for r in rows] == elements
    chi, t = generic_character(g), TorusExponent.make(a, a0)
    sample = [k * 64 + rng.randrange(64) for k in range(720)] + [*range(64), *range(719 * 64, 720 * 64)]
    for k in sample:
        value = fraction_hecke_diagonal(chi, t, WeylElement(*elements[k]))
        assert rows[k]["value"] == {sym: str(e) for sym, e in value.exponents}


@pytest.mark.parametrize(
    "entry, message",
    [("true", "not an exact scalar: True"), ("1.5", "not an exact scalar: 1.5"),
     ('"x"', "Invalid literal for Fraction: 'x'"), ("null", "not an exact scalar: None")],
)
def test_a_json_value_that_is_no_rational_is_refused(capsys, entry, message):
    # a JSON int is read as an int and any other value by `exactlin._fraction`, so
    # true, which Python counts as an int, is refused as before
    for argv in (["hecke", "--g", "2", "--t", '{"a": [%s, 0], "a0": 0}' % entry],
                 ["hecke", "--g", "2", "--all", "--t", '{"a": [1, 0], "a0": %s}' % entry],
                 ["project-endo", "--n", "1", "--k", "1", "--diag", "[1, %s]" % entry]):
        code, payload = run_json(capsys, *argv)
        assert (code, payload) == (2, {"error": {"code": "domain", "message": message}}), argv


#: a torus entry as the JSON text of --t takes it: zero, a small or a past-2^64
#: integer, or a rational
TORUS_ENTRIES = st.one_of(
    st.just(0),
    st.integers(-6, 6),
    st.integers(2**64, 2**72).flatmap(lambda x: st.sampled_from([x, -x])),
    st.fractions(-10, 10, max_denominator=12).map(str),
)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4).flatmap(lambda g: st.lists(TORUS_ENTRIES, min_size=g, max_size=g)),
       TORUS_ENTRIES)
@example([3, "-1/2", 0], 0)
@example([2**70, "5/3"], -(2**65) - 1)
def test_hecke_all_json_text_equals_the_fraction_loop(a, a0):
    # the listing is written as text; json.dumps of the Fraction loop's payload is its oracle
    payload = fraction_loop_payload(a, a0)
    argv = ["hecke", "--g", str(len(a)), "--t", json.dumps({"a": a, "a0": a0}), "--all"]
    for fmt, expected in (("json", compact(payload)),
                          ("pretty", json.dumps(payload, sort_keys=True, indent=2) + "\n")):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["--format", fmt, *argv]) == 0
        assert out.getvalue() == expected


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4).flatmap(lambda g: st.lists(TORUS_ENTRIES, min_size=g, max_size=g)),
       TORUS_ENTRIES)
@example([-202303174502], 889714505861)  # p's text holds a sign, 13 digits, a slash and a 2
def test_the_digit_count_of_hecke_all_bounds_its_listing(a, a0):
    # the budget of `hecke --all` is checked on this count, before the sweep
    t = ratios(a), ratio(a0)
    printed = sum(len(text) for row in json.loads(hecke_table(t)) for text in row["value"].values())
    assert printed <= weylhecke._listing_digits(*weylhecke._torus_numerators(t))


@pytest.mark.parametrize("g", (1, 3))
def test_hecke_table_on_the_zero_and_the_sigma_torus(g):
    zero, sigma = (hecke_table(TorusExponent.make([0] * g, a0).pairs) for a0 in (0, 3))
    assert all(entry["value"] == {} for entry in json.loads(zero))
    # at the identity only sigma^3 and the half-modulus power of p, no chi
    assert json.loads(sigma)[0]["value"] == {"p": str(Fraction(3 * g * (g + 1), 4)), "sigma": "3"}
    for text, a0 in ((zero, 0), (sigma, 3)):
        expected = fraction_loop_payload([0] * g, a0)["eigenvalues"]
        assert text == json.dumps(expected, sort_keys=True, separators=(",", ":"))


@pytest.mark.parametrize("m, n, p", [(2, 2, 2), (7, 4, 5), (12, 12, 0), (25, 18, 21), (40, 40, 38)])
def test_cg_table_stdout_equals_the_fraction_recurrence(capsys, m, n, p):
    table = fraction_cg_table(m, n, p)
    rows = [[u, v, w, str(table[u, v, w])] for u, v, w in sorted(table)]
    argv = ["cg", "--m", str(m), "--n", str(n), "--p", str(p), "--table"]
    assert main(argv) == 0
    assert capsys.readouterr().out == compact({"m": m, "n": n, "p": p, "rows": rows})
    assert main(["--format", "csv", *argv]) == 0
    csv = "\n".join(["u,v,w,value", *(",".join(map(str, row)) for row in rows)]) + "\n"
    assert capsys.readouterr().out == csv


@functools.cache
def term_sum_row(n, k):
    return [fraction_b_coefficient(n, k, i) for i in range(n + 1)]


def assert_b_outputs_equal_the_term_sum(capsys, n, k, indices):
    """bcoeff rows in JSON and CSV, bcoeff --i and the project-endo middle."""
    row = term_sum_row(n, k)
    argv = ["bcoeff", "--n", str(n), "--k", str(k)]
    assert main(argv) == 0
    assert capsys.readouterr().out == compact({"values": [str(x) for x in row]})
    assert main(["--format", "csv", *argv]) == 0
    csv = "\n".join(["n,k,i,value", *(f"{n},{k},{i},{x}" for i, x in enumerate(row))]) + "\n"
    assert capsys.readouterr().out == csv
    for i in indices:
        assert main([*argv, "--i", str(i)]) == 0
        assert capsys.readouterr().out == compact({"value": str(row[i])})
    diag = [Fraction(rng.randint(-9, 9), rng.randint(1, 3)) for _ in range(n + 1)]
    middle = sum((b * d for b, d in zip(row, diag)), Fraction(0))
    if n <= PROJECT_ENDO_MAX_N:
        argv = ["project-endo", "--n", str(n), "--k", str(k), "--diag", json.dumps(list(map(str, diag)))]
        assert main(argv) == 0
        assert capsys.readouterr().out == compact({"middle": str(middle), "tail": ["0"] * k})
    else:
        assert project_endomorphism_diagonal(n, k, diag) == (middle, (Fraction(0),) * k)


@pytest.mark.parametrize("n", range(41))
def test_b_outputs_equal_the_term_sum(capsys, n):
    for k in range(n + 1):
        assert_b_outputs_equal_the_term_sum(capsys, n, k, range(n + 1))


@pytest.mark.parametrize("n, k", [(300, 150), (600, 0), (600, 300), (600, 600)])
def test_b_outputs_equal_the_term_sum_at_large_sizes(capsys, n, k):
    # every row entry, and --i at both ends, around the middle and at random
    indices = {0, 1, n // 2 - 1, n // 2, n // 2 + 1, n - 1, n, *rng.sample(range(n + 1), 6)}
    assert_b_outputs_equal_the_term_sum(capsys, n, k, sorted(indices))


def test_bcoeff_at_its_cap(capsys):
    # the middle row in well under the 10 s rule; B_{n,n,i} = (-1)^i (n!)^2 C(n,i), the
    # longest values, stay below the digit limit that stops printing an int
    n = BCOEFF_MAX_N
    start = time.perf_counter()
    code, payload = run_json(capsys, "bcoeff", "--n", str(n), "--k", str(n // 2))
    assert time.perf_counter() - start < 2
    assert code == 0 and len(payload["values"]) == n + 1
    code, payload = run_json(capsys, "bcoeff", "--n", str(n), "--k", str(n))
    assert code == 0
    assert max(len(x.lstrip("-")) for x in payload["values"]) < sys.get_int_max_str_digits()


@pytest.mark.parametrize(
    "argv, message",
    [
        (("hecke", "--g", "2", "--t", '{"a": [1, 0]}'), "--t needs the key 'a0'"),
        (("hecke", "--g", "2", "--t", '{"a0": 0}'), "--t needs the key 'a'"),
        (("hecke", "--g", "2", "--t", "[1, 2]"), "--t must be a JSON object, not [1, 2]"),
        (
            ("hecke", "--g", "2", "--t", '{"a": [1, 0], "a0": 0}', "--weyl", '{"nu": [1, 2]}'),
            "--weyl needs the key 'eps'",
        ),
        (
            ("hecke", "--g", "2", "--t", '{"a": [1, 0], "a0": 0}', "--weyl", "[[1, 2], [1, 1]]"),
            "--weyl must be a JSON object, not [[1, 2], [1, 1]]",
        ),
        (
            ("recover-chi", "--g", "2", "--eigs", '[{"p": "-2"}, {"p": "-3/2"}]',
             "--weights", "{}"),
            "--weights needs the key 'mu'",
        ),
        (
            ("recover-chi", "--g", "2", "--eigs", '[{"p": "-2"}, {"p": "-3/2"}]',
             "--weights", '{"mu": [0, 0]}'),
            "--weights needs the key 'mu0'",
        ),
        (
            ("recover-chi", "--g", "2", "--eigs", '[{"p": "-2"}, {"p": "-3/2"}]',
             "--weights", "[0, 0]"),
            "--weights must be a JSON object, not [0, 0]",
        ),
        (
            ("recover-chi", "--g", "2", "--eigs", '[{"p": "-2"}, {"p": "-3/2"}]',
             "--weights", '{"mu": [0, 0], "mu0": 0}', "--weyl", '{"eps": [1, 1]}'),
            "--weyl needs the key 'nu'",
        ),
    ],
)
def test_ill_shaped_json_argument_names_it(capsys, argv, message):
    # a missing key used to print only the key, a list a TypeError, as "domain"
    code, payload = run_json(capsys, *argv)
    assert code == 2
    assert payload == {"error": {"code": "input", "message": message}}


@pytest.mark.parametrize(
    "weyl",
    [
        '{"nu": [true, 2], "eps": [1, 1]}',
        '{"nu": [1, 2], "eps": [1.0, 1]}',
        '{"nu": [1, 1], "eps": [1, 1]}',
        '{"nu": [1, 2], "eps": [1]}',
        '{"nu": [1, 2], "eps": [1, 2]}',
    ],
)
def test_hecke_non_integer_weyl_exit_2(capsys, weyl):
    # true == 1 and 1.0 == 1 used to pass as indices and signs; the last
    # three are integers but no Weyl element
    code, payload = run_json(
        capsys, "hecke", "--g", "2", "--t", '{"a": [1, 0], "a0": 0}', "--weyl", weyl
    )
    assert code == 2
    assert payload["error"]["code"] == "domain"


@pytest.mark.parametrize("value", ["1e100000000", "-1.5E-100000000", "1e100_001"])
def test_huge_decimal_exponent_exits_2_at_once(capsys, value):
    # Fraction(value) would build 10^|e| before any size check could see it
    start = time.perf_counter()
    code, out = run(capsys, "hecke", "--g", "1", "--t", json.dumps({"a": [value], "a0": 0}))
    assert time.perf_counter() - start < 0.2
    assert code == 2
    (line,) = out.splitlines()
    assert json.loads(line)["error"]["message"].startswith("decimal exponent over")


def test_recover_chi_round_trip(capsys):
    # trivial characters at weight zero: thetas are the pure p-powers p^{c_i}
    code, payload = run_json(
        capsys, "recover-chi", "--g", "2",
        "--eigs", '[{"p": "-2"}, {"p": "-3/2"}]',
        "--weights", '{"mu": [0, 0], "mu0": 0}',
    )
    assert code == 0
    assert payload["chi"] == [{}, {}]
    assert payload["sigma"] == {}


def cpu_seconds(call):
    """(CPU seconds, result) of call(), the cyclic collector off: its passes grow
    with the whole test process's heap, not with the work of the call."""
    gc.disable()
    try:
        start = time.process_time()
        result = call()
        return time.process_time() - start, result
    finally:
        gc.enable()


def cap_characters():
    """(g, character, w, `--eigs`, `--weights`, `--weyl`) of g = 500 random characters
    x_j^a p^{b/2} and a random Weyl element, the JSON arguments as texts."""
    g, rng = 500, random.Random(500)
    chis = tuple(
        Monomial.from_dict({f"x_{j}": rng.randint(-3, 3), "p": Fraction(rng.randint(-5, 5), 2)})
        for j in range(1, g + 1)
    )
    mu0 = Fraction(rng.randint(-6, 6))
    sigma = Monomial.p_power(mu0 / 2) * monomial_product(chis).inverse() ** Fraction(1, 2)
    mu = [rng.randint(-5, 5) for _ in range(g)]
    nu = rng.sample(range(1, g + 1), g)
    w = WeylElement(tuple(nu), tuple(rng.choice((1, -1)) for _ in range(g)))
    character = CharacterData(chis, sigma)
    thetas = normalized_eigenvalues(character, mu, mu0, w)
    eigs = [{sym: str(e) for sym, e in theta.exponents} for theta in thetas]
    return g, character, w, json.dumps(eigs), json.dumps({"mu": mu, "mu0": str(mu0)}), \
        json.dumps(weyl_json(w))


def chi_json(character) -> dict:
    """The `recover-chi` answer that names `character`."""
    return {"chi": [{sym: str(e) for sym, e in chi.exponents} for chi in character.chi],
            "sigma": {sym: str(e) for sym, e in character.sigma.exponents}}


def test_recover_chi_at_the_cap_from_a_file(tmp_path, capsys, monkeypatch):
    # g = 500 random characters x_j^a p^{b/2}: the eigenvalues are 1.8 MB of
    # JSON, so the argument vector is read from a file.  The solve evaluates
    # no closed form, which the count below checks exactly.  The CPU-time
    # bound only catches a gross slowdown.  It is a multiple of the closed-form
    # eigenvalues of the same characters at every tenth torus beta(g, g-i), 50
    # evaluations, timed just before and just after each request, so that it
    # measures the code and not the load on the machine: the request takes 11
    # to 12 times as long
    g, character, w, eigs, weights, weyl = cap_characters()
    path = tmp_path / "argv.json"
    path.write_text(json.dumps(["recover-chi", "--g", str(g), "--eigs", eigs, "--weights", weights,
                                "--weyl", weyl]))
    evaluations = []
    closed_form = weylhecke.hecke_entry
    monkeypatch.setattr(weylhecke, "hecke_entry", lambda *a: evaluations.append(a) or closed_form(*a))

    def forward():
        return [hecke_diagonal(character, beta(g, g - i), w) for i in range(1, g + 1, 10)]

    def yardstick():
        return min(cpu_seconds(forward)[0] for _ in range(2))

    before, ratios = yardstick(), []
    for _ in range(2):
        evaluations.clear()
        seconds, (code, payload) = cpu_seconds(lambda: run_json(capsys, *json.loads(path.read_text())))
        assert code == 0
        assert evaluations == []
        after = yardstick()
        ratios.append(seconds / max(before, after))
        before = after
    assert min(ratios) < 16, ratios
    assert payload == chi_json(character)


def test_recover_chi_at_the_cap_through_the_input_option(tmp_path):
    # a shell cannot pass 1.8 MB of `--eigs` (Linux caps one argument at 128 KiB),
    # so a process reaches the cap by `--input`, and one step past it is refused
    g, character, w, eigs, weights, weyl = cap_characters()
    path = tmp_path / "recover.json"
    path.write_text('{"eigs": %s, "weights": %s, "weyl": %s}' % (eigs, weights, weyl))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))}
    for size, code in ((g, 0), (g + 1, 2)):
        done = subprocess.run([sys.executable, "-m", "linvariants.cli", "recover-chi", "--g", str(size),
                               "--input", str(path)], env=env, capture_output=True, text=True)
        assert (done.returncode, done.stderr) == (code, "")
        payload = json.loads(done.stdout)
        assert payload == (chi_json(character) if code == 0 else
                           {"error": {"code": "input", "message": "recover-chi --g > 500 is refused"}})


def test_recover_chi_input_from_stdin_equals_the_arguments(capsys, monkeypatch):
    argv = ["recover-chi", "--g", "2", "--eigs", '[{"p": "-2"}, {"p": "-3/2", "x": 1}]',
            "--weights", '{"mu": [1, 0], "mu0": 1}', "--weyl", '{"nu": [2, 1], "eps": [1, -1]}']
    assert main(argv) == 0
    by_arguments = capsys.readouterr().out
    document = '{"eigs": %s, "weights": %s, "weyl": %s}' % tuple(argv[4::2])
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(document.encode())))
    assert main(["recover-chi", "--g", "2", "--input", "-"]) == 0
    assert capsys.readouterr().out == by_arguments


@pytest.mark.parametrize(
    "argv, stdin, message",
    [
        (["--g", "2"], "", "recover-chi needs --eigs"),
        (["--g", "2", "--eigs", "[]"], "", "recover-chi needs --weights"),
        (["--g", "2", "--input", "-", "--eigs", "[]"], "{}",
         "--input and --eigs, --weights or --weyl exclude each other"),
        (["--g", "2", "--input", "-", "--weyl", "{}"], "{}",
         "--input and --eigs, --weights or --weyl exclude each other"),
        (["--g", "2", "--input", "-"], '{"eigs": []}', "--input needs the key 'weights'"),
        (["--g", "2", "--input", "-"], '{"eigs": [], "weights": {"mu": []}}',
         "weights needs the key 'mu0'"),
        (["--g", "2", "--input", "-"], '{"eigs": [], "weights": {"mu": [], "mu0": 0}, "weyl": []}',
         "weyl must be a JSON object, not []"),
        (["--g", "2", "--input", "-"], "[]", "--input must be a JSON object, not []"),
    ],
)
def test_recover_chi_input_refusals(capsys, monkeypatch, argv, stdin, message):
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(stdin.encode())))
    code, payload = run_json(capsys, "recover-chi", *argv)
    assert (code, payload) == (2, {"error": {"code": "input", "message": message}})


def test_slope_hilbert(tmp_path, capsys):
    path = tmp_path / "slope.json"
    path.write_text(json.dumps({"k": [12], "w": -10, "slopes": ["3"]}))
    code, payload = run_json(capsys, "slope", "--family", "hilbert", "--input", str(path))
    assert code == 0
    assert payload == {"noncritical": True}


@pytest.mark.parametrize("w", [True, False, 2.0, "2"])
def test_slope_hilbert_non_integer_w_exit_2(tmp_path, capsys, w):
    # a JSON true used to be read as the weight 1
    path = tmp_path / "slope.json"
    path.write_text(json.dumps({"k": [3], "w": w, "slopes": ["0"]}))
    code, payload = run_json(capsys, "slope", "--family", "hilbert", "--input", str(path))
    assert code == 2
    assert "error" in payload


def test_slope_gsp_with_twist(tmp_path, capsys):
    path = tmp_path / "slope.json"
    path.write_text(
        json.dumps(
            {
                "weights": [[5, 3]],
                "mu0": 0,
                "t": {"a": [0, 0], "a0": -1},
                "slopes": [0],
                "find_twist": True,
            }
        )
    )
    code, payload = run_json(capsys, "slope", "--family", "gsp", "--input", str(path))
    assert code == 0
    assert payload["noncritical"] is False
    assert isinstance(payload["twist"], int)


def test_obstruction(capsys):
    code, payload = run_json(
        capsys, "obstruction", "--exponents", "3,2,1,0", "--check-N", "60"
    )
    assert code == 0
    assert payload["orders"] == [1, 2, 3, 4]
    assert payload["check_N"] == {"N": 60, "sufficient": True}


@pytest.mark.parametrize("exponents", ["", ",,,", " , "])
def test_obstruction_without_exponents_exit_2(capsys, exponents):
    # an empty eigenvalue list used to print {"orders":[]} and exit 0
    code, payload = run_json(capsys, "obstruction", f"--exponents={exponents}")
    assert code == 2
    assert payload["error"]["message"] == "--exponents needs at least one exponent"


def test_obstruction_single_and_negative_exponents(capsys):
    assert run_json(capsys, "obstruction", "--exponents", "7") == (0, {"orders": []})
    # "-5,-3,-1" is no negative number and holds no space, so as a separate
    # token it reads as an option: such a value needs "="
    code, payload = run_json(capsys, "obstruction", "--exponents=-5,-3,-1")
    assert code == 0
    assert payload["orders"] == [1, 2, 4]


@pytest.mark.parametrize(
    "exponents, message",
    [
        (",".join(map(str, [*range(144), 258])), "subset sums"),
        (",".join(str(2**j) for j in range(40)), "subset sums"),
        (f"{25_000_001**2},0", "trial divisions"),
        (f"{10**1000},0", "trial divisions"),
    ],
)
def test_obstruction_past_its_budget_exits_2_at_once(capsys, exponents, message):
    # refused on bounds read off the sorted exponents, before any subset sum
    start = time.perf_counter()
    code, payload = run_json(capsys, "obstruction", f"--exponents={exponents}")
    assert time.perf_counter() - start < 0.2
    assert code == 2
    assert message in payload["error"]["message"]


@pytest.mark.parametrize("check_n", ["0", "-60"])
def test_obstruction_check_n_below_one_exit_2(capsys, check_n):
    # every order divides 0 and -60, so both used to read as sufficient
    code, payload = run_json(
        capsys, "obstruction", "--exponents", "3,2,1,0", "--check-N", check_n
    )
    assert code == 2
    assert "at least 1" in payload["error"]["message"]


def linv_input(tmp_path, direction_u, direction_u0, gradients_list, params=None):
    payload = {
        "params": params or {},
        "direction": {"u": direction_u, "u0": direction_u0},
        "places": [
            {"gradients": {f"a_{j + 1}": g for j, g in enumerate(grads)}}
            for grads in gradients_list
        ],
    }
    path = tmp_path / "linv.json"
    path.write_text(json.dumps(payload))
    return str(path)


def test_linv_hilbert_thm_a(tmp_path, capsys):
    path = linv_input(tmp_path, ["1"], "-1", [["1"]])
    code, payload = run_json(capsys, "linv", "--family", "hilbert", "--input", path)
    assert code == 0
    assert payload["value"] == "-2"


def test_linv_compare_theorem(tmp_path, capsys):
    path = linv_input(tmp_path, ["3", "1"], "0", [["2", "7/2"]])
    code, payload = run_json(
        capsys, "linv", "--family", "gsp4_spin", "--input", path,
        "--compare-theorem", "B",
    )
    assert code == 0
    assert payload["classification"] == {"kind": "sign_flip", "scalar": "-1"}


def test_linv_compare_family_mismatch(tmp_path, capsys):
    path = linv_input(tmp_path, ["1"], "-1", [["1"]])
    code, payload = run_json(
        capsys, "linv", "--family", "hilbert", "--input", path,
        "--compare-theorem", "B",
    )
    assert code == 2
    assert payload["error"]["code"] == "input"


def test_linv_unitary_d2_row(tmp_path, capsys):
    path = linv_input(
        tmp_path, ["1", "2", "3", "4"], "0",
        [["1", "0", "0", "0"]], params={"n": 1},
    )
    code, payload = run_json(
        capsys, "linv", "--family", "unitary", "--input", path,
        "--compare-theorem", "D2",
    )
    assert code == 0
    assert payload["classification"]["kind"] == "sign_flip"


@pytest.mark.parametrize(
    "family, theorem, params, length",
    [
        # a JSON true is not the rank 1
        ("unitary", "D1", {"n": True}, 4),
        # gsp_std reads its rank from g, with or without a theorem
        ("gsp_std", "C", {"n": 2}, 2),
    ],
)
@pytest.mark.parametrize("compare", [False, True])
def test_linv_rank_is_read_one_way_exit_2(tmp_path, capsys, family, theorem, params, length,
                                          compare):
    path = linv_input(tmp_path, ["1"] * length, "1", [["1"] * length], params=params)
    argv = ["linv", "--family", family, "--input", path]
    code, payload = run_json(capsys, *argv, *(["--compare-theorem", theorem] if compare else []))
    assert code == 2
    assert payload["error"]["code"] == "domain"


def test_linv_singular_direction_exit_3(tmp_path, capsys):
    path = linv_input(tmp_path, ["2", "1"], "5", [["1", "1"]])
    code, payload = run_json(capsys, "linv", "--family", "gsp4_spin", "--input", path)
    assert code == 3
    assert payload == {"error": {"code": "singular_direction", "place": 0,
                                 "message": "denominator vanishes at place 0"}}


def test_malformed_json_exit_2(capsys):
    code, payload = run_json(capsys, "project-endo", "--n", "1", "--k", "1",
                             "--diag", "[1, 2")
    assert code == 2
    assert payload["error"]["code"] == "input"


def test_linv_bool_gradient_exit_2(tmp_path, capsys):
    path = linv_input(tmp_path, ["1"], "-1", [[True]])
    code, payload = run_json(capsys, "linv", "--family", "hilbert", "--input", path)
    assert code == 2
    assert payload["error"]["code"] == "domain"


def test_phin_zero_denominator_names_the_input(capsys):
    code, payload = run_json(capsys, "phin", "--case", "steinberg", "--n", "2", "--L", "1/0")
    assert code == 2
    assert "1/0" in payload["error"]["message"]


def test_empty_torus_exponent_exit_2(capsys):
    code, payload = run_json(capsys, "hecke", "--g", "0", "--t", '{"a": [], "a0": 0}')
    assert code == 2
    assert payload["error"]["code"] == "domain"


def test_slope_gsp_empty_torus_exponent_exit_2(tmp_path, capsys):
    path = tmp_path / "slope.json"
    path.write_text(
        json.dumps({"weights": [[]], "mu0": 0, "t": {"a": [], "a0": 0}, "slopes": [0]})
    )
    code, payload = run_json(capsys, "slope", "--family", "gsp", "--input", str(path))
    assert code == 2
    assert payload["error"]["code"] == "domain"


def test_recover_chi_wrong_weight_length_exit_2(capsys):
    code, payload = run_json(
        capsys, "recover-chi", "--g", "2",
        "--eigs", '[{"p": "-2"}, {"p": "-3/2"}]',
        "--weights", '{"mu": [1], "mu0": 0}',
    )
    assert code == 2
    assert payload["error"]["message"] == "weight length must equal g"


@pytest.mark.parametrize("nu, eps", [([1], [1]), ([1, 2, 3], [1, 1, 1])])
@pytest.mark.parametrize(
    "argv",
    [
        ("recover-chi", "--g", "2", "--eigs", '[{"p": 1}, {"p": 1}]',
         "--weights", '{"mu": [0, 0], "mu0": 0}'),
        ("hecke", "--g", "2", "--t", '{"a": [1, 0], "a0": 0}'),
    ],
)
def test_weyl_of_another_rank_exit_2(capsys, argv, nu, eps):
    # recover-chi used to end a larger rank in an IndexError traceback, and a
    # smaller one in a message about the weight
    code, payload = run_json(capsys, *argv, "--weyl", json.dumps({"nu": nu, "eps": eps}))
    assert code == 2
    assert payload["error"] == {"code": "domain", "message": "ranks differ"}


def test_outputs_reparse_and_are_stable(tmp_path, capsys):
    singular = linv_input(tmp_path, ["2", "1"], "5", [["1", "1"]])
    for expected, args in (
        (0, ("bcoeff", "--n", "4", "--k", "2")),
        (0, ("hecke", "--g", "2", "--t", '{"a": [1, 0], "a0": -2}', "--all")),
        (0, ("obstruction", "--exponents", "2,1,0")),
        (2, ("project-endo", "--n", "1", "--k", "1", "--diag", "[1, 2")),
        (3, ("linv", "--family", "gsp4_spin", "--input", singular)),
        (2, ("bcoeff", "--n", "-1", "--k", "0")),
    ):
        code1, out1 = run(capsys, *args)
        code2, out2 = run(capsys, *args)
        assert code1 == code2 == expected
        assert out1 == out2
        # success and error lines share one compact, key-sorted encoding
        assert out1 == json.dumps(json.loads(out1), sort_keys=True, separators=(",", ":"))


def write_json(tmp_path, obj):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.mark.parametrize(
    "argv",
    [
        ("hecke", "--g", "2", "--t", '{"a": "10", "a0": 0}'),
        (
            "recover-chi", "--g", "2",
            "--eigs", '[{"p": "-2"}, {"p": "-3/2"}]',
            "--weights", '{"mu": "10", "mu0": 0}',
        ),
    ],
)
def test_string_as_vector_argument_exit_2(capsys, argv):
    # a JSON string used to be read as a list of its characters
    code, payload = run_json(capsys, *argv)
    assert code == 2
    assert payload["error"]["code"] == "domain"


@pytest.mark.parametrize(
    "family, obj",
    [
        (
            "gsp",
            {"weights": [[5, 3]], "mu0": 0, "t": {"a": [0, 0], "a0": -1}, "slopes": "3"},
        ),
        (
            "gsp",
            {"weights": [[5, 3]], "mu0": 0, "t": {"a": "10", "a0": -1}, "slopes": [0]},
        ),
        ("hilbert", {"k": [2], "w": 0, "slopes": "1"}),
    ],
)
def test_slope_string_as_vector_exit_2(tmp_path, capsys, family, obj):
    path = write_json(tmp_path, obj)
    code, payload = run_json(capsys, "slope", "--family", family, "--input", path)
    assert code == 2
    assert payload["error"]["code"] == "domain"


GSP_SLOPE = {"weights": [[5, 3]], "mu0": 0, "t": {"a": [0, 0], "a0": -1}, "slopes": [0]}


@pytest.mark.parametrize(
    "family, obj, message",
    [
        # any truthy value used to run the twist search and exit 0
        ("gsp", {**GSP_SLOPE, "find_twist": "no"}, "find_twist must be true or false, not 'no'"),
        ("gsp", {**GSP_SLOPE, "find_twist": 1}, "find_twist must be true or false, not 1"),
        # min() of no bounds used to speak for the code
        ("gsp", {**GSP_SLOPE, "weights": [], "slopes": []}, "at least one place is required"),
        # the TypeError of comparing or adding a non-integer weight used to leak
        ("hilbert", {"k": ["4"], "w": 0, "slopes": [0]}, "k must hold integers, not '4'"),
        ("hilbert", {"k": [2.0], "w": 0, "slopes": [0]}, "k must hold integers, not 2.0"),
        ("hilbert", {"k": [True], "w": 1, "slopes": [0]}, "k must hold integers, not True"),
        # a missing key used to print only its quoted name
        ("hilbert", {"k": [4], "slopes": [0]}, "--input needs the key 'w'"),
        ("gsp", {"mu0": 0, "t": GSP_SLOPE["t"], "slopes": [0]}, "--input needs the key 'weights'"),
        ("gsp", {**GSP_SLOPE, "t": {"a": [0, 0]}}, "t needs the key 'a0'"),
        # indexing a list by "a" used to print Python's own complaint
        ("gsp", {**GSP_SLOPE, "t": [1]}, "t must be a JSON object, not [1]"),
        # len() or iteration of a non-array used to print Python's own complaint
        ("hilbert", {"k": 4, "w": 0, "slopes": [0]}, "k must be a JSON array, not 4"),
        ("hilbert", {"k": [4], "w": 0, "slopes": 0}, "slopes must be a JSON array, not 0"),
        ("gsp", {**GSP_SLOPE, "weights": [5]}, "each entry of weights must be a JSON array, not 5"),
        ("gsp", {**GSP_SLOPE, "weights": {"mu": [5, 3]}},
         "weights must be a JSON array, not {'mu': [5, 3]}"),
        ("gsp", {**GSP_SLOPE, "slopes": "0"}, "slopes must be a JSON array, not '0'"),
        ("gsp", {**GSP_SLOPE, "t": {"a": 0, "a0": -1}}, "t.a must be a JSON array, not 0"),
    ],
    ids=["find-twist-string", "find-twist-int", "no-places", "k-string", "k-float", "k-bool",
         "missing-w", "missing-weights", "missing-a0", "t-list", "k-int", "hilbert-slopes-int",
         "weights-entry-int", "weights-object", "gsp-slopes-string", "t-a-int"],
)
def test_slope_input_refusals_name_the_field(tmp_path, capsys, family, obj, message):
    path = write_json(tmp_path, obj)
    code, out = run(capsys, "slope", "--family", family, "--input", path)
    assert code == 2
    (line,) = out.splitlines()
    assert json.loads(line)["error"]["message"] == message


LINV_INPUT = {"direction": {"u": [1, 2]}, "places": [{"gradients": {"a_1": "1", "a_2": "2"}}]}


@pytest.mark.parametrize(
    "obj, message",
    [
        # a missing key used to print only its quoted name, as a domain error
        ({}, "--input needs the key 'places'"),
        ({"places": LINV_INPUT["places"]}, "--input needs the key 'direction'"),
        ({**LINV_INPUT, "direction": {"u0": 1}}, "direction needs the key 'u'"),
        ({**LINV_INPUT, "places": [{}]}, "each place needs the key 'gradients'"),
        ({**LINV_INPUT, "places": [{"gradients": {"a_1": "1"}}]}, "gradients needs the key 'a_2'"),
        # indexing a list by a key used to print Python's own complaint
        ({**LINV_INPUT, "direction": [1, 2]}, "direction must be a JSON object, not [1, 2]"),
        ({**LINV_INPUT, "places": [["1", "2"]]}, "each place must be a JSON object, not ['1', '2']"),
    ],
    ids=["missing-places", "missing-direction", "missing-u", "missing-gradients", "missing-a_j",
         "direction-list", "place-list"],
)
def test_linv_input_refusals_name_the_key(tmp_path, capsys, obj, message):
    path = write_json(tmp_path, obj)
    code, payload = run_json(capsys, "linv", "--family", "gsp4_spin", "--input", path)
    assert (code, payload) == (2, {"error": {"code": "input", "message": message}})


RECOVER_CHI_ARGS = ["recover-chi", "--g", "2", "--eigs", '[{"p": 1}, {"p": 1}]', "--weights"]


@pytest.mark.parametrize(
    "argv, stdin, message",
    [
        (["hecke", "--g", "2", "--t", '{"a": 5, "a0": 0}'], "", "t.a must be a JSON array, not 5"),
        (["hecke", "--g", "2", "--t", '{"a": null, "a0": 0}', "--all"], "",
         "t.a must be a JSON array, not None"),
        (["linv", "--family", "gsp4_spin", "--input", "-"], json.dumps({**LINV_INPUT, "places": 5}),
         "places must be a JSON array, not 5"),
        (["linv", "--family", "hilbert", "--input", "-"],
         json.dumps({**LINV_INPUT, "direction": {"u": 5}}), "direction.u must be a JSON array, not 5"),
        ([*RECOVER_CHI_ARGS, '{"mu": 5, "mu0": 0}'], "", "weights.mu must be a JSON array, not 5"),
        (["recover-chi", "--g", "2", "--eigs", "true", "--weights", '{"mu": [0, 0], "mu0": 0}'], "",
         "eigs must be a JSON array, not True"),
        (["recover-chi", "--g", "2", "--input", "-"], '{"eigs": 5, "weights": {"mu": [0, 0], "mu0": 0}}',
         "eigs must be a JSON array, not 5"),
    ],
    ids=["hecke-a", "hecke-all-a", "linv-places", "linv-u", "recover-chi-mu", "recover-chi-eigs",
         "recover-chi-input-eigs"],
)
def test_a_vector_that_is_no_array_is_refused_by_name(capsys, monkeypatch, argv, stdin, message):
    # Python's own complaint used to leak: "'int' object is not iterable" or, for linv's
    # places, "object of type 'int' has no len()"
    monkeypatch.setattr(sys, "stdin", stdin_bytes(stdin.encode()))
    assert run_json(capsys, *argv) == (2, {"error": {"code": "domain", "message": message}})


def test_slope_find_twist_false_is_no_search(tmp_path, capsys):
    path = write_json(tmp_path, {**GSP_SLOPE, "find_twist": False})
    assert run_json(capsys, "slope", "--family", "gsp", "--input", path) == (0, {"noncritical": False})


def test_linv_string_direction_exit_2(tmp_path, capsys):
    path = linv_input(tmp_path, "12", "1", [["1", "2"]])
    code, payload = run_json(capsys, "linv", "--family", "gsp4_spin", "--input", path)
    assert code == 2
    assert payload["error"]["code"] == "domain"


@pytest.mark.parametrize(
    "argv, field, shown",
    [
        (("hecke", "--g", "1", "--t", '{"a": {"5": "x"}, "a0": 0}'), "t.a", "{'5': 'x'}"),
        (
            (
                "recover-chi", "--g", "2",
                "--eigs", '[{"p": "-2"}, {"p": "-3/2"}]',
                "--weights", '{"mu": {"1": 0, "0": 1}, "mu0": 1}',
            ),
            "weights.mu",
            "{'1': 0, '0': 1}",
        ),
    ],
    ids=["hecke-t", "recover-chi-weights"],
)
def test_object_as_vector_argument_exit_2(capsys, argv, field, shown):
    # a JSON object used to be read as the list of its keys, and the request exited 0;
    # it is refused by its field's name, as any other value that is no JSON array
    code, payload = run_json(capsys, *argv)
    assert code == 2
    assert payload["error"] == {"code": "domain",
                                "message": f"{field} must be a JSON array, not {shown}"}


def test_linv_object_direction_exit_2(tmp_path, capsys):
    # "u": {"3": 1} used to be read as u = (3)
    path = linv_input(tmp_path, {"3": 1}, "1", [["1", "2"]])
    code, payload = run_json(capsys, "linv", "--family", "hilbert", "--input", path)
    assert code == 2
    assert payload["error"] == {"code": "domain",
                                "message": "direction.u must be a JSON array, not {'3': 1}"}


def test_recover_chi_non_object_monomial_exit_2(capsys):
    code, payload = run_json(
        capsys, "recover-chi", "--g", "2",
        "--eigs", '["x", "y"]', "--weights", '{"mu": [0, 0], "mu0": 0}',
    )
    assert code == 2
    assert payload["error"]["code"] == "input"


def test_linv_non_object_input_exit_2(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", stdin_bytes(b"[]"))
    code, payload = run_json(capsys, "linv", "--family", "hilbert", "--input", "-")
    assert code == 2
    assert payload["error"]["code"] == "input"


def test_deeply_nested_json_exit_2(capsys):
    # the JSON decoder runs out of recursion depth on this input
    deep = "[" * 100000 + "]" * 100000
    code, payload = run_json(capsys, "project-endo", "--n", "1", "--k", "1", "--diag", deep)
    assert code == 2
    assert payload["error"]["code"] == "input"
