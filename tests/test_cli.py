"""CLI contract: exit codes, JSON/CSV shapes, determinism."""

import functools
import io
import itertools
import json
import random
import sys
import time
from fractions import Fraction

import pytest

from kernel_oracles import fraction_b_coefficient, fraction_cg_table, fraction_hecke_diagonal
from linvariants.cli import main, parse_args
from linvariants.cg import valid_triple
from linvariants.plethysm import (
    BCOEFF_MAX_N,
    PROJECT_ENDO_MAX_N,
    cg_table,
    project_endomorphism_diagonal,
)
from linvariants.weylhecke import CharacterData, TorusExponent, WeylElement

rng = random.Random(16)


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
                value = Fraction(*table.get((u, v, w), (0, 1)))
                if value:
                    rows.append((u, v, w, str(value)))
    return rows


def test_cg_table_rows_equal_cube_scan():
    for m in range(11):
        for n in range(11):
            for p in range(abs(m - n), m + n + 1, 2):
                assert valid_triple(m, n, p)
                args = parse_args(["cg", f"--m={m}", f"--n={n}", f"--p={p}", "--table"])
                payload, _, rows = args.func(args)
                assert rows == payload["rows"] == cube_scan_rows(m, n, p), (m, n, p)


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
    # the one integer reader of cliargs names the limit and echoes a short prefix
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


#: integer tori for g = 1..4 (common denominator 4), and a rational one with
#: denominators 3 and 2, so that the exponents are numerators over 12^2
HECKE_ALL_TORI = {g: ([g - j for j in range(g)], -1 - g % 2) for g in range(1, 5)}
HECKE_ALL_TORI["rational"] = (["5/3", "2/3", "1/2"], "-1/2")


@pytest.mark.parametrize("torus", HECKE_ALL_TORI)
def test_hecke_all_stdout_equals_the_fraction_loop(capsys, torus):
    a, a0 = HECKE_ALL_TORI[torus]
    g = len(a)
    chi, t = CharacterData.generic(g), TorusExponent.make(a, a0)
    rows = []
    for nu in itertools.permutations(range(1, g + 1)):
        for eps in itertools.product((1, -1), repeat=g):
            value = fraction_hecke_diagonal(chi, t, WeylElement(nu, eps))
            rows.append({
                "weyl": {"nu": list(nu), "eps": list(eps)},
                "value": {sym: str(e) for sym, e in sorted(value.exponents)},
            })
    argv = ["hecke", "--g", str(g), "--t", json.dumps({"a": a, "a0": a0}), "--all"]
    assert main(argv) == 0
    assert capsys.readouterr().out == compact({"g": g, "eigenvalues": rows})


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
    ],
    ids=["find-twist-string", "find-twist-int", "no-places", "k-string", "k-float", "k-bool",
         "missing-w", "missing-weights", "missing-a0", "t-list"],
)
def test_slope_input_refusals_name_the_field(tmp_path, capsys, family, obj, message):
    path = write_json(tmp_path, obj)
    code, out = run(capsys, "slope", "--family", family, "--input", path)
    assert code == 2
    (line,) = out.splitlines()
    assert json.loads(line)["error"]["message"] == message


def test_slope_find_twist_false_is_no_search(tmp_path, capsys):
    path = write_json(tmp_path, {**GSP_SLOPE, "find_twist": False})
    assert run_json(capsys, "slope", "--family", "gsp", "--input", path) == (0, {"noncritical": False})


def test_linv_string_direction_exit_2(tmp_path, capsys):
    path = linv_input(tmp_path, "12", "1", [["1", "2"]])
    code, payload = run_json(capsys, "linv", "--family", "gsp4_spin", "--input", path)
    assert code == 2
    assert payload["error"]["code"] == "domain"


def test_recover_chi_non_object_monomial_exit_2(capsys):
    code, payload = run_json(
        capsys, "recover-chi", "--g", "2",
        "--eigs", '["x", "y"]', "--weights", '{"mu": [0, 0], "mu0": 0}',
    )
    assert code == 2
    assert payload["error"]["code"] == "input"


def test_linv_non_object_input_exit_2(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("[]"))
    code, payload = run_json(capsys, "linv", "--family", "hilbert", "--input", "-")
    assert code == 2
    assert payload["error"]["code"] == "input"


def test_deeply_nested_json_exit_2(capsys):
    # the JSON decoder runs out of recursion depth on this input
    deep = "[" * 100000 + "]" * 100000
    code, payload = run_json(capsys, "project-endo", "--n", "1", "--k", "1", "--diag", deep)
    assert code == 2
    assert payload["error"]["code"] == "input"
