"""The handlers that write their own JSON write what `json.dumps` would.

`phin`, `cg`, `bcoeff` and `obstruction` return their answer as compact
JSON text, so that an integer request never imports `json`.  Over a grid
of requests, each text must equal, byte for byte, the compact key-sorted
`json.dumps` of the value that the subcommand's oracle in
`tests/test_cli_fuzz.py` computes by a path of its own: the (phi, N)-module
search for `phin`, the unrolled sums for `cg`, the term-by-term sums for
`bcoeff` and the enumeration of every subset for `obstruction`.
"""

import json
from functools import lru_cache
from itertools import product

import pytest

import phin_oracle
from linvariants import CASES
from linvariants.cli import parse_args
from test_cli_fuzz import ORACLES

STEINBERG, CRYSTALLINE_SPLIT, CRYSTALLINE_NONSPLIT = CASES
FLAGS = [[flag for flag, on in zip(("--all-submodules", "--benois", "--gr1"), bits) if on]
         for bits in product((False, True), repeat=3)]


def compact(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def assert_text_is_the_oracles(argv):
    args = parse_args(argv)
    text = args.func(args)
    assert text == compact(ORACLES[argv[0]](args)), argv
    return text


@pytest.mark.parametrize("n", [*range(1, 9), 500, 30000])
def test_phin_text(monkeypatch, n):
    # the search builds one module per (case, n, L, weight) and lists its stable
    # and regular sets once, whatever the flags
    for name in ("build_case", "stable_submodules", "regular_submodules"):
        monkeypatch.setattr(phin_oracle, name, lru_cache(maxsize=None)(getattr(phin_oracle, name)))
    shapes = [[STEINBERG], [STEINBERG, "--L=-6/4"], [STEINBERG, "--L=0.5"],
              [CRYSTALLINE_SPLIT], [CRYSTALLINE_NONSPLIT]]
    if n < 8:  # one more listing at the cap would cost the search a second
        shapes.append([CRYSTALLINE_SPLIT, "--weight=7"])
    for (case, *options), flags in product(shapes, FLAGS):
        cap = 500 if case == STEINBERG else 8
        if "--all-submodules" not in flags or n <= cap:
            assert_text_is_the_oracles(["phin", f"--case={case}", f"--n={n}", *options, *flags])


@pytest.mark.parametrize("m", range(13))
def test_cg_text(m):
    # every table with m, n <= 12, each of its entries and one entry off the stratum
    for n in range(13):
        for p in range(abs(m - n), m + n + 1, 2):
            table = json.loads(assert_text_is_the_oracles(
                ["cg", f"--m={m}", f"--n={n}", f"--p={p}", "--table"]))
            entries = [row[:3] for row in table["rows"]]
            if m + n:  # u + v - w = m + n, not (m + n - p)/2
                entries.append([m, n, 0])
            for u, v, w in entries:
                assert_text_is_the_oracles(
                    ["cg", f"--m={m}", f"--n={n}", f"--p={p}", f"--u={u}", f"--v={v}", f"--w={w}"])


@pytest.mark.parametrize("m, n, p", [(150, 150, 150), (150, 150, 0), (150, 0, 150),
                                     (1, 150, 149), (150, 149, 1), (150, 150, 2)])
def test_cg_text_at_the_corners_of_the_cap(m, n, p):
    # the first and last two columns u, each at both ends of its w range; the
    # tables whose stratum is one line or two are compared whole
    s0 = (m + n - p) // 2
    for u in sorted({0, 1, m - 1, m}):
        for w in {max(0, u - s0), min(p, n + u - s0)}:
            assert_text_is_the_oracles(
                ["cg", f"--m={m}", f"--n={n}", f"--p={p}", f"--u={u}", f"--v={s0 + w - u}",
                 f"--w={w}"])
    if min(m, n) <= 1:
        assert_text_is_the_oracles(["cg", f"--m={m}", f"--n={n}", f"--p={p}", "--table"])


def bcoeff_texts(n, k):
    """The row's text and each of its entries', beside the oracle's."""
    values = json.loads(assert_text_is_the_oracles(["bcoeff", f"--n={n}", f"--k={k}"]))["values"]
    for i, value in enumerate(values):
        args = parse_args(["bcoeff", f"--n={n}", f"--k={k}", f"--i={i}"])
        # the oracle's entry is the term sum the row's oracle made for it
        assert args.func(args) == compact({"value": value}), (n, k, i)


@pytest.mark.parametrize("n", range(41))
def test_bcoeff_text(n):
    for k in range(n + 1):
        bcoeff_texts(n, k)


@pytest.mark.parametrize("k", [0, 1, 599, 600])
def test_bcoeff_text_at_the_cap(k):
    # the rows whose entries sum one term or two: the oracle's sums of 600-digit
    # terms are the slow part
    bcoeff_texts(600, k)


def test_obstruction_text():
    answers = set()
    for exponents in ("3,2,1,0", "7,-3,2,0,11", "5", "0,12", "-4,1,9"):
        for n in (None, 1, 2, 6, 7, 12, 5040):
            check = [f"--check-N={n}"] if n else []
            text = assert_text_is_the_oracles(["obstruction", f"--exponents={exponents}", *check])
            if n:
                answers.add(json.loads(text)["check_N"]["sufficient"])
    assert answers == {False, True}  # both answers of --check-N are compared
