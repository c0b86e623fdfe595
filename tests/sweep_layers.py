"""Sweep each layer's entry point over its ladder of sizes and append the record
to BENCH_layers.json.

    PYTHONPATH=src python tests/sweep_layers.py --note "shared 2-core VM"

`LADDERS` names each ladder with its sizes and the call it times:

* `sl2rep._brute_force_data`: `_brute_force_data.__wrapped__(n, 0)`, the
  brute-force oracle's weight-0 block, (n+1) x (n+1) and augmented by the
  identity; bits is the bit length of the largest entry of the integer
  rows `_bareiss_echelon` returns;
* `phin._cmd_phin ...`: the `phin` handler on the parsed options of one
  request, steinberg `--benois --gr1` up to the `--n` cap and each
  crystalline case's `--all-submodules` listing up to its cap; bits is the
  bit length of the largest integer the answer holds;
* `plethysm.cg_table`: `cg_table.__wrapped__(n, n, n)`, the whole table
  behind `cg --table` at m = n = p up to the cap; bits is the bit length
  of its largest entry;
* `plethysm._cmd_cg one entry at 150`: the `cg` handler on the top entry
  of column u of m = n = p = 150, the size n being u, so that the
  recurrence builds the columns 0..u and stops; bits is the bit length of
  the entry;
* `cli._answer ...`: one whole request in-process, parsed, answered and
  printed as compact JSON to a null stream, so that a handler that builds
  its own text and one that leaves the text to `_emit` are timed over the
  same work: `phin crystalline_split --all-submodules` up to its cap, and
  `cg --table` at m = n = p up to the cap, and `hecke --all` of an integer
  torus at g = 2..6 (the cap is 6; the shape test wants 5 sizes) in compact
  and in pretty output, the `cg_table` and `weyl_group` caches cleared
  before each call; bits is the bit length of the largest integer printed;
* `weylhecke.recover_characters`: the solve on the exponent maps of the g
  eigenvalues of random characters `x_j^a p^{b/2}` at a random Weyl
  element, as the `recover-chi` cap row of the README draws them, up to the
  `--g` cap of 500; bits is the bit length of the largest numerator or
  denominator of an exponent it returns;
* `linv.per_place_pairs ...`: the per-place pairs of `gsp_std` at random
  a/b gradients and direction, |a| and b at most 999, read as the pairs
  (numerator, denominator) that `linvariants.ratio` returns, by places at the
  rank cap g = 200 and by g at 300 places; bits is the bit length of the
  largest numerator or denominator of a pair;
* `cli._answer linv ...`: one whole `linv --input -` request in-process,
  its JSON text on stdin, as `cli._answer ...` above: `gsp_std` at g = 200
  by places, with random a/b entries of 3 digits, and `hilbert` by places
  up to 100, with gradients of 4000 digits and a direction of 3; past a
  few places the product passes the digit limit and the request is
  refused, so bits is the bit length of the largest numerator or
  denominator of the input.

Each row is [n, seconds, MB, bits]: seconds is the median of REPS timed
calls, MB the tracemalloc peak of one more call.  `slope` is the
least-squares slope of log seconds against log n, over the sizes n > 0.
The record names the commit of the checkout `linvariants` was imported
from; the sweep refuses to run when that checkout's `src/` differs from
its commit.
"""

from __future__ import annotations

import argparse
import contextlib
import datetime
import io
import json
import math
import os
import platform
import random
import re
import statistics
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

from kernel_oracles import CharacterData, Monomial, monomial_product, normalized_eigenvalues
from linvariants import cli, linv, phin, plethysm, sl2rep, weylhecke

REPS = 7


def commit_of(checkout: Path) -> str:
    def git(*argv: str) -> str:
        return subprocess.run(["git", "-C", str(checkout), *argv], capture_output=True,
                              text=True, check=True).stdout.strip()

    if git("status", "--porcelain", "--", "src"):
        raise SystemExit(f"{checkout}/src differs from its commit; commit it before sweeping")
    return git("rev-parse", "--short", "HEAD")


def block_solve(n: int):
    """(the weight-0 block solve at n, the bits of one more solve)."""
    solve = sl2rep._brute_force_data.__wrapped__

    def bits() -> int:
        largest, echelon = [0], sl2rep._bareiss_echelon

        def measured(rows):
            rows, pivots = echelon(rows)
            largest[0] = max([largest[0]] + [abs(x).bit_length() for row in rows for x in row])
            return rows, pivots

        sl2rep._bareiss_echelon = measured
        try:
            solve(n, 0)
        finally:
            sl2rep._bareiss_echelon = echelon
        return largest[0]

    return lambda: solve(n, 0), bits


def _largest_int_bits(value) -> int:
    """The bit length of the largest integer in a JSON value, integer strings included."""
    if isinstance(value, (list, tuple)):
        return max(map(_largest_int_bits, value), default=0)
    if isinstance(value, dict):
        return max(map(_largest_int_bits, value.values()), default=0)
    if isinstance(value, str):
        return abs(int(value)).bit_length() if re.fullmatch(r"-?\d+", value) else 0
    if isinstance(value, int) and not isinstance(value, bool):
        return abs(value).bit_length()
    return 0


def phin_request(case: str, **flags):
    """n -> (the `phin` handler on the request's options, the bits of its answer)."""
    def ladder(n: int):
        options = {"all_submodules": False, "benois": False, "gr1": False, **flags}
        args = SimpleNamespace(case=case, n=n, L=None, weight=None, **options)

        def call():
            return phin._cmd_phin(args)

        return call, lambda: _answer_bits(call())

    return ladder


def _answer_bits(text: str) -> int:
    """The bits of a handler's answer, its compact JSON text."""
    return _largest_int_bits(json.loads(text))


def whole_request(argv_of):
    """n -> (`cli._answer` on argv_of(n), printing to a null stream, the bits of
    what it prints); the `cg_table` and `weyl_group` caches are cleared first."""
    def ladder(n: int):
        filled = argv_of(n)

        def call():
            plethysm.cg_table.cache_clear()
            weylhecke.weyl_group.cache_clear()
            with open(os.devnull, "w") as null, contextlib.redirect_stdout(null):
                assert cli._answer(filled) == 0

        def bits() -> int:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                cli._answer(filled)
            return _largest_int_bits(json.loads(out.getvalue()))

        return call, bits

    return ladder


def hecke_all(g: int) -> list[str]:
    """`hecke --all` at rank g, of the integer torus (g, g-1, ..., 1; p^-1)."""
    return ["hecke", f"--g={g}", "--t", json.dumps({"a": list(range(g, 0, -1)), "a0": -1}), "--all"]


def whole_cg_table(n: int):
    """(the uncached table of m = n = p, the bits of its largest entry)."""
    def call():
        return plethysm.cg_table.__wrapped__(n, n, n)

    return call, lambda: max(abs(x).bit_length() for x in call().values())


def one_cg_entry(u: int):
    """(the `cg` handler on the top entry of column u at 150, the bits of the entry)."""
    m = n = p = plethysm.CG_MAX_INDEX
    s0 = (m + n - p) // 2
    w = min(p, n + u - s0)
    args = SimpleNamespace(m=m, n=n, p=p, table=False, u=u, v=s0 + w - u, w=w)

    def call():
        return plethysm._cmd_cg(args)

    return call, lambda: _answer_bits(call())


def recover_request(g: int):
    """(`recover_characters` on the exponent maps of the eigenvalues of g random
    characters, the bits of its answer)."""
    rng = random.Random(g)
    chis = tuple(Monomial.from_dict({f"x_{j}": rng.randint(-3, 3), "p": Fraction(rng.randint(-5, 5), 2)})
                 for j in range(1, g + 1))
    mu0 = Fraction(rng.randint(-6, 6))
    sigma = Monomial.p_power(mu0 / 2) * monomial_product(chis).inverse() ** Fraction(1, 2)
    mu = [rng.randint(-5, 5) for _ in range(g)]
    w = weylhecke.WeylElement(tuple(rng.sample(range(1, g + 1), g)),
                              tuple(rng.choice((1, -1)) for _ in range(g)))
    thetas = [dict(theta.exponents)
              for theta in normalized_eigenvalues(CharacterData(chis, sigma), mu, mu0, w)]

    def call():
        return weylhecke.recover_characters(g, thetas, mu, mu0, w)

    def bits() -> int:
        chi, sigma = call()
        return max(max(abs(e.numerator).bit_length(), e.denominator.bit_length())
                   for value in (*chi, sigma) for e in value.values())

    return call, bits


def place_pairs(g: int, places: int):
    """(`per_place_pairs` of `gsp_std` at rank g over `places` places, the bits of its pairs)."""
    rng = random.Random(1000 * g + places)

    def ratio() -> tuple[int, int]:
        value = Fraction(rng.randint(-999, 999), rng.randint(1, 999))
        return value.numerator, value.denominator

    data = linv.family_data("gsp_std", g=g)
    direction = linv.Direction(tuple(ratio() for _ in range(g)), ratio())
    assignments = [[ratio() for _ in range(g)] for _ in range(places)]

    def call():
        return linv.per_place_pairs(data, direction, assignments)

    def bits() -> int:
        return max(max(abs(x[0]).bit_length(), x[1].bit_length()) for pair in call() for x in pair)

    return call, bits


def linv_request(family: str, digits: int):
    """places -> (`cli._answer` on a `linv` request of `family` over that many places, its
    gradients random a/b of `digits` digits and its direction of 3, the bits of its
    largest input entry); `gsp_std` is at its rank cap g = 200."""
    def ladder(places: int):
        rng = random.Random(places)

        def entry(size: int) -> str:
            top = 10**size - 1
            return f"{rng.randint(-top, top)}/{rng.randint(1, top)}"

        symbols, dims = (1, places) if family == "hilbert" else (200, 200)
        text = json.dumps({
            "params": {} if family == "hilbert" else {"g": 200},
            "direction": {"u": [entry(3) for _ in range(dims)], "u0": entry(3)},
            "places": [{"gradients": {f"a_{j}": entry(digits) for j in range(1, symbols + 1)}}
                       for _ in range(places)],
        }).encode()
        argv = ["linv", f"--family={family}", "--input=-"]

        def answer(out) -> int:
            sys.stdin = io.TextIOWrapper(io.BytesIO(text))
            try:
                with contextlib.redirect_stdout(out):
                    return cli._answer(argv)
            finally:
                sys.stdin = sys.__stdin__

        def call():
            with open(os.devnull, "w") as null:
                assert answer(null) in (0, 2)

        def bits() -> int:
            out = io.StringIO()
            if answer(out):  # only the digit limit of the printed product may refuse it
                assert json.loads(out.getvalue())["error"]["code"] == "output", out.getvalue()
            return max(abs(int(x)).bit_length() for x in re.findall(rb"-?\d+", text))

        return call, bits

    return ladder


#: name -> (sizes, n -> (the call to time, a function giving its bits))
LADDERS = {
    "sl2rep._brute_force_data": (range(6, 17), block_solve),
    "phin._cmd_phin steinberg --benois --gr1":
        ((1000, 2000, 4000, 8000, 16000, 30000), phin_request("steinberg", benois=True, gr1=True)),
    "phin._cmd_phin crystalline_split --all-submodules":
        (range(4, 9), phin_request("crystalline_split", all_submodules=True)),
    "phin._cmd_phin crystalline_nonsplit --all-submodules":
        (range(4, 9), phin_request("crystalline_nonsplit", all_submodules=True)),
    "plethysm.cg_table": ((20, 40, 60, 80, 100, 120, 150), whole_cg_table),
    "plethysm._cmd_cg one entry at 150": ((0, 10, 25, 50, 75, 100, 125, 150), one_cg_entry),
    "weylhecke.recover_characters": ((50, 100, 200, 300, 500), recover_request),
    "cli._answer phin crystalline_split --all-submodules":
        (range(4, 9), whole_request(lambda n: ["phin", "--case=crystalline_split", f"--n={n}",
                                               "--all-submodules"])),
    "cli._answer cg --table":
        ((20, 40, 60, 80, 100, 120, 150),
         whole_request(lambda n: ["cg", f"--m={n}", f"--n={n}", f"--p={n}", "--table"])),
    "cli._answer hecke --all": (range(2, 7), whole_request(hecke_all)),
    "cli._answer --format pretty hecke --all":
        (range(2, 7), whole_request(lambda g: ["--format", "pretty", *hecke_all(g)])),
    "linv.per_place_pairs gsp_std g = 200, by places":
        ((25, 50, 100, 200, 300), lambda places: place_pairs(200, places)),
    "linv.per_place_pairs gsp_std 300 places, by g":
        ((2, 25, 50, 100, 200), lambda g: place_pairs(g, 300)),
    "cli._answer linv gsp_std g = 200, 3-digit entries, by places":
        ((25, 50, 100, 200, 300), linv_request("gsp_std", 3)),
    "cli._answer linv hilbert, 4000-digit gradients, by places":
        ((10, 25, 50, 75, 100), linv_request("hilbert", 4000)),
}


def point(n: int, ladder) -> list:
    call, bits = ladder(n)
    times = []
    for _ in range(REPS):
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    tracemalloc.start()
    try:
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return [n, round(statistics.median(times), 6), round(peak / 2**20, 3), bits()]


def log_log_slope(rows: list) -> float:
    """The least-squares slope of log seconds against log n; size 0 has no log."""
    xs = [math.log(row[0]) for row in rows if row[0] > 0]
    ys = [math.log(row[1]) for row in rows if row[0] > 0]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="sweep_layers")
    parser.add_argument("--out", default="BENCH_layers.json")
    parser.add_argument("--note", default="", help="the machine, as a reader should know it")
    parser.add_argument("--only", default="", help="sweep only the ladders this regex finds")
    args = parser.parse_args(argv)
    commit = commit_of(Path(sl2rep.__file__).resolve().parents[2])
    layers = {}
    for name, (sizes, ladder) in LADDERS.items():
        if not re.search(args.only, name):
            continue
        rows = [point(n, ladder) for n in sizes]
        layers[name] = {"columns": ["n", "seconds", "MB", "bits"], "rows": rows,
                        "slope": round(log_log_slope(rows), 3)}
    record = {
        "commit": commit,
        "date": datetime.date.today().isoformat(),
        "machine": f"{args.note}; {platform.machine()}, {os.cpu_count()} CPUs, "
                   f"{platform.system()} {platform.release()}".lstrip("; "),
        "python": platform.python_version(),
        "reps": REPS,
        "layers": layers,
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
