"""Seeded request generators and output checks for the benchmark workloads.

A workload is one *pass*: a fixed list of requests that the runner repeats
until the run's time is up.  The seed picks the values inside the requests
(rationals, diagonals, weights, exponents) and jitters sizes a little.
The kinds of the requests in a pass, and the sizes of those that do more
than a few milliseconds of work, are otherwise fixed by the workload, so
every seed asks for about the same amount of work and runs made with
different seeds can be compared.

Every request carries the exit code it must end with and a check of its
JSON output.  The checks are invariants computed here from the paper's
closed forms, independently of the code under test.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, factorial
from typing import Callable

DEFAULT_SEED = 0


class CheckFailed(Exception):
    """A request's output does not satisfy its invariant."""


def expect(condition, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass
class Request:
    argv: tuple[str, ...]
    #: "cli" runs `python -m linvariants.cli`, "oracle" runs perfbench/oracle.py
    program: str = "cli"
    stdin: bytes = b""
    #: input files (name -> content) in the working directory the request runs in
    files: dict = field(default_factory=dict)
    expect_code: int = 0
    #: size class for the traced size sweep, e.g. "n6" or "g5"
    size: str | None = None
    check: Callable[[dict], None] = field(default=None, compare=False, repr=False)
    #: "<workload>/<index>", set by `generate`
    rid: str = ""


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _rat(rng: random.Random, bits: int) -> Fraction:
    """Nonzero rational whose numerator and denominator have about `bits` bits."""
    num = rng.getrandbits(bits) | 1
    den = rng.getrandbits(bits) | 1
    return Fraction(rng.choice((1, -1)) * num, den)


def _jdump(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _mono(exps: dict) -> dict:
    """A monomial as the CLI prints it: sorted symbols, zero exponents dropped."""
    return {s: str(Fraction(e)) for s, e in sorted(exps.items()) if e}


def _mono_mul(*monos: dict) -> dict:
    out: dict = {}
    for m in monos:
        for s, e in m.items():
            out[s] = out.get(s, 0) + Fraction(e)
    return {s: e for s, e in out.items() if e}


def _mono_pow(m: dict, e) -> dict:
    return {s: x * Fraction(e) for s, x in m.items() if x * Fraction(e)}


# --- closed forms the checks compare against --------------------------------


def b_value(n: int, k: int, i: int) -> int:
    """B_{n,k,i} = sum_{a+b=k} (-1)^a C(n,i) C(i,a) C(n-i,b) (n-i+a)! (i+b)!."""
    return sum(
        (-1) ** a * comb(n, i) * comb(i, a) * comb(n - i, k - a)
        * factorial(n - i + a) * factorial(i + k - a)
        for a in range(max(0, k - (n - i)), min(i, k) + 1)
    )


def b_special(n: int, k: int, i: int) -> Fraction:
    """The special values of B_{n,k,i} for k in {n, n-1, n-2} (see README)."""
    sign = (-1) ** i
    if k == n:
        return Fraction(sign * factorial(n) ** 2 * comb(n, i))
    if k == n - 1:
        return Fraction(sign * factorial(n) * factorial(n - 1) * comb(n, i) * (n - 2 * i))
    poly = n**3 - (4 * i + 1) * n**2 + (4 * i**2 + 2 * i) * n - 2 * i**2
    return Fraction(sign * comb(n, i) * factorial(n - 2) * factorial(n - 1) * poly, 2)


def hecke_value(chi: list, sigma: dict, a: list, a0, nu: list, eps: list) -> dict:
    """chi * delta^(1/2) at the Weyl-conjugated torus element (README convention)."""
    g = len(a)
    a = [Fraction(x) for x in a]
    a0 = Fraction(a0)
    flipped = [a[i] if eps[i] == 1 else a0 - a[i] for i in range(g)]
    s = [flipped[nu[j] - 1] for j in range(g)]
    p_exp = Fraction(g * (g + 1), 4) * a0 - sum((g - j) * s[j] for j in range(g))
    return _mono_mul({"p": p_exp}, _mono_pow(sigma, a0), *(_mono_pow(chi[j], s[j]) for j in range(g)))


def _beta(g: int, j: int) -> tuple[list, int]:
    return ([0] * g, -1) if j == 0 else ([0] * (g - j) + [-1] * j, -2)


def _weight_exponent(mu: list, mu0, a: list, a0) -> Fraction:
    return sum(Fraction(m) * x for m, x in zip(mu, a)) + (Fraction(mu0) - sum(mu)) * Fraction(a0) / 2


def _gsp_noncritical(weights: list, mu0, a: list, a0, slopes: list) -> bool:
    g = len(a)
    lhs = sum(_weight_exponent(mu, mu0, a, a0) + Fraction(s) for mu, s in zip(weights, slopes))
    bounds = []
    for mu in weights:
        bounds += [(mu[i] - mu[i + 1] + 1) * (a[i] - a[i + 1]) for i in range(g - 1)]
        bounds.append(2 * (2 * mu[g - 1] + 1) * a[g - 1])
    return lhs < min(bounds)


def _random_weyl(rng: random.Random, g: int) -> tuple[list, list]:
    nu = list(range(1, g + 1))
    rng.shuffle(nu)
    return nu, [rng.choice((1, -1)) for _ in range(g)]


def _dominant_torus(rng: random.Random, g: int) -> tuple[list, int]:
    """a_1 >= ... >= a_g >= a_0/2 with a_0 < 0, so twisting can always help."""
    a = sorted((rng.randint(0, 4) for _ in range(g)), reverse=True)
    return a, rng.choice((-1, -2))


# --- modules ------------------------------------------------------------------


def _phin(case: str, n: int, full: bool, l_value: Fraction = Fraction(1), weight: int = 2) -> Request:
    argv = ["phin", "--case", case, "--n", str(n)]
    if case == "steinberg":
        argv.append(f"--L={l_value}")  # "=" keeps a negative value from reading as an option
    elif case == "crystalline_split":
        argv += ["--weight", str(weight)]
    if full:
        argv.append("--all-submodules")
    argv += ["--benois", "--gr1"]
    dim = 2 * n + 1
    d = list(range(n, 0, -1))

    def check(out: dict) -> None:
        expect(out["case"] == case and out["n"] == n, "case or n differs")
        expect(out["dim"] == dim and out["fil0_dim"] == n + 1, "wrong dimensions")
        fidx = range(n, -n - 1, -1)
        if case == "steinberg":
            phi = [_mono({"p": -i}) for i in fidx]
            expect(out["L"] == str(l_value), "L differs")
        elif case == "crystalline_split":
            phi = [_mono({"alpha": 2 * i, "p": i * (weight - 1)}) for i in fidx]
        else:
            phi = [_mono({"r": i}) for i in fidx]
        expect(out["phi"] == phi, "Frobenius eigenvalues differ")
        expect(out["D"] == d, "canonical D is not <f_n..f_1>")
        expect(out["gr1"] == {"eigenvalue": {}, "rank": 1}, "gr1 is not rank 1 with trivial eigenvalue")
        minus1 = d[:-1] if case == "steinberg" else d
        expect(out["benois"] == {"D_0": d, "D_1": d + [0], "D_minus1": minus1}, "filtration differs")
        if not full:
            return
        stable = out["stable_submodules"]
        regular = out["regular_submodules"]
        if case == "steinberg":
            tails = [list(range(n, n - j, -1)) for j in range(dim + 1)]
            expect(stable == tails, "steinberg stable submodules are not the 2n+2 tails")
        else:
            expect(len(stable) == 2**dim, "N = 0 makes every coordinate span stable")
            expect(len({tuple(s) for s in stable}) == len(stable), "repeated stable submodule")
            expect(all(s == sorted(set(s), reverse=True) and all(-n <= x <= n for x in s) for s in stable),
                   "malformed stable submodule")
        if case == "crystalline_nonsplit":
            expect(len(regular) == comb(dim, n), "nonsplit needs C(2n+1, n) regular D")
            stable_set = {tuple(s) for s in stable}
            expect(len({tuple(s) for s in regular}) == len(regular), "repeated regular D")
            expect(all(len(s) == n and tuple(s) in stable_set for s in regular),
                   "regular D is not an n-dimensional stable submodule")
        else:
            expect(regular == [d], "exactly one regular D, <f_n..f_1>")

    return Request(tuple(argv), size=f"n{n}" if full else None, check=check)


#: (n, steinberg, crystalline_split, crystalline_nonsplit) requests per pass.
#: On a shared VM the CPU speed can flip between a fast and a slow state
#: every few seconds, so the median of a group of equally long requests
#: flips with it.  The median therefore falls among the short n = 3 and n = 4
#: requests, whose lengths differ, and the latency tail (the 11th-highest of
#: two passes) among the upper n = 5 steinberg requests.  Throughput and the
#: tail carry the cost of the search; the median is mostly process start.
#: The crystalline cases at n = 6 (2^13 candidate subspaces, about 8 s per
#: request) are left out: one of them would take a third of a run.
_MODULE_SIZES = ((3, 6, 6, 6), (4, 1, 1, 1), (5, 6, 1, 1), (6, 1, 0, 0))


def modules(seed: int) -> list[Request]:
    rng = _rng("modules", seed)
    reqs = []
    for n, steinberg, split, nonsplit in _MODULE_SIZES:
        for j in range(steinberg):
            # the L-parameter's bit size grows: 8, 16, ..., 256 bits
            reqs.append(_phin("steinberg", n, True, l_value=_rat(rng, 8 << (j % 6))))
        for _ in range(split):
            reqs.append(_phin("crystalline_split", n, True, weight=rng.randint(2, 12)))
        for _ in range(nonsplit):
            reqs.append(_phin("crystalline_nonsplit", n, True))
    return reqs


# --- tables -------------------------------------------------------------------


def _bcoeff_row(n: int, k: int) -> Request:
    def check(out: dict) -> None:
        expect(out["values"] == [str(b_special(n, k, i)) for i in range(n + 1)],
               "row differs from the special values")

    return Request(("bcoeff", "--n", str(n), "--k", str(k)), check=check)


def _cg_table(m: int, n: int, p: int) -> Request:
    s0 = (m + n - p) // 2

    def check(out: dict) -> None:
        expect((out["m"], out["n"], out["p"]) == (m, n, p), "header differs")
        rows = out["rows"]
        expect(rows == sorted(rows), "rows are not in index order")
        table = {(u, v, w): Fraction(x) for u, v, w, x in rows}
        expect(len(table) == len(rows) and all(table.values()), "repeated or zero rows")
        for (u, v, w), x in table.items():
            expect(u + v == s0 + w, "entry off its weight stratum")
            if w == 0:
                expect(x == (-1) ** u * factorial(m - u) * factorial(n - v), "w = 0 closed form")
            else:
                acc = u * table.get((u - 1, v, w - 1), 0) + v * table.get((u, v - 1, w - 1), 0)
                expect(x * w == acc, "lowering recurrence fails")
        for u in range(m + 1):
            if 0 <= s0 - u <= n:
                expect((u, s0 - u, 0) in table, "missing w = 0 entry")

    return Request(("cg", "--m", str(m), "--n", str(n), "--p", str(p), "--table"), check=check)


def _project_endo(rng: random.Random, n: int, k: int) -> Request:
    diag = [rng.randint(-9, 9) for _ in range(n + 1)]

    def check(out: dict) -> None:
        middle = sum(b_special(n, k, i) * d for i, d in enumerate(diag))
        expect(out["middle"] == str(middle), "middle differs from sum_i B_{n,k,i} d_i")
        expect(out["tail"] == ["0"] * k, "tail past the middle is not zero")

    argv = ("project-endo", "--n", str(n), "--k", str(k), "--diag", json.dumps([str(d) for d in diag]))
    return Request(argv, check=check)


def _hecke_all(rng: random.Random, g: int) -> Request:
    a, a0 = _dominant_torus(rng, g)
    chi = [{f"chi_{j}": 1} for j in range(1, g + 1)]

    def check(out: dict) -> None:
        rows = out["eigenvalues"]
        expect(out["g"] == g and len(rows) == 2**g * factorial(g), "need 2^g g! rows")
        seen = {(tuple(r["weyl"]["nu"]), tuple(r["weyl"]["eps"])) for r in rows}
        expect(len(seen) == len(rows), "repeated Weyl element")
        for r in rows:
            value = hecke_value(chi, {"sigma": 1}, a, a0, r["weyl"]["nu"], r["weyl"]["eps"])
            expect(r["value"] == _mono(value), "eigenvalue differs from the closed form")

    argv = ("hecke", "--g", str(g), "--t", _jdump({"a": a, "a0": a0}), "--all")
    return Request(argv, size=f"g{g}", check=check)


def _obstruction(rng: random.Random, length: int) -> Request:
    exps = rng.sample(range(0, 4 * length), length)
    check_n = rng.choice((60, 360, 720, 2520, 5040))

    def check(out: dict) -> None:
        orders = out["orders"]
        top = sorted(exps, reverse=True)
        widest = max(sum(top[:i]) - sum(top[-i:]) for i in range(1, length))
        expect(orders == sorted(set(orders)) and orders[0] == 1, "orders are not sorted from 1")
        expect(orders[-1] == widest, "largest order is not the widest subset-sum gap")
        sufficient = all(check_n % d == 0 for d in orders)
        expect(out["check_N"] == {"N": check_n, "sufficient": sufficient}, "check_N differs")

    argv = ("obstruction", "--exponents", ",".join(map(str, exps)), "--check-N", str(check_n))
    return Request(argv, check=check)


def tables(seed: int) -> list[Request]:
    """22 light requests, eight cg tables of middling size, seven heavy requests.

    The heavy ones are the three `hecke --all` at g = 5 and four cg tables
    from n = 66.  The median falls among the light requests and the latency
    tail (the 11th-highest of two passes) among the heavy ones, away from the
    jumps in latency between groups.
    """
    rng = _rng("tables", seed)
    reqs = []
    for base in range(100, 300, 25):
        n = base + rng.randint(0, 10)
        reqs.append(_bcoeff_row(n, n - rng.randint(0, 2)))
    for base in range(20, 61, 8):
        n = base + rng.randint(0, 2)
        reqs.append(_project_endo(rng, n, n - rng.randint(0, 2)))
    for length in (12, 13, 14, 15, 16):
        reqs.append(_obstruction(rng, length))
    for g in (4, 4, 4, 5, 5, 5):
        reqs.append(_hecke_all(rng, g))
    for s in [40 + 2 * j + rng.randint(0, 1) for j in range(8)] + [66 + 4 * j + rng.randint(0, 1) for j in range(4)]:
        reqs.append(_cg_table(s, s, 2 * (s // 2 - rng.randint(0, 2))))
    return reqs


# --- quick --------------------------------------------------------------------


def _cg_value(rng: random.Random, on_stratum: bool) -> Request:
    m, n = rng.randint(2, 24), rng.randint(2, 24)
    p = rng.randrange(abs(m - n), m + n + 1, 2)
    s0 = (m + n - p) // 2
    u = rng.randint(max(0, s0 - n), min(m, s0))
    v = s0 - u if on_stratum else (s0 - u + 1) % (n + 1)
    expected = (-1) ** u * factorial(m - u) * factorial(n - v) if v == s0 - u else 0

    def check(out: dict) -> None:
        expect(out == {"value": str(expected)}, "w = 0 value differs")

    argv = ("cg", "--m", str(m), "--n", str(n), "--p", str(p), "--u", str(u), "--v", str(v), "--w", "0")
    return Request(argv, check=check)


def _bcoeff_value(rng: random.Random) -> Request:
    n = rng.randint(10, 60)
    k = n - rng.randint(0, 2)
    i = rng.randint(0, n)

    def check(out: dict) -> None:
        expect(out == {"value": str(b_special(n, k, i))}, "value differs from the special value")

    return Request(("bcoeff", "--n", str(n), "--k", str(k), "--i", str(i)), check=check)


#: README's recorded classifications of each theorem against the generic formula
_CLASSIFICATION = {
    "A": {"kind": "exact", "scalar": "1"},
    "B": {"kind": "sign_flip", "scalar": "-1"},
    "C": {"kind": "exact", "scalar": "1"},
    "D1": {"kind": "sign_flip", "scalar": "-1"},
    "D2": {"kind": "sign_flip", "scalar": "-1"},
}


def _linv(rng: random.Random, family: str, theorem: str | None, path: str) -> Request:
    places = rng.randint(1, 3)
    params: dict = {}
    if family == "hilbert":
        dims, hecke = places, 1
    elif family == "gsp4_spin":
        dims, hecke = 2, 2
    elif family == "gsp_std":
        g = rng.randint(2, 6)
        params, dims, hecke = {"g": g}, g, g
    else:
        n = rng.randint(1, 2)
        params, dims, hecke = {"n": n}, 4 * n, 4 * n
    doc = {
        "params": params,
        "direction": {"u": [str(_rat(rng, 6)) for _ in range(dims)], "u0": str(_rat(rng, 6))},
        "places": [
            {"gradients": {f"a_{j}": str(_rat(rng, 6)) for j in range(1, hecke + 1)}}
            for _ in range(places)
        ],
    }
    argv = ["linv", "--family", family, "--input", path]
    if theorem:
        argv += ["--compare-theorem", theorem]

    def check(out: dict) -> None:
        pairs = out["per_place"]
        expect(len(pairs) == places, "one pair per place")
        total = Fraction(1)
        for pair in pairs:
            a, b = Fraction(pair["a"]), Fraction(pair["b"])
            expect(b != 0 and pair["value"] == str(a / b), "place value is not a/b")
            total *= a / b
        expect(out["value"] == str(total), "value is not the product over places")
        if theorem:
            expect(out["classification"] == _CLASSIFICATION[theorem], "classification differs from README")
        else:
            expect("classification" not in out, "unexpected classification")

    return Request(tuple(argv), files={path: _jdump(doc).encode()}, check=check)


def _slope_hilbert(rng: random.Random) -> Request:
    places = rng.randint(1, 4)
    w = rng.randint(-12, 0)
    ks = [rng.randrange(2 + (w % 2), 20, 2) for _ in range(places)]
    slopes = [str(Fraction(rng.randint(0, 40), rng.randint(1, 4))) for _ in range(places)]
    lhs = sum(Fraction(w + k - 2, 2) + Fraction(s) for k, s in zip(ks, slopes))

    def check(out: dict) -> None:
        expect(out == {"noncritical": lhs < min(ks) - 1}, "hilbert slope verdict differs")

    stdin = _jdump({"k": ks, "w": w, "slopes": slopes}).encode()
    return Request(("slope", "--family", "hilbert", "--input", "-"), stdin=stdin, check=check)


def _slope_gsp(rng: random.Random, twist_slope: int | None = None) -> Request:
    """A gsp slope check; with `twist_slope`, a twist search from about that slope.

    The search takes about four steps per unit of slope at one place with
    a_0 = -1, so fixing those keeps its length the same for every seed.
    """
    find_twist = twist_slope is not None
    g = rng.randint(2, 3)
    places = 1 if find_twist else rng.randint(1, 2)
    a, a0 = _dominant_torus(rng, g)
    if find_twist:
        a0 = -1
    weights = [sorted((rng.randint(0, 6) for _ in range(g)), reverse=True) for _ in range(places)]
    mu0 = rng.randint(-4, 4)
    slopes = [twist_slope + rng.randint(0, 9) if find_twist else rng.randint(0, 3) for _ in range(places)]

    def check(out: dict) -> None:
        expect(out["noncritical"] == _gsp_noncritical(weights, mu0, a, a0, slopes), "gsp verdict differs")
        if not find_twist:
            expect("twist" not in out, "unexpected twist")
            return
        m = out["twist"]

        def ok(m):
            return _gsp_noncritical(weights, mu0 + m, a, a0, [s - m * a0 for s in slopes])

        expect(ok(m), "twist does not make the slope noncritical")
        expect(not any(ok(x) for x in range(-abs(m) + 1, abs(m))), "a smaller twist works")
        expect(m >= 0 or not ok(-m), "the positive twist comes first")

    doc = {"weights": weights, "mu0": mu0, "t": {"a": a, "a0": a0}, "slopes": slopes,
           "find_twist": find_twist}
    return Request(("slope", "--family", "gsp", "--input", "-"), stdin=_jdump(doc).encode(), check=check)


def _recover_chi(rng: random.Random) -> Request:
    g = rng.randint(2, 3)
    nu, eps = _random_weyl(rng, g)
    mu = sorted((rng.randint(0, 5) for _ in range(g)), reverse=True)
    mu0 = rng.randint(-4, 4)
    chi = [{f"x_{j}": rng.randint(-3, 3), "p": Fraction(rng.randint(-6, 6), 2)} for j in range(1, g + 1)]
    chi = [{s: Fraction(e) for s, e in c.items() if e} for c in chi]
    # det = chi_1 ... chi_g sigma^2 = p^mu0 fixes sigma
    sigma = _mono_pow(_mono_mul({"p": mu0}, *(_mono_pow(c, -1) for c in chi)), Fraction(1, 2))
    eigs = []
    for i in range(1, g + 1):
        a, a0 = _beta(g, g - i)
        theta = _mono_mul({"p": _weight_exponent(mu, mu0, a, a0)}, hecke_value(chi, sigma, a, a0, nu, eps))
        eigs.append(_mono(theta))

    def check(out: dict) -> None:
        expect(out == {"chi": [_mono(c) for c in chi], "sigma": _mono(sigma)}, "characters do not round-trip")

    argv = ("recover-chi", "--g", str(g), "--eigs", _jdump(eigs),
            "--weights", _jdump({"mu": mu, "mu0": mu0}), "--weyl", _jdump({"nu": nu, "eps": eps}))
    return Request(argv, check=check)


def _hecke_one(rng: random.Random) -> Request:
    g = rng.randint(2, 3)
    a, a0 = _dominant_torus(rng, g)
    nu, eps = _random_weyl(rng, g)
    chi = [{f"chi_{j}": 1} for j in range(1, g + 1)]
    value = _mono(hecke_value(chi, {"sigma": 1}, a, a0, nu, eps))

    def check(out: dict) -> None:
        expect(out == {"g": g, "value": value, "weyl": {"eps": eps, "nu": nu}}, "eigenvalue differs")

    argv = ("hecke", "--g", str(g), "--t", _jdump({"a": a, "a0": a0}), "--weyl", _jdump({"nu": nu, "eps": eps}))
    return Request(argv, check=check)


def _malformed_diag(rng: random.Random) -> Request:
    n = rng.randint(1, 6)
    text = json.dumps([str(rng.randint(-9, 9)) for _ in range(n + 1)])[:-1]  # drop the ]

    def check(out: dict) -> None:
        expect(out["error"]["code"] == "input" and "malformed JSON" in out["error"]["message"],
               "not reported as malformed JSON")

    argv = ("project-endo", "--n", str(n), "--k", "1", "--diag", text)
    return Request(argv, expect_code=2, check=check)


def _malformed_input(rng: random.Random, path: str) -> Request:
    text = _jdump({"direction": {"u": [str(rng.randint(1, 9))], "u0": "-1"}})[: -rng.randint(1, 5)]

    def check(out: dict) -> None:
        expect(out["error"]["code"] == "input" and "malformed JSON" in out["error"]["message"],
               "not reported as malformed JSON")

    return Request(("linv", "--family", "hilbert", "--input", path), files={path: text.encode()},
                   expect_code=2, check=check)


def _singular(rng: random.Random, path: str) -> Request:
    # (u_1, u_2; u_0) = c (2, 1; 5) makes the gsp4_spin denominator vanish at every place
    c = _rat(rng, 5)
    places = rng.randint(1, 3)
    doc = {
        "direction": {"u": [str(2 * c), str(c)], "u0": str(5 * c)},
        "places": [{"gradients": {"a_1": str(_rat(rng, 5)), "a_2": str(_rat(rng, 5))}} for _ in range(places)],
    }

    def check(out: dict) -> None:
        expect(out["error"]["code"] == "singular_direction" and out["error"]["place"] == 0,
               "not reported as singular at place 0")

    return Request(("linv", "--family", "gsp4_spin", "--input", path), files={path: _jdump(doc).encode()},
                   expect_code=3, check=check)


def quick(seed: int) -> list[Request]:
    rng = _rng("quick", seed)
    reqs = []
    for on_stratum in (True, True, True, False):
        reqs.append(_cg_value(rng, on_stratum))
    reqs += [_bcoeff_value(rng) for _ in range(4)]
    for family, theorems in (("hilbert", ("A",)), ("gsp4_spin", ("B",)), ("gsp_std", ("C",)),
                             ("unitary", ("D1", "D2"))):
        for theorem in (None, *theorems):
            reqs.append(_linv(rng, family, theorem, f"linv-{len(reqs)}.json"))
    reqs += [_slope_hilbert(rng) for _ in range(3)]
    # the twist searches are the slowest requests here, so the latency tail
    # (about the sixth-highest latency of a pass) falls among them
    reqs += [_slope_gsp(rng)] + [_slope_gsp(rng, slope) for slope in range(150, 300, 25)]
    reqs += [_recover_chi(rng) for _ in range(3)]
    reqs += [_hecke_one(rng) for _ in range(3)]
    for case in ("steinberg", "crystalline_split", "crystalline_nonsplit"):
        reqs.append(_phin(case, 6, False, l_value=_rat(rng, 16), weight=rng.randint(2, 12)))
    reqs += [_malformed_diag(rng), _malformed_input(rng, "truncated.json"), _singular(rng, "singular.json")]
    return reqs


# --- oracle -------------------------------------------------------------------

#: n = 9 keeps one request under a second; its (n+1)^2 x 2(n+1)^2 elimination
#: dominates.  The median falls in the middle of the n = 8 requests and the
#: latency tail (the 11th-highest of two passes) in the middle of the n = 9
#: ones.  With n = 6 as well the median would sit at the lower edge of the
#: n = 8 group and move with the machine's speed.
ORACLE_SIZES = range(7, 10)


def _oracle(rng: random.Random, n: int, k: int) -> Request:
    diags = [[rng.choice((1, -1)) * rng.randint(1, 9) for _ in range(n + 1)] for _ in range(2)]

    def check(out: dict) -> None:
        expect(out["n"] == n and out["k"] == k and len(out["rows"]) == len(diags), "header differs")
        ratios = set()
        for diag, row in zip(diags, out["rows"]):
            coords = [Fraction(c) for c in row["coords"]]
            middle = Fraction(row["middle"])
            expect(len(coords) == 2 * k + 1, "brute-force block has the wrong length")
            expect(not any(c for j, c in enumerate(coords) if j != k), "weight-zero input left a nonzero coordinate")
            expect(row["tail"] == ["0"] * k, "closed-form tail is not zero")
            expect(middle == sum(b_value(n, k, i) * d for i, d in enumerate(diag)), "middle is not sum_i B d_i")
            expect((middle == 0) == (coords[k] == 0), "closed form and oracle disagree on vanishing")
            if coords[k]:
                ratios.add(middle / coords[k])
        expect(len(ratios) <= 1, "closed form is not a fixed multiple of the oracle")

    argv = ("--n", str(n), "--k", str(k), "--diags", _jdump(diags))
    return Request(argv, program="oracle", size=f"n{n}", check=check)


def oracle(seed: int) -> list[Request]:
    rng = _rng("oracle", seed)
    return [_oracle(rng, n, k) for n in ORACLE_SIZES for k in range(n + 1)]


GENERATORS = {"modules": modules, "tables": tables, "quick": quick, "oracle": oracle}


def _interleave(reqs: list[Request]) -> list[Request]:
    """Spread each kind of request evenly over the pass.

    The machine's speed drifts over tens of seconds, so a group of requests
    that ran back to back would time one stretch of the run.  Spread out,
    every latency percentile samples the whole run, as throughput does.
    """
    groups: dict = {}
    for req in reqs:
        groups.setdefault((req.program, req.argv[0], req.size), []).append(req)
    keyed = [((i + 0.5) / len(group), g, req) for g, group in enumerate(groups.values())
             for i, req in enumerate(group)]
    return [req for _, _, req in sorted(keyed, key=lambda item: item[:2])]


def generate(workload: str, seed: int) -> list[Request]:
    """The pass of `workload` for `seed`, with request ids "<workload>/<index>"."""
    reqs = _interleave(GENERATORS[workload](seed))
    for index, req in enumerate(reqs):
        req.rid = f"{workload}/{index:02d}"
    return reqs


def verify(req: Request, code: int, stdout: bytes, digest: str | None) -> str | None:
    """None when the output is right, else the reason it is not.

    `digest` is the recorded sha256 of the successful stdout, when known.
    """
    if code != req.expect_code:
        return f"exit code {code}, expected {req.expect_code}"
    if not stdout.endswith(b"\n") or stdout.count(b"\n") != 1:
        return "stdout is not exactly one line"
    if digest is not None and code == 0 and hashlib.sha256(stdout).hexdigest() != digest:
        return "stdout differs from the recorded digest"
    try:
        req.check(json.loads(stdout))
    except (CheckFailed, ValueError, KeyError, TypeError, IndexError, ZeroDivisionError) as err:
        return f"check failed: {type(err).__name__}: {err}"
    return None
