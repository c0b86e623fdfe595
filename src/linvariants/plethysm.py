"""Inverse Clebsch-Gordan coefficients and the End(Sym^n V) projection rows.

C_{m,n,p}^{u,v,w} are the coefficients of the equivariant projection
psi_{m,n,p}: Sym^m V (x) Sym^n V -> Sym^p V in the monomial bases,

    psi(g_{m,u} (x) g_{n,v}) = sum_w C_{m,n,p}^{u,v,w} g_{p,w}.

They vanish off the weight stratum u + v - w = (m+n-p)/2.  On the w = 0
layer of that stratum C^{u,v,0} = (-1)^u (m-u)! (n-v)!, and ascending in w
with the raising-operator recurrence

    C^{u,v,w} = (u C^{u-1,v,w-1} + v C^{u,v-1,w-1}) / w        (w >= 1)

fills the whole table; unrolled down to w = 0 it gives one entry as an
O(w) sum (`cg_coefficient`).  The lowering-operator recurrence

    (p-w) C^{u,v,w} = (m-u) C^{u+1,v,w+1} + (n-v) C^{u,v+1,w+1}

is not used for generation and stays available as an independent check.

B_{n,k,i} is the coefficient of g_{2k,k} in the projection to Sym^{2k} V of
the diagonal endomorphism g_{n,i} (x) g_{n,i}^v; for an upper-triangular
endomorphism with diagonal (a_0..a_n) the g_{2k,k} coefficient of the
projection is sum_i B_{n,k,i} a_i and everything past the middle vanishes.
B_{n,k,i} sums T_i(a) = (-1)^a C(n,i) C(i,a) C(n-i,k-a) (n-i+a)! (i+k-a)! over
max(0, i-n+k) <= a <= min(i, k).  T is hypergeometric in a and in i, so each
term is the one before times a ratio of small integers, and swapping a with
k-a and i with n-i gives B_{n,k,n-i} = (-1)^k B_{n,k,i}: a row sums i <= n/2.
The tables hold integers: B itself, and each C as its reduced pair.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, gcd, perm
from typing import NamedTuple

from .exactlin import DimensionMismatchError, rational


class InvalidWeightTripleError(ValueError):
    """p is not among m+n, m+n-2, ..., |m-n|."""


def valid_triple(m: int, n: int, p: int) -> bool:
    return (
        m >= 0
        and n >= 0
        and abs(m - n) <= p <= m + n
        and (m + n - p) % 2 == 0
    )


@lru_cache(maxsize=None)
def cg_table(m: int, n: int, p: int) -> dict[tuple[int, int, int], tuple[int, int]]:
    """The nonzero C_{m,n,p}^{u,v,w} of one weight triple, keyed (u, v, w),
    each as its reduced pair (numerator, denominator > 0).

    T = w! C obeys T^{u,v,w} = u T^{u-1,v,w-1} + v T^{u,v-1,w-1}, which has
    no division, so each layer w is built in integers from the one before
    and reduced against w! once per stored entry.
    """
    if not valid_triple(m, n, p):
        raise InvalidWeightTripleError(f"V_{p} does not occur in V_{m} (x) V_{n}")
    s0 = (m + n - p) // 2
    values: dict[tuple[int, int, int], tuple[int, int]] = {}
    # layer[u] = T^{u, s0 + w - u, w} on the stratum, 0 elsewhere
    layer = [0] * (m + 1)
    for u in range(max(0, s0 - n), min(m, s0) + 1):
        layer[u] = (-1) ** u * factorial(m - u) * factorial(n - s0 + u)
        values[(u, s0 - u, 0)] = (layer[u], 1)
    w_factorial = 1
    for w in range(1, p + 1):
        target = s0 + w
        w_factorial *= w
        below, layer = layer, [0] * (m + 1)
        for u in range(max(0, target - n), min(m, target) + 1):
            v = target - u
            # T^{u-1,v,w-1} is below[u-1] and T^{u,v-1,w-1} is below[u]; at
            # u = 0 or v = 0 the factor in front is 0
            acc = u * below[u - 1] + v * below[u]
            if acc:
                layer[u] = acc
                common = gcd(acc, w_factorial)
                values[(u, v, w)] = (acc // common, w_factorial // common)
    return values


def cg_coefficient(m: int, n: int, p: int, u: int, v: int, w: int) -> Fraction:
    """One C_{m,n,p}^{u,v,w}: the raising recurrence unrolled down to w = 0,

        C^{u,v,w} = (1/w!) sum_a C(w,a) u!/(u-a)! v!/(v-w+a)! C^{u-a, v-w+a, 0},

    a of the w steps lowering u, with C^{u',v',0} = (-1)^{u'} (m-u')! (n-v')!
    and 0 off the stratum.  `cg_table` is its oracle in the tests.
    """
    if not valid_triple(m, n, p):
        raise InvalidWeightTripleError(f"V_{p} does not occur in V_{m} (x) V_{n}")
    if not (0 <= u <= m and 0 <= v <= n and 0 <= w <= p):
        raise ValueError(f"indices out of range for V_{m} x V_{n} -> V_{p}")
    if u + v - w != (m + n - p) // 2:
        return Fraction(0)
    total = sum(
        comb(w, a) * perm(u, a) * perm(v, w - a)
        * (-1) ** (u - a) * factorial(m - u + a) * factorial(n - v + w - a)
        for a in range(max(0, w - v), min(u, w) + 1)
    )
    return Fraction(total, factorial(w))


def _b_sum(n: int, k: int, i: int, term: int) -> int:
    """B_{n,k,i} from `term`, T_i at the first a, each next T_i by its ratio."""
    total = 0
    for a in range(max(0, i - n + k), min(i, k)):
        total += term
        num = -(i - a) * (k - a) * (n - i + a + 1)
        term = term * num // ((a + 1) * (n - i - k + a + 1) * (i + k - a))
    return total + term


def b_coefficient(n: int, k: int, i: int) -> int:
    """B_{n,k,i}, the first T_i in closed form."""
    if not (0 <= k <= n and 0 <= i <= n):
        raise ValueError(f"need 0 <= k, i <= n, got k={k}, i={i}, n={n}")
    a = max(0, i - n + k)
    return _b_sum(n, k, i, (-1) ** a * comb(n, i) * comb(i, a) * comb(n - i, k - a)
                  * factorial(n - i + a) * factorial(i + k - a))


def b_row(n: int, k: int) -> tuple[int, ...]:
    """B_{n,k,0..n}: each first T_i by its ratio across i, the upper half by reflection."""
    if n < 0:
        raise ValueError(f"need n >= 0, got n={n}")
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k, i <= n, got k={k}, i=0, n={n}")
    c, first, half = n - k, comb(n, k) * factorial(n) * factorial(k), []
    for i in range(n // 2 + 1):
        half.append(_b_sum(n, k, i, first))
        if i < c:
            first = first * ((c - i) * (i + k + 1)) // ((i + 1) * (n - i))
        else:
            first = first * (i - n) // (i + 1 - c)
    sign = (-1) ** k
    return (*half, *(sign * x for x in reversed(half[: (n + 1) // 2])))


class DiagonalProjection(NamedTuple):
    """g_{2k,k} coefficient plus the (always-zero) past-the-middle tail."""

    middle: Fraction
    tail: tuple[Fraction, ...]


def project_endomorphism_diagonal(n: int, k: int, diag) -> DiagonalProjection:
    """Project the diagonal endomorphism with entries diag onto Sym^{2k} V.

    A diagonal endomorphism has weight 0, so its projection is the g_{2k,k}
    coefficient sum_i B_{n,k,i} diag_i, and the k coefficients of g_{2k,u},
    u > k, are 0.  The tests check this against the full projection.
    """
    diag = [rational(d) for d in diag]
    if len(diag) != n + 1:
        raise DimensionMismatchError(f"diagonal must have length {n + 1}")
    if n < 0:  # n = -1, the one negative n the length check lets through
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    middle = sum((b * d for b, d in zip(b_row(n, k), diag)), Fraction(0))
    return DiagonalProjection(middle, (Fraction(0),) * k)


#: largest sizes of the polynomial-cost tables, each about 10 s and 100 MB
#: at most (the cost table is in CHANGES.md): every index of `cg`, `bcoeff` n
#: and `project-endo` n
CG_MAX_INDEX = 150
BCOEFF_MAX_N = 600
PROJECT_ENDO_MAX_N = 250


def _cmd_cg(args) -> tuple[dict, str | None, list | None]:
    from .cliargs import CliError, _cap
    m, n, p = args.m, args.n, args.p
    _cap(max(m, n, p), CG_MAX_INDEX, "cg --m, --n or --p")
    if args.table:
        if (args.u, args.v, args.w) != (None, None, None):
            raise CliError("--table and --u, --v, --w exclude each other")
        table = sorted(cg_table(m, n, p).items())
        rows = [(*key, f"{x}/{d}" if d > 1 else str(x)) for key, (x, d) in table]
        return {"m": m, "n": n, "p": p, "rows": rows}, "u,v,w,value", rows
    if args.u is None or args.v is None or args.w is None:
        raise CliError("either --table or all of --u --v --w are required")
    value = cg_coefficient(m, n, p, args.u, args.v, args.w)
    return {"value": str(value)}, None, None


def _cmd_bcoeff(args) -> tuple[dict, str | None, list | None]:
    from .cliargs import _cap
    _cap(args.n, BCOEFF_MAX_N, "bcoeff --n")
    if args.i is not None:
        value = str(b_coefficient(args.n, args.k, args.i))
        return {"value": value}, "n,k,i,value", [(args.n, args.k, args.i, value)]
    # each value is converted to a string once, for the JSON and the CSV alike,
    # and only the lower half: B_{n,k,n-i} = (-1)^k B_{n,k,i}
    half = [str(x) for x in b_row(args.n, args.k)[: args.n // 2 + 1]]
    upper = half[: (args.n + 1) // 2][::-1]
    if args.k % 2:
        upper = [x[1:] if x[0] == "-" else x if x == "0" else "-" + x for x in upper]
    values = half + upper
    rows = [(args.n, args.k, i, x) for i, x in enumerate(values)]
    return {"values": values}, "n,k,i,value", rows


def _cmd_project_endo(args) -> tuple[dict, str | None, list | None]:
    from .cliargs import CliError, _cap, _parse_json_arg
    _cap(args.n, PROJECT_ENDO_MAX_N, "project-endo --n")
    diag = _parse_json_arg(args.diag, "--diag")
    if not isinstance(diag, list):
        raise CliError("--diag must be a JSON array of rationals")
    result = project_endomorphism_diagonal(args.n, args.k, [rational(x) for x in diag])
    return {"middle": str(result.middle), "tail": [str(x) for x in result.tail]}, None, None
