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
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, perm
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
def cg_table(m: int, n: int, p: int) -> dict[tuple[int, int, int], Fraction]:
    """The nonzero C_{m,n,p}^{u,v,w} of one weight triple, keyed (u, v, w).

    T = w! C obeys T^{u,v,w} = u T^{u-1,v,w-1} + v T^{u,v-1,w-1}, which has
    no division, so each layer w is built in integers from the one before
    and divided by w! once per stored entry.
    """
    if not valid_triple(m, n, p):
        raise InvalidWeightTripleError(f"V_{p} does not occur in V_{m} (x) V_{n}")
    s0 = (m + n - p) // 2
    values: dict[tuple[int, int, int], Fraction] = {}
    # layer[u] = T^{u, s0 + w - u, w} on the stratum, 0 elsewhere
    layer = [0] * (m + 1)
    for u in range(max(0, s0 - n), min(m, s0) + 1):
        layer[u] = (-1) ** u * factorial(m - u) * factorial(n - s0 + u)
        values[(u, s0 - u, 0)] = Fraction(layer[u])
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
                values[(u, v, w)] = Fraction(acc, w_factorial)
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


def b_coefficient(n: int, k: int, i: int) -> Fraction:
    """Closed form sum_{a+b=k} (-1)^a C(n,i) C(i,a) C(n-i,b) (n-i+a)! (i+b)!."""
    if not (0 <= k <= n and 0 <= i <= n):
        raise ValueError(f"need 0 <= k, i <= n, got k={k}, i={i}, n={n}")
    total = 0
    for a in range(k + 1):
        b = k - a
        if a > i or b > n - i:
            continue
        total += (
            (-1) ** a
            * comb(n, i)
            * comb(i, a)
            * comb(n - i, b)
            * factorial(n - i + a)
            * factorial(i + b)
        )
    return Fraction(total)


def b_row(n: int, k: int) -> tuple[Fraction, ...]:
    if n < 0:
        raise ValueError(f"need n >= 0, got n={n}")
    return tuple(b_coefficient(n, k, i) for i in range(n + 1))


def b_special(n: int, k: int, i: int) -> Fraction:
    """Special-value closed forms for k in {n, n-1, n-2}.

    The k = n sum has a single term and the k = n-1 sum two, giving

        B_{n,n,i}   = (-1)^i (n!)^2 C(n,i),
        B_{n,n-1,i} = (-1)^i n! (n-1)! C(n,i) (n - 2i).

    For k = n-2 the three-term sum
    C(i,2)(n-2)!n! - C(i,1)C(n-i,1)((n-1)!)^2 + C(n-i,2)n!(n-2)!
    collapses to (n-2)!(n-1)!(n^3 - (4i+1)n^2 + (4i^2+2i)n - 2i^2)/2;
    note the /2, which the usual simplified form of this cubic omits.

    A paper display the README names, kept as a named oracle: no CLI path
    calls it, and the tests check it against `b_coefficient`.
    """
    if not 0 <= i <= n:
        raise ValueError(f"need 0 <= i <= n, got i={i}, n={n}")
    sign = (-1) ** i
    if k == n:
        return Fraction(sign * factorial(n) ** 2 * comb(n, i))
    if k == n - 1:
        return Fraction(sign * factorial(n) * factorial(n - 1) * comb(n, i) * (n - 2 * i))
    if k == n - 2:
        poly = (
            n**3
            - (4 * i + 1) * n**2
            + (4 * i**2 + 2 * i) * n
            - 2 * i**2
        )
        return Fraction(sign * comb(n, i) * factorial(n - 2) * factorial(n - 1) * poly, 2)
    raise ValueError(f"special values exist only for k in {{n, n-1, n-2}}, got k={k}")


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
    middle = sum((b_coefficient(n, k, i) * d for i, d in enumerate(diag)), Fraction(0))
    # b_coefficient refuses a bad k first unless n = -1 left the sum empty
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
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
        table = cg_table(m, n, p)
        rows = [(*key, str(table[key])) for key in sorted(table)]
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
    # each value is converted to a string once, for the JSON and the CSV alike
    values = [str(x) for x in b_row(args.n, args.k)]
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
