"""Inverse Clebsch-Gordan coefficients and the `cg` subcommand.

C_{m,n,p}^{u,v,w} are the coefficients of the equivariant projection
psi_{m,n,p}: Sym^m V (x) Sym^n V -> Sym^p V in the monomial bases,

    psi(g_{m,u} (x) g_{n,v}) = sum_w C_{m,n,p}^{u,v,w} g_{p,w}.

They vanish off the weight stratum u + v - w = (m+n-p)/2.  On the w = 0
layer of that stratum C^{u,v,0} = (-1)^u (m-u)! (n-v)!, and ascending in w
with the raising-operator recurrence

    C^{u,v,w} = (u C^{u-1,v,w-1} + v C^{u,v-1,w-1}) / w        (w >= 1)

fills the whole table (`plethysm.cg_table`); unrolled down to w = 0 it
gives one entry as an O(w) sum (`cg_coefficient`).  The lowering-operator
recurrence

    (p-w) C^{u,v,w} = (m-u) C^{u+1,v,w+1} + (n-v) C^{u,v+1,w+1}

is not used for generation and stays available as an independent check.
A single entry loads no `plethysm`; `cg --table` loads it for the table.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial, perm


class InvalidWeightTripleError(ValueError):
    """p is not among m+n, m+n-2, ..., |m-n|."""


def valid_triple(m: int, n: int, p: int) -> bool:
    return (
        m >= 0
        and n >= 0
        and abs(m - n) <= p <= m + n
        and (m + n - p) % 2 == 0
    )


def cg_coefficient(m: int, n: int, p: int, u: int, v: int, w: int) -> Fraction:
    """One C_{m,n,p}^{u,v,w}: the raising recurrence unrolled down to w = 0,

        C^{u,v,w} = (1/w!) sum_a C(w,a) u!/(u-a)! v!/(v-w+a)! C^{u-a, v-w+a, 0},

    a of the w steps lowering u, with C^{u',v',0} = (-1)^{u'} (m-u')! (n-v')!
    and 0 off the stratum.  `plethysm.cg_table` is its oracle in the tests.
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


#: largest index of `cg`, about 10 s and 100 MB at most (the cost table is
#: in CHANGES.md)
CG_MAX_INDEX = 150


def _cmd_cg(args) -> tuple[dict, str | None, list | None]:
    from .cliargs import CliError, _cap
    m, n, p = args.m, args.n, args.p
    _cap(max(m, n, p), CG_MAX_INDEX, "cg --m, --n or --p")
    if args.table:
        if (args.u, args.v, args.w) != (None, None, None):
            raise CliError("--table and --u, --v, --w exclude each other")
        from .plethysm import cg_table
        table = sorted(cg_table(m, n, p).items())
        rows = [(*key, f"{x}/{d}" if d > 1 else str(x)) for key, (x, d) in table]
        return {"m": m, "n": n, "p": p, "rows": rows}, "u,v,w,value", rows
    if args.u is None or args.v is None or args.w is None:
        raise CliError("either --table or all of --u --v --w are required")
    value = cg_coefficient(m, n, p, args.u, args.v, args.w)
    return {"value": str(value)}, None, None
