"""Inverse Clebsch-Gordan coefficients and the End(Sym^n V) projection rows B_{n,k,i}.

C_{m,n,p}^{u,v,w} are the coefficients of the equivariant projection
psi_{m,n,p}: Sym^m V (x) Sym^n V -> Sym^p V in the monomial bases,

    psi(g_{m,u} (x) g_{n,v}) = sum_w C_{m,n,p}^{u,v,w} g_{p,w}.

They vanish off the weight stratum u + v - w = (m+n-p)/2.  On the w = 0
layer of that stratum C^{u,v,0} = (-1)^u (m-u)! (n-v)!, and ascending in w
the raising-operator recurrence

    C^{u,v,w} = (u C^{u-1,v,w-1} + v C^{u,v-1,w-1}) / w        (w >= 1)

fills the whole table (`cg_table`).  Unrolled down to w = 0 it gives
C^{u,v,w} = sum_a (-1)^{u-a} C(u,a) C(v,w-a) (m-u+a)! (n-v+w-a)!, a of the w
steps lowering u, since C(w,a) u!/(u-a)! v!/(v-w+a)! / w! = C(u,a) C(v,w-a):
every C is an integer and the division by w is exact.  The unrolled sum is
a test oracle.  The lowering-operator recurrence

    (p-w) C^{u,v,w} = (m-u) C^{u+1,v,w+1} + (n-v) C^{u,v+1,w+1}

is not used for generation and stays available as an independent check.
One `cg` entry stops the column recurrence at its column u.

B_{n,k,i} is the coefficient of g_{2k,k} in the projection to Sym^{2k} V of
the diagonal endomorphism g_{n,i} (x) g_{n,i}^v; for an upper-triangular
endomorphism with diagonal (a_0..a_n) the g_{2k,k} coefficient of the
projection is sum_i B_{n,k,i} a_i and everything past the middle vanishes.
B_{n,k,i} sums T_i(a) = (-1)^a C(n,i) C(i,a) C(n-i,k-a) (n-i+a)! (i+k-a)! over
max(0, i-n+k) <= a <= min(i, k).  T is hypergeometric in a and in i, so each
term is the one before times a ratio of small integers, and swapping a with
k-a and i with n-i gives B_{n,k,n-i} = (-1)^k B_{n,k,i}: a row sums i <= n/2.
One `bcoeff --i` entry stops the half row at min(i, n-i).

Both tables hold integers, and the handlers write their answers as
compact JSON text, so a `cg`, `bcoeff` or `project-endo` request imports
no `json`.  Only the diagonal projection takes rationals, and it imports
`fractions` and `exactlin` only for a diagonal entry that is no integer.
"""

from functools import lru_cache
from itertools import islice
from math import comb, factorial
from typing import TYPE_CHECKING, NamedTuple

from . import ratio

if TYPE_CHECKING:  # the integer requests load no `fractions`
    from fractions import Fraction


class InvalidWeightTripleError(ValueError):
    """p is not among m+n, m+n-2, ..., |m-n|."""


def valid_triple(m: int, n: int, p: int) -> bool:
    return (
        m >= 0
        and n >= 0
        and abs(m - n) <= p <= m + n
        and (m + n - p) % 2 == 0
    )


def _stratum(m: int, n: int, p: int) -> int:
    """(m+n-p)/2, the u + v - w of every nonzero C_{m,n,p}^{u,v,w}, once the
    weight triple is checked."""
    if not valid_triple(m, n, p):
        raise InvalidWeightTripleError(f"V_{p} does not occur in V_{m} (x) V_{n}")
    return (m + n - p) // 2


def _cg_columns(m: int, n: int, p: int, s0: int):
    """Column u = 0, 1, ..., m of C_{m,n,p}: column[w] = C^{u, s0 + w - u, w} on
    the stratum, 0 elsewhere, by the raising recurrence on the integers.

    Column u needs column u - 1 and the entry below in column u, so each is
    filled up in w; a caller that needs only column u stops after it, and
    only two columns are alive at a time.
    """
    column = [0] * (p + 1)
    for u in range(m + 1):
        left, column = column, [0] * (p + 1)
        for w in range(max(0, u - s0), min(p, n + u - s0) + 1):
            v = s0 + w - u
            # C^{u-1,v,w-1} is left[w-1] and C^{u,v-1,w-1} is column[w-1]; at
            # u = 0 or v = 0 the factor in front is 0
            if w:
                column[w] = (u * left[w - 1] + v * column[w - 1]) // w
            else:
                column[w] = (-1) ** u * factorial(m - u) * factorial(n - v)
        yield column


@lru_cache(maxsize=None)
def cg_table(m: int, n: int, p: int) -> dict[tuple[int, int, int], int]:
    """The nonzero C_{m,n,p}^{u,v,w} of one weight triple, keyed (u, v, w) in
    sorted order: the columns of `_cg_columns` in turn, each up in w, which on
    the stratum is key order."""
    s0 = _stratum(m, n, p)
    values: dict[tuple[int, int, int], int] = {}
    for u, column in enumerate(_cg_columns(m, n, p, s0)):
        v = s0 - u  # at w = 0; v rises with w
        for w in range(max(0, -v), min(p, n - v) + 1):
            if c := column[w]:
                values[(u, v + w, w)] = c
    return values


def _b_half_row(n: int, k: int):
    """B_{n,k,0}, B_{n,k,1}, ..., B_{n,k,n//2} for 0 <= k <= n, each first T_i
    by its ratio across i, each next T_i by its ratio across a; a caller that
    needs only B_{n,k,j} stops after it."""
    c, first = n - k, comb(n, k) * factorial(n) * factorial(k)
    for i in range(n // 2 + 1):
        total, term = 0, first
        for a in range(max(0, i - c), min(i, k)):
            total += term
            num = -(i - a) * (k - a) * (n - i + a + 1)
            term = term * num // ((a + 1) * (n - i - k + a + 1) * (i + k - a))
        yield total + term
        if i < c:
            first = first * ((c - i) * (i + k + 1)) // ((i + 1) * (n - i))
        else:
            first = first * (i - n) // (i + 1 - c)


def b_row(n: int, k: int) -> tuple[int, ...]:
    """B_{n,k,0..n}: the lower half by `_b_half_row`, the upper half by reflection."""
    if n < 0:
        raise ValueError(f"need n >= 0, got n={n}")
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k, i <= n, got k={k}, i=0, n={n}")
    half = list(_b_half_row(n, k))
    sign = (-1) ** k
    return (*half, *(sign * x for x in reversed(half[: (n + 1) // 2])))


class DiagonalProjection(NamedTuple):
    """g_{2k,k} coefficient plus the (always-zero) past-the-middle tail."""

    middle: "int | Fraction"
    tail: tuple[int, ...]


def project_endomorphism_diagonal(n: int, k: int, diag) -> DiagonalProjection:
    """Project the diagonal endomorphism with entries diag onto Sym^{2k} V.

    A diagonal endomorphism has weight 0, so its projection is the g_{2k,k}
    coefficient sum_i B_{n,k,i} diag_i, and the k coefficients of g_{2k,u},
    u > k, are 0.  The tests check this against the full projection.  Int
    entries stay ints, and so does the sum of a diagonal of ints: only another
    entry goes through `exactlin.rational`, which imports `fractions`.
    """
    diag = list(diag)
    if not all(type(d) is int for d in diag):
        from .exactlin import rational
        diag = [d if type(d) is int else rational(d) for d in diag]
    if len(diag) != n + 1:
        from .exactlin import DimensionMismatchError
        raise DimensionMismatchError(f"diagonal must have length {n + 1}")
    if n < 0:  # n = -1, the one negative n the length check lets through
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    middle = sum(b * d for b, d in zip(b_row(n, k), diag))
    return DiagonalProjection(middle, (0,) * k)


#: largest sizes of the polynomial-cost tables, each about 10 s and 100 MB
#: at most (the cost table is in the README): the `cg` indices, `bcoeff` n
#: and `project-endo` n
CG_MAX_INDEX = 150
BCOEFF_MAX_N = 600
PROJECT_ENDO_MAX_N = 250


def _cmd_cg(args) -> tuple[str, str | None, list | None]:
    from .cliargs import CliError, _cap
    m, n, p = args.m, args.n, args.p
    _cap(max(m, n, p), CG_MAX_INDEX, "cg --m, --n or --p")
    if args.table:
        if (args.u, args.v, args.w) != (None, None, None):
            raise CliError("--table and --u, --v, --w exclude each other")
        table = cg_table(m, n, p)
        text = ",".join(['[%d,%d,%d,"%d"]' % (u, v, w, x) for (u, v, w), x in table.items()])
        rows = ((*key, x) for key, x in table.items())  # read only by `--format csv`
        return '{"m":%d,"n":%d,"p":%d,"rows":[%s]}' % (m, n, p, text), "u,v,w,value", rows
    if args.u is None or args.v is None or args.w is None:
        raise CliError("either --table or all of --u --v --w are required")
    u, v, w = args.u, args.v, args.w
    s0 = _stratum(m, n, p)  # the weight triple is checked first
    if not (0 <= u <= m and 0 <= v <= n and 0 <= w <= p):
        raise ValueError(f"indices out of range for V_{m} x V_{n} -> V_{p}")
    if u + v - w != s0:
        return '{"value":"0"}', None, None
    column = next(islice(_cg_columns(m, n, p, s0), u, None))  # columns past u are not built
    return '{"value":"%d"}' % column[w], None, None


def _cmd_bcoeff(args) -> tuple[str, str, list]:
    from .cliargs import _cap
    n, k, i = args.n, args.k, args.i
    _cap(n, BCOEFF_MAX_N, "bcoeff --n")
    if i is not None:
        if not (0 <= k <= n and 0 <= i <= n):
            raise ValueError(f"need 0 <= k, i <= n, got k={k}, i={i}, n={n}")
        # B_{n,k,i} = (-1)^k B_{n,k,n-i}: the half row up to min(i, n - i) holds it
        j = min(i, n - i)
        b = next(islice(_b_half_row(n, k), j, None))
        value = str(-b if i != j and k % 2 else b)
        return '{"value":"%s"}' % value, "n,k,i,value", [(n, k, i, value)]
    # each value is converted to a string once, for the JSON and the CSV alike,
    # and only the lower half: B_{n,k,n-i} = (-1)^k B_{n,k,i}
    half = [str(x) for x in b_row(n, k)[: n // 2 + 1]]
    upper = half[: (n + 1) // 2][::-1]
    if k % 2:
        upper = [x[1:] if x[0] == "-" else x if x == "0" else "-" + x for x in upper]
    values = half + upper
    rows = [(n, k, i, x) for i, x in enumerate(values)]
    return '{"values":["%s"]}' % '","'.join(values), "n,k,i,value", rows


def _cmd_project_endo(args) -> tuple[str, None, None]:
    from .cliargs import CliError, _cap
    from .jsonargs import _parse_json_arg
    _cap(args.n, PROJECT_ENDO_MAX_N, "project-endo --n")
    diag = _parse_json_arg(args.diag, "--diag")
    if not isinstance(diag, list):
        raise CliError("--diag must be a JSON array of rationals")
    # an integer entry is read as an int, so a diagonal of them needs no `fractions`
    diag = [a if b == 1 else x for x, (a, b) in zip(diag, map(ratio, diag))]
    result = project_endomorphism_diagonal(args.n, args.k, diag)
    tail = ",".join('"%s"' % x for x in result.tail)
    return '{"middle":"%s","tail":[%s]}' % (result.middle, tail), None, None
