"""Exact rational linear algebra: scalars, vectors and row reduction over Q.

Everything is computed with `fractions.Fraction`, so results are exact.
A matrix is a sequence of rows.  The elimination core is fraction-free
(Bareiss): rows are scaled to integers and the forward pass uses the
two-term minor update, which keeps intermediate entries bounded by minors
of the input instead of letting numerators and denominators blow up
independently.  Its one library caller is `sl2rep`'s brute-force change
of basis, which inverts one weight block per `_rref`.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

Vector = tuple[Fraction, ...]


class DimensionMismatchError(ValueError):
    """Operands live in different ambient dimensions."""


#: largest |e| of a decimal string 'xEe' (10^e has 33k bits at the cap);
#: Fraction('1e100000000') would build 10^(10^8), which takes minutes
MAX_DECIMAL_EXPONENT = 10**4


def rational(value) -> Fraction:
    """Coerce ints, strings like '3/4' or '1.5e-3' and Fractions to Fraction.

    bool is refused although it is an int: a JSON true is not a scalar.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        digits = value.upper().partition("E")[2].strip().lstrip("+-").replace("_", "")
        if digits.isdigit() and int(digits) > MAX_DECIMAL_EXPONENT:
            raise ValueError(f"decimal exponent over {MAX_DECIMAL_EXPONENT} in {value!r}")
        try:
            return Fraction(value)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {value!r}") from None
    raise TypeError(f"not an exact scalar: {value!r}")


def vector(values: Iterable) -> Vector:
    if isinstance(values, str):
        raise TypeError(f"not a sequence of exact scalars: {values!r}")
    return tuple(rational(v) for v in values)


def _bareiss_echelon(rows: list[list[int]]) -> tuple[list[list[int]], list[int]]:
    """Fraction-free forward elimination on integer rows (in place).

    Returns the echelon rows and the pivot column list.  After step k every
    entry is a (k+1)x(k+1) minor of the input, so the exact divisions below
    never truncate.
    """
    if not rows:
        return rows, []
    n_cols = len(rows[0])
    pivots: list[int] = []
    prev = 1
    r = 0
    for c in range(n_cols):
        pivot_row = None
        for i in range(r, len(rows)):
            if rows[i][c]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        if pivot_row != r:
            rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        p = rows[r][c]
        for i in range(r + 1, len(rows)):
            row_i = rows[i]
            head = row_i[c]
            for j in range(c, n_cols):
                row_i[j] = (row_i[j] * p - head * rows[r][j]) // prev
        prev = p
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def _to_integer_rows(rows: Sequence[Sequence[Fraction]]) -> list[list[int]]:
    out = []
    for row in rows:
        scale = lcm(*(f.denominator for f in row)) if row else 1
        ints = [int(f * scale) for f in row]
        g = 0
        for x in ints:
            g = gcd(g, x)
        if g > 1:
            ints = [x // g for x in ints]
        out.append(ints)
    return out


def _rref(rows: Sequence[Sequence[Fraction]]) -> tuple[tuple[Vector, ...], tuple[int, ...]]:
    """Reduced row echelon form; zero rows are dropped."""
    work = _to_integer_rows(rows)
    work, pivots = _bareiss_echelon(work)
    # Back-substitute over Fraction; the forward pass already paid the
    # expensive part, this touches O(rank * cols) entries.
    frac_rows: list[list[Fraction]] = []
    for r, c in enumerate(pivots):
        p = Fraction(work[r][c])
        frac_rows.append([Fraction(x) / p for x in work[r]])
    for r in range(len(pivots) - 1, -1, -1):
        row = frac_rows[r]
        for above in range(r):
            factor = frac_rows[above][pivots[r]]
            if factor:
                target = frac_rows[above]
                for j in range(pivots[r], len(row)):
                    target[j] -= factor * row[j]
    return tuple(tuple(row) for row in frac_rows), tuple(pivots)
