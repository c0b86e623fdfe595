"""The sl(2) action on End(Sym^n V) and its decomposition oracle.

Conventions.  V has basis (e1, e2) with L e1 = e2, R e2 = e1.  Sym^m V has
basis g_{m,i} = e1^(m-i) e2^i for i = 0..m, on which

    L g_{m,i} = (m-i) g_{m,i+1},        R g_{m,i} = i g_{m,i-1},

with out-of-range basis vectors read as 0.  On the dual basis g_{m,i}^v,

    L g_i^v = -(m+1-i) g_{i-1}^v,       R g_i^v = -(i+1) g_{i+1}^v,

which is the action (X f)(w) = f(-X w); the tests build both actions and
the duality isomorphism from these formulas.  An endomorphism of Sym^n V
is a coefficient grid on g_{n,i} (x) g_{n,j}^v; that tensor has weight 2(j-i),
and the grid is literally the matrix of the endomorphism in the g-basis,
so the Leibniz action on tensors must agree with the matrix commutator
[rho(X), T] -- the test suite pins the sign conventions that way.  Only L
acts here (`act_on_end`), since the oracle only lowers; the tests raise by
the commutator.

The module also carries the decomposition machinery that everything else
is checked against: the highest-weight vectors v_{2k} of the Sym^{2k}
constituents of End(Sym^n V), and a brute-force projector that expresses
an endomorphism in the basis {L^i v_{2k}} by solving one linear system per
weight.  Every entry of a block is an integer, so the block is built as ints
and inverted by fraction-free Gauss-Jordan elimination: each pivot clears
its column above and below by the two-term minor update, which keeps every
entry a minor of the input instead of letting numerators and denominators
blow up independently.  The inverse stays integer rows over the last pivot,
and a diagonal is scaled to integers once, so each coordinate is one integer
dot product and one Fraction.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, lcm
from operator import mul

from .exactlin import DimensionMismatchError, rational


class InternalConsistencyError(RuntimeError):
    """An invariant that should hold by theory failed; indicates a bug."""


class EndoElement:
    """Element of End(Sym^n V); grid[i][j] is the g_{n,i} (x) g_{n,j}^v coefficient."""

    __slots__ = ("n", "grid")

    def __init__(self, n: int, grid: tuple[tuple[Fraction, ...], ...]):
        if len(grid) != n + 1 or any(len(r) != n + 1 for r in grid):
            raise DimensionMismatchError("grid has wrong shape")
        self.n, self.grid = n, grid

    @classmethod
    def diagonal(cls, diag) -> "EndoElement":
        diag = [rational(d) for d in diag]
        n = len(diag) - 1
        return cls(
            n,
            tuple(
                tuple(diag[a] if a == b else Fraction(0) for b in range(n + 1))
                for a in range(n + 1)
            ),
        )


def act_on_end(t: EndoElement) -> EndoElement:
    """Leibniz action of L on End(Sym^n V) = Sym^n V (x) dual."""
    n = t.n
    out = [[0] * (n + 1) for _ in range(n + 1)]
    for i in range(n + 1):
        for j in range(n + 1):
            c = t.grid[i][j]
            if not c:
                continue
            if i + 1 <= n:
                out[i + 1][j] += c * (n - i)
            if j - 1 >= 0:
                out[i][j - 1] += -c * (n + 1 - j)
    return EndoElement(n, tuple(tuple(row) for row in out))


def highest_weight_vector(n: int, k: int) -> EndoElement:
    """v_{2k} = sum_i C(k+i, i) g_{n,i} (x) g_{n,k+i}^v, killed by R, weight 2k."""
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    out = [[0] * (n + 1) for _ in range(n + 1)]
    for i in range(n - k + 1):
        out[i][k + i] = comb(k + i, i)
    return EndoElement(n, tuple(tuple(row) for row in out))


@lru_cache(maxsize=None)
def _brute_force_data(n: int, d: int) -> tuple[tuple[tuple[int, ...], ...], int]:
    """Inverse of the weight-2d block of the change of basis to {L^i v_{2j}},
    as integer rows over one denominator, the last pivot.

    L^i v_{2j} has weight 2(j-i) and g_{n,a} (x) g_{n,b}^v has weight 2(b-a),
    so the change of basis is block diagonal.  The weight-2d block has the
    members L^(j-d) v_{2j}, j = |d|..n, as columns and the coordinates
    (a, a+d) as rows: it is square of size n+1-|d|.  Singularity would
    contradict the decomposition and raises.
    """
    size = n + 1 - abs(d)
    columns = []
    for j in range(abs(d), n + 1):
        v = highest_weight_vector(n, j)
        for _ in range(j - d):
            v = act_on_end(v)
        columns.append(_diagonal(v, d))
    augmented = [
        list(row) + [int(r == c) for c in range(size)]
        for r, row in enumerate(zip(*columns))
    ]
    reduced, pivots = _bareiss_echelon(augmented)
    if pivots != list(range(size)):
        raise InternalConsistencyError(f"weight-{2 * d} block of {{L^i v_2j}} is singular")
    # every pivot equals the last one, so the left half is that pivot times the identity
    return tuple(tuple(row[size:]) for row in reduced), reduced[-1][size - 1]


def _diagonal(t: EndoElement, d: int) -> list[Fraction]:
    """The entries at (a, a+d), the weight-2d coordinates of t."""
    low = max(0, -d)
    return [t.grid[a][a + d] for a in range(low, low + t.n + 1 - abs(d))]


def brute_force_coordinates(t: EndoElement) -> dict[tuple[int, int], Fraction]:
    """Coordinates of t in the basis {L^i v_{2j}}, keyed by (j, i).

    Solved one weight block at a time; a zero diagonal of t has zero
    coordinates, and its block is not solved.
    """
    n = t.n
    coords: dict[tuple[int, int], Fraction] = {}
    for d in range(-n, n + 1):
        keys = [(j, j - d) for j in range(abs(d), n + 1)]
        x = _diagonal(t, d)
        if not any(x):
            coords.update(dict.fromkeys(keys, Fraction(0)))
            continue
        inverse, pivot = _brute_force_data(n, d)
        scale = lcm(*(a.denominator for a in x))
        x = [a.numerator * (scale // a.denominator) for a in x]
        coords.update(zip(keys, (Fraction(sum(map(mul, row, x)), pivot * scale) for row in inverse)))
    return coords


def brute_force_project(t: EndoElement, k: int) -> tuple[Fraction, ...]:
    """The V_{2k} block of t's coordinates, as (L^0 v_2k, ..., L^2k v_2k)."""
    if not 0 <= k <= t.n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={t.n}")
    coords = brute_force_coordinates(t)
    return tuple(coords[(k, i)] for i in range(2 * k + 1))


def _bareiss_echelon(rows: list[list[int]]) -> tuple[list[list[int]], list[int]]:
    """Fraction-free Gauss-Jordan elimination on integer rows (in place).

    Returns the reduced rows and the pivot column list.  Each pivot clears
    its column in every other row, above and below, by the two-term update
    row_i = (row_i * p - row_i[c] * pivot_row) // prev.  After step k every
    entry is a (k+1)x(k+1) minor of the input, so the divisions never
    truncate, and every pivot equals the last one, the determinant of the
    pivot block.  Rows past the rank end as zero rows.
    """
    pivots: list[int] = []
    prev = 1
    r = 0
    for c in range(len(rows[0]) if rows else 0):
        pivot_row = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        top = rows[r]
        p = top[c]
        for i, row_i in enumerate(rows):
            head = row_i[c]
            if i != r and (head or prev != p):
                rows[i] = [(x * p - head * y) // prev for x, y in zip(row_i, top)]
        prev = p
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots

