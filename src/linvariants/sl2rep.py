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
[rho(X), T] -- the test suite pins the sign conventions that way.

The module also carries the decomposition machinery that everything else
is checked against: the highest-weight vectors v_{2k} of the Sym^{2k}
constituents of End(Sym^n V), and a brute-force projector that expresses
an endomorphism in the basis {L^i v_{2k}} by solving a linear system.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb

from .exactlin import DimensionMismatchError, Matrix, rational

LOWER = "L"
RAISE = "R"


class InternalConsistencyError(RuntimeError):
    """An invariant that should hold by theory failed; indicates a bug."""


@dataclass(frozen=True)
class RepVector:
    """Element of Sym^m V in the basis (g_{m,i}), or of its dual in (g_{m,i}^v)."""

    m: int
    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.coeffs) != self.m + 1:
            raise DimensionMismatchError("coefficient vector has wrong length")

    @classmethod
    def zero(cls, m: int) -> "RepVector":
        return cls(m, (Fraction(0),) * (m + 1))

    def __add__(self, other: "RepVector") -> "RepVector":
        if self.m != other.m:
            raise DimensionMismatchError("weights differ")
        return RepVector(self.m, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def scale(self, c) -> "RepVector":
        c = rational(c)
        return RepVector(self.m, tuple(c * a for a in self.coeffs))

    def is_zero(self) -> bool:
        return not any(self.coeffs)


@dataclass(frozen=True)
class EndoElement:
    """Element of End(Sym^n V); grid[i][j] is the g_{n,i} (x) g_{n,j}^v coefficient."""

    n: int
    grid: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        if len(self.grid) != self.n + 1 or any(len(r) != self.n + 1 for r in self.grid):
            raise DimensionMismatchError("grid has wrong shape")

    @classmethod
    def zero(cls, n: int) -> "EndoElement":
        return cls(n, tuple((Fraction(0),) * (n + 1) for _ in range(n + 1)))

    @classmethod
    def basis(cls, n: int, i: int, j: int) -> "EndoElement":
        return cls(
            n,
            tuple(
                tuple(Fraction(int(a == i and b == j)) for b in range(n + 1))
                for a in range(n + 1)
            ),
        )

    @classmethod
    def identity(cls, n: int) -> "EndoElement":
        return cls(
            n,
            tuple(
                tuple(Fraction(int(a == b)) for b in range(n + 1)) for a in range(n + 1)
            ),
        )

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

    def __add__(self, other: "EndoElement") -> "EndoElement":
        if self.n != other.n:
            raise DimensionMismatchError("weights differ")
        return EndoElement(
            self.n,
            tuple(
                tuple(a + b for a, b in zip(ra, rb))
                for ra, rb in zip(self.grid, other.grid)
            ),
        )

    def scale(self, c) -> "EndoElement":
        c = rational(c)
        return EndoElement(self.n, tuple(tuple(c * a for a in row) for row in self.grid))

    def is_zero(self) -> bool:
        return not any(any(row) for row in self.grid)

    def flatten(self) -> tuple[Fraction, ...]:
        return tuple(x for row in self.grid for x in row)


def act_on_end(x: str, t: EndoElement) -> EndoElement:
    """Leibniz action of L or R on End(Sym^n V) = Sym^n V (x) dual."""
    if x not in (LOWER, RAISE):
        raise ValueError(f"operator must be {LOWER!r} or {RAISE!r}")
    n = t.n
    out = [[Fraction(0)] * (n + 1) for _ in range(n + 1)]
    for i in range(n + 1):
        for j in range(n + 1):
            c = t.grid[i][j]
            if not c:
                continue
            if x == LOWER:
                if i + 1 <= n:
                    out[i + 1][j] += c * (n - i)
                if j - 1 >= 0:
                    out[i][j - 1] += -c * (n + 1 - j)
            else:
                if i - 1 >= 0:
                    out[i - 1][j] += c * i
                if j + 1 <= n:
                    out[i][j + 1] += -c * (j + 1)
    return EndoElement(n, tuple(tuple(row) for row in out))


def highest_weight_vector(n: int, k: int) -> EndoElement:
    """v_{2k} = sum_i C(k+i, i) g_{n,i} (x) g_{n,k+i}^v, killed by R, weight 2k."""
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    out = [[Fraction(0)] * (n + 1) for _ in range(n + 1)]
    for i in range(n - k + 1):
        out[i][k + i] = Fraction(comb(k + i, i))
    return EndoElement(n, tuple(tuple(row) for row in out))


@lru_cache(maxsize=None)
def _brute_force_data(n: int):
    """Basis {L^i v_{2j}} of End(Sym^n V) and the inverse change of basis.

    The basis has sum_j (2j+1) = (n+1)^2 members; singularity of the
    assembled matrix would contradict the decomposition and raises.
    """
    vectors: list[tuple[Fraction, ...]] = []
    blocks: list[tuple[int, int]] = []  # (j, i) per basis member
    for j in range(n + 1):
        v = highest_weight_vector(n, j)
        for i in range(2 * j + 1):
            vectors.append(v.flatten())
            blocks.append((j, i))
            v = act_on_end(LOWER, v)
    basis_matrix = Matrix.from_columns(vectors)
    dim = (n + 1) ** 2
    if len(vectors) != dim:
        raise InternalConsistencyError("basis count is not (n+1)^2")
    augmented = Matrix(
        [list(row) + [Fraction(int(r == c)) for c in range(dim)]
         for r, row in enumerate(basis_matrix.entries)]
    )
    reduced, pivots = augmented.rref()
    if pivots != tuple(range(dim)):
        raise InternalConsistencyError("assembled {L^i v_2j} basis is singular")
    inverse = Matrix([row[dim:] for row in reduced])
    return blocks, inverse


def brute_force_coordinates(t: EndoElement) -> dict[tuple[int, int], Fraction]:
    """Coordinates of t in the basis {L^i v_{2j}}, keyed by (j, i)."""
    blocks, inverse = _brute_force_data(t.n)
    coords = inverse.apply(t.flatten())
    return dict(zip(blocks, coords))


def brute_force_project(t: EndoElement, k: int) -> tuple[Fraction, ...]:
    """The V_{2k} block of t's coordinates, as (L^0 v_2k, ..., L^2k v_2k)."""
    if not 0 <= k <= t.n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={t.n}")
    coords = brute_force_coordinates(t)
    return tuple(coords[(k, i)] for i in range(2 * k + 1))
