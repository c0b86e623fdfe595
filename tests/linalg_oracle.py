"""Linear-algebra oracles for the tests: row reduction, rank, kernel, the
subspace lattice and the full projection End(Sym^n V) -> Sym^{2k} V.

The library keeps only the elimination its brute-force oracle calls,
`sl2rep._bareiss_echelon`, a fraction-free Gauss-Jordan pass on integer
rows.  `rref` below runs a matrix of Fractions through that same pass, as
a sequence of rows.  The tests check `phin`'s closed forms and coordinate
formulas against the plain definitions below, built on that elimination:
matrix arithmetic on row tuples, dense subspaces, and a module's N and
Fil^0 built from the paper's formulas rather than read from the module.
They check `plethysm`'s closed-form diagonal projection against
`project_endomorphism`, which assembles the whole projection from the
inverse Clebsch-Gordan table.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd, lcm
from typing import Iterable, Sequence

from linvariants.exactlin import DimensionMismatchError, Vector, vector
from phin_oracle import CRYSTALLINE_NONSPLIT, CRYSTALLINE_SPLIT, STEINBERG
from linvariants.plethysm import cg_table
from linvariants.sl2rep import EndoElement, _bareiss_echelon

#: a matrix is a tuple of rows, as `rref` takes and returns them
Rows = tuple[Vector, ...]


def to_integer_rows(rows: Sequence[Sequence[Fraction]]) -> list[list[int]]:
    """Each row scaled to integers by its denominators' lcm, then divided by its content."""
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


def rref(rows: Sequence[Sequence[Fraction]]) -> tuple[Rows, tuple[int, ...]]:
    """Reduced row echelon form; zero rows are dropped."""
    work, pivots = _bareiss_echelon(to_integer_rows(rows))
    # every pivot equals the last one, so each reduced row is its integer
    # row over that one pivot: one Fraction per entry, no back-substitution
    p = work[len(pivots) - 1][pivots[-1]] if pivots else 1
    return tuple(tuple(Fraction(x, p) for x in work[r]) for r in range(len(pivots))), tuple(pivots)


class Subspace:
    """Subspace of Q^n stored by its canonical RREF basis.

    Reduced row-echelon form is canonical: two subspaces are equal iff
    their stored bases are equal.
    """

    __slots__ = ("ambient_dim", "basis")

    def __init__(self, ambient_dim: int, basis: tuple[Vector, ...]):
        # trusted constructor; use from_vectors for arbitrary spans
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "basis", basis)

    def __setattr__(self, name, value):
        raise AttributeError("Subspace is immutable")

    @classmethod
    def from_vectors(cls, ambient_dim: int, vectors: Iterable[Sequence]) -> "Subspace":
        rows = [vector(v) for v in vectors]
        for v in rows:
            if len(v) != ambient_dim:
                raise DimensionMismatchError("spanning vector has wrong length")
        basis, _ = rref(rows)
        return cls(ambient_dim, basis)

    @classmethod
    def coordinate(cls, ambient_dim: int, positions: Iterable[int]) -> "Subspace":
        # sorted unit vectors are already in reduced row-echelon form
        basis = []
        for pos in sorted(set(positions)):
            if not 0 <= pos < ambient_dim:
                raise DimensionMismatchError("coordinate position out of range")
            basis.append(tuple(Fraction(int(j == pos)) for j in range(ambient_dim)))
        return cls(ambient_dim, tuple(basis))

    @property
    def dim(self) -> int:
        return len(self.basis)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subspace)
            and self.ambient_dim == other.ambient_dim
            and self.basis == other.basis
        )

    def __hash__(self) -> int:
        return hash((self.ambient_dim, self.basis))

    def __repr__(self) -> str:
        return f"Subspace(dim={self.dim}, ambient={self.ambient_dim})"


def matrix(entries: Iterable[Iterable]) -> Rows:
    """A matrix as a tuple of rows of exact scalars; ragged rows are refused."""
    rows = tuple(vector(row) for row in entries)
    if rows and any(len(row) != len(rows[0]) for row in rows):
        raise DimensionMismatchError("ragged rows")
    return rows


def columns(a: Rows) -> int:
    return len(a[0]) if a else 0


def apply(a: Rows, v: Sequence) -> Vector:
    v = vector(v)
    if len(v) != columns(a):
        raise DimensionMismatchError("vector length differs from cols")
    return tuple(sum(x * y for x, y in zip(row, v)) for row in a)


def zero_matrix(rows: int, cols: int) -> Rows:
    return matrix([[0] * cols for _ in range(rows)])


def identity(n: int) -> Rows:
    return matrix([[int(i == j) for j in range(n)] for i in range(n)])


def transpose(a: Rows) -> Rows:
    return tuple(zip(*a))


def sub(a: Rows, b: Rows) -> Rows:
    if (len(a), columns(a)) != (len(b), columns(b)):
        raise DimensionMismatchError("matrix shapes differ")
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mul(a: Rows, b: Rows) -> Rows:
    if columns(a) != len(b):
        raise DimensionMismatchError("inner dimensions differ")
    cols = transpose(b)
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in cols) for row in a)


def integer_rank(rows: list[list[int]]) -> int:
    """Pivot count of the fraction-free Gauss-Jordan pass; `rows` is consumed."""
    return len(_bareiss_echelon(rows)[1])


def rank(a: Rows) -> int:
    return integer_rank(to_integer_rows(a))


def kernel(a: Rows) -> list[Vector]:
    """Basis of the right kernel, one vector per free column."""
    reduced, pivots = rref(a)
    cols = columns(a)
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * cols
        v[f] = Fraction(1)
        for r, c in enumerate(pivots):
            v[c] = -reduced[r][f]
        basis.append(tuple(v))
    return basis


def kernel_of_rows(rows: list[Vector], dim: int) -> list[Vector]:
    """Kernel of the linear system given by `rows` inside Q^dim."""
    return kernel(matrix(rows)) if rows else list(identity(dim))


def zero_space(ambient_dim: int) -> Subspace:
    return Subspace(ambient_dim, ())


def _same_ambient(u: Subspace, w: Subspace) -> None:
    if u.ambient_dim != w.ambient_dim:
        raise DimensionMismatchError("ambient dimensions differ")


def span_sum(u: Subspace, w: Subspace) -> Subspace:
    _same_ambient(u, w)
    return Subspace.from_vectors(u.ambient_dim, u.basis + w.basis)


def contains(space: Subspace, other: Subspace) -> bool:
    return span_sum(space, other) == space


def annihilator_rows(u: Subspace) -> list[Vector]:
    """Functionals cutting out the subspace; empty for the full space."""
    return kernel_of_rows(list(u.basis), u.ambient_dim)


def intersect(u: Subspace, w: Subspace) -> Subspace:
    _same_ambient(u, w)
    constraints = annihilator_rows(u) + annihilator_rows(w)
    return Subspace.from_vectors(u.ambient_dim, kernel_of_rows(constraints, u.ambient_dim))


def image_under(u: Subspace, t: Rows) -> Subspace:
    if columns(t) != u.ambient_dim:
        raise DimensionMismatchError("map domain differs from ambient")
    return Subspace.from_vectors(len(t), [apply(t, v) for v in u.basis])


def preimage_under(u: Subspace, t: Rows) -> Subspace:
    """{v : t(v) in u}."""
    if len(t) != u.ambient_dim:
        raise DimensionMismatchError("map codomain differs from ambient")
    transposed = transpose(t)
    constraints = [apply(transposed, f) for f in annihilator_rows(u)]
    return Subspace.from_vectors(columns(t), kernel_of_rows(constraints, columns(t)))


def coordinate_support(u: Subspace) -> tuple[int, ...] | None:
    """Positions spanned, if this is a coordinate subspace; else None."""
    support = []
    for row in u.basis:
        nonzero = [i for i, x in enumerate(row) if x]
        if len(nonzero) != 1:
            return None
        support.append(nonzero[0])
    return tuple(support)


def monodromy_matrix(module) -> Rows:
    """Dense N in the f-basis: N f_i = (n - i) f_{i+1} for steinberg, else 0.

    This is the derivation extending N e2 = e1, N e1 = 0.
    """
    n, dim = module.n, module.dim
    entries = [[Fraction(0)] * dim for _ in range(dim)]
    if module.case == STEINBERG:
        for i in range(-n, n):
            entries[n - (i + 1)][n - i] = Fraction(n - i)
    return matrix(entries)


def fil0_space(module) -> Subspace:
    """Span of (c1 e1 + c2 e2)^n e1^a e2^(n-a), a = 0..n, in f-coordinates.

    The root (c1, c2) is (-L, 1) for steinberg, (0, 1) for crystalline_split
    and (1, 1) for crystalline_nonsplit.  The monomial e1^a e2^(2n-a) is
    f_{a-n}, at coordinate 2n - a.
    """
    n = module.n
    if module.case == STEINBERG:
        c1, c2 = -module.l_invariant, 1
    else:
        c1, c2 = {CRYSTALLINE_SPLIT: (0, 1), CRYSTALLINE_NONSPLIT: (1, 1)}[module.case]
    base = [Fraction(comb(n, t) * c1**t * c2 ** (n - t)) for t in range(n + 1)]
    vectors = []
    for a in range(n + 1):
        row = [Fraction(0)] * (2 * n + 1)
        for t, c in enumerate(base):
            row[2 * n - (t + a)] = c
        vectors.append(row)
    return Subspace.from_vectors(2 * n + 1, vectors)


def regular_by_rank(module, stable) -> list[tuple[int, ...]]:
    """The n-dimensional spans in `stable` that miss Fil^0, by one rank test each.

    D ^ Fil^0 is the kernel of the projection of Fil^0 onto the coordinates
    outside D, so it is zero exactly when that projection has full rank.
    """
    fil0 = to_integer_rows(fil0_space(module).basis)

    def misses_fil0(span):
        outside = [c for c in range(module.dim) if c not in span]
        return integer_rank([[row[c] for c in outside] for row in fil0]) == len(fil0)

    return [span for span in stable if len(span) == module.n and misses_fil0(span)]


@dataclass(frozen=True)
class RepVector:
    """Element of Sym^m V in the basis (g_{m,i}), or of its dual in (g_{m,i}^v)."""

    m: int
    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.coeffs) != self.m + 1:
            raise DimensionMismatchError("coefficient vector has wrong length")


def project_endomorphism(t: EndoElement, k: int) -> RepVector:
    """Projection End(Sym^n V) -> Sym^{2k} V through psi_{n,n,2k} o (1 (x) phi_n^{-1}).

    g_{n,i} (x) g_{n,j}^v maps to (-1)^j C(n,j) sum_w C_{n,n,2k}^{i,n-j,w} g_{2k,w}.
    """
    n = t.n
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    table = cg_table(n, n, 2 * k)
    out = [Fraction(0)] * (2 * k + 1)
    for i in range(n + 1):
        for j in range(n + 1):
            c = t.grid[i][j]
            if not c:
                continue
            scale = c * (-1) ** j * comb(n, j)
            for w in range(2 * k + 1):
                coeff = table.get((i, n - j, w))
                if coeff:
                    out[w] += scale * coeff
    return RepVector(2 * k, tuple(out))
