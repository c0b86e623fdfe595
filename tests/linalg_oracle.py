"""Linear-algebra oracles for the tests: rank, kernel and the subspace lattice.

The library keeps only the elimination it calls (`exactlin._rref` and its
forward Bareiss pass).  The tests check `phin`'s closed forms and coordinate
formulas against the plain definitions below, built on the same elimination.
"""

from fractions import Fraction

from linvariants.exactlin import (
    DimensionMismatchError,
    Matrix,
    Subspace,
    Vector,
    _bareiss_echelon,
    _to_integer_rows,
)


def identity(n: int) -> Matrix:
    return Matrix([[int(i == j) for j in range(n)] for i in range(n)])


def transpose(a: Matrix) -> Matrix:
    return Matrix(list(zip(*a.entries))) if a.rows else Matrix([])


def sub(a: Matrix, b: Matrix) -> Matrix:
    if (a.rows, a.cols) != (b.rows, b.cols):
        raise DimensionMismatchError("matrix shapes differ")
    return Matrix([[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a.entries, b.entries)])


def mul(a: Matrix, b: Matrix) -> Matrix:
    if a.cols != b.rows:
        raise DimensionMismatchError("inner dimensions differ")
    cols = list(zip(*b.entries))
    return Matrix([[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a.entries])


def integer_rank(rows: list[list[int]]) -> int:
    """Pivot count of the forward Bareiss pass; `rows` is consumed."""
    return len(_bareiss_echelon(rows)[1])


def rank(a: Matrix) -> int:
    return integer_rank(_to_integer_rows(a.entries))


def kernel(a: Matrix) -> list[Vector]:
    """Basis of the right kernel, one vector per free column."""
    reduced, pivots = a.rref()
    free = [c for c in range(a.cols) if c not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * a.cols
        v[f] = Fraction(1)
        for r, c in enumerate(pivots):
            v[c] = -reduced[r][f]
        basis.append(tuple(v))
    return basis


def kernel_of_rows(rows: list[Vector], dim: int) -> list[Vector]:
    """Kernel of the linear system given by `rows` inside Q^dim."""
    return kernel(Matrix(rows)) if rows else list(identity(dim).entries)


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


def image_under(u: Subspace, t: Matrix) -> Subspace:
    if t.cols != u.ambient_dim:
        raise DimensionMismatchError("map domain differs from ambient")
    return Subspace.from_vectors(t.rows, [t.apply(v) for v in u.basis])


def preimage_under(u: Subspace, t: Matrix) -> Subspace:
    """{v : t(v) in u}."""
    if t.rows != u.ambient_dim:
        raise DimensionMismatchError("map codomain differs from ambient")
    transposed = transpose(t)
    constraints = [transposed.apply(f) for f in annihilator_rows(u)]
    return Subspace.from_vectors(t.cols, kernel_of_rows(constraints, t.cols))


def coordinate_support(u: Subspace) -> tuple[int, ...] | None:
    """Positions spanned, if this is a coordinate subspace; else None."""
    support = []
    for row in u.basis:
        nonzero = [i for i, x in enumerate(row) if x]
        if len(nonzero) != 1:
            return None
        support.append(nonzero[0])
    return tuple(support)


def regular_by_rank(module, stable) -> list[tuple[int, ...]]:
    """The n-dimensional spans in `stable` that miss Fil^0, by one rank test each.

    D ^ Fil^0 is the kernel of the projection of Fil^0 onto the coordinates
    outside D, so it is zero exactly when that projection has full rank.
    """
    fil0 = _to_integer_rows(module.fil0.basis)

    def misses_fil0(span):
        outside = [c for c in range(module.dim) if c not in span]
        return integer_rank([[row[c] for c in outside] for row in fil0]) == len(fil0)

    return [span for span in stable if len(span) == module.n and misses_fil0(span)]
