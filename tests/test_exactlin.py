"""Exact linear algebra: RREF and kernels, subspace lattice, canonical forms."""

import itertools
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linalg_oracle import (
    Subspace,
    apply,
    coordinate_support,
    identity,
    image_under,
    intersect,
    kernel,
    matrix,
    preimage_under,
    rank,
    rref,
    span_sum,
    zero_matrix,
    zero_space,
)
from linvariants.exactlin import MAX_DECIMAL_EXPONENT, DimensionMismatchError, rational, vector


def subspace_sum_dim_identity(u: Subspace, w: Subspace) -> bool:
    """dim(U+W) + dim(U^W) == dim U + dim W."""
    return span_sum(u, w).dim + intersect(u, w).dim == u.dim + w.dim


def all_coordinate_subspaces(ambient_dim: int):
    """All 2^n coordinate spans, in subset order."""
    for r in range(ambient_dim + 1):
        for combo in itertools.combinations(range(ambient_dim), r):
            yield Subspace.coordinate(ambient_dim, combo)


small_fractions = st.builds(
    F, st.integers(-9, 9), st.integers(1, 4)
)


def matrices(rows, cols):
    return st.lists(
        st.lists(small_fractions, min_size=cols, max_size=cols),
        min_size=rows,
        max_size=rows,
    ).map(matrix)


def test_solve_identity():
    # A x = b is solved by the RREF of the augmented matrix [A | b]
    assert rref(matrix([[1, 5]])) == (((F(1), F(5)),), (0,))
    assert kernel(identity(3)) == []


def test_solve_zero_map():
    zero = zero_matrix(2, 2)
    assert rank(zero) == 0
    assert kernel(zero) == [(F(1), F(0)), (F(0), F(1))]


def test_solve_two_by_two():
    reduced, pivots = rref(matrix([[1, 2, 5], [3, 4, 11]]))
    assert pivots == (0, 1)
    assert [row[-1] for row in reduced] == [F(1), F(2)]
    assert kernel(matrix([[1, 2], [3, 4]])) == []


def test_solve_inconsistent_pivots_on_rhs():
    # x + y = 0 and x + y = 1: the augmented RREF has a pivot in the rhs column
    assert rref(matrix([[1, 1, 0], [1, 1, 1]]))[1] == (0, 2)


def test_solve_underdetermined_kernel():
    a = matrix([[1, 1, 0]])
    basis = kernel(a)
    assert len(basis) == 2
    for basis_vector in basis:
        assert apply(a, basis_vector) == (F(0),)
    assert rref(matrix([[1, 1, 0, 3]]))[1] == (0,)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4).flatmap(lambda r: st.tuples(st.just(r), st.integers(1, 4))).flatmap(
    lambda shape: st.tuples(
        matrices(*shape),
        st.lists(small_fractions, min_size=shape[1], max_size=shape[1]),
    )
))
def test_solve_then_substitute(data):
    a, x = data
    b = apply(a, x)
    # a consistent system has no pivot in the rhs column
    augmented = [row + (rhs,) for row, rhs in zip(a, b)]
    assert len(x) not in rref(augmented)[1]
    basis = kernel(a)
    assert rank(a) + len(basis) == len(x)
    for v in basis:
        assert not any(apply(a, v))


@settings(max_examples=50, deadline=None)
@given(
    st.integers(2, 8).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(st.lists(small_fractions, min_size=n, max_size=n), min_size=0, max_size=n),
            st.lists(st.lists(small_fractions, min_size=n, max_size=n), min_size=0, max_size=n),
        )
    )
)
def test_dimension_formula(data):
    n, span_u, span_w = data
    u = Subspace.from_vectors(n, span_u)
    w = Subspace.from_vectors(n, span_w)
    assert subspace_sum_dim_identity(u, w)


@settings(max_examples=50, deadline=None)
@given(
    st.integers(1, 5).flatmap(
        lambda n: st.lists(
            st.lists(small_fractions, min_size=n, max_size=n), min_size=0, max_size=n + 1
        ).map(lambda vs: (n, vs))
    )
)
def test_echelon_idempotent(data):
    n, vectors = data
    space = Subspace.from_vectors(n, vectors)
    again = Subspace.from_vectors(n, space.basis)
    assert space == again


def test_sum_with_zero_is_neutral():
    v = Subspace.from_vectors(3, [[1, 2, 3], [0, 1, 1]])
    assert span_sum(v, zero_space(3)) == v


def test_intersect_complementary_lines():
    x_axis = Subspace.from_vectors(2, [[1, 0]])
    y_axis = Subspace.from_vectors(2, [[0, 1]])
    assert intersect(x_axis, y_axis) == zero_space(2)


def test_preimage_of_steinberg_monodromy_top_line():
    # N on (f_1, f_0, f_-1) for n=1: N f_0 = f_1, N f_-1 = 2 f_0
    n_matrix = matrix([[0, 1, 0], [0, 0, 2], [0, 0, 0]])
    top = Subspace.from_vectors(3, [[1, 0, 0]])
    preimage = preimage_under(top, n_matrix)
    assert preimage == Subspace.from_vectors(3, [[1, 0, 0], [0, 1, 0]])


def test_image_under():
    t = matrix([[0, 1], [0, 0]])
    line = Subspace.from_vectors(2, [[0, 1]])
    assert image_under(line, t) == Subspace.from_vectors(2, [[1, 0]])


def test_membership():
    space = Subspace.from_vectors(3, [[1, 0, 1], [0, 1, 1]])
    assert span_sum(space, Subspace.from_vectors(3, [[1, 1, 2]])) == space
    assert span_sum(space, Subspace.from_vectors(3, [[1, 1, 1]])) != space


def test_ambient_mismatch_raises():
    with pytest.raises(DimensionMismatchError):
        intersect(zero_space(2), zero_space(3))
    with pytest.raises(DimensionMismatchError):
        apply(matrix([[1, 2]]), [1, 2, 3])
    with pytest.raises(DimensionMismatchError):
        matrix([[1, 2], [3]])


def test_coordinate_support():
    space = Subspace.coordinate(4, [2, 0])
    assert coordinate_support(space) == (0, 2)
    slanted = Subspace.from_vectors(2, [[1, 1]])
    assert coordinate_support(slanted) is None


def test_all_coordinate_subspaces_count():
    assert len(list(all_coordinate_subspaces(3))) == 8


def test_rational_coerces_exact_scalars():
    assert rational(3) == F(3)
    assert rational("-3/4") == F(-3, 4)
    assert rational(F(1, 2)) == F(1, 2)


def test_rational_reads_decimal_exponents_exactly():
    assert rational("1e3") == 1000
    assert rational("1.5e-3") == F(3, 2000)
    assert rational(f"-2E+{MAX_DECIMAL_EXPONENT}") == -2 * 10**MAX_DECIMAL_EXPONENT
    assert rational(f" 1e-{MAX_DECIMAL_EXPONENT} ") == F(1, 10**MAX_DECIMAL_EXPONENT)


@pytest.mark.parametrize(
    "text", [f"1e{MAX_DECIMAL_EXPONENT + 1}", f"-2.5E-{MAX_DECIMAL_EXPONENT + 1}"]
)
def test_rational_refuses_a_decimal_exponent_past_the_cap(text):
    with pytest.raises(ValueError, match="decimal exponent over"):
        rational(text)


def test_rational_refuses_bool():
    # bool is an int subclass; a JSON true must not pass as 1
    for value in (True, False):
        with pytest.raises(TypeError):
            rational(value)


@pytest.mark.parametrize("values", ["12", {"5": "x"}, {}])
def test_vector_refuses_a_string_and_a_mapping(values):
    # each is iterable, over its characters or its keys, but holds no scalars
    with pytest.raises(TypeError, match="not a sequence of exact scalars"):
        vector(values)


def test_rational_zero_denominator_names_the_input():
    with pytest.raises(ValueError, match="1/0"):
        rational("1/0")


def test_rank_and_kernel():
    a = matrix([[1, 2, 3], [2, 4, 6], [1, 0, 1]])
    assert rank(a) == 2
    basis = kernel(a)
    assert len(basis) == 1
    assert apply(a, basis[0]) == (F(0), F(0), F(0))


def _from_sympy(x) -> F:
    return F(int(x.p), int(x.q))


@settings(max_examples=60, deadline=None)
@given(
    st.tuples(st.integers(1, 4), st.integers(1, 5)).flatmap(
        # entries in [-2, 2] / {1, 2} make dependent rows and zero columns common
        lambda shape: st.lists(
            st.lists(st.builds(F, st.integers(-2, 2), st.integers(1, 2)),
                     min_size=shape[1], max_size=shape[1]),
            min_size=shape[0], max_size=shape[0],
        ).map(matrix)
    )
)
def test_elimination_matches_sympy(a):
    # an elimination written independently of exactlin
    sympy = pytest.importorskip("sympy")
    reference = sympy.Matrix(
        [[sympy.Rational(x.numerator, x.denominator) for x in row] for row in a]
    )
    expected, expected_pivots = reference.rref()
    reduced, pivots = rref(a)
    assert pivots == tuple(expected_pivots)
    assert reduced == tuple(
        tuple(_from_sympy(x) for x in expected.row(r)) for r in range(len(pivots))
    )
    assert rank(a) == reference.rank()
    assert kernel(a) == [tuple(_from_sympy(x) for x in v) for v in reference.nullspace()]
