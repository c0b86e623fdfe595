"""sl(2) actions, duality, and the brute-force decomposition oracle."""

import random
from fractions import Fraction as F
from math import comb

import pytest

from linalg_oracle import RepVector, apply, mul, rref, sub, transpose
from linvariants import sl2rep
from linvariants.exactlin import DimensionMismatchError
from linvariants.sl2rep import (
    EndoElement,
    InternalConsistencyError,
    act_on_end,
    brute_force_coordinates,
    brute_force_project,
    highest_weight_vector,
)

rng = random.Random(20240811)


def basis(m, i):
    """The basis vector g_{m,i} of Sym^m V (or g_{m,i}^v of its dual)."""
    return RepVector(m, tuple(F(int(j == i)) for j in range(m + 1)))


# The actions on Sym^m V and its dual, and the duality isomorphism, built
# from the formulas in the `sl2rep` docstring.
def lower(v: RepVector) -> RepVector:
    """L g_{m,i} = (m - i) g_{m,i+1}."""
    m = v.m
    out = [F(0)] * (m + 1)
    for i, c in enumerate(v.coeffs):
        if c and i + 1 <= m:
            out[i + 1] += c * (m - i)
    return RepVector(m, tuple(out))


def raise_(v: RepVector) -> RepVector:
    """R g_{m,i} = i g_{m,i-1}."""
    m = v.m
    out = [F(0)] * (m + 1)
    for i, c in enumerate(v.coeffs):
        if c and i - 1 >= 0:
            out[i - 1] += c * i
    return RepVector(m, tuple(out))


def lower_dual(v: RepVector) -> RepVector:
    """L g_i^v = -(m + 1 - i) g_{i-1}^v."""
    m = v.m
    out = [F(0)] * (m + 1)
    for i, c in enumerate(v.coeffs):
        if c and i - 1 >= 0:
            out[i - 1] += -c * (m + 1 - i)
    return RepVector(m, tuple(out))


def raise_dual(v: RepVector) -> RepVector:
    """R g_i^v = -(i + 1) g_{i+1}^v."""
    m = v.m
    out = [F(0)] * (m + 1)
    for i, c in enumerate(v.coeffs):
        if c and i + 1 <= m:
            out[i + 1] += -c * (i + 1)
    return RepVector(m, tuple(out))


def duality_iso(v: RepVector) -> RepVector:
    """Equivariant iso Sym^n V -> (Sym^n V)^v, g_{n,i} -> (-1)^(n-i) C(n,i)^-1 g_{n,n-i}^v."""
    n = v.m
    out = [F(0)] * (n + 1)
    for i, c in enumerate(v.coeffs):
        if c:
            out[n - i] += c * F((-1) ** (n - i), comb(n, i))
    return RepVector(n, tuple(out))


def duality_iso_inverse(v: RepVector) -> RepVector:
    """g_{n,j}^v -> (-1)^j C(n,j) g_{n,n-j}."""
    n = v.m
    out = [F(0)] * (n + 1)
    for j, c in enumerate(v.coeffs):
        if c:
            out[n - j] += c * F((-1) ** j * comb(n, j))
    return RepVector(n, tuple(out))


def random_rep(m):
    return RepVector(m, tuple(F(rng.randint(-9, 9)) for _ in range(m + 1)))


def rep_action_matrix(x, m):
    """Matrix of L or R on Sym^m V in the g-basis."""
    act = lower if x == "L" else raise_
    return transpose([act(basis(m, i)).coeffs for i in range(m + 1)])


def random_endo(n):
    return EndoElement(
        n, tuple(tuple(F(rng.randint(-9, 9)) for _ in range(n + 1)) for _ in range(n + 1))
    )


def weight_component(t, w):
    """Restrict t to grid positions (i, j) with 2(j - i) == w."""
    return EndoElement(
        t.n,
        tuple(
            tuple(x if 2 * (j - i) == w else F(0) for j, x in enumerate(row))
            for i, row in enumerate(t.grid)
        ),
    )


def test_lower_kills_top_basis_vector():
    assert not any(lower(basis(2, 2)).coeffs)


def test_raise_kills_bottom_basis_vector():
    assert not any(raise_(basis(5, 0)).coeffs)


def test_lower_displayed_action():
    assert lower(basis(3, 1)) == RepVector(3, (0, 0, 2, 0))


def test_dual_actions():
    assert not any(lower_dual(basis(4, 0)).coeffs)
    assert lower_dual(basis(2, 1)) == RepVector(2, (-2, 0, 0))
    assert raise_dual(basis(2, 1)) == RepVector(2, (0, 0, -2))


def test_duality_iso_rank_one():
    # e1 -> -e2^v
    assert duality_iso(basis(1, 0)) == RepVector(1, (0, -1))


def test_duality_iso_weight_two():
    assert duality_iso(basis(2, 1)) == RepVector(2, (0, F(-1, 2), 0))


@pytest.mark.parametrize("m", range(0, 7))
def test_duality_round_trip(m):
    for _ in range(3):
        v = random_rep(m)
        assert duality_iso_inverse(duality_iso(v)) == v


@pytest.mark.parametrize("m", range(1, 11))
def test_sl2_bracket_on_rep(m):
    # (RL - LR) v = H v with H g_{m,i} = (m - 2i) g_{m,i}
    v = random_rep(m)
    bracket = sub([raise_(lower(v)).coeffs], [lower(raise_(v)).coeffs])[0]
    assert bracket == tuple((m - 2 * i) * c for i, c in enumerate(v.coeffs))


@pytest.mark.parametrize("m", range(1, 11))
def test_sl2_bracket_on_dual(m):
    v = RepVector(m, tuple(F(rng.randint(-9, 9)) for _ in range(m + 1)))
    bracket = sub([raise_dual(lower_dual(v)).coeffs], [lower_dual(raise_dual(v)).coeffs])[0]
    assert bracket == tuple(-(m - 2 * i) * c for i, c in enumerate(v.coeffs))


@pytest.mark.parametrize("m", range(1, 11))
def test_duality_intertwines(m):
    v = random_rep(m)
    assert duality_iso(lower(v)) == lower_dual(duality_iso(v))
    assert duality_iso(raise_(v)) == raise_dual(duality_iso(v))


def commutator(x, t):
    """[rho(x), t] for x = L or R: the test-side action on End(Sym^n V)."""
    rho = rep_action_matrix(x, t.n)
    return EndoElement(t.n, sub(mul(rho, t.grid), mul(t.grid, rho)))


def test_act_on_end_kills_identity():
    for n in range(1, 6):
        identity = EndoElement.diagonal([1] * (n + 1))
        assert not any(any(row) for row in act_on_end(identity).grid)
        assert not any(any(row) for row in commutator("R", identity).grid)


@pytest.mark.parametrize("n", range(1, 7))
def test_act_on_end_matches_matrix_commutator(n):
    for _ in range(3):
        t = random_endo(n)
        assert act_on_end(t).grid == commutator("L", t).grid


@pytest.mark.parametrize("n", range(1, 6))
def test_act_on_end_shifts_weight(n):
    t = random_endo(n)
    for w in range(-2 * n, 2 * n + 1, 2):
        piece = weight_component(t, w)
        lowered = act_on_end(piece)
        assert weight_component(lowered, w - 2).grid == lowered.grid
        raised = commutator("R", piece)
        assert weight_component(raised, w + 2).grid == raised.grid


def test_highest_weight_vector_top_is_corner():
    for n in range(1, 6):
        corner = [[int((a, b) == (0, n)) for b in range(n + 1)] for a in range(n + 1)]
        assert highest_weight_vector(n, n).grid == tuple(map(tuple, corner))


def test_highest_weight_vector_k0_is_diagonal_ones():
    assert highest_weight_vector(1, 0).grid == ((1, 0), (0, 1))


@pytest.mark.parametrize("n", range(1, 9))
def test_highest_weight_vectors_killed_by_raising(n):
    for k in range(n + 1):
        v = highest_weight_vector(n, k)
        assert not any(any(row) for row in commutator("R", v).grid)
        assert weight_component(v, 2 * k).grid == v.grid


@pytest.mark.parametrize(
    "grid", [((F(0),) * 3,) * 2, ((F(0),) * 2,) * 3, ((F(0),) * 3, (F(0),) * 3, (F(0),) * 2)]
)
def test_endo_element_refuses_a_wrong_shape(grid):
    with pytest.raises(DimensionMismatchError, match="wrong shape"):
        EndoElement(2, grid)


def test_highest_weight_vector_range_error():
    with pytest.raises(ValueError):
        highest_weight_vector(3, 4)
    with pytest.raises(ValueError):
        highest_weight_vector(3, -1)


def ungraded_coordinates(t):
    """Coordinates in {L^i v_{2j}} by one (n+1)^2 x 2(n+1)^2 elimination.

    The change of basis over all of End(Sym^n V) at once, with no use of the
    weight grading: the oracle for the library's one-block-per-weight solve.
    """
    n = t.n
    columns, keys = [], []
    for j in range(n + 1):
        v = highest_weight_vector(n, j)
        for i in range(2 * j + 1):
            columns.append([x for row in v.grid for x in row])
            keys.append((j, i))
            v = act_on_end(v)
    dim = (n + 1) ** 2
    augmented = [
        list(row) + [F(int(r == c)) for c in range(dim)]
        for r, row in enumerate(zip(*columns))
    ]
    reduced, pivots = rref(augmented)
    assert pivots == tuple(range(dim))
    inverse = tuple(row[dim:] for row in reduced)
    return dict(zip(keys, apply(inverse, [x for row in t.grid for x in row])))


def with_zero_diagonals(t, weights):
    """t with the diagonals (a, a + d) cleared for each d in `weights`."""
    return EndoElement(
        t.n,
        tuple(
            tuple(F(0) if j - i in weights else x for j, x in enumerate(row))
            for i, row in enumerate(t.grid)
        ),
    )


@pytest.mark.parametrize("n", range(0, 7))
def test_graded_coordinates_match_the_ungraded_solve(n):
    for _ in range(2):
        t = random_endo(n)
        assert brute_force_coordinates(t) == ungraded_coordinates(t)
        cleared = set(rng.sample(range(-n, n + 1), rng.randint(1, 2 * n + 1)))
        sparse = with_zero_diagonals(t, cleared)
        assert brute_force_coordinates(sparse) == ungraded_coordinates(sparse)


def test_zero_diagonals_solve_no_block(monkeypatch):
    solved = []
    blocks = sl2rep._brute_force_data

    def recording(n, d):
        solved.append(d)
        return blocks(n, d)

    monkeypatch.setattr(sl2rep, "_brute_force_data", recording)
    n = 6
    brute_force_coordinates(EndoElement.diagonal(range(1, n + 2)))
    assert solved == [0]
    solved.clear()
    dense = EndoElement(n, tuple(tuple(F(1 + a + 2 * b) for b in range(n + 1)) for a in range(n + 1)))
    coords = brute_force_coordinates(with_zero_diagonals(dense, {-6, -1, 2, 3}))
    assert sorted(set(range(-n, n + 1)) - set(solved)) == [-6, -1, 2, 3]
    assert all(coords[(j, j - d)] == 0 for d in (-6, -1, 2, 3) for j in range(abs(d), n + 1))
    solved.clear()
    brute_force_coordinates(EndoElement(n, ((F(0),) * (n + 1),) * (n + 1)))
    assert solved == []


def test_brute_force_blocks_are_square_per_weight():
    for n in range(0, 7):
        for d in range(-n, n + 1):
            inverse, pivot = sl2rep._brute_force_data(n, d)
            assert len(inverse) == n + 1 - abs(d)
            assert all(len(row) == n + 1 - abs(d) for row in inverse)
            assert {type(x) for row in inverse for x in row} | {type(pivot)} == {int}


def test_singular_block_raises(monkeypatch):
    # with L acting as zero, every member L^i v_2j with i > 0 vanishes
    zero = EndoElement(2, ((F(0),) * 3,) * 3)
    monkeypatch.setattr(sl2rep, "act_on_end", lambda t: zero)
    with pytest.raises(InternalConsistencyError, match="weight-0 block"):
        sl2rep._brute_force_data.__wrapped__(2, 0)


@pytest.mark.parametrize("n", range(1, 15))
def test_brute_force_basis_projects_basis_elements(n):
    for k in range(n + 1):
        coords = brute_force_project(highest_weight_vector(n, k), k)
        assert coords[0] == 1
        assert not any(coords[1:])


def test_brute_force_identity_has_no_higher_component():
    for n in range(1, 6):
        identity = EndoElement.diagonal([1] * (n + 1))
        for k in range(1, n + 1):
            assert not any(brute_force_project(identity, k))


@pytest.mark.parametrize("n", range(1, 15))
def test_brute_force_reconstructs(n):
    # coordinates against {L^i v_{2j}} reassemble the input
    t = random_endo(n)
    coords = brute_force_coordinates(t)
    rebuilt = [[F(0)] * (n + 1) for _ in range(n + 1)]
    for (j, i), c in coords.items():
        term = highest_weight_vector(n, j)
        for _ in range(i):
            term = act_on_end(term)
        for a, row in enumerate(term.grid):
            for b, x in enumerate(row):
                rebuilt[a][b] += c * x
    assert tuple(map(tuple, rebuilt)) == t.grid
