"""sl(2) actions, duality, and the brute-force decomposition oracle."""

import random
from fractions import Fraction as F
from math import comb

import pytest

from linalg_oracle import mul, sub
from linvariants.exactlin import Matrix
from linvariants.sl2rep import (
    EndoElement,
    RepVector,
    act_on_end,
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
    return Matrix.from_columns([act(basis(m, i)).coeffs for i in range(m + 1)])


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
    assert lower(basis(2, 2)).is_zero()


def test_raise_kills_bottom_basis_vector():
    assert raise_(basis(5, 0)).is_zero()


def test_lower_displayed_action():
    assert lower(basis(3, 1)) == basis(3, 2).scale(2)


def test_dual_actions():
    assert lower_dual(basis(4, 0)).is_zero()
    assert lower_dual(basis(2, 1)) == basis(2, 0).scale(-2)
    assert raise_dual(basis(2, 1)) == basis(2, 2).scale(-2)


def test_duality_iso_rank_one():
    # e1 -> -e2^v
    assert duality_iso(basis(1, 0)) == basis(1, 1).scale(-1)


def test_duality_iso_weight_two():
    assert duality_iso(basis(2, 1)) == basis(2, 1).scale(F(-1, 2))


@pytest.mark.parametrize("m", range(0, 7))
def test_duality_round_trip(m):
    for _ in range(3):
        v = random_rep(m)
        assert duality_iso_inverse(duality_iso(v)) == v


@pytest.mark.parametrize("m", range(1, 11))
def test_sl2_bracket_on_rep(m):
    # (RL - LR) v = H v with H g_{m,i} = (m - 2i) g_{m,i}
    v = random_rep(m)
    bracket = raise_(lower(v)) + lower(raise_(v)).scale(-1)
    expected = RepVector(m, tuple((m - 2 * i) * c for i, c in enumerate(v.coeffs)))
    assert bracket == expected


@pytest.mark.parametrize("m", range(1, 11))
def test_sl2_bracket_on_dual(m):
    v = RepVector(m, tuple(F(rng.randint(-9, 9)) for _ in range(m + 1)))
    bracket = raise_dual(lower_dual(v)) + lower_dual(raise_dual(v)).scale(-1)
    expected = RepVector(m, tuple(-(m - 2 * i) * c for i, c in enumerate(v.coeffs)))
    assert bracket == expected


@pytest.mark.parametrize("m", range(1, 11))
def test_duality_intertwines(m):
    v = random_rep(m)
    assert duality_iso(lower(v)) == lower_dual(duality_iso(v))
    assert duality_iso(raise_(v)) == raise_dual(duality_iso(v))


def test_act_on_end_kills_identity():
    for n in range(1, 6):
        assert act_on_end("L", EndoElement.identity(n)).is_zero()
        assert act_on_end("R", EndoElement.identity(n)).is_zero()


@pytest.mark.parametrize("n", range(1, 7))
def test_act_on_end_matches_matrix_commutator(n):
    rho = {x: rep_action_matrix(x, n) for x in "LR"}
    for _ in range(3):
        t = random_endo(n)
        tm = Matrix(t.grid)
        for x in "LR":
            assert Matrix(act_on_end(x, t).grid) == sub(mul(rho[x], tm), mul(tm, rho[x]))


@pytest.mark.parametrize("n", range(1, 6))
def test_act_on_end_shifts_weight(n):
    t = random_endo(n)
    for w in range(-2 * n, 2 * n + 1, 2):
        piece = weight_component(t, w)
        lowered = act_on_end("L", piece)
        assert weight_component(lowered, w - 2) == lowered
        raised = act_on_end("R", piece)
        assert weight_component(raised, w + 2) == raised


def test_highest_weight_vector_top_is_corner():
    for n in range(1, 6):
        assert highest_weight_vector(n, n) == EndoElement.basis(n, 0, n)


def test_highest_weight_vector_k0_is_diagonal_ones():
    assert highest_weight_vector(1, 0) == EndoElement.identity(1)


@pytest.mark.parametrize("n", range(1, 9))
def test_highest_weight_vectors_killed_by_raising(n):
    for k in range(n + 1):
        v = highest_weight_vector(n, k)
        assert act_on_end("R", v).is_zero()
        assert weight_component(v, 2 * k) == v


def test_highest_weight_vector_range_error():
    with pytest.raises(ValueError):
        highest_weight_vector(3, 4)
    with pytest.raises(ValueError):
        highest_weight_vector(3, -1)


@pytest.mark.parametrize("n", range(1, 6))
def test_brute_force_basis_projects_basis_elements(n):
    for k in range(n + 1):
        coords = brute_force_project(highest_weight_vector(n, k), k)
        assert coords[0] == 1
        assert not any(coords[1:])


def test_brute_force_identity_has_no_higher_component():
    for n in range(1, 6):
        identity = EndoElement.identity(n)
        for k in range(1, n + 1):
            assert not any(brute_force_project(identity, k))


@pytest.mark.parametrize("n", range(1, 6))
def test_brute_force_reconstructs(n):
    # coordinates against {L^i v_{2j}} reassemble the input
    from linvariants.sl2rep import brute_force_coordinates

    t = random_endo(n)
    coords = brute_force_coordinates(t)
    rebuilt = EndoElement.zero(n)
    for (j, i), c in coords.items():
        term = highest_weight_vector(n, j)
        for _ in range(i):
            term = act_on_end("L", term)
        rebuilt = rebuilt + term.scale(c)
    assert rebuilt == t


