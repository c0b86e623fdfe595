"""Inverse Clebsch-Gordan recurrences, B-coefficient rows, projections."""

import random
from fractions import Fraction as F
from math import comb, factorial, gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linvariants.cg import InvalidWeightTripleError, cg_coefficient, valid_triple
from linvariants.plethysm import (
    BCOEFF_MAX_N,
    PROJECT_ENDO_MAX_N,
    DiagonalProjection,
    b_coefficient,
    b_row,
    cg_table,
    project_endomorphism_diagonal,
)
from kernel_oracles import b_special, fraction_cg_table
from linalg_oracle import project_endomorphism
from linvariants.sl2rep import EndoElement, act_on_end
from test_sl2rep import lower

rng = random.Random(97)


def test_invalid_triple_rejected():
    assert not valid_triple(2, 2, 3)
    with pytest.raises(InvalidWeightTripleError):
        cg_table(2, 2, 3)
    with pytest.raises(InvalidWeightTripleError):
        cg_table(2, 2, 6)


def test_off_stratum_vanishes():
    table = cg_table(3, 3, 4)
    offset = (3 + 3 - 4) // 2
    for u in range(4):
        for v in range(4):
            for w in range(5):
                if u + v - w != offset:
                    assert (u, v, w) not in table


def fraction_table(m, n, p):
    """cg_table with each (numerator, denominator) pair as a Fraction."""
    return {key: F(*pair) for key, pair in cg_table(m, n, p).items()}


def assert_same_table(m, n, p):
    table, oracle = cg_table(m, n, p), fraction_cg_table(m, n, p)
    assert table.keys() == oracle.keys(), (m, n, p)
    assert fraction_table(m, n, p) == oracle, (m, n, p)
    # each pair is the reduced fraction: a nonzero int over a coprime positive int
    assert all(type(x) is type(d) is int and x and d > 0 and gcd(x, d) == 1
               for x, d in table.values())


@pytest.mark.parametrize("m", range(0, 17))
def test_integer_table_equals_fraction_recurrence(m):
    for n in range(17):
        for p in range(abs(m - n), m + n + 1, 2):
            assert_same_table(m, n, p)


@pytest.mark.parametrize("m, n, p", [(150, 150, 150), (150, 149, 1), (78, 78, 76)])
def test_integer_table_equals_fraction_recurrence_at_large_sizes(m, n, p):
    assert_same_table(m, n, p)


@pytest.mark.parametrize("m", range(0, 13))
def test_closed_coefficient_equals_table(m):
    for n in range(13):
        for p in range(abs(m - n), min(m + n, 12) + 1, 2):
            table = fraction_table(m, n, p)
            for u in range(m + 1):
                for v in range(n + 1):
                    for w in range(p + 1):
                        expected = table.get((u, v, w), F(0))
                        assert cg_coefficient(m, n, p, u, v, w) == expected


def test_closed_coefficient_errors():
    with pytest.raises(InvalidWeightTripleError, match=r"V_3 does not occur in V_2 \(x\) V_2"):
        cg_coefficient(2, 2, 3, 0, 0, 0)
    for u, v, w in ((3, 0, 0), (0, -1, 0), (0, 0, 5)):
        with pytest.raises(ValueError, match="indices out of range for V_2 x V_2 -> V_4"):
            cg_coefficient(2, 2, 4, u, v, w)


def test_initial_value_example():
    assert cg_coefficient(2, 2, 2, 1, 0, 0) == -2


def test_one_recurrence_step_example():
    assert cg_coefficient(2, 2, 2, 1, 1, 1) == 0


@pytest.mark.parametrize(
    "m,n,p",
    [(m, n, p) for m in range(0, 6) for n in range(0, 6) for p in range(abs(m - n), m + n + 1, 2)],
)
def test_both_recurrences_hold(m, n, p):
    table = fraction_table(m, n, p)

    def c(u, v, w):
        if 0 <= u <= m and 0 <= v <= n and 0 <= w <= p:
            return table.get((u, v, w), F(0))
        return F(0)

    for u in range(m + 1):
        for v in range(n + 1):
            # lowering recurrence, the one not used for generation
            for w in range(p):
                assert (p - w) * c(u, v, w) == (m - u) * c(u + 1, v, w + 1) + (
                    n - v
                ) * c(u, v + 1, w + 1)
            # raising recurrence
            for w in range(1, p + 1):
                assert w * c(u, v, w) == u * c(u - 1, v, w - 1) + v * c(u, v - 1, w - 1)


@pytest.mark.parametrize("n", range(0, 9))
def test_closed_form_equals_recurrence(n):
    for k in range(n + 1):
        for i in range(n + 1):
            recurrence = F((-1) ** i * comb(n, i)) * cg_coefficient(n, n, 2 * k, i, n - i, k)
            assert b_coefficient(n, k, i) == recurrence


def test_printed_values():
    assert b_coefficient(1, 1, 0) == 1
    assert b_coefficient(1, 1, 1) == -1
    assert b_row(3, 3) == (36, -108, 108, -36)


def test_k_zero_row_is_constant_factorial():
    for n in range(0, 8):
        assert all(x == factorial(n) for x in b_row(n, 0))


def test_b_special_examples():
    assert b_special(3, 3, 0) == 36
    assert b_special(4, 3, 1) == -1152
    for i in range(1, 6):
        assert b_special(2 * i, 2 * i - 1, i) == 0  # n = 2i kills (n - 2i)


def test_b_special_domain():
    with pytest.raises(ValueError):
        b_special(5, 2, 0)
    with pytest.raises(ValueError):
        b_special(5, 5, 6)


@pytest.mark.parametrize("n", range(2, 13))
def test_b_special_matches_closed_form(n):
    for k in (n, n - 1, n - 2):
        for i in range(n + 1):
            assert b_special(n, k, i) == b_coefficient(n, k, i)


@pytest.mark.parametrize("n", [100, 301, BCOEFF_MAX_N])
def test_b_row_equals_the_special_values_at_large_n(n):
    for k in (n, n - 1, n - 2):
        assert b_row(n, k) == tuple(b_special(n, k, i) for i in range(n + 1))


def test_b_coefficient_range_errors():
    with pytest.raises(ValueError):
        b_coefficient(3, 4, 0)
    with pytest.raises(ValueError):
        b_coefficient(3, 0, 5)


def test_b_row_uses_only_plain_ints():
    # no Fraction per entry: the rows are the integers themselves
    assert all(type(x) is int for n in range(12) for k in range(n + 1) for x in b_row(n, k))
    assert type(b_coefficient(7, 3, 2)) is int


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 90).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, n), st.integers(0, n))))
def test_b_reflection_identity(nki):
    # B_{n,k,n-i} = (-1)^k B_{n,k,i}: swap a <-> b and i <-> n-i in the sum.
    # b_coefficient walks each sum on its own, so this does not assume the
    # reflection b_row uses for its upper half
    n, k, i = nki
    assert b_coefficient(n, k, n - i) == (-1) ** k * b_coefficient(n, k, i)
    assert b_row(n, k)[n - i] == b_coefficient(n, k, n - i)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 120).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, n))))
def test_b_row_sums_to_zero_past_k_zero(nk):
    # the identity endomorphism projects to 0 on every V_{2k}, k >= 1; the
    # k = 0 row is constant n!
    n, k = nk
    assert sum(b_row(n, k)) == (0 if k else (n + 1) * factorial(n))


def proportional(xs, ys):
    """One nonzero global scalar relating the two sequences."""
    scalar = None
    for x, y in zip(xs, ys):
        if (x == 0) != (y == 0):
            return False
        if x != 0:
            if scalar is None:
                scalar = F(y) / F(x)
            elif F(y) / F(x) != scalar:
                return False
    return scalar is not None and scalar != 0


@pytest.mark.parametrize("n", range(2, 11))
def test_difference_row_proportional_to_binomial_pattern(n):
    # proportionality only; the absolute constant is recorded in the
    # documentation, not pinned here
    diffs = [
        b_coefficient(2 * n, 2 * n - 1, n + i) - b_coefficient(2 * n, 2 * n - 1, n - i)
        for i in range(1, n + 1)
    ]
    pattern = [F((-1) ** i * comb(2 * n, n + i) * i) for i in range(1, n + 1)]
    assert proportional(pattern, diffs)


@pytest.mark.parametrize("n", range(1, 6))
def test_cubic_row_proportional(n):
    m = 4 * n - 1
    row = [b_coefficient(m, m - 2, i) for i in range(m + 1)]
    pattern = [
        F(
            (-1) ** i
            * comb(m, i)
            * (m**3 - (4 * i + 1) * m**2 + (4 * i**2 + 2 * i) * m - 2 * i**2)
        )
        for i in range(m + 1)
    ]
    assert proportional(pattern, row)


def test_diagonal_projection_identity_has_no_higher_component():
    for n in range(1, 6):
        for k in range(1, n + 1):
            result = project_endomorphism_diagonal(n, k, [1] * (n + 1))
            assert result.middle == 0
            assert not any(result.tail)


def test_diagonal_projection_rank_one():
    result = project_endomorphism_diagonal(1, 1, [F(3), F(5)])
    assert result.middle == 3 - 5  # a_0 - a_1


def test_diagonal_projection_length_mismatch():
    with pytest.raises(Exception):
        project_endomorphism_diagonal(2, 1, [1, 2])


def test_diagonal_projection_errors_in_order():
    # the length first, then B's range check; only n = -1 reaches the k check
    with pytest.raises(ValueError, match=r"^diagonal must have length 3$"):
        project_endomorphism_diagonal(2, 5, [1, 2])
    with pytest.raises(ValueError, match=r"^need 0 <= k, i <= n, got k=3, i=0, n=2$"):
        project_endomorphism_diagonal(2, 3, [1, 2, 3])
    with pytest.raises(ValueError, match=r"^need 0 <= k <= n, got k=0, n=-1$"):
        project_endomorphism_diagonal(-1, 0, [])


def full_projection_of_diagonal(n, k, diag):
    full = project_endomorphism(EndoElement.diagonal(diag), k).coeffs
    assert not any(full[:k])  # weight 0: only g_{2k,k} and the tail can be nonzero
    return DiagonalProjection(full[k], full[k + 1 :])


@pytest.mark.parametrize("n", range(31))
def test_diagonal_projection_equals_the_full_projection(n):
    for k in range(n + 1):
        diag = [F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n + 1)]
        assert project_endomorphism_diagonal(n, k, diag) == full_projection_of_diagonal(n, k, diag)


def test_diagonal_projection_equals_the_full_projection_at_the_cap():
    n, k = PROJECT_ENDO_MAX_N, PROJECT_ENDO_MAX_N // 2
    diag = [F(rng.randint(-9, 9)) for _ in range(n + 1)]
    assert project_endomorphism_diagonal(n, k, diag) == full_projection_of_diagonal(n, k, diag)


@pytest.mark.parametrize("n", range(1, 7))
def test_projection_map_is_equivariant(n):
    # psi o (1 x phi^-1) intertwines the lowering operator
    for k in range(n + 1):
        t = EndoElement(
            n,
            tuple(
                tuple(F(rng.randint(-5, 5)) for _ in range(n + 1)) for _ in range(n + 1)
            ),
        )
        assert project_endomorphism(act_on_end("L", t), k) == lower(
            project_endomorphism(t, k)
        )


@pytest.mark.parametrize("n", range(1, 7))
def test_upper_triangular_tail_vanishes(n):
    for k in range(n + 1):
        grid = [
            [F(rng.randint(-5, 5)) if j >= i else F(0) for j in range(n + 1)]
            for i in range(n + 1)
        ]
        t = EndoElement(n, tuple(tuple(row) for row in grid))
        image = project_endomorphism(t, k)
        assert not any(image.coeffs[k + 1 :])
