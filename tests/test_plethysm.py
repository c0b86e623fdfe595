"""Inverse Clebsch-Gordan recurrences, B-coefficient rows, projections."""

import json
import random
from fractions import Fraction as F
from math import comb, factorial
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linvariants import plethysm
from linvariants.cli import main
from linvariants.plethysm import (
    BCOEFF_MAX_N,
    PROJECT_ENDO_MAX_N,
    DiagonalProjection,
    InvalidWeightTripleError,
    _cmd_cg,
    b_row,
    cg_table,
    project_endomorphism_diagonal,
    valid_triple,
)
from kernel_oracles import b_special, fraction_b_coefficient, fraction_cg_table, unrolled_cg_coefficient
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


def assert_same_table(m, n, p):
    table, oracle = cg_table(m, n, p), fraction_cg_table(m, n, p)
    assert table.keys() == oracle.keys(), (m, n, p)
    assert table == oracle, (m, n, p)
    # every entry is a nonzero int, and `cg --table` prints them in the table's order
    assert all(type(x) is int and x for x in table.values())
    assert list(table) == sorted(table), (m, n, p)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 30), st.integers(0, 30))
def test_cg_table_holds_ints_in_sorted_key_order(m, n):
    # C(w,a) u!/(u-a)! v!/(v-w+a)! / w! = C(u,a) C(v,w-a): no entry has a denominator
    for p in range(abs(m - n), m + n + 1, 2):
        assert_same_table(m, n, p)


@pytest.mark.parametrize("m", range(0, 17))
def test_integer_table_equals_fraction_recurrence(m):
    for n in range(17):
        for p in range(abs(m - n), m + n + 1, 2):
            assert_same_table(m, n, p)


@pytest.mark.parametrize("m, n, p", [(150, 150, 150), (150, 149, 1), (78, 78, 76)])
def test_integer_table_equals_fraction_recurrence_at_large_sizes(m, n, p):
    assert_same_table(m, n, p)


def one_entry(m, n, p, u, v, w) -> int:
    """The `cg --u --v --w` handler's answer, which stops the columns at u."""
    args = SimpleNamespace(m=m, n=n, p=p, u=u, v=v, w=w, table=False)
    return int(json.loads(_cmd_cg(args)[0])["value"])


@pytest.mark.parametrize("m", range(0, 13))
def test_closed_coefficient_equals_table(m):
    # the unrolled sum, an integer with no division, is 0 exactly where the
    # table holds no entry, for every p of V_m (x) V_n, and the one-entry
    # handler, which builds no table, answers the same
    for n in range(13):
        for p in range(abs(m - n), m + n + 1, 2):
            table = cg_table(m, n, p)
            for u in range(m + 1):
                for v in range(n + 1):
                    for w in range(p + 1):
                        expected = table.get((u, v, w), 0)
                        assert unrolled_cg_coefficient(m, n, p, u, v, w) == expected
                        assert one_entry(m, n, p, u, v, w) == expected


@pytest.mark.parametrize("m, n, p", [(150, 150, 150), (150, 150, 0), (150, 0, 150),
                                     (1, 150, 149), (150, 149, 1), (150, 150, 2)])
def test_one_entry_at_the_stratum_corners_of_the_cap(m, n, p):
    # the first and last two columns u, each at both ends of its w range
    table, s0 = cg_table(m, n, p), (m + n - p) // 2
    for u in sorted({0, 1, m - 1, m}):
        for w in {max(0, u - s0), min(p, n + u - s0)}:
            v = s0 + w - u
            expected = unrolled_cg_coefficient(m, n, p, u, v, w)
            assert table.get((u, v, w), 0) == expected != 0
            assert one_entry(m, n, p, u, v, w) == expected


def test_one_entry_off_the_stratum_builds_no_column(monkeypatch):
    def refused(*args):
        raise AssertionError("an off-stratum entry built a column")

    monkeypatch.setattr(plethysm, "_cg_columns", refused)
    monkeypatch.setattr(plethysm, "cg_table", refused)
    assert one_entry(150, 150, 150, 150, 0, 0) == 0
    assert one_entry(150, 150, 150, 0, 150, 150) == 0


def cg_entry(capsys, *indices):
    """(exit code, JSON) of `cg --m --n --p --u --v --w` at `indices`."""
    argv = [f"--{name}={x}" for name, x in zip("mnpuvw", indices)]
    code = main(["cg", *argv])
    return code, json.loads(capsys.readouterr().out)


def test_closed_coefficient_errors(capsys):
    # the weight triple is checked before the indices, as the unrolled sum does
    for indices in ((2, 2, 3, 0, 0, 0), (2, 2, 3, 9, 0, 0)):
        assert cg_entry(capsys, *indices) == (2, {"error": {
            "code": "domain", "message": "V_3 does not occur in V_2 (x) V_2"}})
        with pytest.raises(InvalidWeightTripleError, match=r"V_3 does not occur in V_2 \(x\) V_2"):
            unrolled_cg_coefficient(*indices)
    for u, v, w in ((3, 0, 0), (0, -1, 0), (0, 0, 5)):
        assert cg_entry(capsys, 2, 2, 4, u, v, w) == (2, {"error": {
            "code": "domain", "message": "indices out of range for V_2 x V_2 -> V_4"}})
        with pytest.raises(ValueError, match="indices out of range for V_2 x V_2 -> V_4"):
            unrolled_cg_coefficient(2, 2, 4, u, v, w)


def test_initial_value_example(capsys):
    assert cg_table(2, 2, 2)[(1, 0, 0)] == -2
    assert cg_entry(capsys, 2, 2, 2, 1, 0, 0) == (0, {"value": "-2"})


def test_one_recurrence_step_example(capsys):
    assert (1, 1, 1) not in cg_table(2, 2, 2)
    assert cg_entry(capsys, 2, 2, 2, 1, 1, 1) == (0, {"value": "0"})


@pytest.mark.parametrize(
    "m,n,p",
    [(m, n, p) for m in range(0, 6) for n in range(0, 6) for p in range(abs(m - n), m + n + 1, 2)],
)
def test_both_recurrences_hold(m, n, p):
    table = cg_table(m, n, p)

    def c(u, v, w):
        if 0 <= u <= m and 0 <= v <= n and 0 <= w <= p:
            return table.get((u, v, w), 0)
        return 0

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
            recurrence = (-1) ** i * comb(n, i) * cg_table(n, n, 2 * k).get((i, n - i, k), 0)
            assert b_row(n, k)[i] == recurrence


def test_printed_values():
    assert b_row(1, 1) == (1, -1)
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
            assert b_special(n, k, i) == b_row(n, k)[i]


@pytest.mark.parametrize("n", [100, 301, BCOEFF_MAX_N])
def test_b_row_equals_the_special_values_at_large_n(n):
    for k in (n, n - 1, n - 2):
        assert b_row(n, k) == tuple(b_special(n, k, i) for i in range(n + 1))


def test_b_coefficient_range_errors(capsys):
    # `bcoeff --i` checks k and i at once, so an out-of-range k is not reported as i=0
    for k, i in ((4, 0), (0, 5), (4, 9), (-1, 2)):
        assert main(["bcoeff", "--n=3", f"--k={k}", f"--i={i}"]) == 2
        assert json.loads(capsys.readouterr().out) == {"error": {
            "code": "domain", "message": f"need 0 <= k, i <= n, got k={k}, i={i}, n=3"}}
    with pytest.raises(ValueError, match=r"^need 0 <= k, i <= n, got k=4, i=0, n=3$"):
        b_row(3, 4)


def test_b_row_uses_only_plain_ints():
    # no Fraction per entry: the rows are the integers themselves
    assert all(type(x) is int for n in range(12) for k in range(n + 1) for x in b_row(n, k))


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 90).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, n), st.integers(0, n))))
def test_b_reflection_identity(nki):
    # B_{n,k,n-i} = (-1)^k B_{n,k,i}: swap a <-> b and i <-> n-i in the sum.
    # The oracle sums each B term by term, so this does not assume the
    # reflection b_row uses for its upper half
    n, k, i = nki
    assert fraction_b_coefficient(n, k, n - i) == (-1) ** k * fraction_b_coefficient(n, k, i)
    assert b_row(n, k)[n - i] == fraction_b_coefficient(n, k, n - i)


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
    row = b_row(2 * n, 2 * n - 1)
    diffs = [row[n + i] - row[n - i] for i in range(1, n + 1)]
    pattern = [F((-1) ** i * comb(2 * n, n + i) * i) for i in range(1, n + 1)]
    assert proportional(pattern, diffs)


@pytest.mark.parametrize("n", range(1, 6))
def test_cubic_row_proportional(n):
    m = 4 * n - 1
    row = b_row(m, m - 2)
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
    # the identity is invariant, so it lies in V_0: its projection to V_2k is
    # sum_i B_{n,k,i}, which is 0 for k >= 1 and (n+1) n! at k = 0
    for n in range(40):
        for k in range(n + 1):
            row_sum = 0 if k else factorial(n + 1)
            assert sum(b_row(n, k)) == row_sum
            result = project_endomorphism_diagonal(n, k, [1] * (n + 1))
            assert result.middle == row_sum
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
        assert project_endomorphism(act_on_end(t), k) == lower(
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
