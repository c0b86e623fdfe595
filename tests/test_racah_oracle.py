"""An oracle from outside the repository's derivation: sympy's Clebsch-Gordan
coefficients, which `sympy.physics.wigner.clebsch_gordan` computes exactly from
Racah's formula.

The monomial basis g_{m,u} = e1^(m-u) e2^u of Sym^m V is the spin-m/2 state of
magnetic number m/2 - u scaled by c_{m,u} = sqrt(u! (m-u)!) (up to one constant
per m), so for each weight triple (m, n, p) the ratio

    C_{m,n,p}^{u,v,w} c_{p,w} / (CG(m/2, m/2-u; n/2, n/2-v | p/2, p/2-w) c_{m,u} c_{n,v})

is one constant over the stratum u + v - w = (m+n-p)/2, and the zeros agree.
B_{n,k,i} is the coefficient of g_{n,i} (x) g_{n,i}^v in the projection to
Sym^2k V at weight 0; the dual basis flips the sign of every other state, so

    B_{n,k,i} / ((-1)^i CG(n/2, n/2-i; n/2, i-n/2 | k, 0))

is one constant per (n, k).  Every ratio is compared as its sign and its
square, both exact rationals, so no float enters.
"""

from fractions import Fraction
from math import factorial

import pytest

from linvariants.plethysm import b_row, cg_table
from kernel_oracles import unrolled_cg_coefficient

sympy = pytest.importorskip("sympy")
from sympy.physics.wigner import clebsch_gordan  # noqa: E402


def half(x: int):
    return sympy.Rational(x, 2)


def signed_square(x) -> tuple[int, Fraction]:
    """(sign, square) of a nonzero real: an int, a Fraction, or a sympy
    rational times the square root of a rational, as Racah's formula gives."""
    x = sympy.sympify(x)
    square = x**2
    assert square.is_Rational, x
    return (1 if x.is_positive else -1), Fraction(int(square.p), int(square.q))


def ratio(ours, theirs, scale: Fraction) -> tuple[int, Fraction] | None:
    """ours * sqrt(scale) / theirs as (sign, square), or None where both vanish;
    a zero on one side only fails."""
    assert (ours == 0) == (theirs == 0), (ours, theirs)
    if ours == 0:
        return None
    (s1, q1), (s2, q2) = signed_square(ours), signed_square(theirs)
    return s1 * s2, q1 * scale / q2


@pytest.mark.parametrize("n", range(0, 13))
def test_b_row_is_a_racah_multiple(n):
    for k in range(n + 1):
        ratios = set()
        for i, b in enumerate(b_row(n, k)):
            cg = (-1) ** i * clebsch_gordan(half(n), half(n), k, half(n) - i, i - half(n), 0)
            ratios.add(ratio(b, cg, Fraction(1)))
        ratios.discard(None)
        assert len(ratios) == 1, (n, k, ratios)


def triples(top: int):
    for m in range(top + 1):
        for n in range(top + 1):
            for p in range(abs(m - n), m + n + 1, 2):
                yield m, n, p


@pytest.mark.parametrize("m, n, p", list(triples(6)))
def test_cg_table_is_a_racah_multiple(m, n, p):
    table = cg_table(m, n, p)
    ratios = set()
    for u in range(m + 1):
        for v in range(n + 1):
            w = u + v - (m + n - p) // 2
            if not 0 <= w <= p:
                continue
            ours = table.get((u, v, w), 0)
            assert ours == unrolled_cg_coefficient(m, n, p, u, v, w)
            cg = clebsch_gordan(half(m), half(n), half(p), half(m) - u, half(n) - v, half(p) - w)
            scale = Fraction(factorial(p - w) * factorial(w),
                             factorial(m - u) * factorial(u) * factorial(n - v) * factorial(v))
            ratios.add(ratio(ours, cg, scale))
    ratios.discard(None)
    assert len(ratios) == 1, ratios
