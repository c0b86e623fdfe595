"""Paper displays kept as test oracles: no request computes them this way.

`upi_eigenvalue_display` is the closed U_{p,i} eigenvalue families with
their combinatorial constants c_{i,nu,eps} (`c_constant`); the tests check
it against `weylhecke.hecke_diagonal` over every Weyl element, and the
constants against the one-term steps that `recover_characters` reads.
`theorem_evaluator` evaluates the published closed forms literally; the
tests check it against the generic L-invariant formula.
"""

from fractions import Fraction
from typing import Sequence

from linvariants.exactlin import rational
from linvariants.linv import Direction, _theorem_forms, rank1_combine
from linvariants.weylhecke import CharacterData, EigenMonomial, WeylElement, c_g_constant


def c_constant(g: int, i: int, w: WeylElement) -> Fraction:
    """c_{i,nu,eps} = sum_{nu(j)>i}(g+1-j) + 2 sum_{nu(j)<=i, eps(nu(j))=-1}(g+1-j) - g(g+1)/2."""
    if not 1 <= i <= g:
        raise ValueError("need 1 <= i <= g")
    total = Fraction(0)
    for j, image in enumerate(w.nu, 1):
        if image > i:
            total += g + 1 - j
        elif w.eps[image - 1] == -1:
            total += 2 * (g + 1 - j)
    return total - Fraction(g * (g + 1), 2)


def upi_eigenvalue_display(chi: CharacterData, i: int, w: WeylElement) -> EigenMonomial:
    """The closed U_{p,i} = [Iw beta_{g-i} Iw] eigenvalue families.

    For i < g:  p^{c_i} sigma^{-2} prod_{nu(j)>i} chi_j^{-1}
                prod_{nu(j)<=i, eps(nu(j))=-1} chi_j^{-2};
    for i = g:  p^{c_g} sigma^{-1} prod_{eps(nu(j))=-1} chi_j^{-1}.
    """
    g = chi.g
    if not 1 <= i <= g:
        raise ValueError("need 1 <= i <= g")
    if i == g:
        value = EigenMonomial.p_power(c_g_constant(g, w)) * chi.sigma**-1
        for j, image in enumerate(w.nu, 1):
            if w.eps[image - 1] == -1:
                value = value * chi.chi[j - 1] ** -1
        return value
    value = EigenMonomial.p_power(c_constant(g, i, w)) * chi.sigma**-2
    for j, image in enumerate(w.nu, 1):
        if image > i:
            value = value * chi.chi[j - 1] ** -1
        elif w.eps[image - 1] == -1:
            value = value * chi.chi[j - 1] ** -2
    return value


def theorem_evaluator(
    which: str, direction: Direction, assignments: Sequence[Sequence], n: int | None = None
) -> Fraction:
    """Literal evaluation of the published closed forms.

    A: prod_v (-2 grad~ a_v), stated at the direction (1,...,1; -1); the
    direction argument is ignored for A.  B, C, D1, D2 evaluate the
    displayed ratio at the given direction and raise SingularDirectionError
    when its denominator vanishes.
    """
    if which == "A":
        result = Fraction(1)
        for assignment in assignments:
            (grad,) = [rational(x) for x in assignment]
            result *= -2 * grad
        return result
    forms = _theorem_forms(which, n)
    return rank1_combine([forms.pair(v, a, direction) for v, a in enumerate(assignments)])
