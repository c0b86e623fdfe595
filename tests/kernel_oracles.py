"""The `Fraction` loops the integer kernels replaced, kept as test oracles.

`weylhecke.hecke_diagonals` sums integer numerators over one common
denominator for many Weyl elements at once, and `plethysm.cg_table` runs the
raising recurrence on w! C in integers.  The functions below compute the same
values the plain way, one `Fraction` operation at a time: the Weyl action on
torus exponents, the diagonal eigenvalue of one Weyl element from it, and the
recurrence on C itself with one division per entry.
"""

from fractions import Fraction
from math import factorial

from linvariants.phin import EigenMonomial
from linvariants.plethysm import InvalidWeightTripleError, valid_triple
from linvariants.weylhecke import CharacterData, TorusExponent, WeylElement


def weyl_conjugate(w: WeylElement, t: TorusExponent) -> TorusExponent:
    """Exponents of the conjugated torus element: slot j carries a'_{nu(j)}."""
    if w.g != t.g:
        raise ValueError("ranks differ")
    flipped = [a if e == 1 else t.a0 - a for a, e in zip(t.a, w.eps)]
    return TorusExponent(tuple(flipped[i - 1] for i in w.nu), t.a0)


def fraction_hecke_diagonal(chi: CharacterData, t: TorusExponent, w: WeylElement) -> EigenMonomial:
    """p^{g(g+1)/4 a_0 - sum_j (g+1-j) a'_{nu(j)}} sigma^{a_0} prod_j chi_j^{a'_{nu(j)}}."""
    g = chi.g
    if t.g != g or w.g != g:
        raise ValueError("ranks differ")
    s = weyl_conjugate(w, t)
    p_exp = Fraction(g * (g + 1), 4) * t.a0 - sum((g + 1 - j) * a for j, a in enumerate(s.a, 1))
    exps = {"p": p_exp}
    for value, power in ((chi.sigma, t.a0), *zip(chi.chi, s.a)):
        for sym, e in value.exponents:
            exps[sym] = exps.get(sym, 0) + e * power
    return EigenMonomial.from_dict(exps)


def fraction_cg_table(m: int, n: int, p: int) -> dict[tuple[int, int, int], Fraction]:
    """C^{u,v,0} = (-1)^u (m-u)! (n-v)!, then ascending in w

        C^{u,v,w} = (u C^{u-1,v,w-1} + v C^{u,v-1,w-1}) / w.
    """
    if not valid_triple(m, n, p):
        raise InvalidWeightTripleError(f"V_{p} does not occur in V_{m} (x) V_{n}")
    s0 = (m + n - p) // 2
    values: dict[tuple[int, int, int], Fraction] = {}
    for u in range(m + 1):
        v = s0 - u
        if 0 <= v <= n:
            values[(u, v, 0)] = Fraction((-1) ** u * factorial(m - u) * factorial(n - v))
    for w in range(1, p + 1):
        target = s0 + w
        for u in range(m + 1):
            v = target - u
            if not 0 <= v <= n:
                continue
            acc = Fraction(0)
            if u >= 1:
                acc += u * values.get((u - 1, v, w - 1), Fraction(0))
            if v >= 1:
                acc += v * values.get((u, v - 1, w - 1), Fraction(0))
            if acc:
                values[(u, v, w)] = acc / w
    return values
