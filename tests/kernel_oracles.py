"""The `Fraction` loops the integer kernels replaced, kept as test oracles.

`weylhecke.hecke_numerators` sums integer numerators over one common
denominator for many Weyl elements at once, `plethysm.cg_table` runs the
raising recurrence on w! C in integers, and `plethysm.b_row` walks the
B_{n,k,i} sum by its term ratios.  The functions below compute the same
values the plain way, one `Fraction` operation at a time: the Weyl action on
torus exponents, the diagonal eigenvalue of one Weyl element from it, the
recurrence on C itself with one division per entry, and every summand of B
from its binomials and factorials.  `b_special`, the paper's special values
of B for k >= n-2, is the second oracle of the B rows.
"""

from fractions import Fraction
from math import comb, factorial

from linvariants.phin import EigenMonomial
from linvariants.cg import InvalidWeightTripleError, valid_triple
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


def fraction_b_coefficient(n: int, k: int, i: int) -> Fraction:
    """sum_{a+b=k} (-1)^a C(n,i) C(i,a) C(n-i,b) (n-i+a)! (i+b)!, term by term."""
    if not (0 <= k <= n and 0 <= i <= n):
        raise ValueError(f"need 0 <= k, i <= n, got k={k}, i={i}, n={n}")
    total = 0
    for a in range(k + 1):
        b = k - a
        if a > i or b > n - i:
            continue
        total += (
            (-1) ** a
            * comb(n, i)
            * comb(i, a)
            * comb(n - i, b)
            * factorial(n - i + a)
            * factorial(i + b)
        )
    return Fraction(total)


def b_special(n: int, k: int, i: int) -> Fraction:
    """Special-value closed forms for k in {n, n-1, n-2}.

    The k = n sum has a single term and the k = n-1 sum two, giving

        B_{n,n,i}   = (-1)^i (n!)^2 C(n,i),
        B_{n,n-1,i} = (-1)^i n! (n-1)! C(n,i) (n - 2i).

    For k = n-2 the three-term sum
    C(i,2)(n-2)!n! - C(i,1)C(n-i,1)((n-1)!)^2 + C(n-i,2)n!(n-2)!
    collapses to (n-2)!(n-1)!(n^3 - (4i+1)n^2 + (4i^2+2i)n - 2i^2)/2;
    note the /2, which the usual simplified form of this cubic omits.

    A paper display the README names: the second oracle of `plethysm.b_row`.
    """
    if not 0 <= i <= n:
        raise ValueError(f"need 0 <= i <= n, got i={i}, n={n}")
    sign = (-1) ** i
    if k == n:
        return Fraction(sign * factorial(n) ** 2 * comb(n, i))
    if k == n - 1:
        return Fraction(sign * factorial(n) * factorial(n - 1) * comb(n, i) * (n - 2 * i))
    if k == n - 2:
        poly = (
            n**3
            - (4 * i + 1) * n**2
            + (4 * i**2 + 2 * i) * n
            - 2 * i**2
        )
        return Fraction(sign * comb(n, i) * factorial(n - 2) * factorial(n - 1) * poly, 2)
    raise ValueError(f"special values exist only for k in {{n, n-1, n-2}}, got k={k}")
