"""Paper displays kept as test oracles: no request computes them this way.

`upi_eigenvalue_display` is the closed U_{p,i} eigenvalue families with
their combinatorial constants c_{i,nu,eps} (`c_constant`); the tests check
it against `weylhecke.hecke_entry` over every Weyl element, and the
constants against the one-term steps that `recover_characters` reads.
`theorem_evaluator` evaluates the published closed forms literally; the
tests check it against the generic L-invariant formula.

`compare_to_theorem` is the numeric comparison: it contracts the
theorem's B-row with the family's pieces and classifies the display
against that generic expansion.  `linv --compare-theorem` prints the
scalar of the `THEOREMS` registry, which `tests/test_theorem_proof.py`
proves for every rank; this comparison checks the registry numerically
at the ranks the tests run.
`display_ratios` records the proof's per-coordinate ratios of the
display to the generic expansion, so that an oracle can scale a display
back to the generic pair (a_v, b_v).
"""

from fractions import Fraction
from math import comb, factorial
from typing import Iterable, NamedTuple, Sequence

from linvariants import THEOREMS
from linvariants import ratio
from linvariants.exactlin import rational
from linvariants.linv import (
    Direction,
    PlaceForms,
    TriangulationData,
    family_data,
    place_forms,
    rank1_combine,
    theorem_row,
)
from linvariants.plethysm import b_row
from linvariants.weylhecke import WeylElement, c_g_constant
from kernel_oracles import CharacterData, Monomial


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


def upi_eigenvalue_display(chi: CharacterData, i: int, w: WeylElement) -> Monomial:
    """The closed U_{p,i} = [Iw beta_{g-i} Iw] eigenvalue families.

    For i < g:  p^{c_i} sigma^{-2} prod_{nu(j)>i} chi_j^{-1}
                prod_{nu(j)<=i, eps(nu(j))=-1} chi_j^{-2};
    for i = g:  p^{c_g} sigma^{-1} prod_{eps(nu(j))=-1} chi_j^{-1}.
    """
    g = len(chi.chi)
    if not 1 <= i <= g:
        raise ValueError("need 1 <= i <= g")
    if i == g:
        value = Monomial.p_power(c_g_constant(g, w)) * chi.sigma**-1
        for j, image in enumerate(w.nu, 1):
            if w.eps[image - 1] == -1:
                value = value * chi.chi[j - 1] ** -1
        return value
    value = Monomial.p_power(c_constant(g, i, w)) * chi.sigma**-2
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
    pairs = [forms.pair(v, [ratio(x) for x in a], direction) for v, a in enumerate(assignments)]
    return Fraction(*rank1_combine(pairs))


def thm_c_coefficient(n: int, i: int) -> Fraction:
    """B_i = (-1)^i C(2n, n+i) i from the sym^{4n-2} closed form."""
    return Fraction((-1) ** i * comb(2 * n, n + i) * i)


def thm_d2_coefficient(size_minus1: int, i: int) -> Fraction:
    """(-1)^i C(m, i)(m^3 - (4i+1)m^2 + (4i^2+2i)m - 2i^2) with m = 4n-1."""
    m = size_minus1
    poly = m**3 - (4 * i + 1) * m**2 + (4 * i**2 + 2 * i) * m - 2 * i**2
    return Fraction((-1) ** i * comb(m, i) * poly)


def _display(num: Iterable, den: Iterable) -> PlaceForms:
    """The per-place display -(num . grads) / (den . u), with a zero u_0 slot; every
    displayed coefficient is an integer."""
    return PlaceForms(tuple(-int(x) for x in num), tuple(int(x) for x in den) + (0,))


def exact_rows(forms: PlaceForms) -> tuple[list[Fraction], list[Fraction]]:
    """The two linear forms of `forms` as rows of Fractions, each row times its scalar."""
    return tuple([Fraction(x) * Fraction(*scale) for x in row]
                 for row, scale in ((forms.num, forms.num_scale), (forms.den, forms.den_scale)))


def _theorem_forms(which: str, n: int | None) -> PlaceForms:
    """The per-place forms of the displayed closed form of theorem `which`."""
    if which == "B":
        return _display((-3, 4), (1, -2))
    if which == "C":
        if n is None or n < 2:
            raise ValueError("theorem C needs n >= 2")
        num = [Fraction(0)] * n
        num[0] += thm_c_coefficient(n, n)  # B_n grad~ a_1
        num[n - 2] += thm_c_coefficient(n, 1)  # B_1 (grad~ a_{n-1} - 2 grad~ a_n)
        num[n - 1] += -2 * thm_c_coefficient(n, 1)
        for i in range(2, n):
            # index pairing as in the generic formula: B_{n+1-i} on the
            # difference grad~ a_{i-1} - grad~ a_i (the printed boundary
            # terms follow this rule; for n <= 3 it matches the printed
            # middle sum verbatim)
            num[i - 2] += thm_c_coefficient(n, n + 1 - i)
            num[i - 1] += -thm_c_coefficient(n, n + 1 - i)
        return _display(num, [thm_c_coefficient(n, n + 1 - i) for i in range(1, n + 1)])
    if which in ("D1", "D2"):
        if n is None or n < 1:
            raise ValueError(f"theorem {which} needs n >= 1")
        m = 4 * n - 1
        coeffs = [
            (-1) ** i * comb(m, i) if which == "D1" else thm_d2_coefficient(m, i)
            for i in range(m + 1)
        ]
        return _display(coeffs, coeffs)
    raise ValueError(f"no closed form registered for theorem {which!r}")


class TheoremComparison(NamedTuple):
    kind: str  # exact | sign_flip | proportional | mismatch
    scalar: Fraction | None

    def to_json(self) -> dict:
        out: dict = {"kind": self.kind}
        if self.scalar is not None:
            out["scalar"] = str(self.scalar)
        return out


def _parallel_scalar(reference: Sequence[Fraction], candidate: Sequence[Fraction]):
    """c with candidate = c * reference, or None."""
    if any((r == 0) != (c == 0) for r, c in zip(reference, candidate)):
        return None
    ratios = {c / r for r, c in zip(reference, candidate) if r}
    return ratios.pop() if len(ratios) == 1 else None


def compare_to_theorem(which: str, n: int | None = None) -> TheoremComparison:
    """Classify the theorem's closed form against the generic expansion.

    exact: identical rational functions of (grad~ a, u); sign_flip: equal
    up to a global -1; proportional: equal up to another global scalar;
    mismatch: not proportional.
    """
    data = data_for_theorem(which, n)
    generic_num, generic_den = exact_rows(place_forms(data, b_row(*data.b_row)))
    if which == "A":
        # pin the direction (1; -1) the sym^2 statement uses
        den_value = generic_den[0] - generic_den[1]
        if den_value == 0:
            return TheoremComparison("mismatch", None)
        return _classify(_parallel_scalar((generic_num[0] / den_value,), (Fraction(-2),)))
    theorem_num, theorem_den = exact_rows(_theorem_forms(which, n))
    s_num = _parallel_scalar(generic_num, theorem_num)
    s_den = _parallel_scalar(generic_den, theorem_den)
    if s_num is None or s_den is None or s_den == 0:
        return TheoremComparison("mismatch", None)
    return _classify(s_num / s_den)


def _classify(scalar: Fraction | None) -> TheoremComparison:
    if scalar is None:
        return TheoremComparison("mismatch", None)
    return TheoremComparison({1: "exact", -1: "sign_flip"}.get(scalar, "proportional"), scalar)


def data_for_theorem(which: str, n: int | None = None) -> TriangulationData:
    """TriangulationData whose generic evaluation matches theorem `which`."""
    family = THEOREMS[which][0]
    return theorem_row(which, family_data(family, g=n, n=n))


def display_ratios(which: str, n: int | None = None) -> tuple[Fraction, Fraction]:
    """(display num / generic num, display den / generic den) of theorem `which`.

    Each is one number per rank, the same at every nonzero coordinate
    (`tests/test_theorem_proof.py` derives them); their quotient is the
    theorem's `THEOREMS` scalar.  B: -1/72 and 1/72.  C at rank g: both
    1/K with K = (-1)^(g+1) 4 (2g)! (2g-1)!.  D1 at rank n, N = 4n-1:
    1/N!^2 and -1/N!^2.  D2: 2/((N-2)! (N-1)!) and its negative.
    """
    if which == "B":
        return Fraction(-1, 72), Fraction(1, 72)
    if which == "C":
        ratio = Fraction(1, (-1) ** (n + 1) * 4 * factorial(2 * n) * factorial(2 * n - 1))
        return ratio, ratio
    size_minus1 = 4 * n - 1
    if which == "D1":
        ratio = Fraction(1, factorial(size_minus1) ** 2)
    else:
        ratio = Fraction(2, factorial(size_minus1 - 2) * factorial(size_minus1 - 1))
    return ratio, -ratio
