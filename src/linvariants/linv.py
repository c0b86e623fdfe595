"""Generic arithmetic L-invariant formula and its closed-form specializations.

For a triangulated family with Hodge-Tate weight forms kappa_i and
Frobenius factors F_i, the L-invariant of the 2k-th twisted symmetric
power is a product over places above p of

    - (sum_i B_{m,k,i-1} grad~ F_i) / (sum_i B_{m,k,i-1} grad_u kappa_i)

where grad~ F = (grad_u F)/F is a logarithmic directional derivative,
grad_u kappa is the directional derivative of the weight form (constant
terms drop), and B is the plethysm projection row.  Pure p-power factors
inside F_i never survive grad~, so each F_i is stored only as an integer
combination of the per-place symbols grad~ a_{v,j}.

Four families are wired in: hilbert (2 graded pieces), gsp4_spin (4),
gsp_std for GSp(2g) (2g+1) and unitary (4n).  The closed forms of the
sym^2 / sym^6 / sym^{4n-2} / sym^{8n-2} / sym^{8n-6} theorems are
evaluated literally and compared symbolically against the generic
formula, reporting {exact, sign_flip, proportional, mismatch} rather than
assuming either sign convention.

Recorded classifications (see compare_to_theorem): the sym^2 formula is
exact; the sym^6, sym^{8n-2} and sym^{8n-6} displays equal minus the
generic expansion; the sym^{4n-2} display is exact.  The difference row
entering the sym^{4n-2} formula satisfies, with C(.,.) binomial,

    B_{2n,2n-1,n+i} - B_{2n,2n-1,n-i}
        = (-1)^{n+1} * 4 * (2n)! * (2n-1)! * ((-1)^i C(2n, n+i) i),

a proportionality the tests assert with the single scalar left free.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from math import comb
from typing import Iterable, Sequence

from .exactlin import DimensionMismatchError, rational, vector
from .plethysm import b_row

FAMILIES = ("hilbert", "gsp4_spin", "gsp_std", "unitary")
#: theorem -> (family, B-row rule); the rule maps n to the (n, k) of the row
#: when the theorem does not use the family's default row
THEOREMS = {
    "A": ("hilbert", None),
    "B": ("gsp4_spin", None),
    "C": ("gsp_std", None),
    "D1": ("unitary", None),
    "D2": ("unitary", lambda n: (4 * n - 1, 4 * n - 3)),
}


class SingularDirectionError(ValueError):
    """The denominator vanishes at this direction for some place."""

    def __init__(self, place: int):
        super().__init__(f"denominator vanishes at place {place}")
        self.place = place


@dataclass(frozen=True)
class Direction:
    """Direction (u_1..u_g; u_0) in the weight space."""

    u: tuple[Fraction, ...]
    u0: Fraction

    @classmethod
    def make(cls, u: Iterable, u0) -> "Direction":
        return cls(vector(u), rational(u0))

    def scale(self, c) -> "Direction":
        c = rational(c)
        return Direction(tuple(c * x for x in self.u), c * self.u0)


@dataclass(frozen=True)
class WeightLinearForm:
    """kappa as an affine form in the weight coordinates (u_1..u_g; u_0)."""

    u_coeffs: tuple[Fraction, ...]
    u0_coeff: Fraction
    constant: Fraction

    @classmethod
    def make(cls, u_coeffs: Iterable, u0_coeff=0, constant=0) -> "WeightLinearForm":
        return cls(
            tuple(rational(x) for x in u_coeffs), rational(u0_coeff), rational(constant)
        )

    def gradient(self, direction: Direction) -> Fraction:
        """Directional derivative: the constant term drops."""
        if len(direction.u) != len(self.u_coeffs):
            raise DimensionMismatchError("direction has wrong length")
        return (
            sum((c * x for c, x in zip(self.u_coeffs, direction.u)), Fraction(0))
            + self.u0_coeff * direction.u0
        )


@dataclass(frozen=True)
class HeckeLogForm:
    """grad~ F as an integer combination of the symbols grad~ a_{v,1..r}."""

    coeffs: tuple[int, ...]

    def value(self, gradients: Sequence[Fraction]) -> Fraction:
        if len(gradients) != len(self.coeffs):
            raise DimensionMismatchError("gradient assignment has wrong length")
        return sum((c * x for c, x in zip(self.coeffs, gradients)), Fraction(0))


@dataclass(frozen=True)
class TriangulationData:
    """Per-place (kappa_i, grad~ F_i) lists plus the plethysm row selector."""

    family: str
    m: int  # the family representation is Sym^m-shaped: m+1 graded pieces
    b_row: tuple[int, int]
    graded: tuple[tuple[tuple[WeightLinearForm, HeckeLogForm], ...], ...]  # per place
    num_hecke: int

    def __post_init__(self):
        expected = self.m + 1
        for place in self.graded:
            if len(place) != expected:
                raise DimensionMismatchError(
                    f"{self.family}: expected {expected} graded pieces"
                )

    @property
    def places(self) -> int:
        return len(self.graded)


def _hilbert_place(place: int, places: int) -> tuple:
    def unit(scale) -> tuple:
        return tuple(
            rational(scale) if j == place else Fraction(0) for j in range(places)
        )

    half = Fraction(1, 2)
    kappa1 = WeightLinearForm(unit(-half), half, Fraction(0))
    kappa2 = WeightLinearForm(unit(half), half, Fraction(-1))
    return (
        (kappa1, HeckeLogForm((-1,))),
        (kappa2, HeckeLogForm((1,))),
    )


def _gsp4_spin_place() -> tuple:
    half = Fraction(1, 2)
    rows = []
    for idx, (s1, s2) in enumerate([(-1, -1), (-1, 1), (1, -1), (1, 1)]):
        kappa = WeightLinearForm((s1 * half, s2 * half), half, Fraction(idx))
        rows.append(kappa)
    logfs = [
        HeckeLogForm((0, -1)),
        HeckeLogForm((-1, 1)),
        HeckeLogForm((1, -1)),
        HeckeLogForm((0, 1)),
    ]
    return tuple(zip(rows, logfs))


def _gsp_std_place(g: int) -> tuple:
    def unit(pos: int, scale: int) -> tuple:
        return tuple(Fraction(scale) if j == pos else Fraction(0) for j in range(g))

    size = 2 * g + 1
    kappas: list[WeightLinearForm | None] = [None] * size
    logfs: list[HeckeLogForm | None] = [None] * size
    mid = g  # 0-based middle index
    kappas[mid] = WeightLinearForm.make([0] * g)
    logfs[mid] = HeckeLogForm((0,) * g)
    for s in range(1, g + 1):
        i = g + 1 - s  # the Hecke index paired with graded slots mid +- s
        kappas[mid + s] = WeightLinearForm(unit(i - 1, 1), Fraction(0), Fraction(s))
        kappas[mid - s] = WeightLinearForm(unit(i - 1, -1), Fraction(0), Fraction(-s))
        coeffs = [0] * g
        if i == 1:
            coeffs[0] = 1
        elif i == g:
            coeffs[g - 2] = 1
            coeffs[g - 1] = -2
        else:
            coeffs[i - 2] = 1
            coeffs[i - 1] = -1
        logfs[mid + s] = HeckeLogForm(tuple(coeffs))
        logfs[mid - s] = HeckeLogForm(tuple(-c for c in coeffs))
    return tuple(zip(kappas, logfs))


def _unitary_place(size: int) -> tuple:
    rows = []
    for i in range(1, size + 1):
        u_coeffs = tuple(
            Fraction(-1) if j == i - 1 else Fraction(0) for j in range(size)
        )
        kappa = WeightLinearForm(u_coeffs, Fraction(0), Fraction(i))
        coeffs = tuple(1 if j == i - 1 else 0 for j in range(size))
        rows.append((kappa, HeckeLogForm(coeffs)))
    return tuple(rows)


def family_data(
    family: str, *, places: int = 1, g: int | None = None, n: int | None = None
) -> TriangulationData:
    """Triangulation data (kappa_i, grad~ F_i) for one of the four families.

    hilbert: Sym^1 shape, one Hecke symbol a_v per place, per-place weight
    coordinates (u_1..u_d; u_0).  gsp4_spin: the four spin pieces for
    GSp(4) at the (id, +1) refinement.  gsp_std: the 2g+1 standard pieces
    for GSp(2g).  unitary: 4n pieces with grad~ F_i = grad~ a_{v,i}.
    """
    if places < 1:
        raise ValueError("need at least one place")
    if family == "hilbert":
        graded = tuple(_hilbert_place(v, places) for v in range(places))
        return TriangulationData("hilbert", 1, (1, 1), graded, 1)
    if family == "gsp4_spin":
        place = _gsp4_spin_place()
        return TriangulationData("gsp4_spin", 3, (3, 3), (place,) * places, 2)
    if family == "gsp_std":
        if g is None or g < 2:
            raise ValueError("gsp_std needs g >= 2")
        place = _gsp_std_place(g)
        return TriangulationData(
            "gsp_std", 2 * g, (2 * g, 2 * g - 1), (place,) * places, g
        )
    if family == "unitary":
        if n is None or n < 1:
            raise ValueError("unitary needs n >= 1")
        size = 4 * n
        place = _unitary_place(size)
        return TriangulationData(
            "unitary", size - 1, (size - 1, size - 1), (place,) * places, size
        )
    raise ValueError(f"unknown family {family!r}; expected one of {FAMILIES}")


def per_place_pairs(
    data: TriangulationData, direction: Direction, assignments: Sequence[Sequence]
) -> list[tuple[Fraction, Fraction]]:
    """Per-place (a_v, b_v) with a_v/b_v the place's L-invariant factor."""
    if len(assignments) != data.places:
        raise DimensionMismatchError("one gradient assignment per place is required")
    row = b_row(*data.b_row)
    if len(row) != data.m + 1:
        raise DimensionMismatchError("B-row length must match the graded pieces")
    pairs = []
    for place, (spec, assignment) in enumerate(zip(data.graded, assignments)):
        gradients = [rational(x) for x in assignment]
        numerator = Fraction(0)
        denominator = Fraction(0)
        for coeff, (kappa, logf) in zip(row, spec):
            numerator += coeff * logf.value(gradients)
            denominator += coeff * kappa.gradient(direction)
        if denominator == 0:
            raise SingularDirectionError(place)
        pairs.append((-numerator, denominator))
    return pairs


def rank1_combine(pairs: Sequence[tuple]) -> Fraction:
    """prod_v a_v / b_v for rank-one graded pieces."""
    result = Fraction(1)
    for v, (a, b) in enumerate(pairs):
        a, b = rational(a), rational(b)
        if b == 0:
            raise ZeroDivisionError(f"b_{v} = 0 at place {v}")
        result *= a / b
    return result


def generic_l_invariant(
    data: TriangulationData, direction: Direction, assignments: Sequence[Sequence]
) -> Fraction:
    """The product formula; raises SingularDirectionError on a zero denominator."""
    return rank1_combine(per_place_pairs(data, direction, assignments))


def thm_c_coefficient(n: int, i: int) -> Fraction:
    """B_i = (-1)^i C(2n, n+i) i from the sym^{4n-2} closed form."""
    return Fraction((-1) ** i * comb(2 * n, n + i) * i)


def thm_d2_coefficient(size_minus1: int, i: int) -> Fraction:
    """(-1)^i C(m, i)(m^3 - (4i+1)m^2 + (4i^2+2i)m - 2i^2) with m = 4n-1."""
    m = size_minus1
    poly = m**3 - (4 * i + 1) * m**2 + (4 * i**2 + 2 * i) * m - 2 * i**2
    return Fraction((-1) ** i * comb(m, i) * poly)


def _theorem_forms(which: str, n: int | None) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
    """Numerator coefficients (over grad~ a_j) and denominator (over u_j).

    The per-place closed form is (num . grads) / (den . u); any leading
    minus sign is folded into num.
    """
    if which == "B":
        return (Fraction(3), Fraction(-4)), (Fraction(1), Fraction(-2))
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
        den = [thm_c_coefficient(n, n + 1 - i) for i in range(1, n + 1)]
        return tuple(-x for x in num), tuple(den)
    if which == "D1":
        if n is None or n < 1:
            raise ValueError("theorem D1 needs n >= 1")
        size = 4 * n
        signs = [Fraction((-1) ** (i - 1) * comb(size - 1, i - 1)) for i in range(1, size + 1)]
        return tuple(-x for x in signs), tuple(signs)
    if which == "D2":
        if n is None or n < 1:
            raise ValueError("theorem D2 needs n >= 1")
        size = 4 * n
        coeffs = [thm_d2_coefficient(size - 1, i - 1) for i in range(1, size + 1)]
        return tuple(-x for x in coeffs), tuple(coeffs)
    raise ValueError(f"no closed form registered for theorem {which!r}")


def theorem_evaluator(
    which: str,
    direction: Direction,
    assignments: Sequence[Sequence],
    n: int | None = None,
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
    num_form, den_form = _theorem_forms(which, n)
    result = Fraction(1)
    for place, assignment in enumerate(assignments):
        gradients = [rational(x) for x in assignment]
        if len(gradients) != len(num_form):
            raise DimensionMismatchError("gradient assignment has wrong length")
        if len(direction.u) != len(den_form):
            raise DimensionMismatchError("direction has wrong length")
        num = sum((c * x for c, x in zip(num_form, gradients)), Fraction(0))
        den = sum((c * x for c, x in zip(den_form, direction.u)), Fraction(0))
        if den == 0:
            raise SingularDirectionError(place)
        result *= num / den
    return result


@dataclass(frozen=True)
class SymbolicLInvariant:
    """One-place value as (num over grad~ a symbols) / (den over u coords)."""

    num: tuple[Fraction, ...]
    den: tuple[Fraction, ...]  # coefficients of u_1..u_g, then u_0


def symbolic_specialize(data: TriangulationData) -> SymbolicLInvariant:
    """Expand the generic formula symbolically for the first place of `data`."""
    row = b_row(*data.b_row)
    spec = data.graded[0]
    num = [Fraction(0)] * data.num_hecke
    coords = len(spec[0][0].u_coeffs)
    den = [Fraction(0)] * (coords + 1)
    for coeff, (kappa, logf) in zip(row, spec):
        for j, c in enumerate(logf.coeffs):
            num[j] -= coeff * c  # leading minus sign of the generic formula
        for j, c in enumerate(kappa.u_coeffs):
            den[j] += coeff * c
        den[coords] += coeff * kappa.u0_coeff
    return SymbolicLInvariant(tuple(num), tuple(den))


@dataclass(frozen=True)
class TheoremComparison:
    kind: str  # exact | sign_flip | proportional | mismatch
    scalar: Fraction | None

    def to_json(self) -> dict:
        out: dict = {"kind": self.kind}
        if self.scalar is not None:
            out["scalar"] = str(self.scalar)
        return out


def _parallel_scalar(reference: Sequence[Fraction], candidate: Sequence[Fraction]):
    """c with candidate = c * reference, or None."""
    scalar = None
    for r, c in zip(reference, candidate):
        if (r == 0) != (c == 0):
            return None
        if r != 0:
            ratio = c / r
            if scalar is None:
                scalar = ratio
            elif scalar != ratio:
                return None
    return scalar


def compare_to_theorem(which: str, n: int | None = None) -> TheoremComparison:
    """Classify the theorem's closed form against the generic expansion.

    exact: identical rational functions of (grad~ a, u); sign_flip: equal
    up to a global -1; proportional: equal up to another global scalar;
    mismatch: not proportional.
    """
    generic = symbolic_specialize(data_for_theorem(which, n))
    if which == "A":
        # pin the direction (1; -1) the sym^2 statement uses
        den_value = generic.den[0] * 1 + generic.den[1] * -1
        if den_value == 0:
            return TheoremComparison("mismatch", None)
        generic_vec = tuple(x / den_value for x in generic.num)
        scalar = _parallel_scalar(generic_vec, (Fraction(-2),))
        return _classify(scalar)
    theorem_num, theorem_den = _theorem_forms(which, n)
    padded_den = tuple(theorem_den) + (Fraction(0),) * (len(generic.den) - len(theorem_den))
    s_num = _parallel_scalar(generic.num, theorem_num)
    s_den = _parallel_scalar(generic.den, padded_den)
    if s_num is None or s_den is None or s_den == 0:
        return TheoremComparison("mismatch", None)
    return _classify(s_num / s_den)


def _classify(scalar) -> TheoremComparison:
    if scalar is None:
        return TheoremComparison("mismatch", None)
    if scalar == 1:
        return TheoremComparison("exact", Fraction(1))
    if scalar == -1:
        return TheoremComparison("sign_flip", Fraction(-1))
    return TheoremComparison("proportional", scalar)


def data_for_theorem(which: str, n: int | None = None, places: int = 1) -> TriangulationData:
    """TriangulationData whose generic evaluation matches theorem `which`."""
    family, row_rule = THEOREMS[which]
    data = family_data(family, places=places, g=n, n=n)
    return data if row_rule is None else replace(data, b_row=row_rule(n))
