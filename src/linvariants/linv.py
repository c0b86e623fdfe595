"""Generic arithmetic L-invariant formula and its closed-form specializations.

For a triangulated family with Hodge-Tate weight forms kappa_i and
Frobenius factors F_i, the L-invariant of the 2k-th twisted symmetric
power is a product over places above p of

    - (sum_i B_{m,k,i-1} grad~ F_i) / (sum_i B_{m,k,i-1} grad_u kappa_i)

where grad~ F = (grad_u F)/F is a logarithmic directional derivative,
grad_u kappa is the directional derivative of the weight form (constant
terms drop), and B is the plethysm projection row.  Pure p-power factors
inside F_i never survive grad~, so each graded piece is stored as two
rows: grad_u kappa_i over the direction coordinates (u_1..u_g; u_0), or
(u_v; u_0) at a hilbert place v, and grad~ F_i as integers over the
per-place symbols grad~ a_{v,1..r}.  Every place has the same pieces.

Once the B-row is fixed, a place's factor is a ratio of two linear forms,
`PlaceForms(num, den)`: `place_forms` contracts the pieces with the B-row
once per request, and `PlaceForms.pair` evaluates (a_v, b_v) at each
place's gradient assignment and the direction.  The generic formula and
the symbolic comparison with the theorem displays go through that pair,
and so does the literal evaluation of the displays in
`tests/paper_displays.py`.

The closed forms of the sym^2 / sym^6 / sym^{4n-2} / sym^{8n-2} /
sym^{8n-6} theorems are compared against the generic formula, reporting
{exact, sign_flip, proportional, mismatch} rather than assuming either
sign convention; the README records the classifications.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import Iterable, NamedTuple, Sequence

from . import FAMILIES, THEOREMS
from .exactlin import DimensionMismatchError, rational, vector
from .plethysm import b_row


class SingularDirectionError(ValueError):
    """The denominator vanishes at this direction for some place."""

    def __init__(self, place: int):
        super().__init__(f"denominator vanishes at place {place}")
        self.place = place


class Direction(NamedTuple):
    """Direction (u_1..u_g; u_0) in the weight space."""

    u: tuple[Fraction, ...]
    u0: Fraction

    @classmethod
    def make(cls, u: Iterable, u0) -> "Direction":
        return cls(vector(u), rational(u0))


def _dot(coeffs: Sequence, values: Sequence[Fraction]) -> Fraction:
    return sum((c * x for c, x in zip(coeffs, values) if c), Fraction(0))


class PlaceForms(NamedTuple):
    """One place's factor a_v / b_v as two linear forms.

    a_v = num . (grad~ a_1..grad~ a_r), with the formula's leading minus
    sign folded into num, and b_v = den . (u_1..u_g, u_0).
    """

    num: tuple[Fraction, ...]
    den: tuple[Fraction, ...]

    def pair(
        self, place: int, gradients: Sequence, direction: Direction
    ) -> tuple[Fraction, Fraction]:
        """(a_v, b_v); raises SingularDirectionError(place) when b_v = 0."""
        gradients = [rational(x) for x in gradients]
        if len(gradients) != len(self.num):
            raise DimensionMismatchError("gradient assignment has wrong length")
        if len(direction.u) + 1 != len(self.den):
            raise DimensionMismatchError("direction has wrong length")
        b = _dot(self.den, direction.u + (direction.u0,))
        if b == 0:
            raise SingularDirectionError(place)
        return _dot(self.num, gradients), b


#: one graded piece: (grad_u kappa_i over (u; u_0), grad~ F_i over grad~ a_1..a_r)
Piece = tuple[tuple[Fraction, ...], tuple[int, ...]]


class TriangulationData(NamedTuple):
    """A family's graded pieces, the same at every place, and the plethysm row selector (n, k)."""

    family: str
    b_row: tuple[int, int]
    pieces: tuple[Piece, ...]

    @property
    def num_hecke(self) -> int:
        return len(self.pieces[0][1])


def _unit(length: int, pos: int, scale) -> tuple[Fraction, ...]:
    row = [Fraction(0)] * length  # one shared zero: the rows are sparse
    row[pos] = Fraction(scale)
    return tuple(row)


def _hilbert_pieces() -> tuple[Piece, ...]:
    half = Fraction(1, 2)
    return tuple(((s * half, half), (s,)) for s in (-1, 1))


def _gsp4_spin_pieces() -> tuple[Piece, ...]:
    half = Fraction(1, 2)
    signs = [(-1, -1), (-1, 1), (1, -1), (1, 1)]
    logfs = [(0, -1), (-1, 1), (1, -1), (0, 1)]
    return tuple(((s1 * half, s2 * half, half), f) for (s1, s2), f in zip(signs, logfs))


def _gsp_std_pieces(g: int) -> tuple[Piece, ...]:
    pieces: list[Piece | None] = [None] * (2 * g + 1)
    mid = g  # 0-based middle index
    pieces[mid] = ((Fraction(0),) * (g + 1), (0,) * g)
    for s in range(1, g + 1):
        i = g + 1 - s  # the Hecke index paired with graded slots mid +- s
        coeffs = [0] * g  # grad~ a_1, or grad~ a_{i-1} - grad~ a_i (- 2 grad~ a_g at i = g)
        if i == 1:
            coeffs[0] = 1
        else:
            coeffs[i - 2], coeffs[i - 1] = 1, (-2 if i == g else -1)
        pieces[mid + s] = (_unit(g + 1, i - 1, 1), tuple(coeffs))
        pieces[mid - s] = (_unit(g + 1, i - 1, -1), tuple(-c for c in coeffs))
    return tuple(pieces)


def _unitary_pieces(size: int) -> tuple[Piece, ...]:
    return tuple(
        (_unit(size + 1, i, -1), tuple(int(j == i) for j in range(size)))
        for i in range(size)
    )


def _rank(family: str, name: str, value, least: int) -> int:
    """The family's rank; a bool or non-int is refused (a JSON true is not 1)."""
    if value is not None and (isinstance(value, bool) or not isinstance(value, int)):
        raise ValueError(f"{family} needs an integer {name}, not {value!r}")
    if value is None or value < least:
        raise ValueError(f"{family} needs {name} >= {least}")
    return value


def family_data(family: str, *, g: int | None = None, n: int | None = None) -> TriangulationData:
    """Triangulation data (kappa_i, grad~ F_i) for one of the four families.

    hilbert: Sym^1 shape, one Hecke symbol a_v per place, weight rows over
    (u_v; u_0).  gsp4_spin: the four spin pieces for GSp(4) at the (id, +1)
    refinement.  gsp_std: the 2g+1 standard pieces for GSp(2g).  unitary:
    4n pieces with grad~ F_i = grad~ a_{v,i}.
    """
    if family == "hilbert":
        return TriangulationData("hilbert", (1, 1), _hilbert_pieces())
    if family == "gsp4_spin":
        return TriangulationData("gsp4_spin", (3, 3), _gsp4_spin_pieces())
    if family == "gsp_std":
        g = _rank("gsp_std", "g", g, 2)
        return TriangulationData("gsp_std", (2 * g, 2 * g - 1), _gsp_std_pieces(g))
    if family == "unitary":
        size = 4 * _rank("unitary", "n", n, 1)
        return TriangulationData("unitary", (size - 1, size - 1), _unitary_pieces(size))
    raise ValueError(f"unknown family {family!r}; expected one of {FAMILIES}")


def place_forms(data: TriangulationData, row: Sequence) -> PlaceForms:
    """Contract the graded pieces with the B-row `row`: the forms of every place."""
    pieces = data.pieces
    if len(row) != len(pieces):
        raise DimensionMismatchError("B-row length must match the graded pieces")
    num = [Fraction(0)] * len(pieces[0][1])
    den = [Fraction(0)] * len(pieces[0][0])
    for coeff, (kappa, logf) in zip(row, pieces):
        for j, c in enumerate(logf):
            if c:
                num[j] -= coeff * c  # leading minus sign of the generic formula
        for j, c in enumerate(kappa):
            if c:
                den[j] += coeff * c
    return PlaceForms(tuple(num), tuple(den))


def per_place_pairs(
    data: TriangulationData, direction: Direction, assignments: Sequence[Sequence]
) -> list[tuple[Fraction, Fraction]]:
    """Per-place (a_v, b_v) with a_v/b_v the place's L-invariant factor, one place per
    gradient assignment; the pieces are contracted once for all places.

    A hilbert place v reads (u_v; u_0), so the direction needs one u per
    place; with any other length place 0 fails as the wrong length.
    """
    forms = place_forms(data, b_row(*data.b_row))
    if data.family != "hilbert":
        return [forms.pair(v, a, direction) for v, a in enumerate(assignments)]
    fits = len(direction.u) == len(assignments)
    return [
        forms.pair(v, a, Direction(direction.u[v : v + 1] if fits else (), direction.u0))
        for v, a in enumerate(assignments)
    ]


def rank1_combine(pairs: Sequence[tuple]) -> Fraction:
    """prod_v a_v / b_v for rank-one graded pieces."""
    result = Fraction(1)
    for v, (a, b) in enumerate(pairs):
        a, b = rational(a), rational(b)
        if b == 0:
            raise ZeroDivisionError(f"b_{v} = 0 at place {v}")
        result *= a / b
    return result


def thm_c_coefficient(n: int, i: int) -> Fraction:
    """B_i = (-1)^i C(2n, n+i) i from the sym^{4n-2} closed form."""
    return Fraction((-1) ** i * comb(2 * n, n + i) * i)


def thm_d2_coefficient(size_minus1: int, i: int) -> Fraction:
    """(-1)^i C(m, i)(m^3 - (4i+1)m^2 + (4i^2+2i)m - 2i^2) with m = 4n-1."""
    m = size_minus1
    poly = m**3 - (4 * i + 1) * m**2 + (4 * i**2 + 2 * i) * m - 2 * i**2
    return Fraction((-1) ** i * comb(m, i) * poly)


def _display(num: Iterable, den: Iterable) -> PlaceForms:
    """The per-place display -(num . grads) / (den . u), with a zero u_0 slot."""
    return PlaceForms(
        tuple(-Fraction(x) for x in num), tuple(Fraction(x) for x in den) + (Fraction(0),)
    )


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
    generic = place_forms(data, b_row(*data.b_row))
    if which == "A":
        # pin the direction (1; -1) the sym^2 statement uses
        den_value = generic.den[0] - generic.den[1]
        if den_value == 0:
            return TheoremComparison("mismatch", None)
        return _classify(_parallel_scalar((generic.num[0] / den_value,), (Fraction(-2),)))
    theorem = _theorem_forms(which, n)
    s_num = _parallel_scalar(generic.num, theorem.num)
    s_den = _parallel_scalar(generic.den, theorem.den)
    if s_num is None or s_den is None or s_den == 0:
        return TheoremComparison("mismatch", None)
    return _classify(s_num / s_den)


def _classify(scalar: Fraction | None) -> TheoremComparison:
    if scalar is None:
        return TheoremComparison("mismatch", None)
    return TheoremComparison({1: "exact", -1: "sign_flip"}.get(scalar, "proportional"), scalar)


def theorem_row(which: str, data: TriangulationData) -> TriangulationData:
    """`data` with theorem `which`'s B-row in place of the family's own."""
    rule = THEOREMS[which][1]
    return data if rule is None else data._replace(b_row=rule(*data.b_row))


def data_for_theorem(which: str, n: int | None = None) -> TriangulationData:
    """TriangulationData whose generic evaluation matches theorem `which`."""
    family = THEOREMS[which][0]
    return theorem_row(which, family_data(family, g=n, n=n))


#: per family, the `params` key of its rank and that rank's cap, each about
#: 10 s and 100 MB at most (the cost table is in CHANGES.md)
LINV_RANK_CAPS = {"gsp_std": ("g", 200), "unitary": ("n", 100)}


def _cmd_linv(args) -> tuple[dict, str | None, list | None]:
    from .cliargs import CliError, _cap, _json_object, _load_input
    obj = _load_input(args)
    family = args.family
    params = _json_object(obj.get("params", {}), "params")
    places_obj = obj["places"]
    direction_obj = obj["direction"]
    direction = Direction.make(direction_obj["u"], direction_obj.get("u0", 0))
    which = args.compare_theorem
    if which and THEOREMS[which][0] != family:
        raise CliError(f"theorem {which} belongs to family {THEOREMS[which][0]}, not {family}")
    rank = None
    if family in LINV_RANK_CAPS:
        key, cap = LINV_RANK_CAPS[family]
        rank = params.get(key)
        if isinstance(rank, int):
            _cap(rank, cap, f"linv --family {family} {key}")
    if len(places_obj) < 1:
        raise ValueError("need at least one place")
    data = family_data(family, g=params.get("g"), n=params.get("n"))
    if which:
        data = theorem_row(which, data)
    assignments = []
    for place in places_obj:
        gradients = place["gradients"]
        assignments.append([rational(gradients[f"a_{j}"]) for j in range(1, data.num_hecke + 1)])
    try:
        pairs = per_place_pairs(data, direction, assignments)
    except SingularDirectionError as err:
        raise CliError(str(err), 3, code="singular_direction", place=err.place) from err
    payload: dict = {
        "value": str(rank1_combine(pairs)),
        "per_place": [{"a": str(a), "b": str(b), "value": str(a / b)} for a, b in pairs],
    }
    if which:
        payload["classification"] = compare_to_theorem(which, n=rank).to_json()
    return payload, None, None
