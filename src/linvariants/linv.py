"""Generic arithmetic L-invariant formula and its closed-form specializations.

For a triangulated family with Hodge-Tate weight forms kappa_i and
Frobenius factors F_i, the L-invariant of the 2k-th twisted symmetric
power is a product over places above p of

    - (sum_i B_{m,k,i-1} grad~ F_i) / (sum_i B_{m,k,i-1} grad_u kappa_i)

where grad~ F = (grad_u F)/F is a logarithmic directional derivative,
grad_u kappa is the directional derivative of the weight form (constant
terms drop), and B is the plethysm projection row.  Pure p-power factors
inside F_i never survive grad~, so each graded piece is stored as two
integer rows: grad_u kappa_i times the family's `kappa_den` (2 where the
weights hold halves) over the direction coordinates (u_1..u_g; u_0), or
(u_v; u_0) at a hilbert place v, and grad~ F_i over the per-place symbols
grad~ a_{v,1..r}.  Every place has the same pieces.

Once the B-row is fixed, a place's factor is a ratio of two linear forms,
`PlaceForms`: `place_forms` contracts the pieces with the B-row once per
request, and `PlaceForms.pair` evaluates (a_v, b_v) at each place's
gradient assignment and the direction; off `hilbert`, b_v once, at place 0.
Every scalar is a reduced pair (num, den > 0), as `linvariants.ratio` reads it:
a dot product adds one term at a time and the product cancels crosswise,
in integers as `Fraction` does, so no common denominator of many long ones
is built.  A request of ints and plain `a/b` texts loads no `fractions`.

`--compare-theorem` reads the theorem's B-row through `theorem_row` and
prints the classification of the `THEOREMS` registry: each displayed closed
form is the generic formula times 1 (exact) or -1 (sign_flip) at every
rank, which `tests/test_theorem_proof.py` proves; the numeric comparison
and the literal displays are test oracles in `tests/paper_displays.py`.
"""

from math import gcd
from typing import Iterable, NamedTuple, Sequence

from . import FAMILIES, THEOREMS, ratio, ratio_text, ratios
from .plethysm import b_row

Ratio = tuple[int, int]  # (numerator, denominator > 0), reduced, as `linvariants.ratio` reads it


class SingularDirectionError(ValueError):
    """The denominator vanishes at this direction for some place."""

    def __init__(self, place: int):
        super().__init__(f"denominator vanishes at place {place}")
        self.place = place


class Direction(NamedTuple):
    """Direction (u_1..u_g; u_0) in the weight space."""

    u: tuple[Ratio, ...]
    u0: Ratio

    @classmethod
    def make(cls, u: Iterable, u0) -> "Direction":
        return cls(tuple(ratios(u)), ratio(u0))


def _dot(coeffs: Sequence[int], values: Sequence[Ratio]) -> Ratio:
    """coeffs . values, one term at a time as `Fraction` adds them."""
    num, den = 0, 1
    for c, value in zip(coeffs, values):
        if c and value[0]:
            p, q = _times((c, 1), value)
            g = gcd(den, q)
            num = num * (q // g) + p * (den // g)
            h = gcd(num, g)
            num, den = num // h, den // g * (q // h)
    return num, den


def _times(x: Ratio, y: Ratio) -> Ratio:
    """x * y, cancelling crosswise as `Fraction` multiplies."""
    (p, q), (r, s) = x, y
    g, h = gcd(p, s), gcd(r, q)
    return (p // g) * (r // h), (q // h) * (s // g)


def _quotient(x: Ratio, y: Ratio) -> Ratio:
    """x / y for y != 0."""
    return _times(x, (y[1], y[0]) if y[0] > 0 else (-y[1], -y[0]))


class PlaceForms(NamedTuple):
    """One place's factor a_v / b_v: a_v = num_scale * num . (grad~ a_1..grad~ a_r), the
    formula's leading minus folded into num, and b_v = den_scale * den . (u_1..u_g, u_0)."""

    num: tuple[int, ...]
    den: tuple[int, ...]
    num_scale: Ratio = (1, 1)
    den_scale: Ratio = (1, 1)

    def pair(self, place: int, gradients: Sequence[Ratio], direction: Direction) -> tuple:
        """(a_v, b_v); raises SingularDirectionError(place) when b_v = 0."""
        a = self._a(gradients)
        if len(direction.u) + 1 != len(self.den):
            from .exactlin import DimensionMismatchError  # only to refuse
            raise DimensionMismatchError("direction has wrong length")
        b = _times(_dot(self.den, direction.u + (direction.u0,)), self.den_scale)
        if b[0] == 0:
            raise SingularDirectionError(place)
        return a, b

    def _a(self, gradients: Sequence[Ratio]) -> Ratio:
        """a_v at one place's gradient assignment, whose length is checked first."""
        if len(gradients) != len(self.num):
            from .exactlin import DimensionMismatchError
            raise DimensionMismatchError("gradient assignment has wrong length")
        return _times(_dot(self.num, gradients), self.num_scale)


#: one graded piece: (grad_u kappa_i times `kappa_den` over (u; u_0), grad~ F_i over grad~ a)
Piece = tuple[tuple[int, ...], tuple[int, ...]]


class TriangulationData(NamedTuple):
    """A family's graded pieces, the same at every place, and the plethysm row selector (n, k)."""

    family: str
    b_row: tuple[int, int]
    pieces: tuple[Piece, ...]
    kappa_den: int = 1

    @property
    def num_hecke(self) -> int:
        return len(self.pieces[0][1])


def _gsp_std_pieces(g: int) -> tuple[Piece, ...]:
    pieces: list[Piece | None] = [None] * (2 * g + 1)
    mid = g  # 0-based middle index
    pieces[mid] = ((0,) * (g + 1), (0,) * g)
    for s in range(1, g + 1):
        i = g + 1 - s  # the Hecke index paired with graded slots mid +- s
        coeffs = [0] * g  # grad~ a_1, or grad~ a_{i-1} - grad~ a_i (- 2 grad~ a_g at i = g)
        if i == 1:
            coeffs[0] = 1
        else:
            coeffs[i - 2], coeffs[i - 1] = 1, (-2 if i == g else -1)
        kappa = tuple(int(j == i - 1) for j in range(g + 1))
        pieces[mid + s] = (kappa, tuple(coeffs))
        pieces[mid - s] = (tuple(-x for x in kappa), tuple(-c for c in coeffs))
    return tuple(pieces)


def _unitary_pieces(size: int) -> tuple[Piece, ...]:
    return tuple((tuple(-int(j == i) for j in range(size + 1)),
                  tuple(int(j == i) for j in range(size))) for i in range(size))


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
        return TriangulationData("hilbert", (1, 1), (((-1, 1), (-1,)), ((1, 1), (1,))), 2)
    if family == "gsp4_spin":
        pieces = [((-1, -1, 1), (0, -1)), ((-1, 1, 1), (-1, 1)), ((1, -1, 1), (1, -1)),
                  ((1, 1, 1), (0, 1))]
        return TriangulationData("gsp4_spin", (3, 3), tuple(pieces), 2)
    if family == "gsp_std":
        g = _rank("gsp_std", "g", g, 2)
        return TriangulationData("gsp_std", (2 * g, 2 * g - 1), _gsp_std_pieces(g))
    if family == "unitary":
        size = 4 * _rank("unitary", "n", n, 1)
        return TriangulationData("unitary", (size - 1, size - 1), _unitary_pieces(size))
    raise ValueError(f"unknown family {family!r}; expected one of {FAMILIES}")


def place_forms(data: TriangulationData, row: Sequence[int]) -> PlaceForms:
    """Contract the graded pieces with the B-row `row`: the forms of every place."""
    pieces = data.pieces
    if len(row) != len(pieces):
        from .exactlin import DimensionMismatchError
        raise DimensionMismatchError("B-row length must match the graded pieces")
    num = [0] * len(pieces[0][1])
    den = [0] * len(pieces[0][0])
    for coeff, (kappa, logf) in zip(row, pieces):
        for j, c in enumerate(logf):
            if c:
                num[j] -= coeff * c  # leading minus sign of the generic formula
        for j, c in enumerate(kappa):
            if c:
                den[j] += coeff * c
    # a row's content goes to its scalar: 1738 of 1856 digits at `gsp_std` g = 200
    g, h = gcd(*num) or 1, gcd(*den) or 1
    return PlaceForms(tuple(x // g for x in num), tuple(x // h for x in den), (g, 1),
                      _times((h, 1), (1, data.kappa_den)))


def per_place_pairs(
    data: TriangulationData, direction: Direction, assignments: Sequence[Sequence[Ratio]]
) -> list[tuple[Ratio, Ratio]]:
    """Per-place (a_v, b_v) with a_v/b_v the place's L-invariant factor, one place per
    gradient assignment of pairs that `linvariants.ratio` read; the pieces are contracted once.

    A hilbert place v reads (u_v; u_0), so the direction needs one u per
    place; with any other length place 0 fails as the wrong length.
    """
    forms = place_forms(data, b_row(*data.b_row))
    if data.family != "hilbert":
        # every place reads the whole direction, so place 0 finds the one b_v, after its
        # own gradient check, and the other places take their a_v alone
        pairs = [forms.pair(0, assignments[0], direction)] if assignments else []
        return pairs + [(forms._a(a), pairs[0][1]) for a in assignments[1:]]
    fits = len(direction.u) == len(assignments)
    return [
        forms.pair(v, a, Direction(direction.u[v : v + 1] if fits else (), direction.u0))
        for v, a in enumerate(assignments)
    ]


def rank1_combine(pairs: Sequence[tuple[Ratio, Ratio]]) -> Ratio:
    """prod_v a_v / b_v for rank-one graded pieces."""
    result = (1, 1)
    for v, (a, b) in enumerate(pairs):
        if b[0] == 0:
            raise ZeroDivisionError(f"b_{v} = 0 at place {v}")
        result = _times(result, _quotient(a, b))
    return result


def theorem_row(which: str, data: TriangulationData) -> TriangulationData:
    """`data` with theorem `which`'s B-row in place of the family's own."""
    rule = THEOREMS[which][1]
    return data if rule is None else data._replace(b_row=rule(*data.b_row))


#: per family, the `params` key of its rank and that rank's cap, each about
#: 10 s and 100 MB at most (the cost table is in the README)
LINV_RANK_CAPS = {"gsp_std": ("g", 200), "unitary": ("n", 100)}


def _cmd_linv(args) -> tuple[str, None, None]:
    from .cliargs import CliError, _cap
    from .jsonargs import _array, _has_keys, _json_object, _load_input, _scalar_array
    obj = _load_input(args)
    family = args.family
    params = _json_object(obj.get("params", {}), "params")
    places_obj = _has_keys(obj, "--input", "places", "direction")["places"]
    direction_obj = _has_keys(obj["direction"], "direction", "u")
    u = _scalar_array(direction_obj["u"], "direction.u")
    direction = Direction.make(u, direction_obj.get("u0", 0))
    which = args.compare_theorem
    if which and THEOREMS[which][0] != family:
        raise CliError(f"theorem {which} belongs to family {THEOREMS[which][0]}, not {family}")
    if family in LINV_RANK_CAPS:
        key, cap = LINV_RANK_CAPS[family]
        rank = params.get(key)
        if isinstance(rank, int):
            _cap(rank, cap, f"linv --family {family} {key}")
    if len(_array(places_obj, "places")) < 1:
        raise ValueError("need at least one place")
    data = family_data(family, g=params.get("g"), n=params.get("n"))
    if which:
        data = theorem_row(which, data)
    assignments = []
    keys = [f"a_{j}" for j in range(1, data.num_hecke + 1)]
    for place in places_obj:
        gradients = _has_keys(place, "each place", "gradients")["gradients"]
        gradients = _has_keys(gradients, "gradients", *keys)
        assignments.append([ratio(gradients[key]) for key in keys])
    try:
        pairs = per_place_pairs(data, direction, assignments)
    except SingularDirectionError as err:
        raise CliError(str(err), 3, code="singular_direction", place=err.place) from err
    value = ratio_text(rank1_combine(pairs))  # first, as the likeliest to pass the digit limit
    place = '{"a":"%s","b":"%s","value":"%s"}'
    places = ",".join(place % tuple(map(ratio_text, (a, b, _quotient(a, b)))) for a, b in pairs)
    text = '"per_place":[%s],"value":"%s"}' % (places, value)
    if which:  # "classification" sorts first
        scalar = THEOREMS[which][2]
        kind = "exact" if scalar == 1 else "sign_flip"
        return '{"classification":{"kind":"%s","scalar":"%s"},%s' % (kind, scalar, text), None, None
    return "{" + text, None, None
