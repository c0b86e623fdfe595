"""For every rank, each theorem's display is the generic expansion times its `THEOREMS` scalar.

`linv --compare-theorem` prints the scalar that the `THEOREMS` registry
records for the theorem and computes nothing more.  This module proves,
with sympy and in the rank as a symbol, that the scalar is right.  The
proof is the finite case of the term-ratio method (Petkovšek–Wilf–
Zeilberger, *A = B*, ch. 3):

1. **B-rows.**  The family's B-row (n, k) has c = n - k in {0, 1, 2}, so
   B_{N,N-c,i} sums at most c + 1 of the terms T_i(a) of `plethysm`.  In
   the regime c <= i <= N - c, `combsimp` reduces their sum, i symbolic,
   to the closed form of `ROWS`.  Each edge index i in {0, 1, N-1, N}
   gets its own range of a and is checked on its own.  The closed forms
   are also compared with `plethysm.b_row` at small N.
2. **Pieces.**  `PIECES` gives, for each coordinate regime of the family's
   rows, the slots (B-row indices) and coefficients of the graded pieces
   at coordinate j, in the rank r and j.  At small ranks the model must
   rebuild `linv.family_data(...).pieces` exactly.
3. **Displays.**  `DISPLAYS` gives each display coordinate as a sum of
   hypergeometric terms in (r, j).  At small ranks the model must rebuild
   the display oracle `paper_displays._theorem_forms` exactly.
4. **Contraction.**  A generic coordinate is -sum coeff B_slot (num) or
   +sum coeff B_slot (den) over the slots of its regime.  Each term of the
   display and of the generic coordinate is divided by one reference term
   and reduced by `combsimp` to a rational function, so their quotient
   is a quotient of rational functions.  It must be free of j and
   nonzero: one function f(r) per side, the same in every regime, and
   f_num / f_den must be the registry scalar.  A coordinate that no piece
   reaches (u_0) must be zero in the display too.

The ranks are r = r_min + t with t >= 0 a symbol, so that the ranges of a
at the edges resolve.  Theorems A and B have no rank: their rows are the
closed form at N = 1 and N = 3, contracted with the family's own pieces.
"""

from fractions import Fraction

import pytest
import sympy as sp

from linvariants import THEOREMS
from linvariants.linv import family_data
from linvariants.plethysm import b_row
from paper_displays import _theorem_forms, data_for_theorem, display_ratios

T, J, I, N = sp.symbols("t j i N", integer=True, nonnegative=True)


def term(n, k, i, a):
    """T_i(a) = (-1)^a C(n,i) C(i,a) C(n-i,k-a) (n-i+a)! (i+k-a)!, one term of B_{n,k,i}."""
    return ((-1) ** a * sp.binomial(n, i) * sp.binomial(i, a) * sp.binomial(n - i, k - a)
            * sp.factorial(n - i + a) * sp.factorial(i + k - a))


def d2_poly(m, i):
    return m**3 - (4 * i + 1) * m**2 + (4 * i**2 + 2 * i) * m - 2 * i**2


#: c = n - k -> (the closed form of B_{N,N-c,i}, the least N a theorem reads with it)
ROWS = {
    0: (lambda n, i: (-1) ** i * sp.binomial(n, i) * sp.factorial(n) ** 2, 1),
    1: (lambda n, i: ((-1) ** (i + 1) * (2 * i - n) * sp.binomial(n, i)
                      * sp.factorial(n) * sp.factorial(n - 1)), 4),
    2: (lambda n, i: ((-1) ** i * sp.binomial(n, i) * d2_poly(n, i)
                      * sp.factorial(n - 2) * sp.factorial(n - 1) / 2), 3),
}

#: theorem -> (the c of its row, N of its row at rank r, least rank)
THEOREM_ROWS = {
    "A": (0, lambda r: 1, None),
    "B": (0, lambda r: 3, None),
    "C": (1, lambda r: 2 * r, 2),
    "D1": (0, lambda r: 4 * r - 1, 1),
    "D2": (2, lambda r: 4 * r - 1, 1),
}


def reduce(expr):
    """combsimp, then the powers of -1 collected into one."""
    return sp.powsimp(sp.combsimp(expr), force=True)


def is_one(expr) -> bool:
    return sp.simplify(reduce(expr) - 1) == 0


@pytest.mark.parametrize("c", sorted(ROWS))
def test_the_row_closed_form_sums_its_terms_in_the_inner_regime(c):
    closed, _ = ROWS[c]
    # c <= i <= N - c: a runs over i - c .. i, every term in range
    terms = sum(term(N, N - c, I, I - d) for d in range(c + 1))
    assert is_one(terms / closed(N, I))


@pytest.mark.parametrize("c", sorted(ROWS))
@pytest.mark.parametrize("edge", ["0", "1", "N-1", "N"])
def test_the_row_closed_form_holds_at_each_edge_index(c, edge):
    closed, least = ROWS[c]
    n = least + T
    i = {"0": 0, "1": 1, "N-1": n - 1, "N": n}[edge]
    lo, hi = sp.Max(0, i - c), sp.Min(i, n - c)
    count = sp.simplify(hi - lo)
    assert count.is_Integer and 0 <= count <= c, (lo, hi)
    assert is_one(sum(term(n, n - c, i, lo + d) for d in range(count + 1)) / closed(n, i))


@pytest.mark.parametrize("c", sorted(ROWS))
def test_the_row_closed_forms_are_the_library_rows(c):
    closed, least = ROWS[c]
    for n in range(least, 16):
        assert tuple(closed(sp.Integer(n), i) for i in range(n + 1)) == b_row(n, n - c)


@pytest.mark.parametrize("which", sorted(THEOREMS))
def test_each_theorem_reads_the_row_of_the_proof(which):
    c, size, least = THEOREM_ROWS[which]
    for r in [None] if least is None else range(least, least + 5):
        assert data_for_theorem(which, r).b_row == (size(r), size(r) - c)


def _c(g, s):
    """(-1)^s C(2g, g+s) s, the sym^{4g-2} display's coefficient of index s."""
    return (-1) ** s * sp.binomial(2 * g, g + s) * s


def _d1(m, j):
    return (-1) ** j * sp.binomial(m, j)


def _d2(m, j):
    return (-1) ** j * sp.binomial(m, j) * d2_poly(m, j)


#: family -> side -> [(first j, last j, j -> [(slot, coefficient)])] at rank r;
#: den reads grad_u kappa over (u; u_0), num reads grad~ F over grad~ a
PIECES = {
    "gsp_std": lambda g: {
        # Hecke index j + 1 sits at slots g +- (g - j), with kappa = +-e_j
        "den": [(0, g - 1, lambda j: [(2 * g - j, 1), (j, -1)]), (g, g, lambda j: [])],
        "num": [
            # i = 1 reads grad~ a_1, i = 2 reads grad~ a_1 - grad~ a_2
            (0, 0, lambda j: [(2 * g, 1), (0, -1), (2 * g - 1, 1), (1, -1)]),
            (1, g - 2, lambda j: [(2 * g - j, -1), (j, 1), (2 * g - j - 1, 1), (j + 1, -1)]),
            # i = g reads grad~ a_{g-1} - 2 grad~ a_g
            (g - 1, g - 1, lambda j: [(g + 1, -2), (g - 1, 2)]),
        ],
    },
    "unitary": lambda n: {
        "den": [(0, 4 * n - 1, lambda j: [(j, -1)]), (4 * n, 4 * n, lambda j: [])],
        "num": [(0, 4 * n - 1, lambda j: [(j, 1)])],
    },
}

#: theorem -> side -> [(first j, last j, j -> display terms)] at rank r, the
#: coordinates of `_theorem_forms`: num is minus the displayed numerator
DISPLAYS = {
    "C": lambda g: {
        "den": [(0, g - 1, lambda j: [_c(g, g - j)]), (g, g, lambda j: [])],
        "num": [
            (0, 0, lambda j: [-_c(g, g), -_c(g, g - 1)]),
            (1, g - 2, lambda j: [-_c(g, g - 1 - j), _c(g, g - j)]),
            (g - 1, g - 1, lambda j: [2 * _c(g, 1)]),
        ],
    },
    "D1": lambda n: {
        "den": [(0, 4 * n - 1, lambda j: [_d1(4 * n - 1, j)]), (4 * n, 4 * n, lambda j: [])],
        "num": [(0, 4 * n - 1, lambda j: [-_d1(4 * n - 1, j)])],
    },
    "D2": lambda n: {
        "den": [(0, 4 * n - 1, lambda j: [_d2(4 * n - 1, j)]), (4 * n, 4 * n, lambda j: [])],
        "num": [(0, 4 * n - 1, lambda j: [-_d2(4 * n - 1, j)])],
    },
}

SIDES = {"num": 1, "den": 0}  # the index of each side's row in a piece
RANKED = sorted(DISPLAYS)


def dense(regimes) -> list:
    """The coordinates a regime model gives at a concrete rank, each once."""
    out = {}
    for first, last, at in regimes:
        for j in range(first, last + 1):
            assert j not in out, f"coordinate {j} in two regimes"
            out[j] = at(j)
    assert sorted(out) == list(range(len(out))), "the regimes leave a gap"
    return [out[j] for j in range(len(out))]


@pytest.mark.parametrize("family", sorted(PIECES))
def test_the_piece_model_is_the_library_pieces(family):
    for r in range(1 if family == "unitary" else 2, 9):
        pieces = family_data(family, g=r, n=r).pieces
        for side, index in SIDES.items():
            width = len(pieces[0][index])
            rows = [[0] * width for _ in pieces]
            for j, contributions in enumerate(dense(PIECES[family](r)[side])):
                for slot, coeff in contributions:
                    rows[slot][j] += coeff
            assert rows == [list(piece[index]) for piece in pieces], (family, r, side)


@pytest.mark.parametrize("which", RANKED)
def test_the_display_model_is_the_display(which):
    least = THEOREM_ROWS[which][2]
    for r in range(least, least + 8):
        forms = _theorem_forms(which, r)
        for side in SIDES:
            model = [sum(terms, sp.Integer(0)) for terms in dense(DISPLAYS[which](r)[side])]
            assert model == list(getattr(forms, side)), (which, r, side)


def ratio_of_sums(display_terms, generic_terms):
    """display / generic, each term reduced against the first generic term; None for 0 / 0."""
    if not generic_terms:
        assert sum(display_terms, sp.Integer(0)) == 0, "the display meets a coordinate alone"
        return None
    ref = generic_terms[0]
    generic = sp.cancel(sum(reduce(x / ref) for x in generic_terms))
    display = sp.cancel(sum(reduce(x / ref) for x in display_terms))
    assert generic != 0, "the generic coordinate vanishes for every rank"
    return reduce(sp.simplify(display / generic))


def proven_ratios(which) -> dict:
    """side -> f(r), the display coordinate over the generic one in every regime."""
    c, size, least = THEOREM_ROWS[which]
    rank = least + T
    closed = ROWS[c][0]
    family = THEOREMS[which][0]
    ratios = {}
    for side, sign in (("num", -1), ("den", 1)):
        pieces, displays = PIECES[family](rank)[side], DISPLAYS[which](rank)[side]
        assert [regime[:2] for regime in pieces] == [regime[:2] for regime in displays]
        found = []
        for (first, last, pieces_at), (_, _, display_at) in zip(pieces, displays):
            j = first if sp.simplify(last - first) == 0 else J
            generic = [sign * coeff * closed(size(rank), slot) for slot, coeff in pieces_at(j)]
            ratio = ratio_of_sums(display_at(j), generic)
            if ratio is not None:
                assert ratio != 0 and not ratio.has(J), (which, side, first, ratio)
                found.append(ratio)
        assert all(is_one(x / found[0]) for x in found), (which, side, found)
        ratios[side] = found[0]
    return ratios


@pytest.fixture(scope="module")
def ratios():
    return {which: proven_ratios(which) for which in RANKED}


@pytest.mark.parametrize("which", RANKED)
def test_the_display_is_the_registry_scalar_times_the_generic_expansion(ratios, which):
    f = ratios[which]
    assert sp.simplify(reduce(f["num"] / f["den"]) - THEOREMS[which][2]) == 0


@pytest.mark.parametrize("which", RANKED)
def test_the_recorded_display_ratios_are_the_proven_ones(ratios, which):
    least = THEOREM_ROWS[which][2]
    for r in range(least, least + 10):
        proven = tuple(Fraction(str(ratios[which][side].subs(T, r - least))) for side in SIDES)
        assert proven == display_ratios(which, r)


def fixed_rank_forms(which):
    """The generic (num, den) of a rank-free theorem: the closed row and the family's pieces."""
    c, size, _ = THEOREM_ROWS[which]
    row = [ROWS[c][0](sp.Integer(size(None)), i) for i in range(size(None) + 1)]
    data = family_data(THEOREMS[which][0])
    pieces = data.pieces
    num = [-sum(b * f[j] for b, (_, f) in zip(row, pieces)) for j in range(len(pieces[0][1]))]
    den = [sum(b * sp.Rational(k[j], data.kappa_den) for b, (k, _) in zip(row, pieces))
           for j in range(len(pieces[0][0]))]
    return num, den


def test_theorem_a_is_exact_at_its_direction():
    # sym^2 is stated at (1; -1): the display -2 grad~ a_v against a_v / b_v
    (num,), (den_u, den_u0) = fixed_rank_forms("A")
    assert sp.Integer(-2) / (num / (den_u - den_u0)) == THEOREMS["A"][2]


def test_theorem_b_is_its_scalar():
    forms = _theorem_forms("B", None)
    found = []
    for display, generic in zip(forms, fixed_rank_forms("B")):
        display = [sp.Rational(str(x)) for x in display]
        assert [x == 0 for x in display] == [x == 0 for x in generic]
        (ratio,) = {d / g for d, g in zip(display, generic) if g}
        found.append(ratio)
    assert tuple(found) == display_ratios("B")
    assert found[0] / found[1] == THEOREMS["B"][2]

