"""The `Fraction` evaluation of the L-invariant formula that `linv` replaced, kept as a test oracle.

`linv` contracts integer weight rows with the B-row, takes each row's
content into a scalar, and evaluates every place's pair (a_v, b_v) and
their product in integers on reduced (numerator, denominator) pairs.  This
module computes the same values the way `linv` did before, one `Fraction`
operation at a time: the graded pieces with their halves, the B-row from
`fraction_b_coefficient` term by term, the two linear forms as `Fraction`
rows, a_v and b_v as `Fraction` dot products and the product over places.
It reads its scalars with the old reader `fraction_rational` and shares no
code with `src/`; `tests/test_linv_integers.py` compares the two.
"""

from fractions import Fraction

from kernel_oracles import fraction_b_coefficient
from scalar_oracle import fraction_rational

HALF = Fraction(1, 2)


def fraction_pieces(family: str, rank: int | None) -> list[tuple[list, list]]:
    """The graded pieces (grad_u kappa_i over (u; u_0), grad~ F_i over grad~ a_1..a_r)."""
    if family == "hilbert":
        return [([s * HALF, HALF], [s]) for s in (-1, 1)]
    if family == "gsp4_spin":
        signs = [(-1, -1), (-1, 1), (1, -1), (1, 1)]
        logfs = [[0, -1], [-1, 1], [1, -1], [0, 1]]
        return [([s1 * HALF, s2 * HALF, HALF], f) for (s1, s2), f in zip(signs, logfs)]
    if family == "gsp_std":
        g = rank
        pieces = [None] * (2 * g + 1)
        pieces[g] = ([Fraction(0)] * (g + 1), [0] * g)
        for s in range(1, g + 1):
            i = g + 1 - s
            coeffs = [0] * g
            if i == 1:
                coeffs[0] = 1
            else:
                coeffs[i - 2], coeffs[i - 1] = 1, (-2 if i == g else -1)
            kappa = [Fraction(int(j == i - 1)) for j in range(g + 1)]
            pieces[g + s] = (kappa, coeffs)
            pieces[g - s] = ([-x for x in kappa], [-c for c in coeffs])
        return pieces
    size = 4 * rank
    return [([-Fraction(int(j == i)) for j in range(size + 1)], [int(j == i) for j in range(size)])
            for i in range(size)]


def fraction_row_selector(family: str, rank: int | None, theorem: str | None) -> tuple[int, int]:
    """The (n, k) of the B-row: the family's own, or theorem D2's lower row."""
    n = {"hilbert": 1, "gsp4_spin": 3, "gsp_std": 2 * (rank or 0), "unitary": 4 * (rank or 0) - 1}
    k = {"hilbert": 1, "gsp4_spin": 3, "gsp_std": 2 * (rank or 0) - 1, "unitary": n["unitary"]}
    if theorem == "D2":
        return n[family], n[family] - 2
    return n[family], k[family]


def fraction_forms(family: str, rank: int | None, theorem: str | None = None):
    """(num, den): a_v = num . grads, the leading minus folded in, and b_v = den . (u; u_0)."""
    pieces = fraction_pieces(family, rank)
    n, k = fraction_row_selector(family, rank, theorem)
    row = [fraction_b_coefficient(n, k, i) for i in range(n + 1)]
    num = [-sum((b * f[j] for b, (_, f) in zip(row, pieces)), Fraction(0))
           for j in range(len(pieces[0][1]))]
    den = [sum((b * kappa[j] for b, (kappa, _) in zip(row, pieces)), Fraction(0))
           for j in range(len(pieces[0][0]))]
    return num, den


def _dot(coeffs, values) -> Fraction:
    return sum((c * x for c, x in zip(coeffs, values)), Fraction(0))


def fraction_per_place_pairs(family: str, rank: int | None, theorem: str | None,
                             u, u0, assignments) -> list:
    """Per-place (a_v, b_v) as Fractions, or the place whose b_v vanishes as ("singular", v).

    A hilbert place v reads (u_v; u_0); every other place reads the whole direction.
    """
    num, den = fraction_forms(family, rank, theorem)
    u, u0 = [fraction_rational(x) for x in u], fraction_rational(u0)
    pairs = []
    for v, gradients in enumerate(assignments):
        coords = [u[v], u0] if family == "hilbert" else [*u, u0]
        a = _dot(num, [fraction_rational(x) for x in gradients])
        b = _dot(den, coords)
        if b == 0:
            return ("singular", v)
        pairs.append((a, b))
    return pairs


def fraction_product(pairs) -> Fraction:
    """prod_v a_v / b_v."""
    result = Fraction(1)
    for a, b in pairs:
        result *= a / b
    return result
