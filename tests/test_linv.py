"""Triangulation data, the generic L-invariant, theorem comparisons."""

import random
from fractions import Fraction as F

import pytest

from linvariants import linv
from linvariants.exactlin import DimensionMismatchError
from linvariants.linv import (
    Direction,
    PlaceForms,
    SingularDirectionError,
    TriangulationData,
    compare_to_theorem,
    data_for_theorem,
    family_data,
    per_place_pairs,
    place_forms,
    rank1_combine,
    theorem_evaluator,
    thm_c_coefficient,
)
from linvariants.plethysm import b_row

rng = random.Random(1009)


def rand_frac(lo=-7, hi=7):
    return F(rng.randint(lo, hi), rng.choice([1, 1, 2, 3]))


def random_direction(dim):
    return Direction.make([rand_frac() for _ in range(dim)], rand_frac())


def dot(row, values):
    return sum((F(c) * F(x) for c, x in zip(row, values)), F(0))


def generic_l_invariant(data, direction, assignments):
    """The product formula through the library's per-place forms."""
    return rank1_combine(per_place_pairs(data, direction, assignments))


def generic_by_pieces(data, direction, assignments, row=None):
    """The product formula piece by piece, the oracle for the contraction.

    Per place, -sum_i B_i (F_i . grads) / sum_i B_i (kappa_i . (u; u_0)),
    each graded piece evaluated before it is weighted by its B_i; None when
    a denominator vanishes.
    """
    row = b_row(*data.b_row) if row is None else row
    coords = direction.u + (direction.u0,)
    value = F(1)
    for pieces, assignment in zip(data.graded, assignments):
        num = sum(c * dot(logf, assignment) for c, (_, logf) in zip(row, pieces))
        den = sum(c * dot(kappa, coords) for c, (kappa, _) in zip(row, pieces))
        if den == 0:
            return None
        value *= -num / den
    return value


def scaled(direction, c):
    return Direction(tuple(c * x for x in direction.u), c * direction.u0)


def test_family_shapes():
    assert len(family_data("hilbert", places=3).graded[0]) == 2
    assert len(family_data("gsp4_spin").graded[0]) == 4
    assert len(family_data("gsp_std", g=3).graded[0]) == 7
    assert len(family_data("unitary", n=2).graded[0]) == 8
    with pytest.raises(ValueError):
        family_data("gsp_std", g=1)
    with pytest.raises(ValueError):
        family_data("siegel")


@pytest.mark.parametrize("family, rank", [("unitary", {"n": True}), ("gsp_std", {"g": True}),
                                          ("unitary", {"n": 1.0}), ("gsp_std", {"g": "3"})])
def test_family_refuses_a_rank_that_is_not_an_int(family, rank):
    # a JSON true used to be read as 1
    with pytest.raises(ValueError, match="needs an integer"):
        family_data(family, **rank)


def test_hilbert_log_forms():
    data = family_data("hilbert")
    ((kappa1, f1), (kappa2, f2)) = data.graded[0]
    assert f1 == (-1,) and f2 == (1,)
    # kappa_2 - kappa_1 = k_v - 1: gradient difference is u_v
    coords = (F(5), F(3))
    assert dot(kappa2, coords) - dot(kappa1, coords) == 5


def test_gsp4_log_forms_match_proof():
    data = family_data("gsp4_spin")
    logfs = [lf for _, lf in data.graded[0]]
    assert logfs == [(0, -1), (-1, 1), (1, -1), (0, 1)]


def test_unitary_log_forms():
    data = family_data("unitary", n=1)
    logfs = [lf for _, lf in data.graded[0]]
    assert logfs == [tuple(int(i == j) for j in range(4)) for i in range(4)]


def test_generic_thm_a_value():
    data = family_data("hilbert")
    q = F(9, 4)
    assert generic_l_invariant(data, Direction.make([1], -1), [[q]]) == -2 * q


def test_generic_zero_gradients():
    data = family_data("gsp4_spin")
    assert generic_l_invariant(data, Direction.make([3, 1], 0), [[0, 0]]) == 0


def test_generic_gsp4_example_up_to_recorded_sign():
    data = family_data("gsp4_spin")
    s, t = F(2), F(7, 2)
    value = generic_l_invariant(data, Direction.make([3, 1], 0), [[s, t]])
    comparison = compare_to_theorem("B")
    assert value == comparison.scalar * (-4 * t + 3 * s) / (3 - 2 * 1)


def test_rank1_combine():
    assert rank1_combine([(1, 1)]) == 1
    assert rank1_combine([(2, 1), (3, 1)]) == 6
    with pytest.raises(ZeroDivisionError):
        rank1_combine([(1, 0)])


def test_per_place_pairs_consistent_with_value():
    data = family_data("gsp_std", g=3, places=2)
    direction = Direction.make([5, 2, 1], 1)
    assignments = [[1, 2, 3], [5, -1, 2]]
    pairs = per_place_pairs(data, direction, assignments)
    assert rank1_combine(pairs) == generic_by_pieces(data, direction, assignments)
    one_place = family_data("gsp_std", g=3)
    for (a, b), assignment in zip(pairs, assignments):
        assert a / b == generic_by_pieces(one_place, direction, [assignment])


def test_scale_invariance_of_b_row():
    # replacing the B-row by a nonzero multiple leaves the value unchanged;
    # realized by handing per_place_pairs a scaled row via a fake selector
    data = family_data("gsp4_spin")
    direction = Direction.make([4, 1], 2)
    assignments = [[rand_frac(), rand_frac()]]
    base = generic_l_invariant(data, direction, assignments)
    row = b_row(3, 3)
    for scale in (F(2), F(-5, 3)):
        scaled_row = tuple(scale * x for x in row)
        assert generic_by_pieces(data, direction, assignments, scaled_row) == base
        a, b = place_forms(data, 0, scaled_row).pair(0, assignments[0], direction)
        assert a / b == base


def test_direction_homogeneity():
    data = family_data("gsp_std", g=2, places=2)
    direction = Direction.make([3, 1], 2)
    assignments = [[1, 2], [3, 4]]
    base = generic_l_invariant(data, direction, assignments)
    c = F(5, 7)
    assert generic_l_invariant(data, scaled(direction, c), assignments) == base / c**2


def test_multiplicative_over_places():
    one_place = family_data("unitary", n=1)
    two_place = family_data("unitary", n=1, places=2)
    direction = Direction.make([1, 2, 3, 5], 0)
    a1 = [rand_frac() for _ in range(4)]
    a2 = [rand_frac() for _ in range(4)]
    assert generic_l_invariant(two_place, direction, [a1, a2]) == generic_l_invariant(
        one_place, direction, [a1]
    ) * generic_l_invariant(one_place, direction, [a2])


def test_singular_direction_names_place():
    data = family_data("hilbert", places=2)
    direction = Direction.make([1, 0], 0)  # second place has zero denominator
    with pytest.raises(SingularDirectionError) as err:
        generic_l_invariant(data, direction, [[1], [1]])
    assert err.value.place == 1


def test_classifications():
    assert compare_to_theorem("A").kind == "exact"
    assert compare_to_theorem("B").kind == "sign_flip"
    for n in range(2, 7):
        assert compare_to_theorem("C", n=n).kind == "exact"
    for n in (1, 2, 3):
        assert compare_to_theorem("D1", n=n).kind == "sign_flip"
        assert compare_to_theorem("D2", n=n).kind == "sign_flip"


def test_classification_scalars_are_units():
    for which, n in [("A", None), ("B", None), ("C", 3), ("D1", 2), ("D2", 2)]:
        comparison = compare_to_theorem(which, n=n)
        assert comparison.scalar in (F(1), F(-1))


def test_thm_c_coefficients_match_stated_values():
    # n = 2: B_1 = -C(4,3) = -4, B_2 = C(4,4)*2 = 2
    assert thm_c_coefficient(2, 1) == -4
    assert thm_c_coefficient(2, 2) == 2


def test_thm_a_uses_the_rank_one_b_values():
    assert b_row(1, 1) == (1, -1)
    data = family_data("hilbert")
    assert data.b_row == (1, 1)


@pytest.mark.parametrize(
    "which,n",
    [("A", None), ("B", None), ("C", 2), ("C", 3), ("D1", 1), ("D2", 1)],
)
def test_evaluator_agrees_with_generic(which, n):
    comparison = compare_to_theorem(which, n=n)
    for places in (1, 2):
        data = data_for_theorem(which, n=n, places=places)
        hits = 0
        while hits < 25:
            assignments = [
                [rand_frac() for _ in range(data.num_hecke)] for _ in range(places)
            ]
            if which == "A":
                direction = Direction.make([1] * places, -1)
            else:
                dim_u = len(data.graded[0][0][0]) - 1
                direction = random_direction(dim_u)
            try:
                generic = generic_l_invariant(data, direction, assignments)
                literal = theorem_evaluator(which, direction, assignments, n=n)
            except SingularDirectionError:
                continue
            assert literal == comparison.scalar**places * generic
            hits += 1


def test_evaluator_singular_direction():
    with pytest.raises(SingularDirectionError):
        theorem_evaluator("B", Direction.make([2, 1], 9), [[1, 1]])


def test_place_forms_hilbert():
    forms = place_forms(family_data("hilbert"), 0, b_row(1, 1))
    assert forms.num == (F(2),)  # -(B_0(-1) + B_1(1)) = 2
    assert forms.den == (F(-1), F(0))  # sum B grad kappa = -u_1


def test_data_for_theorem_d2_selects_lower_row():
    data = data_for_theorem("D2", n=1)
    assert data.b_row == (3, 1)


def test_triangulation_data_validates_count():
    # the B-row length check in the contraction refuses a short place
    data = family_data("gsp4_spin")
    short = TriangulationData("gsp4_spin", (3, 3), (data.graded[0][:3],))
    with pytest.raises(DimensionMismatchError, match="B-row length"):
        per_place_pairs(short, Direction.make([1, 2], 0), [[1, 2]])


def test_pair_checks_in_order():
    forms = PlaceForms((F(1), F(2)), (F(1), F(-1), F(0)))
    singular = Direction.make([1, 1], 5)
    with pytest.raises(DimensionMismatchError, match="gradient assignment has wrong length"):
        forms.pair(0, [1], Direction.make([1], 0))
    with pytest.raises(DimensionMismatchError, match="direction has wrong length"):
        forms.pair(0, [1, 1], Direction.make([1], 0))
    with pytest.raises(SingularDirectionError) as err:
        forms.pair(4, [1, 1], singular)
    assert err.value.place == 4
    assert forms.pair(0, ["1/2", 3], Direction.make([3, 1], 9)) == (F(13, 2), F(2))


def test_per_place_pairs_computes_the_b_row_once(monkeypatch):
    calls = []

    def counting_b_row(n, k):
        calls.append((n, k))
        return b_row(n, k)

    monkeypatch.setattr(linv, "b_row", counting_b_row)
    data = family_data("gsp_std", g=2, places=3)
    per_place_pairs(data, Direction.make([3, 1], 2), [[1, 2], [3, 4], [5, 6]])
    assert calls == [(4, 3)]


#: (label, data) for all four families at 1-3 places and each theorem's data
ORACLE_CASES = (
    [(f"{family}-{places}", family_data(family, places=places, g=3, n=1))
     for family in ("hilbert", "gsp4_spin", "gsp_std", "unitary") for places in (1, 2, 3)]
    + [(f"gsp_std-g2-{places}", family_data("gsp_std", places=places, g=2)) for places in (1, 3)]
    + [(f"unitary-n2-{places}", family_data("unitary", places=places, n=2)) for places in (1, 2)]
    + [(f"{which}-{n}-{places}", data_for_theorem(which, n=n, places=places))
       for which, n in [("A", None), ("B", None), ("C", 2), ("C", 4), ("D1", 1), ("D2", 1),
                        ("D2", 2)]
       for places in (1, 2)]
)


@pytest.mark.parametrize("data", [d for _, d in ORACLE_CASES], ids=[i for i, _ in ORACLE_CASES])
def test_per_place_pairs_matches_the_piece_by_piece_oracle(data):
    dim_u = len(data.graded[0][0][0]) - 1
    hits = 0
    while hits < 25:
        direction = random_direction(dim_u)
        assignments = [[rand_frac() for _ in range(data.num_hecke)] for _ in range(data.places)]
        expected = generic_by_pieces(data, direction, assignments)
        if expected is None:
            with pytest.raises(SingularDirectionError):
                per_place_pairs(data, direction, assignments)
            continue
        assert generic_l_invariant(data, direction, assignments) == expected
        hits += 1
