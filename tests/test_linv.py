"""Triangulation data, the generic L-invariant, theorem comparisons."""

import random
from fractions import Fraction as F

import pytest

from linvariants.linv import (
    Direction,
    SingularDirectionError,
    TriangulationData,
    compare_to_theorem,
    data_for_theorem,
    family_data,
    generic_l_invariant,
    per_place_pairs,
    rank1_combine,
    symbolic_specialize,
    theorem_evaluator,
    thm_c_coefficient,
)
from linvariants.plethysm import b_row

rng = random.Random(1009)


def rand_frac(lo=-7, hi=7):
    return F(rng.randint(lo, hi), rng.choice([1, 1, 2, 3]))


def random_direction(dim):
    return Direction.make([rand_frac() for _ in range(dim)], rand_frac())


def test_family_shapes():
    assert family_data("hilbert", places=3).m + 1 == 2
    assert family_data("gsp4_spin").m + 1 == 4
    assert family_data("gsp_std", g=3).m + 1 == 7
    assert family_data("unitary", n=2).m + 1 == 8
    with pytest.raises(ValueError):
        family_data("gsp_std", g=1)
    with pytest.raises(ValueError):
        family_data("siegel")


def test_hilbert_log_forms():
    data = family_data("hilbert")
    ((kappa1, f1), (kappa2, f2)) = data.graded[0]
    assert f1.coeffs == (-1,) and f2.coeffs == (1,)
    # kappa_2 - kappa_1 = k_v - 1: gradient difference is u_v
    d = Direction.make([F(5)], F(3))
    assert kappa2.gradient(d) - kappa1.gradient(d) == 5


def test_gsp4_log_forms_match_proof():
    data = family_data("gsp4_spin")
    logfs = [lf.coeffs for _, lf in data.graded[0]]
    assert logfs == [(0, -1), (-1, 1), (1, -1), (0, 1)]


def test_unitary_log_forms():
    data = family_data("unitary", n=1)
    logfs = [lf.coeffs for _, lf in data.graded[0]]
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
    assert rank1_combine(pairs) == generic_l_invariant(data, direction, assignments)


def test_scale_invariance_of_b_row():
    # replacing the B-row by a nonzero multiple leaves the value unchanged;
    # realized by handing per_place_pairs a scaled row via a fake selector
    data = family_data("gsp4_spin")
    direction = Direction.make([4, 1], 2)
    assignments = [[rand_frac(), rand_frac()]]
    base = generic_l_invariant(data, direction, assignments)
    row = b_row(3, 3)
    for scale in (F(2), F(-5, 3)):
        scaled = tuple(scale * x for x in row)
        num = sum(c * lf.value([F(x) for x in assignments[0]]) for c, (k, lf) in zip(scaled, data.graded[0]))
        den = sum(c * k.gradient(direction) for c, (k, lf) in zip(scaled, data.graded[0]))
        assert -num / den == base


def test_direction_homogeneity():
    data = family_data("gsp_std", g=2, places=2)
    direction = Direction.make([3, 1], 2)
    assignments = [[1, 2], [3, 4]]
    base = generic_l_invariant(data, direction, assignments)
    c = F(5, 7)
    assert generic_l_invariant(data, direction.scale(c), assignments) == base / c**2


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
                dim_u = len(data.graded[0][0][0].u_coeffs)
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


def test_symbolic_specialize_hilbert():
    symbolic = symbolic_specialize(family_data("hilbert"))
    assert symbolic.num == (F(2),)  # -(B_0(-1) + B_1(1)) = 2
    assert symbolic.den == (F(-1), F(0))  # sum B grad kappa = -u_1


def test_data_for_theorem_d2_selects_lower_row():
    data = data_for_theorem("D2", n=1)
    assert data.b_row == (3, 1)


def test_triangulation_data_validates_count():
    data = family_data("gsp4_spin")
    with pytest.raises(Exception):
        TriangulationData("gsp4_spin", 3, (3, 3), (data.graded[0][:3],), 2)
