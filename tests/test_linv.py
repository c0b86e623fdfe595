"""Triangulation data, the generic L-invariant, theorem comparisons."""

import json
import random
from fractions import Fraction as F

import pytest

from linvariants import THEOREMS, linv, plethysm
from linvariants.cli import main
from linvariants import ratio
from linvariants.exactlin import DimensionMismatchError
from linvariants.linv import (
    Direction,
    PlaceForms,
    SingularDirectionError,
    TriangulationData,
    family_data,
    per_place_pairs,
    place_forms,
    rank1_combine,
)
from linvariants.plethysm import b_row
from paper_displays import (
    compare_to_theorem,
    data_for_theorem,
    exact_rows,
    theorem_evaluator,
    thm_c_coefficient,
)

rng = random.Random(1009)


def rand_frac(lo=-7, hi=7):
    return F(rng.randint(lo, hi), rng.choice([1, 1, 2, 3]))


def random_direction(dim):
    return Direction.make([rand_frac() for _ in range(dim)], rand_frac())


def dot(row, values):
    return sum((F(c) * F(x) for c, x in zip(row, values)), F(0))


def read(assignments):
    """The gradient assignments as `per_place_pairs` takes them, each scalar read by `ratio`."""
    return [[ratio(x) for x in assignment] for assignment in assignments]


def generic_l_invariant(data, direction, assignments):
    """The product formula through the library's per-place forms, as a Fraction."""
    return F(*rank1_combine(per_place_pairs(data, direction, read(assignments))))


def per_place_pieces(data, places):
    """Each place's graded pieces in Fractions, built place by place over the whole direction.

    A hilbert place v gets rows places + 1 wide, -+1/2 at u_v and 1/2 at
    u_0, so the oracle checks that the library's 2-wide rows read u_v;
    every other family repeats its pieces, their weight rows over `kappa_den`.
    """
    if data.family != "hilbert":
        return (tuple((tuple(F(x, data.kappa_den) for x in kappa), logf)
                      for kappa, logf in data.pieces),) * places
    half = F(1, 2)
    return tuple(
        tuple((tuple(s * half if j == v else F(0) for j in range(places)) + (half,), (s,))
              for s in (-1, 1))
        for v in range(places)
    )


def direction_length(data, places):
    """The number of u coordinates a direction needs: one per place for hilbert."""
    return places if data.family == "hilbert" else len(data.pieces[0][0]) - 1


def generic_by_pieces(data, direction, assignments, row=None):
    """The product formula piece by piece, the oracle for the contraction.

    Per place, -sum_i B_i (F_i . grads) / sum_i B_i (kappa_i . (u; u_0)),
    each graded piece evaluated before it is weighted by its B_i; None when
    a denominator vanishes.
    """
    row = b_row(*data.b_row) if row is None else row
    coords = [F(*x) for x in direction.u + (direction.u0,)]
    value = F(1)
    for pieces, assignment in zip(per_place_pieces(data, len(assignments)), assignments):
        num = sum(c * dot(logf, assignment) for c, (_, logf) in zip(row, pieces))
        den = sum(c * dot(kappa, coords) for c, (kappa, _) in zip(row, pieces))
        if den == 0:
            return None
        value *= -num / den
    return value


def scaled(direction, c):
    return Direction.make([c * F(*x) for x in direction.u], c * F(*direction.u0))


def test_family_shapes():
    hilbert = family_data("hilbert").pieces
    assert len(hilbert) == 2 and all(len(kappa) == 2 for kappa, _ in hilbert)  # over (u_v; u_0)
    assert len(family_data("gsp4_spin").pieces) == 4
    assert len(family_data("gsp_std", g=3).pieces) == 7
    assert len(family_data("unitary", n=2).pieces) == 8
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
    ((kappa1, f1), (kappa2, f2)) = data.pieces
    assert f1 == (-1,) and f2 == (1,)
    # kappa_2 - kappa_1 = k_v - 1: gradient difference is u_v
    coords = (F(5), F(3))
    assert (dot(kappa2, coords) - dot(kappa1, coords)) / data.kappa_den == 5


def test_gsp4_log_forms_match_proof():
    data = family_data("gsp4_spin")
    logfs = [lf for _, lf in data.pieces]
    assert logfs == [(0, -1), (-1, 1), (1, -1), (0, 1)]


def test_unitary_log_forms():
    data = family_data("unitary", n=1)
    logfs = [lf for _, lf in data.pieces]
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
    one = (1, 1)
    assert rank1_combine([(one, one)]) == one
    assert rank1_combine([((2, 1), one), ((3, 1), one)]) == (6, 1)
    assert rank1_combine([((2, 3), (-4, 9)), ((5, 7), (10, 21))]) == (-9, 4)
    with pytest.raises(ZeroDivisionError):
        rank1_combine([(one, (0, 1))])


def test_per_place_pairs_consistent_with_value():
    data = family_data("gsp_std", g=3)
    direction = Direction.make([5, 2, 1], 1)
    assignments = [[1, 2, 3], [5, -1, 2]]
    pairs = per_place_pairs(data, direction, read(assignments))
    assert F(*rank1_combine(pairs)) == generic_by_pieces(data, direction, assignments)
    for (a, b), assignment in zip(pairs, assignments):
        assert F(*a) / F(*b) == generic_by_pieces(data, direction, [assignment])


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
        # the library contracts integer rows: the row times the scale's numerator
        integer_row = tuple(scale.numerator * x for x in row)
        a, b = place_forms(data, integer_row).pair(0, read(assignments)[0], direction)
        assert F(*a) / F(*b) == base


def test_direction_homogeneity():
    data = family_data("gsp_std", g=2)
    direction = Direction.make([3, 1], 2)
    assignments = [[1, 2], [3, 4]]
    base = generic_l_invariant(data, direction, assignments)
    c = F(5, 7)
    assert generic_l_invariant(data, scaled(direction, c), assignments) == base / c**2


def test_multiplicative_over_places():
    data = family_data("unitary", n=1)
    direction = Direction.make([1, 2, 3, 5], 0)
    a1 = [rand_frac() for _ in range(4)]
    a2 = [rand_frac() for _ in range(4)]
    assert generic_l_invariant(data, direction, [a1, a2]) == generic_l_invariant(
        data, direction, [a1]
    ) * generic_l_invariant(data, direction, [a2])


def test_hilbert_place_reads_its_own_u():
    data = family_data("hilbert")
    direction = Direction.make([2, 3, 5], 1)
    pairs = per_place_pairs(data, direction, read([[1], [1], [1]]))
    # b_v = -u_v: the B-row (1, -1) against the rows (-+1/2, 1/2) over (u_v; u_0)
    assert [b for _, b in pairs] == [(-2, 1), (-3, 1), (-5, 1)]


@pytest.mark.parametrize("u", [[], [1], [1, 2, 3]])
def test_hilbert_direction_of_the_wrong_length_fails_at_place_0(u):
    data = family_data("hilbert")
    with pytest.raises(DimensionMismatchError, match="direction has wrong length"):
        per_place_pairs(data, Direction.make(u, 0), read([[1], [2]]))
    # place 0's gradient check comes first
    with pytest.raises(DimensionMismatchError, match="gradient assignment has wrong length"):
        per_place_pairs(data, Direction.make(u, 0), read([[1, 2], [2]]))


def test_singular_direction_names_place():
    data = family_data("hilbert")
    direction = Direction.make([1, 0], 0)  # second place has zero denominator
    with pytest.raises(SingularDirectionError) as err:
        generic_l_invariant(data, direction, [[1], [1]])
    assert err.value.place == 1


def test_classifications():
    # the numeric oracle meets the proven registry up to 40 and at the caps
    assert compare_to_theorem("A").kind == "exact"
    assert compare_to_theorem("B").kind == "sign_flip"
    for n in [*range(2, 41), 199, 200]:
        assert compare_to_theorem("C", n=n) == ("exact", THEOREMS["C"][2])
    for n in [*range(1, 41), 99, 100]:
        assert compare_to_theorem("D1", n=n) == ("sign_flip", THEOREMS["D1"][2])
        assert compare_to_theorem("D2", n=n) == ("sign_flip", THEOREMS["D2"][2])


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
    data = data_for_theorem(which, n=n)
    for places in (1, 2):
        hits = 0
        while hits < 25:
            assignments = [
                [rand_frac() for _ in range(data.num_hecke)] for _ in range(places)
            ]
            if which == "A":
                direction = Direction.make([1] * places, -1)
            else:
                direction = random_direction(direction_length(data, places))
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
    forms = place_forms(family_data("hilbert"), b_row(1, 1))
    num, den = exact_rows(forms)
    assert num == [2]  # -(B_0(-1) + B_1(1)) = 2
    assert den == [-1, 0]  # sum B grad kappa = -u_1
    # each row keeps only what its content leaves
    assert forms == ((1,), (-1, 0), (2, 1), (1, 1))


def test_data_for_theorem_d2_selects_lower_row():
    data = data_for_theorem("D2", n=1)
    assert data.b_row == (3, 1)


def test_triangulation_data_validates_count():
    # the B-row length check in the contraction refuses a short place
    data = family_data("gsp4_spin")
    short = TriangulationData("gsp4_spin", (3, 3), data.pieces[:3])
    with pytest.raises(DimensionMismatchError, match="B-row length"):
        per_place_pairs(short, Direction.make([1, 2], 0), read([[1, 2]]))


def test_pair_checks_in_order():
    forms = PlaceForms((1, 2), (1, -1, 0))
    singular = Direction.make([1, 1], 5)
    with pytest.raises(DimensionMismatchError, match="gradient assignment has wrong length"):
        forms.pair(0, read([[1]])[0], Direction.make([1], 0))
    with pytest.raises(DimensionMismatchError, match="direction has wrong length"):
        forms.pair(0, read([[1, 1]])[0], Direction.make([1], 0))
    with pytest.raises(SingularDirectionError) as err:
        forms.pair(4, read([[1, 1]])[0], singular)
    assert err.value.place == 4
    assert forms.pair(0, read([["1/2", 3]])[0], Direction.make([3, 1], 9)) == ((13, 2), (2, 1))
    # the scalars multiply each form
    scaled = forms._replace(num_scale=(3, 4), den_scale=(-5, 1))
    assert scaled.pair(0, read([["1/2", 3]])[0], Direction.make([3, 1], 9)) == ((39, 8), (-10, 1))


def test_per_place_pairs_computes_the_b_row_once(monkeypatch):
    calls = []

    def counting_b_row(n, k):
        calls.append((n, k))
        return b_row(n, k)

    monkeypatch.setattr(linv, "b_row", counting_b_row)
    data = family_data("gsp_std", g=2)
    per_place_pairs(data, Direction.make([3, 1], 2), read([[1, 2], [3, 4], [5, 6]]))
    assert calls == [(4, 3)]


def test_per_place_pairs_evaluates_b_once_off_hilbert(monkeypatch):
    # one direction for every place: one dot with `den`, and one dot with `num` per place
    dots = []

    def counting_dot(coeffs, values):
        dots.append(len(values))
        return linv_dot(coeffs, values)

    linv_dot = linv._dot
    monkeypatch.setattr(linv, "_dot", counting_dot)
    data = family_data("gsp_std", g=3)
    direction = Direction.make([5, 2, 1], 1)
    assignments = read([[1, 2, 3], [5, -1, 2], ["1/2", 0, 7], [3, 3, 3]])
    pairs = per_place_pairs(data, direction, assignments)
    assert sorted(dots) == [3] * 4 + [4]
    forms = place_forms(data, b_row(*data.b_row))
    assert pairs == [forms.pair(v, a, direction) for v, a in enumerate(assignments)]


def test_per_place_pairs_off_hilbert_refuses_in_place_order():
    # place 0's gradient check comes before a singular direction, which place 0 reports
    # before any later place's gradients are read
    data = family_data("gsp_std", g=2)
    den = place_forms(data, b_row(*data.b_row)).den
    singular = Direction.make([den[1], -den[0]], 0)
    with pytest.raises(DimensionMismatchError, match="gradient assignment has wrong length"):
        per_place_pairs(data, singular, read([[1], [1, 2]]))
    with pytest.raises(SingularDirectionError) as err:
        per_place_pairs(data, singular, read([[1, 2], [1]]))
    assert err.value.place == 0
    with pytest.raises(DimensionMismatchError, match="direction has wrong length"):
        per_place_pairs(data, Direction.make([1], 0), read([[1, 2], [1]]))
    with pytest.raises(DimensionMismatchError, match="gradient assignment has wrong length"):
        per_place_pairs(data, Direction.make([1, 2], 0), read([[1, 2], [1]]))
    assert per_place_pairs(data, singular, []) == []


def test_compare_theorem_builds_one_b_row(monkeypatch, tmp_path, capsys):
    # the classification is the registry's, so the request's own row is the only one
    calls = []

    def counting_b_row(n, k):
        calls.append((n, k))
        return b_row(n, k)

    monkeypatch.setattr(plethysm, "b_row", counting_b_row)
    monkeypatch.setattr(linv, "b_row", counting_b_row)
    path = tmp_path / "linv.json"
    path.write_text(json.dumps({"params": {"g": 3}, "direction": {"u": [5, 2, 1], "u0": 1},
                                "places": [{"gradients": {"a_1": 1, "a_2": 2, "a_3": 3}}]}))
    code = main(["linv", "--family", "gsp_std", "--input", str(path), "--compare-theorem", "C"])
    assert code == 0 and json.loads(capsys.readouterr().out)["classification"]["kind"] == "exact"
    assert calls == [(6, 5)]


@pytest.mark.parametrize("family, direction", [("hilbert", [3, 1, 2]), ("gsp_std", [3, 1])])
def test_per_place_pairs_contracts_once(monkeypatch, family, direction):
    calls = []

    def counting_place_forms(data, row):
        calls.append(row)
        return place_forms(data, row)

    monkeypatch.setattr(linv, "place_forms", counting_place_forms)
    data = family_data(family, g=2)
    assignments = [[1, 2][: data.num_hecke], [3, 4][: data.num_hecke], [5, 6][: data.num_hecke]]
    pairs = per_place_pairs(data, Direction.make(direction, 2), read(assignments))
    assert len(pairs) == 3 and len(calls) == 1


#: (label, data, places) for all four families at 1-3 places and each theorem's data
ORACLE_CASES = (
    [(f"{family}-{places}", family_data(family, g=3, n=1), places)
     for family in ("hilbert", "gsp4_spin", "gsp_std", "unitary") for places in (1, 2, 3)]
    + [(f"gsp_std-g2-{places}", family_data("gsp_std", g=2), places) for places in (1, 3)]
    + [(f"unitary-n2-{places}", family_data("unitary", n=2), places) for places in (1, 2)]
    + [(f"{which}-{n}-{places}", data_for_theorem(which, n=n), places)
       for which, n in [("A", None), ("B", None), ("C", 2), ("C", 4), ("D1", 1), ("D2", 1),
                        ("D2", 2)]
       for places in (1, 2)]
)


@pytest.mark.parametrize("data, places", [c[1:] for c in ORACLE_CASES],
                         ids=[c[0] for c in ORACLE_CASES])
def test_per_place_pairs_matches_the_piece_by_piece_oracle(data, places):
    hits = 0
    while hits < 25:
        direction = random_direction(direction_length(data, places))
        assignments = [[rand_frac() for _ in range(data.num_hecke)] for _ in range(places)]
        expected = generic_by_pieces(data, direction, assignments)
        if expected is None:
            with pytest.raises(SingularDirectionError):
                per_place_pairs(data, direction, read(assignments))
            continue
        assert generic_l_invariant(data, direction, assignments) == expected
        hits += 1
