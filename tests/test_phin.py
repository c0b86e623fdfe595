"""Filtered (phi,N)-modules: cases, submodules, the three-step filtration."""

import json
import random
import time
from fractions import Fraction as F
from itertools import combinations, permutations, product
from math import comb
from types import SimpleNamespace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from linalg_oracle import (
    Subspace,
    contains,
    coordinate_support,
    fil0_space,
    image_under,
    intersect,
    monodromy_matrix,
    preimage_under,
    regular_by_rank,
    span_sum,
)
from linvariants.exactlin import rational
from linvariants.phin import _cmd_phin, _l_text
from linvariants.weylhecke import EigenMonomial
from phin_oracle import (
    CASES,
    CRYSTALLINE_NONSPLIT,
    CRYSTALLINE_SPLIT,
    P_INVERSE,
    STEINBERG,
    PhiNModule,
    UnsupportedInputError,
    benois_filtration,
    build_case,
    canonical_regular_submodule,
    gr1_data,
    is_stable,
    phin_answer,
    regular_submodules,
    stable_submodules,
)

rng = random.Random(313)

#: p-adic valuations of the formal symbols: only p carries one, v_p(alpha) = 0
SYMBOL_VALUATIONS = {"p": F(1)}


def valuation(monomial, symbol_valuations=SYMBOL_VALUATIONS):
    """Additive valuation of a monomial from declared per-symbol valuations."""
    return sum((e * symbol_valuations.get(sym, F(0)) for sym, e in monomial.exponents), F(0))


def eigenvalue(module, f_index):
    return module.phi[module.coordinate(f_index)]


def dense(module, span):
    return Subspace.coordinate(module.dim, span)


def stable_submodules_oracle(module):
    """Subset search: every coordinate set that is_stable accepts."""
    found = [
        combo
        for r in range(module.dim + 1)
        for combo in combinations(range(module.dim), r)
        if is_stable(module, combo)
    ]
    found.sort(key=lambda s: (len(s), s))
    return found


def tuple_is_stable(module, span):
    """`is_stable` looking each target up in the tuple (None, *span)."""
    return all(module.monodromy[c] in (None, *span) for c in span)


def tuple_stable_submodules(module):
    """`stable_submodules` testing `target in s` on each closed tuple."""
    closed = [()]
    for col in range(module.dim):
        target = module.monodromy[col]
        closed += [s + (col,) for s in closed if target is None or target in s]
    closed.sort(key=lambda s: (len(s), s))
    return closed


def tuple_lifted_d1(module, d):
    """D_1 of `benois_filtration`, looking each target up in the tuple (None, *d)."""
    lifted = {
        c for c in range(module.dim)
        if module.phi[c] == EigenMonomial() and module.monodromy[c] in (None, *d)
    }
    return tuple(sorted(lifted.union(d)))


def regular_by_intersection(module, stable):
    """The n-dimensional spans in `stable` whose intersection with Fil^0 is zero."""
    fil0 = fil0_space(module)
    return [
        span
        for span in stable
        if len(span) == module.n and intersect(dense(module, span), fil0).dim == 0
    ]


def benois_by_linear_algebra(module, d):
    """D_{-1}, D_0, D_1 by intersections, images and preimages of dense subspaces."""

    def eigenspace(value):
        return dense(module, [c for c, lam in enumerate(module.phi) if lam == value])

    space, one = dense(module, d), eigenspace(EigenMonomial())
    n_matrix = monodromy_matrix(module)
    # (1 - p^{-1} phi^{-1}) is the scalar 1 - p^{-1} lambda^{-1} on the
    # lambda-eigenline, zero iff lambda = p^{-1}
    surviving = dense(module, [c for c in d if module.phi[c] != P_INVERSE])
    d_minus1 = span_sum(surviving, image_under(intersect(space, one), n_matrix))
    d_phi_pinv = intersect(space, eigenspace(P_INVERSE))
    d_1 = span_sum(space, intersect(one, preimage_under(d_phi_pinv, n_matrix)))
    return tuple(coordinate_support(x) for x in (d_minus1, space, d_1))


def test_monomial_algebra():
    p = EigenMonomial.p_power(2)
    r = EigenMonomial.symbol("r")
    assert p * p.inverse() == EigenMonomial()
    assert (p * r) ** 3 == EigenMonomial.from_dict({"p": 6, "r": 3})
    assert p != r
    assert EigenMonomial.from_dict({"r": 0}) == EigenMonomial()
    assert valuation(p * r) == 2  # only p carries valuation by default
    assert valuation(p, {"p": F(1, 2)}) == 1


def test_steinberg_rejects_zero_parameter():
    with pytest.raises(ValueError):
        build_case(STEINBERG, 2, l_invariant=0)


def test_steinberg_monodromy_superdiagonal():
    # n=1 on (f_1, f_0, f_-1): entries (1, 2) down the superdiagonal, i.e.
    # (2n, ..., 1) when listed by ascending f-index
    module = build_case(STEINBERG, 1, l_invariant=1)
    n_matrix = monodromy_matrix(module)
    assert n_matrix[0][1] == 1 and n_matrix[1][2] == 2
    assert all(
        n_matrix[i][j] == 0
        for i in range(3)
        for j in range(3)
        if j != i + 1
    )
    by_ascending_f_index = [n_matrix[i][i + 1] for i in range(2)][::-1]
    assert by_ascending_f_index == [2, 1]


@pytest.mark.parametrize("n", range(1, 5))
def test_monodromy_shifts_frobenius_by_p(n):
    module = build_case(STEINBERG, n)
    p = EigenMonomial.p_power(1)
    for i in range(-n, n):
        # N f_i lands in the f_{i+1} line whose eigenvalue is p^{-1} times f_i's
        assert eigenvalue(module, i) == p * eigenvalue(module, i + 1)


def test_crystalline_nonsplit_eigenvalues():
    module = build_case(CRYSTALLINE_NONSPLIT, 2)
    r = EigenMonomial.symbol("r")
    assert tuple(eigenvalue(module, i) for i in (2, 1, 0, -1, -2)) == (
        r**2,
        r,
        EigenMonomial(),
        r**-1,
        r**-2,
    )


def test_crystalline_split_eigenvalues_and_weight():
    module = build_case(CRYSTALLINE_SPLIT, 1, weight=4)
    assert eigenvalue(module, 1) == EigenMonomial.from_dict({"alpha": 2, "p": 3})
    assert valuation(eigenvalue(module, 1)) == 3  # v_p(alpha) = 0 declared
    with pytest.raises(ValueError):
        build_case(CRYSTALLINE_SPLIT, 1, weight=1)


@pytest.mark.parametrize("n", range(1, 9))
def test_monodromy_map_is_support_of_dense_oracle(n):
    for case in CASES:
        module = build_case(case, n)
        columns = list(zip(*monodromy_matrix(module)))
        support = tuple(
            next((row for row, x in enumerate(column) if x), None) for column in columns
        )
        assert module.monodromy == support
        assert all(sum(1 for x in column if x) <= 1 for column in columns)


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("n", range(1, 9))
def test_fil0_dimension(case, n):
    # the rank of the n+1 spanning rows, which the CLI reports as n+1
    assert fil0_space(build_case(case, n)).dim == n + 1


@pytest.mark.parametrize("n", range(1, 9))
def test_split_fil0_is_the_lower_half(n):
    # the (0, 1) root: multiples of e2^n are <f_0, ..., f_{-n}>
    module = build_case(CRYSTALLINE_SPLIT, n)
    assert fil0_space(module) == Subspace.coordinate(module.dim, range(n, module.dim))


@pytest.mark.parametrize("n", range(1, 5))
def test_steinberg_stable_submodules_chain(n):
    module = build_case(STEINBERG, n)
    found = stable_submodules(module)
    assert len(found) == 2 * n + 2
    expected = [module.f_span(range(i, n + 1)) for i in range(n + 1, -n - 1, -1)]
    assert set(found) == set(expected)


def test_stable_submodules_exhaustive_oracle():
    # independent check: brute force N-closure over all 8 coordinate subsets
    module = build_case(STEINBERG, 1)
    oracle = []
    for mask in range(8):
        positions = tuple(pos for pos in range(3) if mask >> pos & 1)
        space = Subspace.coordinate(3, positions)
        image = image_under(space, monodromy_matrix(module))
        if contains(space, image):
            oracle.append(positions)
    assert set(oracle) == set(stable_submodules(module))
    assert len(oracle) == 4


@pytest.mark.parametrize(
    "case, n",
    [(case, n) for case in CASES for n in range(1, 5)]
    + [(STEINBERG, n) for n in range(5, 9)],
)
def test_submodules_match_subset_search(case, n):
    module = build_case(case, n)
    stable = stable_submodules_oracle(module)
    assert stable_submodules(module) == stable
    assert regular_submodules(module) == regular_by_intersection(module, stable)


@pytest.mark.parametrize(
    "case, n", [(case, n) for case in CASES for n in range(1, 7)] + [(STEINBERG, 60)]
)
def test_set_membership_equals_tuple_membership(case, n):
    assert_membership_equals_tuple_membership(build_case(case, n))


def test_set_membership_with_monodromy_onto_far_coordinates():
    # N sends coordinate 3 onto 0 and 4 onto 1, so a closed set can hold
    # coordinates above the target but not the target itself
    x, y, w = (EigenMonomial.symbol(s) for s in ("x", "y", "w"))
    phi = (P_INVERSE * x, P_INVERSE * w, y, x, w)
    module = PhiNModule(STEINBERG, 2, phi, (None, None, None, 0, 1), l_invariant=F(1))
    assert len(stable_submodules(module)) == 18
    assert_membership_equals_tuple_membership(module)


def assert_membership_equals_tuple_membership(module):
    stable = stable_submodules(module)
    assert stable == tuple_stable_submodules(module)
    for d in stable:
        assert is_stable(module, d)
        assert benois_filtration(module, d).d_1 == tuple_lifted_d1(module, d)
    for _ in range(200):
        span = tuple(sorted(rng.sample(range(module.dim), rng.randint(0, module.dim))))
        assert is_stable(module, span) == tuple_is_stable(module, span)


def test_steinberg_at_n_40_with_a_64_bit_parameter():
    # Fil^0's entries grow like L^n, so no step may eliminate on them
    start = time.perf_counter()
    module = build_case(STEINBERG, 40, l_invariant=F(18446744073709551629, 12157665459056928801))
    assert len(stable_submodules(module)) == 82
    (d,) = regular_submodules(module)
    assert d == module.f_span(range(1, 41))
    filtration = benois_filtration(module, d)
    assert filtration.d_minus1 == module.f_span(range(2, 41))
    assert filtration.d_1 == module.f_span(range(0, 41))
    assert gr1_data(module, d) == (1, EigenMonomial())
    assert time.perf_counter() - start < 5


def test_steinberg_chain_at_large_n():
    # 2^61 coordinate subsets; the closure construction builds the 62 tails
    assert len(stable_submodules(build_case(STEINBERG, 30))) == 62


def test_monodromy_lowering_f_index_rejected():
    # the transposed map: coordinate c onto c + 1, which lowers the f-index
    module = build_case(STEINBERG, 2)
    transposed = tuple(
        next((col for col, row in enumerate(module.monodromy) if row == c), None)
        for c in range(module.dim)
    )
    assert transposed == (1, 2, 3, 4, None)
    with pytest.raises(UnsupportedInputError):
        PhiNModule(module.case, module.n, module.phi, transposed)


def test_steinberg_monodromy_on_unrelated_eigenvalues_rejected():
    # the steinberg N raises the f-index, but N phi = p phi N fails for the
    # eigenvalues r^i
    nonsplit = build_case(CRYSTALLINE_NONSPLIT, 2)
    steinberg = build_case(STEINBERG, 2)
    with pytest.raises(UnsupportedInputError):
        PhiNModule(nonsplit.case, nonsplit.n, nonsplit.phi, steinberg.monodromy)


def test_monodromy_with_two_columns_onto_one_row_rejected():
    # f_1 and f_0 both onto f_2: with distinct eigenvalues N phi = p phi N
    # allows one of them at most
    module = build_case(STEINBERG, 2)
    with pytest.raises(UnsupportedInputError):
        PhiNModule(module.case, module.n, module.phi, (None, 0, 0, 2, 3))


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("n", range(1, 3))
def test_is_stable_matches_image_containment(case, n):
    module = build_case(case, n)
    n_matrix = monodromy_matrix(module)
    for r in range(module.dim + 1):
        for combo in combinations(range(module.dim), r):
            space = dense(module, combo)
            assert is_stable(module, combo) == contains(space, image_under(space, n_matrix))


def test_crystalline_stable_submodules_are_all_subsets():
    module = build_case(CRYSTALLINE_NONSPLIT, 1)
    assert len(stable_submodules(module)) == 8


@pytest.mark.parametrize("n", range(1, 5))
def test_steinberg_unique_regular(n):
    module = build_case(STEINBERG, n)
    regular = regular_submodules(module)
    assert regular == [module.f_span(range(1, n + 1))]


@pytest.mark.parametrize("n", range(1, 5))
def test_split_unique_regular(n):
    module = build_case(CRYSTALLINE_SPLIT, n)
    assert regular_submodules(module) == [module.f_span(range(1, n + 1))]


@pytest.mark.parametrize("n", range(1, 9))
def test_nonsplit_every_subset_regular(n):
    # positivity of the binomial Fil^0: all C(2n+1, n) coordinate n-subsets
    # miss it
    module = build_case(CRYSTALLINE_NONSPLIT, n)
    regular = regular_submodules(module)
    assert len(regular) == comb(2 * n + 1, n)


# the last L has a 256-bit numerator and a 256-bit denominator
STEINBERG_L_VALUES = (F(1), F(-1), F(-3, 7), F(2**256 - 189, 3**161))


@pytest.mark.parametrize("n", range(1, 9))
def test_regular_submodules_properties(n):
    modules = [build_case(STEINBERG, n, l_invariant=l_value) for l_value in STEINBERG_L_VALUES]
    modules += [build_case(CRYSTALLINE_SPLIT, n), build_case(CRYSTALLINE_NONSPLIT, n)]
    for module in modules:
        regular = regular_submodules(module)
        assert regular == regular_by_rank(module, stable_submodules(module))
        assert all(len(span) == n and is_stable(module, span) for span in regular)


@pytest.mark.parametrize("n", range(1, 5))
def test_steinberg_filtration(n):
    module = build_case(STEINBERG, n)
    d = canonical_regular_submodule(module)
    filtration = benois_filtration(module, d)
    assert filtration.d_minus1 == module.f_span(range(2, n + 1))
    assert filtration.d_0 == d
    assert filtration.d_1 == module.f_span(range(0, n + 1))


@pytest.mark.parametrize("case", (CRYSTALLINE_SPLIT, CRYSTALLINE_NONSPLIT))
@pytest.mark.parametrize("n", range(1, 5))
def test_crystalline_filtration(case, n):
    module = build_case(case, n)
    d = canonical_regular_submodule(module)
    filtration = benois_filtration(module, d)
    assert filtration.d_minus1 == d
    assert filtration.d_0 == d
    assert filtration.d_1 == module.f_span(range(0, n + 1))


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("n", range(1, 7))
def test_filtration_monotone_and_stable(case, n):
    module = build_case(case, n)
    d = canonical_regular_submodule(module)
    filtration = benois_filtration(module, d)
    spans = (filtration.d_minus1, filtration.d_0, filtration.d_1)
    assert spans == benois_by_linear_algebra(module, d)
    d_minus1, d_0, d_1 = (dense(module, span) for span in spans)
    assert contains(d_0, d_minus1)
    assert contains(d_1, d_0)
    for space in (d_minus1, d_0, d_1):
        assert contains(space, image_under(space, monodromy_matrix(module)))


@pytest.mark.parametrize(
    "case, n",
    [(case, n) for case in CASES for n in range(1, 4)]
    + [(STEINBERG, n) for n in range(4, 7)],
)
def test_filtration_matches_linear_algebra_for_every_stable_d(case, n):
    module = build_case(case, n)
    for d in stable_submodules(module):
        filtration = benois_filtration(module, d)
        spans = (filtration.d_minus1, filtration.d_0, filtration.d_1)
        assert spans == benois_by_linear_algebra(module, d)
        rank, _ = gr1_data(module, d)
        assert rank == len(filtration.d_1) - len(filtration.d_0)


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("n", range(1, 7))
def test_gr1_is_rank_one_trivial(case, n):
    module = build_case(case, n)
    d = canonical_regular_submodule(module)
    assert gr1_data(module, d) == (1, EigenMonomial())


def test_gr1_nonsplit_all_regular_choices():
    # D_1 = D + <f_0>, so the graded piece is trivial exactly when f_0 in D
    module = build_case(CRYSTALLINE_NONSPLIT, 2)
    for d in regular_submodules(module):
        rank, eigenvalue = gr1_data(module, d)
        if 0 in module.f_indices_of(d):
            assert rank == 0
        else:
            assert (rank, eigenvalue) == (1, EigenMonomial())


@pytest.mark.parametrize("n", range(1, 4))
def test_steinberg_suite_at_random_l_values(n):
    # the chain, filtration and graded piece do not depend on which
    # nonzero parameter is chosen
    for _ in range(3):
        l_value = F(rng.choice([-1, 1]) * rng.randint(1, 40), rng.randint(1, 11))
        module = build_case(STEINBERG, n, l_invariant=l_value)
        regular = regular_submodules(module)
        assert regular == [module.f_span(range(1, n + 1))]
        filtration = benois_filtration(module, regular[0])
        assert filtration.d_minus1 == module.f_span(range(2, n + 1))
        assert filtration.d_1 == module.f_span(range(0, n + 1))
        assert gr1_data(module, regular[0]) == (1, EigenMonomial())


def test_eigen_monomial_has_one_canonical_form():
    exps = {"p": F(-1, 2), "chi_10": 3, "alpha": "2/3", "r": 0, "chi_2": -1}
    orders = [dict(items) for items in permutations(exps.items())]
    monomials = [EigenMonomial.from_dict(order) for order in orders]
    assert len(set(monomials)) == 1
    assert len({hash(m) for m in monomials}) == 1
    (m,) = set(monomials)
    # zero exponents dropped, symbols sorted as strings
    assert m.exponents == (("alpha", F(2, 3)), ("chi_10", F(3)), ("chi_2", F(-1)), ("p", F(-1, 2)))
    assert repr(m) == "alpha^2/3*chi_10^3*chi_2^-1*p^-1/2"
    assert m * m.inverse() == EigenMonomial() == EigenMonomial.from_dict({"x": 0})
    assert (m * EigenMonomial.symbol("r", 5)).exponents[-1] == ("r", F(5))


def test_repeated_eigenvalues_rejected():
    base = build_case(CRYSTALLINE_NONSPLIT, 1)
    with pytest.raises(UnsupportedInputError):
        PhiNModule(base.case, base.n, (base.phi[0],) * 3, base.monodromy)


def test_benois_filtration_requires_stable_input():
    # <f_1> is not N-closed: N f_1 = f_2
    module = build_case(STEINBERG, 2)
    assert not is_stable(module, module.f_span([1]))
    with pytest.raises(UnsupportedInputError):
        benois_filtration(module, module.f_span([1]))


@pytest.mark.parametrize("n", range(1, 6))
def test_steinberg_fil0_membership(n):
    for _ in range(3):
        l_value = F(rng.randint(1, 30), rng.randint(1, 9))
        fil0 = fil0_space(build_case(STEINBERG, n, l_invariant=l_value))
        # (e2 - L e1)^{2n} expanded: e1-degree t coefficient C(2n,t)(-L)^t
        vec = [F(0)] * (2 * n + 1)
        for t in range(2 * n + 1):
            vec[2 * n - t] = F(comb(2 * n, t)) * (-l_value) ** t
        assert contains(fil0, Subspace.from_vectors(2 * n + 1, [vec]))
        top = [F(0)] * (2 * n + 1)
        top[0] = F(1)  # f_n = e1^{2n}
        assert not contains(fil0, Subspace.from_vectors(2 * n + 1, [top]))


def test_unknown_case_rejected():
    with pytest.raises(ValueError):
        build_case("ordinary", 2)


# --- the CLI's closed forms against the search -----------------------------

#: --L as a user may write it: fractions, signs, decimals, exponents, spaces, 256 bits,
#: other decimal digits, underscores and the longest digit run Python reads
L_TEXTS = (None, "1", "6/4", "-3", "1e3", "0.5", " 7 ", "-2/3", "+5", "1E-2",
           str(F(2**256 - 189, 3**161)), "+7", "-12/3", "\u0663/\u0664", "1_000", "1.5",
           "7" * 4300)
WEIGHTS = (None, 2, 3, 12, 10**6)
#: (--all-submodules, --benois, --gr1): with and without each flag
FLAGS = tuple(product((False, True), repeat=3))


def phin_args(case, n, l_text=None, weight=None, flags=(True, True, True)):
    """The namespace `cli.parse_args` gives a `phin` request."""
    all_submodules, benois, gr1 = flags
    return SimpleNamespace(case=case, n=n, L=l_text, weight=weight,
                           all_submodules=all_submodules, benois=benois, gr1=gr1)


def printed(args):
    """The JSON value the handler prints for `args`."""
    return json.loads(json.dumps(_cmd_phin(args)[0]))


@pytest.mark.parametrize("n", range(1, 7))
def test_the_handler_prints_the_searchs_answer(n):
    requests = [phin_args(STEINBERG, n, l_text, None, flags) for l_text in L_TEXTS for flags in FLAGS]
    requests += [phin_args(CRYSTALLINE_SPLIT, n, None, k, flags) for k in WEIGHTS for flags in FLAGS]
    requests += [phin_args(CRYSTALLINE_NONSPLIT, n, None, None, flags) for flags in FLAGS]
    for args in requests:
        assert printed(args) == phin_answer(args), vars(args)


@pytest.mark.parametrize("case, weight", [(CRYSTALLINE_SPLIT, 7), (CRYSTALLINE_NONSPLIT, None)])
def test_the_crystalline_listing_at_its_cap_is_the_searchs(case, weight):
    # n = 8: all 2^17 coordinate sets, and C(17, 8) regular ones in the nonsplit case
    args = phin_args(case, 8, None, weight)
    assert printed(args) == phin_answer(args)


@pytest.mark.parametrize(
    "case, n, l_text, weight",
    [
        (STEINBERG, 0, "0", 5),  # n is read first
        (CRYSTALLINE_SPLIT, -1, None, None),
        (STEINBERG, 2, "x", 4),  # then the weight's case, then L's
        (CRYSTALLINE_NONSPLIT, 1, "1", 3),
        (CRYSTALLINE_SPLIT, 1, "0", 1),
        (CRYSTALLINE_NONSPLIT, 3, "", None),
        (CRYSTALLINE_SPLIT, 2, None, 1),
        (CRYSTALLINE_SPLIT, 2, None, -4),
        (STEINBERG, 2, "0", None),
        (STEINBERG, 2, "0/7", None),
        (STEINBERG, 2, "-0.0", None),
        (STEINBERG, 2, "1/0", None),
        (STEINBERG, 2, "x", None),
        (STEINBERG, 2, "", None),
        (STEINBERG, 2, "1e100000", None),
        (STEINBERG, 2, "1e5000", None),  # read, but too long to print
        (STEINBERG, 2, "7" * 5000, None),
        (STEINBERG, 2, "7" * 4301, None),
        (STEINBERG, 2, "-0", None),
        (STEINBERG, 2, "0/5", None),
        (STEINBERG, 2, "-12/-3", None),
        (STEINBERG, 2, "12/+3", None),
        (STEINBERG, 2, "1 / 2", None),
    ],
)
def test_the_handler_refuses_as_the_search_does(case, n, l_text, weight):
    for flags in FLAGS:
        args = phin_args(case, n, l_text, weight, flags)
        with pytest.raises(ValueError) as expected:
            phin_answer(args)
        with pytest.raises(ValueError) as refused:
            _cmd_phin(args)
        assert str(refused.value) == str(expected.value)


#: a written L: short strings over the characters `exactlin.rational` treats
#: apart, and signed or padded digit runs about Python's digit limit (4300)
written_l = (st.text(st.sampled_from([*"0123456789/+-_.eE \t\u0663x"]), max_size=10)
             | st.builds("{}{}{}".format, st.sampled_from(["", "-", "+", " "]),
                         st.integers(4298, 4302).map("7".__mul__), st.sampled_from(["", "/3", " "])))


@given(written_l)
def test_the_l_reader_reads_as_exactlin(text):
    # a plain a or a/b is read in integers, every other spelling by `exactlin`
    try:
        expected = str(rational(text))
        if expected == "0":
            raise ValueError("steinberg case requires a nonzero L-parameter")
    except ValueError as err:
        with pytest.raises(ValueError) as refused:
            _l_text(text)
        assert str(refused.value) == str(err)
    else:
        assert _l_text(text) == expected
