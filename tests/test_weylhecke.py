"""Hyperoctahedral combinatorics, Hecke eigenvalues, slopes, obstructions."""

import itertools
import random
from fractions import Fraction as F
from math import factorial

import pytest

from linvariants import weylhecke
from linvariants.phin import EigenMonomial, monomial_product
from linvariants.slopes import (
    OBSTRUCTION_MAX_SUMS,
    OBSTRUCTION_MAX_TRIALS,
    NonDominantError,
    exclusion_sufficient,
    refinement_obstruction_orders,
    slope_check_gsp,
    slope_check_hilbert,
    twist_search,
    weight_exponent,
)
from linvariants.weylhecke import (
    CharacterData,
    TorusExponent,
    WeylElement,
    beta,
    c_g_constant,
    hecke_diagonal,
    hecke_diagonals,
    normalized_eigenvalues,
    recover_characters,
    weyl_group,
)
from kernel_oracles import fraction_hecke_diagonal, weyl_conjugate
from paper_displays import c_constant, upi_eigenvalue_display

rng = random.Random(60)


def compose(w1, w2):
    """Product w1 * w2 with (w1 * w2) . t = w1 . (w2 . t)."""
    g = w1.g
    nu = tuple(w2.permute(w1.permute(j)) for j in range(1, g + 1))
    eps = tuple(w2.sign(i) * w1.sign(w2.nu.index(i) + 1) for i in range(1, g + 1))
    return WeylElement(nu, eps)


def element_order(w):
    power, k = w, 1
    while power != WeylElement.identity(w.g):
        power, k = compose(power, w), k + 1
    return k


def random_torus(g, lo=-5, hi=5):
    return TorusExponent.make([rng.randint(lo, hi) for _ in range(g)], rng.randint(lo, hi))


@pytest.mark.parametrize("g", range(1, 5))
def test_weyl_group_size(g):
    elements = weyl_group(g)
    assert len(elements) == 2**g * factorial(g)
    assert len(set(elements)) == len(elements)


@pytest.mark.parametrize("g", range(1, 5))
def test_weyl_group_elements_pass_the_json_checks(g):
    # weyl_group builds its elements unchecked; each is valid by construction
    for w in weyl_group(g):
        assert WeylElement.from_json(w.to_json()) == w


@pytest.mark.parametrize(
    "obj, error, message",
    [
        ({"nu": [True, 2], "eps": [1, 1]}, TypeError, "must be integers"),
        ({"nu": [1, 2], "eps": [1, False]}, TypeError, "must be integers"),
        ({"nu": [1, 1], "eps": [1, 1]}, ValueError, "not a permutation"),
        ({"nu": [0, 1], "eps": [1, 1]}, ValueError, "not a permutation"),
        ({"nu": [1, 2], "eps": [1]}, ValueError, "length g"),
        ({"nu": [1, 2], "eps": [1, 0]}, ValueError, "length g"),
    ],
)
def test_weyl_element_from_json_refuses_non_elements(obj, error, message):
    with pytest.raises(error, match=message):
        WeylElement.from_json(obj)


@pytest.mark.parametrize("g", (2, 3, 4))
def test_weyl_action_is_action(g):
    elements = weyl_group(g)
    for _ in range(40):
        w1, w2 = rng.choice(elements), rng.choice(elements)
        t = random_torus(g)
        assert weyl_conjugate(compose(w1, w2), t) == weyl_conjugate(w1, weyl_conjugate(w2, t))


@pytest.mark.parametrize("g", (2, 3))
def test_weyl_composition_associative(g):
    elements = weyl_group(g)
    for _ in range(30):
        a, b, c = (rng.choice(elements) for _ in range(3))
        assert compose(compose(a, b), c) == compose(a, compose(b, c))


def test_weyl_element_orders():
    # sign flips are involutions; a 4-cycle with no flips has order 4
    flip = WeylElement((1, 2), (-1, 1))
    assert element_order(flip) == 2
    cycle = WeylElement((2, 3, 4, 1), (1, 1, 1, 1))
    assert element_order(cycle) == 4
    assert element_order(WeylElement.identity(3)) == 1


def test_identity_fixes_torus():
    t = random_torus(3)
    assert weyl_conjugate(WeylElement.identity(3), t) == t


def test_conjugate_example():
    w = WeylElement((1, 2), (-1, 1))
    t = TorusExponent.make([1, 2], 3)
    assert weyl_conjugate(w, t) == TorusExponent.make([2, 2], 3)


def test_pure_sign_flip_is_involution():
    for g in (2, 3):
        for mask in range(1, 2**g):
            eps = tuple(-1 if mask >> i & 1 else 1 for i in range(g))
            w = WeylElement(tuple(range(1, g + 1)), eps)
            t = random_torus(g)
            assert weyl_conjugate(w, weyl_conjugate(w, t)) == t


def test_hecke_eigenvalue_at_trivial_torus():
    chi = CharacterData.generic(2)
    t = TorusExponent.make([0, 0], 0)
    for w in weyl_group(2):
        assert hecke_diagonal(chi, t, w).is_one()


def test_hecke_eigenvalue_beta0_identity():
    chi = CharacterData.generic(2)
    value = hecke_diagonal(chi, beta(2, 0), WeylElement.identity(2))
    assert value == EigenMonomial.p_power(F(-3, 2)) * EigenMonomial.symbol("sigma", -1)


def test_c_constant_examples():
    identity2 = WeylElement.identity(2)
    assert c_constant(2, 1, identity2) == -2
    for g in (2, 3, 4):
        assert c_g_constant(g, WeylElement.identity(g)) == -F(g * (g + 1), 4)
        all_flip = WeylElement(tuple(range(1, g + 1)), (-1,) * g)
        assert c_constant(g, g, all_flip) == F(g * (g + 1), 2)


@pytest.mark.parametrize("g", (2, 3))
def test_specializations_match_displayed_families(g):
    # hecke_diagonal at beta_{g-i} vs the closed U_{p,i} families with the
    # c_{i,nu,eps} constants, over every Weyl element
    chi = CharacterData.generic(g)
    for w in weyl_group(g):
        for i in range(1, g + 1):
            assert hecke_diagonal(chi, beta(g, g - i), w) == upi_eigenvalue_display(
                chi, i, w
            )


@pytest.mark.parametrize("g", (2, 3))
def test_hecke_multiplicative_in_torus(g):
    chi = CharacterData.generic(g)
    elements = weyl_group(g)
    for _ in range(25):
        w = rng.choice(elements)
        t1, t2 = random_torus(g), random_torus(g)
        product = TorusExponent(tuple(x + y for x, y in zip(t1.a, t2.a)), t1.a0 + t2.a0)
        assert hecke_diagonal(chi, product, w) == hecke_diagonal(
            chi, t1, w
        ) * hecke_diagonal(chi, t2, w)


def random_consistent_character(g):
    """Random character satisfying det = p^{mu_0}, with its weights."""
    chis = tuple(
        EigenMonomial.from_dict(
            {"x": rng.randint(-3, 3), "y": rng.randint(-3, 3), "p": rng.randint(-3, 3)}
        )
        for _ in range(g)
    )
    mu0 = F(rng.randint(-6, 6))
    sigma = EigenMonomial.p_power(mu0 / 2) * monomial_product(chis).inverse() ** F(1, 2)
    mu = [F(rng.randint(-5, 5)) for _ in range(g)]
    return CharacterData(chis, sigma), mu, mu0


def product_hecke_diagonal(chi, t, w):
    """`hecke_diagonal` as a product of one EigenMonomial per factor."""
    g = chi.g
    s = weyl_conjugate(w, t)
    p_exp = F(g * (g + 1), 4) * t.a0 - sum((g + 1 - j) * s.a[j - 1] for j in range(1, g + 1))
    value = EigenMonomial.p_power(p_exp) * chi.sigma**t.a0
    for j in range(1, g + 1):
        value = value * chi.chi[j - 1] ** s.a[j - 1]
    return value


def random_rational_torus(g):
    """Rational exponents, a_0 never integral."""
    a = [F(rng.randint(-12, 12), rng.choice((1, 2, 3, 6))) for _ in range(g)]
    return TorusExponent.make(a, F(2 * rng.randint(-6, 6) + 1, rng.choice((2, 3, 4))))


def non_generic_characters(g):
    """Rational exponents, a p factor in chi_j, a multi-symbol sigma and cancellations."""
    x, y, p = (EigenMonomial.symbol(s) for s in ("x", "y", "p"))
    rational = CharacterData(
        tuple(
            EigenMonomial.from_dict(
                {"x": F(rng.randint(-4, 4), rng.choice((1, 2, 5))), "p": F(rng.randint(-3, 3), 2),
                 f"chi_{j}": F(rng.randint(1, 3), rng.choice((1, 3)))}
            )
            for j in range(1, g + 1)
        ),
        EigenMonomial.from_dict({"sigma": F(1, 2), "x": F(-3, 4), "p": F(5, 6)}),
    )
    # like the `cancelling` character of the test below, with a p and a y in
    # chi_1 and chi_2 that sigma's p and y can cancel
    cancelling = CharacterData(
        ((x * p ** F(1, 3), x.inverse() * y) + (p ** F(-1, 2),) * g)[:g],
        x ** F(1, 2) * y ** F(-2, 3) * p,
    )
    return [rational, cancelling]


@pytest.mark.parametrize("g", range(1, 6))
def test_hecke_diagonal_equals_monomial_product(g):
    # the integer sweep over every Weyl element against the Fraction loop and
    # the EigenMonomial product; at g = 5 one character and one torus
    elements = weyl_group(g)
    x = EigenMonomial.symbol("x")
    # x cancels between chi_1 and chi_2 wherever a'_{nu(1)} = a'_{nu(2)}
    cancelling = (x * EigenMonomial.p_power(1), x.inverse()) + (EigenMonomial(),) * (g - 2)
    characters = [
        CharacterData.generic(g),
        CharacterData(cancelling[:g], x ** F(1, 2)),
        *non_generic_characters(g),
    ]
    for _ in range(2):
        chi, mu, mu0 = random_consistent_character(g)
        characters.append(chi)
        if g >= 2:
            w = rng.choice(elements)
            thetas = normalized_eigenvalues(chi, mu, mu0, w)
            characters.append(recover_characters(g, thetas, mu, mu0, w))
    tori = [
        random_torus(g),
        TorusExponent.make([F(1, 2)] * g, F(-3, 2)),
        random_rational_torus(g),
        TorusExponent.make([0] * g, 0),  # every exponent cancels
    ]
    cases = [(chi, t) for chi in characters for t in tori]
    if g == 5:
        cases = [(characters[2], tori[2])]
    for chi, t in cases:
        values = list(hecke_diagonals(chi, t, elements))
        assert len(values) == len(elements)
        for w, value in zip(elements, values):
            assert value == fraction_hecke_diagonal(chi, t, w) == product_hecke_diagonal(chi, t, w)
            assert all(e for _, e in value.exponents), "zero exponents are dropped"
        w = rng.choice(elements)
        assert hecke_diagonal(chi, t, w) == fraction_hecke_diagonal(chi, t, w)


def test_hecke_diagonals_at_g6():
    # the largest `hecke --all` sweeps all 46080 elements; the Fraction loop
    # checks every permutation with a random sign vector, and every sign
    # vector of the identity and of the reversal
    g = 6
    elements = weyl_group(g)
    chi = non_generic_characters(g)[0]
    t = random_rational_torus(g)
    values = dict(zip(elements, hecke_diagonals(chi, t, elements)))
    signs = list(itertools.product((1, -1), repeat=g))
    sample = [WeylElement(nu, rng.choice(signs)) for nu in itertools.permutations(range(1, g + 1))]
    for nu in ((1, 2, 3, 4, 5, 6), (6, 5, 4, 3, 2, 1)):
        sample += [WeylElement(nu, eps) for eps in signs]
    for w in sample:
        assert values[w] == fraction_hecke_diagonal(chi, t, w)


def test_hecke_diagonals_rank_checks():
    chi = CharacterData.generic(2)
    with pytest.raises(ValueError, match="ranks differ"):
        list(hecke_diagonals(chi, TorusExponent.make([0, 0, 0], 0), ()))
    with pytest.raises(ValueError, match="ranks differ"):
        list(hecke_diagonals(chi, TorusExponent.make([0, 0], 0), (WeylElement.identity(3),)))
    assert list(hecke_diagonals(chi, TorusExponent.make([0, 0], 0), ())) == []


@pytest.mark.parametrize("g", (2, 3))
def test_recover_characters_round_trip(g):
    elements = weyl_group(g)
    for _ in range(100):
        w = rng.choice(elements)
        chi, mu, mu0 = random_consistent_character(g)
        thetas = normalized_eigenvalues(chi, mu, mu0, w)
        recovered = recover_characters(g, thetas, mu, mu0, w)
        assert recovered == chi


@pytest.mark.parametrize("g", range(1, 7))
def test_normalized_eigenvalues_equal_the_weight_exponent_at_each_beta(g):
    # the suffix sums of mu against weight_exponent at beta(g, g - i), one i at a time
    for _ in range(20):
        chi = CharacterData.generic(g)
        w = rng.choice(weyl_group(g)) if g <= 4 else WeylElement.identity(g)
        mu = [F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(g)]
        mu0 = F(rng.randint(-9, 9), rng.randint(1, 3))
        expected = [
            EigenMonomial.p_power(weight_exponent(mu, mu0, beta(g, g - i)))
            * hecke_diagonal(chi, beta(g, g - i), w)
            for i in range(1, g + 1)
        ]
        assert normalized_eigenvalues(chi, mu, mu0, w) == expected
    with pytest.raises(ValueError, match="^weight length must equal g$"):
        normalized_eigenvalues(CharacterData.generic(g), [0] * (g + 1), 0, WeylElement.identity(g))


@pytest.mark.parametrize("g", range(1, 5))
def test_constant_steps_are_one_term(g):
    # with c_0 = 0 and q_i = g + 1 - nu^{-1}(i): c_{i-1} - c_i = eps(i) q_i, and
    # c_{g-1} - 2 c_g = eps(g) q_g; recover_characters reads the constants off these
    for w in weyl_group(g):
        c = [F(0)] + [c_constant(g, i, w) for i in range(1, g + 1)]
        q = [None] + [g + 1 - (w.nu.index(i) + 1) for i in range(1, g + 1)]
        for i in range(1, g):
            assert c[i - 1] - c[i] == w.sign(i) * q[i]
        assert c[g - 1] - 2 * c_g_constant(g, w) == w.sign(g) * q[g]


def test_recover_characters_computes_no_c_constant():
    # recover_characters reads the constants' one-term steps; c_constant is test code
    assert not hasattr(weylhecke, "c_constant")
    for w in weyl_group(3):
        chi, mu, mu0 = random_consistent_character(3)
        assert recover_characters(3, normalized_eigenvalues(chi, mu, mu0, w), mu, mu0, w) == chi


def test_recover_trivial_characters():
    chi = CharacterData((EigenMonomial(),) * 2, EigenMonomial())
    w = WeylElement.identity(2)
    thetas = normalized_eigenvalues(chi, [0, 0], 0, w)
    for theta in thetas:
        assert set(dict(theta.exponents)) <= {"p"}  # pure p-powers
    assert recover_characters(2, thetas, [0, 0], 0, w) == chi


def test_recover_characters_input_validation():
    with pytest.raises(ValueError):
        recover_characters(2, [EigenMonomial()], [0, 0], 0, WeylElement.identity(2))
    with pytest.raises(ValueError):
        recover_characters(1, [EigenMonomial()], [0], 0, WeylElement.identity(1))


def test_slope_hilbert_matches_classical_definition():
    for k in range(2, 21):
        for v in range(0, 21):
            assert slope_check_hilbert([k], 2 - k, [v]) == (v < k - 1)


def test_slope_hilbert_examples():
    assert slope_check_hilbert([2], 0, [1]) is False
    assert all(slope_check_hilbert([k], 2 - k, [0]) for k in range(2, 21))
    # parallel weight 2 over a real quadratic field, both slopes 0
    assert slope_check_hilbert([3, 3], -1, [0, 0])


def test_slope_hilbert_preconditions():
    with pytest.raises(ValueError):
        slope_check_hilbert([1], 1, [0])
    with pytest.raises(ValueError):
        slope_check_hilbert([3], 0, [0])  # parity violation
    with pytest.raises(ValueError):
        slope_check_hilbert([2, 2], 0, [0])


def test_slope_gsp_ordinary_type_passes():
    # beta_0-type t; the weight valuation goes negative for mu_0 > sum(mu)
    t = beta(2, 0)
    assert slope_check_gsp([[5, 3]], 30, t, [0])
    assert not slope_check_gsp([[5, 3]], 0, t, [0])


def test_slope_gsp_degenerate_bound():
    # equal consecutive weights and equal a_i make the bound 0, so the
    # check fails unless the left side is negative
    t = TorusExponent.make([2, 2], 2)
    assert slope_check_gsp([[4, 4]], 0, t, [0]) is False
    assert slope_check_gsp([[4, 4]], -10, t, [0]) is True  # LHS = -2 < 0


def test_slope_gsp_dominance_precondition():
    with pytest.raises(NonDominantError):
        slope_check_gsp([[3, 2]], 0, TorusExponent.make([1, 2], 0), [0])
    with pytest.raises(NonDominantError):
        slope_check_gsp([[3, 2]], 0, TorusExponent.make([2, 1], 4), [0])


def _random_twist_case(gen, places, slope_hi, fractional):
    g = gen.choice([2, 3])
    a0 = gen.choice([-3, -2, -1, 1, 2, 3])
    tail = max(0, -(-a0 // 2))  # ceil(a0/2) clipped at 0
    a = sorted((gen.randint(tail, tail + 5) for _ in range(g)), reverse=True)
    t = TorusExponent.make(a, a0)
    mus = [sorted((gen.randint(0, 8) for _ in range(g)), reverse=True) for _ in range(places)]
    mu0 = gen.randint(-4, 4)
    slopes = [
        F(gen.randint(0, slope_hi), gen.choice([1, 2, 3, 7]) if fractional else 1)
        for _ in range(places)
    ]
    return mus, mu0, t, slopes


def _assert_minimal_twist(mus, mu0, t, slopes) -> int:
    m = twist_search(mus, mu0, t, slopes)
    twisted_slopes = [F(s) - m * t.a0 for s in slopes]
    assert slope_check_gsp(mus, F(mu0) + m, t, twisted_slopes)
    # minimality of |m|
    for smaller in range(-abs(m) + 1, abs(m)):
        shifted = [F(s) - smaller * t.a0 for s in slopes]
        assert not slope_check_gsp(mus, F(mu0) + smaller, t, shifted)
    return m


def test_twist_search_shifts_to_success():
    gen = random.Random(61)
    count_nonzero = 0
    for _ in range(80):
        places = gen.choice([1, 2, 3])
        case = _random_twist_case(gen, places, gen.choice([10, 300]), gen.random() < 0.5)
        count_nonzero += _assert_minimal_twist(*case) != 0
    assert count_nonzero > 0


def test_twist_search_at_equality_moves_one_step():
    # choose the last slope so that LHS = RHS exactly at m = 0: the check
    # fails there and the smallest twist is one step in the sign of a_0
    gen = random.Random(62)
    for _ in range(30):
        places = gen.choice([1, 2, 3])
        mus, mu0, t, slopes = _random_twist_case(gen, places, 300, True)
        g = t.g
        rhs = min(
            [(mu[i] - mu[i + 1] + 1) * (t.a[i] - t.a[i + 1]) for mu in mus for i in range(g - 1)]
            + [2 * (2 * mu[g - 1] + 1) * t.a[g - 1] for mu in mus]
        )
        lhs = sum(weight_exponent(mu, mu0, t) for mu in mus) + sum(slopes)
        slopes[-1] += rhs - lhs
        assert not slope_check_gsp(mus, mu0, t, slopes)
        assert _assert_minimal_twist(mus, mu0, t, slopes) == (1 if t.a0 > 0 else -1)


def test_twist_search_zero_a0_rejected():
    t = TorusExponent.make([3, 1], 0)
    with pytest.raises(ValueError):
        twist_search([[9, 2]], 0, t, [50])


def test_obstruction_rank_two():
    assert refinement_obstruction_orders([1, 0]) == {1}


def test_obstruction_spin_gsp4():
    orders = refinement_obstruction_orders([3, 2, 1, 0])
    assert orders == {1, 2, 3, 4}
    assert exclusion_sufficient(orders, 60)
    assert exclusion_sufficient(orders, 12)
    assert not exclusion_sufficient(orders, 5)


@pytest.mark.parametrize("n", range(1, 6))
def test_obstruction_standard_finite(n):
    orders = refinement_obstruction_orders(range(-n, n + 1))
    assert orders
    assert all(d > 0 for d in orders)


def trial_divisors(n):
    out = set()
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.add(d)
            out.add(n // d)
        d += 1
    return out


def enumerated_obstruction_orders(exponents):
    """Every i-subset sum against the top-i sum, all 2^m subsets enumerated."""
    exps = sorted(exponents, reverse=True)
    orders = set()
    for i in range(1, len(exps)):
        top = sum(exps[:i])
        for subset in itertools.combinations(exps, i):
            diff = top - sum(subset)
            if diff:
                orders |= trial_divisors(diff)
    return orders


@pytest.mark.parametrize("m", range(0, 15))
def test_obstruction_subset_sums_equal_enumeration(m):
    gen = random.Random(1000 + m)
    # dense and sparse sums, and gaps up to about 6 * 10^6
    for spread in (20, 200, 10**6 if m <= 6 else 2000):
        exps = gen.sample(range(-spread, spread + 1), m)
        assert refinement_obstruction_orders(exps) == enumerated_obstruction_orders(exps)


def test_obstruction_sum_set_budget():
    # powers of two have pairwise distinct subset sums: C(m, i) sums per i
    with pytest.raises(ValueError, match="subset sums"):
        refinement_obstruction_orders([2**j for j in range(20)])
    # 0..143 with 257 on top bounds the sum sets by 262135, with 258 by 262206
    assert OBSTRUCTION_MAX_SUMS == 2**18
    with pytest.raises(ValueError, match="subset sums"):
        refinement_obstruction_orders([*range(144), 258])


def test_obstruction_trial_division_budget():
    # two exponents: 4 isqrt(gap) trial divisions at most
    assert OBSTRUCTION_MAX_TRIALS == 10**8
    with pytest.raises(ValueError, match="trial divisions"):
        refinement_obstruction_orders([25_000_001**2, 0])
    assert refinement_obstruction_orders([-(10**12), 0]) == {
        2**a * 5**b for a in range(13) for b in range(13)
    }


def test_obstruction_single_exponent_has_no_orders():
    assert refinement_obstruction_orders([7]) == set()
    assert refinement_obstruction_orders([]) == set()


def test_obstruction_requires_distinct():
    with pytest.raises(ValueError):
        refinement_obstruction_orders([1, 1, 0])


def test_weyl_json_round_trip():
    w = WeylElement((2, 3, 1), (1, -1, 1))
    assert WeylElement.from_json(w.to_json()) == w
