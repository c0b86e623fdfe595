"""Acceptance gate: one test per criterion, each printing PASS/FAIL.

Everything is exact rational arithmetic, so "tolerance" means equality;
the only freedoms allowed below are the single proportionality scalars the
criteria themselves grant.  Run with `pytest tests/test_acceptance.py -v -s`
to see the per-criterion lines.
"""

import json
import random
from fractions import Fraction as F
from math import comb, factorial
from types import SimpleNamespace

import pytest

from linvariants import linv, phin, plethysm, sl2rep, slopes, weylhecke
from linvariants import ratio
import phin_oracle
from kernel_oracles import (
    CharacterData,
    Monomial,
    TorusExponent,
    b_special,
    beta,
    generic_character,
    monomial_product,
    normalized_eigenvalues,
    recovered_character,
)
from paper_displays import (
    compare_to_theorem,
    data_for_theorem,
    theorem_evaluator,
    upi_eigenvalue_display,
)
from linalg_oracle import Subspace, fil0_space, intersect, project_endomorphism

rng = random.Random(0xACCE)


def report(number: int, ok: bool, description: str) -> None:
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {description}")
    assert ok, f"acceptance criterion {number} failed: {description}"


def proportionality_scalar(reference, values):
    """The single nonzero scalar c with values = c * reference, else None."""
    scalar = None
    for r, v in zip(reference, values):
        if (r == 0) != (v == 0):
            return None
        if r != 0:
            ratio = F(v) / F(r)
            if scalar is None:
                scalar = ratio
            elif ratio != scalar:
                return None
    if scalar is None or scalar == 0:
        return None
    return scalar


def test_criterion_1_closed_form_equals_recurrence():
    ok = True
    for n in range(0, 13):
        for k in range(n + 1):
            closed, table = plethysm.b_row(n, k), plethysm.cg_table(n, n, 2 * k)
            for i in range(n + 1):
                recurrence = (-1) ** i * comb(n, i) * table.get((i, n - i, k), 0)
                ok = ok and closed[i] == recurrence
    report(1, ok, "B_{n,k,i} closed form equals the recurrence value, n <= 12")


def test_criterion_2_brute_force_oracle():
    ok = True
    for n in range(1, 21):
        for k in range(n + 1):
            scalars = set()
            for _ in range(3):
                diag = [F(rng.randint(-9, 9)) for _ in range(n + 1)]
                projection = plethysm.project_endomorphism_diagonal(n, k, diag)
                coords = sl2rep.brute_force_project(
                    sl2rep.EndoElement.diagonal(diag), k
                )
                # weight-zero input: only the L^k v_{2k} coordinate may survive
                ok = ok and not any(c for idx, c in enumerate(coords) if idx != k)
                ok = ok and not any(projection.tail)
                ok = ok and (projection.middle == 0) == (coords[k] == 0)
                if coords[k]:
                    scalars.add(projection.middle / coords[k])
            ok = ok and len(scalars) <= 1 and all(s != 0 for s in scalars)
            # tail of a random upper-triangular endomorphism is exactly zero
            grid = [
                [F(rng.randint(-9, 9)) if j >= i else F(0) for j in range(n + 1)]
                for i in range(n + 1)
            ]
            upper = sl2rep.EndoElement(n, tuple(tuple(row) for row in grid))
            image = project_endomorphism(upper, k)
            ok = ok and not any(image.coeffs[k + 1 :])
    report(2, ok, "diagonal projection matches the brute-force oracle, n <= 20")


def test_criterion_3_special_values():
    ok = True
    for n in range(2, 21):
        for k in (n, n - 1, n - 2):
            for i in range(n + 1):
                ok = ok and b_special(n, k, i) == plethysm.b_row(n, k)[i]
    report(3, ok, "special-value closed forms equal B_{n,k,i} exactly, n <= 20")


def test_criterion_4_printed_values():
    ok = plethysm.b_row(1, 1) == (1, -1)
    row = plethysm.b_row(3, 3)
    ok = ok and proportionality_scalar((1, -3, 3, -1), row) is not None
    report(4, ok, "printed values: B_{1,1,*} = (1,-1); (B_{3,3,i}) ~ (1,-3,3,-1)")


def test_criterion_5_theorem_coefficient_patterns():
    ok = True
    for n in range(2, 11):
        row = plethysm.b_row(2 * n, 2 * n - 1)
        diffs = [row[n + i] - row[n - i] for i in range(1, n + 1)]
        pattern = [F((-1) ** i * comb(2 * n, n + i) * i) for i in range(1, n + 1)]
        ok = ok and proportionality_scalar(pattern, diffs) is not None
    for n in range(1, 6):
        m = 4 * n - 1
        row = plethysm.b_row(m, m - 2)
        cubic = [
            F(
                (-1) ** i
                * comb(m, i)
                * (m**3 - (4 * i + 1) * m**2 + (4 * i**2 + 2 * i) * m - 2 * i**2)
            )
            for i in range(m + 1)
        ]
        ok = ok and proportionality_scalar(cubic, row) is not None
    report(5, ok, "difference row and cubic row proportional to displayed patterns")


def test_criterion_6_phi_n_suite():
    ok = True
    for n in range(1, 7):
        steinberg = phin_oracle.build_case(phin_oracle.STEINBERG, n, l_invariant=F(1))
        regular = phin_oracle.regular_submodules(steinberg)
        ok = ok and regular == [steinberg.f_span(range(1, n + 1))]
        filtration = phin_oracle.benois_filtration(steinberg, regular[0])
        ok = ok and filtration.d_minus1 == steinberg.f_span(range(2, n + 1))
        ok = ok and filtration.d_1 == steinberg.f_span(range(0, n + 1))
        ok = ok and phin_oracle.gr1_data(steinberg, regular[0]) == (1, Monomial())
        for case in (phin_oracle.CRYSTALLINE_SPLIT, phin_oracle.CRYSTALLINE_NONSPLIT):
            module = phin_oracle.build_case(case, n)
            d = phin_oracle.canonical_regular_submodule(module)
            dense_d = Subspace.coordinate(module.dim, d)
            ok = ok and intersect(dense_d, fil0_space(module)).dim == 0 and len(d) == n
            filtration = phin_oracle.benois_filtration(module, d)
            ok = ok and filtration.d_minus1 == d and filtration.d_0 == d
            ok = ok and filtration.d_1 == module.f_span(range(0, n + 1))
            ok = ok and phin_oracle.gr1_data(module, d) == (1, Monomial())
        # the CLI prints the closed forms, which must equal the search's answer
        for case in phin_oracle.CASES:
            args = SimpleNamespace(case=case, n=n, L=None, weight=None, all_submodules=True,
                                   benois=True, gr1=True)
            printed = json.loads(phin._cmd_phin(args))
            ok = ok and printed == phin_oracle.phin_answer(args)
    report(6, ok, "regular submodules and Benois filtration per case, n <= 6")


def test_criterion_7_hecke_suite():
    ok = True
    for g in range(1, 5):
        ok = ok and len(weylhecke.weyl_group(g)) == 2**g * factorial(g)
    for g in (2, 3):
        chi = generic_character(g)
        for w in weylhecke.weyl_group(g):
            for i in range(1, g + 1):
                entry = json.loads(weylhecke.hecke_entry(beta(g, g - i).pairs, w))
                direct = Monomial.from_dict(entry["value"])
                ok = ok and direct == upi_eigenvalue_display(chi, i, w)
    trials = 0
    for g in (2, 3):
        elements = weylhecke.weyl_group(g)
        for _ in range(100):
            w = rng.choice(elements)
            chis = tuple(
                Monomial.from_dict(
                    {"x": rng.randint(-3, 3), "y": rng.randint(-3, 3), "p": rng.randint(-3, 3)}
                )
                for _ in range(g)
            )
            mu0 = F(rng.randint(-6, 6))
            sigma = (
                Monomial.p_power(mu0 / 2)
                * monomial_product(chis).inverse() ** F(1, 2)
            )
            character = CharacterData(chis, sigma)
            mu = [F(rng.randint(-5, 5)) for _ in range(g)]
            thetas = normalized_eigenvalues(character, mu, mu0, w)
            recovered = recovered_character(g, thetas, mu, mu0, w)
            ok = ok and recovered == character
            trials += 1
    ok = ok and trials == 200
    report(7, ok, "|W| = 2^g g!; beta_j specializations; 200 recovery round trips")


def test_criterion_8_slope_suite():
    ok = True
    for k in range(2, 21):
        for v in range(0, 21):
            ok = ok and slopes.slope_check_hilbert([k], 2 - k, [v]) == (v < k - 1)
    found = 0
    while found < 50:
        g = rng.choice([2, 3])
        a0 = rng.choice([-3, -2, -1, 1, 2, 3])
        low = max(0, -(-a0 // 2))
        a = sorted((rng.randint(low, low + 5) for _ in range(g)), reverse=True)
        t = TorusExponent.make(a, a0)
        places = rng.choice([1, 2])
        mus = [
            sorted((rng.randint(0, 8) for _ in range(g)), reverse=True)
            for _ in range(places)
        ]
        mu0 = rng.randint(-4, 4)
        raw = [rng.randint(0, 10) for _ in range(places)]
        m = slopes.twist_search(mus, mu0, t, raw)
        twisted = [F(s) - m * t.a0 for s in raw]
        ok = ok and slopes.slope_check_gsp(mus, F(mu0) + m, t, twisted)
        found += 1
    report(8, ok, "classical-slope equivalence grid; 50 finite twist searches")


def test_criterion_9_l_invariant_consistency():
    ok = True
    allowed = {"exact", "sign_flip", "proportional"}
    cases = (
        [("A", None), ("B", None)]
        + [("C", n) for n in range(2, 7)]
        + [("D1", n) for n in (1, 2, 3)]
        + [("D2", n) for n in (1, 2, 3)]
    )
    for which, n in cases:
        first = compare_to_theorem(which, n=n)
        second = compare_to_theorem(which, n=n)
        ok = ok and first == second  # stable across runs
        if which == "A":
            ok = ok and first.kind == "exact"
        else:
            ok = ok and first.kind in allowed and first.scalar in (F(1), F(-1))
    for which, n in [("A", None), ("B", None), ("C", 2), ("C", 4), ("D1", 1), ("D2", 1)]:
        comparison = compare_to_theorem(which, n=n)
        data = data_for_theorem(which, n=n)
        hits = 0
        while hits < 100:
            assignments = [
                [F(rng.randint(-7, 7), rng.choice([1, 2])) for _ in range(data.num_hecke)]
            ]
            if which == "A":
                direction = linv.Direction.make([1], -1)
            else:
                dim_u = len(data.pieces[0][0]) - 1
                direction = linv.Direction.make(
                    [F(rng.randint(-7, 7)) for _ in range(dim_u)], F(rng.randint(-7, 7))
                )
            try:
                read = [[ratio(x) for x in a] for a in assignments]
                generic = F(*linv.rank1_combine(linv.per_place_pairs(data, direction, read)))
            except linv.SingularDirectionError:
                if which != "A":
                    # denominator forms are proportional, so the literal
                    # evaluator must refuse too, never answer
                    try:
                        theorem_evaluator(which, direction, assignments, n=n)
                        ok = False
                    except linv.SingularDirectionError:
                        pass
                continue
            literal = theorem_evaluator(which, direction, assignments, n=n)
            ok = ok and literal == comparison.scalar * generic
            hits += 1
    hilbert = linv.family_data("hilbert")
    try:
        linv.per_place_pairs(hilbert, linv.Direction.make([0], 1), [[ratio(F(1))]])
        ok = False
    except linv.SingularDirectionError:
        pass
    report(9, ok, "classifications in the allowed set; 100 numeric agreements per family")


def test_criterion_10_obstruction_suite():
    spin = slopes.refinement_obstruction_orders([3, 2, 1, 0])
    ok = slopes.exclusion_sufficient(spin, 60)
    for n in range(1, 6):
        orders = slopes.refinement_obstruction_orders(range(-n, n + 1))
        ok = ok and len(orders) > 0 and all(isinstance(d, int) and d > 0 for d in orders)
    report(10, ok, "spin orders divide 60; standard exponent orders finite, n <= 5")
