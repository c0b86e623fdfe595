"""The integer slope checks against their `Fraction` oracles.

`slopes.slope_check_hilbert`, `slope_check_gsp` and `twist_search` decide
in integers over one common denominator; `fraction_slope_hilbert`,
`fraction_slope_sides` and `fraction_twist` in `tests/kernel_oracles.py`
take the same sums one `Fraction` at a time and share no code with
`slopes`.  Each draw compares the answer, or the refusal's type and
message, on rational weights, torus exponents and slopes spelled as ints,
`Fraction`s and strings, odd spellings among them, on both signs of a_0
and a_0 = 0, and at LHS = RHS, where the strict inequality fails and the
twist is one step in the sign of a_0.
"""

import contextlib
from fractions import Fraction as F

from hypothesis import example, given, settings
from hypothesis import strategies as st

from kernel_oracles import (
    fraction_slope_hilbert,
    fraction_slope_sides,
    fraction_twist,
)
from linvariants.slopes import slope_check_gsp, slope_check_hilbert, twist_search

#: a 5000-digit int, which a library caller may pass, and its text, which is refused
BIG = 7 * (10**5000 - 1) // 9
SPELLINGS = ["+3", " 7/2 ", "1.5e1", "1/0", True, BIG, "7" * 5000, "-0", "3/-2", 2.0]


def outcome(func, *args):
    """("ok", the answer) or (the refusal's type name, its message)."""
    try:
        return "ok", func(*args)
    except (ValueError, TypeError) as err:
        return type(err).__name__, str(err)


def fraction_slope_gsp(*case) -> bool:
    lhs, rhs = fraction_slope_sides(*case)
    return lhs < rhs


small = st.integers(-12, 12)
ratios = st.builds(F, small, st.sampled_from([1, 2, 3, 4, 6]))


def spelled(value: F):
    """`value` as an int where it is one, a `Fraction` or the text of either; a value past
    Python's digit limit, which an odd torus entry at LHS = RHS can give, has no text."""
    forms = [value]
    with contextlib.suppress(ValueError):
        forms.append(str(value))
    if value.denominator == 1:
        forms.append(int(value))
    return st.sampled_from(forms)


#: a scalar: mostly a rational in some spelling, sometimes an odd spelling
scalars = st.one_of(ratios.flatmap(spelled), ratios.flatmap(spelled), st.sampled_from(SPELLINGS))


@st.composite
def hilbert_cases(draw, equal=False):
    w = draw(st.integers(-6, 6))
    places = draw(st.integers(1, 3))
    k = [2 * draw(st.integers(1, 6)) + (w % 2) for _ in range(places)]
    if equal:  # slopes with LHS = RHS: the last one makes up the difference
        slopes = [draw(ratios) for _ in range(places - 1)]
        lhs = sum(F(w + x - 2, 2) for x in k) + sum(slopes)
        slopes.append(min(k) - 1 - lhs)
        return k, w, [draw(spelled(s)) for s in slopes]
    slopes = [draw(scalars) for _ in range(draw(st.sampled_from([places] * 6 + [places + 1])))]
    return k, w, slopes


@st.composite
def torus_exponents(draw):
    """(a, a_0) as raw scalars: dominant and rational, or any list of scalars."""
    g = draw(st.integers(1, 3))
    if draw(st.integers(0, 5)) == 0:
        return [draw(scalars) for _ in range(g)], draw(scalars)
    a0 = draw(st.one_of(ratios, st.just(F(0))))
    a = [a0 / 2 + draw(st.builds(F, st.integers(0, 6), st.sampled_from([1, 2, 3])))]
    for _ in range(g - 1):
        a.insert(0, a[0] + draw(st.builds(F, st.integers(0, 6), st.sampled_from([1, 2]))))
    return [draw(spelled(x)) for x in a], draw(spelled(a0))


@st.composite
def gsp_cases(draw, equal=False):
    a, a0 = draw(torus_exponents())
    g, places = len(a), draw(st.integers(1, 3))
    # at LHS = RHS, no odd spelling: the last slope is moved by a rational amount
    values = ratios.flatmap(spelled) if equal else scalars
    mu0 = draw(values)
    weights = [[draw(st.one_of(small, ratios.flatmap(spelled)))
                for _ in range(g + (draw(st.integers(0, 9)) == 0))] for _ in range(places)]
    slopes = [draw(st.one_of(values, st.integers(0, 400))) for _ in range(places)]
    if draw(st.integers(0, 9)) == 0:
        slopes.append(draw(scalars))
    if equal:  # move the last slope so that LHS = RHS, where the oracle reads the case
        try:
            lhs, rhs = fraction_slope_sides(weights, mu0, (a, a0), slopes)
        except (ValueError, TypeError):
            return weights, mu0, (a, a0), slopes
        slopes[-1] = draw(spelled(F(slopes[-1]) + rhs - lhs))
    return weights, mu0, (a, a0), slopes


@settings(max_examples=400, deadline=None)
@given(hilbert_cases())
@example(([2, 4], 0, ["1/2", "-1/2"]))
@example(([3, 3], -1, ["+3", " 7/2 "]))
@example(([2], 0, ["1.5e1"]))
@example(([2], 0, ["1/0"]))
@example(([2], 0, [True]))
@example(([2], 0, [BIG]))
@example(([2], 0, [-BIG]))
def test_hilbert_matches_the_fraction_oracle(case):
    assert outcome(slope_check_hilbert, *case) == outcome(fraction_slope_hilbert, *case)


@settings(max_examples=100, deadline=None)
@given(hilbert_cases(equal=True))
def test_hilbert_at_equality_is_critical(case):
    assert outcome(slope_check_hilbert, *case) == ("ok", False)
    assert outcome(fraction_slope_hilbert, *case) == ("ok", False)


@settings(max_examples=500, deadline=None)
@given(gsp_cases())
@example(([[1, 0]], 1, ([2, 1], -2), [0]))
@example(([[0]], 0, ([1], 2), [2]))
@example(([[5, 3]], "+3", ([" 7/2 ", "1/2"], "-1/3"), ["1.5e1"]))
@example(([[5, 3]], 0, ([2, 1], "1/0"), [0]))
@example(([[5, 3]], True, ([2, 1], -1), [0]))
@example(([[5, 3]], 0, ([2, 1], -1), [BIG]))
@example(([[5, 3]], 0, ([BIG, 1], 1), [BIG]))
@example(([[9, 2]], 0, ([3, 1], 0), [50]))
@example(([[3, 2]], 0, ([1, 2], 0), [0]))
def test_gsp_and_the_twist_match_the_fraction_oracle(case):
    assert outcome(slope_check_gsp, *case) == outcome(fraction_slope_gsp, *case)
    assert outcome(twist_search, *case) == outcome(fraction_twist, *case)


@settings(max_examples=200, deadline=None)
@given(gsp_cases(equal=True))
def test_gsp_at_equality_twists_one_step(case):
    expected = outcome(fraction_twist, *case)
    assert outcome(twist_search, *case) == expected
    if expected[0] == "ok":  # at LHS = RHS the check fails and the twist is the sign of a_0
        a0 = F(case[2][1])
        assert outcome(slope_check_gsp, *case) == ("ok", False)
        assert expected[1] == (1 if a0 > 0 else -1)
