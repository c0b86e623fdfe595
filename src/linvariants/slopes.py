"""Noncritical-slope checks, the twist search and root-of-unity obstruction orders.

None of this needs the Weyl group or a Hecke eigenvalue.  A slope check
reads the torus exponent t = (p^{a_1}, ..., p^{a_g}; p^{a_0}) as the pair
(a, a_0) of its exponents, as `hecke` reads it too, and the obstruction
orders read integer exponents.  The slope checks read each
scalar as a pair (numerator, denominator > 0) with `linvariants.ratio` and
decide their inequality in integers, both sides scaled by one common
denominator.  So a `slope` request of plain JSON input compiles this module
and `jsonargs` only, and an `obstruction` request this module alone.  Both
handlers write their answers as compact JSON text, so neither request
imports `fractions` or `json`.
"""

import itertools
from math import comb, isqrt, lcm
from typing import Iterable, Sequence

from . import ratio, ratios


class NonDominantError(ValueError):
    """The torus exponent is not dominant (a_1 >= ... >= a_g >= a_0/2)."""


def _common(pairs: Sequence[tuple[int, int]]) -> tuple[list[int], int]:
    """The numerators of `pairs` over the lcm of their denominators, and that lcm."""
    den = lcm(*(q for _, q in pairs))
    return [p * (den // q) for p, q in pairs], den


def slope_check_hilbert(k_weights: Sequence[int], w_weight: int, slopes: Sequence) -> bool:
    """sum_i ((w + k_i - 2)/2 + v_p(alpha_i)) < min(k_i) - 1, decided in integers:
    both sides times 2S, S the lcm of the slope denominators."""
    if len(k_weights) != len(slopes):
        raise ValueError("one slope per infinite place is required")
    if not k_weights:
        raise ValueError("at least one place is required")
    if not isinstance(w_weight, int) or isinstance(w_weight, bool):
        raise ValueError(f"w must be an integer, not {w_weight!r}")
    for k in k_weights:
        if not isinstance(k, int) or isinstance(k, bool):
            raise ValueError(f"k must hold integers, not {k!r}")
        if k < 2:
            raise ValueError("weights must be at least 2")
        if (k - w_weight) % 2:
            raise ValueError("weights must be congruent to w mod 2")
    slopes, s_den = _common(ratios(slopes))
    lhs = sum((w_weight + k - 2) * s_den + 2 * x for k, x in zip(k_weights, slopes))
    return lhs < 2 * s_den * (min(k_weights) - 1)


def _slope_sides(
    mu_per_place: Sequence[Sequence], mu0, t, slopes: Sequence
) -> tuple[int, int, int]:
    """(LHS, RHS) of the GSp(2g) noncritical-slope inequality times 2MAS, with M, A
    and S the lcms of the weight, torus and slope denominators, and what a twist
    by |.|^1 takes off that LHS; validates the input."""
    a, a0 = t
    a = ratios(a)
    if not a:
        raise ValueError("torus exponent needs g >= 1 entries a_1..a_g")
    (*a, a0), a_den = _common([*a, ratio(a0)])
    if not (all(x >= y for x, y in zip(a, a[1:])) and 2 * a[-1] >= a0):
        raise NonDominantError("need a_1 >= ... >= a_g >= a_0/2")
    if len(mu_per_place) != len(slopes):
        raise ValueError("one slope per place is required")
    if not mu_per_place:
        raise ValueError("at least one place is required")
    g = len(a)
    mu0 = ratio(mu0)
    slopes, s_den = _common(ratios(slopes))
    weights = []
    for mu in mu_per_place:
        mu = ratios(mu)
        if len(mu) != g:
            raise ValueError("weight length must equal g")
        weights += mu
    (mu0, *weights), mu_den = _common([mu0, *weights])
    lhs, bounds = 0, []
    for start, slope in zip(range(0, len(weights), g), slopes):
        mu = weights[start : start + g]
        # v_p(lambda_v(t)) = sum_i mu_i a_i + (mu_0 - sum_i mu_i) a_0 / 2, plus the slope
        lhs += (2 * s_den * sum(x * y for x, y in zip(mu, a)) + s_den * (mu0 - sum(mu)) * a0
                + 2 * mu_den * a_den * slope)
        bounds += [2 * s_den * (mu[i] - mu[i + 1] + mu_den) * (a[i] - a[i + 1])
                   for i in range(g - 1)]
        bounds.append(4 * s_den * (2 * mu[-1] + mu_den) * a[-1])
    return lhs, min(bounds), mu_den * s_den * len(slopes) * a0


def slope_check_gsp(mu_per_place: Sequence[Sequence], mu0, t, slopes: Sequence) -> bool:
    """Noncritical-slope inequality for GSp(2g) over all places above p.

    LHS = sum_v (v_p(lambda_v(t)) + v_p(alpha_{v,t})); RHS = the minimum of
    (mu_{v,i} - mu_{v,i+1} + 1)(a_i - a_{i+1}) over i < g and places, and
    2(2 mu_{v,g} + 1) a_g.  t = (a, a_0) must be dominant.
    """
    lhs, rhs, _ = _slope_sides(mu_per_place, mu0, t, slopes)
    return lhs < rhs


def twist_search(mu_per_place: Sequence[Sequence], mu0, t, slopes: Sequence) -> int:
    """Smallest |m| such that the |.|^m twist has noncritical slope.

    Twisting shifts the similitude weight mu_0 by m and every slope by
    -m a_0, so each place's left-hand side moves by -m a_0 / 2 while the
    right-hand side stays fixed.  The twist succeeds exactly when
    m (places a_0 / 2) > LHS - RHS, which one floor division solves on the
    sides scaled to integers.
    """
    lhs, rhs, step = _slope_sides(mu_per_place, mu0, t, slopes)
    if lhs < rhs:
        return 0
    if step == 0:
        raise ValueError("a_0 = 0: twisting cannot change the slope")
    # at LHS = RHS the twist is still one step, in the sign of a_0
    steps = (lhs - rhs) // abs(step) + 1
    return steps if step > 0 else -steps


#: budget of `refinement_obstruction_orders`, about 4 s and 60 MB at most
#: (the cost table is in the README): the summed size bounds of its
#: subset-sum sets, and the trial divisions of its differences
OBSTRUCTION_MAX_SUMS = 2**18
OBSTRUCTION_MAX_TRIALS = 10**8


def _divisors(n: int) -> set[int]:
    small = [d for d in range(1, isqrt(n) + 1) if not n % d]
    return {*small, *(n // d for d in small)}


def refinement_obstruction_orders(exponents: Iterable[int]) -> set[int]:
    """Orders d such that r^d = 1 collides the leading refinement.

    exponents are the r-exponents of the Frobenius eigenvalues, leading
    refinement first after sorting; for each cardinality i the top-i sum
    top_i is compared with every other i-element subset sum s, and each
    divisor of top_i - s is an obstruction order.  Distinct exponents make
    top_i strictly maximal, so the differences are positive.

    One pass keeps the set S_i of i-subset sums for i <= m/2; complements
    give the (m-i)-subsets, with differences s - bot_i (bot_i the bottom-i
    sum).  Up front, |S_i| <= min(C(m, i), top_i - bot_i + 1), and each of
    the at most min(2 sum |S_i|, D) differences takes isqrt(D) trial
    divisions, D = top_i - bot_i at i = m/2 the widest; a request past
    either budget is refused.  Enumerating all subsets is the test oracle.
    """
    exps = sorted(exponents, reverse=True)
    if len(set(exps)) != len(exps):
        raise ValueError("exponents must be pairwise distinct")
    m, half = len(exps), len(exps) // 2
    tops = list(itertools.accumulate(exps[:half]))
    bots = list(itertools.accumulate(exps[::-1][:half]))
    sizes = 0
    for i, (top, bot) in enumerate(zip(tops, bots), 1):
        sizes += min(comb(m, i), top - bot + 1)
        if sizes > OBSTRUCTION_MAX_SUMS:
            raise ValueError(f"obstruction needs over {OBSTRUCTION_MAX_SUMS} subset sums; refused")
    widest = tops[-1] - bots[-1] if half else 0
    trials = min(2 * sizes, widest) * isqrt(widest)
    if trials > OBSTRUCTION_MAX_TRIALS:
        raise ValueError(
            f"obstruction exponents {widest} apart need up to {trials} trial divisions; "
            f"more than {OBSTRUCTION_MAX_TRIALS} is refused"
        )
    sums = [{0}] + [set() for _ in range(half)]  # sums[i]: i-subset sums so far
    for k, x in enumerate(exps):
        for i in range(min(k + 1, half), 0, -1):
            sums[i] |= {s + x for s in sums[i - 1]}
    diffs = set()
    for top, bot, reached in zip(tops, bots, sums[1:]):
        diffs.update(top - s for s in reached)
        diffs.update(s - bot for s in reached)
    diffs.discard(0)
    orders: set[int] = set()
    for diff in diffs:
        orders |= _divisors(diff)
    return orders


def exclusion_sufficient(orders: Iterable[int], n: int) -> bool:
    """Whether excluding mu_n kills every obstruction (all orders divide n)."""
    if n < 1:
        raise ValueError(f"N must be at least 1, got {n}")
    return all(n % d == 0 for d in orders)


def _cmd_slope(args) -> tuple[str, None, None]:
    from .cliargs import CliError
    from .jsonargs import _array, _has_keys, _load_input
    if args.family == "hilbert":
        obj = _has_keys(_load_input(args), "--input", "k", "w", "slopes")
        k, slopes = _array(obj["k"], "k"), _array(obj["slopes"], "slopes")
        noncritical = slope_check_hilbert(k, obj["w"], slopes)
        return '{"noncritical":%s}' % str(noncritical).lower(), None, None
    obj = _has_keys(_load_input(args), "--input", "weights", "mu0", "t", "slopes")
    find_twist = obj.get("find_twist", False)
    if not isinstance(find_twist, bool):
        raise CliError(f"find_twist must be true or false, not {find_twist!r}")
    weights = [_array(mu, "each entry of weights") for mu in _array(obj["weights"], "weights")]
    slopes = _array(obj["slopes"], "slopes")
    t_obj = _has_keys(obj["t"], "t", "a", "a0")
    t = (_array(t_obj["a"], "t.a"), t_obj["a0"])
    text = '{"noncritical":%s' % str(slope_check_gsp(weights, obj["mu0"], t, slopes)).lower()
    if find_twist:  # "twist" sorts after "noncritical"
        text += ',"twist":%d' % twist_search(weights, obj["mu0"], t, slopes)
    return text + "}", None, None


def _cmd_obstruction(args) -> tuple[str, None, None]:
    from .cliargs import CliError, _int
    exponents = [_int(x, "--exponents") for x in args.exponents.split(",") if x.strip() != ""]
    if not exponents:
        raise CliError("--exponents needs at least one exponent")
    orders = sorted(refinement_obstruction_orders(exponents))
    text = '"orders":[%s]' % ",".join(map(str, orders))
    if args.check_N is not None:  # "check_N" sorts before "orders"
        sufficient = "true" if exclusion_sufficient(orders, args.check_N) else "false"
        text = '"check_N":{"N":%d,"sufficient":%s},' % (args.check_N, sufficient) + text
    return "{%s}" % text, None, None
