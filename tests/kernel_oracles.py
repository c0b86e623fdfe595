"""The `Fraction` loops the integer kernels replaced, kept as test oracles.

`weylhecke.weyl_group` builds its elements from one product of iterators,
`hecke` and `hecke --all` sum integer numerators over one common
denominator (the sweep doubling its p-exponents once per sign), and so does
`hecke_diagonal` below for any character,
`plethysm.cg_table` runs the raising recurrence on C in integers with exact
floor divisions, and `plethysm.b_row` walks the B_{n,k,i} sum by its term
ratios.  The functions below compute the same values the plain way, one
`Fraction` operation at a time: the Weyl group by nested loops, the Weyl
action on torus exponents, the diagonal eigenvalue of one Weyl element from
it, the recurrence on C with one `Fraction` division per entry, and every
summand of B from its binomials and factorials.  `unrolled_cg_coefficient`
computes one C from the recurrence unrolled down to w = 0, an integer sum
with no division.  `weylhecke.recover_characters` solves the U_{p,i}
eigenvalue system by one-term steps; `normalized_eigenvalues` is the forward
map it inverts, one closed-form evaluation at each torus `beta(g, g-i)`
times the weight factor that `weight_exponent` gives there, the valuation
of the highest-weight character at a torus exponent in `Fraction`s (the
slope checks of `slopes` take the same sum in integers, over one common
denominator).
`recovered_character` runs that solve on `Monomial`s, the tests' own
Laurent monomials, through the exponent maps it takes and returns; every
oracle here multiplies monomials with that class, and `hecke_diagonal`
takes the torus numerators itself, not from the helper that `hecke` and
`hecke --all` share.  From `src/` the oracles take only the record
`WeylElement` and `plethysm.valid_triple`: they read their scalars with
`fraction_rational` and `fraction_vector` of `tests/scalar_oracle.py`, not
with the reader they check, and raise their own `ValueError`s with the
messages of `src/`; the torus is their own record
`TorusExponent` of `Fraction`s, whose `pairs` are the exponents as `hecke`
takes them;
`recovered_character` wraps the solve under test and checks nothing itself.
`slopes` decides the noncritical-slope inequalities and the twist in
integers over one common denominator; `fraction_slope_hilbert`,
`fraction_slope_sides` and `fraction_twist` take them one `Fraction` at a
time, with the same refusals in the same order.
`b_special`, the paper's special values of B for k >= n-2, is the second
oracle of the B rows.  The obstruction
orders of `slopes.refinement_obstruction_orders`, found there from one pass
of subset sums, are found here by enumerating every subset and dividing
each difference by every trial divisor.
"""

import itertools
from fractions import Fraction
from math import ceil, comb, factorial, floor
from typing import NamedTuple

from linvariants.plethysm import valid_triple
from functools import lru_cache
from math import lcm

from linvariants.weylhecke import WeylElement, recover_characters
from scalar_oracle import fraction_rational, fraction_vector


class Monomial:
    """Laurent monomial in formal symbols with exact rational exponents.

    Two monomials are equal iff their exponent maps are equal: the symbols
    satisfy no hidden multiplicative relations.  `exponents` is the one
    canonical form of that map, the tuple of (symbol, exponent) pairs with
    nonzero exponents, sorted by symbol.  An exponent is a Fraction, or an
    int where a caller builds the form directly: equal values of the two
    compare, hash and print alike.
    """

    __slots__ = ("exponents",)

    def __init__(self, exponents: tuple = ()):
        self.exponents = exponents

    def __eq__(self, other) -> bool:
        return isinstance(other, Monomial) and self.exponents == other.exponents

    def __hash__(self) -> int:
        return hash(self.exponents)

    def __repr__(self) -> str:
        return "*".join(f"{s}^{e}" for s, e in self.exponents) or "1"

    @classmethod
    def from_dict(cls, exps: dict) -> "Monomial":
        items = ((sym, Fraction(e)) for sym, e in exps.items())
        return cls(tuple(sorted(item for item in items if item[1])))

    @classmethod
    def symbol(cls, name: str, exponent=1) -> "Monomial":
        return cls.from_dict({name: exponent})

    @classmethod
    def p_power(cls, exponent) -> "Monomial":
        return cls.symbol("p", exponent)

    def __mul__(self, other: "Monomial") -> "Monomial":
        return monomial_product((self, other))

    def __pow__(self, e) -> "Monomial":
        e = Fraction(e)
        return Monomial(tuple((s, x * e) for s, x in self.exponents if e))

    def inverse(self) -> "Monomial":
        return self ** -1

    def to_json(self) -> dict:
        return {sym: str(e) for sym, e in self.exponents}


def monomial_product(factors) -> Monomial:
    """The product of `factors`, summed into one exponent map."""
    exps: dict = {}
    for factor in factors:
        for sym, e in factor.exponents:
            exps[sym] = exps[sym] + e if sym in exps else e
    return Monomial(tuple(sorted((sym, e) for sym, e in exps.items() if e)))


class TorusExponent(NamedTuple):
    """t = (p^{a_1}, ..., p^{a_g}; p^{a_0}) stored by its exponents, as `Fraction`s."""

    a: tuple[Fraction, ...]
    a0: Fraction

    @classmethod
    def make(cls, a, a0) -> "TorusExponent":
        return cls(fraction_vector(a), fraction_rational(a0))

    @property
    def g(self) -> int:
        return len(self.a)

    @property
    def pairs(self) -> tuple[list[tuple[int, int]], tuple[int, int]]:
        """(a, a_0) as the (numerator, denominator) pairs `hecke_entry` and `hecke_table` take."""
        return [(x.numerator, x.denominator) for x in self.a], (self.a0.numerator, self.a0.denominator)


class CharacterData(NamedTuple):
    """Values chi_j(p) and sigma(p) of an unramified character of the torus."""

    chi: tuple[Monomial, ...]
    sigma: Monomial


def recovered_character(g: int, thetas, mu, mu0, w: WeylElement) -> CharacterData:
    """`weylhecke.recover_characters` on the exponent maps of the monomials thetas."""
    chi, sigma = recover_characters(g, [dict(theta.exponents) for theta in thetas], mu, mu0, w)
    return CharacterData(tuple(map(Monomial.from_dict, chi)), Monomial.from_dict(sigma))


def nested_loop_weyl_group(g: int) -> tuple[WeylElement, ...]:
    """All 2^g g! elements: for each permutation in lexicographic order, every
    sign vector of product((1, -1), repeat=g)."""
    elements = []
    for nu in itertools.permutations(range(1, g + 1)):
        for eps in itertools.product((1, -1), repeat=g):
            elements.append(WeylElement(nu, eps))
    return tuple(elements)


def weyl_conjugate(w: WeylElement, t: TorusExponent) -> TorusExponent:
    """Exponents of the conjugated torus element: slot j carries a'_{nu(j)}."""
    if w.g != t.g:
        raise ValueError("ranks differ")
    flipped = [a if e == 1 else t.a0 - a for a, e in zip(t.a, w.eps)]
    return TorusExponent(tuple(flipped[i - 1] for i in w.nu), t.a0)


def fraction_hecke_diagonal(chi: CharacterData, t: TorusExponent, w: WeylElement) -> Monomial:
    """p^{g(g+1)/4 a_0 - sum_j (g+1-j) a'_{nu(j)}} sigma^{a_0} prod_j chi_j^{a'_{nu(j)}}."""
    g = len(chi.chi)
    if t.g != g or w.g != g:
        raise ValueError("ranks differ")
    s = weyl_conjugate(w, t)
    p_exp = Fraction(g * (g + 1), 4) * t.a0 - sum((g + 1 - j) * a for j, a in enumerate(s.a, 1))
    exps = {"p": p_exp}
    for value, power in ((chi.sigma, t.a0), *zip(chi.chi, s.a)):
        for sym, e in value.exponents:
            exps[sym] = exps.get(sym, 0) + e * power
    return Monomial.from_dict(exps)


def weyl_json(w: WeylElement) -> dict:
    """w as `--weyl` takes it."""
    return {"nu": list(w.nu), "eps": list(w.eps)}


def generic_character(g: int) -> CharacterData:
    """chi_j(p) = chi_j and sigma(p) = sigma, the formal symbols `hecke` prints."""
    return CharacterData(
        tuple(Monomial.symbol(f"chi_{j}") for j in range(1, g + 1)),
        Monomial.symbol("sigma"),
    )


def hecke_diagonal(chi: CharacterData, t: TorusExponent, w: WeylElement) -> Monomial:
    """The diagonal eigenvalue of U_t at w for any character, in integers.

    The closed form's exponent vector (s_1..s_g, a_0 and the p-exponent) is
    taken over d = 4 lcm(every denominator in t, chi and sigma), and chi and
    sigma, over d too, carry it onto their symbols as numerators over d^2.
    `recover-chi`'s forward map evaluates it, far faster than the `Fraction`
    loop above at g = 500.
    """
    g = len(chi.chi)
    if t.g != g or w.g != g:
        raise ValueError("ranks differ")
    exponents = [e for value in (chi.sigma, *chi.chi) for _, e in value.exponents]
    d = 4 * lcm(*(x.denominator for x in (*t.a, t.a0, *exponents)))
    a0, *a = (x.numerator * (d // x.denominator) for x in (t.a0, *t.a))
    s = [a[i - 1] if w.eps[i - 1] > 0 else a0 - a[i - 1] for i in w.nu]
    exps = {"p": (g * (g + 1) * (a0 // 4) - sum(q * x for q, x in zip(range(g, 0, -1), s))) * d}
    for value, power in ((chi.sigma, a0), *zip(chi.chi, s)):
        for sym, e in value.exponents:
            exps[sym] = exps.get(sym, 0) + e.numerator * (d // e.denominator) * power
    exponent = lru_cache(maxsize=None)(lambda x: Fraction(x, d * d))
    return Monomial(tuple(sorted((sym, exponent(x)) for sym, x in exps.items() if x)))


def beta(g: int, j: int) -> TorusExponent:
    """beta_0 = (1,...,1; p^-1); beta_j has p^-1 in the last j slots and p^-2 center."""
    if not 0 <= j <= g:
        raise ValueError("need 0 <= j <= g")
    a, a0 = ([0] * g, -1) if j == 0 else ([0] * (g - j) + [-1] * j, -2)
    return TorusExponent.make(a, a0)


def weight_exponent(mu, mu0, t) -> Fraction:
    """v_p of the highest-weight character (mu_1..mu_g; mu_0) at t = (a, a_0)."""
    a, a0 = t
    mu = fraction_vector(mu)
    if len(mu) != len(a):
        raise ValueError("weight length must equal g")
    mu0 = fraction_rational(mu0)
    return sum(m * x for m, x in zip(mu, a)) + (mu0 - sum(mu)) * a0 / 2


def fraction_slope_hilbert(k_weights, w_weight, slopes) -> bool:
    """sum_i ((w + k_i - 2)/2 + v_p(alpha_i)) < min(k_i) - 1 in `Fraction`s, with the
    refusals of `slopes.slope_check_hilbert` in their order."""
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
    lhs = sum((Fraction(w_weight + k - 2, 2) + s for k, s in zip(k_weights, fraction_vector(slopes))),
              Fraction(0))
    return lhs < min(k_weights) - 1


def fraction_slope_sides(mu_per_place, mu0, t, slopes) -> tuple[Fraction, Fraction]:
    """(LHS, RHS) of the GSp(2g) slope inequality in `Fraction`s, with the refusals of
    `slopes.slope_check_gsp` in their order: reading t, dominance, the lengths, mu_0,
    the slopes, then each place's weight."""
    a = fraction_vector(t[0])
    if not a:
        raise ValueError("torus exponent needs g >= 1 entries a_1..a_g")
    a0 = fraction_rational(t[1])
    if not (all(x >= y for x, y in zip(a, a[1:])) and a[-1] >= a0 / 2):
        raise ValueError("need a_1 >= ... >= a_g >= a_0/2")
    if len(mu_per_place) != len(slopes):
        raise ValueError("one slope per place is required")
    if not mu_per_place:
        raise ValueError("at least one place is required")
    mu0 = fraction_rational(mu0)
    lhs, bounds, g = Fraction(0), [], len(a)
    for mu, slope in zip(mu_per_place, fraction_vector(slopes)):
        mu = fraction_vector(mu)
        lhs += weight_exponent(mu, mu0, (a, a0)) + slope
        bounds += [(mu[i] - mu[i + 1] + 1) * (a[i] - a[i + 1]) for i in range(g - 1)]
        bounds.append(2 * (2 * mu[g - 1] + 1) * a[g - 1])
    return lhs, min(bounds)


def fraction_twist(mu_per_place, mu0, t, slopes) -> int:
    """The smallest twist from the rational ratio r = (LHS - RHS) / (places a_0 / 2):
    floor(r) + 1 for a_0 > 0 and ceil(r) - 1 for a_0 < 0."""
    lhs, rhs = fraction_slope_sides(mu_per_place, mu0, t, slopes)
    if lhs < rhs:
        return 0
    a0 = fraction_rational(t[1])
    if a0 == 0:
        raise ValueError("a_0 = 0: twisting cannot change the slope")
    ratio = (lhs - rhs) / (len(slopes) * a0 / 2)
    return floor(ratio) + 1 if a0 > 0 else ceil(ratio) - 1


def normalized_eigenvalues(chi: CharacterData, mu, mu0, w: WeylElement) -> list[Monomial]:
    """theta(U_{p,i}) for i = 1..g: the eigenvalue at beta(g, g-i) rescaled by
    |lambda(beta_{g-i})|_p^{-1}, that is p^{weight_exponent(mu, mu0, beta(g, g-i))}."""
    g = len(chi.chi)
    return [
        Monomial.p_power(weight_exponent(mu, mu0, beta(g, g - i)))
        * hecke_diagonal(chi, beta(g, g - i), w)
        for i in range(1, g + 1)
    ]


def fraction_cg_table(m: int, n: int, p: int) -> dict[tuple[int, int, int], Fraction]:
    """C^{u,v,0} = (-1)^u (m-u)! (n-v)!, then ascending in w

        C^{u,v,w} = (u C^{u-1,v,w-1} + v C^{u,v-1,w-1}) / w.
    """
    if not valid_triple(m, n, p):
        raise ValueError(f"V_{p} does not occur in V_{m} (x) V_{n}")
    s0 = (m + n - p) // 2
    values: dict[tuple[int, int, int], Fraction] = {}
    for u in range(m + 1):
        v = s0 - u
        if 0 <= v <= n:
            values[(u, v, 0)] = Fraction((-1) ** u * factorial(m - u) * factorial(n - v))
    for w in range(1, p + 1):
        target = s0 + w
        for u in range(m + 1):
            v = target - u
            if not 0 <= v <= n:
                continue
            acc = Fraction(0)
            if u >= 1:
                acc += u * values.get((u - 1, v, w - 1), Fraction(0))
            if v >= 1:
                acc += v * values.get((u, v - 1, w - 1), Fraction(0))
            if acc:
                values[(u, v, w)] = acc / w
    return values


def unrolled_cg_coefficient(m: int, n: int, p: int, u: int, v: int, w: int) -> int:
    """One C_{m,n,p}^{u,v,w}: the raising recurrence unrolled down to w = 0,

        C^{u,v,w} = sum_a (-1)^{u-a} C(u,a) C(v,w-a) (m-u+a)! (n-v+w-a)!,

    a of the w steps lowering u, from C^{u',v',0} = (-1)^{u'} (m-u')! (n-v')!:
    the a-th term's C(w,a) u!/(u-a)! v!/(v-w+a)! / w! is C(u,a) C(v,w-a).  It
    is 0 off the stratum u + v - w = (m+n-p)/2.
    """
    if not valid_triple(m, n, p):
        raise ValueError(f"V_{p} does not occur in V_{m} (x) V_{n}")
    if not (0 <= u <= m and 0 <= v <= n and 0 <= w <= p):
        raise ValueError(f"indices out of range for V_{m} x V_{n} -> V_{p}")
    if u + v - w != (m + n - p) // 2:
        return 0
    return sum(
        (-1) ** (u - a) * comb(u, a) * comb(v, w - a)
        * factorial(m - u + a) * factorial(n - v + w - a)
        for a in range(max(0, w - v), min(u, w) + 1)
    )


def fraction_b_coefficient(n: int, k: int, i: int) -> Fraction:
    """sum_{a+b=k} (-1)^a C(n,i) C(i,a) C(n-i,b) (n-i+a)! (i+b)!, term by term."""
    if not (0 <= k <= n and 0 <= i <= n):
        raise ValueError(f"need 0 <= k, i <= n, got k={k}, i={i}, n={n}")
    total = 0
    for a in range(k + 1):
        b = k - a
        if a > i or b > n - i:
            continue
        total += (
            (-1) ** a
            * comb(n, i)
            * comb(i, a)
            * comb(n - i, b)
            * factorial(n - i + a)
            * factorial(i + b)
        )
    return Fraction(total)


def b_special(n: int, k: int, i: int) -> Fraction:
    """Special-value closed forms for k in {n, n-1, n-2}.

    The k = n sum has a single term and the k = n-1 sum two, giving

        B_{n,n,i}   = (-1)^i (n!)^2 C(n,i),
        B_{n,n-1,i} = (-1)^i n! (n-1)! C(n,i) (n - 2i).

    For k = n-2 the three-term sum
    C(i,2)(n-2)!n! - C(i,1)C(n-i,1)((n-1)!)^2 + C(n-i,2)n!(n-2)!
    collapses to (n-2)!(n-1)!(n^3 - (4i+1)n^2 + (4i^2+2i)n - 2i^2)/2;
    note the /2, which the usual simplified form of this cubic omits.

    A paper display the README names: the second oracle of `plethysm.b_row`.
    """
    if not 0 <= i <= n:
        raise ValueError(f"need 0 <= i <= n, got i={i}, n={n}")
    sign = (-1) ** i
    if k == n:
        return Fraction(sign * factorial(n) ** 2 * comb(n, i))
    if k == n - 1:
        return Fraction(sign * factorial(n) * factorial(n - 1) * comb(n, i) * (n - 2 * i))
    if k == n - 2:
        poly = (
            n**3
            - (4 * i + 1) * n**2
            + (4 * i**2 + 2 * i) * n
            - 2 * i**2
        )
        return Fraction(sign * comb(n, i) * factorial(n - 2) * factorial(n - 1) * poly, 2)
    raise ValueError(f"special values exist only for k in {{n, n-1, n-2}}, got k={k}")


def trial_divisors(n: int) -> set[int]:
    """Every divisor of n >= 1, one trial division per d <= sqrt(n)."""
    out = set()
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.add(d)
            out.add(n // d)
        d += 1
    return out


def enumerated_obstruction_orders(exponents) -> set[int]:
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
