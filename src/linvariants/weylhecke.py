"""Weyl group of GSp(2g), Iwahori-Hecke diagonal eigenvalues, character recovery.

The Weyl group is S_g x (Z/2)^g; an element w = (nu, eps) acts on torus
exponents t = (p^{a_1}, ..., p^{a_g}; p^{a_0}) by first replacing a_i with
a_0 - a_i wherever eps(i) = -1 and then permuting, so the conjugated
exponent at slot j is a'_{nu(j)}.

On the Iwahori invariants of an irreducible unramified principal series
chi_1 (x) ... (x) chi_g (x) sigma there is a basis indexed by w in which
every U_t = [Iw t Iw] is triangular; the diagonal entry at w is computed
here as the half-modulus character times chi, both evaluated at the
conjugated element:

    p^{g(g+1)/4 a_0 - sum_j (g+1-j) a'_{nu(j)}} sigma(p)^{a_0}
        prod_j chi_j(p)^{a'_{nu(j)}}.

Specializing t to the standard elements beta_j reproduces the two closed
U_{p,i} eigenvalue families with their combinatorial constants
c_{i,nu,eps}; the test suite checks that equality over every Weyl element.
Character recovery inverts these eigenvalue formulas (given the weight,
whose similitude coordinate enters through the determinant relation
chi_1...chi_g sigma^2 (p) = p^{mu_0}) and is contracted to round-trip.

Half-integer p-exponents (the g(g+1)/4 term) are ordinary rational
exponents of the EigenMonomial symbol 'p'; no square roots are adjoined.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .exactlin import rational, vector
from .monomial import EigenMonomial, monomial_product


class InversionError(ValueError):
    """Character recovery failed its round trip: inconsistent eigenvalues."""


class WeylElement(NamedTuple):
    """(nu, eps) with nu in one-line notation on {1..g} and eps: {1..g} -> {-1,1}.

    Built from trusted tuples; `from_json` checks what comes from outside.
    """

    nu: tuple[int, ...]
    eps: tuple[int, ...]

    @property
    def g(self) -> int:
        return len(self.nu)

    @classmethod
    def identity(cls, g: int) -> "WeylElement":
        return cls(tuple(range(1, g + 1)), (1,) * g)

    def permute(self, j: int) -> int:
        """nu(j) for 1-based j."""
        return self.nu[j - 1]

    def sign(self, i: int) -> int:
        """eps(i) for 1-based i."""
        return self.eps[i - 1]

    def to_json(self) -> dict:
        return {"nu": list(self.nu), "eps": list(self.eps)}

    @classmethod
    def from_json(cls, obj: dict) -> "WeylElement":
        nu, eps = tuple(obj["nu"]), tuple(obj["eps"])
        # bool and float equal to an int would pass the checks below
        if not set(map(type, (*nu, *eps))) <= {int}:
            raise TypeError("nu and eps entries must be integers")
        if sorted(nu) != list(range(1, len(nu) + 1)):
            raise ValueError("nu is not a permutation of 1..g")
        if len(eps) != len(nu) or any(e not in (-1, 1) for e in eps):
            raise ValueError("eps must be a vector of +-1 of length g")
        return cls(nu, eps)


@lru_cache(maxsize=None)
def weyl_group(g: int) -> tuple[WeylElement, ...]:
    """All 2^g g! elements, permutations in lexicographic order."""
    elements = []
    for nu in itertools.permutations(range(1, g + 1)):
        for eps in itertools.product((1, -1), repeat=g):
            elements.append(WeylElement(nu, eps))
    return tuple(elements)


class TorusExponent(NamedTuple):
    """t = (p^{a_1}, ..., p^{a_g}; p^{a_0}) stored by its exponents."""

    a: tuple[Fraction, ...]
    a0: Fraction

    @classmethod
    def make(cls, a: Iterable, a0) -> "TorusExponent":
        a = vector(a)
        if not a:
            raise ValueError("torus exponent needs g >= 1 entries a_1..a_g")
        return cls(a, rational(a0))

    @property
    def g(self) -> int:
        return len(self.a)


def beta(g: int, j: int) -> TorusExponent:
    """beta_0 = (1,...,1; p^-1); beta_j has p^-1 in the last j slots and p^-2 center."""
    if not 0 <= j <= g:
        raise ValueError("need 0 <= j <= g")
    if j == 0:
        return TorusExponent.make([0] * g, -1)
    return TorusExponent.make([0] * (g - j) + [-1] * j, -2)


class CharacterData(NamedTuple):
    """Values chi_j(p) and sigma(p) of an unramified character of the torus."""

    chi: tuple[EigenMonomial, ...]
    sigma: EigenMonomial

    @property
    def g(self) -> int:
        return len(self.chi)

    @classmethod
    def generic(cls, g: int) -> "CharacterData":
        return cls(
            tuple(EigenMonomial.symbol(f"chi_{j}") for j in range(1, g + 1)),
            EigenMonomial.symbol("sigma"),
        )

    def determinant(self) -> EigenMonomial:
        """chi_1 ... chi_g sigma^2 (p)."""
        return monomial_product((*self.chi, self.sigma**2))


def hecke_numerators(chi: CharacterData, t: TorusExponent) -> tuple[int, Callable]:
    """(D^2, numerators): numerators(w) lists the nonzero (symbol, exponent
    times D^2) pairs, sorted by symbol, of the diagonal eigenvalue of U_t on
    the basis vector indexed by w.

    D is the lcm of 4 and every denominator in t, chi and sigma, so every
    exponent is an integer numerator over D^2.  Slot j of the conjugated
    torus holds s = a_i or a_0 - a_i for i = nu(j), as eps(i) says, and
    brings p^{-(g+1-j) s} chi_j^s.  So the g slot rows and the 2g values s
    are built once per (chi, t), and each w adds its g rows, scaled by their
    values, to p^{g(g+1)/4 a_0} sigma^{a_0}.
    """
    g = chi.g
    if t.g != g:
        raise ValueError("ranks differ")
    denominators = [x.denominator for x in (*t.a, t.a0)]
    for value in (chi.sigma, *chi.chi):
        denominators += [e.denominator for _, e in value.exponents]
    d = lcm(4, *denominators)

    def numerator(x) -> int:
        return x.numerator * (d // x.denominator)

    def add(exps: dict, value: EigenMonomial, power: int) -> dict:
        for sym, e in value.exponents:
            exps[sym] = exps.get(sym, 0) + numerator(e) * power
        return exps

    a0 = numerator(t.a0)
    base = add({"p": g * (g + 1) * (d // 4) * a0}, chi.sigma, a0)
    slot_maps = [add({"p": -(g + 1 - j) * d}, chi_j, 1) for j, chi_j in enumerate(chi.chi, 1)]
    sources = [{1: numerator(a), -1: a0 - numerator(a)} for a in t.a]
    # each symbol has a fixed place, so each w adds into a list in symbol order
    symbols = sorted(set(base).union(*slot_maps))
    place = {sym: n for n, sym in enumerate(symbols)}
    start = [base.get(sym, 0) for sym in symbols]
    slots = [[(place[sym], c) for sym, c in slot.items()] for slot in slot_maps]

    def numerators(w: WeylElement) -> list[tuple[str, int]]:
        if w.g != g:
            raise ValueError("ranks differ")
        exps = start[:]
        for slot, i in zip(slots, w.nu):
            s = sources[i - 1][w.eps[i - 1]]
            for n, c in slot:
                exps[n] += c * s
        return [(sym, x) for sym, x in zip(symbols, exps) if x]

    return d * d, numerators


def hecke_diagonals(
    chi: CharacterData, t: TorusExponent, ws: Iterable[WeylElement]
) -> Iterator[EigenMonomial]:
    """Yield the diagonal eigenvalues of U_t on the basis vectors indexed by ws,
    one at a time and in the order of ws, from `hecke_numerators`."""
    d2, numerators = hecke_numerators(chi, t)
    exponent = lru_cache(maxsize=None)(lambda x: Fraction(x, d2))
    for w in ws:
        yield EigenMonomial(tuple((sym, exponent(x)) for sym, x in numerators(w)))


def hecke_diagonal(chi: CharacterData, t: TorusExponent, w: WeylElement) -> EigenMonomial:
    """Diagonal eigenvalue of U_t on the basis vector indexed by w."""
    return next(hecke_diagonals(chi, t, (w,)))


def c_g_constant(g: int, w: WeylElement) -> Fraction:
    """c_{g,nu,eps} = sum_{eps(nu(j))=-1}(g+1-j) - g(g+1)/4."""
    total = sum(
        Fraction(g + 1 - j)
        for j in range(1, g + 1)
        if w.sign(w.permute(j)) == -1
    )
    return total - Fraction(g * (g + 1), 4)


def _beta_weight_exponents(g: int, mu: Sequence[Fraction], mu0: Fraction) -> list[Fraction]:
    """`slopes.weight_exponent`(mu, mu0, beta(g, g-i)), i = 1..g, in O(g): beta(g, j) is -1 in
    its last j slots with a_0 = -2, which gives sum(mu) - mu_0 - (the last j of mu
    summed), and beta(g, 0) is 0 with a_0 = -1, which gives half of sum(mu) - mu_0."""
    if len(mu) != g:
        raise ValueError("weight length must equal g")
    suffix = list(itertools.accumulate(reversed(mu)))
    excess = suffix[-1] - mu0
    return [excess - suffix[g - i - 1] for i in range(1, g)] + [excess / 2]


def normalized_eigenvalues(chi: CharacterData, mu: Sequence, mu0, w: WeylElement) -> list:
    """theta(U_{p,i}) for i = 1..g: the raw eigenvalues rescaled by
    |lambda(beta_{g-i})|_p^{-1}."""
    g = chi.g
    shifts = _beta_weight_exponents(g, vector(mu), rational(mu0))
    return [
        EigenMonomial.p_power(shift) * hecke_diagonal(chi, beta(g, g - i), w)
        for i, shift in enumerate(shifts, 1)
    ]


def recover_characters(
    g: int,
    thetas: Sequence[EigenMonomial],
    mu: Sequence,
    mu0,
    w: WeylElement,
) -> CharacterData:
    """Solve the U_{p,i} eigenvalue system thetas for (chi_1..chi_g, sigma).

    Successive eigenvalue ratios isolate chi_{nu^{-1}(i)}^{eps(i)} for
    i = 2..g, the determinant relation det = p^{mu_0} pins the i = 1
    character, and the i = g eigenvalue pins sigma.  The recovered data is
    round-tripped through the eigenvalue formulas; any mismatch (inputs not
    of Hecke-eigenvalue shape for these weights) raises InversionError.
    """
    if g < 2:
        raise ValueError("character recovery needs g >= 2")
    if len(thetas) != g:
        raise ValueError("need exactly g eigenvalues")
    mu = vector(mu)
    mu0 = rational(mu0)
    alphas = [
        EigenMonomial.p_power(-shift) * theta
        for shift, theta in zip(_beta_weight_exponents(g, mu, mu0), thetas)
    ]

    # with alpha_0 = p^{-mu_0} and i = nu(j), chi_j = (p^{eps(i)(g+1-j)} r_i)^{eps(i)},
    # where r_i = alpha_i / alpha_{i-1}, with alpha_g squared at i = g; eps(i)(g+1-j)
    # is the step c_{i-1} - c_i of the eigenvalue constants (c_0 = 0), or c_{g-1} - 2 c_g
    alphas.insert(0, EigenMonomial.p_power(-mu0))
    chi_values = []
    for j, i in enumerate(w.nu, 1):
        r = (alphas[i] ** 2 if i == g else alphas[i]) / alphas[i - 1]
        e = w.eps[i - 1]
        chi_values.append((EigenMonomial.p_power(e * (g + 1 - j)) * r) ** e)
    sigma = monomial_product([
        EigenMonomial.p_power(c_g_constant(g, w)), alphas[g].inverse(),
        *(chi.inverse() for chi, i in zip(chi_values, w.nu) if w.eps[i - 1] == -1),
    ])
    recovered = CharacterData(tuple(chi_values), sigma)

    for i, (theta, given) in enumerate(zip(normalized_eigenvalues(recovered, mu, mu0, w), thetas)):
        if theta != given:
            raise InversionError(f"eigenvalue {i + 1} does not round-trip")
    if recovered.determinant() != EigenMonomial.p_power(mu0):
        raise InversionError("determinant relation fails for the recovered data")
    return recovered


#: `hecke --all` prints 2^g g! rows; one step past the cap costs over 200 MB
HECKE_ALL_MAX_G = 6
#: largest `recover-chi` g, about 10 s and 100 MB (the cost table is in CHANGES.md)
RECOVER_CHI_MAX_G = 500


def _weyl_from_args(args, g: int) -> WeylElement:
    from .cliargs import _json_keys
    if args.weyl is None:
        return WeylElement.identity(g)
    return WeylElement.from_json(_json_keys(args.weyl, "--weyl", "nu", "eps"))


def _cmd_hecke(args) -> tuple[dict, str | None, list | None]:
    from .cliargs import CliError, _json_keys, _monomial_json
    g = args.g
    if args.all and g > HECKE_ALL_MAX_G:
        raise CliError(f"--all lists 2^g g! Weyl elements; g > {HECKE_ALL_MAX_G} is refused")
    t_obj = _json_keys(args.t, "--t", "a", "a0")
    t = TorusExponent.make(t_obj["a"], t_obj["a0"])
    if t.g != g:
        raise CliError("torus exponent length differs from g")
    chi = CharacterData.generic(g)
    if args.all:
        if args.weyl is not None:
            raise CliError("--weyl and --all exclude each other")
        d2, numerators = hecke_numerators(chi, t)

        @lru_cache(maxsize=None)
        def text(x: int) -> str:  # str(Fraction(x, d2)), made once per numerator
            common = gcd(x, d2)
            return f"{x // common}/{d2 // common}" if common < d2 else str(x // common)

        entries = [
            {"weyl": w.to_json(), "value": {sym: text(x) for sym, x in numerators(w)}}
            for w in weyl_group(g)
        ]
        return {"g": g, "eigenvalues": entries}, None, None
    w = _weyl_from_args(args, g)
    value = hecke_diagonal(chi, t, w)
    return {"g": g, "weyl": w.to_json(), "value": _monomial_json(value)}, None, None


def _cmd_recover_chi(args) -> tuple[dict, str | None, list | None]:
    from .cliargs import _cap, _json_keys, _json_object, _monomial_json, _parse_json_arg
    g = args.g
    _cap(g, RECOVER_CHI_MAX_G, "recover-chi --g")
    eigs = _parse_json_arg(args.eigs, "--eigs")
    weights = _json_keys(args.weights, "--weights", "mu", "mu0")
    w = _weyl_from_args(args, g)
    recovered = recover_characters(
        g,
        [EigenMonomial.from_dict(_json_object(e, "a monomial")) for e in eigs],
        weights["mu"],
        weights["mu0"],
        w,
    )
    return {
        "chi": [_monomial_json(c) for c in recovered.chi],
        "sigma": _monomial_json(recovered.sigma),
    }, None, None
