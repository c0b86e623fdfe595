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
Character recovery inverts these eigenvalue formulas, given the weight,
whose similitude coordinate enters through the determinant relation
chi_1...chi_g sigma^2 (p) = p^{mu_0}.  It is their exact inverse, so it
checks nothing at run time; the forward map is the test oracle in
`tests/kernel_oracles.py`.

An eigenvalue is a Laurent monomial in formal symbols (p, chi_j and sigma,
or whatever symbols `recover-chi` is given), held as its exponent map
{symbol: Fraction} with zero exponents dropped; `_monomial` multiplies
them.  Half-integer p-exponents (the g(g+1)/4 term) are ordinary rational
exponents of the symbol 'p'; no square roots are adjoined.
`hecke` evaluates this closed form for the generic character, one element
(`hecke_entry`) or the whole sweep (`hecke_table`), on the torus exponents
as `linvariants.ratios` reads them, in integers over one denominator, and
writes the answer as compact JSON text with `linvariants.ratio_text`: a
request of ints and plain `a/b` texts imports neither `fractions` nor
`json`.  The sweep adds up p's exponent by doubling; its length is known
from the numerators before it runs, so `hecke --all` refuses a long one.
The evaluation for any character, `hecke_diagonal`, is a test oracle in
`tests/kernel_oracles.py`.
"""

from __future__ import annotations

import itertools
from functools import lru_cache, partial
from math import factorial, gcd, lcm
from typing import TYPE_CHECKING, NamedTuple, Sequence

from . import ratio, ratio_text, ratios

if TYPE_CHECKING:  # `hecke` loads no `fractions`
    from fractions import Fraction

#: t = (p^{a_1}, ..., p^{a_g}; p^{a_0}) as (a, a_0), each exponent a pair that `ratio` reads
Torus = tuple[Sequence[tuple[int, int]], tuple[int, int]]


def _monomial(*factors) -> dict:
    """The product of (exponent map, power) factors as one exponent map {symbol:
    exponent}, zero exponents dropped.  A power of 1 or -1 multiplies nothing."""
    exps: dict = {}
    for factor, power in factors:
        for sym, e in factor.items():
            e = e if power == 1 else -e if power == -1 else e * power
            exps[sym] = exps[sym] + e if sym in exps else e
    return {sym: e for sym, e in exps.items() if e}


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
    """All 2^g g! elements: permutations in lexicographic order, each with the sign
    vectors of product((1, -1), repeat=g), built without a Python call apiece."""
    pairs = itertools.product(itertools.permutations(range(1, g + 1)),
                              itertools.product((1, -1), repeat=g))
    return tuple(map(partial(tuple.__new__, WeylElement), pairs))


def _torus_numerators(t: Torus) -> tuple[int, int, list[tuple[int, int]]]:
    """d = 4 lcm(denominators of t), a_0 over d and, for each i, the pair (a_i, a_0 - a_i)
    over d that eps(i) = 1, -1 picks: slot j of (nu, eps) . t holds one of them, i = nu(j).
    With 4 | a_0 the p-exponent g(g+1)/4 a_0 - sum_j (g+1-j) s_j is one too."""
    a, (num, den) = t
    d = 4 * lcm(den, *(q for _, q in a))
    a0 = num * (d // den)
    return d, a0, [(x, a0 - x) for x in (p * (d // q) for p, q in a)]


def _text(x: int, d: int) -> str:
    """x/d reduced, as `str(Fraction)` writes it."""
    common = gcd(x, d)
    return ratio_text((x // common, d // common))


def _fragment(key: str, x: int, d: int) -> str:
    """`,"key":"value"` with the value `_text(x, d)`, or "" when x = 0."""
    return f',"{key}":"{_text(x, d)}"' if x else ""


def _listing_digits(d: int, a0: int, pairs: list[tuple[int, int]]) -> int:
    """A bound on the digits of the exponents `hecke_table` prints: in each of its 2^g g! rows
    slot by slot the longer text of a pair, sigma's text and p's, whose numerator is at most
    g(g+1) times the largest of the pairs' (|a_0| is at most twice it) over a divisor of d."""
    g, largest = len(pairs), max(abs(x) for pair in pairs for x in pair)
    # 0.31 bits a digit bounds the digits of p's numerator and of d; 5 more, a sign and a slash
    p = ((g * (g + 1) * largest).bit_length() + d.bit_length()) * 31 // 100 + 5
    texts = sum(max(len(_text(x, d)) for x in pair) for pair in pairs) + len(_text(a0, d))
    return 2**g * factorial(g) * (texts + p)


def c_g_constant(g: int, w: WeylElement) -> Fraction:
    """c_{g,nu,eps} = sum_{eps(nu(j))=-1}(g+1-j) - g(g+1)/4."""
    from fractions import Fraction
    total = sum(g + 1 - j for j, i in enumerate(w.nu, 1) if w.eps[i - 1] == -1)
    return Fraction(4 * total - g * (g + 1), 4)


def _beta_weight_exponents(g: int, mu: Sequence[Fraction], mu0: Fraction) -> list[Fraction]:
    """v_p of the weight (mu; mu0) at beta_{g-i}, sum_j mu_j a_j + (mu0 - sum(mu)) a_0 / 2,
    for i = 1..g, in O(g): beta_j is -1 in its last j slots with a_0 = -2, which gives
    sum(mu) - mu_0 - (the last j of mu summed), and beta_0 is 0 with a_0 = -1, which
    gives half of sum(mu) - mu_0."""
    if len(mu) != g:
        raise ValueError("weight length must equal g")
    suffix = list(itertools.accumulate(reversed(mu)))
    excess = suffix[-1] - mu0
    return [excess - suffix[g - i - 1] for i in range(1, g)] + [excess / 2]


def recover_characters(g: int, thetas: Sequence[dict], mu: Sequence, mu0,
                       w: WeylElement) -> tuple[list[dict], dict]:
    """Solve the U_{p,i} eigenvalue system thetas for (chi_1..chi_g, sigma), each
    eigenvalue and each answer an exponent map {symbol: Fraction}.

    With alpha_i the eigenvalue at beta_{g-i} without its weight factor and
    alpha_0 = p^{-mu_0}, the value at beta_g when det = p^{mu_0}, the ratio
    alpha_i / alpha_{i-1} (alpha_g^2 / alpha_{g-1} at i = g) moves one slot of
    the torus, so it is p^{-eps(i)(g+1-j)} chi_j^{eps(i)} for j = nu^{-1}(i),
    and alpha_g pins sigma.  Each step is solved for its one unknown: this is
    the exact inverse of a bijection on rational exponent vectors, so every
    thetas has one answer, whose eigenvalues are thetas and whose determinant
    chi_1...chi_g sigma^2 (p) is p^{mu_0}.
    """
    from .exactlin import rational, vector
    if g < 2:
        raise ValueError("character recovery needs g >= 2")
    if len(thetas) != g:
        raise ValueError("need exactly g eigenvalues")
    mu = vector(mu)
    mu0 = rational(mu0)
    alphas = [_monomial(({"p": -shift}, 1), (theta, 1))
              for shift, theta in zip(_beta_weight_exponents(g, mu, mu0), thetas)]
    if w.g != g:
        raise ValueError("ranks differ")

    # with alpha_0 = p^{-mu_0} and i = nu(j), chi_j = (p^{eps(i)(g+1-j)} r_i)^{eps(i)},
    # where r_i = alpha_i / alpha_{i-1}, with alpha_g squared at i = g; eps(i)(g+1-j)
    # is the step c_{i-1} - c_i of the eigenvalue constants (c_0 = 0), or c_{g-1} - 2 c_g
    alphas.insert(0, {"p": -mu0})
    chi = []
    for j, i in enumerate(w.nu, 1):
        e = w.eps[i - 1]
        chi.append(_monomial(({"p": g + 1 - j}, 1), (alphas[i], 2 * e if i == g else e),
                             (alphas[i - 1], -e)))
    sigma = _monomial(({"p": c_g_constant(g, w)}, 1), (alphas[g], -1),
                      *((x, -1) for x, i in zip(chi, w.nu) if w.eps[i - 1] == -1))
    return chi, sigma


#: `hecke --all` prints 2^g g! rows, at g = 6 in about 0.2 s and 41 MB, and
#: 1.6 s and 80 MB indented (the cost table is in the README)
HECKE_ALL_MAX_G = 6
#: the most digits of exponents that `hecke --all` may print, as `_listing_digits` counts
#: them: at g = 6 about 0.2 s and 70 MB, 2 s and 110 MB indented (the cost table is in the README)
HECKE_ALL_MAX_DIGITS = 10**7
#: largest `recover-chi` g, about 10 s and 100 MB (the cost table is in the README)
RECOVER_CHI_MAX_G = 500


def _weyl_from_args(args, g: int) -> WeylElement:
    from .jsonargs import _json_keys
    if args.weyl is None:
        return WeylElement.identity(g)
    return WeylElement.from_json(_json_keys(args.weyl, "--weyl", "nu", "eps"))


def hecke_table(t: Torus) -> str:
    """The `hecke --all` entries of the generic character as compact JSON text, in
    `weyl_group` order, each object's keys sorted as `json.dumps(sort_keys=True)` sorts them.

    Every exponent is a numerator over d = 4 lcm(denominators of t): chi_j's
    is one of the 2g values s = a_i, a_0 - a_i, sigma's is a_0, and only p's
    is a sum, built per permutation by doubling.  So each `,"key":"value"`
    fragment is made once, "" for a zero exponent: chi_j's for each slot and
    sign, sigma's, and p's for each exponent.  An element joins its fragments
    and drops the first comma.
    """
    g = len(t[0])
    d, a0, pairs = _torus_numerators(t)

    # chi[j][i - 1]: slot j's fragments when it holds sign i, for eps(i) = 1 and -1
    chi = {j: [[_fragment(f"chi_{j}", x, d) for x in pair] for pair in pairs]
           for j in range(1, g + 1)}
    keys = sorted(chi, key=str)  # the slots in the string order of their keys
    bit = {j: 2 ** (g - 1 - k) for k, j in enumerate(keys)}  # slot j's bit when doubled in that order
    p_fragment = lru_cache(maxsize=None)(lambda x: _fragment("p", x, d))
    sigma = _fragment("sigma", a0, d)
    eps_json = ["[%s]" % ",".join(map(str, eps)) for eps in itertools.product((1, -1), repeat=g)]
    elements, entries = weyl_group(g), []
    for start in range(0, len(elements), 2**g):
        nu = elements[start].nu
        ps, chis, order = [g * (g + 1) * (a0 // 4)], [""], [0]
        for i, j in sorted(zip(nu, range(1, g + 1))):  # sign i picks s_j, nu(j) = i
            terms = [(g + 1 - j) * y for y in pairs[i - 1]]
            ps = [x - y for x in ps for y in terms]  # so the last sign changes fastest
            order = [x + y for x in order for y in (0, bit[j])]  # its chi text in `chis`
        for j in keys:
            chis = [x + y for x in chis for y in chi[j][nu[j - 1] - 1]]
        nu_json = "[%s]" % ",".join(map(str, nu))
        for k, p, eps in zip(order, ps, eps_json):
            value = chis[k] + p_fragment(p) + sigma
            entries.append(f'{{"value":{{{value[1:]}}},"weyl":{{"eps":{eps},"nu":{nu_json}}}}}')
    return "[%s]" % ",".join(entries)


def hecke_entry(t: Torus, w: WeylElement) -> str:
    """The `hecke_table` entry of w alone, by the same closed form: slot j holds
    s_j = a_i or a_0 - a_i as eps(i) = 1 or -1, i = nu(j), every exponent a
    numerator over d = 4 lcm(denominators of t)."""
    g = len(t[0])
    if w.g != g:
        raise ValueError("ranks differ")
    d, a0, pairs = _torus_numerators(t)
    s = [pairs[i - 1][w.eps[i - 1] < 0] for i in w.nu]
    p = g * (g + 1) * (a0 // 4) - sum(q * x for q, x in zip(range(g, 0, -1), s))
    chis = "".join(_fragment(f"chi_{j}", s[j - 1], d) for j in sorted(range(1, g + 1), key=str))
    value = chis + _fragment("p", p, d) + _fragment("sigma", a0, d)
    eps, nu = (",".join(map(str, x)) for x in (w.eps, w.nu))
    return f'{{"value":{{{value[1:]}}},"weyl":{{"eps":[{eps}],"nu":[{nu}]}}}}'


def _cmd_hecke(args) -> tuple[str, None, None]:
    from .cliargs import CliError
    from .jsonargs import _json_keys, _scalar_array
    g = args.g
    if args.all and g > HECKE_ALL_MAX_G:
        raise CliError(f"--all lists 2^g g! Weyl elements; g > {HECKE_ALL_MAX_G} is refused")
    t_obj = _json_keys(args.t, "--t", "a", "a0")
    a = ratios(_scalar_array(t_obj["a"], "t.a"))
    if not a:
        raise ValueError("torus exponent needs g >= 1 entries a_1..a_g")
    t = a, ratio(t_obj["a0"])
    if len(a) != g:
        raise CliError("torus exponent length differs from g")
    if args.all:
        if args.weyl is not None:
            raise CliError("--weyl and --all exclude each other")
        if (digits := _listing_digits(*_torus_numerators(t))) > HECKE_ALL_MAX_DIGITS:
            raise CliError(f"--all would print up to {digits} digits of exponents; "
                           f"more than {HECKE_ALL_MAX_DIGITS} is refused")
        return f'{{"eigenvalues":{hecke_table(t)},"g":{g}}}', None, None
    return '{"g":%d,%s' % (g, hecke_entry(t, _weyl_from_args(args, g))[1:]), None, None


def _cmd_recover_chi(args) -> tuple[str, None, None]:
    """`--eigs`, `--weights` and `--weyl`, or one `--input` object with the keys
    `eigs`, `weights` and, optionally, `weyl`: at the cap the eigenvalues are
    megabytes of JSON, past what one command-line argument may hold.  The symbols are
    text from outside, so the answer is written by `json`, which escapes them."""
    from .cliargs import CliError, _cap, _json_text
    from .exactlin import rational
    from .jsonargs import (_array, _has_keys, _json_keys, _json_object, _load_input,
                           _parse_json_arg, _scalar_array)
    g = args.g
    if args.input is None:
        for option in ("eigs", "weights"):
            if getattr(args, option) is None:
                raise CliError(f"recover-chi needs --{option}")
    elif (args.eigs, args.weights, args.weyl) != (None, None, None):
        raise CliError("--input and --eigs, --weights or --weyl exclude each other")
    _cap(g, RECOVER_CHI_MAX_G, "recover-chi --g")
    if args.input is None:
        eigs = _parse_json_arg(args.eigs, "--eigs")
        weights = _json_keys(args.weights, "--weights", "mu", "mu0")
        w = _weyl_from_args(args, g)
    else:
        obj = _has_keys(_load_input(args), "--input", "eigs", "weights")
        eigs, weights = obj["eigs"], _has_keys(obj["weights"], "weights", "mu", "mu0")
        w = (WeylElement.from_json(_has_keys(obj["weyl"], "weyl", "nu", "eps")) if "weyl" in obj
             else WeylElement.identity(g))
    eigs = [{sym: rational(x) for sym, x in _json_object(e, "a monomial").items()}
            for e in _array(eigs, "eigs")]
    mu = _scalar_array(weights["mu"], "weights.mu")
    chi, sigma = recover_characters(g, eigs, mu, weights["mu0"], w)
    return _json_text({"chi": [{sym: str(x) for sym, x in c.items()} for c in chi],
                       "sigma": {sym: str(x) for sym, x in sigma.items()}}), None, None
