"""Filtered (phi, N)-modules for twisted symmetric powers, locally at p.

The module D_st of Sym^{2n} of a two-dimensional representation, twisted so
the determinant is trivial, has basis f_i = e1^(n+i) e2^(n-i) for
i = n, n-1, ..., -n (that descending order indexes coordinates here).
Three local shapes occur:

* steinberg: phi(f_i) = p^{-i}, monodromy N f_i = (n-i) f_{i+1} (the
  derivation extending N e2 = e1);
* crystalline_split (ordinary): phi(f_i) = alpha^{2i} p^{i(k-1)} with
  v_p(alpha) = 0, N = 0;
* crystalline_nonsplit: phi(f_i) = r^i for the formal eigenvalue ratio
  r = alpha/beta, N = 0.

Fil^0 is fixed by (case, n, L): it is the (n+1)-dimensional space of
degree-2n polynomials divisible by (c1 e1 + c2 e2)^n, spanned by
(c1 e1 + c2 e2)^n e1^a e2^(n-a) for a = 0..n, with root (c1, c2) = (-L, 1)
for steinberg, (0, 1) for crystalline_split (so Fil^0 = <f_0, ..., f_{-n}>)
and (1, 1) for crystalline_nonsplit.  The library reads it only through
`regular_submodules`, whose per-case answer is proved for these roots.

Frobenius eigenvalues live in a free multiplicative monomial group
(`monomial.EigenMonomial`): equality against 1 or p^{-1} is exponent comparison,
which is exactly the strength of the standing no-multiplicative-relations
hypothesis on alpha/beta.  On top of this the module computes the stable
and regular submodules and the filtration

    D_{-1} = (1 - p^{-1} phi^{-1}) D + N(D^{phi=1}),
    D_0    = D,
    D_1    = D + D_st^{phi=1} ^ N^{-1}(D^{phi=p^{-1}}),

whose graded piece D_1/D_0 must come out one-dimensional with trivial
Frobenius eigenvalue in every regular case.

Distinct eigenvalues and N phi = p phi N, checked at construction, make
N a coordinate map: each f-basis vector goes onto a multiple of one other,
or to 0.  So every (phi, N)-stable space is a span of f-basis vectors.  It
is stored as the sorted tuple of its coordinates, and the filtration is
read off N's map.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from itertools import combinations
from typing import NamedTuple

from . import CASES
from .exactlin import rational
from .monomial import EigenMonomial, monomial_product  # noqa: F401 (phin re-exports both)

STEINBERG, CRYSTALLINE_SPLIT, CRYSTALLINE_NONSPLIT = CASES


class UnsupportedInputError(ValueError):
    """Input outside the standing hypotheses (e.g. repeated eigenvalues)."""


P_INVERSE = EigenMonomial.p_power(-1)


class PhiNModule:
    """Diagonal-Frobenius (phi, N)-module in the f-basis.

    Coordinates follow the descending index order f_n, ..., f_{-n}; the
    f-index i sits at coordinate n - i.  `phi[c]` is the eigenvalue of f at
    coordinate c, and `monodromy[c]` the coordinate N sends c onto, or None
    where N kills it.
    """

    __slots__ = ("case", "n", "phi", "monodromy", "l_invariant")

    def __init__(self, case: str, n: int, phi: tuple, monodromy: tuple, l_invariant=None):
        self.case, self.n, self.phi, self.monodromy = case, n, phi, monodromy
        self.l_invariant: Fraction | None = l_invariant
        # The standing hypotheses.  With distinct eigenvalues, N phi = p phi N
        # leaves no two coordinates with the same target.
        if len(set(phi)) != self.dim:
            raise UnsupportedInputError("repeated Frobenius eigenvalues")
        for col, row in enumerate(monodromy):
            if row is not None and not (0 <= row < col and phi[row] == P_INVERSE * phi[col]):
                raise UnsupportedInputError("monodromy must raise the f-index, N phi = p phi N")

    @property
    def dim(self) -> int:
        return 2 * self.n + 1

    def coordinate(self, f_index: int) -> int:
        if not -self.n <= f_index <= self.n:
            raise ValueError(f"f-index out of range: {f_index}")
        return self.n - f_index

    def f_index(self, coordinate: int) -> int:
        return self.n - coordinate

    def f_span(self, f_indices) -> tuple[int, ...]:
        return tuple(sorted(self.coordinate(i) for i in f_indices))

    def f_indices_of(self, span: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(sorted((self.f_index(c) for c in span), reverse=True))


def build_case(case: str, n: int, l_invariant=None, weight: int | None = None) -> PhiNModule:
    """Construct one of the three local module shapes for Sym^{2n}.

    steinberg needs a nonzero rational Fontaine-Mazur parameter (default 1);
    crystalline_split needs the motivic weight k >= 2 (default 2).
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if weight is not None and case != CRYSTALLINE_SPLIT:
        raise ValueError("weight only applies to the crystalline_split case")
    if l_invariant is not None and case != STEINBERG:
        raise ValueError("L-parameter only applies to the steinberg case")
    indices = range(n, -n - 1, -1)
    killed = (None,) * (2 * n + 1)
    if case == STEINBERG:
        l_value = rational(1 if l_invariant is None else l_invariant)
        if l_value == 0:
            raise ValueError("steinberg case requires a nonzero L-parameter")
        phi = tuple(EigenMonomial.p_power(-i) for i in indices)
        # N f_i = (n - i) f_{i+1}: coordinate c goes onto c - 1, f_n is killed
        return PhiNModule(case, n, phi, (None, *range(2 * n)), l_invariant=l_value)
    if case == CRYSTALLINE_SPLIT:
        k = 2 if weight is None else weight
        if k < 2:
            raise ValueError("weight must be at least 2")
        phi = tuple(EigenMonomial.from_dict({"alpha": 2 * i, "p": i * (k - 1)}) for i in indices)
        return PhiNModule(case, n, phi, killed)
    if case == CRYSTALLINE_NONSPLIT:
        return PhiNModule(case, n, tuple(EigenMonomial.symbol("r", i) for i in indices), killed)
    raise ValueError(f"unknown case {case!r}; expected one of {CASES}")


def canonical_regular_submodule(module: PhiNModule) -> tuple[int, ...]:
    """<f_n, ..., f_1>: the regular submodule every case singles out."""
    return module.f_span(range(1, module.n + 1))


def is_stable(module: PhiNModule, span: tuple[int, ...]) -> bool:
    """N-stability of a coordinate span; phi-stability is automatic."""
    members = {None, *span}
    return all(module.monodromy[c] in members for c in span)


def stable_submodules(module: PhiNModule) -> list[tuple[int, ...]]:
    """All (phi, N)-stable submodules, sorted by dimension.

    They are the coordinate sets closed under N's coordinate map.  N raises
    the f-index, so a column maps to an earlier coordinate: taking the
    columns in ascending order, a column extends exactly the closed sets
    built so far that hold its target.  A closed set is a sorted tuple, so
    whether it holds the target is one bisection.
    """
    closed: list[tuple[int, ...]] = [()]
    for col in range(module.dim):
        target = module.monodromy[col]
        closed += [s + (col,) for s in closed if target is None or _holds(s, target)]
    closed.sort(key=lambda s: (len(s), s))
    return closed


def _holds(span: tuple[int, ...], c: int) -> bool:
    i = bisect_left(span, c)
    return i < len(span) and span[i] == c


def regular_submodules(module: PhiNModule) -> list[tuple[int, ...]]:
    """Stable submodules D of dimension n with D ^ Fil^0 = 0, in closed form.

    D misses Fil^0 exactly when the Fil^0 rows, restricted to the n + 1
    coordinates outside D, are independent.  For Fil^0 as the module
    docstring fixes it this gives, per case:

    * steinberg: the tail <f_n..f_1>, the only stable n-set; outside it the
      row of (e2 - L e1)^n e1^a e2^(n-a) starts with 1 at e1-degree a, so
      the restriction is unitriangular for every L;
    * crystalline_split: the tail, since Fil^0 = <f_0..f_{-n}>;
    * crystalline_nonsplit: every coordinate n-set.  By e1-degree, row a is
      x^a (1+x)^n, and a minor of this banded Toeplitz matrix counts
      non-crossing lattice paths (Lindstrom-Gessel-Viennot), so it is
      positive exactly when its diagonal entries are: the matrix is almost
      strictly totally positive (Gasca-Micchelli-Pena 1992).  The e1-degrees
      c_0 < ... < c_n outside an n-set have a <= c_a <= a + n, so every
      diagonal entry C(n, c_a - a) is positive.

    The list is in the (len, positions) order of `stable_submodules`.
    """
    if module.case == CRYSTALLINE_NONSPLIT:
        return list(combinations(range(module.dim), module.n))
    return [canonical_regular_submodule(module)]


class BenoisFiltration(NamedTuple):
    d_minus1: tuple[int, ...]
    d_0: tuple[int, ...]
    d_1: tuple[int, ...]


def benois_filtration(module: PhiNModule, d: tuple[int, ...]) -> BenoisFiltration:
    """The three-step filtration attached to a stable submodule D.

    1 - p^{-1} phi^{-1} kills exactly the phi = p^{-1} line; N maps the
    phi = 1 line onto a phi = p^{-1} line or kills it.
    """
    if not is_stable(module, d):
        raise UnsupportedInputError("D must be phi- and N-stable")
    kept = {c for c in d if module.phi[c] != P_INVERSE}
    images = {module.monodromy[c] for c in d if module.phi[c].is_one()} - {None}
    members = {None, *d}
    lifted = {
        c for c in range(module.dim)
        if module.phi[c].is_one() and module.monodromy[c] in members
    }
    return BenoisFiltration(tuple(sorted(kept | images)), d, tuple(sorted(lifted.union(d))))


def gr1_data(module: PhiNModule, d: tuple[int, ...]) -> tuple[int, EigenMonomial | None]:
    """(dim D_1/D_0, Frobenius eigenvalue on the quotient line when rank 1)."""
    filtration = benois_filtration(module, d)
    new = set(filtration.d_1) - set(filtration.d_0)
    if len(new) != 1:
        return len(new), None
    (position,) = new
    return 1, module.phi[position]


#: largest n whose `--all-submodules` listing runs without monodromy: 2^(2n+1)
#: stable sets; one step past the cap costs over 200 MB
ALL_SUBMODULES_MAX_N = 8
#: largest n, and largest `--weight`, of any case (the module has 2n+1 eigenvalues,
#: and the split case's p-exponents grow with the weight), and largest n of the
#: steinberg listing, whose 2n+2 stable sets hold about n^2 coordinates; each
#: about 1 s and 90 MB at most (the cost table is in the README)
PHIN_MAX_N = 30000
PHIN_MAX_WEIGHT = 10**6
STEINBERG_ALL_SUBMODULES_MAX_N = 500


def _subspace_json(module, space) -> list[int]:
    return list(module.f_indices_of(space))


def _cmd_phin(args) -> tuple[dict, str | None, list | None]:
    from .cliargs import CliError, _cap, _monomial_json
    if args.all_submodules and args.case != STEINBERG and args.n > ALL_SUBMODULES_MAX_N:
        raise CliError(
            f"--all-submodules lists 2^(2n+1) sets in case {args.case}; "
            f"n > {ALL_SUBMODULES_MAX_N} is refused"
        )
    if args.all_submodules:
        _cap(args.n, STEINBERG_ALL_SUBMODULES_MAX_N, "phin --all-submodules --n")
    _cap(args.n, PHIN_MAX_N, "phin --n")
    if args.weight is not None:
        _cap(args.weight, PHIN_MAX_WEIGHT, "phin --weight")
    module = build_case(args.case, args.n, l_invariant=args.L, weight=args.weight)
    payload: dict = {
        "case": module.case,
        "n": module.n,
        "dim": module.dim,
        # Fil^0 is the multiples of a nonzero degree-n form, and multiplying
        # by it is injective on the n+1 monomials of degree n
        "fil0_dim": module.n + 1,
        "phi": [_monomial_json(lam) for lam in module.phi],
    }
    if module.l_invariant is not None:
        payload["L"] = str(module.l_invariant)
    if args.all_submodules:
        payload["stable_submodules"] = [
            _subspace_json(module, s) for s in stable_submodules(module)
        ]
        payload["regular_submodules"] = [
            _subspace_json(module, s) for s in regular_submodules(module)
        ]
    if args.benois or args.gr1:
        d = canonical_regular_submodule(module)
        payload["D"] = _subspace_json(module, d)
        if args.benois:
            filtration = benois_filtration(module, d)
            payload["benois"] = {
                "D_minus1": _subspace_json(module, filtration.d_minus1),
                "D_0": _subspace_json(module, filtration.d_0),
                "D_1": _subspace_json(module, filtration.d_1),
            }
        if args.gr1:
            rank, eigenvalue = gr1_data(module, d)
            payload["gr1"] = {
                "rank": rank,
                "eigenvalue": None if eigenvalue is None else _monomial_json(eigenvalue),
            }
    return payload, None, None
