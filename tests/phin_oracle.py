"""The (phi, N)-module search: the test oracle of `phin`'s closed forms.

`phin` prints the paper's closed forms for the three local shapes of
Sym^{2n} at p.  This module derives the same answers from the module
itself, as the library once did.

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

Frobenius eigenvalues live in a free multiplicative monomial group
(`kernel_oracles.Monomial`): equality against 1 or p^{-1} is exponent comparison,
which is exactly the strength of the standing no-multiplicative-relations
hypothesis on alpha/beta.  On top of this the oracle computes the stable
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
read off N's map.  `phin_answer` assembles the JSON value of a `phin`
request from these pieces; the dense linear algebra in `linalg_oracle`
checks the pieces in turn.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from itertools import combinations
from typing import NamedTuple

from linvariants import CASES
from kernel_oracles import Monomial
from scalar_oracle import fraction_rational

STEINBERG, CRYSTALLINE_SPLIT, CRYSTALLINE_NONSPLIT = CASES


class UnsupportedInputError(ValueError):
    """Input outside the standing hypotheses (e.g. repeated eigenvalues)."""


ONE = Monomial()
P_INVERSE = Monomial((("p", -1),))


class PhiNModule:
    """Diagonal-Frobenius (phi, N)-module in the f-basis.

    Coordinates follow the descending index order f_n, ..., f_{-n}; the
    f-index i sits at coordinate n - i.  `phi[c]` is the eigenvalue of f at
    coordinate c, and `monodromy[c]` the coordinate N sends c onto, or None
    where N kills it.  `line_of` maps each eigenvalue to the one coordinate
    where phi takes it.
    """

    __slots__ = ("case", "n", "phi", "monodromy", "l_invariant", "line_of")

    def __init__(self, case: str, n: int, phi: tuple, monodromy: tuple, l_invariant=None):
        self.case, self.n, self.phi, self.monodromy = case, n, phi, monodromy
        self.l_invariant: Fraction | None = l_invariant
        # The standing hypotheses.  With distinct eigenvalues, N phi = p phi N
        # leaves no two coordinates with the same target.
        self.line_of = {lam: c for c, lam in enumerate(phi)}
        if len(self.line_of) != self.dim:
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

    def f_span(self, f_indices) -> tuple[int, ...]:
        return tuple(sorted(self.coordinate(i) for i in f_indices))

    def f_indices_of(self, span: tuple[int, ...]) -> list[int]:
        """The f-indices of a sorted span, descending: coordinate c holds f_{n-c}."""
        n = self.n
        return [n - c for c in span]


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
    # each eigenvalue is built in the canonical form of `Monomial`, with int exponents
    indices = range(n, -n - 1, -1)
    killed = (None,) * (2 * n + 1)
    if case == STEINBERG:
        l_value = fraction_rational(1 if l_invariant is None else l_invariant)
        if l_value == 0:
            raise ValueError("steinberg case requires a nonzero L-parameter")
        phi = tuple(Monomial((("p", -i),) if i else ()) for i in indices)
        # N f_i = (n - i) f_{i+1}: coordinate c goes onto c - 1, f_n is killed
        return PhiNModule(case, n, phi, (None, *range(2 * n)), l_invariant=l_value)
    if case == CRYSTALLINE_SPLIT:
        k = 2 if weight is None else weight
        if k < 2:
            raise ValueError("weight must be at least 2")
        phi = tuple(Monomial((("alpha", 2 * i), ("p", i * (k - 1))) if i else ()) for i in indices)
        return PhiNModule(case, n, phi, killed)
    if case == CRYSTALLINE_NONSPLIT:
        return PhiNModule(case, n, tuple(Monomial((("r", i),) if i else ()) for i in indices), killed)
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
    """Stable submodules D of dimension n with D ^ Fil^0 = 0, per case.

    The README's conventions prove the answer for the Fil^0 of each case;
    the tests check it against one rank test per stable n-set
    (`linalg_oracle.regular_by_rank`).  The list is in the (len, positions)
    order of `stable_submodules`.
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
    phi = 1 line onto a phi = p^{-1} line or kills it.  The eigenvalues are
    distinct, so each of those lines is one coordinate or none.
    """
    if not is_stable(module, d):
        raise UnsupportedInputError("D must be phi- and N-stable")
    ones = {module.line_of[ONE]} if ONE in module.line_of else set()
    kept = set(d) - {module.line_of.get(P_INVERSE)}
    images = {module.monodromy[c] for c in ones.intersection(d)} - {None}
    members = {None, *d}
    lifted = {c for c in ones if module.monodromy[c] in members}
    return BenoisFiltration(tuple(sorted(kept | images)), d, tuple(sorted(lifted.union(d))))


def gr1_data(module: PhiNModule, d: tuple[int, ...]) -> tuple[int, Monomial | None]:
    """(dim D_1/D_0, Frobenius eigenvalue on the quotient line when rank 1)."""
    filtration = benois_filtration(module, d)
    new = set(filtration.d_1) - set(filtration.d_0)
    if len(new) != 1:
        return len(new), None
    (position,) = new
    return 1, module.phi[position]


def phin_answer(args) -> dict:
    """The JSON value of a `phin` request whose caps `args` passes, by the search.

    `args` holds the parsed options (`case`, `n`, `L`, `weight`,
    `all_submodules`, `benois`, `gr1`); a refused request raises what
    `build_case` raises.
    """
    module = build_case(args.case, args.n, l_invariant=args.L, weight=args.weight)
    f_indices = module.f_indices_of
    answer: dict = {
        "case": module.case,
        "n": module.n,
        "dim": module.dim,
        "fil0_dim": module.n + 1,
        "phi": [lam.to_json() for lam in module.phi],
    }
    if module.l_invariant is not None:
        answer["L"] = str(module.l_invariant)
    if args.all_submodules:
        answer["stable_submodules"] = [f_indices(s) for s in stable_submodules(module)]
        answer["regular_submodules"] = [f_indices(s) for s in regular_submodules(module)]
    if args.benois or args.gr1:
        d = canonical_regular_submodule(module)
        answer["D"] = f_indices(d)
        if args.benois:
            filtration = benois_filtration(module, d)
            answer["benois"] = {
                "D_minus1": f_indices(filtration.d_minus1),
                "D_0": f_indices(filtration.d_0),
                "D_1": f_indices(filtration.d_1),
            }
        if args.gr1:
            rank, eigenvalue = gr1_data(module, d)
            answer["gr1"] = {
                "rank": rank,
                "eigenvalue": None if eigenvalue is None else eigenvalue.to_json(),
            }
    return answer
