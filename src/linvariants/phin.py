"""Filtered (phi, N)-modules for twisted symmetric powers, locally at p, in closed form.

The module D_st of Sym^{2n} of a two-dimensional representation, twisted so
the determinant is trivial, has basis f_i = e1^(n+i) e2^(n-i) for
i = n, n-1, ..., -n; a subspace spanned by f-basis vectors is printed as
its f-indices in that descending order.  Three local shapes occur:

* steinberg: phi(f_i) = p^{-i}, monodromy N f_i = (n-i) f_{i+1} (the
  derivation extending N e2 = e1);
* crystalline_split (ordinary): phi(f_i) = alpha^{2i} p^{i(k-1)} with
  v_p(alpha) = 0, N = 0;
* crystalline_nonsplit: phi(f_i) = r^i for the formal eigenvalue ratio
  r = alpha/beta, N = 0.

Fil^0 is fixed by (case, n, L): it is the (n+1)-dimensional space of
degree-2n polynomials divisible by (c1 e1 + c2 e2)^n, with root
(c1, c2) = (-L, 1) for steinberg, (0, 1) for crystalline_split (so
Fil^0 = <f_0, ..., f_{-n}>) and (1, 1) for crystalline_nonsplit.

The eigenvalues are distinct monomials in free symbols, so N is a
coordinate map and every (phi, N)-stable space is a span of f-basis
vectors.  The paper's local analysis then fixes every answer (the README's
conventions give the proofs):

* stable submodules: the 2n+2 tails <f_n..f_j> of the steinberg chain,
  and all 2^(2n+1) coordinate sets when N = 0;
* regular submodules (stable, of dimension n, D ^ Fil^0 = 0): the tail
  <f_n..f_1> for steinberg (for every L, the Fil^0 rows outside it are
  unitriangular) and crystalline_split (Fil^0 = <f_0..f_{-n}>), and every
  coordinate n-set for crystalline_nonsplit, whose Fil^0 rows x^a (1+x)^n
  form an almost strictly totally positive matrix;
* Benois's filtration of D = <f_n..f_1> (A generalization of Greenberg's
  L-invariant, AJM 2011),

      D_{-1} = (1 - p^{-1} phi^{-1}) D + N(D^{phi=1}),
      D_0    = D,
      D_1    = D + D_st^{phi=1} ^ N^{-1}(D^{phi=p^{-1}}).

  Only f_0 has phi = 1, and it lies outside D; f_1 is the phi = p^{-1}
  line for steinberg only.  So D_{-1} = <f_n..f_2> for steinberg and D
  otherwise, D_1 = <f_n..f_0>, and gr_1 is the line of f_0: rank 1 with
  trivial Frobenius.

The (phi, N)-module search these closed forms replace is the test oracle
`tests/phin_oracle.py`.
"""

import sys
from itertools import combinations
from math import gcd

from . import CASES

STEINBERG, CRYSTALLINE_SPLIT, CRYSTALLINE_NONSPLIT = CASES

#: largest n whose `--all-submodules` listing runs without monodromy: 2^(2n+1)
#: stable sets; one step past the cap takes about 100 MB
ALL_SUBMODULES_MAX_N = 8
#: largest n, and largest `--weight`, of any case (the module has 2n+1 eigenvalues,
#: and the split case's p-exponents grow with the weight), and largest n of the
#: steinberg listing, whose 2n+2 stable sets hold about n^2 coordinates; each
#: under 1 s and 50 MB (the cost table is in the README)
PHIN_MAX_N = 30000
PHIN_MAX_WEIGHT = 10**6
STEINBERG_ALL_SUBMODULES_MAX_N = 500


def _l_text(text: str) -> str:
    """str(exactlin.rational(text)), refused if 0; a plain a or a/b is read in integers."""
    num, slash, den = text.strip().partition("/")
    digits = num[1:] if num[:1] in ("+", "-") else num
    if (digits.isdecimal() and (den.isdecimal() or not slash)
            and len(text) <= sys.get_int_max_str_digits() and int(den or 1)):
        a, b = int(num), int(den or 1)
        g = gcd(a, b)
        value = str(a // g) if b == g else f"{a // g}/{b // g}"
    else:  # a decimal point, an exponent, underscores, a zero denominator or no number
        from .exactlin import rational
        value = str(rational(text))
    if value == "0":
        raise ValueError("steinberg case requires a nonzero L-parameter")
    return value


def _cmd_phin(args) -> tuple[dict, str | None, list | None]:
    from .cliargs import CliError, _cap
    case, n = args.case, args.n
    if args.all_submodules and case != STEINBERG and n > ALL_SUBMODULES_MAX_N:
        raise CliError(
            f"--all-submodules lists 2^(2n+1) sets in case {case}; "
            f"n > {ALL_SUBMODULES_MAX_N} is refused"
        )
    if args.all_submodules:
        _cap(n, STEINBERG_ALL_SUBMODULES_MAX_N, "phin --all-submodules --n")
    _cap(n, PHIN_MAX_N, "phin --n")
    if args.weight is not None:
        _cap(args.weight, PHIN_MAX_WEIGHT, "phin --weight")
    if n < 1:
        raise ValueError("n must be at least 1")
    if args.weight is not None and case != CRYSTALLINE_SPLIT:
        raise ValueError("weight only applies to the crystalline_split case")
    if args.L is not None and case != STEINBERG:
        raise ValueError("L-parameter only applies to the steinberg case")
    f = range(n, -n - 1, -1)
    payload: dict = {"case": case, "n": n, "dim": 2 * n + 1, "fil0_dim": n + 1}
    # phi(f_i) as {symbol: exponent}; f_0, at position n, has eigenvalue 1
    if case == STEINBERG:
        payload["L"] = "1" if args.L is None else _l_text(args.L)
        phi = [{"p": str(-i)} for i in f]
    elif case == CRYSTALLINE_SPLIT:
        k = 2 if args.weight is None else args.weight
        if k < 2:
            raise ValueError("weight must be at least 2")
        phi = [{"alpha": str(2 * i), "p": str(i * (k - 1))} for i in f]
    else:
        phi = [{"r": str(i)} for i in f]
    phi[n] = {}
    payload["phi"] = phi
    d = list(range(n, 0, -1))
    if args.all_submodules:
        if case == STEINBERG:
            payload["stable_submodules"] = [list(range(n, j, -1)) for j in range(n, -n - 2, -1)]
        else:
            payload["stable_submodules"] = [s for r in range(2 * n + 2) for s in combinations(f, r)]
        payload["regular_submodules"] = (
            list(combinations(f, n)) if case == CRYSTALLINE_NONSPLIT else [d])
    if args.benois or args.gr1:
        payload["D"] = d
        if args.benois:
            d_minus1 = d[:-1] if case == STEINBERG else d
            payload["benois"] = {"D_minus1": d_minus1, "D_0": d, "D_1": [*d, 0]}
        if args.gr1:
            payload["gr1"] = {"rank": 1, "eigenvalue": {}}
    return payload, None, None
