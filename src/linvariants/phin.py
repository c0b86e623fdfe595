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

The handler writes its answer as compact JSON text, keys in `sort_keys`
order, with each coordinate set the join of the coordinates' decimal
strings, so a `phin` request imports no `json`.  The (phi, N)-module search
these closed forms replace is the test oracle `tests/phin_oracle.py`.
"""

from itertools import chain, combinations

from . import CASES, ratio, ratio_text

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
    value = ratio(text)
    if value[0] == 0:
        raise ValueError("steinberg case requires a nonzero L-parameter")
    return ratio_text(value)


def _cmd_phin(args) -> tuple[str, None, None]:
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
    fs = [str(i) for i in f]
    # phi(f_i) as {symbol: exponent}; f_0, at position n, has eigenvalue 1
    if case == STEINBERG:
        l_value = "1" if args.L is None else _l_text(args.L)
        phi = ['{"p":"%d"}' % -i for i in f]
    elif case == CRYSTALLINE_SPLIT:
        k = 2 if args.weight is None else args.weight
        if k < 2:
            raise ValueError("weight must be at least 2")
        phi = ['{"alpha":"%d","p":"%d"}' % (2 * i, i * (k - 1)) for i in f]
    else:
        phi = ['{"r":"%s"}' % i for i in fs]
    phi[n] = "{}"
    # the keys in `sort_keys` order; a coordinate set is the join of its decimal strings
    d = ",".join(fs[:n])
    parts = []
    if args.benois or args.gr1:
        parts.append(f'"D":[{d}]')
    if case == STEINBERG:
        parts.append(f'"L":"{l_value}"')
    if args.benois:
        d_minus1 = ",".join(fs[:n - 1]) if case == STEINBERG else d
        parts.append(f'"benois":{{"D_0":[{d}],"D_1":[{d},0],"D_minus1":[{d_minus1}]}}')
    parts.append(f'"case":"{case}","dim":{2 * n + 1},"fil0_dim":{n + 1}')
    if args.gr1:
        parts.append('"gr1":{"eigenvalue":{},"rank":1}')
    parts.append('"n":%d,"phi":[%s]' % (n, ",".join(phi)))
    if args.all_submodules:
        if case == STEINBERG:
            stable = [",".join(fs[:j]) for j in range(2 * n + 2)]
        else:
            sets = chain.from_iterable(combinations(fs, r) for r in range(2 * n + 2))
            stable = map(",".join, sets)
        regular = map(",".join, combinations(fs, n)) if case == CRYSTALLINE_NONSPLIT else [d]
        parts.append('"regular_submodules":[[%s]]' % "],[".join(regular))
        parts.append('"stable_submodules":[[%s]]' % "],[".join(stable))
    return "{%s}" % ",".join(parts), None, None
