"""Exact computation of arithmetic L-invariants for twisted symmetric powers.

Submodules:

* exactlin  -- the `Fraction` front of `ratio`, and what `ratio` reads through `Fraction`
* sl2rep    -- the sl(2) action on End(Sym^n V), weight-graded brute-force oracle
  with its fraction-free block inverse
* plethysm  -- the inverse Clebsch-Gordan table with its weight-triple check,
  the B_{n,k,i} rows and the diagonal projection
* phin      -- the (phi,N)-module answers in closed form: stable and regular
  submodules, the 3-step filtration, the rank-1 graded piece
* weylhecke -- GSp(2g) Weyl combinatorics, Hecke eigenvalues as exponent
  maps of Laurent monomials, character recovery
* slopes    -- slope bounds, the twist search and the obstruction orders
* linv      -- triangulation rows, one pair of linear forms per place
* cli       -- JSON/CSV command-line interface; each subcommand's handler
  lives in its maths module above
* cliargs   -- the CLI's refusal and integer argument reader
* jsonargs  -- the CLI's JSON argument readers, plain JSON read without `json`

`linvariants.<name>` imports a submodule on first use.  The registries
live here so that the CLI's parser reads them without importing the maths,
and so do `ratio`, the one reader of exact scalars, `ratios`, the one printer
`ratio_text` and the digit guard `_digit_limit`, which every request that
reads a scalar needs: `ratio` imports `exactlin` only for a value it does
not read in integers.
"""

import importlib
import re
import sys
from math import gcd

__all__ = [
    "exactlin",
    "sl2rep",
    "plethysm",
    "phin",
    "weylhecke",
    "slopes",
    "linv",
    "cli",
    "cliargs",
    "jsonargs",
]

__version__ = "0.1.0"

#: the local shapes of `phin`
CASES = ("steinberg", "crystalline_split", "crystalline_nonsplit")
#: the triangulated families of `linv`
FAMILIES = ("hilbert", "gsp4_spin", "gsp_std", "unitary")
#: theorem -> (family, B-row rule, scalar).  The rule maps the family's row
#: (n, k) to the theorem's when the theorem does not use the family's own
#: row.  The scalar is the displayed closed form over the generic formula,
#: the same at every rank: 1 prints `exact` and -1 `sign_flip`
#: (tests/test_theorem_proof.py proves each one)
THEOREMS = {
    "A": ("hilbert", None, 1),
    "B": ("gsp4_spin", None, -1),
    "C": ("gsp_std", None, 1),
    "D1": ("unitary", None, -1),
    "D2": ("unitary", lambda n, k: (n, n - 2), -1),
}


def _digit_limit(text: str) -> int:
    """Python's int digit limit if `text` is longer and holds a longer run of digits
    (underscores join runs, as in an int literal), else 0: one linear scan."""
    limit = sys.get_int_max_str_digits()
    runs = len(text) > limit > 0 and re.findall(r"\d+", text.replace("_", ""))
    return limit if runs and max(map(len, runs)) > limit else 0


def ratio(value) -> tuple[int, int]:
    """(num, den > 0), reduced, of an exact scalar: a JSON int and a plain `a` or `a/b`
    text (a sign or none, digit runs within Python's limit, a nonzero b, space around it)
    in integers, any other value through `exactlin._fraction`, which keeps every refusal."""
    if type(value) is int:
        return value, 1
    if isinstance(value, str):
        num, slash, den = value.strip().partition("/")
        digits = num[1:] if num[:1] in ("+", "-") else num
        if (digits.isdecimal() and (den.isdecimal() or not slash)
                and max(len(digits), len(den)) <= sys.get_int_max_str_digits() and int(den or 1)):
            num, den = int(num), int(den or 1)
            common = gcd(num, den)
            return num // common, den // common
    from .exactlin import _fraction
    value = _fraction(value)
    return value.numerator, value.denominator


def ratios(values) -> list[tuple[int, int]]:
    """`ratio` of each of `values`; a str or a dict, iterable as it is, is refused."""
    if isinstance(values, (str, dict)):
        raise TypeError(f"not a sequence of exact scalars: {values!r}")
    return [ratio(value) for value in values]


def ratio_text(x: tuple[int, int]) -> str:
    """A reduced pair (num, den > 0) as `str(Fraction)` writes it: "num" or "num/den"."""
    return str(x[0]) if x[1] == 1 else "%d/%d" % x


def __getattr__(name: str):
    if name in __all__:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
