"""Exact computation of arithmetic L-invariants for twisted symmetric powers.

Submodules:

* exactlin  -- what `ratio` reads through `Fraction`, with its refusals
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
* jsonargs  -- the CLI's JSON argument readers, plain JSON read without `json`

`linvariants.<name>` imports a submodule on first use.  The registries
live here so that the CLI's parser reads them without importing the maths,
and so do `ratio`, the one reader of exact scalars, `ratios`, the one printer
`ratio_text` and the digit guard `_digit_limit`, which every request that
reads a scalar needs: `ratio` imports `exactlin` only for a value it does
not read in integers.  So does what the handlers share with `cli`, even
run as `__main__`: `CliError`, `_int`, `_cap` and `_json_text`, the one
`json.dumps`, for the answers that hold a string from outside.
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


class CliError(Exception):
    """A refused request; `error` is the JSON object printed for it."""

    def __init__(self, message: str, exit_code: int = 2, **fields):
        super().__init__(message)
        self.exit_code = exit_code
        self.error = {"code": "input", **fields, "message": message}


def _int(text: str, label: str) -> int:
    """int(text); a digit run past Python's limit is refused by name, other ValueErrors pass."""
    if limit := _digit_limit(text):
        raise CliError(f"{label} {text[:20]}... holds an int past Python's limit of {limit} digits")
    return int(text)


def _cap(value: int, cap: int, what: str) -> None:
    if value > cap:
        raise CliError(f"{what} > {cap} is refused")


def _json_text(tree) -> str:
    """`tree` as compact, key-sorted JSON text: the answers that hold a string from outside,
    `recover-chi`'s symbols and a refusal's message, which need `json` to escape them."""
    import json
    return json.dumps(tree, sort_keys=True, separators=(",", ":"))


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
