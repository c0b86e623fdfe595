"""Exact scalars and vectors over Q as `fractions.Fraction`s.

`rational` and `vector` are the `Fraction` front of `linvariants.ratio`, the one
reader of exact scalars, and `_fraction` reads for it what it does not read
in integers.  The eliminations are in `sl2rep` and `tests/linalg_oracle.py`.
"""

from fractions import Fraction
from typing import Iterable

from . import _digit_limit, ratio, ratios

Vector = tuple[Fraction, ...]


class DimensionMismatchError(ValueError):
    """Operands live in different ambient dimensions."""


#: largest |e| of a decimal string 'xEe' (10^e has 33k bits at the cap);
#: Fraction('1e100000000') would build 10^(10^8), which takes minutes
MAX_DECIMAL_EXPONENT = 10**4


def rational(value) -> Fraction:
    """A Fraction as it is; an int or a text like '3/4' or '1.5e-3' as `linvariants.ratio` reads it."""
    if isinstance(value, Fraction):
        return value
    return Fraction(*ratio(value))


def vector(values: Iterable) -> Vector:
    """The exact scalars of a sequence; a str or a dict, iterable as it is, is refused."""
    return tuple(Fraction(*pair) for pair in ratios(values))


def _fraction(value) -> Fraction:
    """A Fraction, an int or a string that `linvariants.ratio` does not read in integers;
    bool is refused although it is an int: a JSON true is not a scalar."""
    if isinstance(value, Fraction) or isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        # Python reads no int of more digits: reading one takes quadratic time
        if limit := _digit_limit(value):
            raise ValueError(f"{value[:20]}... holds an int past Python's limit of {limit} digits")
        digits = value.upper().partition("E")[2].strip().lstrip("+-").replace("_", "")
        if digits.isdigit() and int(digits) > MAX_DECIMAL_EXPONENT:
            raise ValueError(f"decimal exponent over {MAX_DECIMAL_EXPONENT} in {value!r}")
        try:
            return Fraction(value)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {value!r}") from None
    raise TypeError(f"not an exact scalar: {value!r}")
