"""Exact scalars and vectors over Q.

Everything is computed with `fractions.Fraction`, so results are exact.
The one elimination, fraction-free on integer rows, lives in `sl2rep`
beside its one caller; the tests' `Fraction` row reduction, `rref`, runs
through it from `tests/linalg_oracle.py`.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from typing import Iterable

Vector = tuple[Fraction, ...]


class DimensionMismatchError(ValueError):
    """Operands live in different ambient dimensions."""


#: largest |e| of a decimal string 'xEe' (10^e has 33k bits at the cap);
#: Fraction('1e100000000') would build 10^(10^8), which takes minutes
MAX_DECIMAL_EXPONENT = 10**4


def rational(value) -> Fraction:
    """Coerce ints, strings like '3/4' or '1.5e-3' and Fractions to Fraction.

    bool is refused although it is an int: a JSON true is not a scalar.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        # Python reads no int of more digits: reading one takes quadratic time
        limit = sys.get_int_max_str_digits()
        if len(value) > limit > 0 and re.search(r"\d{%d}" % (limit + 1), value.replace("_", "")):
            raise ValueError(f"{value[:20]}... holds an int past Python's limit of {limit} digits")
        digits = value.upper().partition("E")[2].strip().lstrip("+-").replace("_", "")
        if digits.isdigit() and int(digits) > MAX_DECIMAL_EXPONENT:
            raise ValueError(f"decimal exponent over {MAX_DECIMAL_EXPONENT} in {value!r}")
        try:
            return Fraction(value)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {value!r}") from None
    raise TypeError(f"not an exact scalar: {value!r}")


def vector(values: Iterable) -> Vector:
    """The exact scalars of a sequence; a str or a dict, iterable as it is, is refused."""
    if isinstance(values, (str, dict)):
        raise TypeError(f"not a sequence of exact scalars: {values!r}")
    return tuple(rational(v) for v in values)
