"""The `Fraction` reader of exact scalars that `linvariants.ratio` replaced, kept as a test oracle.

`linvariants.ratio` reads a JSON int and a plain `a` or `a/b` text in
integers and hands every other value to `exactlin._fraction`; where `src/`
needs a `Fraction` it writes `Fraction(*ratio(value))`.  `fraction_rational`
and `fraction_vector` below are the readers as they were before: every value
through `Fraction`, with the digit guard of a regular-expression search
for one run past Python's int digit limit.  They share no code with `src/`,
so `tests/test_scalar_reader.py` compares the two on every spelling, and
the test oracles (`kernel_oracles`, `linalg_oracle`, `linv_oracle`,
`phin_oracle`, `paper_displays` and the fuzz test) read their scalars with
them, not with the reader they check.
"""

import re
import sys
from fractions import Fraction

#: largest |e| of a decimal string 'xEe', the cap of `exactlin.MAX_DECIMAL_EXPONENT`
MAX_DECIMAL_EXPONENT = 10**4


def fraction_rational(value) -> Fraction:
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


def fraction_vector(values) -> tuple[Fraction, ...]:
    """The exact scalars of a sequence; a str or a dict, iterable as it is, is refused."""
    if isinstance(values, (str, dict)):
        raise TypeError(f"not a sequence of exact scalars: {values!r}")
    return tuple(fraction_rational(v) for v in values)
