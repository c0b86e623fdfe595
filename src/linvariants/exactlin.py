"""What `linvariants.ratio` reads through `fractions.Fraction`.

`ratio` reads a JSON int and a plain `a` or `a/b` text in integers and
hands every other value to `_fraction` here, which keeps every refusal of
the `Fraction` reader it replaced, the test oracle `tests/scalar_oracle.py`.
A caller that needs a `Fraction` writes `Fraction(*ratio(value))`.
"""

from fractions import Fraction

from . import _digit_limit

#: largest |e| of a decimal string 'xEe' (10^e has 33k bits at the cap);
#: Fraction('1e100000000') would build 10^(10^8), which takes minutes
MAX_DECIMAL_EXPONENT = 10**4


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
