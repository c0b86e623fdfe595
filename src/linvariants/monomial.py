"""The free multiplicative monomial group of the Hecke eigenvalues.

`weylhecke` builds on it; `phin` prints its closed forms without it, and the
(phi, N)-module search that checks them (`tests/phin_oracle.py`) writes its
Frobenius eigenvalues in it.
"""

from .exactlin import rational


class EigenMonomial:
    """Laurent monomial in formal symbols with exact rational exponents.

    Two monomials are equal iff their exponent maps are equal: the symbols
    satisfy no hidden multiplicative relations.  `exponents` is the one
    canonical form of that map, the tuple of (symbol, Fraction) pairs with
    nonzero exponents, sorted by symbol.
    """

    __slots__ = ("exponents",)

    def __init__(self, exponents: tuple = ()):
        self.exponents = exponents

    def __eq__(self, other) -> bool:
        return isinstance(other, EigenMonomial) and self.exponents == other.exponents

    def __hash__(self) -> int:
        return hash(self.exponents)

    @classmethod
    def from_dict(cls, exps: dict) -> "EigenMonomial":
        items = [(sym, rational(e)) for sym, e in exps.items()]
        return cls(tuple(sorted(item for item in items if item[1])))

    @classmethod
    def symbol(cls, name: str, exponent=1) -> "EigenMonomial":
        return cls.from_dict({name: rational(exponent)})

    @classmethod
    def p_power(cls, exponent) -> "EigenMonomial":
        return cls.symbol("p", exponent)

    def __mul__(self, other: "EigenMonomial") -> "EigenMonomial":
        return monomial_product((self, other))

    def __pow__(self, e) -> "EigenMonomial":
        e = rational(e)
        return EigenMonomial.from_dict({s: x * e for s, x in self.exponents})

    def inverse(self) -> "EigenMonomial":
        return self ** -1

    def __truediv__(self, other: "EigenMonomial") -> "EigenMonomial":
        return self * other.inverse()

    def __repr__(self) -> str:
        if not self.exponents:
            return "1"
        return "*".join(f"{s}^{e}" for s, e in self.exponents)


def monomial_product(factors) -> EigenMonomial:
    """The product of `factors`, summed into one exponent map."""
    exps: dict = {}
    for factor in factors:
        for sym, e in factor.exponents:
            exps[sym] = exps[sym] + e if sym in exps else e
    return EigenMonomial.from_dict(exps)
