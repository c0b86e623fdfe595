"""`linv` in integers against the `Fraction` evaluation it replaced.

`linv.per_place_pairs` and `rank1_combine` compute on reduced integer
pairs; `tests/linv_oracle.py` computes the same pairs and product one
`Fraction` operation at a time, from the graded pieces with their halves.
Every family and every `--compare-theorem` row is drawn, with gradients
and directions of short and long denominators mixed, zero gradients (so
a_v = 0) and both signs of b_v; the request's printed line must be the
`str(Fraction)` text of the oracle's values.
"""

import contextlib
import io
import json
import sys
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from linvariants import THEOREMS
from linvariants.cli import main
from linvariants import ratio
from linvariants.linv import (
    Direction,
    SingularDirectionError,
    family_data,
    per_place_pairs,
    rank1_combine,
    theorem_row,
)
from linv_oracle import fraction_per_place_pairs, fraction_product

#: a scalar as a request spells it: an int, or a/b with a short or a long denominator
scalars = st.one_of(
    st.integers(-9, 9),
    st.builds(lambda a, b: f"{a}/{b}", st.integers(-99, 99), st.integers(1, 12)),
    st.builds(lambda a, b: f"{a}/{b}", st.integers(-10**40, 10**40), st.integers(1, 10**40)),
)


@st.composite
def requests(draw):
    """(family, rank, theorem, u, u0, assignments) of a `linv` request."""
    family = draw(st.sampled_from(["hilbert", "gsp4_spin", "gsp_std", "unitary"]))
    theorems = [None, *(t for t, (f, _, _) in THEOREMS.items() if f == family)]
    theorem = draw(st.sampled_from(theorems))
    rank = {"gsp_std": draw(st.integers(2, 5)), "unitary": draw(st.integers(1, 2))}.get(family)
    symbols = {"hilbert": 1, "gsp4_spin": 2, "gsp_std": rank, "unitary": 4 * (rank or 0)}[family]
    places = draw(st.integers(1, 3))
    dims = places if family == "hilbert" else {"gsp4_spin": 2}.get(family, symbols)
    zero = draw(st.booleans())  # every gradient of place 0 zero: a_0 = 0
    assignments = [[0 if zero and v == 0 else draw(scalars) for _ in range(symbols)]
                   for v in range(places)]
    u = [draw(scalars) for _ in range(dims)]
    return family, rank, theorem, u, draw(scalars), assignments


def library_pairs(family, rank, theorem, u, u0, assignments):
    data = family_data(family, g=rank, n=rank)
    if theorem:
        data = theorem_row(theorem, data)
    read = [[ratio(x) for x in a] for a in assignments]
    try:
        pairs = per_place_pairs(data, Direction.make(u, u0), read)
    except SingularDirectionError as err:
        return ("singular", err.place), None
    return [(Fraction(*a), Fraction(*b)) for a, b in pairs], Fraction(*rank1_combine(pairs))


@settings(max_examples=400, deadline=None)
@given(requests())
# b_v of both signs (a hilbert b_v is -u_v), a_v = 0, and long and short denominators mixed
@example(("hilbert", None, "A", ["-3/2", 4], 7, [["2/3"], [0]]))
@example(("gsp4_spin", None, "B", ["1/3", "-5/12345678901234567890123"], "7/2", [["1/2", 3]]))
@example(("gsp_std", 3, "C", [1, "2/3", -4], "-1/5", [[1, 2, 3], [0, 0, 0]]))
@example(("unitary", 1, "D2", ["1/2", 3, -5, 7], 0, [["1/9", 0, 2, "-3/7"]]))
def test_per_place_pairs_and_product_are_the_fraction_evaluation(request):
    pairs, product = library_pairs(*request)
    expected = fraction_per_place_pairs(*request)
    assert pairs == expected
    if product is not None:
        assert product == fraction_product(expected)


@settings(max_examples=150, deadline=None)
@given(requests())
def test_the_request_prints_the_fraction_text(request):
    family, rank, theorem, u, u0, assignments = request
    doc = {"params": {"g": rank, "n": rank} if rank else {}, "direction": {"u": u, "u0": u0},
           "places": [{"gradients": {f"a_{j}": x for j, x in enumerate(a, 1)}}
                      for a in assignments]}
    argv = ["linv", "--family", family, "--input", "-",
            *(["--compare-theorem", theorem] if theorem else [])]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        stdin, sys.stdin = sys.stdin, io.TextIOWrapper(io.BytesIO(json.dumps(doc).encode()))
        try:
            code = main(argv)
        finally:
            sys.stdin = stdin
    expected = fraction_per_place_pairs(family, rank, theorem, u, u0, assignments)
    if isinstance(expected, tuple):
        assert code == 3 and json.loads(out.getvalue())["error"]["place"] == expected[1]
        return
    text = '"per_place":[%s],"value":"%s"}' % (
        ",".join('{"a":"%s","b":"%s","value":"%s"}' % (a, b, a / b) for a, b in expected),
        fraction_product(expected))
    if theorem:
        kind, scalar = {1: "exact", -1: "sign_flip"}[THEOREMS[theorem][2]], THEOREMS[theorem][2]
        text = '"classification":{"kind":"%s","scalar":"%s"},' % (kind, scalar) + text
    assert code == 0
    assert out.getvalue() == "{" + text + "\n"
