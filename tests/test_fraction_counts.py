"""The integer kernels build no `Fraction` per entry.

The table commands print from integer kernels: each request runs through
`main()` twice, at a small size and at a large one, while every `Fraction`
construction is counted.  A few come from reading the input (a torus
exponent, the generic characters), so the count may grow with the rank, but
not with the number of printed entries: a handler that built one `Fraction`
per entry adds as many as it prints.

The brute-force oracle builds its weight blocks, eliminates them and keeps
their inverses in integers, over one denominator per block; a coordinate
becomes a `Fraction` once, after the integer dot product.
"""

import io
import json
from contextlib import contextmanager, redirect_stdout
from fractions import Fraction

import pytest

from linvariants import sl2rep
from linvariants.cli import main


@contextmanager
def counting_fractions(monkeypatch):
    """Yield a one-item list that counts the `Fraction`s constructed inside."""
    count = [0]
    original = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        count[0] += 1
        return original(cls, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(Fraction, "__new__", counting_new)
        # Python 3.12 builds arithmetic results past __new__
        if hasattr(Fraction, "_from_coprime_ints"):
            from_ints = Fraction._from_coprime_ints.__func__

            def counting_from_ints(cls, *args):
                count[0] += 1
                return from_ints(cls, *args)

            patch.setattr(Fraction, "_from_coprime_ints", classmethod(counting_from_ints))
        yield count


def counted_run(monkeypatch, argv) -> tuple[int, dict]:
    """(Fractions constructed, the JSON payload) of one request."""
    out = io.StringIO()
    with counting_fractions(monkeypatch) as count, redirect_stdout(out):
        assert main(list(argv)) == 0
    return count[0], json.loads(out.getvalue())


def hecke_all(g):
    t = {"a": [str(Fraction(g - j, 3)) for j in range(g)], "a0": "-1/2"}
    return ("hecke", "--g", str(g), "--t", json.dumps(t), "--all")


def printed(payload) -> int:
    if "rows" in payload:
        return len(payload["rows"])
    if "values" in payload:
        return len(payload["values"])
    return sum(len(entry["value"]) for entry in payload["eigenvalues"])


@pytest.mark.parametrize(
    "small, large",
    [
        (("cg", "--m", "6", "--n", "6", "--p", "6", "--table"),
         ("cg", "--m", "40", "--n", "40", "--p", "40", "--table")),
        (("bcoeff", "--n", "20", "--k", "18"), ("bcoeff", "--n", "200", "--k", "198")),
        (hecke_all(2), hecke_all(4)),
    ],
    ids=["cg-table", "bcoeff", "hecke-all"],
)
def test_fraction_count_does_not_grow_with_the_printed_entries(monkeypatch, small, large):
    small_count, small_payload = counted_run(monkeypatch, small)
    large_count, large_payload = counted_run(monkeypatch, large)
    more_entries = printed(large_payload) - printed(small_payload)
    assert more_entries > 150
    assert large_count - small_count < more_entries / 100, (small_count, large_count)


@pytest.mark.parametrize("n", [8, 12])
def test_oracle_block_builds_no_fraction(monkeypatch, n):
    # the weight-0 block is (n+1) x (n+1), augmented by the identity
    size = n + 1
    with counting_fractions(monkeypatch) as count:
        inverse, _ = sl2rep._brute_force_data.__wrapped__(n, 0)
    assert len(inverse) == size
    assert count[0] == 0, count[0]


@pytest.mark.parametrize("n", [8, 12])
def test_oracle_coordinates_build_one_fraction_each(monkeypatch, n):
    # a rational diagonal has n+1 weight-0 coordinates, and each of the 2n
    # zero blocks shares one Fraction(0)
    t = sl2rep.EndoElement.diagonal([Fraction(a + 1, a + 2) for a in range(n + 1)])
    sl2rep._brute_force_data(n, 0)
    with counting_fractions(monkeypatch) as count:
        coords = sl2rep.brute_force_coordinates(t)
    assert len(coords) == (n + 1) ** 2
    assert count[0] == (n + 1) + 2 * n, count[0]
