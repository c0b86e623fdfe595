"""The table commands print from integer kernels, not one `Fraction` per entry.

Each request runs through `main()` twice, at a small size and at a large
one, while every `Fraction` construction is counted.  A few come from
reading the input (a torus exponent, the generic characters), so the count
may grow with the rank, but not with the number of printed entries: a
handler that built one `Fraction` per entry adds as many as it prints.
"""

import io
import json
from contextlib import redirect_stdout
from fractions import Fraction

import pytest

from linvariants.cli import main


def counted_run(monkeypatch, argv) -> tuple[int, dict]:
    """(Fractions constructed, the JSON payload) of one request."""
    count = 0
    original = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        nonlocal count
        count += 1
        return original(cls, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(Fraction, "__new__", counting_new)
        # Python 3.12 builds arithmetic results past __new__
        if hasattr(Fraction, "_from_coprime_ints"):
            from_ints = Fraction._from_coprime_ints.__func__

            def counting_from_ints(cls, *args):
                nonlocal count
                count += 1
                return from_ints(cls, *args)

            patch.setattr(Fraction, "_from_coprime_ints", classmethod(counting_from_ints))
        out = io.StringIO()
        with redirect_stdout(out):
            assert main(list(argv)) == 0
    return count, json.loads(out.getvalue())


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
