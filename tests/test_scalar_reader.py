"""`linvariants.ratio`, the one reader of exact scalars, against the `Fraction` reader before it.

`ratio` reads a JSON int and a plain `a` or `a/b` text in integers and
every other value through `exactlin._fraction`; `tests/scalar_oracle.py`
keeps the reader that read every value through `Fraction`.  Each value
must give the same number, or the same exception type and message.  The
cases the old tests of `exactlin.rational` and `vector` pinned are pinned
here on `ratio` and `ratios`: decimal exponents up to the cap, a bool, a
zero denominator, and a str or dict given as a vector.  The digit guard
is one linear scan of the digit runs now: a text of many runs, each at the
limit, used to take seconds in the search for one run past it.
"""

import json
import os
import resource
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from linvariants import ratio, ratios
from scalar_oracle import MAX_DECIMAL_EXPONENT, fraction_rational, fraction_vector

SRC = str(Path(__file__).resolve().parent.parent / "src")
LIMIT = sys.get_int_max_str_digits()


def outcome(read, value):
    """(the value read, or the type and message of the exception raised)."""
    try:
        return read(value)
    except (ValueError, TypeError) as err:
        return type(err), str(err)


def read_ratio(value) -> Fraction:
    num, den = ratio(value)
    assert den > 0 and Fraction(num, den).denominator == den  # reduced, den > 0
    return Fraction(num, den)


#: texts in the characters of every spelling: digits (one of them not ASCII), signs, the
#: slash, a point, underscores, exponents, spaces and a word
texts = st.text(alphabet="0123456789٣+-/._eE \t x", max_size=12)
spellings = st.one_of(
    texts,
    st.builds(lambda a, b, pad: f"{pad}{a}/{b}{pad}", st.integers(-10**30, 10**30),
              st.integers(-3, 10**30), st.sampled_from(["", " ", "\t", "\n "])),
    st.builds(lambda a, sign: f"{sign}{a}", st.integers(0, 10**40),
              st.sampled_from(["", "+", "-"])),
)
values = st.one_of(
    spellings,
    st.integers(-10**60, 10**60),
    st.builds(Fraction, st.integers(-10**20, 10**20), st.integers(1, 10**20)),
    st.booleans(), st.floats(allow_nan=False), st.none(), st.lists(st.integers(), max_size=2),
)


@settings(max_examples=1500, deadline=None)
@given(values)
@example("1.5e-3")
@example(f"1e{MAX_DECIMAL_EXPONENT + 1}")
@example("1/0")
@example(" -0/7 ")
@example("+12/-3")
@example("1_000/3")
@example("٣/٤")
@example("5" * 5000)
@example("-" + "5" * LIMIT)
@example("-" + "5" * LIMIT + "/" + "7" * LIMIT)
@example("5" * LIMIT + "/" + "7" * (LIMIT + 1))
@example(" ".join(["7" * LIMIT] * 3))
@example(10**5000)
@example(True)
@example(1.5)
@example({"1": 2})
def test_ratio_reads_every_value_as_the_fraction_reader_did(value):
    assert outcome(read_ratio, value) == outcome(fraction_rational, value)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.lists(values, max_size=4), texts, st.dictionaries(texts, values, max_size=2)))
@example("12")
@example({"5": "x"})
@example({})
def test_ratios_read_every_vector_as_the_fraction_reader_did(values):
    def read(values):
        return tuple(Fraction(*pair) for pair in ratios(values))

    assert outcome(read, values) == outcome(fraction_vector, values)


def test_ratio_reads_exact_scalars_in_lowest_terms():
    assert ratio(3) == (3, 1)
    assert ratio("-6/8") == (-3, 4)
    assert ratio(Fraction(1, 2)) == (1, 2)


def test_a_fraction_comes_back_from_its_ratio_unchanged():
    # so `Fraction(*ratio(x))`, where `src/` needs a `Fraction`, passes a `Fraction` through
    value = Fraction(-3, 4)
    assert ratio(value) == (-3, 4)
    assert Fraction(*ratio(value)) == value


def test_ratio_reads_decimal_exponents_up_to_the_cap():
    assert ratio("1e3") == (1000, 1)
    assert ratio("1.5e-3") == (3, 2000)
    assert ratio(f"-2E+{MAX_DECIMAL_EXPONENT}") == (-2 * 10**MAX_DECIMAL_EXPONENT, 1)
    assert ratio(f" 1e-{MAX_DECIMAL_EXPONENT} ") == (1, 10**MAX_DECIMAL_EXPONENT)


@pytest.mark.parametrize(
    "text", [f"1e{MAX_DECIMAL_EXPONENT + 1}", f"-2.5E-{MAX_DECIMAL_EXPONENT + 1}"]
)
def test_ratio_refuses_a_decimal_exponent_past_the_cap(text):
    with pytest.raises(ValueError, match="decimal exponent over"):
        ratio(text)


def test_ratio_refuses_bool():
    # bool is an int subclass; a JSON true must not pass as 1
    for value in (True, False):
        with pytest.raises(TypeError, match="not an exact scalar"):
            ratio(value)


def test_ratio_zero_denominator_names_the_input():
    for text in ("1/0", " -3/00 ", "1_0/0"):
        with pytest.raises(ValueError, match=f"zero denominator in {text!r}"):
            ratio(text)


@pytest.mark.parametrize("values", ["12", {"5": "x"}, {}])
def test_ratios_refuse_a_string_and_a_mapping(values):
    # each is iterable, over its characters or its keys, but holds no scalars
    with pytest.raises(TypeError, match="not a sequence of exact scalars"):
        ratios(values)


#: many digit runs, each at the limit and none past it: the search for one run past the
#: limit took 4.2 s on this text of 202,146 characters
RUNS = 'text = " ".join(["7" * %d] * 47)\n' % LIMIT


@pytest.mark.parametrize(
    "argv, stdin",
    [
        (["linv", "--family", "hilbert", "--input", "-"],
         'json.dumps({"places": [{"gradients": {"a_1": text}}], "direction": {"u": [1]}})'),
        (["cg", "--m", "text", "--n", "1", "--p", "1", "--table"], '""'),
    ],
    ids=["linv-gradient", "cg-m"],
)
def test_a_text_of_many_digit_runs_is_refused_in_linear_time(argv, stdin):
    code = (
        "import io, json, sys\n"
        f"{RUNS}"
        f"sys.stdin = io.TextIOWrapper(io.BytesIO({stdin}.encode()))\n"
        "from linvariants.cli import main\n"
        f"argv = [text if token == 'text' else token for token in {argv!r}]\n"
        "raise SystemExit(main(argv))\n"
    )
    path = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    done = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    assert done.returncode == 2, done.stderr
    assert json.loads(done.stdout)["error"]["code"] in ("domain", "input")
    assert after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime < 1.0
