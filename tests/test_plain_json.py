"""`jsonargs` reads plain JSON arguments without `json`, and answers as `json` would.

Plain JSON is built of objects, arrays, ints, true, false, null and strings
with no backslash or control character, spaced by JSON's four whitespace
characters.  `_parse_json_arg` reads it itself and hands any other text to
`json.loads`.  The oracle is what `_parse_json_arg` did before it read plain
JSON: `json.loads`, or the refusal it made of `json`'s error.  Values are
compared by `repr`, so `True` is not `1` and dict order counts.
"""

import json
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linvariants.cliargs import CliError
from linvariants.jsonargs import PLAIN_JSON_MAX_CHARS, PLAIN_JSON_MAX_DEPTH, _parse_json_arg, _plain_json


def json_path(text: str) -> str:
    """repr of json.loads(text), or the message `_parse_json_arg` refuses it with."""
    try:
        return repr(json.loads(text))
    except (json.JSONDecodeError, RecursionError) as err:
        return f"malformed JSON for --t: {err}"
    except ValueError:
        return f"--t holds an int past Python's limit of {sys.get_int_max_str_digits()} digits"


def read(text: str) -> str:
    try:
        return repr(_parse_json_arg(text, "--t"))
    except CliError as err:
        return err.error["message"]


#: a string of the plain subset: no quote, backslash or control character
PLAIN_STRINGS = st.text(st.characters(blacklist_characters='"\\', min_codepoint=0x20), max_size=6)
PLAIN_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | PLAIN_STRINGS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(PLAIN_STRINGS, inner, max_size=4),
    max_leaves=16,
)
SPACE = st.text(" \t\n\r", max_size=2)


def spell(draw, value) -> str:
    """`value` as JSON text with random spacing around every token."""
    if isinstance(value, list):
        inner = ",".join(draw(SPACE) + spell(draw, x) + draw(SPACE) for x in value)
        return f"[{inner or draw(SPACE)}]"
    if isinstance(value, dict):
        inner = ",".join(f"{draw(SPACE)}{json.dumps(k, ensure_ascii=False)}{draw(SPACE)}:{draw(SPACE)}{spell(draw, v)}"
                         f"{draw(SPACE)}" for k, v in value.items())
        return "{%s}" % (inner or draw(SPACE))
    return json.dumps(value, ensure_ascii=False)


@settings(max_examples=300, deadline=None)
@given(st.data(), PLAIN_VALUES)
def test_plain_values_read_as_json_reads_them(data, value):
    text = data.draw(SPACE) + spell(data.draw, value) + data.draw(SPACE)
    assert read(text) == json_path(text) == repr(value)
    if len(text) <= PLAIN_JSON_MAX_CHARS:
        assert repr(_plain_json(text)) == repr(value)  # read without `json`


#: characters that make a plain text not plain, or not JSON
NEAR_MISSES = [".", "e", "E", "0", "1", "+", "-", "\\", "\x0b", "\xa0", "٣", ",", "]", "}",
               "[", "{", ":", '"', "x", "\x00", "﻿", "/", "\\u0041", "true", "nul", "1.0"]


@settings(max_examples=300, deadline=None)
@given(st.data(), PLAIN_VALUES)
def test_near_misses_give_the_json_answer_or_refusal(data, value):
    text = spell(data.draw, value)
    at = data.draw(st.integers(0, len(text)))
    cut = data.draw(st.integers(0, 1))
    text = text[:at] + data.draw(st.sampled_from(NEAR_MISSES)) + text[at + cut:]
    assert read(text) == json_path(text)


@pytest.mark.parametrize(
    "text",
    [
        "1.0", "1e3", "1E3", "01", "-01", "+1", "-", "-0", '"8"', "٣", "[1,]", "[,1]", "{,}",
        '{"a":1,}', '{"a"}', '{"a":}', "[1 2]", "[1]]", "[[1]", "[1] x", "truefalse", "nul", "",
        " ", "\x0b1", "[\x0b1]", "﻿[1]", '"\\u0041"', '"a\x01"', '"abc', "NaN", "Infinity",
        '{"a":1,"a":2,"b":3}', '{"b":1,"a":2,"b":3}', '{"x,y:[z]": 1}', '"\udcff"',
        "[" * 10_000 + "]" * 10_000,
        "1" * 4301, "-" + "1" * 4301, "[%s]" % ("9" * 4301), "1" * 4300,
        "[" * PLAIN_JSON_MAX_DEPTH + "]" * PLAIN_JSON_MAX_DEPTH,
        "[" * (PLAIN_JSON_MAX_DEPTH + 1) + "]" * (PLAIN_JSON_MAX_DEPTH + 1),
    ],
)
def test_spellings_give_the_json_answer_or_refusal(text):
    assert read(text) == json_path(text)


def test_the_last_repeated_key_wins_in_the_first_place():
    assert list(_plain_json('{"b":1,"a":2,"b":3}').items()) == [("b", 3), ("a", 2)]


def test_depth_and_length_past_the_bounds_go_to_json():
    deep = "[" * PLAIN_JSON_MAX_DEPTH + "]" * PLAIN_JSON_MAX_DEPTH
    assert repr(_plain_json(deep)) == repr(json.loads(deep))
    for text in ("[%s]" % deep, "[%s]" % ",".join(["1"] * (PLAIN_JSON_MAX_CHARS // 2))):
        with pytest.raises(ValueError):
            _plain_json(text)
        assert read(text) == json_path(text)
