"""The readers of the CLI's JSON arguments and `--input` files.

A text of at most `PLAIN_JSON_MAX_CHARS` characters, built only of
objects, arrays, ints, true, false, null and strings with no backslash or
control character, is read here, without `json`, into what `json.loads`
returns.  Every other text, floats and escapes included, goes to
`json.loads`, which reads or refuses it as it always has.  So an integer
request loads no `json`, and a request that reads no JSON argument loads
not even this module: `cli` imports only the package root.
"""

import re
import sys

from . import CliError



def _json_object(value, label: str) -> dict:
    if not isinstance(value, dict):
        raise CliError(f"{label} must be a JSON object, not {value!r}")
    return value


#: the longest JSON text read without `json`: on a shared 2-core Xeon VM this
#: reader took about 0.15 us a character and `json`'s import about 2 ms, so
#: past about 10^4 characters that import and the C scanner cost less
PLAIN_JSON_MAX_CHARS = 1 << 13
#: the deepest nesting read without `json`, which itself runs out of recursion
#: somewhere past a few hundred levels
PLAIN_JSON_MAX_DEPTH = 64
#: one token of plain JSON, after JSON's whitespace: an int, a string with no
#: backslash or control character, a word or a punctuation mark; any other
#: character is the last group.  A digit, "." or "e" after an int starts a
#: token of its own, which no value may follow, so `01`, `1.5` and `1e3` fail
_PLAIN_JSON_TOKEN = (r'[ \t\n\r]*(?:(-?(?:0|[1-9][0-9]*))|("[^"\\\x00-\x1f]*")'
                     r'|(true|false|null|[][{}:,])|([^ \t\n\r]))')
_PLAIN_JSON_WORDS = {"true": True, "false": False, "null": None}


def _plain_json(text: str):
    """json.loads(text) for a text of objects, arrays, ints, true, false, null and
    strings with no backslash or control character, spaced by JSON's four
    whitespace characters; ValueError for any other text, valid or not.

    Its values are json's: the same dict order, the last of a repeated key
    wins, and an int past Python's digit limit is a ValueError.
    """
    if len(text) > PLAIN_JSON_MAX_CHARS:
        raise ValueError("long text")
    end = ("", "", "", "end")
    tokens = iter([*re.findall(_PLAIN_JSON_TOKEN, text), end])

    def value(token, depth: int):
        number, string, word, _ = token
        if number:
            return int(number)
        if string:
            return string[1:-1]
        if word in _PLAIN_JSON_WORDS:
            return _PLAIN_JSON_WORDS[word]
        if word not in ("[", "{") or depth == PLAIN_JSON_MAX_DEPTH:
            raise ValueError("not plain JSON")
        array = word == "["
        items, close = ([], "]") if array else ({}, "}")
        token = next(tokens)
        if token[2] == close:
            return items
        while True:
            if array:
                items.append(value(token, depth + 1))
            elif token[1] and next(tokens)[2] == ":":
                items[token[1][1:-1]] = value(next(tokens), depth + 1)
            else:
                raise ValueError("not plain JSON")
            separator = next(tokens)[2]
            if separator == close:
                return items
            if separator != ",":
                raise ValueError("not plain JSON")
            token = next(tokens)

    result = value(next(tokens), 0)
    if next(tokens) is not end:
        raise ValueError("extra data")
    return result


def _parse_json_arg(text: str, label: str):
    """The JSON value of the argument `label`; `json` is imported only for a text
    that `_plain_json` does not read."""
    try:
        return _plain_json(text)
    except ValueError:
        pass
    import json  # floats, escapes, malformed text and the rest
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as err:
        raise CliError(f"malformed JSON for {label}: {err}") from err
    except ValueError as err:  # the one other: an int past Python's digit limit
        limit = sys.get_int_max_str_digits()
        raise CliError(f"{label} holds an int past Python's limit of {limit} digits") from err


def _array(value, label: str) -> list:
    """`value`, which must be a JSON array; a domain error, as `ratios` gives for a string."""
    if not isinstance(value, list):
        raise TypeError(f"{label} must be a JSON array, not {value!r}")
    return value


def _has_keys(value, label: str, *keys: str) -> dict:
    """`value`, which must be a JSON object holding every one of `keys`."""
    obj = _json_object(value, label)
    for key in keys:
        if key not in obj:
            raise CliError(f"{label} needs the key {key!r}")
    return obj


def _json_keys(text: str, label: str, *keys: str) -> dict:
    """The JSON object argument `label`, which must hold every one of `keys`."""
    return _has_keys(_parse_json_arg(text, label), label, *keys)


def _load_input(args) -> dict:
    try:  # stdin's bytes are decoded as strictly as a file's, not with surrogate escapes
        if args.input == "-":
            text = sys.stdin.buffer.read().decode("utf-8")
        else:
            with open(args.input, encoding="utf-8") as handle:
                text = handle.read()
    except (OSError, UnicodeDecodeError) as err:
        raise CliError(f"cannot read input file: {err}") from err
    return _json_object(_parse_json_arg(text, "--input"), "--input")
