"""The CLI's refusal and its readers of JSON arguments, shared by every handler.

The handlers live beside their maths and import this module when they run;
`cli` imports it too.  Run as `python -m linvariants.cli`, `cli` is
`__main__`, so a handler importing `CliError` from `cli` would load a second
copy of it, whose refusals `main` would not catch.
"""

import json
import re
import sys


class CliError(Exception):
    """A refused request; `error` is the JSON object printed for it."""

    def __init__(self, message: str, exit_code: int = 2, **fields):
        super().__init__(message)
        self.exit_code = exit_code
        self.error = {"code": "input", **fields, "message": message}


def _int(text: str, label: str) -> int:
    """int(text); a digit run past Python's limit is refused by name, other ValueErrors pass."""
    limit = sys.get_int_max_str_digits()
    if len(text) > limit > 0 and re.search(r"\d{%d}" % (limit + 1), text.replace("_", "")):
        raise CliError(f"{label} {text[:20]}... holds an int past Python's limit of {limit} digits")
    return int(text)


def _monomial_json(m) -> dict:
    return {sym: str(e) for sym, e in m.exponents}


def _json_object(value, label: str) -> dict:
    if not isinstance(value, dict):
        raise CliError(f"{label} must be a JSON object, not {value!r}")
    return value


def _parse_json_arg(text: str, label: str):
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as err:
        raise CliError(f"malformed JSON for {label}: {err}") from err
    except ValueError as err:  # the one other: an int past Python's digit limit
        limit = sys.get_int_max_str_digits()
        raise CliError(f"{label} holds an int past Python's limit of {limit} digits") from err


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
    if args.input == "-":
        obj = _parse_json_arg(sys.stdin.read(), "--input")
    else:
        try:
            with open(args.input, "r", encoding="utf-8") as handle:
                obj = json.load(handle)
        except OSError as err:
            raise CliError(f"cannot read input file: {err}") from err
        except (json.JSONDecodeError, RecursionError) as err:
            raise CliError(f"malformed JSON in input file: {err}") from err
        except ValueError as err:
            limit = sys.get_int_max_str_digits()
            raise CliError(f"--input holds an int past Python's limit of {limit} digits") from err
    return _json_object(obj, "--input")


def _cap(value: int, cap: int, what: str) -> None:
    if value > cap:
        raise CliError(f"{what} > {cap} is refused")
