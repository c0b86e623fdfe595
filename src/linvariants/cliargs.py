"""The CLI's refusal and its readers of scalar arguments.

`cli` imports this module on every request, so it holds only what any
request may need: `CliError`, `_int`, `_plain_ratio`, `_cap` and
`_json_text`, the one `json.dumps`, for the answers that hold a string from
outside.  The readers of JSON arguments are `jsonargs`, which only a
request that reads one imports.  Run as `python -m linvariants.cli`, `cli`
is `__main__`, so a handler importing `CliError` from `cli` would load a
second copy of it, whose refusals `main` would not catch: the handlers
import it from here, when they run, so importing a maths module as a
library compiles no CLI code.
"""

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


def _plain_ratio(text: str) -> tuple[int, int] | None:
    """(a, b) of a text spelled as a plain `a` or `a/b`, else None.

    Plain means a sign or none, decimal digits, a nonzero b, no more characters
    than Python's int digit limit, and whitespace only around it.  Such a text
    is a/b to `exactlin.rational` too, which reads every other spelling.
    """
    num, slash, den = text.strip().partition("/")
    digits = num[1:] if num[:1] in ("+", "-") else num
    if (digits.isdecimal() and (den.isdecimal() or not slash)
            and len(text) <= sys.get_int_max_str_digits() and int(den or 1)):
        return int(num), int(den or 1)
    return None


def _cap(value: int, cap: int, what: str) -> None:
    if value > cap:
        raise CliError(f"{what} > {cap} is refused")


def _json_text(tree) -> str:
    """`tree` as compact, key-sorted JSON text: the answers that hold a string from outside,
    `recover-chi`'s symbols and a refusal's message, which need `json` to escape them."""
    import json
    return json.dumps(tree, sort_keys=True, separators=(",", ":"))
