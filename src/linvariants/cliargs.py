"""The CLI's refusal and its reader of integer arguments.

`cli` imports this module on every request, so it holds only what any
request may need: `CliError`, `_int`, `_cap` and `_json_text`, the one
`json.dumps`, for the answers that hold a string from outside.  Exact
scalars are read by the package's `ratio`, and JSON arguments by
`jsonargs`, which only a request that reads one imports.  Run as
`python -m linvariants.cli`, `cli` is `__main__`, so a handler importing
`CliError` from `cli` would load a second copy of it, whose refusals `main`
would not catch: the handlers import it from here, when they run, so
importing a maths module as a library compiles no CLI code.
"""

from . import _digit_limit


class CliError(Exception):
    """A refused request; `error` is the JSON object printed for it."""

    def __init__(self, message: str, exit_code: int = 2, **fields):
        super().__init__(message)
        self.exit_code = exit_code
        self.error = {"code": "input", **fields, "message": message}


def _int(text: str, label: str) -> int:
    """int(text); a digit run past Python's limit is refused by name, other ValueErrors pass."""
    if limit := _digit_limit(text):
        raise CliError(f"{label} {text[:20]}... holds an int past Python's limit of {limit} digits")
    return int(text)


def _cap(value: int, cap: int, what: str) -> None:
    if value > cap:
        raise CliError(f"{what} > {cap} is refused")


def _json_text(tree) -> str:
    """`tree` as compact, key-sorted JSON text: the answers that hold a string from outside,
    `recover-chi`'s symbols and a refusal's message, which need `json` to escape them."""
    import json
    return json.dumps(tree, sort_keys=True, separators=(",", ":"))
