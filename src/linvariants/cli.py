"""Command-line front end: table generation, module analysis, L-invariants.

Every subcommand is deterministic (identical inputs give byte-identical
output).  Rationals are serialized as "num/den" strings so no consumer
ever sees a rounded value.  Exit codes: 0 success, 2 malformed input or
domain/precondition error, 3 mathematical singularity (zero denominator
at the chosen direction); every error, a parse error too, prints one JSON line.
Every handler returns the one text it prints, compact key-sorted JSON or
CSV, so a request loads `json` only to escape a string from outside
(`recover-chi`'s symbols, a refusal's message), to read a JSON argument
outside the plain subset `jsonargs` reads itself, or to indent.

Each request is a fresh process, so options are read from one table, not
argparse.  Each subcommand's handler lives beside its maths (`_cmd_bcoeff`
in `plethysm`, say) and is imported only once the table has accepted the
command line, so a request compiles only its own handler and `--help`
loads no maths module.

`main()` with no argument list, the process's own command, ends the process
once its line is printed: it runs the `atexit` handlers, flushes stdout and
stderr, as the interpreter's own exit does, and then skips the teardown
with `os._exit`.  `main(argv)` with a list returns its code.  When a reader
closes stdout early, the rest of the line goes to `os.devnull`, with no
traceback, and the exit code stays the request's own.
"""

import atexit
import os
import re
import sys
from importlib import import_module
from itertools import islice
from types import SimpleNamespace

from . import CASES, FAMILIES, THEOREMS, CliError, _int, _json_text


def _emit(fmt: str, text: str) -> None:
    """Print `text`, a handler's compact key-sorted JSON or CSV, as it is or, for `pretty`,
    indented: only then is `json` imported, and the indented text streamed in runs of tokens.
    Every handler writes its text itself, so an int past the digit limit is refused before
    any byte is written."""
    try:
        if fmt != "pretty":
            print(text)
            return
        import json
        tokens = json.JSONEncoder(sort_keys=True, indent=2).iterencode(json.loads(text))
        while run := "".join(islice(tokens, 1 << 16)):
            sys.stdout.write(run)
        print()
    except BrokenPipeError:  # the reader has closed stdout: what is left goes nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


#: subcommand -> ("module._cmd_handler", option -> (type, required)); the type is int, str, a
#: tuple of choices or None for a flag.  `--check-N` sets `args.check_N`; no name begins another.
COMMANDS = {
    "cg": ("plethysm._cmd_cg", {"m": (int, True), "n": (int, True), "p": (int, True),
                                "table": (None, False), "u": (int, False), "v": (int, False),
                                "w": (int, False)}),
    "bcoeff": ("plethysm._cmd_bcoeff", {"n": (int, True), "k": (int, True), "i": (int, False)}),
    "project-endo": ("plethysm._cmd_project_endo",
                     {"n": (int, True), "k": (int, True), "diag": (str, True)}),
    "phin": ("phin._cmd_phin", {"case": (CASES, True), "n": (int, True), "L": (str, False),
                                "weight": (int, False), "all-submodules": (None, False),
                                "benois": (None, False), "gr1": (None, False)}),
    "hecke": ("weylhecke._cmd_hecke", {"g": (int, True), "t": (str, True), "weyl": (str, False),
                                       "all": (None, False)}),
    "recover-chi": ("weylhecke._cmd_recover_chi", {"g": (int, True), "eigs": (str, False),
                                                   "weights": (str, False), "weyl": (str, False),
                                                   "input": (str, False)}),
    "slope": ("slopes._cmd_slope", {"family": (("hilbert", "gsp"), True), "input": (str, True)}),
    "obstruction": ("slopes._cmd_obstruction", {"exponents": (str, True), "check-N": (int, False)}),
    "linv": ("linv._cmd_linv", {"family": (FAMILIES, True), "input": (str, True),
                                "compare-theorem": (tuple(THEOREMS), False)}),
}


def _option(token: str, options: dict) -> tuple:
    """(name, text after "=" or None) of `token`; the name is None for a value, "" if unknown.

    A unique prefix names its option, and `-h` is `--help`.  A token that
    begins with "-" is a value only when it is "-", a negative number or holds a space.
    """
    token = "--help" + token[2:] if token[:2] == "-h" else token
    if token[:2] == "--" and token != "--":
        name, eq, text = token[2:].partition("=")
        names = [o for o in (*options, "help") if o.startswith(name)]
        if len(names) > 1:
            raise CliError(f"{token} is ambiguous: it could be --" + ", --".join(names))
        if names:
            return names[0], text if eq else None
    value = token[:1] != "-" or token == "-" or " " in token or re.match(r"-\d*\.?\d+$", token)
    return None if value else "", None


def parse_args(argv):
    """The attributes `argv` sets, or None once --help printed usage; refusals raise CliError."""
    values, command, i = {"format": "json"}, None, 0
    options = {"format": (("json", "csv", "pretty"), False)}
    while i < len(argv):
        token, i = argv[i], i + 1
        name, text = _option(token, options)
        kind = options[name][0] if name in options else None
        if name is None and command is None and token in COMMANDS:
            command, (handler, options) = token, COMMANDS[token]
        elif not name:
            raise CliError(f"{command or 'linvariants'} does not know {token!r}")
        elif kind is None and text is not None:
            raise CliError(f"--{name} takes no value, not {text!r}")
        elif name == "help":
            print(f"usage: linvariants {command or '[--format FORMAT] SUBCOMMAND'} [options]")
            if command is None:
                print("subcommands: " + ", ".join(COMMANDS))
            for o, (kind, required) in options.items():
                shown = kind.__name__ if kind in (int, str) else kind and "{%s}" % ",".join(kind)
                print(f"  --{o} {shown or ''}".rstrip() + ("  (required)" if required else ""))
            return None
        elif kind is None:
            values[name] = True
        else:
            if text is None:
                if i == len(argv) or _option(argv[i], options)[0] is not None:
                    raise CliError(f"--{name} needs a value")
                text, i = argv[i], i + 1
            if isinstance(kind, tuple) and text not in kind:
                raise CliError(f"--{name} must be one of {', '.join(kind)}, not {text!r}")
            try:
                values[name] = _int(text, f"--{name}") if kind is int else text
            except ValueError:
                raise CliError(f"--{name} needs an integer, not {text!r}") from None
    if command is None:
        raise CliError("a subcommand is required: " + ", ".join(COMMANDS))
    attrs = {}
    for option, (kind, required) in options.items():
        if required and option not in values:
            raise CliError(f"{command} needs --{option}")
        attrs[option.replace("-", "_")] = values.get(option, None if kind else False)
    # only `bcoeff` and `cg --table` have a CSV form: any other is refused before it runs
    if values["format"] == "csv" and not (command == "bcoeff" or values.get("table")):
        raise CliError("csv output is only available for table commands")
    # the table has accepted argv: only now is the handler's maths module imported
    module, _, attr = handler.partition(".")
    func = getattr(import_module(f".{module}", __package__), attr)
    return SimpleNamespace(command=command, func=func, format=values["format"], **attrs)


def main(argv=None) -> int:
    code = _answer(sys.argv[1:] if argv is None else argv)
    if argv is None:  # the process's own command: exit as the interpreter does, minus teardown
        atexit._run_exitfuncs()
        try:
            sys.stdout.flush()
        except BrokenPipeError:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.stderr.flush()
        os._exit(code)
    return code


def _answer(argv) -> int:
    """Print the one line `argv` asks for and return the exit code."""
    try:
        args = parse_args(argv)
        if args is not None:
            _emit(args.format, args.func(args))
        return 0
    except CliError as err:
        error, code = err.error, err.exit_code
    except (ValueError, KeyError, TypeError, ZeroDivisionError) as err:
        error, code = {"code": "domain", "message": str(err)}, 2
        if str(err).startswith("Exceeds the limit"):  # CPython's, met printing an exact result
            limit = sys.get_int_max_str_digits()
            error = {"code": "output", "message": f"the result holds an int past Python's "
                     f"limit of {limit} digits for printing; refused"}
    _emit("json", _json_text({"error": error}))
    return code


if __name__ == "__main__":
    raise SystemExit(main())
