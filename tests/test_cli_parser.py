"""The CLI's option table parses as the argparse parser it replaced.

`parser_oracle.build_parser` is that parser.  For generated argv the table
must accept what argparse accepts, with the same attributes, and refuse
what argparse refuses, with exit 2 and one JSON line.  The argv mix option
names and their prefixes, `=` and separate values, negative numbers and
other values that begin with "-", repeated options, bare flags, stray
values, "--", and `--format` before and after the subcommand.
"""

import argparse
import contextlib
import importlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from linvariants import CASES
from linvariants.cli import COMMANDS, CliError, main, parse_args
from parser_oracle import build_parser

ORACLE = build_parser()
#: `--opt=--` with a value no int or choice can be, restored to "--" after parsing
STAND_IN = "[--]"
#: subcommand -> {option name without "--": argparse action}, help left out
SUBCOMMANDS = {
    name: {a.option_strings[-1][2:]: a for a in sub._actions if a.dest != "help"}
    for action in ORACLE._actions if isinstance(action, argparse._SubParsersAction)
    for name, sub in action.choices.items()
}


def oracle(argv):
    """The attributes argparse parses from `argv`, or None when it refuses `argv` or asks
    for CSV from a command with no CSV form, which the table refuses before any handler runs.

    argparse reads `--opt=--` as an empty list without checking it against
    the option's type or choices (`obstruction --exponents=--` then raised
    AttributeError).  The table reads the text "--" and checks it as any
    other value, so here argparse is given a stand-in text for it.
    """
    argv = [t[:-2] + STAND_IN if t[:1] == "-" and t.partition("=")[2] == "--" else t for t in argv]
    try:
        with contextlib.redirect_stderr(io.StringIO()):
            attrs = vars(ORACLE.parse_args(argv))
    except SystemExit as err:
        assert err.code == 2
        return None
    if attrs["format"] == "csv" and not (attrs["command"] == "bcoeff" or attrs.get("table")):
        return None  # argparse accepted it and the handler refused it: the table refuses it first
    return {dest: "--" if value == STAND_IN else value for dest, value in attrs.items()}


#: values that try how a token is read: negative numbers, other values that
#: begin with "-" (a space makes them values), "--", "-h5", the empty string
ODD_VALUES = st.sampled_from(
    ["-1", "-12", "-1.5", "-.5", "-5,-3,-1", "-x", "-", "", "x", " -2", "-x y", "--x y", "--",
     "-h5", "1/2", "07"]
)


def mostly(common, rare):
    """`common` four times in five, else `rare`; shrinks towards `common`."""
    return st.sampled_from([True] * 4 + [False]).flatmap(lambda c: common if c else rare)


def values_of(action):
    if action.choices is not None:
        return st.sampled_from(list(action.choices))
    if action.type is int:
        return st.integers(-20, 40).map(str)
    return st.sampled_from(["[1]", "3,2,1", '{"a": [0], "a0": 1}', "x"])


def spelled(name):
    """`name` or one of its prefixes."""
    return st.sampled_from([name, name, None]).flatmap(
        lambda full: st.just(full) if full else st.integers(1, len(name)).map(lambda k: name[:k])
    )


def tokens(name, action=None):
    """The tokens of one option: `--name=value`, `--name value` or a bare `--name`."""
    flag = action is not None and action.nargs == 0
    value = ODD_VALUES if action is None or flag else mostly(values_of(action), ODD_VALUES)
    form = st.sampled_from(["bare"] * 6 + ["=", " "] if flag else ["=", " "] * 3 + ["bare"])
    return st.tuples(spelled(name), value, form).map(
        lambda t: [f"--{t[0]}"] if t[2] == "bare"
        else [f"--{t[0]}={t[1]}"] if t[2] == "=" else [f"--{t[0]}", t[1]]
    )


FORMAT = tokens("format", ORACLE._option_string_actions["--format"])
#: options no subcommand has: argparse read only dashes in `--check-N` and
#: `--all-submodules`, and `--format` goes before the subcommand
UNKNOWN = st.sampled_from(["zz", "check_N", "all_submodules", "format"]).flatmap(tokens)
STRAY = ODD_VALUES.map(lambda v: [v])
NINE_IN_TEN = st.sampled_from([True] * 9 + [False])


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(SUBCOMMANDS)))
    actions = SUBCOMMANDS[command]
    required = [draw(tokens(n, a)) for n, a in actions.items() if a.required and draw(NINE_IN_TEN)]
    some_option = st.sampled_from(sorted(actions)).flatmap(lambda n: tokens(n, actions[n]))
    extra = draw(st.lists(mostly(some_option, FORMAT | UNKNOWN | STRAY), max_size=4))
    groups = draw(st.permutations(required + extra))
    head = [command] if draw(NINE_IN_TEN) else draw(st.just(["nosuch"]) | st.just([]) | STRAY)
    top = draw(st.lists(mostly(FORMAT, UNKNOWN), max_size=2))
    return [token for group in [*top, head, *groups] for token in group]


@settings(max_examples=600, deadline=None)
@given(argvs())
@example(["bcoeff", "--n", "x", "--k", "1"])
@example(["nosuch"])
@example(["bcoeff", "--n", "3", "--k", "1", "--ab"])
@example(["bcoeff", "--n", "3"])
@example(["hecke", "--g", "1", "--t", "{}", "--al"])
@example(["recover-chi", "--g", "1", "--eigs", "[]", "--weights", "{}", "--w", "x"])
@example(["obstruction", "--exponents", "-5,-3,-1"])
@example(["obstruction", "--exponents=-5,-3,-1", "--check-N", "-6"])
@example(["obstruction", "--exponents", "-x y", "--che=4"])
@example(["--form", "csv", "--f=pretty", "bcoeff", "--n", "-1", "--k", "0"])
@example(["bcoeff", "--n", "1", "--k", "1", "--format", "csv"])
@example(["bcoeff", "--n", "1", "--k", "1", "--"])
@example(["--", "bcoeff", "--n", "1", "--k", "1"])
@example(["phin", "--=x"])
@example(["obstruction", "--exponents=--"])
@example(["--format=--", "bcoeff", "--n=0", "--k=--"])
@example(["phin", "--case", "steinberg", "--n", "1", "--gr1=", "--L"])
@example([])
def test_the_table_parses_as_argparse_did(argv):
    expected = oracle(argv)
    if expected is not None:
        assert vars(parse_args(argv)) == expected, argv
        return
    with pytest.raises(CliError):
        parse_args(argv)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 2, argv
    (line,) = out.getvalue().splitlines()
    assert json.loads(line)["error"]["code"] == "input"


def test_the_table_names_the_options_argparse_had():
    assert list(COMMANDS) == list(SUBCOMMANDS)
    for command, (_, options) in COMMANDS.items():
        actions = SUBCOMMANDS[command]
        assert list(options) == list(actions), command
        for name, (kind, required) in options.items():
            action = actions[name]
            assert required == action.required, (command, name)
            if kind is None:
                assert action.nargs == 0
            elif isinstance(kind, tuple):
                assert kind == tuple(action.choices), (command, name)
            else:
                assert kind is (action.type or str), (command, name)


def test_every_command_resolves_to_a_handler():
    for command, (handler, _) in COMMANDS.items():
        module, _, name = handler.partition(".")
        assert name.startswith("_cmd_"), command
        assert callable(getattr(importlib.import_module(f"linvariants.{module}"), name)), command


def test_no_option_name_begins_another():
    # a token names the one option it is a prefix of, so an exact name must be no other's prefix
    for _, options in COMMANDS.values():
        names = [*options, "help"]
        assert [(a, b) for a in names for b in names if a != b and b.startswith(a)] == []


@pytest.mark.parametrize("flag", ["--help", "-h", "--he"])
def test_help_lists_every_subcommand(capsys, flag):
    assert main(["--format", "csv", flag, "nosuch"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: linvariants")
    assert "--format {json,csv,pretty}" in out
    assert all(command in out for command in COMMANDS)


def test_subcommand_help_lists_its_options(capsys):
    assert main(["phin", "--help"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("usage: linvariants phin")
    assert lines[1:] == [
        "  --case {" + ",".join(CASES) + "}  (required)",
        "  --n int  (required)",
        "  --L str",
        "  --weight int",
        "  --all-submodules",
        "  --benois",
        "  --gr1",
    ]


def test_help_comes_before_a_missing_option(capsys):
    # as with argparse, --help answers before the required options are checked
    assert main(["bcoeff", "--help", "--n"]) == 0
    assert "--k int  (required)" in capsys.readouterr().out


def test_main_without_argv_reads_sys_argv():
    # the path of the `linvariants` console script in pyproject.toml; as the
    # process's own command, main ends the process once it has answered, so
    # it runs in a process of its own and the line after it never runs
    argv = ["linvariants", "--format", "csv", "bcoeff", "--n=1", "--k", "1"]
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    done = subprocess.run(
        [sys.executable, "-c", "import sys\nfrom linvariants.cli import main\n"
         f"sys.argv = {argv!r}\nmain()\nraise SystemExit(7)"],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True,
    )
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == "n,k,i,value\n1,1,0,1\n1,1,1,-1\n"
