"""Each request imports only what its subcommand uses.

Every `linvariants` request is a fresh process, so what the CLI imports is
paid on every request.  These checks run in fresh interpreters, since the
test process itself has imported every module long before.  What each
subcommand loads is read from the README's table "subcommand | modules", so
the table cannot go stale; nor can its "Library layout" table, which must
name the modules of `linvariants.__all__` and of `src/linvariants/*.py`.
"""

import ast
import importlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import linvariants
from linvariants.cli import COMMANDS, parse_args

ROOT = Path(__file__).resolve().parent.parent
SRC = str(ROOT / "src")
MATHS = ("linv", "phin", "plethysm", "weylhecke", "slopes", "sl2rep")
#: what every request loads besides its maths: the parser and the handlers' scalar readers;
#: a request that reads a JSON argument loads `jsonargs` too, as its README row says
CLI = ["linvariants.cli", "linvariants.cliargs"]


def readme_modules() -> dict[str, list[str]]:
    """subcommand -> the modules the README's table says it loads besides `cli` and `cliargs`."""
    lines = (ROOT / "README.md").read_text().splitlines()
    start = lines.index("| subcommand | modules |")
    table = {}
    for line in lines[start + 2:]:
        if not line.startswith("|"):
            break
        commands, modules = line.split("|")[1:3]
        for command in re.findall(r"`([^`]+)`", commands):
            table[command] = re.findall(r"`([^`]+)`", modules)
    return table


def readme_layout() -> list[str]:
    """The modules of the README's "Library layout" table, in its order."""
    lines = (ROOT / "README.md").read_text().splitlines()
    start = lines.index("| module      | contents |")
    modules = []
    for line in lines[start + 2:]:
        if not line.startswith("|"):
            break
        (module,) = re.findall(r"`([^`]+)`", line.split("|")[1])
        modules.append(module)
    return modules


def documented(argv) -> list[str]:
    """The sorted `linvariants` modules the README says the request `argv` loads."""
    (command,) = [token for token in argv if token in COMMANDS]
    return sorted([*CLI, *(f"linvariants.{m}" for m in readme_modules()[command])])


def fresh(code: str):
    """The JSON value that `code` prints in a new interpreter with `src` on its path."""
    path = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    out = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, check=True,
    ).stdout
    return json.loads(out.splitlines()[-1])


#: costly standard modules no request needs: `dataclasses` imports `inspect`,
#: which imports `ast`, `dis` and `tokenize`; `argparse` imports `gettext`,
#: whose translations import `locale`
HEAVY = ("dataclasses", "inspect", "argparse", "gettext", "locale")
LOADED = (
    "print(json.dumps([sorted(m for m in sys.modules if m.startswith('linvariants.')),"
    f" sorted(set({HEAVY!r}) & set(sys.modules))]))"
)


def request(argv, stdin: str = ""):
    """(linvariants modules, heavy modules) loaded by one in-process request."""
    return fresh(
        "import contextlib, io, json, sys\n"
        "from linvariants.cli import main\n"
        f"sys.stdin = io.TextIOWrapper(io.BytesIO({stdin.encode()!r}))\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main({argv!r}) == 0\n"
        f"{LOADED}"
    )


def test_cli_import_loads_no_maths():
    loaded, heavy = fresh(f"import json, sys\nimport linvariants.cli\n{LOADED}")
    assert not {f"linvariants.{m}" for m in MATHS} & set(loaded)
    assert loaded == CLI
    assert heavy == []


@pytest.mark.parametrize(
    "argv, code",
    [
        (["--help"], 0),
        (["phin", "--help"], 0),
        (["bcoeff", "--n", "x", "--k", "1"], 2),
        (["hecke", "--g", "2"], 2),
        (["nosuch"], 2),
    ],
)
def test_help_and_parse_errors_load_no_maths(argv, code):
    # the handler's module is imported only once the table has accepted argv
    loaded, heavy = fresh(
        "import contextlib, io, json, sys\n"
        "from linvariants.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main({argv!r}) == {code}\n"
        f"{LOADED}"
    )
    assert loaded == CLI
    assert heavy == []


@pytest.mark.parametrize("module", ["plethysm", "linv", "slopes"])
def test_library_import_loads_no_cli(module):
    # the oracle and `linv` import `plethysm` as a library; the handlers load the CLI only when run
    loaded, _ = fresh(f"import json, sys\nimport linvariants.{module}\n{LOADED}")
    assert not {*CLI, "linvariants.jsonargs"} & set(loaded)


PLETHYSM_REQUESTS = [
    ["bcoeff", "--n", "4", "--k", "2"],
    ["bcoeff", "--n", "4", "--k", "2", "--i", "1"],
    ["--format", "csv", "bcoeff", "--n", "3", "--k", "1"],
    ["project-endo", "--n", "2", "--k", "1", "--diag", "[1, 2, 3]"],
]


@pytest.mark.parametrize("argv", PLETHYSM_REQUESTS)
def test_plethysm_requests_load_only_plethysm(argv):
    # only the projection of a rational diagonal needs `exactlin`
    loaded, heavy = request(argv)
    assert loaded == documented(argv)
    assert heavy == []


#: the integer requests that read a JSON argument: `hecke` at one Weyl element, at the
#: identity and at all of them, and `project-endo` of JSON ints and of integer strings
JSON_INTEGER_REQUESTS = [
    ["hecke", "--g", "3", "--t", '{"a": [4, 3, 0], "a0": -1}', "--weyl",
     '{"nu": [2, 3, 1], "eps": [1, -1, -1]}'],
    ["hecke", "--g", "2", "--t", '{"a":[1,0],"a0":-2}'],
    ["hecke", "--g", "3", "--t", '{"a":[4,4,0],"a0":-1}', "--all"],
    ["project-endo", "--n", "2", "--k", "1", "--diag", "[1, -2, 3]"],
    ["project-endo", "--n", "3", "--k", "2", "--diag", '["8", "-3", "0", " +5 "]'],
]

#: requests whose every value is an integer, or a plain a/b steinberg --L, which `phin` reads
#: in integers; only a decimal point or an exponent in --L needs `exactlin`
INTEGER_REQUESTS = [
    ["phin", "--case", "crystalline_split", "--n", "3", "--weight", "5", "--all-submodules",
     "--benois", "--gr1"],
    ["phin", "--case", "crystalline_nonsplit", "--n", "3", "--all-submodules", "--benois", "--gr1"],
    ["phin", "--case", "steinberg", "--n", "3", "--all-submodules", "--benois", "--gr1"],
    ["phin", "--case", "steinberg", "--n", "3", "--L=-3/4", "--all-submodules", "--benois",
     "--gr1"],
    ["phin", "--case", "steinberg", "--n", "3", "--L=6"],
    ["bcoeff", "--n", "4", "--k", "2"],
    ["bcoeff", "--n", "4", "--k", "2", "--i", "1"],
    ["--format", "csv", "bcoeff", "--n", "3", "--k", "1"],
    ["obstruction", "--exponents", "3,2,1,0", "--check-N", "6"],
    ["cg", "--m", "2", "--n", "2", "--p", "2", "--u", "1", "--v", "1", "--w", "1"],
    ["cg", "--m", "2", "--n", "2", "--p", "2", "--table"],
    *JSON_INTEGER_REQUESTS,
]


def fraction_modules(argv, code=0, stdin: str = "", also=()) -> list[str]:
    """Which of `fractions`, `decimal`, `numbers`, `exactlin` and the modules `also`
    the request `argv` loads."""
    watched = {"fractions", "decimal", "numbers", "linvariants.exactlin", *also}
    return fresh(
        "import contextlib, io, json, sys\n"
        "from linvariants.cli import main\n"
        f"sys.stdin = io.TextIOWrapper(io.BytesIO({stdin.encode()!r}))\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main({argv!r}) == {code}\n"
        f"print(json.dumps(sorted({watched!r} & set(sys.modules))))"
    )


@pytest.mark.parametrize("argv", INTEGER_REQUESTS)
def test_integer_requests_load_no_fractions(argv):
    # `fractions` imports `decimal` and `numbers`, which a fresh interpreter has not loaded
    assert fraction_modules(argv) == []


def test_a_decimal_l_loads_exactlin():
    argv = ["phin", "--case", "steinberg", "--n", "3", "--L=0.5"]
    assert fraction_modules(argv) == ["decimal", "fractions", "linvariants.exactlin", "numbers"]


#: `slope` requests of plain JSON input, which `slopes` decides in integers: a hilbert
#: request with `a/b` slopes, and gsp twist searches of int and of `a/b` values
PLAIN_SLOPE_REQUESTS = [
    pytest.param(["slope", "--family", "hilbert", "--input", "-"],
                 '{"k": [4, 6, 2], "w": 0, "slopes": ["1/2", " -7/3 ", "+4"]}', id="hilbert"),
    pytest.param(
        ["slope", "--family", "gsp", "--input", "-"],
        '{"weights": [[5, 3], [4, 4]], "mu0": 0, "t": {"a": [2, 1], "a0": -1},'
        ' "slopes": [300, 7], "find_twist": true}', id="gsp-int",
    ),
    pytest.param(
        ["slope", "--family", "gsp", "--input", "-"],
        '{"weights": [["5/2", 3]], "mu0": "1/3", "t": {"a": ["3/2", "1/2"], "a0": "1/3"},'
        ' "slopes": ["401/3"], "find_twist": true}', id="gsp-ratio",
    ),
]


@pytest.mark.parametrize("argv, stdin", PLAIN_SLOPE_REQUESTS)
def test_plain_slope_requests_load_no_fractions(argv, stdin):
    # nor `__future__`, which `slopes` no longer imports
    assert fraction_modules(argv, stdin=stdin, also=["__future__"]) == []


def test_a_decimal_slope_loads_exactlin():
    # a spelling past plain `a` or `a/b` goes through `exactlin.rational`
    argv = ["slope", "--family", "hilbert", "--input", "-"]
    stdin = '{"k": [3], "w": 1, "slopes": ["0.5"]}'
    assert fraction_modules(argv, stdin=stdin) == ["decimal", "fractions",
                                                   "linvariants.exactlin", "numbers"]


#: the standard library's JSON reader and writer, which `cliargs._json_text`, `_emit` (to indent)
#: and `jsonargs` import when they run
JSON = ("json", "json.decoder", "json.encoder", "json.scanner", "_json")


def json_modules(argv=None, code=0, stdin: str = ""):
    """(which of `JSON` are loaded, stdout) after `import linvariants.cli` and the request `argv`.

    The set is taken before `fresh`'s own `import json`, which prints it."""
    request = "" if argv is None else (
        f"with contextlib.redirect_stdout(out):\n    assert main({argv!r}) == {code}\n")
    return fresh(
        "import contextlib, io, sys\n"
        "from linvariants.cli import main\n"
        f"sys.stdin = io.TextIOWrapper(io.BytesIO({stdin.encode()!r}))\n"
        "out = io.StringIO()\n"
        f"{request}"
        f"loaded = sorted(set({JSON!r}) & set(sys.modules))\n"
        "import json\n"
        "print(json.dumps([loaded, out.getvalue()]))"
    )


#: the requests whose handler writes its own compact JSON text: each `phin` case with and
#: without its listing, a `cg` table and entry, a `bcoeff` row and entry, and `obstruction`
TEXT_REQUESTS = [
    *(["phin", "--case", case, "--n", "3", *flags]
      for case in ("crystalline_split", "crystalline_nonsplit")
      for flags in ([], ["--all-submodules", "--benois", "--gr1"])),
    ["phin", "--case", "steinberg", "--n", "3", "--L=-3/4"],
    ["phin", "--case", "steinberg", "--n", "3", "--L=6", "--all-submodules", "--benois", "--gr1"],
    ["cg", "--m", "2", "--n", "2", "--p", "2", "--table"],
    ["cg", "--m", "2", "--n", "2", "--p", "2", "--u", "1", "--v", "1", "--w", "1"],
    ["bcoeff", "--n", "4", "--k", "2"],
    ["bcoeff", "--n", "4", "--k", "2", "--i", "1"],
    ["obstruction", "--exponents", "3,2,1,0"],
    ["obstruction", "--exponents", "3,2,1,0", "--check-N", "6"],
    *JSON_INTEGER_REQUESTS,
]


def test_cli_import_loads_no_json():
    assert json_modules() == [[], ""]


@pytest.mark.parametrize("argv", TEXT_REQUESTS)
def test_integer_requests_load_no_json(argv):
    loaded, out = json_modules(argv)
    assert loaded == []
    assert json.loads(out)  # the line is JSON all the same


#: a `linv` request per family and a `slope` request per family, each reading plain JSON
#: from stdin: their handlers write the answer as text, so these load no `json` either
PLAIN_INPUT_REQUESTS = [
    pytest.param(
        ["linv", "--family", "hilbert", "--input", "-", "--compare-theorem", "A"],
        '{"places": [{"gradients": {"a_1": "1"}}, {"gradients": {"a_1": "-2/3"}}],'
        ' "direction": {"u": [1, 2], "u0": 1}}', id="linv-hilbert",
    ),
    pytest.param(
        ["linv", "--family", "gsp4_spin", "--input", "-"],
        '{"places": [{"gradients": {"a_1": "1", "a_2": "2"}}], "direction": {"u": [1, 2]}}',
        id="linv-gsp4_spin",
    ),
    pytest.param(
        ["linv", "--family", "gsp_std", "--input", "-", "--compare-theorem", "C"],
        '{"params": {"g": 2}, "places": [{"gradients": {"a_1": "1", "a_2": "3"}}],'
        ' "direction": {"u": [1, 2], "u0": 0}}', id="linv-gsp_std",
    ),
    pytest.param(
        ["linv", "--family", "unitary", "--input", "-", "--compare-theorem", "D2"],
        '{"params": {"n": 1}, "places": [{"gradients": {"a_1": "1", "a_2": "3", "a_3": 0,'
        ' "a_4": -1}}], "direction": {"u": [1, 2, 5, 7], "u0": 0}}', id="linv-unitary",
    ),
    pytest.param(["slope", "--family", "hilbert", "--input", "-"],
                 '{"k": [3, 5], "w": 1, "slopes": ["0", "1/2"]}', id="slope-hilbert"),
    pytest.param(
        ["slope", "--family", "gsp", "--input", "-"],
        '{"weights": [[5, 3]], "mu0": 0, "t": {"a": [0, 0], "a0": -1}, "slopes": [0],'
        ' "find_twist": true}', id="slope-gsp",
    ),
]


@pytest.mark.parametrize("argv, stdin", PLAIN_INPUT_REQUESTS)
def test_linv_and_slope_requests_of_plain_input_load_no_json(argv, stdin):
    loaded, out = json_modules(argv, stdin=stdin)
    assert loaded == []
    assert out == json.dumps(json.loads(out), sort_keys=True, separators=(",", ":")) + "\n"


@pytest.mark.parametrize("argv, stdin",
                         [p for p in PLAIN_INPUT_REQUESTS if p.id.startswith("linv")])
def test_plain_linv_requests_load_no_fractions(argv, stdin):
    # `linv` reads each scalar as an integer pair and computes in integers; nor does it load
    # `__future__`, which neither `linv` nor `exactlin` imports any more
    assert fraction_modules(argv, stdin=stdin, also=["__future__"]) == []


def test_a_decimal_linv_gradient_loads_fractions():
    # a spelling past plain `a` or `a/b` goes through `exactlin`, which reads it as a Fraction
    argv = ["linv", "--family", "hilbert", "--input", "-"]
    stdin = '{"places": [{"gradients": {"a_1": "0.5e1"}}], "direction": {"u": [1], "u0": 1}}'
    assert fraction_modules(argv, stdin=stdin) == ["decimal", "fractions",
                                                   "linvariants.exactlin", "numbers"]


#: one refusal per handler module, each through its own handler
HANDLER_REFUSALS = [
    pytest.param(["bcoeff", "--n", "601", "--k", "1"], id="plethysm"),
    pytest.param(["phin", "--case", "crystalline_split", "--n", "9", "--all-submodules"], id="phin"),
    pytest.param(["hecke", "--all", "--g", "7", "--t", '{"a": [0, 0, 0, 0, 0, 0, 0], "a0": 0}'],
                 id="weylhecke"),
    pytest.param(["linv", "--family", "hilbert", "--input", "no-such-file.json"], id="linv"),
    pytest.param(["cg", "--m", "151", "--n", "1", "--p", "1", "--u", "0", "--v", "0", "--w", "0"],
                 id="cg"),
    pytest.param(["obstruction", "--exponents", ","], id="slopes"),
]


@pytest.mark.parametrize(
    "argv, code",
    [
        pytest.param(
            ["recover-chi", "--g", "2", "--eigs", '[{"p": "-2"}, {"p": "-3/2"}]',
             "--weights", '{"mu": [0, 0], "mu0": 0}'], 0, id="recover-chi",
        ),
        *(pytest.param(*p.values, 2, id=f"refusal-{p.id}") for p in HANDLER_REFUSALS),
    ],
)
def test_recover_chi_and_refusals_load_json(argv, code):
    # `recover-chi`'s symbols and a refusal's message are text from outside, which `json` escapes
    loaded, out = json_modules(argv, code)
    assert loaded == sorted(JSON)
    assert ("error" in json.loads(out)) == bool(code)


def test_every_handler_answers_in_text(monkeypatch):
    # one answer type: every handler returns compact, key-sorted JSON text for `_emit` to print
    answered = set()
    for argv, stdin in [*((argv, "") for argv in PLETHYSM_REQUESTS),
                        *(p.values for p in [*MATHS_REQUESTS, *PLAIN_INPUT_REQUESTS])]:
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(stdin.encode())))
        args = parse_args(argv)
        text = args.func(args)[0]
        assert isinstance(text, str), argv
        assert text == json.dumps(json.loads(text), sort_keys=True, separators=(",", ":"))
        answered.add(args.command)
    assert answered == set(COMMANDS)


@pytest.mark.parametrize(
    "argv, code",
    [
        (["phin", "--case", "steinberg", "--n", "0"], 2),
        (["--format", "pretty", "phin", "--case", "steinberg", "--n", "2", "--all-submodules"], 0),
        (["--format", "pretty", "cg", "--m", "2", "--n", "2", "--p", "2", "--table"], 0),
        (["hecke", "--g", "2", "--t", '{"a": ["1\\/2", 0], "a0": 0}'], 0),
    ],
    ids=["refusal", "pretty-phin", "pretty-cg", "json-argument"],
)
def test_refusals_pretty_output_and_json_arguments_load_json(argv, code):
    # a refusal's message is escaped by `json`, pretty output is indented from the parsed
    # text, and `jsonargs` hands a JSON argument with an escape, as any outside the plain
    # subset, to `json`
    loaded, out = json_modules(argv, code)
    assert loaded == sorted(JSON)
    value = json.loads(out)
    indented = "pretty" in argv
    assert out == json.dumps(value, sort_keys=True, indent=2 if indented else None,
                             separators=None if indented else (",", ":")) + "\n"
    assert ("error" in value) == bool(code)


@pytest.mark.parametrize(
    "argv, code",
    [
        (["hecke", "--g", "2", "--t", '{"a": [1.5, 0], "a0": 0}'], 2),
        (["hecke", "--g", "2", "--t", '{"a": [1, 0], "a0": 0.0}', "--all"], 2),
        (["project-endo", "--n", "2", "--k", "1", "--diag", "[1, 2.0, 3]"], 2),
    ],
    ids=["hecke", "hecke-all", "project-endo"],
)
def test_a_float_argument_loads_json_and_fractions(argv, code):
    # the plain reader hands a float to `json`, and `exactlin.rational` refuses it
    assert json_modules(argv, code)[0] == sorted(JSON)
    assert fraction_modules(argv, code) == ["decimal", "fractions", "linvariants.exactlin",
                                            "numbers"]


def test_a_rational_torus_loads_neither_fractions_nor_json():
    # `hecke` reads its torus once, as `ratio` pairs, at one Weyl element and under --all
    for extra in ([], ["--all"]):
        argv = ["hecke", "--g", "2", "--t", '{"a": ["3/2", " -1/4 "], "a0": "-1/3"}', *extra]
        assert json_modules(argv)[0] == []
        assert fraction_modules(argv) == []


#: one request or more per subcommand besides `bcoeff` and `project-endo`, (argv, stdin)
MATHS_REQUESTS = [
    pytest.param(
        ["phin", "--case", "steinberg", "--n", "2", "--L=-3/4", "--all-submodules", "--benois",
         "--gr1"], "",
        id="phin",
    ),
    pytest.param(["hecke", "--g", "2", "--t", '{"a": [1, 0], "a0": 0}', "--all"], "", id="hecke"),
    pytest.param(
        ["recover-chi", "--g", "2", "--eigs", '[{"p": "-2"}, {"p": "-3/2"}]',
         "--weights", '{"mu": [0, 0], "mu0": 0}'], "", id="recover-chi",
    ),
    pytest.param(
        ["slope", "--family", "hilbert", "--input", "-"], '{"k": [3], "w": 1, "slopes": ["0"]}',
        id="slope",
    ),
    pytest.param(
        ["slope", "--family", "gsp", "--input", "-"],
        '{"weights": [[5, 3]], "mu0": 0, "t": {"a": [0, 0], "a0": -1}, "slopes": [0],'
        ' "find_twist": true}', id="slope-gsp",
    ),
    pytest.param(["obstruction", "--exponents", "3,2,1,0", "--check-N", "6"], "", id="obstruction"),
    pytest.param(
        ["cg", "--m", "2", "--n", "2", "--p", "2", "--u", "1", "--v", "1", "--w", "1"], "", id="cg",
    ),
    pytest.param(["cg", "--m", "2", "--n", "2", "--p", "2", "--table"], "", id="cg-table"),
    pytest.param(
        ["linv", "--family", "gsp4_spin", "--input", "-", "--compare-theorem", "B"],
        '{"places": [{"gradients": {"a_1": "1", "a_2": "2"}}], "direction": {"u": [1, 2]}}',
        id="linv",
    ),
]


@pytest.mark.parametrize("argv, stdin", MATHS_REQUESTS)
def test_maths_requests_load_no_dataclasses(argv, stdin):
    loaded, heavy = request(argv, stdin)
    assert loaded == documented(argv)
    assert heavy == []


def test_the_readme_module_table_has_one_row_per_subcommand():
    # and the requests above, whose loads the rows give, reach every subcommand
    assert sorted(readme_modules()) == sorted(COMMANDS)
    reached = {command for argv in [*PLETHYSM_REQUESTS, *(p.values[0] for p in MATHS_REQUESTS)]
               for command in argv if command in COMMANDS}
    assert reached == set(COMMANDS)


@pytest.mark.parametrize("argv", HANDLER_REFUSALS)
def test_handler_refusals_exit_2_through_the_entry_point(tmp_path, argv):
    # run as `__main__`, cli must catch the CliError its handlers raise: one
    # copy of the class, from `cliargs`, not a second one from a re-imported cli
    path = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    done = subprocess.run(
        [sys.executable, "-m", "linvariants.cli", *argv], cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True,
    )
    assert (done.returncode, done.stderr) == (2, "")
    (line,) = done.stdout.splitlines()
    assert json.loads(line)["error"]["code"] == "input"


def test_oracle_import_loads_no_dataclasses():
    # the brute-force oracle's entry point imports `sl2rep` and nothing else
    loaded, heavy = fresh(f"import json, sys\nimport linvariants.sl2rep\n{LOADED}")
    assert loaded == ["linvariants.exactlin", "linvariants.sl2rep"]
    assert heavy == []


def _benchmark_names():
    """(module, name) pairs the benchmark reads from `linvariants`: the attributes
    perfbench/oracle.py calls on `plethysm` and `sl2rep`, and the tracer's caches."""
    oracle = ast.parse((ROOT / "perfbench" / "oracle.py").read_text())
    names = {
        (node.value.id, node.attr) for node in ast.walk(oracle)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        and node.value.id in ("plethysm", "sl2rep")
    }
    tracing = ast.parse((ROOT / "perfbench" / "tracing.py").read_text())
    (caches,) = [node.value for node in tracing.body if isinstance(node, ast.Assign)
                 and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["CACHES"]]
    return names, set(ast.literal_eval(caches))


def test_the_names_the_benchmark_reads_stay_in_their_modules():
    # the tracer finds a cache only in the module it names, and a traced
    # request whose cache is missing writes no spans
    calls, caches = _benchmark_names()
    assert ("plethysm", "project_endomorphism_diagonal") in calls
    assert ("sl2rep", "brute_force_project") in calls
    assert ("plethysm", "cg_table") in caches
    for module, name in calls | caches:
        value = getattr(importlib.import_module(f"linvariants.{module}"), name)
        assert value.__module__ == f"linvariants.{module}", (module, name)
    for module, name in caches:
        getattr(importlib.import_module(f"linvariants.{module}"), name).cache_info()


def test_every_submodule_is_an_attribute_of_the_package():
    names = fresh(
        "import json, linvariants\n"
        "print(json.dumps([getattr(linvariants, n).__name__ for n in linvariants.__all__]))"
    )
    assert names == [f"linvariants.{n}" for n in linvariants.__all__]


def test_the_layout_table_the_package_and_its_files_name_the_same_modules():
    # a module deleted from one of the three would linger in the others
    files = sorted(path.stem for path in (ROOT / "src" / "linvariants").glob("*.py"))
    assert readme_layout() == linvariants.__all__
    assert files == sorted(["__init__", *linvariants.__all__])


def test_unknown_attribute_of_the_package_raises():
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        linvariants.nope
