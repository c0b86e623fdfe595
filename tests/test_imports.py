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
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import linvariants
from linvariants.cli import COMMANDS

ROOT = Path(__file__).resolve().parent.parent
SRC = str(ROOT / "src")
MATHS = ("linv", "phin", "plethysm", "weylhecke", "slopes", "sl2rep")
#: what every request loads besides its maths: the parser and the handlers' readers
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
    assert not set(CLI) & set(loaded)


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
]


def fraction_modules(argv) -> list[str]:
    """Which of `fractions`, `decimal`, `numbers` and `exactlin` the request `argv` loads."""
    return fresh(
        "import contextlib, io, json, sys\n"
        "from linvariants.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main({argv!r}) == 0\n"
        "print(json.dumps(sorted({'fractions', 'decimal', 'numbers', 'linvariants.exactlin'}"
        " & set(sys.modules))))"
    )


@pytest.mark.parametrize("argv", INTEGER_REQUESTS)
def test_integer_requests_load_no_fractions(argv):
    # `fractions` imports `decimal` and `numbers`, which a fresh interpreter has not loaded
    assert fraction_modules(argv) == []


def test_a_decimal_l_loads_exactlin():
    argv = ["phin", "--case", "steinberg", "--n", "3", "--L=0.5"]
    assert fraction_modules(argv) == ["decimal", "fractions", "linvariants.exactlin", "numbers"]


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


@pytest.mark.parametrize(
    "argv",
    [
        ["bcoeff", "--n", "601", "--k", "1"],
        ["phin", "--case", "crystalline_split", "--n", "9", "--all-submodules"],
        ["hecke", "--all", "--g", "7", "--t", '{"a": [0, 0, 0, 0, 0, 0, 0], "a0": 0}'],
        ["linv", "--family", "hilbert", "--input", "no-such-file.json"],
        ["cg", "--m", "151", "--n", "1", "--p", "1", "--u", "0", "--v", "0", "--w", "0"],
        ["obstruction", "--exponents", ","],
    ],
    ids=["plethysm", "phin", "weylhecke", "linv", "cg", "slopes"],
)
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
