"""Each request imports only what its subcommand uses.

Every `linvariants` request is a fresh process, so what the CLI imports is
paid on every request.  These checks run in fresh interpreters, since the
test process itself has imported every module long before.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import linvariants

SRC = str(Path(__file__).resolve().parent.parent / "src")
MATHS = ("linv", "phin", "plethysm", "weylhecke", "sl2rep")


def fresh(code: str):
    """The JSON value that `code` prints in a new interpreter with `src` on its path."""
    path = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    out = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, check=True,
    ).stdout
    return json.loads(out.splitlines()[-1])


LOADED = (
    "print(json.dumps([sorted(m for m in sys.modules if m.startswith('linvariants.')),"
    " 'dataclasses' in sys.modules]))"
)


def test_cli_import_loads_no_maths():
    loaded, dataclasses = fresh(f"import json, sys\nimport linvariants.cli\n{LOADED}")
    assert not {f"linvariants.{m}" for m in MATHS} & set(loaded)
    assert not dataclasses


@pytest.mark.parametrize(
    "argv",
    [
        ["bcoeff", "--n", "4", "--k", "2"],
        ["cg", "--m", "2", "--n", "2", "--p", "2", "--table"],
        ["cg", "--m", "2", "--n", "2", "--p", "2", "--u", "1", "--v", "1", "--w", "1"],
        ["project-endo", "--n", "2", "--k", "1", "--diag", "[1, 2, 3]"],
    ],
)
def test_plethysm_requests_load_only_plethysm(argv):
    loaded, dataclasses = fresh(
        "import contextlib, io, json, sys\n"
        "from linvariants.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main({argv!r}) == 0\n"
        f"{LOADED}"
    )
    assert loaded == ["linvariants.cli", "linvariants.exactlin", "linvariants.plethysm"]
    assert not dataclasses


def test_every_submodule_is_an_attribute_of_the_package():
    names = fresh(
        "import json, linvariants\n"
        "print(json.dumps([getattr(linvariants, n).__name__ for n in linvariants.__all__]))"
    )
    assert names == [f"linvariants.{n}" for n in linvariants.__all__]


def test_unknown_attribute_of_the_package_raises():
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        linvariants.nope
