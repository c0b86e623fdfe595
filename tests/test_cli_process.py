"""A request run as its own process answers as `main(argv)` does in-process.

`python -m linvariants.cli` calls `main()` with no argument list, which
freezes the heap with `gc.freeze()` once the answer is printed, so that the
interpreter's shutdown collections have nothing to traverse.  The frozen
exit must not change a byte of stdout or the exit code: each request below
runs both ways, a large table in both formats, a refusal, a singular
direction and `--help`.  `main(argv)` with a list never freezes.
"""

import contextlib
import gc
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from linvariants.cli import main

SRC = str(Path(__file__).resolve().parent.parent / "src")

#: a `gsp4_spin` place whose denominator vanishes at the direction: exit 3
SINGULAR = {"params": {}, "direction": {"u": ["2", "1"], "u0": "5"},
            "places": [{"gradients": {"a_1": "1", "a_2": "1"}}]}

REQUESTS = {
    "cg-table": ["cg", "--m", "78", "--n", "78", "--p", "76", "--table"],
    "cg-table-pretty": ["--format", "pretty", "cg", "--m", "78", "--n", "78", "--p", "76",
                        "--table"],
    "refusal": ["bcoeff", "--n", "601", "--k", "300"],
    "singular": ["linv", "--family", "gsp4_spin", "--input", "singular.json"],
    "help": ["--help"],
}
#: the exit code of each request that does not answer
CODES = {"refusal": 2, "singular": 3}


def in_process(argv) -> tuple[int, bytes]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue().encode()


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    """A working directory that holds the `singular` request's input."""
    (tmp_path / "singular.json").write_text(json.dumps(SINGULAR))
    monkeypatch.chdir(tmp_path)


@pytest.mark.parametrize("name", REQUESTS)
def test_a_fresh_process_prints_what_main_prints_in_process(workdir, name):
    argv = REQUESTS[name]
    path = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    done = subprocess.run([sys.executable, "-m", "linvariants.cli", *argv],
                          env={**os.environ, "PYTHONPATH": path}, capture_output=True)
    code, stdout = in_process(argv)
    assert (done.returncode, done.stderr) == (code, b"")
    assert done.stdout == stdout
    assert code == CODES.get(name, 0)
    if name.startswith("cg-table"):
        assert len(stdout) > 800_000


def test_main_with_an_argument_list_freezes_nothing(workdir):
    assert gc.get_freeze_count() == 0
    for name, argv in REQUESTS.items():
        assert in_process(argv)[0] == CODES.get(name, 0)
        assert gc.get_freeze_count() == 0
