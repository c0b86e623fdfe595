"""A request run as its own process answers as `main(argv)` does in-process.

`python -m linvariants.cli` calls `main()` with no argument list, which
ends the process once the answer is printed: it runs the `atexit`
handlers, flushes stdout and stderr and calls `os._exit`, so the
interpreter's teardown is skipped.  That exit must not change a byte of
stdout or the exit code, and a handler registered before `main` runs must
still run: each request below, one or more per subcommand, a refusal, a
singular direction and `--help`, runs both ways.  `main(argv)` with a list
returns its code.  A reader that closes stdout early leaves the exit code
as it was and stderr silent.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from linvariants.cli import COMMANDS, main

SRC = str(Path(__file__).resolve().parent.parent / "src")

#: a `gsp4_spin` place whose denominator vanishes at the direction: exit 3
SINGULAR = {"params": {}, "direction": {"u": ["2", "1"], "u0": "5"},
            "places": [{"gradients": {"a_1": "1", "a_2": "1"}}]}
SLOPE = {"k": [3], "w": 1, "slopes": ["0"]}

REQUESTS = {
    "cg-table": ["cg", "--m", "78", "--n", "78", "--p", "76", "--table"],
    "cg-table-pretty": ["--format", "pretty", "cg", "--m", "78", "--n", "78", "--p", "76",
                        "--table"],
    "refusal": ["bcoeff", "--n", "601", "--k", "300"],
    "project-endo": ["project-endo", "--n", "3", "--k", "1", "--diag", '[1, "1/2", -2, 5]'],
    "phin": ["phin", "--case", "steinberg", "--n", "3", "--L=-6/4", "--all-submodules",
             "--benois", "--gr1"],
    "hecke": ["hecke", "--g", "3", "--t", '{"a": [4, "3/2", 1], "a0": -1}', "--all"],
    "recover-chi": ["recover-chi", "--g", "2", "--eigs", '[{"p": "-2"}, {"p": "-3/2"}]',
                    "--weights", '{"mu": [0, 0], "mu0": 0}'],
    "slope": ["slope", "--family", "hilbert", "--input", "slope.json"],
    "obstruction": ["obstruction", "--exponents", "7,-3,2,0,11", "--check-N", "5040"],
    "singular": ["linv", "--family", "gsp4_spin", "--input", "singular.json"],
    "help": ["--help"],
}
#: the exit code of each request that does not answer
CODES = {"refusal": 2, "singular": 3}
#: what the `atexit` handler registered before `main` writes to stderr
HANDLER_LINE = b"atexit handler ran\n"


def in_process(argv) -> tuple[int, bytes]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue().encode()


def process(argv) -> subprocess.Popen:
    """`python -m linvariants.cli ARGV`, run as `__main__` after an `atexit` handler is registered."""
    path = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    code = ("import atexit, runpy, sys\n"
            f"atexit.register(lambda: sys.stderr.write({HANDLER_LINE.decode()!r}))\n"
            f"sys.argv = ['linvariants', *{argv!r}]\n"
            "runpy.run_module('linvariants.cli', run_name='__main__')\n")
    return subprocess.Popen([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    """A working directory that holds the `slope` and `singular` requests' inputs."""
    (tmp_path / "singular.json").write_text(json.dumps(SINGULAR))
    (tmp_path / "slope.json").write_text(json.dumps(SLOPE))
    monkeypatch.chdir(tmp_path)


def test_the_requests_reach_every_subcommand():
    assert {token for argv in REQUESTS.values() for token in argv} >= set(COMMANDS)


@pytest.mark.parametrize("name", REQUESTS)
def test_a_fresh_process_prints_what_main_prints_in_process(workdir, name):
    argv = REQUESTS[name]
    with process(argv) as proc:
        stdout, stderr = proc.communicate()
    code, expected = in_process(argv)
    assert (proc.returncode, stderr) == (code, HANDLER_LINE)
    assert stdout == expected
    assert code == CODES.get(name, 0)
    if name.startswith("cg-table"):
        assert len(stdout) > 800_000


@pytest.mark.parametrize("name, keep", [("cg-table", 300), ("cg-table-pretty", 300),
                                        ("refusal", 0)])
def test_a_reader_that_closes_early_leaves_the_exit_code(workdir, name, keep):
    # the table fills the pipe, so its writer meets the closed end in `_emit`;
    # the refusal's one line meets it in the final flush
    argv = REQUESTS[name]
    with process(argv) as proc:
        head = proc.stdout.read(keep)
        proc.stdout.close()
        stderr = proc.stderr.read()
        proc.wait()
    code, expected = in_process(argv)
    assert (proc.returncode, stderr) == (code, HANDLER_LINE)
    assert head == expected[:keep]
