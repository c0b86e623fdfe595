"""Every function in `src/` runs on some request: a runtime reachability guard.

The benchmark's passes at seed 0 (`perfbench/workloads.py`, read only here)
run in-process under `sys.settrace`: `modules`, `tables` and `quick` through
`cli.main`, and `oracle` through `perfbench/oracle.py`'s `main`.  A few more
requests add what the passes leave out: the error paths and a `hecke`
request without `--weyl`.  Every function of `src/linvariants` that none of
them enters fails the test unless `ALLOWED` names it with its reason.  The
static guard in `test_no_test_only_code.py` counts a name used anywhere as
used; this one counts only what runs.
"""

import contextlib
import importlib.util
import inspect
import io
import sys
from pathlib import Path

import linvariants
from linvariants import cli

ROOT = Path(__file__).resolve().parent.parent
SRC = Path(linvariants.__file__).parent  # as imported, so that it matches co_filename

#: (file, qualified name) -> why no request enters it
ALLOWED = {
    ("__init__.py", "__getattr__"): "the lazy submodule import of `linvariants.<name>`, "
    "which perfbench/traced.py and library users go through",
    ("monomial.py", "EigenMonomial.__repr__"): "the monomial in test failure messages",
}

#: requests beyond the benchmark passes, (argv, stdin): a hecke request without
#: --weyl (WeylElement.identity), usage, a parse refusal, and two domain refusals
EXTRA = [
    (["hecke", "--g", "2", "--t", '{"a": [0, 0], "a0": 1}'], ""),
    (["--help"], ""),
    (["bcoeff", "--n", "x", "--k", "1"], ""),
    (["recover-chi", "--g", "2", "--eigs", '[{"p": 1}, {"p": 1}]',
      "--weights", '{"mu": [0], "mu0": 0}'], ""),
    (["slope", "--family", "gsp", "--input", "-"],
     '{"weights": [[0, 0]], "mu0": 0, "t": {"a": [0, 1], "a0": 0}, "slopes": [0]}'),
]

COMPREHENSIONS = {"<listcomp>", "<setcomp>", "<dictcomp>", "<genexpr>"}


def _functions(code, path):
    """(file, qualified name) of every function code object under `code`."""
    for const in code.co_consts:
        if inspect.iscode(const):
            if const.co_flags & inspect.CO_OPTIMIZED and const.co_name not in COMPREHENSIONS:
                yield path.name, const.co_qualname
            yield from _functions(const, path)


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def _run(main, argv, stdin, monkeypatch) -> tuple[int, str]:
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return code, out.getvalue()


def test_every_src_function_runs_on_some_request(tmp_path, monkeypatch):
    workloads, oracle = _load("workloads"), _load("oracle")
    for module in list(sys.modules.values()):  # a cached result would hide its function
        if getattr(module, "__name__", "").startswith("linvariants."):
            for value in vars(module).values():
                if hasattr(value, "cache_clear"):
                    value.cache_clear()
    monkeypatch.chdir(tmp_path)
    entered, prefix = set(), str(SRC)

    def trace(frame, event, arg):
        code = frame.f_code
        if code.co_filename.startswith(prefix):
            entered.add((Path(code.co_filename).name, code.co_qualname))

    runs = []
    sys.settrace(trace)
    try:
        for name in ("modules", "tables", "quick", "oracle"):
            for req in workloads.generate(name, workloads.DEFAULT_SEED):
                for file, content in req.files.items():
                    (tmp_path / file).write_bytes(content)
                main = oracle.main if req.program == "oracle" else cli.main
                runs.append((req, *_run(main, req.argv, req.stdin.decode(), monkeypatch)))
        extra = [_run(cli.main, argv, stdin, monkeypatch) for argv, stdin in EXTRA]
    finally:
        sys.settrace(None)
    # the values are the benchmark's to check; here each request must end as it should
    assert [req.rid for req, code, out in runs if code != req.expect_code] == []
    assert [code for code, _ in extra] == [0, 0, 2, 2, 2]
    defined = set()
    for path in sorted(SRC.glob("*.py")):
        defined.update(_functions(compile(path.read_text(), str(path), "exec"), path))
    assert set(ALLOWED) <= defined, "an allowed function no longer exists"
    never = sorted(f"{file}:{name}" for file, name in defined - entered - set(ALLOWED))
    assert never == [], "functions that no request enters: " + ", ".join(never)
