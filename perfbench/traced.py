"""Run one request with layer spans recorded; the traced twin of a request.

    PYTHONPATH=src python3 perfbench/traced.py SPANS_FILE REQUEST_ID cli|oracle ARGS...

The spans are kept in memory and written to SPANS_FILE as JSON when the
process exits.  Standard output and the exit code are the request's own.
"""

from __future__ import annotations

import atexit
import sys
import time

from tracing import LAYERS, Tracer


def main() -> int:
    spans_path, rid, program, *argv = sys.argv[1:]
    start = time.perf_counter()
    import linvariants
    import linvariants.cli as cli

    import_s = time.perf_counter() - start
    tracer = Tracer(int(rid))
    layers = [getattr(linvariants, name) for name in LAYERS]
    tracer.install(layers, layers + [cli])
    atexit.register(tracer.dump, spans_path, {"rid": int(rid), "import_s": import_s})
    if program == "oracle":
        import oracle

        return tracer.call("oracle.main", oracle.main, argv)
    return tracer.call("cli.main", cli.main, argv)


if __name__ == "__main__":
    raise SystemExit(main())
