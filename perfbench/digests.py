"""Record the stdout digests of every default-seed request.

    python3 perfbench/digests.py

Run it from the repository root, at the commit whose outputs are the
reference.  It runs each request of each workload's default-seed pass once,
requires its check to pass, and writes the sha256 of every successful
stdout to perfbench/digests.json.  Benchmark runs with the default seed
then require byte-identical output.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import run
import workloads


def main() -> int:
    root = Path.cwd()
    digests: dict[str, dict[str, str]] = {}
    with run.workspace(root) as work:
        spawner = run.Spawner(root, work)
        for name in sorted(workloads.GENERATORS):
            reqs = workloads.generate(name, workloads.DEFAULT_SEED)
            stdins = run.prepare(reqs, work)
            digests[name] = {}
            for req in reqs:
                code, out, _, _ = spawner.run(spawner.command(req), stdins.get(req.rid))
                reason = workloads.verify(req, code, out, None)
                if reason:
                    print(f"{req.rid}: {reason}", file=sys.stderr)
                    return 1
                if code == 0:
                    digests[name][req.rid] = hashlib.sha256(out).hexdigest()
    (run.HERE / "digests.json").write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
