"""One oracle request: the diagonal projection against the brute-force oracle.

For one (n, k) and each given diagonal this prints the closed-form
projection (`plethysm.project_endomorphism_diagonal`) next to the V_{2k}
block of the brute-force coordinates (`sl2rep.brute_force_project`), which
solves the (n+1)^2 change of basis by one elimination.  The benchmark checks
the relations between the two.

    PYTHONPATH=src python3 perfbench/oracle.py --n 8 --k 3 --diags '[[1,2,...],[...]]'
"""

from __future__ import annotations

import argparse
import json
from fractions import Fraction

from linvariants import plethysm, sl2rep


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="oracle")
    parser.add_argument("--n", type=int, required=True)
    parser.add_argument("--k", type=int, required=True)
    parser.add_argument("--diags", required=True, help="JSON list of diagonals")
    args = parser.parse_args(argv)
    rows = []
    for diag in json.loads(args.diags):
        diag = [Fraction(x) for x in diag]
        projection = plethysm.project_endomorphism_diagonal(args.n, args.k, diag)
        coords = sl2rep.brute_force_project(sl2rep.EndoElement.diagonal(diag), args.k)
        rows.append({
            "middle": str(projection.middle),
            "tail": [str(x) for x in projection.tail],
            "coords": [str(c) for c in coords],
        })
    print(json.dumps({"n": args.n, "k": args.k, "rows": rows}, sort_keys=True, separators=(",", ":")))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
