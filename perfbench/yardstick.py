"""A fixed piece of Python work that measures how fast the machine is right now.

    python3 -I -S perfbench/yardstick.py

It uses the standard library only, never `linvariants`, so a change to the
program under test cannot change its cost.  Its work resembles a request's:
interpreter start, importing the modules the CLI's import pulls in, exact
rational arithmetic, an elimination over Q whose entries grow, and JSON
encoding.  The runner times it from spawn to exit, as it times a request,
and scales its wall-time metrics by how long it took (see run.py).
"""

import argparse  # noqa: F401
import dataclasses  # noqa: F401
import inspect  # noqa: F401
import json
import pathlib  # noqa: F401
import typing  # noqa: F401
from fractions import Fraction


def main() -> None:
    total = Fraction(0)
    partial = []
    for i in range(1, 3000):
        total += Fraction(i % 97 - 48, i % 89 + 1)
        if i % 40 == 0:
            partial.append(str(total))
    size = 13
    rows = [[Fraction(i * j + 1, i + j + 1) for j in range(size)] for i in range(size)]
    for col in range(size):
        pivot = rows[col][col]
        for r in range(col + 1, size):
            factor = rows[r][col] / pivot
            rows[r] = [a - factor * b for a, b in zip(rows[r], rows[col])]
    table = {k: k * k for k in range(5000)}
    encoded = json.dumps({"partial": partial * 5, "diagonal": [str(rows[i][i]) for i in range(size)]})
    print(len(encoded) + len(table))


if __name__ == "__main__":
    main()
