"""Exact computation of arithmetic L-invariants for twisted symmetric powers.

Submodules:

* exactlin  -- exact scalars and vectors, fraction-free row reduction
* sl2rep    -- the sl(2) action on End(Sym^n V), weight-graded brute-force oracle
* plethysm  -- inverse Clebsch-Gordan tables and the B_{n,k,i} rows
* phin      -- (phi,N)-modules, N as a coordinate map, the 3-step filtration
* weylhecke -- GSp(2g) Weyl combinatorics, Hecke eigenvalues, slope bounds
* linv      -- triangulation rows, one pair of linear forms per place
* cli       -- JSON/CSV command-line interface
"""

__all__ = [
    "exactlin",
    "sl2rep",
    "plethysm",
    "phin",
    "weylhecke",
    "linv",
    "cli",
]

__version__ = "0.1.0"
