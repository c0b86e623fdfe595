"""Exact computation of arithmetic L-invariants for twisted symmetric powers.

Submodules:

* exactlin  -- exact scalars and vectors
* monomial  -- the free monomial group of Frobenius and Hecke eigenvalues
* sl2rep    -- the sl(2) action on End(Sym^n V), weight-graded brute-force oracle
  with its fraction-free row reduction
* cg        -- single inverse Clebsch-Gordan coefficients and the `cg` subcommand
* plethysm  -- the B_{n,k,i} rows, the diagonal projection and the whole
  inverse Clebsch-Gordan table
* phin      -- (phi,N)-modules, N as a coordinate map, the 3-step filtration
* weylhecke -- GSp(2g) Weyl combinatorics, Hecke eigenvalues, character recovery
* slopes    -- slope bounds, the twist search and the obstruction orders
* linv      -- triangulation rows, one pair of linear forms per place
* cli       -- JSON/CSV command-line interface; each subcommand's handler
  lives in its maths module above
* cliargs   -- the CLI's refusal and JSON argument readers

`linvariants.<name>` imports a submodule on first use.  The registries
live here so that the CLI's parser reads them without importing the maths.
"""

import importlib

__all__ = [
    "exactlin",
    "monomial",
    "sl2rep",
    "cg",
    "plethysm",
    "phin",
    "weylhecke",
    "slopes",
    "linv",
    "cli",
    "cliargs",
]

__version__ = "0.1.0"

#: the local shapes of `phin`
CASES = ("steinberg", "crystalline_split", "crystalline_nonsplit")
#: the triangulated families of `linv`
FAMILIES = ("hilbert", "gsp4_spin", "gsp_std", "unitary")
#: theorem -> (family, B-row rule); the rule maps the family's row (n, k)
#: to the theorem's when the theorem does not use the family's own row
THEOREMS = {
    "A": ("hilbert", None),
    "B": ("gsp4_spin", None),
    "C": ("gsp_std", None),
    "D1": ("unitary", None),
    "D2": ("unitary", lambda n, k: (n, n - 2)),
}


def __getattr__(name: str):
    if name in __all__:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
