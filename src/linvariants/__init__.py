"""Exact computation of arithmetic L-invariants for twisted symmetric powers.

Submodules:

* exactlin  -- exact scalars and vectors
* sl2rep    -- the sl(2) action on End(Sym^n V), weight-graded brute-force oracle
  with its fraction-free block inverse
* plethysm  -- the inverse Clebsch-Gordan table with its weight-triple check,
  the B_{n,k,i} rows and the diagonal projection
* phin      -- the (phi,N)-module answers in closed form: stable and regular
  submodules, the 3-step filtration, the rank-1 graded piece
* weylhecke -- GSp(2g) Weyl combinatorics, Hecke eigenvalues as exponent
  maps of Laurent monomials, character recovery
* slopes    -- slope bounds, the twist search and the obstruction orders
* linv      -- triangulation rows, one pair of linear forms per place
* cli       -- JSON/CSV command-line interface; each subcommand's handler
  lives in its maths module above
* cliargs   -- the CLI's refusal and scalar argument readers
* jsonargs  -- the CLI's JSON argument readers, plain JSON read without `json`

`linvariants.<name>` imports a submodule on first use.  The registries
live here so that the CLI's parser reads them without importing the maths.
"""

import importlib

__all__ = [
    "exactlin",
    "sl2rep",
    "plethysm",
    "phin",
    "weylhecke",
    "slopes",
    "linv",
    "cli",
    "cliargs",
    "jsonargs",
]

__version__ = "0.1.0"

#: the local shapes of `phin`
CASES = ("steinberg", "crystalline_split", "crystalline_nonsplit")
#: the triangulated families of `linv`
FAMILIES = ("hilbert", "gsp4_spin", "gsp_std", "unitary")
#: theorem -> (family, B-row rule, scalar).  The rule maps the family's row
#: (n, k) to the theorem's when the theorem does not use the family's own
#: row.  The scalar is the displayed closed form over the generic formula,
#: the same at every rank: 1 prints `exact` and -1 `sign_flip`
#: (tests/test_theorem_proof.py proves each one)
THEOREMS = {
    "A": ("hilbert", None, 1),
    "B": ("gsp4_spin", None, -1),
    "C": ("gsp_std", None, 1),
    "D1": ("unitary", None, -1),
    "D2": ("unitary", lambda n, k: (n, n - 2), -1),
}


def __getattr__(name: str):
    if name in __all__:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
