"""The argparse parser the CLI's option table replaced, kept as a test oracle.

`build_parser` is the parser `linvariants.cli` used to build on every
request: one `ArgumentParser` with a subparser per subcommand.  The tests
check that the option table accepts what it accepts, with the same
attributes, and refuses what it refuses.
"""

import argparse

from linvariants import CASES, FAMILIES, THEOREMS
from linvariants.linv import _cmd_linv
from linvariants.phin import _cmd_phin
from linvariants.plethysm import _cmd_bcoeff, _cmd_cg, _cmd_project_endo
from linvariants.slopes import _cmd_obstruction, _cmd_slope
from linvariants.weylhecke import _cmd_hecke, _cmd_recover_chi


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="linvariants",
        description="Exact tables, module analysis and L-invariant evaluation.",
    )
    parser.add_argument(
        "--format", choices=("json", "csv", "pretty"), default="json"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    cg = sub.add_parser("cg", help="inverse Clebsch-Gordan coefficients")
    cg.add_argument("--m", type=int, required=True)
    cg.add_argument("--n", type=int, required=True)
    cg.add_argument("--p", type=int, required=True)
    cg.add_argument("--table", action="store_true")
    cg.add_argument("--u", type=int)
    cg.add_argument("--v", type=int)
    cg.add_argument("--w", type=int)
    cg.set_defaults(func=_cmd_cg)

    bcoeff = sub.add_parser("bcoeff", help="projection coefficients B_{n,k,i}")
    bcoeff.add_argument("--n", type=int, required=True)
    bcoeff.add_argument("--k", type=int, required=True)
    bcoeff.add_argument("--i", type=int)
    bcoeff.set_defaults(func=_cmd_bcoeff)

    project = sub.add_parser(
        "project-endo", help="project a diagonal endomorphism onto Sym^2k"
    )
    project.add_argument("--n", type=int, required=True)
    project.add_argument("--k", type=int, required=True)
    project.add_argument("--diag", required=True, help="JSON array of rationals")
    project.set_defaults(func=_cmd_project_endo)

    phin_cmd = sub.add_parser("phin", help="filtered (phi,N)-module analysis")
    phin_cmd.add_argument("--case", choices=CASES, required=True)
    phin_cmd.add_argument("--n", type=int, required=True)
    phin_cmd.add_argument("--L", help="Fontaine-Mazur parameter (steinberg)")
    phin_cmd.add_argument("--weight", type=int, help="motivic weight (split case)")
    phin_cmd.add_argument("--all-submodules", action="store_true")
    phin_cmd.add_argument("--benois", action="store_true")
    phin_cmd.add_argument("--gr1", action="store_true")
    phin_cmd.set_defaults(func=_cmd_phin)

    hecke = sub.add_parser("hecke", help="Iwahori-Hecke diagonal eigenvalues")
    hecke.add_argument("--g", type=int, required=True)
    hecke.add_argument("--t", required=True, help='JSON {"a": [...], "a0": ...}')
    hecke.add_argument("--weyl", help='JSON {"nu": [...], "eps": [...]}')
    hecke.add_argument("--all", action="store_true")
    hecke.set_defaults(func=_cmd_hecke)

    recover = sub.add_parser("recover-chi", help="Satake character recovery")
    recover.add_argument("--g", type=int, required=True)
    recover.add_argument("--eigs", help="JSON list of monomials")
    recover.add_argument("--weights", help='JSON {"mu": [...], "mu0": ...}')
    recover.add_argument("--weyl")
    recover.add_argument("--input", help="JSON file path or - for stdin")
    recover.set_defaults(func=_cmd_recover_chi)

    slope = sub.add_parser("slope", help="noncritical slope checks")
    slope.add_argument("--family", choices=("hilbert", "gsp"), required=True)
    slope.add_argument("--input", required=True, help="JSON file path or - for stdin")
    slope.set_defaults(func=_cmd_slope)

    obstruction = sub.add_parser(
        "obstruction", help="root-of-unity regularity obstruction orders"
    )
    obstruction.add_argument("--exponents", required=True, help="comma list")
    obstruction.add_argument("--check-N", type=int, dest="check_N")
    obstruction.set_defaults(func=_cmd_obstruction)

    linv_cmd = sub.add_parser("linv", help="evaluate the L-invariant formulas")
    linv_cmd.add_argument("--family", choices=FAMILIES, required=True)
    linv_cmd.add_argument("--input", required=True, help="JSON file path or - for stdin")
    linv_cmd.add_argument("--compare-theorem", choices=THEOREMS)
    linv_cmd.set_defaults(func=_cmd_linv)
    return parser
