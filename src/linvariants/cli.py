"""Command-line front end: table generation, module analysis, L-invariants.

Every subcommand is deterministic (identical inputs give byte-identical
output).  Rationals are serialized as "num/den" strings so no consumer
ever sees a rounded value.  Exit codes: 0 success, 2 malformed input or
domain/precondition error, 3 mathematical singularity (zero denominator
at the chosen direction); every error, a parse error too, prints one JSON line.

Each request is a fresh process, so options are read from one table, not
argparse, and a subcommand imports its maths module only when it runs.
"""

import json
import re
import sys
from types import SimpleNamespace

from . import CASES, FAMILIES, THEOREMS
from .exactlin import rational


#: largest sizes whose exponential listings are computed: `hecke --all`
#: prints 2^g g! rows, `phin --all-submodules` without monodromy 2^(2n+1)
#: stable sets; one step past each cap costs over 200 MB
HECKE_ALL_MAX_G = 6
ALL_SUBMODULES_MAX_N = 8
#: largest sizes of the polynomial-cost tables, each about 10 s and 100 MB
#: at most (the cost table is in CHANGES.md): `bcoeff` n, every index of
#: `cg`, `project-endo` n, `recover-chi` g, and per `linv` family the
#: `params` key of its rank with that rank's cap
BCOEFF_MAX_N = 600
CG_MAX_INDEX = 150
PROJECT_ENDO_MAX_N = 250
RECOVER_CHI_MAX_G = 500
LINV_RANK_CAPS = {"gsp_std": ("g", 200), "unitary": ("n", 100)}


class CliError(Exception):
    """A refused request; `error` is the JSON object printed for it."""

    def __init__(self, message: str, exit_code: int = 2, **fields):
        super().__init__(message)
        self.exit_code = exit_code
        self.error = {"code": "input", **fields, "message": message}


def _monomial_json(m) -> dict:
    return {sym: str(e) for sym, e in m.exponents}


def _json_object(value, label: str) -> dict:
    if not isinstance(value, dict):
        raise CliError(f"{label} must be a JSON object, not {value!r}")
    return value


def _parse_json_arg(text: str, label: str):
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as err:
        raise CliError(f"malformed JSON for {label}: {err}") from err


def _json_keys(text: str, label: str, *keys: str) -> dict:
    """The JSON object argument `label`, which must hold every one of `keys`."""
    obj = _json_object(_parse_json_arg(text, label), label)
    for key in keys:
        if key not in obj:
            raise CliError(f"{label} needs the key {key!r}")
    return obj


def _load_input(args) -> dict:
    if args.input == "-":
        obj = _parse_json_arg(sys.stdin.read(), "--input")
    else:
        try:
            with open(args.input, "r", encoding="utf-8") as handle:
                obj = json.load(handle)
        except OSError as err:
            raise CliError(f"cannot read input file: {err}") from err
        except (json.JSONDecodeError, RecursionError) as err:
            raise CliError(f"malformed JSON in input file: {err}") from err
    return _json_object(obj, "--input")


def _emit(payload, fmt: str, csv_header: str | None = None, csv_rows=None) -> str:
    if fmt == "json":
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))
    if fmt == "csv":
        if csv_header is None or csv_rows is None:
            raise CliError("csv output is only available for table commands")
        return "\n".join([csv_header, *(",".join(str(x) for x in row) for row in csv_rows)])
    return json.dumps(payload, sort_keys=True, indent=2)


def _cap(value: int, cap: int, what: str) -> None:
    if value > cap:
        raise CliError(f"{what} > {cap} is refused")


def _cmd_cg(args) -> tuple[dict, str | None, list | None]:
    from . import plethysm
    m, n, p = args.m, args.n, args.p
    _cap(max(m, n, p), CG_MAX_INDEX, "cg --m, --n or --p")
    if args.table:
        if (args.u, args.v, args.w) != (None, None, None):
            raise CliError("--table and --u, --v, --w exclude each other")
        table = plethysm.cg_table(m, n, p)
        rows = [(*key, str(table[key])) for key in sorted(table)]
        return {"m": m, "n": n, "p": p, "rows": rows}, "u,v,w,value", rows
    if args.u is None or args.v is None or args.w is None:
        raise CliError("either --table or all of --u --v --w are required")
    value = plethysm.cg_coefficient(m, n, p, args.u, args.v, args.w)
    return {"value": str(value)}, None, None


def _cmd_bcoeff(args) -> tuple[dict, str | None, list | None]:
    from . import plethysm
    _cap(args.n, BCOEFF_MAX_N, "bcoeff --n")
    if args.i is not None:
        value = plethysm.b_coefficient(args.n, args.k, args.i)
        rows = [(args.n, args.k, args.i, str(value))]
        return {"value": str(value)}, "n,k,i,value", rows
    row = plethysm.b_row(args.n, args.k)
    rows = [(args.n, args.k, i, str(x)) for i, x in enumerate(row)]
    return {"values": [str(x) for x in row]}, "n,k,i,value", rows


def _cmd_project_endo(args) -> tuple[dict, str | None, list | None]:
    from . import plethysm
    _cap(args.n, PROJECT_ENDO_MAX_N, "project-endo --n")
    diag = _parse_json_arg(args.diag, "--diag")
    if not isinstance(diag, list):
        raise CliError("--diag must be a JSON array of rationals")
    result = plethysm.project_endomorphism_diagonal(
        args.n, args.k, [rational(x) for x in diag]
    )
    return {
        "middle": str(result.middle),
        "tail": [str(x) for x in result.tail],
    }, None, None


def _subspace_json(module, space) -> list[int]:
    return list(module.f_indices_of(space))


def _cmd_phin(args) -> tuple[dict, str | None, list | None]:
    from . import phin
    if args.all_submodules and args.case != phin.STEINBERG and args.n > ALL_SUBMODULES_MAX_N:
        raise CliError(
            f"--all-submodules lists 2^(2n+1) sets in case {args.case}; "
            f"n > {ALL_SUBMODULES_MAX_N} is refused"
        )
    module = phin.build_case(
        args.case, args.n, l_invariant=args.L, weight=args.weight
    )
    payload: dict = {
        "case": module.case,
        "n": module.n,
        "dim": module.dim,
        # Fil^0 is the multiples of a nonzero degree-n form, and multiplying
        # by it is injective on the n+1 monomials of degree n
        "fil0_dim": module.n + 1,
        "phi": [_monomial_json(lam) for lam in module.phi],
    }
    if module.l_invariant is not None:
        payload["L"] = str(module.l_invariant)
    if args.all_submodules:
        payload["stable_submodules"] = [
            _subspace_json(module, s) for s in phin.stable_submodules(module)
        ]
        payload["regular_submodules"] = [
            _subspace_json(module, s) for s in phin.regular_submodules(module)
        ]
    if args.benois or args.gr1:
        d = phin.canonical_regular_submodule(module)
        payload["D"] = _subspace_json(module, d)
        if args.benois:
            filtration = phin.benois_filtration(module, d)
            payload["benois"] = {
                "D_minus1": _subspace_json(module, filtration.d_minus1),
                "D_0": _subspace_json(module, filtration.d_0),
                "D_1": _subspace_json(module, filtration.d_1),
            }
        if args.gr1:
            rank, eigenvalue = phin.gr1_data(module, d)
            payload["gr1"] = {
                "rank": rank,
                "eigenvalue": None if eigenvalue is None else _monomial_json(eigenvalue),
            }
    return payload, None, None


def _weyl_from_args(args, g: int):
    from .weylhecke import WeylElement
    if args.weyl is None:
        return WeylElement.identity(g)
    return WeylElement.from_json(_json_keys(args.weyl, "--weyl", "nu", "eps"))


def _cmd_hecke(args) -> tuple[dict, str | None, list | None]:
    from . import weylhecke
    g = args.g
    if args.all and g > HECKE_ALL_MAX_G:
        raise CliError(f"--all lists 2^g g! Weyl elements; g > {HECKE_ALL_MAX_G} is refused")
    t_obj = _json_keys(args.t, "--t", "a", "a0")
    t = weylhecke.TorusExponent.make(t_obj["a"], t_obj["a0"])
    if t.g != g:
        raise CliError("torus exponent length differs from g")
    chi = weylhecke.CharacterData.generic(g)
    if args.all:
        if args.weyl is not None:
            raise CliError("--weyl and --all exclude each other")
        ws = weylhecke.weyl_group(g)
        entries = [
            {"weyl": w.to_json(), "value": _monomial_json(value)}
            for w, value in zip(ws, weylhecke.hecke_diagonals(chi, t, ws))
        ]
        return {"g": g, "eigenvalues": entries}, None, None
    w = _weyl_from_args(args, g)
    value = weylhecke.hecke_diagonal(chi, t, w)
    return {"g": g, "weyl": w.to_json(), "value": _monomial_json(value)}, None, None


def _cmd_recover_chi(args) -> tuple[dict, str | None, list | None]:
    from . import weylhecke
    g = args.g
    _cap(g, RECOVER_CHI_MAX_G, "recover-chi --g")
    eigs = _parse_json_arg(args.eigs, "--eigs")
    weights = _json_keys(args.weights, "--weights", "mu", "mu0")
    w = _weyl_from_args(args, g)
    recovered = weylhecke.recover_characters(
        g,
        [weylhecke.EigenMonomial.from_dict(_json_object(e, "a monomial")) for e in eigs],
        weights["mu"],
        weights["mu0"],
        w,
    )
    return {
        "chi": [_monomial_json(c) for c in recovered.chi],
        "sigma": _monomial_json(recovered.sigma),
    }, None, None


def _cmd_slope(args) -> tuple[dict, str | None, list | None]:
    from . import weylhecke
    obj = _load_input(args)
    if args.family == "hilbert":
        ok = weylhecke.slope_check_hilbert(obj["k"], obj["w"], obj["slopes"])
        return {"noncritical": ok}, None, None
    t = weylhecke.TorusExponent.make(obj["t"]["a"], obj["t"]["a0"])
    payload: dict = {
        "noncritical": weylhecke.slope_check_gsp(
            obj["weights"], obj["mu0"], t, obj["slopes"]
        )
    }
    if obj.get("find_twist"):
        payload["twist"] = weylhecke.twist_search(
            obj["weights"], obj["mu0"], t, obj["slopes"]
        )
    return payload, None, None


def _cmd_obstruction(args) -> tuple[dict, str | None, list | None]:
    from . import weylhecke
    exponents = [int(x) for x in args.exponents.split(",") if x.strip() != ""]
    if not exponents:
        raise CliError("--exponents needs at least one exponent")
    orders = weylhecke.refinement_obstruction_orders(exponents)
    payload: dict = {"orders": sorted(orders)}
    if args.check_N is not None:
        payload["check_N"] = {
            "N": args.check_N,
            "sufficient": weylhecke.exclusion_sufficient(orders, args.check_N),
        }
    return payload, None, None


def _cmd_linv(args) -> tuple[dict, str | None, list | None]:
    from . import linv
    obj = _load_input(args)
    family = args.family
    params = _json_object(obj.get("params", {}), "params")
    places_obj = obj["places"]
    direction_obj = obj["direction"]
    direction = linv.Direction.make(direction_obj["u"], direction_obj.get("u0", 0))
    which = args.compare_theorem
    if which and THEOREMS[which][0] != family:
        raise CliError(
            f"theorem {which} belongs to family {THEOREMS[which][0]}, not {family}"
        )
    rank = None
    if family in LINV_RANK_CAPS:
        key, cap = LINV_RANK_CAPS[family]
        rank = params.get(key)
        if isinstance(rank, int):
            _cap(rank, cap, f"linv --family {family} {key}")
    data = linv.family_data(
        family, places=len(places_obj), g=params.get("g"), n=params.get("n")
    )
    if which:
        data = linv.theorem_row(which, data)
    assignments = []
    for place in places_obj:
        gradients = place["gradients"]
        assignments.append(
            [rational(gradients[f"a_{j}"]) for j in range(1, data.num_hecke + 1)]
        )
    try:
        pairs = linv.per_place_pairs(data, direction, assignments)
    except linv.SingularDirectionError as err:
        raise CliError(str(err), 3, code="singular_direction", place=err.place) from err
    payload: dict = {
        "value": str(linv.rank1_combine(pairs)),
        "per_place": [
            {"a": str(a), "b": str(b), "value": str(a / b)}
            for a, b in pairs
        ],
    }
    if which:
        payload["classification"] = linv.compare_to_theorem(which, n=rank).to_json()
    return payload, None, None


#: subcommand -> (handler, option -> (type, required)); the type is int, str, a tuple of
#: choices or None for a flag.  `--check-N` sets `args.check_N`; no name begins another.
COMMANDS = {
    "cg": (_cmd_cg, {"m": (int, True), "n": (int, True), "p": (int, True), "table": (None, False),
                     "u": (int, False), "v": (int, False), "w": (int, False)}),
    "bcoeff": (_cmd_bcoeff, {"n": (int, True), "k": (int, True), "i": (int, False)}),
    "project-endo": (_cmd_project_endo, {"n": (int, True), "k": (int, True), "diag": (str, True)}),
    "phin": (_cmd_phin, {"case": (CASES, True), "n": (int, True), "L": (str, False),
                         "weight": (int, False), "all-submodules": (None, False),
                         "benois": (None, False), "gr1": (None, False)}),
    "hecke": (_cmd_hecke, {"g": (int, True), "t": (str, True), "weyl": (str, False),
                           "all": (None, False)}),
    "recover-chi": (_cmd_recover_chi, {"g": (int, True), "eigs": (str, True),
                                       "weights": (str, True), "weyl": (str, False)}),
    "slope": (_cmd_slope, {"family": (("hilbert", "gsp"), True), "input": (str, True)}),
    "obstruction": (_cmd_obstruction, {"exponents": (str, True), "check-N": (int, False)}),
    "linv": (_cmd_linv, {"family": (FAMILIES, True), "input": (str, True),
                         "compare-theorem": (tuple(THEOREMS), False)}),
}


def _option(token: str, options: dict) -> tuple:
    """(name, text after "=" or None) of `token`; the name is None for a value, "" if unknown.

    A unique prefix names its option, and `-h` is `--help`.  A token that
    begins with "-" is a value only when it is "-", a negative number or holds a space.
    """
    token = "--help" + token[2:] if token[:2] == "-h" else token
    if token[:2] == "--" and token != "--":
        name, eq, text = token[2:].partition("=")
        names = [o for o in (*options, "help") if o.startswith(name)]
        if len(names) > 1:
            raise CliError(f"{token} is ambiguous: it could be --" + ", --".join(names))
        if names:
            return names[0], text if eq else None
    value = token[:1] != "-" or token == "-" or " " in token or re.match(r"-\d*\.?\d+$", token)
    return None if value else "", None


def parse_args(argv):
    """The attributes `argv` sets, or None once --help printed usage; refusals raise CliError."""
    values, command, i = {"format": "json"}, None, 0
    options = {"format": (("json", "csv", "pretty"), False)}
    while i < len(argv):
        token, i = argv[i], i + 1
        name, text = _option(token, options)
        kind = options[name][0] if name in options else None
        if name is None and command is None and token in COMMANDS:
            command, (func, options) = token, COMMANDS[token]
        elif not name:
            raise CliError(f"{command or 'linvariants'} does not know {token!r}")
        elif kind is None and text is not None:
            raise CliError(f"--{name} takes no value, not {text!r}")
        elif name == "help":
            print(f"usage: linvariants {command or '[--format FORMAT] SUBCOMMAND'} [options]")
            if command is None:
                print("subcommands: " + ", ".join(COMMANDS))
            for o, (kind, required) in options.items():
                shown = kind.__name__ if kind in (int, str) else kind and "{%s}" % ",".join(kind)
                print(f"  --{o} {shown or ''}".rstrip() + ("  (required)" if required else ""))
            return None
        elif kind is None:
            values[name] = True
        else:
            if text is None:
                if i == len(argv) or _option(argv[i], options)[0] is not None:
                    raise CliError(f"--{name} needs a value")
                text, i = argv[i], i + 1
            if isinstance(kind, tuple) and text not in kind:
                raise CliError(f"--{name} must be one of {', '.join(kind)}, not {text!r}")
            try:
                values[name] = int(text) if kind is int else text
            except ValueError:
                raise CliError(f"--{name} needs an integer, not {text!r}") from None
    if command is None:
        raise CliError("a subcommand is required: " + ", ".join(COMMANDS))
    args = SimpleNamespace(command=command, func=func, format=values["format"])
    for option, (kind, required) in options.items():
        if required and option not in values:
            raise CliError(f"{command} needs --{option}")
        setattr(args, option.replace("-", "_"), values.get(option, None if kind else False))
    return args


def main(argv=None) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
        if args is not None:
            payload, csv_header, csv_rows = args.func(args)
            print(_emit(payload, args.format, csv_header, csv_rows))
        return 0
    except CliError as err:
        error, code = err.error, err.exit_code
    except (ValueError, KeyError, TypeError, ZeroDivisionError) as err:
        error, code = {"code": "domain", "message": str(err)}, 2
    print(_emit({"error": error}, "json"))
    return code


if __name__ == "__main__":
    raise SystemExit(main())
