"""Fuzz the CLI boundary: any argv the parser accepts ends in one JSON line.

Every subcommand is driven in-process with generated options and JSON
payloads.  Each JSON node is mostly well-formed, so the requests reach the
computations, and otherwise any JSON value at all: strings, bools, floats,
null, nested lists and objects.  Sizes cross the caps on exponential
listings (phin n <= 10, hecke g <= 8) and otherwise stay small (g <= 3
elsewhere, at most 8 exponents, cg and bcoeff sizes <= 30); fixed examples
step one past each table's size cap, the `recover-chi --g` cap and each
`obstruction` budget.  Every example must finish within `EXAMPLE_SECONDS`.

An exit-0 answer of a subcommand in `ORACLES` must also equal the value its
oracle computes from the parsed options by a path of its own: `phin`'s
closed forms against the (phi, N)-module search of `tests/phin_oracle.py`,
`bcoeff`'s term ratios and reflection against the term-by-term sum
`fraction_b_coefficient`, `cg`'s raising recurrence against the unrolled
sum `unrolled_cg_coefficient`, `hecke`'s closed form (and the `--all`
sweep's fragments) against `fraction_hecke_diagonal` over
`nested_loop_weyl_group`, and `obstruction`'s subset-sum pass against
`enumerated_obstruction_orders`, all in `tests/kernel_oracles.py`, and
`project-endo`'s closed-form diagonal projection against the full
projection `project_endomorphism` of `tests/linalg_oracle.py`.
"""

import contextlib
import io
import json
import time
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from linvariants import CASES
from linvariants.cli import main, parse_args
from kernel_oracles import (
    enumerated_obstruction_orders,
    fraction_b_coefficient,
    fraction_hecke_diagonal,
    nested_loop_weyl_group,
    unrolled_cg_coefficient,
)
from linalg_oracle import project_endomorphism
from linvariants.linv import THEOREMS
from linvariants.sl2rep import EndoElement
from linvariants.weylhecke import CharacterData, TorusExponent, WeylElement
from phin_oracle import phin_answer

#: wall-time bound per request, oracle not included; the slowest requests allowed
#: here, phin --all-submodules in a crystalline case at n = 8, take about 0.3 s
EXAMPLE_SECONDS = 5


def bcoeff_answer(args) -> dict:
    """The B row, or its entry i, one term-by-term sum per entry."""
    if args.i is not None:
        return {"value": str(fraction_b_coefficient(args.n, args.k, args.i))}
    return {"values": [str(fraction_b_coefficient(args.n, args.k, i)) for i in range(args.n + 1)]}


def cg_answer(args) -> dict:
    """The nonzero stratum entries in (u, v, w) order, or the entry (u, v, w), each unrolled."""
    m, n, p = args.m, args.n, args.p
    if not args.table:
        return {"value": str(unrolled_cg_coefficient(m, n, p, args.u, args.v, args.w))}
    rows = []
    for u in range(m + 1):
        for v in range(n + 1):
            w = u + v - (m + n - p) // 2
            if 0 <= w <= p and (c := unrolled_cg_coefficient(m, n, p, u, v, w)):
                rows.append([u, v, w, str(c)])
    return {"m": m, "n": n, "p": p, "rows": rows}


def hecke_answer(args) -> dict:
    """The generic character's eigenvalue at the one Weyl element, or at each of
    the nested-loop Weyl group for --all, each by the `Fraction` torus conjugation."""
    t = json.loads(args.t)
    chi, t = CharacterData.generic(args.g), TorusExponent.make(t["a"], t["a0"])

    def entry(w: WeylElement) -> dict:
        value = fraction_hecke_diagonal(chi, t, w)
        return {"value": {sym: str(e) for sym, e in value.exponents},
                "weyl": {"eps": list(w.eps), "nu": list(w.nu)}}

    if args.all:
        return {"eigenvalues": [entry(w) for w in nested_loop_weyl_group(args.g)], "g": args.g}
    weyl = json.loads(args.weyl) if args.weyl else {"nu": range(1, args.g + 1), "eps": [1] * args.g}
    return {"g": args.g, **entry(WeylElement(tuple(weyl["nu"]), tuple(weyl["eps"])))}


def obstruction_answer(args) -> dict:
    """The orders of every subset-sum difference, all subsets enumerated, and
    whether N is a multiple of each."""
    orders = sorted(enumerated_obstruction_orders(
        [int(x) for x in args.exponents.split(",") if x.strip()]))
    if args.check_N is None:
        return {"orders": orders}
    sufficient = all(args.check_N % d == 0 for d in orders)
    return {"orders": orders, "check_N": {"N": args.check_N, "sufficient": sufficient}}


def project_endo_answer(args) -> dict:
    """The g_{2k,k} coefficient and the tail of the whole projection of the diagonal."""
    coeffs = project_endomorphism(EndoElement.diagonal(json.loads(args.diag)), args.k).coeffs
    return {"middle": str(coeffs[args.k]), "tail": [str(x) for x in coeffs[args.k + 1:]]}


#: subcommand -> the JSON value of an accepted request, from its parsed options
ORACLES = {"phin": phin_answer, "bcoeff": bcoeff_answer, "cg": cg_answer, "hecke": hecke_answer,
           "obstruction": obstruction_answer, "project-endo": project_endo_answer}

anything = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-5, 5)
    | st.floats(allow_nan=False)
    | st.text(max_size=4)
    | st.sampled_from(["1/0", "x", ""]),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)


def mostly(valid):
    """Mostly `valid`, sometimes any JSON value; shrinks towards `valid`."""
    return st.integers(0, 4).flatmap(lambda i: anything if i == 4 else valid)


scalar = mostly(st.integers(-4, 4) | st.sampled_from(["1/2", "-3", "5/3"]))


def vector(length):
    return mostly(st.lists(scalar, min_size=length, max_size=length))


def obj(**fields):
    return mostly(st.fixed_dictionaries(fields))


def json_text(values):
    """Serialized `values`, now and then cut short."""
    return st.tuples(values.map(json.dumps), st.integers(0, 9)).map(
        lambda pair: pair[0][: len(pair[0]) // 2] if pair[1] == 9 else pair[0]
    )


def command(name, *options, stdin=None):
    """(argv, stdin) from (key, values) options.

    A value of None leaves the option out and True gives a bare flag; any
    other value is passed as `--key=value`, so that it may start with '-'.
    A command reading `--input -` gets `stdin` as its standard input.
    """

    def argv(chosen):
        out = [name]
        for key, value in chosen:
            if value is True:
                out.append(f"--{key}")
            elif value is not None:
                out.append(f"--{key}={value}")
        return out

    chosen = st.tuples(*(values.map(lambda v, k=key: (k, v)) for key, values in options))
    if stdin is None:
        return chosen.map(lambda c: (argv(c), None))
    return st.tuples(chosen.map(lambda c: argv(c) + ["--input=-"]), json_text(stdin))


flag = st.sampled_from([None, True])
size = st.integers(-2, 30)


def maybe(values):
    return st.none() | values


def weyl(g):
    return obj(
        nu=mostly(st.permutations(range(1, g + 1))),
        eps=mostly(st.lists(st.sampled_from([-1, 1]), min_size=g, max_size=g)),
    )


def torus(g):
    dominant = st.lists(st.integers(0, 4), min_size=g, max_size=g).map(sorted).map(
        lambda a: a[::-1]
    )
    return obj(a=mostly(dominant), a0=scalar)


def hecke(g):
    return command(
        "hecke",
        ("g", st.just(g)),
        ("t", json_text(torus(max(g, 0)))),
        ("weyl", maybe(json_text(weyl(max(g, 0))))),
        ("all", flag),
    )


monomial = mostly(
    st.dictionaries(st.sampled_from(["p", "chi_1", "chi_2", "sigma"]), scalar, max_size=3)
)


def recover_chi(g):
    n = max(g, 0)
    return command(
        "recover-chi",
        ("g", st.just(g)),
        ("eigs", json_text(mostly(st.lists(monomial, min_size=n, max_size=n)))),
        ("weights", json_text(obj(mu=vector(n), mu0=scalar))),
        ("weyl", maybe(json_text(weyl(n)))),
    )


def slope_hilbert(places):
    return command(
        "slope",
        ("family", st.just("hilbert")),
        stdin=obj(
            k=mostly(st.lists(st.sampled_from([2, 4, 12]), min_size=places, max_size=places)),
            w=mostly(st.sampled_from([0, 2, -10])),
            slopes=vector(places),
        ),
    )


def slope_gsp(g, places):
    return command(
        "slope",
        ("family", st.just("gsp")),
        stdin=obj(
            weights=mostly(st.lists(vector(g), min_size=places, max_size=places)),
            mu0=scalar,
            t=torus(g),
            slopes=vector(places),
            find_twist=mostly(st.booleans()),
        ),
    )


#: (family, params, places, direction length, Hecke symbols per place)
linv_shapes = st.one_of(
    st.integers(1, 2).map(lambda places: ("hilbert", {}, places, places, 1)),
    st.integers(1, 2).map(lambda places: ("gsp4_spin", {}, places, 2, 2)),
    st.integers(2, 3).map(lambda g: ("gsp_std", {"g": g}, 1, g, g)),
    st.just(("unitary", {"n": 1}, 1, 4, 4)),
)


def linv(family, params, places, length, symbols):
    own_theorems = st.sampled_from([t for t, (f, _) in THEOREMS.items() if f == family])
    gradients = st.fixed_dictionaries({f"a_{j}": scalar for j in range(1, symbols + 1)})
    return command(
        "linv",
        ("family", st.just(family)),
        ("compare-theorem", maybe(own_theorems | st.sampled_from(sorted(THEOREMS)))),
        stdin=obj(
            params=mostly(st.just(params)),
            direction=obj(u=vector(length), u0=scalar),
            places=mostly(
                st.lists(obj(gradients=mostly(gradients)), min_size=places, max_size=places)
            ),
        ),
    )


argvs = st.one_of(
    command(
        "cg",
        ("m", size),
        ("n", size),
        ("p", size),
        ("table", flag),
        ("u", maybe(size)),
        ("v", maybe(size)),
        ("w", maybe(size)),
    ),
    command("bcoeff", ("n", size), ("k", size), ("i", maybe(size))),
    st.integers(-1, 8).flatmap(
        lambda n: command(
            "project-endo",
            ("n", st.just(n)),
            ("k", st.integers(-1, 8)),
            ("diag", json_text(vector(max(n + 1, 0)))),
        )
    ),
    command(
        "phin",
        ("case", st.sampled_from(CASES)),
        ("n", st.integers(-1, 10)),
        ("L", maybe(st.sampled_from(["1", "-2/3", "0", "1/0", "x", "", "6/4", "-0", "\u0663/\u0664",
                                      "1.5"]))),
        ("weight", maybe(st.integers(-1, 6))),
        ("all-submodules", flag),
        ("benois", flag),
        ("gr1", flag),
    ),
    # g = 6 is left out: its --all listing, the largest allowed, takes about
    # 10 s, which the cost table in CHANGES.md records
    (st.integers(-1, 5) | st.integers(7, 8)).flatmap(hecke),
    st.integers(-1, 3).flatmap(recover_chi),
    st.integers(1, 3).flatmap(slope_hilbert),
    st.tuples(st.integers(1, 3), st.integers(1, 2)).flatmap(lambda gp: slope_gsp(*gp)),
    command(
        "obstruction",
        (
            "exponents",
            st.lists(st.integers(-20, 20), max_size=8).map(lambda xs: ",".join(map(str, xs)))
            | st.text(max_size=6),
        ),
        ("check-N", maybe(st.integers(-3, 60))),
    ),
    linv_shapes.flatmap(lambda shape: linv(*shape)),
)


@settings(max_examples=200, deadline=None)
@given(argvs)
# every phin case with every flag, so that each value is compared, whatever the draw
@example((["phin", "--case=steinberg", "--n=3", "--L=-2/3", "--all-submodules", "--benois", "--gr1"], None))
@example((["phin", "--case=crystalline_split", "--n=2", "--weight=5", "--all-submodules", "--benois",
           "--gr1"], None))
@example((["phin", "--case=crystalline_nonsplit", "--n=2", "--all-submodules", "--benois", "--gr1"], None))
# both sides of each cap, whatever the draw
@example((["phin", "--case=crystalline_nonsplit", "--n=8", "--all-submodules", "--gr1"], None))
@example((["phin", "--case=crystalline_split", "--n=10", "--all-submodules"], None))
@example((["hecke", "--g=7", '--t={"a": [0, 0, 0, 0, 0, 0, 0], "a0": 1}', "--all"], None))
@example((["hecke", "--g=8", '--t={"a": [1, 1, 1, 1, 1, 1, 1, 1], "a0": 0}', "--all"], None))
# a B row and a cg table with their single entries, each from the upper half or an inner column
@example((["bcoeff", "--n=7", "--k=3"], None))
@example((["bcoeff", "--n=7", "--k=3", "--i=6"], None))
@example((["cg", "--m=4", "--n=3", "--p=3", "--table"], None))
@example((["cg", "--m=4", "--n=3", "--p=3", "--u=2", "--v=1", "--w=1"], None))
# one Hecke eigenvalue at a Weyl element and a whole --all listing, and an
# obstruction with each answer of --check-N
@example((["hecke", "--g=3", '--t={"a": [4, "3/2", 1], "a0": -1}',
           '--weyl={"nu": [2, 3, 1], "eps": [-1, 1, -1]}'], None))
@example((["hecke", "--g=3", '--t={"a": [4, "3/2", 1], "a0": -1}', "--all"], None))
@example((["obstruction", "--exponents=7,-3,2,0,11", "--check-N=5040"], None))
@example((["obstruction", "--exponents=2,1,0", "--check-N=4"], None))
# a projection whose diagonal is nonzero at every entry, so that each B entry counts
@example((["project-endo", "--n=4", "--k=2", '--diag=[1, "1/2", -2, 5, "-7/3"]'], None))
# one past each table's size cap and the recover-chi cap
@example((["bcoeff", "--n=601", "--k=300"], None))
@example((["cg", "--m=151", "--n=151", "--p=150", "--table"], None))
@example((["project-endo", "--n=251", "--k=1", "--diag=[1]"], None))
@example((["recover-chi", "--g=501", "--eigs=" + json.dumps([{}] * 501),
           "--weights=" + json.dumps({"mu": [0] * 501, "mu0": 0})], None))
# one past each obstruction budget: the subset-sum bound (262206 > 2^18, and
# 262135 with 257 on top) and the trial divisions of a gap (4 isqrt(gap) > 10^8)
@example((["obstruction", "--exponents=" + ",".join(map(str, [*range(144), 258]))], None))
@example((["obstruction", f"--exponents={25_000_001**2},0"], None))
def test_every_accepted_argv_ends_in_one_json_line(case):
    argv, stdin = case
    out = io.StringIO()
    start = time.perf_counter()
    with mock.patch("sys.stdin", io.TextIOWrapper(io.BytesIO((stdin or "").encode()), encoding="utf-8")):
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
    assert time.perf_counter() - start < EXAMPLE_SECONDS, (argv, stdin)
    assert code in (0, 2, 3), (argv, stdin, code)
    text = out.getvalue()
    assert text.endswith("\n") and text.count("\n") == 1, (argv, stdin, text)
    payload = json.loads(text)
    assert (code == 0) == ("error" not in payload), (argv, stdin, payload)
    if code == 0 and argv[0] in ORACLES:
        expected = ORACLES[argv[0]](parse_args(argv))
        assert payload == json.loads(json.dumps(expected)), (argv, stdin)
