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
`enumerated_obstruction_orders`, all in `tests/kernel_oracles.py`,
`project-endo`'s closed-form diagonal projection against the full
projection `project_endomorphism` of `tests/linalg_oracle.py`, and
`recover-chi`'s one-term steps against a linear solve of the forward map
built from `fraction_hecke_diagonal`, by the elimination `rref` of
`tests/linalg_oracle.py`, and `linv`'s generic formula against its
theorem's display in `tests/paper_displays.py`, and `slope`'s verdict
against its inequality evaluated in `Fraction`s, the twist against a scan
of m = 0, 1, -1, 2, -2, ... to the first that holds.  A `--weyl` is now and
then of rank `g - 1` or `g + 1`, which `hecke` and `recover-chi` refuse.
Besides those draws, `recover-chi` gets the eigenvalues of a random
character at random weights and Weyl element, made by the forward map
`normalized_eigenvalues`, `linv` a request whose every node is well formed
with no direction entry zero, and `slope` one whose every node is well
formed with a dominant torus, so that most of them reach their oracles.

Every exit-0 line must be compact, key-sorted JSON, byte for byte what
`json.dumps(sort_keys=True, separators=(",", ":"))` makes of it: `phin`,
`cg`, `bcoeff`, `obstruction` and `hecke --all` write that text themselves.

An exit-0 `linv` answer must also pass the paper's metamorphic check: the
L-invariant is homogeneous in the direction, of degree minus the number of
places, so the request with the direction scaled by c answers c^-places
times the value, each place's b_v times c and each place's value over c.
"""

import contextlib
import io
import json
import time
from fractions import Fraction
from math import prod
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from linvariants import CASES, THEOREMS
from linvariants.cli import main, parse_args
from kernel_oracles import (
    CharacterData,
    Monomial,
    TorusExponent,
    beta,
    enumerated_obstruction_orders,
    fraction_b_coefficient,
    fraction_hecke_diagonal,
    generic_character,
    nested_loop_weyl_group,
    normalized_eigenvalues,
    weyl_json,
    unrolled_cg_coefficient,
)
from linalg_oracle import project_endomorphism, rref
from linvariants import ratio
from linvariants.exactlin import rational
from linvariants.linv import Direction
from linvariants.sl2rep import EndoElement
from linvariants.weylhecke import WeylElement
from paper_displays import _theorem_forms, compare_to_theorem, display_ratios, theorem_evaluator
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
    chi, t = generic_character(args.g), TorusExponent.make(t["a"], t["a0"])

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


def recover_chi_answer(args) -> dict:
    """The characters whose normalized eigenvalues are --eigs, one linear solve
    for all the symbols.

    The unknowns are the exponents of one symbol in chi_1..chi_g and sigma.
    Row i < g is the generic character's eigenvalue at beta(g, g-i), by the
    `Fraction` torus conjugation: its exponents of chi_1..chi_g and sigma, and
    for each symbol, that symbol's exponent in theta_i, less the weight
    factor and the closed form's p-power for p.  Row g is the determinant
    relation chi_1...chi_g sigma^2 = p^{mu_0}.
    """
    g, zero = args.g, Fraction(0)
    thetas = [{sym: rational(e) for sym, e in theta.items()} for theta in json.loads(args.eigs)]
    weights = json.loads(args.weights)
    mu, mu0 = [rational(m) for m in weights["mu"]], rational(weights["mu0"])
    weyl = json.loads(args.weyl) if args.weyl else {"nu": range(1, g + 1), "eps": [1] * g}
    w = WeylElement(tuple(weyl["nu"]), tuple(weyl["eps"]))
    generic, symbols, rows = generic_character(g), sorted({"p"}.union(*thetas)), []
    for i, theta in enumerate(thetas, 1):
        t = beta(g, g - i)
        value = dict(fraction_hecke_diagonal(generic, t, w).exponents)
        p_power = value.get("p", zero) + sum(m * a for m, a in zip(mu, t.a)) + (mu0 - sum(mu)) * t.a0 / 2
        rows.append([value.get(f"chi_{j}", zero) for j in range(1, g + 1)] + [value.get("sigma", zero)]
                    + [theta.get(sym, zero) - (p_power if sym == "p" else 0) for sym in symbols])
    rows.append([Fraction(1)] * g + [Fraction(2)] + [mu0 if sym == "p" else zero for sym in symbols])
    reduced, pivots = rref(rows)
    assert pivots == tuple(range(g + 1)), "the forward map is not invertible"
    values = [{sym: str(x) for sym, x in zip(symbols, row[g + 1:]) if x} for row in reduced]
    return {"chi": values[:g], "sigma": values[g]}


def slope_answer(args, request: dict) -> dict:
    """The verdict of a `slope` request by its inequality, in `Fraction`s, and the
    twist by trying m = 0, 1, -1, 2, -2, ... until one holds.

    hilbert: sum_i ((w + k_i - 2)/2 + s_i) < min(k_i) - 1.  gsp: the sum over
    places of mu . a + (mu_0 - sum(mu)) a_0 / 2 + s_v must lie below every
    (mu_i - mu_{i+1} + 1)(a_i - a_{i+1}) and 2 (2 mu_g + 1) a_g; the |.|^m
    twist moves mu_0 to mu_0 + m and each slope s_v to s_v - m a_0.
    """
    if args.family == "hilbert":
        k, w = request["k"], request["w"]
        return {"noncritical": sum(Fraction(w + x - 2, 2) + Fraction(s)
                                   for x, s in zip(k, request["slopes"])) < min(k) - 1}
    weights = [[Fraction(m) for m in mu] for mu in request["weights"]]
    a, a0 = [Fraction(x) for x in request["t"]["a"]], Fraction(request["t"]["a0"])
    mu0, slopes = Fraction(request["mu0"]), [Fraction(s) for s in request["slopes"]]
    bound = min([(mu[i] - mu[i + 1] + 1) * (a[i] - a[i + 1]) for mu in weights for i in range(len(a) - 1)]
                + [2 * (2 * mu[-1] + 1) * a[-1] for mu in weights])

    def noncritical(m: int) -> bool:
        return sum(sum(x * y for x, y in zip(mu, a)) + (mu0 + m - sum(mu)) * a0 / 2 + s - m * a0
                   for mu, s in zip(weights, slopes)) < bound

    answer = {"noncritical": noncritical(0)}
    if request.get("find_twist"):
        # bounded, so that a wrong exit 0 at a_0 = 0, where no twist helps, still ends
        tries = (m for size in range(10**4) for m in ((size, -size) if size else (0,)))
        answer["twist"] = next((m for m in tries if noncritical(m)), None)
    return answer


def linv_answer(args, request: dict) -> dict:
    """The product and per-place pairs of a `linv` request from its theorem's display.

    The request reads the row of `--compare-theorem`, or else of its
    family's own theorem (A, B, C or D1).  Each pair (a_v, b_v) is the
    display's pair divided by `display_ratios`, whose quotient is the
    theorem's scalar.  The value is the literal `theorem_evaluator` over
    scalar^places, and each place's value the evaluator at that place over
    the scalar.  Theorem A is stated only at (1, ..., 1; -1): a hilbert
    place pairs as (2 grad~ a_v, -u_v) by hand, and away from that
    direction the values are a_v / b_v.  The classification is the numeric
    comparison at the drawn rank.
    """
    family = args.family
    which = args.compare_theorem or {"hilbert": "A", "gsp4_spin": "B", "gsp_std": "C",
                                     "unitary": "D1"}[family]
    rank = request.get("params", {}).get({"gsp_std": "g", "unitary": "n"}.get(family))
    symbols = {"hilbert": 1, "gsp4_spin": 2, "gsp_std": rank, "unitary": 4 * (rank or 0)}[family]
    direction = Direction.make(request["direction"]["u"], request["direction"].get("u0", 0))
    assignments = [[rational(place["gradients"][f"a_{j}"]) for j in range(1, symbols + 1)]
                   for place in request["places"]]
    if family == "hilbert":
        scalar, pairs = 1, [(2 * x, -Fraction(*u)) for (x,), u in zip(assignments, direction.u)]
    else:
        forms, (to_num, to_den) = _theorem_forms(which, rank), display_ratios(which, rank)
        scalar = to_num / to_den
        read = ([ratio(y) for y in x] for x in assignments)
        pairs = [(Fraction(*a) / to_num, Fraction(*b) / to_den)
                 for a, b in (forms.pair(v, x, direction) for v, x in enumerate(read))]

    def value(xs, pairs) -> Fraction:
        if family == "hilbert" and direction != Direction.make([1] * len(pairs), -1):
            return prod((a / b for a, b in pairs), start=Fraction(1))
        return theorem_evaluator(which, direction, xs, n=rank) / scalar ** len(xs)

    answer = {
        "value": str(value(assignments, pairs)),
        "per_place": [{"a": str(a), "b": str(b), "value": str(value([x], [(a, b)]))}
                      for x, (a, b) in zip(assignments, pairs)],
    }
    if args.compare_theorem:
        answer["classification"] = compare_to_theorem(which, rank).to_json()
    return answer


def run_main(argv, stdin) -> tuple[int, str]:
    """(exit code, stdout) of `main(argv)` reading `stdin`."""
    out = io.StringIO()
    with mock.patch("sys.stdin", io.TextIOWrapper(io.BytesIO((stdin or "").encode()), encoding="utf-8")):
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
    return code, out.getvalue()


#: the c of the homogeneity check: negative, so that a sign slip shows, and no integer
DIRECTION_SCALE = Fraction(-3, 2)


def assert_homogeneous_in_the_direction(argv, request: dict, payload: dict) -> None:
    """The `linv` request with its direction (u; u_0) times c answers `payload` scaled:
    the value times c^-places, each b_v times c and each place's value over c."""
    c, direction = DIRECTION_SCALE, request["direction"]
    scaled = {**request, "direction": {**direction, "u0": str(Fraction(*ratio(direction.get("u0", 0))) * c),
                                       "u": [str(Fraction(*ratio(x)) * c) for x in direction["u"]]}}
    code, text = run_main(argv, json.dumps(scaled))
    assert code == 0, (argv, scaled, text)
    answer = json.loads(text)
    places = payload["per_place"]
    assert Fraction(answer["value"]) == Fraction(payload["value"]) / c ** len(places), (argv, scaled)
    assert [(p["a"], Fraction(p["b"]), Fraction(p["value"])) for p in answer["per_place"]] == [
        (p["a"], Fraction(p["b"]) * c, Fraction(p["value"]) / c) for p in places], (argv, scaled)


#: subcommand -> the JSON value of an accepted request, from its parsed options
#: and, for a subcommand that reads `--input -`, its JSON request
ORACLES = {"phin": phin_answer, "bcoeff": bcoeff_answer, "cg": cg_answer, "hecke": hecke_answer,
           "obstruction": obstruction_answer, "project-endo": project_endo_answer,
           "recover-chi": recover_chi_answer, "slope": slope_answer, "linv": linv_answer}

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


scalar_values = st.integers(-4, 4) | st.sampled_from(["1/2", "-3", "5/3"])
scalar = mostly(scalar_values)


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
    """A Weyl element of rank g, now and then of rank g - 1 or g + 1; shrinks towards g."""
    return st.sampled_from((g,) * 8 + (max(g - 1, 0), g + 1)).flatmap(lambda rank: obj(
        nu=mostly(st.permutations(range(1, rank + 1))),
        eps=mostly(st.lists(st.sampled_from([-1, 1]), min_size=rank, max_size=rank)),
    ))


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


def eigenvalues_of_characters(g):
    """`recover-chi` on the normalized eigenvalues of a random character at random
    weights and Weyl element, by the forward map `normalized_eigenvalues`: well
    formed, so that nearly every draw reaches the oracle."""
    exponent = st.fractions(-4, 4, max_denominator=3)
    monomials = st.dictionaries(st.sampled_from(["p", "x", "y"]), exponent, max_size=2).map(
        Monomial.from_dict)
    chi = st.builds(CharacterData, st.tuples(*[monomials] * g), monomials)
    w = st.builds(WeylElement, st.permutations(range(1, g + 1)).map(tuple),
                  st.tuples(*[st.sampled_from([-1, 1])] * g))

    def argv(drawn):
        chi, mu, mu0, w = drawn
        eigs = [theta.to_json() for theta in normalized_eigenvalues(chi, mu, mu0, w)]
        weights = {"mu": [str(m) for m in mu], "mu0": str(mu0)}
        return ["recover-chi", f"--g={g}", f"--eigs={json.dumps(eigs)}",
                f"--weights={json.dumps(weights)}", f"--weyl={json.dumps(weyl_json(w))}"], None

    return st.tuples(chi, st.lists(exponent, min_size=g, max_size=g), exponent, w).map(argv)


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


def well_formed_slope(g, places):
    """`slope` of either family with every JSON node well formed, each hilbert weight
    k >= 2 of w's parity and each gsp torus dominant, so that nearly every draw
    reaches the oracle."""
    hilbert = st.integers(-4, 4).flatmap(lambda w: st.fixed_dictionaries({
        "k": st.lists(st.integers(1, 6).map(lambda h: 2 * h + w % 2), min_size=places, max_size=places),
        "w": st.just(w),
        "slopes": st.lists(scalar_values, min_size=places, max_size=places),
    }))
    dominant = st.lists(st.integers(0, 4), min_size=g, max_size=g).map(lambda a: sorted(a, reverse=True))
    torus = dominant.flatmap(lambda a: st.fixed_dictionaries({
        "a": st.just(a),
        "a0": st.sampled_from([x for x in (-2, -1, "-1/2", "1/2", 1, 2, 4) if Fraction(x) <= 2 * a[-1]]),
    }))
    gsp = st.fixed_dictionaries({
        "weights": st.lists(st.lists(scalar_values, min_size=g, max_size=g), min_size=places,
                            max_size=places),
        "mu0": scalar_values,
        "t": torus,
        "slopes": st.lists(scalar_values, min_size=places, max_size=places),
        "find_twist": st.sampled_from([True, False]),
    })
    return st.sampled_from(["hilbert", "gsp"]).flatmap(lambda family: (
        hilbert if family == "hilbert" else gsp).map(lambda request: (
            ["slope", f"--family={family}", "--input=-"], json.dumps(request))))


#: (family, params, places, direction length, Hecke symbols per place)
linv_shapes = st.one_of(
    st.integers(1, 2).map(lambda places: ("hilbert", {}, places, places, 1)),
    st.integers(1, 2).map(lambda places: ("gsp4_spin", {}, places, 2, 2)),
    st.integers(2, 3).map(lambda g: ("gsp_std", {"g": g}, 1, g, g)),
    st.just(("unitary", {"n": 1}, 1, 4, 4)),
)


def linv(family, params, places, length, symbols):
    own_theorems = st.sampled_from([t for t, (f, *_) in THEOREMS.items() if f == family])
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


def well_formed_linv(family, params, places, length, symbols):
    """`linv` with every JSON node well formed and no direction entry zero, so
    that nearly every draw reaches the oracle."""
    nonzero = st.sampled_from([1, 2, 3, -1, -2, "1/2", "-5/3", "7/4"])
    gradients = st.fixed_dictionaries({f"a_{j}": scalar_values for j in range(1, symbols + 1)})
    request = st.fixed_dictionaries({
        "params": st.just(params),
        "direction": st.fixed_dictionaries({"u": st.lists(nonzero, min_size=length, max_size=length),
                                            "u0": nonzero}),
        "places": st.lists(st.fixed_dictionaries({"gradients": gradients}),
                           min_size=places, max_size=places),
    })
    theorem = maybe(st.sampled_from([t for t, (f, *_) in THEOREMS.items() if f == family]))
    return st.tuples(theorem, request).map(lambda drawn: (
        ["linv", f"--family={family}", *[f"--compare-theorem={drawn[0]}"] * bool(drawn[0]),
         "--input=-"], json.dumps(drawn[1])))


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
    st.integers(2, 4).flatmap(eigenvalues_of_characters),
    st.integers(1, 3).flatmap(slope_hilbert),
    st.tuples(st.integers(1, 3), st.integers(1, 2)).flatmap(lambda gp: slope_gsp(*gp)),
    st.tuples(st.integers(1, 3), st.integers(1, 2)).flatmap(lambda gp: well_formed_slope(*gp)),
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
    linv_shapes.flatmap(lambda shape: well_formed_linv(*shape)),
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
# recovered characters in foreign symbols with rational exponents, whatever the
# draw, and a --weyl of rank one above and one below --g
@example((["recover-chi", "--g=3", '--eigs=[{"p": "1/2", "x": 2}, {"sigma": "-3/4"}, {"chi_1": 5, "p": -1}]',
           '--weights={"mu": [3, "1/2", -1], "mu0": "5/3"}', '--weyl={"nu": [2, 3, 1], "eps": [-1, 1, -1]}'],
          None))
@example((["recover-chi", "--g=2", '--eigs=[{"p": 1}, {"p": 1}]', '--weights={"mu": [0, 0], "mu0": 0}',
           '--weyl={"nu": [1, 2, 3], "eps": [1, 1, 1]}'], None))
@example((["recover-chi", "--g=2", '--eigs=[{"p": 1}, {"p": 1}]', '--weights={"mu": [0, 0], "mu0": 0}',
           '--weyl={"nu": [1], "eps": [1]}'], None))
# each slope family at its boundary LHS = RHS, where the inequality is strict, and
# a gsp twist from there on each sign of a_0: m = -1 below 0 and m = 1 above
@example((["slope", "--family=hilbert", "--input=-"], json.dumps({"k": [2, 4], "w": 0,
                                                                 "slopes": ["1/2", "-1/2"]})))
@example((["slope", "--family=gsp", "--input=-"], json.dumps(
    {"weights": [[1, 0]], "mu0": 1, "t": {"a": [2, 1], "a0": -2}, "slopes": [0], "find_twist": True})))
@example((["slope", "--family=gsp", "--input=-"], json.dumps(
    {"weights": [[0]], "mu0": 0, "t": {"a": [1], "a0": 2}, "slopes": [2], "find_twist": True})))
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
# each theorem's request, so that each linv answer is compared, whatever the draw: theorem A at
# its direction (1, 1; -1) and hilbert away from it, then B, C, D1 and D2
@example((["linv", "--family=hilbert", "--compare-theorem=A", "--input=-"], json.dumps(
    {"direction": {"u": [1, 1], "u0": -1}, "places": [{"gradients": {"a_1": "3/2"}},
                                                      {"gradients": {"a_1": -5}}]})))
@example((["linv", "--family=hilbert", "--input=-"], json.dumps(
    {"direction": {"u": ["2", "-1/3"], "u0": 4}, "places": [{"gradients": {"a_1": "3/2"}},
                                                            {"gradients": {"a_1": 7}}]})))
@example((["linv", "--family=gsp4_spin", "--compare-theorem=B", "--input=-"], json.dumps(
    {"direction": {"u": [3, "1/2"], "u0": 1}, "places": [{"gradients": {"a_1": 2, "a_2": "-7/2"}},
                                                         {"gradients": {"a_1": 1, "a_2": 3}}]})))
@example((["linv", "--family=gsp_std", "--compare-theorem=C", "--input=-"], json.dumps(
    {"params": {"g": 3}, "direction": {"u": [5, -2, "1/3"], "u0": 2},
     "places": [{"gradients": {"a_1": 1, "a_2": "-4/3", "a_3": 2}}]})))
@example((["linv", "--family=unitary", "--compare-theorem=D1", "--input=-"], json.dumps(
    {"params": {"n": 1}, "direction": {"u": [1, 2, -3, "1/2"], "u0": 0},
     "places": [{"gradients": {"a_1": 1, "a_2": 2, "a_3": "-1/2", "a_4": 3}}]})))
@example((["linv", "--family=unitary", "--compare-theorem=D2", "--input=-"], json.dumps(
    {"params": {"n": 1}, "direction": {"u": [1, 2, -3, "1/2"], "u0": 0},
     "places": [{"gradients": {"a_1": 1, "a_2": 2, "a_3": "-1/2", "a_4": 3}}]})))
def test_every_accepted_argv_ends_in_one_json_line(case):
    argv, stdin = case
    start = time.perf_counter()
    code, text = run_main(argv, stdin)
    assert time.perf_counter() - start < EXAMPLE_SECONDS, (argv, stdin)
    assert code in (0, 2, 3), (argv, stdin, code)
    assert text.endswith("\n") and text.count("\n") == 1, (argv, stdin, text)
    payload = json.loads(text)
    assert (code == 0) == ("error" not in payload), (argv, stdin, payload)
    # every answer is compact, key-sorted JSON text, which each handler writes itself
    if code == 0:
        assert text[:-1] == json.dumps(payload, sort_keys=True, separators=(",", ":")), argv
    if code == 0 and argv[0] in ORACLES:
        args = parse_args(argv)
        expected = ORACLES[argv[0]](*[args] if stdin is None else [args, json.loads(stdin)])
        assert payload == json.loads(json.dumps(expected)), (argv, stdin)
    if code == 0 and argv[0] == "linv":
        assert_homogeneous_in_the_direction(argv, json.loads(stdin), payload)
