"""Layer spans for the traced run, and the per-layer metrics built from them.

The traced child process (traced.py) creates a `Tracer`, wraps the public
functions and methods of every `linvariants` layer module with it, runs one
request and writes the recorded spans to a file when it exits.  The runner
reads the files back and turns them into per-layer metrics with
`request_metrics` and `PassTotals`.

A span is the tuple (request id, span id, parent span id, name, start ns,
end ns, info).  Span names are "<module>.<qualified name>", so the layer of
a span is the text before the first dot.  Parent id 0 means no parent.

The methods of the classes in `COUNTED` run up to hundreds of thousands of
times per request, so they get no spans: each call is counted, and the
time of the outermost call is added to the span it ran under.  Aggregation
moves that time from the span's self time to the class's layer.
"""

from __future__ import annotations

import inspect
import json
import statistics
import time
from collections import defaultdict

LAYERS = ("exactlin", "sl2rep", "plethysm", "phin", "weylhecke", "linv")
#: layers whose self time is broken down by the request's size class
SIZE_SWEEP = {
    "exactlin": ("n3", "n4", "n5", "n6", "n7", "n8", "n9"),
    "phin": ("n3", "n4", "n5", "n6"),
    "sl2rep": ("n7", "n8", "n9"),
    "weylhecke": ("g4", "g5"),
}
#: per-entry helpers left unwrapped: their time counts toward the calling span
UNWRAPPED = {"rational", "vector"}
#: private functions that carry a layer's work and get spans too
PRIVATE_SPANS = {"_rref", "_brute_force_data"}
#: operator methods that get spans (other dunders stay unwrapped)
OPERATORS = {"__mul__", "__pow__", "__truediv__", "__add__", "__sub__", "__neg__"}
#: classes whose methods are counted and timed instead of spanned: monomial
#: arithmetic, a cg table's entry lookup, a Weyl element's coordinates
COUNTED = {"EigenMonomial", "CGTable", "WeylElement"}
#: lru_caches whose hits and misses are reported
CACHES = (("plethysm", "cg_table"), ("sl2rep", "_brute_force_data"), ("weylhecke", "weyl_group"))


def _max_bits(rows) -> int:
    best = 0
    for row in rows:
        for x in row:
            best = max(best, x.numerator.bit_length(), x.denominator.bit_length())
    return best


def _rref_info(args, result) -> list:
    """[rows x cols, largest numerator/denominator bit length in and out]."""
    rows = args[0]
    cells = len(rows) * len(rows[0]) if rows else 0
    return [cells, max(_max_bits(rows), _max_bits(result[0]))]


def _count_info(args, result) -> int:
    return len(result)


#: span name -> function(args, result) giving the span's info field
INFO = {"exactlin._rref": _rref_info, "phin.regular_submodules": _count_info}


class Tracer:
    """Records spans in memory; `dump` writes them out."""

    def __init__(self, rid: int):
        self.rid = rid
        self.spans: list[tuple] = []
        self._stack = [0]
        self._next = 1
        self.originals: dict[str, object] = {}
        #: calls per counted method; per counted class, span id -> ns spent
        #: in that class's outermost counted calls directly under the span
        self.counts: dict[str, list[int]] = {}
        self.hidden: dict[str, dict[int, int]] = {}
        self._counting = [False]

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        info = INFO.get(name)

        def traced(*args, **kwargs):
            sid = self._next
            self._next = sid + 1
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
            if info is None:
                spans.append((self.rid, sid, parent, name, start, end, None))
                return result
            extra = info(args, result)
            # the cost of computing `extra` is the tracer's, not the caller's
            spans.append((self.rid, sid, parent, name, start, end, extra))
            spans.append((self.rid, self._next, parent, "trace.info", end, clock(), None))
            self._next += 1
            return result

        traced.__wrapped__ = fn
        return traced

    def count(self, name: str, fn):
        """Wrap `fn` to count its calls and time them without a span.

        Only the outermost of nested counted calls is timed.  A counted
        method must not call a spanned function, or that time would count
        twice.
        """
        calls = self.counts.setdefault(name, [0])
        hidden = self.hidden.setdefault(name.rsplit(".", 1)[0], {})
        stack, busy, clock = self._stack, self._counting, time.perf_counter_ns

        def counted(*args, **kwargs):
            calls[0] += 1
            if busy[0]:
                return fn(*args, **kwargs)
            busy[0] = True
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                busy[0] = False
                top = stack[-1]
                hidden[top] = hidden.get(top, 0) + elapsed

        counted.__wrapped__ = fn
        return counted

    def call(self, name: str, fn, *args):
        return self.wrap(name, fn)(*args)

    def install(self, modules, namespaces) -> None:
        """Wrap the public functions and methods defined in each module.

        A wrapped function is also rebound in every namespace that imported
        it by name (`from .plethysm import b_row`).
        """
        for module in modules:
            layer = module.__name__.rsplit(".", 1)[1]
            for name, obj in list(vars(module).items()):
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isclass(obj):
                    if not issubclass(obj, BaseException):
                        self._install_class(layer, obj)
                elif callable(obj) and (name in PRIVATE_SPANS or _public(name)):
                    span_name = f"{layer}.{name}"
                    self.originals[span_name] = obj
                    wrapped = self.wrap(span_name, obj)
                    for namespace in namespaces:
                        if vars(namespace).get(name) is obj:
                            setattr(namespace, name, wrapped)

    def _install_class(self, layer: str, cls) -> None:
        wrap = self.count if cls.__name__ in COUNTED else self.wrap
        for name, attr in list(vars(cls).items()):
            if not (name in OPERATORS or _public(name)):
                continue
            span_name = f"{layer}.{cls.__name__}.{name}"
            if isinstance(attr, (classmethod, staticmethod)):
                setattr(cls, name, type(attr)(wrap(span_name, attr.__func__)))
            elif inspect.isfunction(attr):
                setattr(cls, name, wrap(span_name, attr))

    def cache_info(self) -> dict:
        out = {}
        for layer, name in CACHES:
            info = self.originals[f"{layer}.{name}"].cache_info()
            out[f"{layer}.{name}"] = [info.hits, info.misses]
        return out

    def dump(self, path: str, extra: dict) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            counts = {name: calls[0] for name, calls in self.counts.items() if calls[0]}
            json.dump({**extra, "caches": self.cache_info(), "counts": counts,
                       "hidden": self.hidden, "spans": self.spans}, handle)


def _public(name: str) -> bool:
    return not name.startswith("_") and name not in UNWRAPPED


# --- aggregation ------------------------------------------------------------


def self_times(spans, hidden=None) -> dict[int, int]:
    """Span id -> duration minus the part of it that child spans cover (ns).

    `hidden` maps a span id to time spent in counted calls directly under
    it, which is not the span's own either.
    """
    hidden = hidden or {}
    children = defaultdict(list)
    for _, sid, parent, _, start, end, _ in spans:
        children[parent].append((start, end))
    out = {}
    for _, sid, _, _, start, end, _ in spans:
        covered = 0
        cursor = start
        for c_start, c_end in sorted(children.get(sid, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out[sid] = end - start - covered - hidden.get(sid, 0)
    return out


def request_metrics(doc: dict, size: str | None) -> dict[str, float]:
    """Per-layer contributions of one traced request (seconds and counts)."""
    spans = doc["spans"]
    # class -> span id -> ns; JSON made the span ids strings
    counted = {cls: {int(sid): ns for sid, ns in per_span.items()} for cls, per_span in doc["hidden"].items()}
    hidden: dict[int, int] = defaultdict(int)
    for per_span in counted.values():
        for sid, ns in per_span.items():
            hidden[sid] += ns
    selfs = self_times(spans, hidden)
    names = {sid: name for _, sid, _, name, _, _, _ in spans}
    out: dict[str, float] = defaultdict(float)
    regular_found = regular_tested = 0
    for _, sid, parent, name, start, end, info in spans:
        layer = name.split(".", 1)[0]
        out[f"{layer}.self_s"] += selfs[sid] / 1e9
        parent_name = names.get(parent, "")
        if name in ("exactlin.Matrix.rref", "exactlin.Subspace.from_vectors"):
            out["exactlin.rref_calls"] += 1
        elif name == "exactlin._rref":
            if parent_name in ("exactlin.Matrix.rref", "exactlin.Subspace.from_vectors"):
                out["exactlin.rref_cells"] += info[0]
            out["exactlin.max_bits"] = max(out["exactlin.max_bits"], info[1])
        elif name == "exactlin.Subspace.intersect":
            out["exactlin.intersect_calls"] += 1
            if parent_name == "phin.regular_submodules":
                regular_tested += 1
        elif name == "phin.regular_submodules":
            regular_found += info
        elif name == "phin.is_stable":
            out["phin.candidates"] += 1
        elif name == "plethysm.b_coefficient":
            out["plethysm.b_coefficient_calls"] += 1
        elif name == "plethysm.cg_table":
            out["plethysm.cg_table_s"] += (end - start) / 1e9
        elif name == "weylhecke.hecke_diagonal":
            out["weylhecke.hecke_diagonal_calls"] += 1
        elif name == "weylhecke.refinement_obstruction_orders":
            out["weylhecke.obstruction_s"] += (end - start) / 1e9
        elif name == "weylhecke.slope_check_gsp" and parent_name == "weylhecke.twist_search":
            out["weylhecke.twist_steps"] += 1
        if layer == "linv" and not parent_name.startswith("linv."):
            out["linv.calls"] += 1
    # counted calls: their time belongs to their class's layer
    for cls, per_span in counted.items():
        out[f"{cls.split('.', 1)[0]}.self_s"] += sum(per_span.values()) / 1e9
    out["phin.monomial_s"] += sum(counted.get("phin.EigenMonomial", {}).values()) / 1e9
    out["phin.monomial_ops"] += sum(
        calls for name, calls in doc["counts"].items()
        if name.startswith("phin.EigenMonomial.") and name.rsplit(".", 1)[1] in ("__mul__", "__pow__", "from_dict")
    )
    out["phin.regular_found"] = regular_found
    out["phin.regular_tested"] = regular_tested
    for key, (hits, misses) in doc["caches"].items():
        out[f"{key.replace('._', '.')}.cache_hits"] += hits
        out[f"{key.replace('._', '.')}.cache_misses"] += misses
    if size is not None:
        for layer, sizes in SIZE_SWEEP.items():
            if size in sizes:
                out[f"{layer}.self_s.{size}"] += out[f"{layer}.self_s"]
    return out


#: per-layer metric -> the end-to-end metric and workload it should move.
#: Names, units and directions are in BENCHMARK.json.
MOVES = {
    "exactlin.self_s": "throughput_rps, latency_tail_ms on modules; throughput_rps, latency_p50_ms on oracle; "
    "none on tables, quick",
    "exactlin.rref_calls": "modules",
    "exactlin.rref_cells": "modules",
    "exactlin.intersect_calls": "modules",
    "exactlin.max_bits": "latency_tail_ms on oracle",
    "sl2rep.self_s": "oracle",
    "plethysm.self_s": "throughput_rps on tables",
    "plethysm.b_coefficient_calls": "tables",
    "plethysm.cg_table_s": "tables",
    "plethysm.cg_table.cache_hits": "tables",
    "plethysm.cg_table.cache_misses": "tables",
    "phin.self_s": "modules",
    "phin.candidates": "modules",
    "phin.regular_yield": "modules",
    "phin.monomial_ops": "tables and quick",
    "phin.monomial_s": "tables",
    "sl2rep.brute_force_data.cache_hits": "oracle",
    "sl2rep.brute_force_data.cache_misses": "oracle",
    "weylhecke.self_s": "tables",
    "weylhecke.hecke_diagonal_calls": "tables",
    "weylhecke.obstruction_s": "tables",
    "weylhecke.twist_steps": "latency_tail_ms on quick",
    "weylhecke.weyl_group.cache_hits": "tables",
    "weylhecke.weyl_group.cache_misses": "tables",
    "linv.self_s": "latency_p50_ms on quick",
    "linv.calls": "quick",
    "cli.import_s": "setup_s on every workload",
    "cli.self_s": "tables and quick",
    "cli.stdout_bytes": "tables",
    **{
        f"{layer}.self_s.{size}": f"size sweep of {layer}"
        for layer, sizes in SIZE_SWEEP.items()
        for size in sizes
    },
    "trace.overhead_ratio": "none: traced wall time / untraced wall time",
}


class PassTotals:
    """Sums request contributions over a traced run and reports per pass.

    Times and counts are per pass over the workload's request list, so a
    run that completes more passes reports the same figures.  `max_bits`
    is a maximum, `cli.import_s` the median per process, and
    `phin.regular_yield` the ratio of the run's totals.
    """

    def __init__(self):
        self.sums: dict[str, float] = defaultdict(float)
        self.imports: list[float] = []
        self.max_bits = 0

    def add(self, doc: dict, size: str | None, stdout_bytes: int) -> None:
        for key, value in request_metrics(doc, size).items():
            if key == "exactlin.max_bits":
                self.max_bits = max(self.max_bits, value)
            else:
                self.sums[key] += value
        self.sums["cli.stdout_bytes"] += stdout_bytes
        self.imports.append(doc["import_s"])

    def metrics(self, names, passes: int, traced_s: float, untraced_s: float) -> dict[str, float]:
        tested = self.sums["phin.regular_tested"]
        special = {
            "exactlin.max_bits": self.max_bits,
            "phin.regular_yield": self.sums["phin.regular_found"] / tested if tested else 0.0,
            "cli.import_s": statistics.median(self.imports),
            "trace.overhead_ratio": traced_s / untraced_s,
        }
        unknown = [name for name in names if name not in MOVES]
        if unknown:
            raise KeyError(f"no per-layer metric named {unknown}")
        return {name: special[name] if name in special else self.sums.get(name, 0.0) / passes for name in names}

    def shares(self) -> dict[str, float]:
        """Each layer's share of the measured in-process time.

        That time is the spans' self times plus `import` (importing
        linvariants.cli in each process).  Besides the program's layers it
        names `cli` (cli.main outside any layer span), `oracle` (the oracle
        request's own code) and `trace` (the tracer's bookkeeping).
        Interpreter start and exit are outside it.
        """
        parts = {key[: -len(".self_s")]: value for key, value in self.sums.items() if key.endswith(".self_s")}
        parts["import"] = sum(self.imports)
        total = sum(parts.values())
        return {layer: round(value / total, 4) for layer, value in sorted(parts.items()) if value}
