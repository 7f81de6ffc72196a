"""Traced mode: spans around the engine's public functions.

The tracer wraps functions from outside the engine, by replacing module
and class attributes, so the engine's code is unchanged.  A function is
wrapped wherever it is looked up: `from .knots import alexander` copies the
function into `surgery` and `cli`, so every loaded m4calc module holding
the original gets the wrapper.

Spans (name, start, end, parent, request) stay in memory in flat arrays and
are written once, when the run ends.  A traced run alternates traced and
untraced rounds of the same requests in one process, so the tracing
overhead is measured against the same host conditions.  A span's self time is its duration
minus the durations of its direct children; calls run on one thread, so
children never overlap.
"""

from __future__ import annotations

import sys
from array import array
from time import perf_counter

# (metric name, unit); every traced run reports each of these, per round.
PER_LAYER = (
    ("lattice.determinant_self_s", "s/round"),
    ("lattice.signature_self_s", "s/round"),
    ("lattice.max_rank", "rank"),
    ("lattice.orthogonal_complement_self_s", "s/round"),
    ("lattice.solve_in_basis_self_s", "s/round"),
    ("lattice.solve_in_basis_calls", "calls/round"),
    ("lattice.pairing_calls", "calls/round"),
    ("lattice.pairing_self_s", "s/round"),
    ("swring.mul_self_s", "s/round"),
    ("swring.mul_calls", "calls/round"),
    ("swring.mul_term_products", "terms/round"),
    ("swring.reduce_by_torus_self_s", "s/round"),
    ("swring.max_terms", "terms"),
    ("knots.alexander_seifert_self_s", "s/round"),
    ("knots.alexander_seifert_calls", "calls/round"),
    ("knots.max_seifert_size", "rows"),
    ("knots.alexander_torus_self_s", "s/round"),
    ("manifold.build_self_s", "s/round"),
    ("manifold.build_calls", "calls/round"),
    ("manifold.validate_self_s", "s/round"),
    ("manifold.exotic_verdict_self_s", "s/round"),
    ("manifold.exotic_verdict_calls", "calls/round"),
    ("surgery.seed_self_s", "s/round"),
    ("surgery.blowup_self_s", "s/round"),
    ("surgery.log_transform_self_s", "s/round"),
    ("surgery.knot_surgery_self_s", "s/round"),
    ("surgery.rational_blowdown_self_s", "s/round"),
    ("surgery.fiber_sum_self_s", "s/round"),
    ("geography.realize_self_s", "s/round"),
    ("geography.chart_tsv_self_s", "s/round"),
    ("cli.parse_self_s", "s/round"),
    ("cli.run_self_s", "s/round"),
    ("cli.main_self_s", "s/round"),
    ("cli.report_bytes", "B/round"),
    ("trace.overhead_s", "s/round"),
    ("trace.untraced_round_s", "s"),
)

# counters that hold a maximum rather than a per-round total
_MAXIMA = {"lattice.max_rank", "swring.max_terms", "knots.max_seifert_size"}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.request = array("l")
        self._stack = [-1]
        self.counters: dict[str, int] = {}

    def _id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def begin(self, name: str) -> int:
        idx = len(self.start)
        parent = self._stack[-1]
        self.name_of.append(self._id(name))
        self.parent.append(parent)
        self.request.append(idx if parent < 0 else self.request[parent])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def finish(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def count(self, key: str, value: int) -> None:
        if key in _MAXIMA:
            self.counters[key] = max(self.counters.get(key, 0), value)
        else:
            self.counters[key] = self.counters.get(key, 0) + value

    def wrap(self, fn, name, observe=None):
        """fn with a span around each call; name is a string or a function
        of the call's arguments; observe(args, result) records counters."""
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer.begin(name if isinstance(name, str) else name(args))
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.finish(idx)
            if observe is not None:
                observe(args, result)
            return result

        return traced

    # -- results ------------------------------------------------------------
    def self_times(self) -> tuple[dict[str, float], dict[str, int]]:
        """Summed self time and call count per span name."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        self_s: dict[str, float] = {}
        calls: dict[str, int] = {}
        for i in range(n):
            name = self.names[self.name_of[i]]
            self_s[name] = self_s.get(name, 0.0) + (self.end[i] - self.start[i] - child[i])
            calls[name] = calls.get(name, 0) + 1
        return self_s, calls

    def write(self, path: str) -> None:
        """All spans as TSV: request, index, parent, name, start, end."""
        t0 = self.start[0] if len(self.start) else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("request\tspan\tparent\tname\tstart_s\tend_s\n")
            for i in range(len(self.start)):
                fh.write(f"{self.request[i]}\t{i}\t{self.parent[i]}\t"
                         f"{self.names[self.name_of[i]]}\t{self.start[i] - t0:.9f}\t"
                         f"{self.end[i] - t0:.9f}\n")

    def per_layer(self, rounds: int, traced_s: float, untraced_s: float) -> dict[str, dict]:
        """Per-layer metrics over `rounds` traced rounds, plus the tracing
        overhead: mean traced minus mean untraced round time."""
        self_s, calls = self.self_times()
        values: dict[str, float] = {}
        for metric, _unit in PER_LAYER:
            if metric.endswith("_self_s"):
                values[metric] = self_s.get(metric[: -len("_self_s")], 0.0) / rounds
            elif metric.endswith("_calls"):
                values[metric] = calls.get(metric[: -len("_calls")], 0) / rounds
            elif metric in _MAXIMA:
                values[metric] = self.counters.get(metric, 0)
            else:
                values[metric] = self.counters.get(metric, 0) / rounds
        values["trace.overhead_s"] = traced_s - untraced_s
        values["trace.untraced_round_s"] = untraced_s
        return {m: {"value": values[m], "unit": u} for m, u in PER_LAYER}


def install(tracer: Tracer, engine) -> list[tuple[object, str, object]]:
    """Wrap the engine's public functions at every place they are looked up;
    returns what `uninstall` needs to put the originals back."""
    lattice, swring, knots = engine.lattice, engine.swring, engine.knots
    manifold, surgery, geography, cli = (
        engine.manifold, engine.surgery, engine.geography, engine.cli)
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "m4calc" or name.startswith("m4calc."))]

    def rank_of(args, _result):
        tracer.count("lattice.max_rank", args[0].rank)

    def mul_sizes(args, result):
        tracer.count("swring.mul_term_products", len(args[0].terms) * len(args[1].terms))
        tracer.count("swring.max_terms", len(result.terms))

    def alexander_name(args):
        return f"knots.alexander_{args[0].variant}"

    def seifert_size(args, _result):
        if args[0].variant == "seifert":
            tracer.count("knots.max_seifert_size", len(args[0].seifert))

    functions = [
        (lattice, "signature", "lattice.signature", rank_of),
        (lattice, "orthogonal_complement", "lattice.orthogonal_complement", None),
        (lattice, "solve_in_basis", "lattice.solve_in_basis", None),
        (swring, "reduce_by_torus", "swring.reduce_by_torus", None),
        (knots, "alexander", alexander_name, seifert_size),
        (manifold, "validate", "manifold.validate", None),
        (manifold, "exotic_verdict", "manifold.exotic_verdict", None),
        (geography, "realize", "geography.realize", None),
        (geography, "chart_tsv", "geography.chart_tsv", None),
        (cli, "parse", "cli.parse", None),
        (cli, "run", "cli.run", None),
        (cli, "main", "cli.main", None),
    ] + [(surgery, op, f"surgery.{op}", None) for op in (
        "seed", "blowup", "log_transform", "knot_surgery", "rational_blowdown",
        "fiber_sum")]
    undo = []

    def replace(owner, attr, new):
        undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    for home, attr, name, observe in functions:
        original = getattr(home, attr)
        wrapped = tracer.wrap(original, name, observe)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    replace(module, key, wrapped)

    methods = [
        (lattice.IntersectionLattice, "determinant", "lattice.determinant", rank_of),
        (lattice.IntersectionLattice, "pairing", "lattice.pairing", None),
        (swring.SWPolynomial, "__mul__", "swring.mul", mul_sizes),
        (swring.ReducedSWPolynomial, "__mul__", "swring.mul", mul_sizes),
    ]
    for cls, attr, name, observe in methods:
        replace(cls, attr, tracer.wrap(getattr(cls, attr), name, observe))
    build = manifold.ManifoldModel.__dict__["build"].__func__
    replace(manifold.ManifoldModel, "build",
            staticmethod(tracer.wrap(build, "manifold.build")))
    return undo


def uninstall(undo: list[tuple[object, str, object]]) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)
