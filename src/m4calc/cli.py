"""Construction-script parsing, the pipeline runner, and emitters.

Scripts are JSON: {"steps": [{"op", "args", "bind"}...], "compare": [[a,b]...]}.
Each step binds a manifold model; later steps reference earlier bindings.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field

from . import geography
from .errors import BadArgument, M4CalcError, ScriptError
from .knots import KnotDescriptor, alexander
from .manifold import KNOWN, ManifoldModel, exotic_verdict, validate
from .surgery import (
    blowup,
    fiber_sum,
    knot_surgery,
    log_transform,
    rational_blowdown,
    seed,
)


@dataclass(frozen=True)
class Diagnostic:
    message: str
    step: int | None = None
    line: int | None = None
    column: int | None = None

    def __str__(self):
        where = []
        if self.step is not None:
            where.append(f"step {self.step}")
        if self.line is not None:
            where.append(f"line {self.line}, column {self.column}")
        prefix = " (".join([""] + where) + ")" * len(where) if where else ""
        return f"{self.message}{prefix}"


@dataclass(frozen=True)
class Step:
    op: str
    args: dict
    bind: str


@dataclass(frozen=True)
class ConstructionScript:
    steps: tuple[Step, ...]
    compare: tuple[tuple[str, str], ...] = ()

    def to_json(self) -> dict:
        out = {"steps": [{"op": s.op, "args": s.args, "bind": s.bind} for s in self.steps]}
        if self.compare:
            out["compare"] = [list(pair) for pair in self.compare]
        return out


OP_ARG_KEYS = {
    "seed": {"name"},
    "blowup": {"on"},
    "log_transform": {"on", "T", "p"},
    "knot_surgery": {"on", "T", "knot", "torus", "seifert", "fibered", "unknot"},
    "rational_blowdown": {"on", "p", "classes"},
    "fiber_sum": {"on", "classes", "genus", "t", "spin_glue"},
}

OP_REQUIRED = {
    "seed": {"name"},
    "blowup": {"on"},
    "log_transform": {"on", "T", "p"},
    "knot_surgery": {"on", "T"},
    "rational_blowdown": {"on", "p", "classes"},
    "fiber_sum": {"on", "genus"},
}


def _step_refs(step: Step) -> list[str]:
    if step.op == "fiber_sum":
        on = step.args.get("on")
        return list(on) if isinstance(on, list) else []
    if "on" in step.args:
        return [step.args["on"]]
    return []


def parse(text: str) -> ConstructionScript:
    """Validated script, or ScriptError carrying positioned diagnostics."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScriptError(
            [Diagnostic(f"syntax error: {exc.msg}", line=exc.lineno, column=exc.colno)]
        ) from exc
    diags: list[Diagnostic] = []
    if not isinstance(data, dict) or not isinstance(data.get("steps", None), list):
        raise ScriptError([Diagnostic('script must be an object with a "steps" list')])
    steps: list[Step] = []
    bound: set[str] = set()
    for i, raw in enumerate(data["steps"]):
        if not isinstance(raw, dict):
            diags.append(Diagnostic("step must be an object", step=i))
            continue
        op = raw.get("op")
        if op not in OP_ARG_KEYS:
            diags.append(Diagnostic(f"unknown op {op!r}", step=i))
            continue
        args = raw.get("args", {})
        if not isinstance(args, dict):
            diags.append(Diagnostic("args must be an object", step=i))
            continue
        bad = set(args) - OP_ARG_KEYS[op]
        if bad:
            diags.append(Diagnostic(f"bad args for {op}: {sorted(bad)}", step=i))
            continue
        missing = OP_REQUIRED[op] - set(args)
        if op == "knot_surgery" and missing == set():
            if not ({"knot", "torus", "seifert", "unknot"} & set(args)):
                diags.append(Diagnostic("knot_surgery needs a knot description", step=i))
                continue
        if missing:
            diags.append(Diagnostic(f"missing args for {op}: {sorted(missing)}", step=i))
            continue
        bind = raw.get("bind")
        if not isinstance(bind, str) or not bind:
            diags.append(Diagnostic("step needs a string bind", step=i))
            continue
        if bind in bound:
            diags.append(Diagnostic(f"binding {bind!r} redefined", step=i))
            continue
        step = Step(op, args, bind)
        for ref in _step_refs(step):
            if ref not in bound:
                diags.append(Diagnostic(f"dangling reference {ref!r}", step=i))
        bound.add(bind)
        steps.append(step)
    compare = []
    for pair in data.get("compare", []):
        if (
            not isinstance(pair, list) or len(pair) != 2
            or any(p not in bound for p in pair)
        ):
            diags.append(Diagnostic(f"bad compare pair {pair!r}"))
            continue
        compare.append((pair[0], pair[1]))
    if diags:
        raise ScriptError(diags)
    return ConstructionScript(tuple(steps), tuple(compare))


def _knot_from_args(args: dict) -> KnotDescriptor:
    if "knot" in args:
        return KnotDescriptor.from_json(args["knot"])
    if args.get("unknot"):
        return KnotDescriptor.unknot()
    if "torus" in args:
        p, q = args["torus"]
        return KnotDescriptor.torus_knot(p, q)
    return KnotDescriptor.from_seifert(args["seifert"], args.get("fibered", False))


def _int(args: dict, key: str, default=None) -> int:
    try:
        return int(args.get(key, default))
    except (TypeError, ValueError) as exc:
        raise BadArgument(f"{key} must be an integer, got {args.get(key)!r}") from exc


def _execute_step(step: Step, env: dict[str, ManifoldModel]) -> ManifoldModel:
    a = step.args
    if step.op == "seed":
        return seed(a["name"])
    if step.op == "blowup":
        return blowup(env[a["on"]])
    if step.op == "log_transform":
        return log_transform(env[a["on"]], a["T"], _int(a, "p"))
    if step.op == "knot_surgery":
        return knot_surgery(env[a["on"]], a["T"], _knot_from_args(a))
    if step.op == "rational_blowdown":
        return rational_blowdown(env[a["on"]], list(a["classes"]), _int(a, "p"))
    if step.op == "fiber_sum":
        n1, n2 = a["on"]
        x1, x2 = env[n1], env[n2]
        t1_name, t2_name = a.get("classes", ["fiber", "fiber"])
        return fiber_sum(
            x1, x1.torus(t1_name).cls, x2, x2.torus(t2_name).cls,
            _int(a, "genus"), t_out=_int(a, "t", 1),
            spin_glue=bool(a.get("spin_glue", False)),
        )
    raise AssertionError(f"unreachable op {step.op}")


@dataclass
class RunResult:
    models: dict[str, ManifoldModel] = field(default_factory=dict)
    report: dict = field(default_factory=dict)


def run(script: ConstructionScript) -> RunResult:
    env: dict[str, ManifoldModel] = {}
    report: dict = {"models": {}, "comparisons": []}
    for i, step in enumerate(script.steps):
        try:
            model = _execute_step(step, env)
        except M4CalcError as exc:
            raise ScriptError(
                [Diagnostic(f"{type(exc).__name__}: {exc}", step=i)]
            ) from exc
        env[step.bind] = model
        entry = {
            "e": model.homeo.e,
            "sigma": model.homeo.sigma,
            "t": model.homeo.t,
            "chi_h": str(model.chi_h),
            "c": model.c,
            "sw_status": model.sw_status,
            "violations": validate(model),
        }
        if model.sw_status == KNOWN:
            entry["sw"] = model.sw.to_json()
            entry["basic_class_count"] = model.sw.term_count()
        report["models"][step.bind] = entry
    for a, b in script.compare:
        report["comparisons"].append(
            {"pair": [a, b], "verdict": exotic_verdict(env[a], env[b])}
        )
    return RunResult(models=env, report=report)


def emit_dag(script: ConstructionScript, result: RunResult) -> str:
    """DOT graph: one node per binding, one edge per parent reference."""
    lines = ["digraph construction {"]
    for step in script.steps:
        model = result.models[step.bind]
        count = model.sw.term_count() if model.sw_status == KNOWN else "?"
        label = (
            f"{step.bind}\\nchi_h={model.chi_h} c={model.c} t={model.homeo.t}"
            f"\\nbasic classes: {count}"
        )
        lines.append(f'  "{step.bind}" [label="{label}"];')
        params = {k: v for k, v in step.args.items() if k != "on"}
        edge_label = f"{step.op} {json.dumps(params)}".replace('"', "'")
        for ref in _step_refs(step):
            lines.append(f'  "{ref}" -> "{step.bind}" [label="{edge_label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# command-line surface


def _report_text(report: dict) -> str:
    lines = []
    for name, entry in report["models"].items():
        lines.append(
            f"{name}: (e, sigma, t) = ({entry['e']}, {entry['sigma']}, {entry['t']})"
            f"  chi_h = {entry['chi_h']}  c = {entry['c']}  sw = {entry['sw_status']}"
        )
        if "basic_class_count" in entry:
            lines.append(f"  basic classes: {entry['basic_class_count']}")
        if entry["violations"]:
            lines.append(f"  VIOLATIONS: {entry['violations']}")
    for comp in report["comparisons"]:
        a, b = comp["pair"]
        lines.append(f"compare {a} vs {b}: {comp['verdict']}")
    return "\n".join(lines) + "\n"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="m4calc")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a construction script")
    p_run.add_argument("script")
    p_run.add_argument("--report", choices=["json", "text"], default="text")
    p_run.add_argument("--dag", metavar="OUT.dot")

    p_geo = sub.add_parser("geography", help="emit a geography chart")
    p_geo.add_argument("--chi-max", type=int, required=True)
    p_geo.add_argument("--format", choices=["tsv", "svg"], default="tsv")
    p_geo.add_argument("--spin", action="store_true")
    p_geo.add_argument("-o", "--output")

    p_knot = sub.add_parser("knot", help="knot utilities")
    knot_sub = p_knot.add_subparsers(dest="knot_command", required=True)
    p_alex = knot_sub.add_parser("alexander")
    p_alex.add_argument("--torus", nargs=2, type=int, metavar=("P", "Q"))
    p_alex.add_argument("--seifert", metavar="FILE.json")

    p_cmp = sub.add_parser("compare", help="compare two serialized models")
    p_cmp.add_argument("a")
    p_cmp.add_argument("b")

    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except ScriptError as exc:
        for diag in exc.diagnostics:
            print(f"error: {diag}", file=sys.stderr)
        return 1
    except M4CalcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # pragma: no cover - internal failure path
        print(f"internal error: {exc}", file=sys.stderr)
        return 2


def _dispatch(args) -> int:
    if args.command == "run":
        with open(args.script, encoding="utf-8") as fh:
            script = parse(fh.read())
        result = run(script)
        if args.report == "json":
            print(json.dumps(result.report, indent=2))
        else:
            print(_report_text(result.report), end="")
        if args.dag:
            with open(args.dag, "w", encoding="utf-8") as fh:
                fh.write(emit_dag(script, result))
        return 0
    if args.command == "geography":
        if args.format == "tsv":
            doc = geography.chart_tsv(args.chi_max, spin=args.spin)
        else:
            doc = geography.chart_svg(args.chi_max, spin=args.spin)
        if args.output:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(doc)
        else:
            print(doc, end="")
        return 0
    if args.command == "knot":
        if args.torus:
            try:
                knot = KnotDescriptor.torus_knot(*args.torus)
            except ValueError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 1
        elif args.seifert:
            with open(args.seifert, encoding="utf-8") as fh:
                data = json.load(fh)
            knot = KnotDescriptor.from_json(data if isinstance(data, dict)
                                            else {"seifert": data})
        else:
            print("error: provide --torus P Q or --seifert FILE", file=sys.stderr)
            return 1
        print(alexander(knot))
        return 0
    if args.command == "compare":
        models = []
        for path in (args.a, args.b):
            with open(path, encoding="utf-8") as fh:
                models.append(model_from_json(json.load(fh)))
        print(exotic_verdict(*models))
        return 0
    raise AssertionError


def model_from_json(data: dict) -> ManifoldModel:
    from .lattice import IntersectionLattice
    from .swring import SWPolynomial

    lattice = IntersectionLattice.from_json(data["lattice"])
    sw_field, override = data["sw"], data.get("parity_override")
    if isinstance(sw_field, dict) and "known" in sw_field:
        sw = SWPolynomial.from_json(lattice, sw_field["known"])
        return ManifoldModel.build(lattice, sw_status=KNOWN, sw=sw, parity_override=override)
    return ManifoldModel.build(lattice, sw_status=str(sw_field), parity_override=override)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
