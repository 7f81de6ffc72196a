"""The three benchmark workloads: input generation and output checks.

Each workload function takes the freshly imported engine modules, a
seeded random generator and a directory for input files, writes its inputs
there and returns one round of requests.  A run repeats that round, with
the same inputs, until its time is up.

A round's schedule of sizes (ranks, knot sizes, blowup counts, Seifert
sizes) is fixed per workload; the seed draws everything inside it (which
knot of a term-count class, multiplicities, band entries, conjugating
matrices, fiber-sum splits, chart sizes).  That keeps the cost of a round
nearly independent of the seed, so runs with different seeds can be
compared.  The schedule also fixes where the latency percentiles fall:
with K request kinds that complete per round, the median and the tail
percentile sit half-way into one kind's block of latencies (K odd, and
K * percentile / 100 a half-integer), not on the edge between two kinds.

Every check compares against `reference` (no engine code) or against a
stated property of the method; checks never read a stored engine output.
"""

from __future__ import annotations

import io
import json
import os
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import reference as ref


@dataclass
class Request:
    """One closed-loop request: `call` is the timed part, `check` returns
    None when the output is right or a message saying what is wrong."""

    kind: str
    call: Callable[[], object]
    check: Callable[[object], str | None]
    fault: str | None = None  # a known program fault this request exposes


@dataclass
class Workload:
    requests: list[Request]
    tail_percentile: int  # latency_tail_s is this percentile
    stats: dict = field(default_factory=dict)  # e.g. report bytes, for tracing


def cli_call(engine, argv: list[str], stats: dict | None = None):
    """m4calc.cli.main in process; returns (exit code, stdout text)."""
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = engine.cli.main(argv)
    text = buf.getvalue()
    if stats is not None:
        stats["cli.report_bytes"] = stats.get("cli.report_bytes", 0) + len(text)
    return code, text


def write_json(path: str, data) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)
    return path


def _exp_key(strings) -> tuple[Fraction, ...]:
    return tuple(Fraction(s) for s in strings)


# ---------------------------------------------------------------------------
# exotic-family: `m4calc run --report json` on exotic-family scripts

# Torus knots grouped by the number of basic classes that knot surgery on
# E(n) gives, so a slot's cost does not depend on which knot the seed picks.
def _knot_classes(n: int) -> dict[int, list[tuple[int, int]]]:
    pool = [(2, 3), (2, 5), (3, 4), (2, 7), (3, 5), (4, 5), (2, 9), (3, 7),
            (2, 11), (3, 8)]
    out: dict[int, list[tuple[int, int]]] = {}
    for pq in pool:
        out.setdefault(ref.basic_class_count(n, ref.torus_delta(*pq), 0), []).append(pq)
    return out


# (n, blowups, basic-class count of member A, of member B): 25 scripts.
# Odd n has a dense all-odd fiber, which makes each pairing cost more, so it
# gets fewer blowups and smaller knots.
EXOTIC_SCHEDULE = (
    (2, 0, 3, 5), (2, 0, 3, 7), (2, 0, 5, 7), (2, 0, 5, 9), (2, 0, 7, 11),
    (2, 1, 3, 5), (2, 1, 3, 7), (2, 1, 5, 7), (2, 1, 5, 9), (2, 1, 7, 11),
    (2, 2, 3, 5), (2, 2, 5, 7), (2, 3, 3, 5),
    (3, 0, 4, 6), (3, 0, 4, 8), (3, 0, 6, 8), (3, 0, 6, 10), (3, 0, 8, 10),
    (3, 1, 4, 6),
    (4, 0, 5, 7), (4, 0, 5, 9), (4, 0, 7, 9), (4, 0, 7, 11), (4, 0, 9, 13),
    (4, 1, 5, 7),
)


def _exotic_script(n: int, b: int, knot_a, knot_b) -> tuple[dict, dict, list]:
    """A family script, the expected (triple, count) per binding and the
    expected verdict per compared pair."""
    steps = [{"op": "seed", "args": {"name": f"E({n})"}, "bind": "x0"}]
    tr = ref.elliptic_triple(n)
    expect = {"x0": (tr, ref.basic_class_count(n, None, 0))}
    for i in range(b):
        steps.append({"op": "blowup", "args": {"on": f"x{i}"}, "bind": f"x{i + 1}"})
        tr = ref.blowup_triple(tr)
        expect[f"x{i + 1}"] = (tr, ref.basic_class_count(n, None, i + 1))
    deltas = {"a": ref.torus_delta(*knot_a), "b": ref.torus_delta(*knot_b)}
    for bind, pq in (("a", knot_a), ("b", knot_b)):
        steps.append({"op": "knot_surgery",
                      "args": {"on": f"x{b}", "T": "fiber", "torus": list(pq)},
                      "bind": bind})
        expect[bind] = (tr, ref.basic_class_count(n, deltas[bind], b))
    # member a built in the other order: knot surgery first, then blowups
    steps.append({"op": "knot_surgery",
                  "args": {"on": "x0", "T": "fiber", "torus": list(knot_a)},
                  "bind": "c0"})
    tr_c = ref.elliptic_triple(n)
    expect["c0"] = (tr_c, ref.basic_class_count(n, deltas["a"], 0))
    for i in range(b):
        steps.append({"op": "blowup", "args": {"on": f"c{i}"}, "bind": f"c{i + 1}"})
        tr_c = ref.blowup_triple(tr_c)
        expect[f"c{i + 1}"] = (tr_c, ref.basic_class_count(n, deltas["a"], i + 1))
    steps.append({"op": "blowup", "args": {"on": "a"}, "bind": "w"})
    expect["w"] = (ref.blowup_triple(tr), ref.basic_class_count(n, deltas["a"], b + 1))
    pairs = [("a", "b", False), ("a", f"c{b}", True), ("a", "w", False)]
    compare, verdicts = [], []
    for x, y, same in pairs:
        v = ref.expected_verdict(*expect[x], *expect[y], same_model=same)
        if v is not None:
            compare.append([x, y])
            verdicts.append(v)
    return {"steps": steps, "compare": compare}, expect, verdicts


def _check_run_report(text: str, expect: dict, verdicts: list) -> str | None:
    report = json.loads(text)
    models = report["models"]
    if set(models) != set(expect):
        return f"report binds {sorted(models)}, expected {sorted(expect)}"
    for bind, (triple, count) in expect.items():
        entry = models[bind]
        got = (entry["e"], entry["sigma"], entry["t"])
        if got != tuple(triple):
            return f"{bind}: (e, sigma, t) = {got}, expected {triple}"
        if entry["sw_status"] != "known" or entry.get("basic_class_count") != count:
            return f"{bind}: {entry.get('basic_class_count')} basic classes, expected {count}"
        if entry["violations"]:
            return f"{bind}: validate reported {entry['violations']}"
        terms = {_exp_key(t["exp"]): t["coef"] for t in entry["sw"]}
        if not ref.symmetric(terms, (triple[0] + triple[1]) // 4):
            return f"{bind}: SW breaks the symmetry law"
    got_v = [c["verdict"] for c in report["comparisons"]]
    if got_v != verdicts:
        return f"verdicts {got_v}, expected {verdicts}"
    return None


def exotic_family(engine, rng, workdir: str) -> Workload:
    stats: dict = {}
    requests = []
    for i, (n, b, count_a, count_b) in enumerate(EXOTIC_SCHEDULE):
        classes = _knot_classes(n)
        knot_a, knot_b = rng.choice(classes[count_a]), rng.choice(classes[count_b])
        script, expect, verdicts = _exotic_script(n, b, knot_a, knot_b)
        path = write_json(os.path.join(workdir, f"family{i:02d}.json"), script)

        def call(path=path):
            return cli_call(engine, ["run", path, "--report", "json"], stats)

        def check(out, expect=expect, verdicts=verdicts):
            code, text = out
            if code != 0:
                return f"exit code {code}"
            return _check_run_report(text, expect, verdicts)

        requests.append(Request(f"run E({n})#{b} T{knot_a}/T{knot_b}", call, check))
    rng.shuffle(requests)
    return Workload(requests, tail_percentile=86, stats=stats)


# ---------------------------------------------------------------------------
# elliptic-tower: large E(n), lattice-heavy operations


def c_p_gram(p: int) -> list[list[int]]:
    """The C_p plumbing chain: u0.u0 = -(p+2), ui.ui = -2, neighbours pair 1."""
    g = [[0] * (p - 1) for _ in range(p - 1)]
    for i in range(p - 1):
        g[i][i] = -(p + 2) if i == 0 else -2
        if i + 1 < p - 1:
            g[i][i + 1] = g[i + 1][i] = 1
    return g


def _blowdown_input(engine, n: int, p: int):
    """C_p + E(n) with SW(E(n)) * (t_k + 1 + t_-k), k = u1 + u3 + ... of
    square -(p-1) (p odd).  The t_k terms keep their moduli dimension and
    survive the blowdown; the middle term does not."""
    lattice, swring = engine.lattice, engine.swring
    base = engine.surgery.seed(f"E({n})")
    chain = lattice.IntersectionLattice(
        tuple(map(tuple, c_p_gram(p))), tuple(f"u{i}" for i in range(p - 1)))
    L = chain.direct_sum(base.lattice)
    kappa = [Fraction(int(i % 2 == 1)) for i in range(p - 1)]
    terms: dict = {}
    for exp, coef in base.sw.terms.items():
        for s in (1, 0, -1):
            key = tuple(s * k for k in kappa) + tuple(exp)
            terms[key] = terms.get(key, 0) + coef
    return L, swring.SWPolynomial(L, terms, 1), [f"u{i}" for i in range(p - 1)]


def _check_fiber_sw(model, expected: dict, triple) -> str | None:
    """SW terms are multiples of the marked fiber with the expected
    coefficients, the fiber has square 0, and the symmetry law holds."""
    got_triple, terms = model.homeo.triple(), model.sw.terms
    if got_triple != tuple(triple):
        return f"(e, sigma, t) = {got_triple}, expected {tuple(triple)}"
    fiber = model.torus("fiber").cls.coords
    if ref.pair(model.lattice.gram, fiber, fiber) != 0:
        return "fiber class does not have square 0"
    mults = ref.fiber_multiples(list(terms), fiber)
    if mults is None:
        return "an SW class is not a multiple of the fiber"
    if dict(zip(mults, terms.values())) != expected:
        return "SW polynomial differs from the closed form"
    if not ref.symmetric(terms, (triple[0] + triple[1]) // 4):
        return "SW breaks the symmetry law"
    return None


def elliptic_tower(engine, rng, workdir: str) -> Workload:
    surgery, geography, swring = engine.surgery, engine.geography, engine.swring
    manifold = engine.manifold
    st: dict = {}  # outputs that later requests of the round consume
    reqs: list[Request] = []

    def add(kind, call, check, fault=None):
        reqs.append(Request(kind, call, check, fault))

    def keep(name, fn):
        def call():
            st[name] = fn()
            return st[name]
        return call

    def triple_is(triple):
        return lambda m: None if m.homeo.triple() == tuple(triple) else (
            f"(e, sigma, t) = {m.homeo.triple()}, expected {tuple(triple)}")

    def seed_check(n):
        expected = {Fraction(e): c for e, c in ref.elliptic_sw(n).items()}
        return lambda m: _check_fiber_sw(m, expected, ref.elliptic_triple(n))

    # blowup chains on E(16) (rank 190) and on odd E(13) (diagonal form)
    for n, blowups in ((16, 1), (13, 2)):
        add(f"seed E({n})", keep(f"E{n}#0", lambda n=n: surgery.seed(f"E({n})")),
            seed_check(n))
        tr = ref.elliptic_triple(n)
        for i in range(blowups):
            tr = ref.blowup_triple(tr)
            add(f"blowup E({n})#{i + 1}",
                keep(f"E{n}#{i + 1}", lambda n=n, i=i: surgery.blowup(st[f"E{n}#{i}"])),
                triple_is(tr))
    add("validate E(16)#1", lambda: manifold.validate(st["E16#1"]),
        lambda v: None if v == [] else f"validate reported {v}")

    # log transforms with multiplicity p, then reduction by the fiber:
    # the reduced coefficient sum is p times the base sum
    for n, base, ps in ((16, "E16#0", (2,)), (13, "E13#0", (5, 6, 7)),
                        (2, None, range(2, 8))):
        p = rng.choice(ps)
        name = f"log{n}"
        if base is None:
            base = "E2"
            add("seed E(2)", keep("E2", lambda: surgery.seed("E(2)")), seed_check(2))
        tr = ref.log_transform_triple(ref.elliptic_triple(n), p)
        expected = ref.log_transform_sw(n, p)
        add(f"log_transform E({n}) p={p}",
            keep(name, lambda base=base, p=p: surgery.log_transform(st[base], "fiber", p)),
            lambda m, expected=expected, tr=tr: _check_fiber_sw(m, expected, tr))
        base_sum = sum(ref.elliptic_sw(n).values())

        def reduce_call(name=name, base=base):
            return swring.reduce_by_torus(st[name].sw, st[base].torus("fiber").cls)

        add(f"reduce_by_torus E({n}) p={p}", reduce_call,
            lambda r, want=p * base_sum: None if r.coefficient_sum() == want
            else f"reduced sum {r.coefficient_sum()}, expected {want}")

    # fiber sum E(a) #_f E(10 - a) = E(10)
    a = rng.randint(1, 9)
    parts = [surgery.seed(f"E({a})"), surgery.seed(f"E({10 - a})")]
    add(f"fiber_sum E({a})+E({10 - a})",
        lambda: surgery.fiber_sum(parts[0], parts[0].torus("fiber").cls,
                                  parts[1], parts[1].torus("fiber").cls, 1),
        lambda m: _check_fiber_sw(
            m, {Fraction(e): c for e, c in ref.elliptic_sw(10).items()},
            ref.elliptic_triple(10)))

    # rational blowdowns of C_p + E(n); each surviving class is 2x a class
    # of E(n)
    for n, p in ((10, 5), (6, 3)):
        L, sw, labels = _blowdown_input(engine, n, p)
        tr_in = (L.rank + 2, -8 * n - (p - 1), n % 2 if p % 2 == 0 else 1)
        name = f"C{p}+E({n})"
        add(f"build {name}",
            keep(name, lambda L=L, sw=sw: manifold.ManifoldModel.build(
                L, sw_status=manifold.KNOWN, sw=sw)),
            triple_is(tr_in))
        want = sorted(2 * c for c in ref.elliptic_sw(n).values())

        def blowdown_check(m, n=n, p=p, tr_in=tr_in, want=want):
            bad = triple_is(ref.rational_blowdown_triple(tr_in, p, n % 2))(m)
            if bad:
                return bad
            got = sorted(m.sw.terms.values())
            if got != want:
                return f"surviving coefficients {got}, expected {want}"
            gram = m.lattice.gram
            if any(ref.pair(gram, e, e) != 0 for e in m.sw.terms):
                return "a surviving class does not have square 0"
            return None

        add(f"rational_blowdown {name}",
            lambda name=name, labels=labels, p=p: surgery.rational_blowdown(
                st[name], labels, p),
            blowdown_check)

    # geography: a realized point and a chart
    chi, c = 9, -2

    def realize_check(r, chi=chi, c=c):
        tr = ref.elliptic_triple(chi)
        for _ in range(-c):
            tr = ref.blowup_triple(tr)
        if r is None:
            return "point reported unrealizable"
        if len(r.script["steps"]) != 1 - c:
            return f"script has {len(r.script['steps'])} steps, expected {1 - c}"
        return triple_is(tr)(r.model)

    add(f"realize ({chi}, {c})",
        lambda: geography.realize(geography.GeographyPoint(chi, c)), realize_check)
    chi_max, spin = rng.randint(20, 30), rng.random() < 0.5
    want_rows = ref.chart_rows(chi_max, spin)
    add(f"chart_tsv {chi_max}{' spin' if spin else ''}",
        lambda: geography.chart_tsv(chi_max, spin=spin),
        lambda doc: None if len(doc.splitlines()) == want_rows + 2
        else f"{len(doc.splitlines()) - 2} chart rows, expected {want_rows}")

    # `m4calc compare` on models written with ManifoldModel.to_json
    def model_file(tag, model):
        return write_json(os.path.join(workdir, f"{tag}.json"), model.to_json())

    # each case: kind, the two models, their reference (triple, count), fault
    cases = []
    n, b = 8, 1
    e_n, tr = surgery.seed(f"E({n})"), ref.elliptic_triple(n)
    blown, tr_b = e_n, tr
    for _ in range(b):
        blown, tr_b = surgery.blowup(blown), ref.blowup_triple(tr_b)
    cases.append((f"E({n}) vs E({n})#{b}", e_n, blown,
                  (tr, n - 1), (tr_b, 2**b * (n - 1)), None))
    n, knot = 6, rng.choice(((2, 3), (2, 5), (3, 4)))
    e_n, tr = surgery.seed(f"E({n})"), ref.elliptic_triple(n)
    cases.append((f"E({n}) vs E({n}) knot T{knot}", e_n, surgery.knot_surgery(
        e_n, "fiber", engine.knots.KnotDescriptor.torus_knot(*knot)),
        (tr, n - 1), (tr, ref.basic_class_count(n, ref.torus_delta(*knot), 0)), None))
    for n, p, fault in ((5, rng.choice((3, 4)), None), (2, 2, "F1")):
        e_n, tr = surgery.seed(f"E({n})"), ref.elliptic_triple(n)
        cases.append((f"E({n})_{p} vs E({n})", surgery.log_transform(e_n, "fiber", p), e_n,
                      (ref.log_transform_triple(tr, p), len(ref.log_transform_sw(n, p))),
                      (tr, n - 1), fault))
    for i, (kind, x, y, ref_x, ref_y, fault) in enumerate(cases):
        want = ref.expected_verdict(*ref_x, *ref_y)
        fa, fb = model_file(f"cmp{i}a", x), model_file(f"cmp{i}b", y)
        add(f"compare {kind}",
            lambda fa=fa, fb=fb: cli_call(engine, ["compare", fa, fb]),
            lambda out, want=want: None if out == (0, want + "\n")
            else f"compare printed {out[1].strip()!r} (exit {out[0]}), expected {want}",
            fault)
    return Workload(reqs, tail_percentile=85)


# ---------------------------------------------------------------------------
# seifert-alexander: `m4calc knot alexander --seifert FILE`


def torus_seifert(p: int, q: int) -> list[list[int]]:
    """Seifert matrix of T(p, q): the tensor product of the (p-1)- and
    (q-1)-square bidiagonal bands with -1 on the diagonal, 1 above it."""
    def band(m):
        return [[-1 if i == j else (1 if j == i + 1 else 0) for j in range(m - 1)]
                for i in range(m - 1)]

    a, b = band(p), band(q)
    k = q - 1
    return [[a[i // k][j // k] * b[i % k][j % k] for j in range(len(a) * k)]
            for i in range(len(a) * k)]


def band_sum_seifert(rng, genus: int, width: int):
    """A genus-g sum of [[a, 1], [0, b]] bands with a, b odd, congruent to
    P^T V P for a random unimodular P = U D: U upper unitriangular with
    nonzero entries on `width` superdiagonals, D a diagonal of signs.  The
    band width fixes the zero pattern, and with it the cost of cofactor
    expansion, whatever the seed."""
    n = 2 * genus
    bands = [(rng.choice((-3, -1, 1, 3)), rng.choice((-3, -1, 1, 3))) for _ in range(genus)]
    v = [[0] * n for _ in range(n)]
    for g, (a, b) in enumerate(bands):
        v[2 * g][2 * g], v[2 * g][2 * g + 1], v[2 * g + 1][2 * g + 1] = a, 1, b
    signs = [rng.choice((-1, 1)) for _ in range(n)]
    p = [[0] * n for _ in range(n)]
    for i in range(n):
        p[i][i] = signs[i]
        for d in range(1, width + 1):
            if i + d < n:
                p[i][i + d] = rng.choice((-2, -1, 1, 2)) * signs[i + d]
    pv = [[sum(p[k][i] * v[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    out = [[sum(pv[i][k] * p[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    return out, bands


def dense_band_sum_seifert(rng, genus: int):
    """A band sum conjugated by a full upper unitriangular U, redrawn until
    every entry of V - t V^T is nonzero: the zero pattern is then empty for
    every seed, and cofactor expansion meets a dense input of known cost."""
    n = 2 * genus
    while True:
        m, bands = band_sum_seifert(rng, genus, n - 1)
        if all(m[i][j] or m[j][i] for i in range(n) for j in range(n)):
            return m, bands


TORUS_KNOTS = ((2, 7), (2, 9), (2, 11), (2, 13), (2, 15),
               (3, 4), (3, 5), (3, 7), (4, 5), (3, 8))
# (Seifert size, band width, count) of the banded random band sums in one
# round, and (size, count) of the dense ones.  Sorted by cost, the round's
# 52 requests put the median in the middle of the eight size-8 band sums and
# the 85th percentile in the middle of the six size-12 ones, whose costs are
# graded (about 30-45 ms), not on one of the five heavy requests (three
# torus knots, two dense size-8 sums): a percentile on a single request kind
# jumps with the host's speed.
RANDOM_SEIFERT = ((6, 2, 18), (8, 1, 8), (10, 1, 6), (12, 1, 6))
DENSE_SEIFERT = ((6, 2), (8, 2))


def seifert_alexander(engine, rng, workdir: str) -> Workload:
    cases = []  # (kind, matrix, expected Delta)
    for p, q in TORUS_KNOTS:
        cases.append((f"T({p},{q})", torus_seifert(p, q), ref.torus_delta(p, q)))
    for size, width, count in RANDOM_SEIFERT:
        for _ in range(count):
            m, bands = band_sum_seifert(rng, size // 2, width)
            cases.append((f"bands {size}", m, ref.band_delta(bands)))
    for size, count in DENSE_SEIFERT:
        for _ in range(count):
            m, bands = dense_band_sum_seifert(rng, size // 2)
            cases.append((f"dense bands {size}", m, ref.band_delta(bands)))
    rng.shuffle(cases)
    requests = []
    for i, (kind, matrix, delta) in enumerate(cases):
        path = write_json(os.path.join(workdir, f"seifert{i:02d}.json"),
                          {"seifert": matrix})

        def check(out, delta=delta):
            code, text = out
            if code != 0:
                return f"exit code {code}"
            got = ref.parse_alexander(text)
            return None if got == delta else f"Delta = {got}, expected {delta}"

        requests.append(Request(
            f"alexander {kind} size {len(matrix)}",
            lambda path=path: cli_call(engine, ["knot", "alexander", "--seifert", path]),
            check))
    return Workload(requests, tail_percentile=85)


WORKLOADS = {
    "exotic-family": exotic_family,
    "elliptic-tower": elliptic_tower,
    "seifert-alexander": seifert_alexander,
}
