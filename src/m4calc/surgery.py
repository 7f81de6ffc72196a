"""The cut-and-paste operations as exact model transformations, plus the
generator library of seed manifolds.

Every operation returns a fresh ManifoldModel whose (e, sigma, t) is
recomputed from the transformed lattice; the incremental bookkeeping is
checked against the recomputation (double-entry), raising BookkeepingError.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

from . import lattice as lat
from .errors import (
    BadArgument,
    BadPlumbing,
    BookkeepingError,
    DegenerateComplement,
    NotInNodeNeighborhood,
    NotSquareZero,
    UnknownSeed,
)
from .knots import KnotDescriptor, alexander
from .lattice import IntersectionLattice, LatticeVector, diagonal_lattice, e8_gram, hyperbolic_gram
from .manifold import (
    KNOWN,
    UNKNOWN,
    ManifoldModel,
    MarkedTorus,
    Provenance,
)
from .swring import SWPolynomial

RATIONAL_BLOWDOWN_C_NOTE = (
    "c bookkeeping: lattice arithmetic gives delta_c = +(p-1) "
    "(delta_e = -(p-1), delta_sigma = +(p-1)); this differs from the "
    "narrative claim that c drops by p-3, which is inconsistent with the "
    "same source's own e/sigma bookkeeping"
)


# ---------------------------------------------------------------------------
# seed library

_E_PATTERN = re.compile(r"^E\((\d+)\)$")
_CONNECTED_PATTERN = re.compile(r"^CP2#(\d+)CP2bar$")


def _double_entry(ok: bool, op: str) -> None:
    if not ok:
        raise BookkeepingError(f"{op}: bookkeeping disagrees with the recomputed (e, sigma, t)")


def _odd_square_sum(count: int, total: int) -> list[int] | None:
    """count positive odd integers whose squares sum to total, or None."""
    if count == 0:
        return [] if total == 0 else None
    if total < count:
        return None
    root = math.isqrt(total - (count - 1))
    if root % 2 == 0:
        root -= 1
    for a in range(root, 0, -2):
        rest = _odd_square_sum(count - 1, total - a * a)
        if rest is not None and (not rest or rest[0] <= a):
            return [a] + rest
    return None


def _elliptic_surface(n: int) -> ManifoldModel:
    if n < 1:
        raise UnknownSeed("E(n) requires n >= 1")
    if n % 2 == 0:
        # even form: (2n-1) hyperbolic planes plus n copies of -E8
        L = IntersectionLattice(hyperbolic_gram(), ("h0a", "h0b"))
        for i in range(1, 2 * n - 1):
            L = L.direct_sum(
                IntersectionLattice(hyperbolic_gram(), (f"h{i}a", f"h{i}b"))
            )
        for i in range(n):
            L = L.direct_sum(
                IntersectionLattice(e8_gram(), tuple(f"g{i}_{j}" for j in range(8)))
            )
        fiber = L.basis_vector(0)
    else:
        # odd form: diagonal; the fiber class has all-odd coordinates so it
        # stays characteristic (for E(1) this is the classic 3h - sum(e_i))
        b_plus, b_minus = 2 * n - 1, 10 * n - 1
        labels = ["h"] + [f"p{i}" for i in range(1, b_plus)] + [
            f"e{i}" for i in range(1, b_minus + 1)
        ]
        L = diagonal_lattice([1] * b_plus + [-1] * b_minus, labels)
        plus = _odd_square_sum(b_plus, b_minus)
        assert plus is not None, "no odd-square fiber representative found"
        fiber = L.vector(plus + [1] * b_minus)
    torus = MarkedTorus(fiber, node_neighborhood=True, simply_connected_complement=True)
    notes = (
        f"seed basis convention: fiber class fixed as {tuple(map(str, fiber.coords))}",
    )
    if n >= 2:
        t_pos = SWPolynomial.monomial(L, fiber)
        t_neg = SWPolynomial.monomial(L, fiber.scale(-1))
        sw = (t_pos - t_neg) ** (n - 2)
        status = KNOWN
    else:
        sw, status = None, UNKNOWN
        notes += (
            "E(1) invariant is chamber-bound (b+=1, b-=9); no group-ring "
            "seed constant is recorded",
        )
    return ManifoldModel.build(
        L,
        sw_status=status,
        sw=sw,
        provenance=Provenance.make("seed", {"name": f"E({n})"}, notes=notes),
        marked_tori={"fiber": torus},
    )


def seed(name: str) -> ManifoldModel:
    m = _E_PATTERN.match(name)
    if m:
        return _elliptic_surface(int(m.group(1)))
    if name == "CP2":
        L = diagonal_lattice([1], ["h"])
        return ManifoldModel.build(
            L,
            sw_status=KNOWN,
            sw=SWPolynomial.zero(L),
            provenance=Provenance.make(
                "seed", {"name": "CP2"},
                notes=("positive scalar curvature: SW vanishes identically",),
            ),
        )
    m = _CONNECTED_PATTERN.match(name)
    if m:
        k = int(m.group(1))
        labels = ["h"] + [f"e{i}" for i in range(1, k + 1)]
        L = diagonal_lattice([1] + [-1] * k, labels)
        return ManifoldModel.build(
            L,
            sw_status=UNKNOWN,
            provenance=Provenance.make("seed", {"name": name}),
        )
    if name == "S2xS2":
        L = IntersectionLattice(hyperbolic_gram(), ("s1", "s2"))
        return ManifoldModel.build(
            L, sw_status=UNKNOWN, provenance=Provenance.make("seed", {"name": name})
        )
    raise UnknownSeed(f"unknown seed {name!r}")


# ---------------------------------------------------------------------------
# blowup


def _fresh_exceptional_label(lattice: IntersectionLattice) -> str:
    if "E" not in lattice.labels:
        return "E"
    i = 1
    while f"E{i}" in lattice.labels:
        i += 1
    return f"E{i}"


def _extend_exponents(sw: SWPolynomial, new_lattice: IntersectionLattice) -> SWPolynomial:
    pad = new_lattice.rank - sw.ambient.rank
    terms = {exp + (Fraction(0),) * pad: c for exp, c in sw.terms.items()}
    return SWPolynomial(new_lattice, terms, sw.denominator)


def _extend_tori(model: ManifoldModel, new_lattice: IntersectionLattice) -> dict:
    pad = new_lattice.rank - model.lattice.rank
    out = {}
    for name, torus in model.marked_tori:
        coords = torus.cls.coords + (Fraction(0),) * pad
        out[name] = MarkedTorus(
            LatticeVector(coords), torus.node_neighborhood,
            torus.simply_connected_complement,
        )
    return out


def blowup(x: ManifoldModel) -> ManifoldModel:
    label = _fresh_exceptional_label(x.lattice)
    L = x.lattice.direct_sum(diagonal_lattice([-1], [label]))
    e_cls = L.basis_vector(L.rank - 1)
    if x.sw_status == KNOWN:
        sw = _extend_exponents(x.sw, L)
        factor = SWPolynomial.monomial(L, e_cls) + SWPolynomial.monomial(
            L, e_cls.scale(-1)
        )
        sw = sw * factor
        status = KNOWN
    else:
        sw, status = None, x.sw_status
    out = ManifoldModel.build(
        L,
        sw_status=status,
        sw=sw,
        provenance=Provenance.make("blowup", {"exceptional": label},
                                   parents=(x.provenance,)),
        marked_tori=_extend_tori(x, L),
    )
    _double_entry(out.chi_h == x.chi_h and out.c == x.c - 1, "blowup")
    return out


# ---------------------------------------------------------------------------
# generalized logarithmic transform


def log_transform(x: ManifoldModel, torus_name: str, p: int) -> ManifoldModel:
    if p < 1:
        raise BadArgument("multiplicity must be >= 1 (p = 0 leaves the model class)")
    torus = x.torus(torus_name)
    if not torus.node_neighborhood:
        raise NotInNodeNeighborhood(
            f"torus {torus_name!r} is not asserted to lie in a node neighborhood"
        )
    notes = []
    parity_override = x.parity_override
    if torus.simply_connected_complement:
        if x.homeo.t == 0 and p % 2 == 0:
            parity_override = 1
            notes.append(
                "even-multiplicity transform on an even form: type becomes odd; "
                "recorded as a parity override over the bookkeeping lattice"
            )
    else:
        notes.append("complement not asserted simply-connected: t indeterminate")
    if x.sw_status == KNOWN:
        s = torus.cls.scale(Fraction(1, p))
        terms = {}
        for j in range(p):
            exp = tuple(Fraction(2 * j - (p - 1)) * c for c in s.coords)
            terms[exp] = terms.get(exp, 0) + 1
        multiplier = SWPolynomial(x.lattice, terms, p)
        sw = x.sw * multiplier
        status = KNOWN
    else:
        sw, status = None, x.sw_status
    out = ManifoldModel.build(
        x.lattice,
        sw_status=status,
        sw=sw,
        provenance=Provenance.make(
            "log_transform", {"T": torus_name, "p": p},
            parents=(x.provenance,), notes=tuple(notes),
        ),
        marked_tori=x.tori_dict(),
        parity_override=parity_override,
    )
    _double_entry(out.chi_h == x.chi_h and out.c == x.c, "log_transform")
    return out


# ---------------------------------------------------------------------------
# knot surgery


def knot_surgery(x: ManifoldModel, torus_name: str, knot: KnotDescriptor) -> ManifoldModel:
    torus = x.torus(torus_name)
    if not torus.node_neighborhood:
        raise NotInNodeNeighborhood(
            f"torus {torus_name!r} is not asserted to lie in a node neighborhood"
        )
    notes = []
    chi = x.chi_h
    if x.sw_status == KNOWN and chi.denominator == 1 and chi > 1:
        delta = alexander(knot)
        terms = {}
        for t_exp, coef in delta.t_terms().items():
            exp = tuple(Fraction(2 * t_exp) * c for c in torus.cls.coords)
            terms[exp] = terms.get(exp, 0) + coef
        sw = x.sw * SWPolynomial(x.lattice, terms, 1)
        status = KNOWN
    elif x.sw_status == KNOWN:
        sw, status = None, UNKNOWN
        notes.append(
            "chi_h = 1 input: the invariant is determined by the Alexander "
            "polynomial but no closed product formula is recorded; status unknown"
        )
    else:
        sw, status = None, x.sw_status
    out = ManifoldModel.build(
        x.lattice,
        sw_status=status,
        sw=sw,
        provenance=Provenance.make(
            "knot_surgery",
            {"T": torus_name, "knot": knot.to_json()},
            parents=(x.provenance,),
            notes=tuple(notes),
        ),
        marked_tori=x.tori_dict(),
        parity_override=x.parity_override,
    )
    _double_entry(out.homeo.triple() == x.homeo.triple(), "knot_surgery")
    return out


# ---------------------------------------------------------------------------
# rational blowdown


def check_plumbing(lattice: IntersectionLattice, labels: list[str], p: int) -> list[LatticeVector]:
    """The designated classes must realize the C_p chain:
    u0.u0 = -(p+2), ui.ui = -2, consecutive pairings 1, others 0."""
    if len(labels) != p - 1:
        raise BadPlumbing(f"C_{p} needs {p - 1} classes, got {len(labels)}")
    try:
        idx = [lattice.labels.index(name) for name in labels]
    except ValueError as exc:
        raise BadPlumbing(str(exc)) from exc
    us = [lattice.basis_vector(i) for i in idx]
    for a in range(p - 1):
        for b in range(p - 1):
            want = 0
            if a == b:
                want = -(p + 2) if a == 0 else -2
            elif abs(a - b) == 1:
                want = 1
            got = lattice.pairing(us[a], us[b])
            if got != want:
                raise BadPlumbing(
                    f"pairing u{a}.u{b} = {got}, expected {want} for C_{p}"
                )
    return us


def rational_blowdown(x: ManifoldModel, labels: list[str], p: int) -> ManifoldModel:
    us = check_plumbing(x.lattice, labels, p)
    complement, basis = lat.orthogonal_complement(x.lattice, us)
    if complement.rank > 0 and complement.determinant() == 0:
        raise DegenerateComplement("orthogonal complement carries a degenerate form")
    notes = [RATIONAL_BLOWDOWN_C_NOTE]
    new_c = x.c + (p - 1)
    if x.sw_status == KNOWN and x.homeo.b_plus > 1:
        terms: dict = {}
        full_basis = list(basis) + list(us)
        for beta, coef in x.sw.basic_classes():
            sol = lat.solve_in_basis(x.lattice, full_basis, beta)
            if sol is None:
                notes.append(f"class {beta.coords} outside the rational span; dropped")
                continue
            proj = LatticeVector(tuple(sol[: complement.rank]))
            if not proj.is_integral:
                notes.append(f"class {beta.coords}: non-integral projection; dropped")
                continue
            if not lat.is_characteristic(complement, proj):
                notes.append(f"class {beta.coords}: non-characteristic projection; dropped")
                continue
            d_old = lat.formal_dimension(x.lattice, beta, x.c)
            d_new = lat.formal_dimension(complement, proj, new_c)
            if d_old != d_new:
                notes.append(
                    f"class {beta.coords}: moduli dimension changes "
                    f"({d_old} -> {d_new}); dropped"
                )
                continue
            key = tuple(proj.coords)
            terms[key] = terms.get(key, 0) + coef
        sw = SWPolynomial(complement, terms, x.sw.denominator)
        status = KNOWN
    elif x.sw_status == KNOWN:
        sw, status = None, UNKNOWN
        notes.append("b+ = 1 input: SW transport needs a chamber argument; status unknown")
    else:
        sw, status = None, x.sw_status
    # marked tori survive only when they embed integrally in the complement
    tori = {}
    for name, torus in x.marked_tori:
        sol = lat.solve_in_basis(x.lattice, list(basis), torus.cls)
        if sol is not None and all(s.denominator == 1 for s in sol):
            tori[name] = MarkedTorus(
                LatticeVector(sol), torus.node_neighborhood,
                torus.simply_connected_complement,
            )
    out = ManifoldModel.build(
        complement,
        sw_status=status,
        sw=sw,
        provenance=Provenance.make(
            "rational_blowdown", {"p": p, "classes": labels},
            parents=(x.provenance,), notes=tuple(notes),
        ),
        marked_tori=tori,
    )
    _double_entry(out.chi_h == x.chi_h and out.homeo.e == x.homeo.e - (p - 1)
                  and out.homeo.sigma == x.homeo.sigma + (p - 1) and out.c == new_c,
                  "rational_blowdown")
    return out


# ---------------------------------------------------------------------------
# generalized fiber sum


def _bookkeeping_lattice(rank: int, sigma: int, t: int) -> IntersectionLattice:
    if (rank + sigma) % 2 != 0 or abs(sigma) > rank:
        raise ValueError(f"no rank-{rank} form with signature {sigma}")
    if t == 1:
        b_plus = (rank + sigma) // 2
        b_minus = (rank - sigma) // 2
        labels = [f"p{i}" for i in range(b_plus)] + [f"n{i}" for i in range(b_minus)]
        return diagonal_lattice([1] * b_plus + [-1] * b_minus, labels)
    if sigma % 8 != 0:
        raise ValueError("even forms require signature divisible by 8")
    n_e8 = abs(sigma) // 8
    rem = rank - 8 * n_e8
    if rem < 0 or rem % 2 != 0:
        raise ValueError(f"no even rank-{rank} form with signature {sigma}")
    L = None
    for i in range(rem // 2):
        H = IntersectionLattice(hyperbolic_gram(), (f"h{i}a", f"h{i}b"))
        L = H if L is None else L.direct_sum(H)
    for i in range(n_e8):
        E8 = IntersectionLattice(e8_gram(negative=sigma < 0),
                                 tuple(f"g{i}_{j}" for j in range(8)))
        L = E8 if L is None else L.direct_sum(E8)
    if L is None:
        L = IntersectionLattice((), ())
    return L


def _seed_elliptic_n(x: ManifoldModel) -> int | None:
    if x.provenance.op != "seed":
        return None
    for k, v in x.provenance.params:
        if k == "name":
            m = _E_PATTERN.match(v)
            if m:
                return int(m.group(1))
    return None


def fiber_sum(
    x1: ManifoldModel,
    class1: LatticeVector,
    x2: ManifoldModel,
    class2: LatticeVector,
    genus: int,
    t_out: int = 1,
    spin_glue: bool = False,
) -> ManifoldModel:
    if x1.lattice.square(class1) != 0 or x2.lattice.square(class2) != 0:
        raise NotSquareZero("fiber-sum surfaces must have self-intersection zero")
    if genus < 0:
        raise ValueError("genus must be non-negative")
    e_new = x1.homeo.e + x2.homeo.e + 4 * genus - 4
    sigma_new = x1.homeo.sigma + x2.homeo.sigma
    prov = Provenance.make(
        "fiber_sum", {"genus": genus, "t": t_out},
        parents=(x1.provenance, x2.provenance),
    )
    # registered closed-form rule: E(m) #_fiber E(n) along the elliptic
    # fibers is E(m+n); the invariant comes from the seed library
    m, n = _seed_elliptic_n(x1), _seed_elliptic_n(x2)
    if (
        m is not None and n is not None and genus == 1
        and class1 == x1.torus("fiber").cls and class2 == x2.torus("fiber").cls
    ):
        merged = seed(f"E({m + n})")
        return ManifoldModel.build(
            merged.lattice,
            sw_status=merged.sw_status,
            sw=merged.sw,
            provenance=Provenance.make(
                "fiber_sum",
                {"genus": genus, "rule": f"E({m})#E({n})=E({m + n})"},
                parents=(x1.provenance, x2.provenance),
            ),
            marked_tori=merged.tori_dict(),
        )
    if t_out == 0 and not (x1.homeo.t == 0 and x2.homeo.t == 0 and spin_glue):
        raise ValueError(
            "even output type requires both summands spin and an asserted "
            "spin-preserving gluing"
        )
    L = _bookkeeping_lattice(e_new - 2, sigma_new, t_out)
    out = ManifoldModel.build(L, sw_status=UNKNOWN, provenance=prov)
    _double_entry(out.homeo.e == e_new and out.homeo.sigma == sigma_new, "fiber_sum")
    return out
