"""Manifold models: homeomorphism type, validation, wall crossing, and the
exotic-pair detector.

A model is a validated bundle of an intersection lattice, the derived
(e, sigma, t) triple, an SW status, marked square-zero tori, and provenance.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from . import lattice as lat
from .errors import (
    DegenerateForm,
    NoWall,
    NonIntegralVector,
    NotCharacteristic,
    OddDimension,
    UnknownTorus,
)
from .lattice import IntersectionLattice, LatticeVector
from .swring import SWPolynomial

DEFAULT_SEARCH_RADIUS = 5

KNOWN = "known"
UNKNOWN = "unknown"
UNDEFINED = "undefined"


def search_radius() -> int:
    try:
        return int(os.environ.get("M4CALC_SEARCH_RADIUS", DEFAULT_SEARCH_RADIUS))
    except ValueError:
        return DEFAULT_SEARCH_RADIUS


@dataclass(frozen=True)
class HomeoType:
    """(e, sigma, t): the complete homeomorphism classifier input."""

    e: int
    sigma: int
    t: int

    @property
    def chi_h(self) -> Fraction:
        return Fraction(self.e + self.sigma, 4)

    @property
    def c(self) -> int:
        return 3 * self.sigma + 2 * self.e

    @property
    def b_plus(self) -> int:
        return (self.e - 2 + self.sigma) // 2

    @property
    def b_minus(self) -> int:
        return (self.e - 2 - self.sigma) // 2

    def triple(self) -> tuple[int, int, int]:
        return (self.e, self.sigma, self.t)

    def to_json(self) -> dict:
        return {"e": self.e, "sigma": self.sigma, "t": self.t}


@dataclass(frozen=True)
class MarkedTorus:
    """Square-zero class marked for torus surgeries; the geometric
    hypotheses are caller assertions, recorded as flags."""

    cls: LatticeVector
    node_neighborhood: bool = False
    simply_connected_complement: bool = False


@dataclass(frozen=True)
class ChamberVector:
    """Positive-square class selecting a chamber of the positive cone."""

    vec: LatticeVector


@dataclass(frozen=True)
class Provenance:
    op: str
    params: tuple[tuple[str, str], ...] = ()
    parents: tuple["Provenance", ...] = ()
    notes: tuple[str, ...] = ()

    @staticmethod
    def make(op: str, params: dict | None = None,
             parents: tuple["Provenance", ...] = (),
             notes: tuple[str, ...] = ()) -> "Provenance":
        items = tuple(sorted((k, str(v)) for k, v in (params or {}).items()))
        return Provenance(op, items, parents, notes)

    def to_json(self) -> dict:
        return {
            "op": self.op,
            "params": {k: v for k, v in self.params},
            "parents": [p.to_json() for p in self.parents],
            "notes": list(self.notes),
        }


@dataclass(frozen=True)
class ManifoldModel:
    homeo: HomeoType
    lattice: IntersectionLattice
    sw_status: str = UNKNOWN
    sw: Optional[SWPolynomial] = None
    provenance: Provenance = field(default_factory=lambda: Provenance("unspecified"))
    marked_tori: tuple[tuple[str, MarkedTorus], ...] = ()
    parity_override: Optional[int] = None

    @staticmethod
    def build(
        lattice: IntersectionLattice,
        sw_status: str = UNKNOWN,
        sw: Optional[SWPolynomial] = None,
        provenance: Provenance | None = None,
        marked_tori: dict[str, MarkedTorus] | None = None,
        parity_override: Optional[int] = None,
    ) -> "ManifoldModel":
        if lattice.rank > 0 and lattice.determinant() == 0:
            raise DegenerateForm("manifold lattices must be non-degenerate")
        b_plus, b_minus = lat.signature(lattice)
        sigma = b_plus - b_minus
        t = lat.parity(lattice) if parity_override is None else parity_override
        homeo = HomeoType(e=lattice.rank + 2, sigma=sigma, t=t)
        if homeo.chi_h.denominator != 1:
            # SW is only defined when chi_h is an integer
            sw_status, sw = UNDEFINED, None
        if sw_status != KNOWN:
            sw = None
        return ManifoldModel(
            homeo=homeo,
            lattice=lattice,
            sw_status=sw_status,
            sw=sw,
            provenance=provenance or Provenance("unspecified"),
            marked_tori=tuple(sorted((marked_tori or {}).items())),
            parity_override=parity_override,
        )

    @property
    def chi_h(self) -> Fraction:
        return self.homeo.chi_h

    @property
    def c(self) -> int:
        return self.homeo.c

    def torus(self, name: str) -> MarkedTorus:
        for key, t in self.marked_tori:
            if key == name:
                return t
        raise UnknownTorus(f"no marked torus named {name!r}")

    def tori_dict(self) -> dict[str, MarkedTorus]:
        return dict(self.marked_tori)

    def formal_dimension(self, k: LatticeVector) -> Fraction:
        if not k.is_integral:
            raise NonIntegralVector("formal dimension requires an integral class")
        if not lat.is_characteristic(self.lattice, k):
            raise NotCharacteristic("formal dimension requires a characteristic class")
        return lat.formal_dimension(self.lattice, k, self.c)

    def to_json(self) -> dict:
        if self.sw_status == KNOWN:
            sw_json: object = {"known": self.sw.to_json()}
        else:
            sw_json = self.sw_status
        out = {
            "homeo": self.homeo.to_json(),
            "lattice": self.lattice.to_json(),
            "sw": sw_json,
            "provenance": self.provenance.to_json(),
        }
        if self.parity_override is not None:
            out["parity_override"] = self.parity_override
        return out


def homeomorphic(x: ManifoldModel, y: ManifoldModel) -> bool:
    """Freedman comparison: equality of the (e, sigma, t) triples."""
    return x.homeo.triple() == y.homeo.triple()


def _fingerprint(model: ManifoldModel, sign: int):
    """Isometry-invariant summary of the SW basic-class configuration.

    With d the SW denominator, each class beta is scaled to the integer
    vector d beta and mapped once to its Gram image; a pairing is then one
    sparse dot product, divided by d^2."""
    d = model.sw.denominator
    unit = 1 if d == 1 else Fraction(1, d * d)
    classes = [([c.numerator * (d // c.denominator) for c in beta.coords], sign * coef)
               for beta, coef in model.sw.basic_classes()]
    entries = []
    for b, coef in classes:
        image = model.lattice.image(b).items()
        profile = sorted((sum(g * o[j] for j, g in image) * unit, c2) for o, c2 in classes)
        entries.append((coef, sum(g * b[j] for j, g in image) * unit, tuple(profile)))
    return tuple(sorted(entries))


NOT_HOMEOMORPHIC = "NotHomeomorphic"
EXOTIC_PAIR = "ExoticPair"
INDISTINGUISHABLE = "IndistinguishableHere"
UNDETERMINED = "Undetermined"


def exotic_verdict(x: ManifoldModel, y: ManifoldModel) -> str:
    if not homeomorphic(x, y):
        return NOT_HOMEOMORPHIC
    if x.sw_status != KNOWN or y.sw_status != KNOWN:
        return UNDETERMINED
    fx = _fingerprint(x, 1)
    if fx == _fingerprint(y, 1) or fx == _fingerprint(y, -1):
        return INDISTINGUISHABLE
    return EXOTIC_PAIR


def wall_crossing_delta(
    x: ManifoldModel,
    k: LatticeVector,
    h_from: ChamberVector,
    h_to: ChamberVector,
) -> int:
    """Jump of the chi_h = 1 invariant across the wall of k: (-1)^(1 + d(k)/2)."""
    if x.chi_h != 1:
        raise ValueError("wall crossing applies to chi_h = 1 models only")
    d = x.formal_dimension(k)
    if d < 0:
        raise ValueError("wall crossing requires d(k) >= 0")
    if d.denominator != 1 or d.numerator % 2 != 0:
        raise OddDimension(f"d(k) = {d} has no integral half")
    L = x.lattice
    if L.square(h_from.vec) <= 0 or L.square(h_to.vec) <= 0:
        raise ValueError("chamber vectors must have positive square")
    if L.pairing(h_from.vec, h_to.vec) <= 0:
        raise ValueError("chamber vectors lie in opposite components")
    kf = L.pairing(k, h_from.vec)
    kt = L.pairing(k, h_to.vec)
    if not (kf < 0 < kt):
        raise NoWall("k.H does not change sign between the chambers")
    half = d.numerator // 2
    return -1 if (1 + half) % 2 else 1


def _diagonal_witness_search(
    diag: list[int], c: int, radius: int
):
    """DFS over characteristic vectors of a diagonal form looking for
    c <= k*k < 0, coordinates bounded by radius.  Coordinates on odd
    diagonal entries must be odd; the first nonzero coordinate is taken
    positive (k and -k are equivalent witnesses)."""
    n = len(diag)
    choices = []
    for d in diag:
        if d % 2:
            vals = [v for v in range(-radius, radius + 1) if v % 2]
        else:
            vals = list(range(-radius, radius + 1))
        choices.append(sorted(vals, key=abs, reverse=True))
    # suffix bounds on the achievable remaining square
    suff_min = [0] * (n + 1)
    suff_max = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        contrib = [diag[i] * v * v for v in choices[i]]
        suff_min[i] = suff_min[i + 1] + min(contrib)
        suff_max[i] = suff_max[i + 1] + max(contrib)

    coords = [0] * n

    def dfs(i: int, partial: int, fixed_sign: bool):
        if i == n:
            if c <= partial <= -1:
                return list(coords)
            return None
        if partial + suff_min[i] > -1 or partial + suff_max[i] < c:
            return None
        for v in sorted(choices[i], key=lambda x: (abs(x), -x)):
            if not fixed_sign and v < 0:
                continue
            coords[i] = v
            found = dfs(i + 1, partial + diag[i] * v * v, fixed_sign or v != 0)
            if found is not None:
                return found
        coords[i] = 0
        return None

    return dfs(0, 0, False)


def search_unstable_class(
    x: ManifoldModel, radius: int | None = None
) -> Optional[LatticeVector]:
    """Characteristic k with d(k) >= 0 and k*k < 0, i.e. a class whose wall
    separates chambers of the positive cone, or None within the radius."""
    radius = radius if radius is not None else search_radius()
    c = x.c
    if c >= 0:
        # d(k) >= 0 forces k*k >= c >= 0: no candidate interval
        return None
    gram = x.lattice.gram
    n = x.lattice.rank
    diagonal = all(gram[i][j] == 0 for i in range(n) for j in range(n) if i != j)
    if diagonal:
        hit = _diagonal_witness_search([gram[i][i] for i in range(n)], c, radius)
        if hit is None:
            return None
        return x.lattice.vector(hit)
    # generic fallback: plain enumeration, feasible for small rank only
    if (2 * radius + 1) ** n > 2_000_000:
        raise ValueError("lattice too large for generic witness enumeration")
    for coords in itertools.product(range(-radius, radius + 1), repeat=n):
        v = x.lattice.vector(coords)
        if not lat.is_characteristic(x.lattice, v):
            continue
        sq = x.lattice.square(v)
        if c <= sq < 0:
            return v
    return None


def small_bminus_stability(
    x: ManifoldModel, radius: int | None = None, waive_precondition: bool = False
) -> bool:
    """Falsification harness for the claim that chi_h = 1, b- <= 9 manifolds
    have a chamber-independent invariant: True iff no wall-separating class
    is found within the search radius."""
    if not waive_precondition:
        if x.chi_h != 1:
            raise ValueError("stability check applies to chi_h = 1 models")
        if x.homeo.b_minus > 9:
            raise ValueError("precondition b- <= 9 violated (pass waive_precondition to probe)")
    return search_unstable_class(x, radius) is None


# ---------------------------------------------------------------------------
# validation

ROKHLIN = "RokhlinViolation"
EULER_RANK = "EulerRankMismatch"
SIGMA_MISMATCH = "SignatureMismatch"
PARITY_MISMATCH = "ParityMismatch"
SIGMA_PARITY = "SignatureParityMismatch"
SYMMETRY = "SymmetryViolation"
NON_INTEGRAL = "NonIntegralBasicClass"
NON_CHARACTERISTIC = "NonCharacteristicBasicClass"
NEGATIVE_DIMENSION = "NegativeFormalDimension"
NON_INTEGRAL_DIMENSION = "NonIntegralFormalDimension"
VAN_DER_BLIJ = "VanDerBlijViolation"
UNDEFINED_STATUS = "NonIntegralChiHWithDefinedSW"


def validate(x: ManifoldModel) -> list[str]:
    """All structural invariant checks; violations are returned, not raised."""
    out = []
    h = x.homeo
    if h.e != x.lattice.rank + 2:
        out.append(EULER_RANK)
    b_plus, b_minus = lat.signature(x.lattice)
    if h.sigma != b_plus - b_minus:
        out.append(SIGMA_MISMATCH)
    if x.parity_override is None and h.t != lat.parity(x.lattice):
        out.append(PARITY_MISMATCH)
    if (h.sigma - (h.e - 2)) % 2 != 0:
        out.append(SIGMA_PARITY)
    if h.t == 0 and h.sigma % 16 != 0:
        out.append(ROKHLIN)
    if h.chi_h.denominator != 1 and x.sw_status != UNDEFINED:
        out.append(UNDEFINED_STATUS)
    if x.sw_status == KNOWN:
        chi = h.chi_h
        if not x.sw.check_symmetry(chi.numerator if chi.denominator == 1 else 1):
            out.append(SYMMETRY)
        den = x.sw.denominator
        for beta, _coef in x.sw.basic_classes():
            covered = all(c.denominator == 1 or den % c.denominator == 0
                          for c in beta.coords)
            if not beta.is_integral:
                if not covered or den == 1:
                    out.append(NON_INTEGRAL)
                # fractional classes are integral only over the transformed
                # basis; characteristic/dimension checks do not apply here
                continue
            if not lat.is_characteristic(x.lattice, beta):
                out.append(NON_CHARACTERISTIC)
                continue
            sq = x.lattice.square(beta)
            if (sq - h.sigma) % 8 != 0:
                out.append(VAN_DER_BLIJ)
            d = (sq - h.c) / Fraction(4)
            if d.denominator != 1:
                out.append(NON_INTEGRAL_DIMENSION)
            elif d < 0:
                out.append(NEGATIVE_DIMENSION)
    return out
