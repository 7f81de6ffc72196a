"""Exact Laurent-polynomial arithmetic in the integral group ring of H2.

A polynomial is a finite map from exponent vectors (rational coordinates
over the ambient lattice basis) to nonzero integer coefficients.  Fractional
exponents only appear with denominators introduced by multiplicity-p torus
transforms; the running denominator is recorded on the polynomial.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable

from .errors import AmbientMismatch
from .lattice import IntersectionLattice, LatticeVector

ExpVec = tuple[Fraction, ...]


def _normalize_terms(terms: dict) -> dict[ExpVec, int]:
    out = {}
    for exp, coef in terms.items():
        coef = int(coef)
        if coef == 0:
            continue
        key = tuple(Fraction(x) for x in exp)
        out[key] = out.get(key, 0) + coef
        if out[key] == 0:
            del out[key]
    return out


@dataclass(frozen=True)
class SWPolynomial:
    """Finite integer combination of group-ring generators t_alpha."""

    ambient: IntersectionLattice
    terms: dict[ExpVec, int] = field(default_factory=dict)
    denominator: int = 1

    def __post_init__(self):
        object.__setattr__(self, "terms", _normalize_terms(self.terms))
        for exp in self.terms:
            if len(exp) != self.ambient.rank:
                raise ValueError("exponent length does not match ambient rank")
            for x in exp:
                if self.denominator % x.denominator != 0:
                    raise ValueError(
                        f"exponent denominator {x.denominator} not covered by "
                        f"recorded denominator {self.denominator}"
                    )

    # -- constructors -------------------------------------------------------
    @staticmethod
    def one(ambient: IntersectionLattice) -> "SWPolynomial":
        return SWPolynomial(ambient, {tuple([Fraction(0)] * ambient.rank): 1})

    @staticmethod
    def zero(ambient: IntersectionLattice) -> "SWPolynomial":
        return SWPolynomial(ambient, {})

    @staticmethod
    def monomial(ambient: IntersectionLattice, exp: LatticeVector, coef: int = 1,
                 denominator: int = 1) -> "SWPolynomial":
        return SWPolynomial(ambient, {tuple(exp.coords): coef}, denominator)

    # -- ring structure -----------------------------------------------------
    def _check(self, other: "SWPolynomial"):
        if self.ambient is not other.ambient and self.ambient != other.ambient:
            raise AmbientMismatch("polynomials live over different lattices")

    def __add__(self, other: "SWPolynomial") -> "SWPolynomial":
        self._check(other)
        terms = dict(self.terms)
        for exp, coef in other.terms.items():
            terms[exp] = terms.get(exp, 0) + coef
        den = math.lcm(self.denominator, other.denominator)
        return SWPolynomial(self.ambient, terms, den)

    def __sub__(self, other: "SWPolynomial") -> "SWPolynomial":
        return self + other.scale(-1)

    def scale(self, s: int) -> "SWPolynomial":
        return SWPolynomial(
            self.ambient, {e: s * c for e, c in self.terms.items()}, self.denominator
        )

    def __mul__(self, other: "SWPolynomial") -> "SWPolynomial":
        self._check(other)
        terms: dict[ExpVec, int] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                key = tuple(a + b for a, b in zip(e1, e2))
                terms[key] = terms.get(key, 0) + c1 * c2
        den = math.lcm(self.denominator, other.denominator)
        return SWPolynomial(self.ambient, terms, den)

    def __pow__(self, n: int) -> "SWPolynomial":
        if n < 0:
            raise ValueError("negative powers are not defined")
        out = SWPolynomial.one(self.ambient)
        for _ in range(n):
            out = out * self
        return out

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, exp: LatticeVector) -> int:
        return self.terms.get(tuple(exp.coords), 0)

    def coefficient_sum(self) -> int:
        return sum(self.terms.values())

    def term_count(self) -> int:
        return len(self.terms)

    # -- queries ------------------------------------------------------------
    def basic_classes(self) -> list[tuple[LatticeVector, int]]:
        """(exponent, coefficient) pairs, lexicographic on coordinates."""
        return [
            (LatticeVector(exp), self.terms[exp]) for exp in sorted(self.terms)
        ]

    def check_symmetry(self, chi_h: int) -> bool:
        """coefficient(-b) == (-1)^chi_h * coefficient(b) for all exponents."""
        sign = -1 if chi_h % 2 else 1
        for exp, coef in self.terms.items():
            neg = tuple(-x for x in exp)
            if self.terms.get(neg, 0) != sign * coef:
                return False
        return True

    def equal(self, other: "SWPolynomial") -> bool:
        return self.terms == other.terms

    def equal_up_to_sign(self, other: "SWPolynomial") -> tuple[bool, bool]:
        """(as-is, globally sign-flipped) comparison verdicts."""
        flipped = {e: -c for e, c in other.terms.items()}
        return self.terms == other.terms, self.terms == flipped

    # -- serialization ------------------------------------------------------
    def to_json(self) -> list[dict]:
        out = []
        for exp in sorted(self.terms):
            out.append(
                {
                    "exp": [f"{x.numerator}/{x.denominator}" if x.denominator != 1
                            else str(x.numerator) for x in exp],
                    "coef": self.terms[exp],
                }
            )
        return out

    @staticmethod
    def from_json(ambient: IntersectionLattice, data: Iterable[dict]) -> "SWPolynomial":
        terms = {}
        den = 1
        for item in data:
            exp = tuple(Fraction(s) for s in item["exp"])
            for x in exp:
                den = math.lcm(den, x.denominator)
            terms[exp] = int(item["coef"])
        return SWPolynomial(ambient, terms, den)


@dataclass(frozen=True)
class ReducedSWPolynomial:
    """Group-ring element with exponents taken modulo the span of a torus class.

    Representatives are canonical: the coordinate of the torus pivot is
    projected to zero, so classes differing by multiples of the torus merge.
    """

    ambient: IntersectionLattice
    torus: LatticeVector
    terms: dict[ExpVec, int] = field(default_factory=dict)

    def __post_init__(self):
        if self.torus.is_zero:
            raise ValueError("torus coordinate vector must be nonzero")
        object.__setattr__(self, "terms", _normalize_terms(self.terms))

    def _check(self, other: "ReducedSWPolynomial"):
        if self.ambient != other.ambient or self.torus != other.torus:
            raise AmbientMismatch("reduced polynomials live over different quotients")

    def __add__(self, other: "ReducedSWPolynomial") -> "ReducedSWPolynomial":
        self._check(other)
        terms = dict(self.terms)
        for exp, coef in other.terms.items():
            terms[exp] = terms.get(exp, 0) + coef
        return ReducedSWPolynomial(self.ambient, self.torus, terms)

    def scale(self, s: int) -> "ReducedSWPolynomial":
        return ReducedSWPolynomial(
            self.ambient, self.torus, {e: s * c for e, c in self.terms.items()}
        )

    def __mul__(self, other: "ReducedSWPolynomial") -> "ReducedSWPolynomial":
        self._check(other)
        terms: dict[ExpVec, int] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                key = _project(tuple(a + b for a, b in zip(e1, e2)), self.torus)
                terms[key] = terms.get(key, 0) + c1 * c2
        return ReducedSWPolynomial(self.ambient, self.torus, terms)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def coefficient_sum(self) -> int:
        return sum(self.terms.values())

    def term_count(self) -> int:
        return len(self.terms)

    def basic_classes(self) -> list[tuple[LatticeVector, int]]:
        return [
            (LatticeVector(exp), self.terms[exp]) for exp in sorted(self.terms)
        ]

    def equal(self, other: "ReducedSWPolynomial") -> bool:
        return self.terms == other.terms


def _project(exp: ExpVec, torus: LatticeVector) -> ExpVec:
    pivot = next(i for i, x in enumerate(torus.coords) if x != 0)
    f = exp[pivot] / torus.coords[pivot]
    return tuple(x - f * t for x, t in zip(exp, torus.coords))


def reduce_by_torus(p: SWPolynomial, torus: LatticeVector) -> ReducedSWPolynomial:
    """Merge exponents congruent modulo span(torus), summing coefficients."""
    if torus.is_zero:
        raise ValueError("torus coordinate vector must be nonzero")
    terms: dict[ExpVec, int] = {}
    for exp, coef in p.terms.items():
        key = _project(exp, torus)
        terms[key] = terms.get(key, 0) + coef
    return ReducedSWPolynomial(p.ambient, torus, terms)


def mms_combine(
    a: ReducedSWPolynomial,
    b: ReducedSWPolynomial,
    c: ReducedSWPolynomial,
    p: int,
    q: int,
    r: int,
) -> ReducedSWPolynomial:
    """p*a + q*b + r*c, the reduced-invariant combination for surgery
    coefficients (p, q, r) on a torus."""
    a._check(b)
    a._check(c)
    return a.scale(p) + b.scale(q) + c.scale(r)
