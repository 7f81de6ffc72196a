"""Symmetrized Alexander polynomials and fibered-genus bookkeeping.

Computations run in the variable u = t^(1/2); a knot polynomial ends up
supported on even u-exponents and is normalized so that its value at 1 is +1.
Link polynomials (half-integer t-exponents) are representable for the skein
harness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import NotAKnot, NotFibered
from .lattice import bareiss

UTerms = dict[int, int]  # u-exponent -> coefficient


def _clean(terms: UTerms) -> UTerms:
    return {e: c for e, c in sorted(terms.items()) if c != 0}


def _add(a: UTerms, b: UTerms) -> UTerms:
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + c
    return _clean(out)


def _neg(a: UTerms) -> UTerms:
    return {e: -c for e, c in a.items()}


def _mul(a: UTerms, b: UTerms) -> UTerms:
    out: UTerms = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return _clean(out)


def _divexact(num: UTerms, den: UTerms) -> UTerms:
    """Exact Laurent division; raises if the division leaves a remainder."""
    if not den:
        raise ZeroDivisionError
    if not num:
        return {}
    num = dict(num)
    out: UTerms = {}
    den_top = max(den)
    lead = den[den_top]
    while num:
        top = max(num)
        q, r = divmod(num[top], lead)
        if r != 0:
            raise ArithmeticError("division is not exact")
        shift = top - den_top
        out[shift] = out.get(shift, 0) + q
        for e, c in den.items():
            num[e + shift] = num.get(e + shift, 0) - q * c
            if num[e + shift] == 0:
                del num[e + shift]
    return _clean(out)


def _u_power_binomial(n: int) -> UTerms:
    """u^n - u^(-n)."""
    return {n: 1, -n: -1}


@dataclass(frozen=True)
class AlexanderPolynomial:
    """One-variable symmetric Laurent polynomial, stored on u-exponents."""

    u_terms: UTerms = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "u_terms", _clean(self.u_terms))

    @staticmethod
    def from_t_terms(t_terms: dict[int, int]) -> "AlexanderPolynomial":
        return AlexanderPolynomial({2 * e: c for e, c in t_terms.items()})

    @property
    def is_knot_polynomial(self) -> bool:
        return all(e % 2 == 0 for e in self.u_terms)

    def t_terms(self) -> dict[int, int]:
        if not self.is_knot_polynomial:
            raise ValueError("polynomial has half-integer t-exponents")
        return {e // 2: c for e, c in self.u_terms.items()}

    @property
    def degree(self) -> Fraction:
        """Top t-exponent (half the top u-exponent); 0 for the zero or unit."""
        if not self.u_terms:
            return Fraction(0)
        return Fraction(max(self.u_terms), 2)

    def evaluate_at_one(self) -> int:
        return sum(self.u_terms.values())

    def is_symmetric(self) -> bool:
        return all(self.u_terms.get(-e, 0) == c for e, c in self.u_terms.items())

    def __add__(self, other: "AlexanderPolynomial") -> "AlexanderPolynomial":
        return AlexanderPolynomial(_add(self.u_terms, other.u_terms))

    def __sub__(self, other: "AlexanderPolynomial") -> "AlexanderPolynomial":
        return AlexanderPolynomial(_add(self.u_terms, _neg(other.u_terms)))

    def __mul__(self, other: "AlexanderPolynomial") -> "AlexanderPolynomial":
        return AlexanderPolynomial(_mul(self.u_terms, other.u_terms))

    def __str__(self) -> str:
        if not self.u_terms:
            return "0"
        parts = []
        for e in sorted(self.u_terms, reverse=True):
            c = self.u_terms[e]
            if e == 0:
                parts.append(f"{c:+d}")
            else:
                te = Fraction(e, 2)
                parts.append(f"{c:+d}*t^({te})")
        return " ".join(parts)


@dataclass(frozen=True)
class KnotDescriptor:
    """Unknot, a (p,q) torus knot, or an explicit Seifert matrix."""

    variant: str  # "unknot" | "torus" | "seifert"
    torus: tuple[int, int] | None = None
    seifert: tuple[tuple[int, ...], ...] | None = None
    fibered: bool = True

    def __post_init__(self):
        if self.variant == "torus":
            p, q = self.torus
            if p < 2 or q < 2 or math.gcd(p, q) != 1:
                raise ValueError("torus parameters must be coprime and >= 2")
        elif self.variant == "seifert":
            m = tuple(tuple(int(x) for x in row) for row in self.seifert)
            object.__setattr__(self, "seifert", m)
            if any(len(row) != len(m) for row in m):
                raise ValueError("Seifert matrix must be square")
        elif self.variant != "unknot":
            raise ValueError(f"unknown knot variant {self.variant!r}")

    @staticmethod
    def unknot() -> "KnotDescriptor":
        return KnotDescriptor("unknot")

    @staticmethod
    def torus_knot(p: int, q: int) -> "KnotDescriptor":
        return KnotDescriptor("torus", torus=(p, q))

    @staticmethod
    def from_seifert(matrix, fibered: bool = False) -> "KnotDescriptor":
        return KnotDescriptor("seifert", seifert=tuple(tuple(r) for r in matrix),
                              fibered=fibered)

    def to_json(self):
        if self.variant == "unknot":
            return "unknot"
        if self.variant == "torus":
            return {"torus": list(self.torus)}
        return {"seifert": [list(r) for r in self.seifert], "fibered": self.fibered}

    @staticmethod
    def from_json(data) -> "KnotDescriptor":
        if data == "unknot" or data == {"unknot": True}:
            return KnotDescriptor.unknot()
        if "torus" in data:
            p, q = data["torus"]
            return KnotDescriptor.torus_knot(p, q)
        return KnotDescriptor.from_seifert(data["seifert"], data.get("fibered", False))


def _laurent_det(rows: list[dict[int, UTerms]]) -> UTerms:
    """Determinant over Z[u, u^-1] of sparse rows {column: entry}, by
    fraction-free (Bareiss) elimination."""
    ring = (_mul, lambda a, b: _add(a, _neg(b)), _divexact, {0: 1})
    pivots = bareiss(rows, range(len(rows)), ring=ring)
    if len(pivots) < len(rows):
        return {}
    order = [r for r, _, _ in pivots]
    swaps = sum(a > b for i, a in enumerate(order) for b in order[i + 1:])
    det = pivots[-1][2] if pivots else {0: 1}
    return _neg(det) if swaps % 2 else det


def _seifert_alexander(matrix: tuple[tuple[int, ...], ...]) -> AlexanderPolynomial:
    idx = range(len(matrix))  # u V - u^-1 V^T as sparse Laurent rows
    rows = [{j: e for j in idx if (e := _clean({1: matrix[i][j], -1: -matrix[j][i]}))}
            for i in idx]
    poly = AlexanderPolynomial(_laurent_det(rows))
    val = poly.evaluate_at_one()
    if val not in (1, -1):
        raise NotAKnot(f"det(V - V^T) evaluates to {val}, not a unit")
    if val == -1:
        poly = AlexanderPolynomial(_neg(poly.u_terms))
    if not poly.is_knot_polynomial:
        raise NotAKnot("Seifert determinant has half-integer t-exponents")
    return poly


def _torus_alexander(p: int, q: int) -> AlexanderPolynomial:
    num = _mul(_u_power_binomial(p * q), _u_power_binomial(1))
    den = _mul(_u_power_binomial(p), _u_power_binomial(q))
    poly = AlexanderPolynomial(_divexact(num, den))
    if poly.evaluate_at_one() == -1:
        poly = AlexanderPolynomial(_neg(poly.u_terms))
    return poly


def alexander(knot: KnotDescriptor) -> AlexanderPolynomial:
    """Symmetrized Alexander polynomial, normalized to value +1 at t = 1."""
    if knot.variant == "unknot":
        return AlexanderPolynomial({0: 1})
    if knot.variant == "torus":
        return _torus_alexander(*knot.torus)
    return _seifert_alexander(knot.seifert)


def fibered_genus(knot: KnotDescriptor) -> int:
    """Genus of the fiber surface; the top exponent of the Alexander
    polynomial for fibered knots."""
    if not knot.fibered:
        raise NotFibered("knot is not flagged as fibered")
    deg = alexander(knot).degree
    assert deg.denominator == 1
    return deg.numerator


def skein_check(
    k_plus: KnotDescriptor,
    k_minus: KnotDescriptor,
    k_zero_delta: AlexanderPolynomial,
) -> bool:
    """Delta(K+) - Delta(K-) == (t^(1/2) - t^(-1/2)) * Delta(K0), exactly."""
    lhs = alexander(k_plus) - alexander(k_minus)
    rhs = AlexanderPolynomial(_u_power_binomial(1)) * k_zero_delta
    return lhs.u_terms == rhs.u_terms


def torus_seifert_matrix(p: int, q: int) -> tuple[tuple[int, ...], ...]:
    """Seifert matrix of the (p,q) torus knot: tensor square of the
    one-variable bands (size (p-1)(q-1), upper bidiagonal factors)."""

    def band(n: int) -> list[list[int]]:
        m = [[0] * (n - 1) for _ in range(n - 1)]
        for i in range(n - 1):
            m[i][i] = -1
            if i + 1 < n - 1:
                m[i][i + 1] = 1
        return m

    a, b = band(p), band(q)
    size = (p - 1) * (q - 1)
    out = [[0] * size for _ in range(size)]
    for i1 in range(p - 1):
        for j1 in range(q - 1):
            for i2 in range(p - 1):
                for j2 in range(q - 1):
                    out[i1 * (q - 1) + j1][i2 * (q - 1) + j2] = a[i1][i2] * b[j1][j2]
    return tuple(tuple(r) for r in out)
