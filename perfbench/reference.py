"""Reference computations for checking m4calc outputs, made without m4calc.

Everything here is plain integer arithmetic on one-variable Laurent
polynomials (dicts exponent -> coefficient) and closed forms from the
literature:

- torus-knot Alexander polynomial (t^pq - 1)(t - 1) / ((t^p - 1)(t^q - 1));
- band-sum Seifert matrices: each band [[a, 1], [0, b]] contributes the
  factor a*b*(t - 2 + t^-1) + 1, and congruence by a unimodular matrix
  leaves the determinant unchanged;
- (e, sigma, t) of E(n) and the change each surgery makes to it;
- the SW invariant of E(n) knot-surgered along K and blown up b times:
  (x - x^-1)^(n-2) * Delta_K(x^2) along the fiber x, times one factor
  (y_i + y_i^-1) per exceptional class;
- the verdict rules of the exotic-pair detector, where they are fixed.
"""

from __future__ import annotations

import re
from fractions import Fraction

Poly = dict  # exponent -> nonzero coefficient

NOT_HOMEOMORPHIC = "NotHomeomorphic"
EXOTIC_PAIR = "ExoticPair"
INDISTINGUISHABLE = "IndistinguishableHere"


def clean(p: Poly) -> Poly:
    return {e: c for e, c in p.items() if c != 0}


def mul(a: Poly, b: Poly) -> Poly:
    out: Poly = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return clean(out)


def power(a: Poly, n: int) -> Poly:
    out: Poly = {0: 1}
    for _ in range(n):
        out = mul(out, a)
    return out


def divexact(num: Poly, den: Poly) -> Poly:
    """num / den by long division from the top exponent; the remainder must
    vanish."""
    num = clean(num)
    top_d = max(den)
    lead = den[top_d]
    lowest = min(num, default=0) - min(den)  # lowest exponent a quotient can have
    out: Poly = {}
    while num:
        top = max(num)
        q, r = divmod(num[top], lead)
        if r or top - top_d < lowest:
            raise ArithmeticError("division is not exact")
        out[top - top_d] = q
        for e, c in den.items():
            k = e + top - top_d
            num[k] = num.get(k, 0) - q * c
            if num[k] == 0:
                del num[k]
    return out


def symmetrize(p: Poly) -> Poly:
    """Shift so that the exponents are centred on 0 and make p(1) = +1."""
    lo, hi = min(p), max(p)
    if (lo + hi) % 2:
        raise ValueError("polynomial has no integral centre")
    shift = (lo + hi) // 2
    sign = 1 if sum(p.values()) > 0 else -1
    return {e - shift: sign * c for e, c in p.items()}


def torus_delta(p: int, q: int) -> Poly:
    """Symmetrized Alexander polynomial of the (p, q) torus knot."""
    num = mul({p * q: 1, 0: -1}, {1: 1, 0: -1})
    den = mul({p: 1, 0: -1}, {q: 1, 0: -1})
    return symmetrize(divexact(num, den))


def band_delta(bands) -> Poly:
    """Alexander polynomial of a sum of [[a, 1], [0, b]] Seifert bands."""
    out: Poly = {0: 1}
    for a, b in bands:
        ab = a * b
        out = mul(out, clean({1: ab, 0: 1 - 2 * ab, -1: ab}))
    return out


_TERM = re.compile(r"^([+-]\d+)(?:\*t\^\((-?\d+(?:/\d+)?)\))?$")


def parse_alexander(text: str) -> Poly:
    """Parse the `m4calc knot alexander` output, e.g. '+1*t^(1) -1 +1*t^(-1)'."""
    out: Poly = {}
    text = text.strip()
    if text == "0":
        return out
    for token in text.split():
        m = _TERM.match(token)
        if not m:
            raise ValueError(f"unparsable Alexander term {token!r}")
        exp = Fraction(m.group(2) or 0)
        if exp.denominator != 1:
            raise ValueError(f"half-integer exponent in {token!r}")
        out[int(exp)] = out.get(int(exp), 0) + int(m.group(1))
    return clean(out)


# -- (e, sigma, t) closed forms -------------------------------------------


def elliptic_triple(n: int) -> tuple[int, int, int]:
    return (12 * n, -8 * n, n % 2)


def blowup_triple(tr) -> tuple[int, int, int]:
    e, s, _t = tr
    return (e + 1, s - 1, 1)


def log_transform_triple(tr, p: int) -> tuple[int, int, int]:
    e, s, t = tr
    return (e, s, 1 if (t == 0 and p % 2 == 0) else t)


def rational_blowdown_triple(tr, p: int, t_out: int) -> tuple[int, int, int]:
    e, s, _t = tr
    return (e - (p - 1), s + (p - 1), t_out)


# -- SW invariants along the fiber ----------------------------------------


def elliptic_sw(n: int) -> Poly:
    """SW(E(n)) in the fiber variable x: (x - x^-1)^(n-2)."""
    return power({1: 1, -1: -1}, n - 2)


def knot_surgery_sw(n: int, delta: Poly | None) -> Poly:
    """(x - x^-1)^(n-2) * Delta_K(x^2); delta None means no knot surgery."""
    sw = elliptic_sw(n)
    if delta is None:
        return sw
    return mul(sw, {2 * e: c for e, c in delta.items()})


def basic_class_count(n: int, delta: Poly | None, blowups: int) -> int:
    return len(knot_surgery_sw(n, delta)) * 2**blowups


def log_transform_sw(n: int, p: int) -> dict[Fraction, int]:
    """SW of E(n) after a multiplicity-p log transform on the fiber, as a
    map from the (fractional) fiber multiple to the coefficient."""
    mult = {Fraction(2 * j - (p - 1), p): 1 for j in range(p)}
    out: dict[Fraction, int] = {}
    for e1, c1 in elliptic_sw(n).items():
        for e2, c2 in mult.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def symmetric(terms: dict, chi_h: int) -> bool:
    """The SW symmetry law SW(-b) = (-1)^chi_h SW(b), terms keyed by tuples."""
    sign = -1 if chi_h % 2 else 1
    return all(
        terms.get(tuple(-x for x in exp), 0) == sign * c for exp, c in terms.items()
    )


def expected_verdict(tr_a, count_a: int, tr_b, count_b: int,
                     same_model: bool = False) -> str | None:
    """The verdict the detector must give, or None where these rules leave it
    open: different triples are not homeomorphic; equal triples with
    different basic-class counts are an exotic pair; one model built in two
    orders is indistinguishable."""
    if tuple(tr_a) != tuple(tr_b):
        return NOT_HOMEOMORPHIC
    if count_a != count_b:
        return EXOTIC_PAIR
    if same_model:
        return INDISTINGUISHABLE
    return None


# -- geography --------------------------------------------------------------


def chart_rows(chi_max: int, spin: bool) -> int:
    """Data rows of the geography TSV: every c in [-4, 9 chi + 4] for each
    chi in 1..chi_max, only the spin-congruent ones (c = 8 chi mod 16) when
    spin is set."""
    rows = 0
    for chi in range(1, chi_max + 1):
        for c in range(-4, 9 * chi + 5):
            if not spin or (c - 8 * chi) % 16 == 0:
                rows += 1
    return rows


# -- integer lattice arithmetic ---------------------------------------------


def pair(gram, u, v) -> Fraction:
    """u . v over the Gram matrix, for rational coordinate sequences."""
    total = Fraction(0)
    for i, ui in enumerate(u):
        if ui:
            row = gram[i]
            total += ui * sum(row[j] * vj for j, vj in enumerate(v) if vj)
    return total


def fiber_multiples(exps, fiber) -> list[Fraction] | None:
    """For exponent vectors that are all rational multiples of fiber, the
    multiples; None if one of them is not."""
    pivot = next(i for i, x in enumerate(fiber) if x)
    out = []
    for exp in exps:
        f = Fraction(exp[pivot]) / fiber[pivot]
        if any(Fraction(x) != f * y for x, y in zip(exp, fiber)):
            return None
        out.append(f)
    return out
