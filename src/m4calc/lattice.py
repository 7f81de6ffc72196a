"""Integer lattices with symmetric bilinear forms, over exact rationals.

Everything here is pure and immutable: a lattice is a labelled symmetric
integer Gram matrix, vectors are rational coordinate tuples over its basis.
A lattice caches what it derives from its Gram matrix: sparse integer rows
and one elimination pass.  No floating point enters any computation.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence

from .errors import DegenerateForm, DependentVectors, NonIntegralVector

Rational = Fraction
_JSON_INT_LIMIT = 2**53


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"not a rational: {x!r}")


@dataclass(frozen=True)
class IntersectionLattice:
    """Free Z-module of finite rank with a symmetric integer pairing."""

    gram: tuple[tuple[int, ...], ...]
    labels: tuple[str, ...]

    def __post_init__(self):
        gram = tuple(tuple(int(x) for x in row) for row in self.gram)
        labels = tuple(self.labels)
        object.__setattr__(self, "gram", gram)
        object.__setattr__(self, "labels", labels)
        n = len(gram)
        if len(labels) != n:
            raise ValueError("label count does not match rank")
        if len(set(labels)) != n:
            raise ValueError("labels must be unique")
        if any(len(row) != n for row in gram):
            raise ValueError("gram matrix must be square")
        if any(row != col for row, col in zip(gram, zip(*gram))):
            raise ValueError("gram matrix must be symmetric")

    @property
    def rank(self) -> int:
        return len(self.gram)

    def basis_vector(self, i: int) -> "LatticeVector":
        coords = [Fraction(0)] * self.rank
        coords[i] = Fraction(1)
        return LatticeVector(tuple(coords))

    def vector(self, coords: Iterable) -> "LatticeVector":
        return LatticeVector(tuple(_frac(c) for c in coords))

    def vector_by_labels(self, assignment: dict[str, int]) -> "LatticeVector":
        coords = [Fraction(0)] * self.rank
        for name, value in assignment.items():
            coords[self.labels.index(name)] = _frac(value)
        return LatticeVector(tuple(coords))

    @cached_property
    def rows(self) -> tuple[dict[int, int], ...]:
        """The Gram matrix as sparse rows {column: nonzero entry}."""
        return tuple({j: x for j, x in enumerate(row) if x} for row in self.gram)

    def image(self, ints: Sequence[int]) -> dict[int, int]:
        """G x for an integer coordinate vector x, as a sparse row."""
        out: dict[int, int] = {}
        for i, x in enumerate(ints):
            if x:
                for j, g in self.rows[i].items():
                    out[j] = out.get(j, 0) + x * g
        return out

    def pairing(self, u: "LatticeVector", v: "LatticeVector") -> Fraction:
        if len(u.coords) != self.rank or len(v.coords) != self.rank:
            raise ValueError("vector length does not match lattice rank")
        (a, da), (b, db) = u.scaled(), v.scaled()
        return Fraction(sum(g * b[j] for j, g in self.image(a).items()), da * db)

    def square(self, v: "LatticeVector") -> Fraction:
        return self.pairing(v, v)

    @cached_property
    def _form(self) -> tuple[int, tuple[int, int] | None]:
        """(determinant, (b_plus, b_minus)) from one symmetric Bareiss pass;
        the signature is None when the form is degenerate.  The k-th pivot
        is a k x k principal minor, so the k-th LDL^T diagonal entry, the
        ratio of consecutive pivots, is positive iff they share a sign."""
        pivots = bareiss([dict(r) for r in self.rows], symmetric=True)
        if len(pivots) < self.rank:
            return 0, None
        det, plus = 1, 0
        for _, _, p in pivots:
            plus += (p > 0) == (det > 0)
            det = p
        return det, (plus, self.rank - plus)

    def determinant(self) -> int:
        return self._form[0]

    def direct_sum(self, other: "IntersectionLattice") -> "IntersectionLattice":
        n, m = self.rank, other.rank
        gram = (tuple(row + (0,) * m for row in self.gram)
                + tuple((0,) * n + row for row in other.gram))
        return IntersectionLattice(gram, self.labels + other.labels)

    def to_json(self) -> dict:
        def enc(x: int):
            return x if abs(x) <= _JSON_INT_LIMIT else str(x)

        return {
            "labels": list(self.labels),
            "gram": [[enc(x) for x in row] for row in self.gram],
        }

    @staticmethod
    def from_json(data: dict) -> "IntersectionLattice":
        gram = tuple(tuple(int(x) for x in row) for row in data["gram"])
        return IntersectionLattice(gram, tuple(data["labels"]))

    def dumps(self) -> str:
        return json.dumps(self.to_json())


@dataclass(frozen=True)
class LatticeVector:
    """Rational coordinate vector over the ambient basis."""

    coords: tuple[Fraction, ...] = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "coords", tuple(_frac(c) for c in self.coords))

    @property
    def is_integral(self) -> bool:
        return all(c.denominator == 1 for c in self.coords)

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def __add__(self, other: "LatticeVector") -> "LatticeVector":
        return LatticeVector(tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "LatticeVector") -> "LatticeVector":
        return LatticeVector(tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> "LatticeVector":
        return LatticeVector(tuple(-a for a in self.coords))

    def scale(self, s) -> "LatticeVector":
        s = _frac(s)
        return LatticeVector(tuple(s * a for a in self.coords))

    def int_coords(self) -> tuple[int, ...]:
        if not self.is_integral:
            raise NonIntegralVector(f"vector {self.coords} is not integral")
        return tuple(c.numerator for c in self.coords)

    def scaled(self) -> tuple[list[int], int]:
        """(integer coordinates, d) with self = coordinates / d, d minimal."""
        d = math.lcm(*(c.denominator for c in self.coords))
        return [c.numerator * (d // c.denominator) for c in self.coords], d


# ---------------------------------------------------------------------------
# exact linear algebra


def bareiss(rows: list[dict], cols: Iterable[int] = (), symmetric: bool = False,
            jordan: bool = False,
            ring=(operator.mul, operator.sub, operator.floordiv, 1)) -> list[tuple]:
    """Fraction-free elimination (Bareiss 1968) over an exact ring.

    `rows` are sparse rows {column: nonzero entry}, reduced in place; `ring`
    is (mul, sub, exact div, one), with a falsy zero.  Pivot columns come
    from `cols` in order, each in the first unused row with an entry there.
    With `symmetric` the rows are a symmetric integer form and pivots sit on
    the diagonal; a zero diagonal is fixed by the congruence e_i -= e_j.
    With `jordan` pivot columns are cleared from used rows too, and every
    row ends scaled to the last pivot.  Returns the pivots (row, column,
    value); the k-th value is the minor on the first k pivot rows and
    columns, so every division is exact.
    """
    mul, sub, div, one = ring
    zero = sub(one, one)
    level, prev, pivots = [one] * len(rows), one, []
    live = dict.fromkeys(range(len(rows)))
    cols = iter(cols)

    def lift(i):  # a row a step leaves alone is scaled when next read
        if level[i] != prev:
            rows[i] = {j: div(mul(e, prev), level[i]) for j, e in rows[i].items()}
            level[i] = prev

    while live:
        if symmetric:
            r = c = next((i for i in live if i in rows[i]), None)
            if r is None:
                i, j = next(((i, j) for i in live for j in rows[i]), (None, None))
                if i is None:
                    break
                lift(i), lift(j)
                rows[i] = {k: v for k in rows[i].keys() | rows[j].keys()
                           if (v := sub(rows[i].get(k, zero), rows[j].get(k, zero)))}
                for row in rows:
                    if j in row:
                        row[i] = sub(row.get(i, zero), row[j])
                        if not row[i]:
                            del row[i]
                continue
        else:
            c = next(cols, None)
            if c is None:
                break
            r = next((i for i in live if c in rows[i]), None)
            if r is None:
                continue
        lift(r)
        prow, piv = rows[r], rows[r][c]
        for i in range(len(rows)) if jordan else live:
            if i != r and c in rows[i]:
                lift(i)
                row, b = rows[i], rows[i][c]
                rows[i] = {j: v for j in row.keys() | prow.keys()
                           if (v := div(sub(mul(piv, row.get(j, zero)),
                                            mul(b, prow.get(j, zero))), prev))}
                level[i] = piv
        level[r], prev = piv, piv
        del live[r]
        pivots.append((r, c, piv))
    if jordan:
        for i in range(len(rows)):
            lift(i)
    return pivots


def signature(lattice: IntersectionLattice) -> tuple[int, int]:
    """(b_plus, b_minus), read from the lattice's one elimination pass."""
    sig = lattice._form[1]
    if sig is None:
        raise DegenerateForm("form is degenerate (zero block)")
    return sig


def parity(lattice: IntersectionLattice) -> int:
    """0 if the form is even (all x.x even), else 1."""
    return 0 if all(lattice.gram[i][i] % 2 == 0 for i in range(lattice.rank)) else 1


def is_characteristic(lattice: IntersectionLattice, k: LatticeVector) -> bool:
    """k.x == x.x mod 2 for every basis vector x."""
    image = lattice.image(k.int_coords())
    return all((image.get(i, 0) - row.get(i, 0)) % 2 == 0
               for i, row in enumerate(lattice.rows))


def formal_dimension(lattice: IntersectionLattice, k: LatticeVector, c: int) -> Fraction:
    """(k.k - c)/4, the expected moduli dimension for the class k."""
    return (lattice.square(k) - c) / Fraction(4)


def _smith_kernel(a: list[list[int]], ncols: int) -> list[list[int]]:
    """Saturated integral kernel basis of the integer matrix a (rows x ncols).

    Runs Smith reduction by row/column operations, accumulating the column
    transform V; kernel = columns of V matching zero columns of the reduced
    matrix. V unimodular keeps the basis primitive.
    """
    rows = len(a)
    m = [row[:] for row in a]
    v = [[1 if i == j else 0 for j in range(ncols)] for i in range(ncols)]

    def swap_cols(i, j):
        for r in range(rows):
            m[r][i], m[r][j] = m[r][j], m[r][i]
        for r in range(ncols):
            v[r][i], v[r][j] = v[r][j], v[r][i]

    def addmul_col(dst, src, f):
        for r in range(rows):
            m[r][dst] += f * m[r][src]
        for r in range(ncols):
            v[r][dst] += f * v[r][src]

    def swap_rows(i, j):
        m[i], m[j] = m[j], m[i]

    def addmul_row(dst, src, f):
        for c in range(ncols):
            m[dst][c] += f * m[src][c]

    t = 0
    for t in range(min(rows, ncols)):
        # find pivot of least absolute value in the remaining block
        best = None
        for r in range(t, rows):
            for c in range(t, ncols):
                if m[r][c] != 0 and (best is None or abs(m[r][c]) < abs(m[best[0]][best[1]])):
                    best = (r, c)
        if best is None:
            break
        while True:
            r, c = best
            if r != t:
                swap_rows(t, r)
            if c != t:
                swap_cols(t, c)
            done = True
            for r in range(t + 1, rows):
                q = m[r][t] // m[t][t]
                if q:
                    addmul_row(r, t, -q)
                if m[r][t] != 0:
                    done = False
            for c in range(t + 1, ncols):
                q = m[t][c] // m[t][t]
                if q:
                    addmul_col(c, t, -q)
                if m[t][c] != 0:
                    done = False
            if done:
                break
            best = (t, t)
            for r in range(t, rows):
                for c in range(t, ncols):
                    if m[r][c] != 0 and abs(m[r][c]) < abs(m[best[0]][best[1]]):
                        best = (r, c)
    zero_cols = [c for c in range(ncols) if all(m[r][c] == 0 for r in range(rows))]
    return [[v[r][c] for r in range(ncols)] for c in zero_cols]


def orthogonal_complement(
    lattice: IntersectionLattice, vs: Sequence[LatticeVector]
) -> tuple[IntersectionLattice, tuple[LatticeVector, ...]]:
    """Saturated integral basis of {x : x.v = 0 for all v in vs}.

    Returns the complement with its induced Gram matrix together with the
    basis vectors expressed in ambient coordinates (the embedding).
    """
    n = lattice.rank
    for v in vs:
        if not v.is_integral:
            raise NonIntegralVector("complement input vectors must be integral")
    ints = [v.int_coords() for v in vs]
    if len(bareiss([{j: x for j, x in enumerate(v) if x} for v in ints], range(n))) != len(vs):
        raise DependentVectors("input vectors are linearly dependent")
    if not vs:
        basis_cols = [[1 if i == j else 0 for i in range(n)] for j in range(n)]
    else:
        images = [lattice.image(v) for v in ints]
        basis_cols = _smith_kernel([[g.get(j, 0) for j in range(n)] for g in images], n)
    basis = tuple(LatticeVector(tuple(Fraction(x) for x in col)) for col in basis_cols)
    # the induced form B^T G B, one Gram image per basis vector
    images = [lattice.image(col) for col in basis_cols]
    gram = [[sum(g * col[j] for j, g in image.items()) for col in basis_cols]
            for image in images]
    labels = tuple(f"c{i}" for i in range(len(basis)))
    return IntersectionLattice(tuple(tuple(r) for r in gram), labels), basis


def solve_in_basis(
    lattice: IntersectionLattice, basis: Sequence[LatticeVector], target: LatticeVector
) -> tuple[Fraction, ...] | None:
    """Rational coordinates of target over the given vectors, or None.

    Column j is scaled to integers by its denominator d_j and the target by
    d; the integer solution y of the scaled n x (k+1) system, reduced by
    Gauss-Jordan Bareiss, gives x_j = y_j d_j / d.  Free columns get 0.
    """
    k = len(basis)
    scaled = [v.scaled() for v in basis] + [target.scaled()]
    rows = [{j: ints[i] for j, (ints, _) in enumerate(scaled) if ints[i]}
            for i in range(lattice.rank)]
    pivots = bareiss(rows, range(k), jordan=True)
    used = {r for r, _, _ in pivots}
    if any(k in row for i, row in enumerate(rows) if i not in used):
        return None
    sol = [Fraction(0)] * k
    for r, c, _ in pivots:
        sol[c] = Fraction(rows[r].get(k, 0) * scaled[c][1], rows[r][c] * scaled[k][1])
    return tuple(sol)


def hyperbolic_gram() -> tuple[tuple[int, ...], ...]:
    return ((0, 1), (1, 0))


def e8_gram(negative: bool = True) -> tuple[tuple[int, ...], ...]:
    """Cartan matrix of E8, negated by default (the definite form of E(n))."""
    m = [[0] * 8 for _ in range(8)]
    for i in range(8):
        m[i][i] = 2
    # A7 chain on nodes 0..6, node 7 attached to node 4
    for i in range(6):
        m[i][i + 1] = m[i + 1][i] = -1
    m[4][7] = m[7][4] = -1
    if negative:
        m = [[-x for x in row] for row in m]
    return tuple(tuple(row) for row in m)


def diagonal_lattice(entries: Sequence[int], labels: Sequence[str] | None = None) -> IntersectionLattice:
    n = len(entries)
    gram = tuple(
        tuple(entries[i] if i == j else 0 for j in range(n)) for i in range(n)
    )
    if labels is None:
        labels = tuple(f"d{i}" for i in range(n))
    return IntersectionLattice(gram, tuple(labels))
