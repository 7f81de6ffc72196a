"""The fraction-free (Bareiss) elimination kernel, checked against oracles
written here: a Fraction Gaussian determinant, completing-the-square
signatures and a cofactor-expansion Laurent determinant."""

import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from m4calc import lattice as lat
from m4calc.errors import DegenerateForm
from m4calc.knots import (
    KnotDescriptor,
    _add,
    _laurent_det,
    _mul,
    _neg,
    alexander,
    torus_seifert_matrix,
)
from m4calc.lattice import IntersectionLattice, e8_gram, hyperbolic_gram, signature, solve_in_basis
from m4calc.manifold import KNOWN, ManifoldModel, validate
from m4calc.surgery import knot_surgery, log_transform, seed
from m4calc.swring import SWPolynomial

from conftest import congruent, random_unimodular
from test_lattice import direct_sum, lattice_from, oracle_signature


def fraction_det(m):
    """Gaussian elimination over Q with row swaps."""
    m = [[Fraction(x) for x in row] for row in m]
    n, det = len(m), Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        for r in range(col + 1, n):
            f = m[r][col] / m[col][col]
            for c in range(col, n):
                m[r][c] -= f * m[col][c]
    return det


def cofactor_laurent_det(m):
    """Determinant over Z[u, u^-1] by expansion along the first row."""
    if not m:
        return {0: 1}
    out = {}
    for j, entry in enumerate(m[0]):
        if entry:
            minor = [row[:j] + row[j + 1:] for row in m[1:]]
            term = _mul(entry, cofactor_laurent_det(minor))
            out = _add(out, _neg(term) if j % 2 else term)
    return out


H = [list(r) for r in hyperbolic_gram()]
BASES = [
    H,
    direct_sum(H, H),
    direct_sum(H, [[-1]], [[2]]),
    direct_sum([[1]], [[-1]], [[-1]]),
    [[2, 1, 0], [1, 2, 0], [0, 0, -2]],
    direct_sum(H, [list(r) for r in e8_gram()]),
]
DEGENERATE = [
    [[0, 0], [0, 0]],
    direct_sum(H, [[0]]),
    [[1, 1], [1, 1]],
    direct_sum([[2, 2], [2, 2]], [[-1]]),
]


class TestSymmetricForms:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10_000), st.sampled_from(BASES))
    def test_congruent_forms(self, seed_, base):
        rng = random.Random(seed_)
        gram = congruent(base, random_unimodular(rng, len(base), steps=10))
        L = lattice_from(gram)
        assert L.determinant() == fraction_det(gram) == fraction_det(base)
        assert signature(L) == oracle_signature(gram) == oracle_signature(base)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000), st.sampled_from(DEGENERATE))
    def test_degenerate_forms_raise(self, seed_, base):
        rng = random.Random(seed_)
        L = lattice_from(congruent(base, random_unimodular(rng, len(base), steps=10)))
        assert L.determinant() == 0
        with pytest.raises(DegenerateForm):
            signature(L)
        with pytest.raises(DegenerateForm):
            ManifoldModel.build(L)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.lists(st.integers(-4, 4), min_size=5, max_size=5),
                    min_size=5, max_size=5))
    def test_random_symmetric_matrices(self, m):
        gram = [[m[min(i, j)][max(i, j)] for j in range(5)] for i in range(5)]
        L = lattice_from(gram)
        assert L.determinant() == fraction_det(gram)
        if L.determinant():
            assert signature(L) == oracle_signature(gram)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.lists(st.integers(-3, 3), min_size=4, max_size=4),
                    min_size=4, max_size=4))
    def test_integer_determinant_with_row_pivots(self, m):
        pivots = lat.bareiss([{j: x for j, x in enumerate(r) if x} for r in m], range(4))
        if len(pivots) < 4:
            assert fraction_det(m) == 0
            return
        order = [r for r, _, _ in pivots]
        swaps = sum(a > b for i, a in enumerate(order) for b in order[i + 1:])
        assert (-1) ** swaps * pivots[-1][2] == fraction_det(m)

    def test_one_elimination_per_lattice(self, monkeypatch):
        calls = []
        kernel = lat.bareiss

        def counting(rows, *args, **kwargs):
            calls.append(len(rows))
            return kernel(rows, *args, **kwargs)

        base = seed("E(3)")
        monkeypatch.setattr(lat, "bareiss", counting)
        L = IntersectionLattice(base.lattice.gram, base.lattice.labels)
        sw = SWPolynomial(L, base.sw.terms, base.sw.denominator)
        x = ManifoldModel.build(L, sw_status=KNOWN, sw=sw,
                                marked_tori=base.tori_dict())
        assert validate(x) == []
        assert calls == [L.rank]
        y = knot_surgery(x, "fiber", KnotDescriptor.torus_knot(2, 3))
        z = log_transform(y, "fiber", 3)
        assert validate(y) == validate(z) == []
        assert calls == [L.rank]


def _solve_oracle(basis, target):
    """True iff target lies in the rational span of basis: the rank does
    not grow when target joins, by the Fraction determinant of the Gram
    matrix of the vectors under the standard dot product."""
    def rank(vs):
        gram = [[sum(a * b for a, b in zip(u, v)) for v in vs] for u in vs]
        # rank of a Gram matrix of real vectors = size of its largest
        # nonsingular principal minor reached greedily
        chosen = []
        for i in range(len(vs)):
            trial = chosen + [i]
            if fraction_det([[gram[a][b] for b in trial] for a in trial]) != 0:
                chosen = trial
        return len(chosen)
    return rank(basis + [target]) == rank(basis)


class TestSolveInBasis:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10_000), st.integers(0, 4), st.booleans())
    def test_against_span_oracle(self, seed_, k, fractional):
        rng = random.Random(seed_)
        n = 4
        L = lattice_from([[1 if i == j else 0 for j in range(n)] for i in range(n)])
        basis = [[Fraction(rng.randint(-2, 2), rng.choice([1, 2, 3]) if fractional else 1)
                  for _ in range(n)] for _ in range(k)]
        if rng.random() < 0.5 and basis:
            coeffs = [Fraction(rng.randint(-3, 3), rng.choice([1, 2])) for _ in basis]
            target = [sum(c * b[i] for c, b in zip(coeffs, basis)) for i in range(n)]
        else:
            target = [Fraction(rng.randint(-3, 3)) for _ in range(n)]
        sol = solve_in_basis(L, [L.vector(b) for b in basis], L.vector(target))
        assert (sol is not None) == _solve_oracle(basis, target)
        if sol is not None:
            assert [sum(x * b[i] for x, b in zip(sol, basis)) for i in range(n)] == target

    def test_outside_span_is_none(self):
        L = lattice_from([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        basis = [L.vector([1, 1, 0]), L.vector([2, 2, 0])]
        assert solve_in_basis(L, basis, L.vector([0, 0, 1])) is None
        assert solve_in_basis(L, [], L.vector([0, 1, 0])) is None
        assert solve_in_basis(L, [], L.vector([0, 0, 0])) == ()

    def test_dependent_basis_gives_zero_on_free_columns(self):
        L = lattice_from([[1, 0], [0, 1]])
        basis = [L.vector([1, 1]), L.vector([2, 2]), L.vector([0, 1])]
        assert solve_in_basis(L, basis, L.vector([3, 5])) == (3, 0, 2)

    def test_fractional_coordinates(self):
        L = lattice_from([[1, 0], [0, 1]])
        basis = [L.vector([Fraction(1, 2), 0]), L.vector([0, 3])]
        assert solve_in_basis(L, basis, L.vector([Fraction(1, 3), 1])) == (
            Fraction(2, 3), Fraction(1, 3))


laurent = st.dictionaries(st.integers(-2, 2), st.integers(-2, 2).filter(bool), max_size=3)


class TestLaurentDeterminant:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 4).flatmap(
        lambda n: st.lists(st.lists(laurent, min_size=n, max_size=n), min_size=n, max_size=n)))
    def test_against_cofactor_expansion(self, m):
        rows = [{j: e for j, e in enumerate(row) if e} for row in m]
        assert _laurent_det(rows) == cofactor_laurent_det(m)

    def test_empty_matrix(self):
        assert _laurent_det([]) == {0: 1}

    @pytest.mark.parametrize("p, q", [(4, 7), (5, 6)])
    def test_large_torus_seifert_under_a_second(self, p, q):
        start = time.perf_counter()
        got = alexander(KnotDescriptor.from_seifert(torus_seifert_matrix(p, q)))
        assert time.perf_counter() - start < 1.0
        assert got.u_terms == alexander(KnotDescriptor.torus_knot(p, q)).u_terms
