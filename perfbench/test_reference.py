"""Tests of the benchmark's engine-free reference computations.

    python3 -m pytest -q perfbench

The Alexander polynomials are checked against a determinant computed here
by the Leibniz formula, which is independent of both the engine's cofactor
expansion and the closed forms in `reference`.
"""

import itertools
import random
from fractions import Fraction

import reference as ref
from workloads import band_sum_seifert, c_p_gram, dense_band_sum_seifert, torus_seifert


def leibniz_alexander(v):
    """det(u V - u^-1 V^T) over Laurent polynomials in u, by summing over
    permutations, returned on t = u^2 and normalized to value +1 at 1."""
    n = len(v)
    entry = [[ref.clean({1: v[i][j], -1: -v[j][i]}) for j in range(n)] for i in range(n)]
    total = {}
    for perm in itertools.permutations(range(n)):
        term = {0: 1}
        for i, j in enumerate(perm):
            term = ref.mul(term, entry[i][j])
            if not term:
                break
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        for e, c in term.items():
            total[e] = total.get(e, 0) + (-c if inversions % 2 else c)
    total = ref.clean(total)
    assert all(e % 2 == 0 for e in total)
    sign = 1 if sum(total.values()) > 0 else -1
    return {e // 2: sign * c for e, c in total.items()}


def test_torus_delta_closed_form():
    assert ref.torus_delta(2, 3) == {1: 1, 0: -1, -1: 1}
    assert ref.torus_delta(2, 5) == {2: 1, 1: -1, 0: 1, -1: -1, -2: 1}
    assert ref.torus_delta(3, 4) == {3: 1, 2: -1, 0: 1, -2: -1, -3: 1}
    for p, q in [(2, 7), (3, 5), (4, 5), (3, 8), (4, 7)]:
        d = ref.torus_delta(p, q)
        assert sum(d.values()) == 1
        assert all(d.get(-e) == c for e, c in d.items())
        assert max(d) == (p - 1) * (q - 1) // 2


def test_torus_seifert_matches_closed_form():
    for p, q in [(2, 3), (2, 5), (3, 4), (2, 7)]:
        m = torus_seifert(p, q)
        assert len(m) == (p - 1) * (q - 1)
        assert leibniz_alexander(m) == ref.torus_delta(p, q)


def test_band_sum_delta_survives_conjugation():
    rng = random.Random(7)
    for genus, width in [(1, 1), (2, 1), (2, 2), (3, 1)]:
        m, bands = band_sum_seifert(rng, genus, width)
        assert all(a % 2 and b % 2 for a, b in bands)
        assert leibniz_alexander(m) == ref.band_delta(bands)
    assert ref.band_delta([(1, 1)]) == ref.torus_delta(2, 3)


def test_dense_band_sum_has_no_zero_entry():
    rng = random.Random(11)
    for genus in (2, 3):
        m, bands = dense_band_sum_seifert(rng, genus)
        n = 2 * genus
        assert all(m[i][j] or m[j][i] for i in range(n) for j in range(n))
        assert leibniz_alexander(m) == ref.band_delta(bands)


def test_divexact_rejects_a_remainder():
    try:
        ref.divexact({2: 1, 0: 1}, {1: 1, 0: -1})
    except ArithmeticError:
        return
    raise AssertionError("x^2 + 1 is not divisible by x - 1")


def test_parse_alexander():
    assert ref.parse_alexander("+1*t^(1) -1 +1*t^(-1)\n") == {1: 1, 0: -1, -1: 1}
    assert ref.parse_alexander("+1") == {0: 1}


def test_triples():
    assert ref.elliptic_triple(2) == (24, -16, 0)
    assert ref.elliptic_triple(3) == (36, -24, 1)
    assert ref.blowup_triple((24, -16, 0)) == (25, -17, 1)
    assert ref.log_transform_triple((24, -16, 0), 2) == (24, -16, 1)
    assert ref.log_transform_triple((24, -16, 0), 3) == (24, -16, 0)
    assert ref.rational_blowdown_triple((50, -34, 1), 3, 0) == (48, -32, 0)


def test_sw_closed_forms():
    assert ref.elliptic_sw(2) == {0: 1}
    assert ref.elliptic_sw(4) == {2: 1, 0: -2, -2: 1}
    trefoil = ref.torus_delta(2, 3)
    # (x - 1/x)(x^2 - 1 + x^-2) = x^3 - 2x + 2/x - x^-3
    assert ref.knot_surgery_sw(3, trefoil) == {3: 1, 1: -2, -1: 2, -3: -1}
    assert ref.basic_class_count(3, trefoil, 0) == 4
    assert ref.basic_class_count(2, trefoil, 2) == 12
    assert ref.log_transform_sw(2, 2) == {Fraction(-1, 2): 1, Fraction(1, 2): 1}
    assert sum(ref.log_transform_sw(2, 5).values()) == 5


def test_symmetry_law():
    assert ref.symmetric({(1, 0): 1, (-1, 0): -1}, 3)
    assert not ref.symmetric({(1, 0): 1, (-1, 0): -1}, 2)
    assert ref.symmetric({(0, 0): 1}, 2)


def test_expected_verdict_rules():
    a, b = (24, -16, 0), (25, -17, 1)
    assert ref.expected_verdict(a, 1, b, 2) == ref.NOT_HOMEOMORPHIC
    assert ref.expected_verdict(a, 3, a, 5) == ref.EXOTIC_PAIR
    assert ref.expected_verdict(a, 3, a, 3, same_model=True) == ref.INDISTINGUISHABLE
    assert ref.expected_verdict(a, 3, a, 3) is None


def test_chart_rows():
    assert ref.chart_rows(1, False) == 18  # c = -4 .. 13
    assert ref.chart_rows(1, True) == 1  # only c = 8
    assert ref.chart_rows(2, False) == 18 + 27


def test_c_p_chain_and_pairing():
    g = c_p_gram(5)
    assert [g[i][i] for i in range(4)] == [-7, -2, -2, -2]
    kappa = [0, 1, 0, 1]  # u1 + u3, square -(p - 1)
    assert ref.pair(g, kappa, kappa) == -4
    fiber = (Fraction(1), Fraction(2))
    assert ref.fiber_multiples([(Fraction(3), Fraction(6)), (0, 0)], fiber) == [3, 0]
    assert ref.fiber_multiples([(Fraction(1), Fraction(1))], fiber) is None
