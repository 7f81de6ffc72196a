"""Surgery operations: blowup, log transform, knot surgery, rational
blowdown, fiber sum, and the seed library."""

import os
import subprocess
import sys
from fractions import Fraction

import pytest

import m4calc
from m4calc.errors import (
    BadPlumbing,
    BookkeepingError,
    NotInNodeNeighborhood,
    NotSquareZero,
    UnknownSeed,
)
from m4calc.knots import KnotDescriptor, alexander, fibered_genus
from m4calc.lattice import IntersectionLattice, diagonal_lattice, hyperbolic_gram
from m4calc.manifold import (
    KNOWN,
    UNKNOWN,
    ManifoldModel,
    MarkedTorus,
    homeomorphic,
    validate,
)
from m4calc.surgery import (
    RATIONAL_BLOWDOWN_C_NOTE,
    blowup,
    check_plumbing,
    fiber_sum,
    knot_surgery,
    log_transform,
    rational_blowdown,
    seed,
)
from m4calc.swring import SWPolynomial, reduce_by_torus


def c_p_gram(p):
    """The C_p chain: u0.u0 = -(p+2), ui.ui = -2, consecutive pairings 1."""
    n = p - 1
    g = [[0] * n for _ in range(n)]
    for i in range(n):
        g[i][i] = -(p + 2) if i == 0 else -2
        if i + 1 < n:
            g[i][i + 1] = g[i + 1][i] = 1
    return g


def direct_sum(*grams):
    n = sum(len(g) for g in grams)
    out = [[0] * n for _ in range(n)]
    off = 0
    for g in grams:
        for i in range(len(g)):
            for j in range(len(g)):
                out[off + i][off + j] = g[i][j]
        off += len(g)
    return out


class TestSeeds:
    def test_e2(self):
        x = seed("E(2)")
        assert x.homeo.triple() == (24, -16, 0)
        assert (x.chi_h, x.c) == (2, 0)
        assert x.sw_status == KNOWN
        # SW_{E(2)} = (t_T - t_T^-1)^0 = 1
        assert x.sw.terms == {tuple([Fraction(0)] * 22): 1}

    def test_e3(self):
        x = seed("E(3)")
        assert x.homeo.triple() == (36, -24, 1)
        fiber = x.torus("fiber").cls
        want = SWPolynomial.monomial(x.lattice, fiber) - SWPolynomial.monomial(
            x.lattice, fiber.scale(-1)
        )
        assert x.sw.equal(want)
        assert x.sw.check_symmetry(3)

    def test_e1_unknown(self):
        x = seed("E(1)")
        assert x.homeo.triple() == (12, -8, 1)
        assert x.sw_status == UNKNOWN

    def test_fiber_square_zero_and_characteristic_fit(self):
        for n in range(1, 6):
            x = seed(f"E({n})")
            fiber = x.torus("fiber").cls
            assert x.lattice.square(fiber) == 0
            assert x.torus("fiber").node_neighborhood

    def test_cp2(self):
        x = seed("CP2")
        assert x.homeo.triple() == (3, 1, 1)
        assert x.sw_status == KNOWN and x.sw.is_zero

    def test_unknown_seed(self):
        with pytest.raises(UnknownSeed):
            seed("K3#K3")


class TestBlowup:
    def test_e2_blowup_formula(self):
        out = blowup(seed("E(2)"))
        assert out.homeo.triple() == (25, -17, 1)
        classes = out.sw.basic_classes()
        assert len(classes) == 2
        e_idx = out.lattice.rank - 1
        got = {(v.coords[e_idx], c) for v, c in classes}
        assert got == {(1, 1), (-1, 1)}
        assert all(
            v.coords[i] == 0 for v, _ in classes for i in range(e_idx)
        )

    def test_double_blowup(self):
        out = blowup(blowup(seed("E(2)")))
        assert out.homeo.triple() == (26, -18, 1)
        classes = out.sw.basic_classes()
        assert len(classes) == 4
        # oracle: convolution of the two exceptional factors
        tail = {(v.coords[-2], v.coords[-1]) for v, _ in classes}
        assert tail == {(1, 1), (1, -1), (-1, 1), (-1, -1)}

    def test_chi_h_and_c_deltas(self):
        for name in ["E(2)", "E(3)", "CP2", "CP2#4CP2bar"]:
            x = seed(name)
            out = blowup(x)
            assert out.chi_h == x.chi_h
            assert out.c == x.c - 1
            assert out.homeo.e == out.lattice.rank + 2

    def test_unknown_propagates(self):
        assert blowup(seed("CP2#9CP2bar")).sw_status == UNKNOWN

    def test_fresh_labels(self):
        out = blowup(blowup(seed("CP2")))
        assert out.lattice.labels[-2:] == ("E", "E1")

    def test_symmetry_preserved(self):
        assert validate(blowup(blowup(seed("E(3)")))) == []


class TestLogTransform:
    def test_p1_identity(self):
        for name in ["E(2)", "E(3)"]:
            x = seed(name)
            out = log_transform(x, "fiber", 1)
            assert out.sw.equal(x.sw)
            assert out.homeo.triple() == x.homeo.triple()

    def test_e2_p2(self):
        x = seed("E(2)")
        out = log_transform(x, "fiber", 2)
        assert out.sw.term_count() == 2
        assert out.sw.denominator == 2
        fiber = x.torus("fiber").cls
        half = tuple(Fraction(1, 2) * c for c in fiber.coords)
        assert set(out.sw.terms) == {half, tuple(-v for v in half)}
        # even multiplicity on a spin manifold flips the type
        assert x.homeo.t == 0 and out.homeo.t == 1

    def test_e2_p3(self):
        out = log_transform(seed("E(2)"), "fiber", 3)
        assert out.sw.term_count() == 3
        assert out.sw.coefficient_sum() == 3
        assert out.homeo.t == 0  # odd multiplicity keeps the spin type

    @pytest.mark.parametrize("p", range(1, 8))
    def test_term_count_and_sum(self, p):
        out = log_transform(seed("E(2)"), "fiber", p)
        assert out.sw.term_count() == p
        assert out.sw.coefficient_sum() == p
        assert out.sw.check_symmetry(2)

    def test_chi_h_c_invariant(self):
        x = seed("E(3)")
        out = log_transform(x, "fiber", 4)
        assert (out.chi_h, out.c) == (x.chi_h, x.c)

    def test_requires_node_neighborhood(self):
        L = IntersectionLattice(hyperbolic_gram(), ("s1", "s2"))
        x = ManifoldModel.build(
            L,
            marked_tori={"T": MarkedTorus(L.basis_vector(0))},
        )
        with pytest.raises(NotInNodeNeighborhood):
            log_transform(x, "T", 2)

    def test_mms_coefficient_sum_consistency(self):
        # reduced-ring check: sum(SWbar of multiplicity p) = p * sum(SWbar of 1)
        for name in ["E(2)", "E(3)"]:
            x = seed(name)
            fiber = x.torus("fiber").cls
            base = reduce_by_torus(log_transform(x, "fiber", 1).sw, fiber)
            for p in range(1, 6):
                out = reduce_by_torus(log_transform(x, "fiber", p).sw, fiber)
                assert out.coefficient_sum() == p * base.coefficient_sum()


class TestKnotSurgery:
    def test_unknot_identity(self):
        x = seed("E(2)")
        out = knot_surgery(x, "fiber", KnotDescriptor.unknot())
        assert out.sw.equal(x.sw)

    def test_e2_trefoil(self):
        x = seed("E(2)")
        out = knot_surgery(x, "fiber", KnotDescriptor.torus_knot(2, 3))
        fiber = x.torus("fiber").cls
        two_t = fiber.scale(2)
        want = (
            SWPolynomial.monomial(x.lattice, two_t)
            - SWPolynomial.one(x.lattice)
            + SWPolynomial.monomial(x.lattice, two_t.scale(-1))
        )
        assert out.sw.equal(want)
        assert homeomorphic(x, out)

    def test_e2_t25(self):
        out = knot_surgery(seed("E(2)"), "fiber", KnotDescriptor.torus_knot(2, 5))
        assert len(out.sw.basic_classes()) == 5

    @pytest.mark.parametrize("n,pq", [(2, (2, 3)), (3, (2, 5)), (4, (2, 3)), (3, (3, 4))])
    def test_basic_class_count_bound(self, n, pq):
        x = seed(f"E({n})")
        knot = KnotDescriptor.torus_knot(*pq)
        out = knot_surgery(x, "fiber", knot)
        # oracle: (t - t^-1)^(n-2) * Delta_K(t^2) expanded over one variable
        g = fibered_genus(knot)
        count = len(out.sw.basic_classes())
        one_var = {}
        delta = alexander(knot).t_terms()
        base = {1: 1, -1: -1}
        acc = {0: 1}
        for _ in range(n - 2):
            nxt = {}
            for e1, c1 in acc.items():
                for e2, c2 in base.items():
                    nxt[e1 + e2] = nxt.get(e1 + e2, 0) + c1 * c2
            acc = nxt
        for e1, c1 in acc.items():
            for e2, c2 in delta.items():
                k = e1 + 2 * e2
                one_var[k] = one_var.get(k, 0) + c1 * c2
        expected = sum(1 for v in one_var.values() if v)
        assert count == expected
        assert count >= n - 2
        assert validate(out) == []

    def test_chi_h_one_returns_unknown(self):
        L = IntersectionLattice(hyperbolic_gram(), ("s1", "s2"))
        x = ManifoldModel.build(
            L,
            sw_status=KNOWN,
            sw=SWPolynomial.zero(L),
            marked_tori={"T": MarkedTorus(L.basis_vector(0), node_neighborhood=True)},
        )
        assert x.chi_h == 1
        out = knot_surgery(x, "T", KnotDescriptor.torus_knot(2, 3))
        assert out.sw_status == UNKNOWN
        assert any("chi_h = 1" in n for n in out.provenance.notes)

    def test_requires_node_neighborhood(self):
        x = seed("E(2)")
        torus = x.torus("fiber")
        stripped = ManifoldModel.build(
            x.lattice,
            sw_status=x.sw_status,
            sw=x.sw,
            marked_tori={"fiber": MarkedTorus(torus.cls, node_neighborhood=False)},
        )
        with pytest.raises(NotInNodeNeighborhood):
            knot_surgery(stripped, "fiber", KnotDescriptor.torus_knot(2, 3))


class TestRationalBlowdown:
    def synthetic(self, p, sw_status=UNKNOWN, sw=None):
        gram = direct_sum(c_p_gram(p), [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        labels = [f"u{i}" for i in range(p - 1)] + ["a", "b", "c"]
        return ManifoldModel.build(
            IntersectionLattice(tuple(map(tuple, gram)), tuple(labels)),
            sw_status=sw_status,
            sw=sw,
        )

    @pytest.mark.parametrize("p", range(2, 7))
    def test_deltas(self, p):
        x = self.synthetic(p)
        out = rational_blowdown(x, [f"u{i}" for i in range(p - 1)], p)
        assert out.homeo.e == x.homeo.e - (p - 1)
        assert out.homeo.sigma == x.homeo.sigma + (p - 1)
        assert out.chi_h == x.chi_h
        assert out.c == x.c + (p - 1)

    def test_discrepancy_note_surfaced(self):
        x = self.synthetic(2)
        out = rational_blowdown(x, ["u0"], 2)
        assert RATIONAL_BLOWDOWN_C_NOTE in out.provenance.notes

    def test_bad_plumbing_count(self):
        x = self.synthetic(3)
        with pytest.raises(BadPlumbing):
            rational_blowdown(x, ["u0"], 3)

    def test_bad_plumbing_gram(self):
        x = self.synthetic(2)
        with pytest.raises(BadPlumbing):
            check_plumbing(x.lattice, ["a"], 2)

    def test_surviving_class_p3(self):
        # C_3 + <1>^3; beta = u1 + (1,1,1) survives: its u-component has
        # square -2 = -(p-1), so the moduli dimension is preserved, and the
        # projection (1,1,1) is integral and characteristic in the complement
        L = IntersectionLattice(
            tuple(map(tuple, direct_sum(c_p_gram(3), [[1, 0, 0], [0, 1, 0], [0, 0, 1]]))),
            ("u0", "u1", "a", "b", "c"),
        )
        beta = L.vector([0, 1, 1, 1, 1])
        sw = SWPolynomial.monomial(L, beta) + SWPolynomial.monomial(L, beta.scale(-1))
        x = ManifoldModel.build(L, sw_status=KNOWN, sw=sw)
        assert x.chi_h == 2 and x.homeo.b_plus == 3
        out = rational_blowdown(x, ["u0", "u1"], 3)
        assert out.sw_status == KNOWN
        classes = out.sw.basic_classes()
        assert {tuple(v.coords) for v, _ in classes} == {(1, 1, 1), (-1, -1, -1)}
        # d-preservation holds for everything transported
        for v, _ in classes:
            d_new = (out.lattice.square(v) - out.c) // 4
            assert d_new == (x.lattice.square(beta) - x.c) // 4

    def test_dropped_class_warned(self):
        # a class pairing 0 with u0 projects to itself but shifts d by
        # -(p-1)/4 != 0, so it must be dropped with a warning
        L = IntersectionLattice(
            tuple(map(tuple, direct_sum(c_p_gram(2), [[1, 0, 0], [0, 1, 0], [0, 0, 1]]))),
            ("u0", "a", "b", "c"),
        )
        beta = L.vector([0, 1, 1, 1])
        sw = SWPolynomial.monomial(L, beta) + SWPolynomial.monomial(L, beta.scale(-1))
        x = ManifoldModel.build(L, sw_status=KNOWN, sw=sw)
        out = rational_blowdown(x, ["u0"], 2)
        assert out.sw.is_zero
        assert any("dropped" in n for n in out.provenance.notes)

    def test_bplus_one_goes_unknown(self):
        L = IntersectionLattice(
            tuple(map(tuple, direct_sum(c_p_gram(2), [[1]]))), ("u0", "a")
        )
        x = ManifoldModel.build(L, sw_status=KNOWN, sw=SWPolynomial.zero(L))
        out = rational_blowdown(x, ["u0"], 2)
        assert out.sw_status == UNKNOWN
        assert any("chamber" in n for n in out.provenance.notes)


class TestFiberSum:
    def test_e1_plus_e1_is_e2(self):
        a, b = seed("E(1)"), seed("E(1)")
        out = fiber_sum(a, a.torus("fiber").cls, b, b.torus("fiber").cls, 1)
        assert out.homeo.triple() == seed("E(2)").homeo.triple()
        assert out.sw_status == KNOWN
        assert homeomorphic(out, seed("E(2)"))

    def test_e2_plus_e1_is_e3(self):
        a, b = seed("E(2)"), seed("E(1)")
        out = fiber_sum(a, a.torus("fiber").cls, b, b.torus("fiber").cls, 1)
        assert out.homeo.triple() == seed("E(3)").homeo.triple()
        assert out.sw.equal(seed("E(3)").sw)

    def test_genus_one_euler_additive(self):
        x = seed("S2xS2")
        f = x.lattice.basis_vector(0)
        out = fiber_sum(x, f, x, f, 1)
        assert out.homeo.e == 8
        assert out.sw_status == UNKNOWN

    def test_genus_two_adds_four(self):
        x = seed("S2xS2")
        f = x.lattice.basis_vector(0)
        out = fiber_sum(x, f, x, f, 2)
        assert out.homeo.e == 12

    def test_not_square_zero(self):
        x = seed("CP2")
        with pytest.raises(NotSquareZero):
            fiber_sum(x, x.lattice.basis_vector(0), x, x.lattice.basis_vector(0), 1)

    def test_even_output_needs_spin_assertion(self):
        x = seed("S2xS2")
        f = x.lattice.basis_vector(0)
        with pytest.raises(ValueError):
            fiber_sum(x, f, x, f, 1, t_out=0)
        out = fiber_sum(x, f, x, f, 1, t_out=0, spin_glue=True)
        assert out.homeo.t == 0


# A build that reports e off by 4: the blowup's incremental bookkeeping
# (chi_h kept, c down by 1) then disagrees with the returned model.
WRONG_BUILD = """
import dataclasses
from m4calc.manifold import HomeoType, ManifoldModel


def wrong_build(build):
    def wrong(*args, **kwargs):
        m = build(*args, **kwargs)
        return dataclasses.replace(m, homeo=HomeoType(m.homeo.e + 4, m.homeo.sigma, m.homeo.t))
    return staticmethod(wrong)
"""


class TestDoubleEntry:
    def test_mismatch_raises(self, monkeypatch):
        x = seed("CP2#1CP2bar")
        namespace = {}
        exec(WRONG_BUILD, namespace)
        monkeypatch.setattr(ManifoldModel, "build",
                            namespace["wrong_build"](ManifoldModel.build))
        with pytest.raises(BookkeepingError, match="blowup"):
            blowup(x)

    def test_mismatch_raises_under_python_O(self):
        script = WRONG_BUILD + (
            "import sys\n"
            "from m4calc.errors import BookkeepingError\n"
            "from m4calc.surgery import blowup, seed\n"
            "x = seed('CP2#1CP2bar')\n"
            "ManifoldModel.build = wrong_build(ManifoldModel.build)\n"
            "try:\n"
            "    blowup(x)\n"
            "except BookkeepingError:\n"
            "    print('optimize', sys.flags.optimize, 'BookkeepingError')\n"
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(m4calc.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                             capture_output=True, text=True, timeout=60)
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "optimize 1 BookkeepingError"
