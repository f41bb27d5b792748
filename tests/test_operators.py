"""Weights, cocycles, magnetic translations, stencil operators and the
normalized trace, with walk-enumeration oracles for the trace powers."""

import cmath
from fractions import Fraction

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given

from magspec.lattice import (
    Vertex,
    line_graph,
    periodic_graph,
    simplicial_ball,
    square_lattice,
    triangle_cells,
)
from magspec.operators import (
    Cocycle,
    NotWeaklyInvariantError,
    StencilError,
    WeightError,
    apply_local,
    gamma_trace_power,
    harper_dml,
    hofstadter_weights,
    inner_product,
    local_operator,
    magnetic_translate,
    l2_norm,
    perturbed_weights,
    translation_commutator,
    uniform_weights,
    unit_phase,
    validate_weights,
    with_conjugation_defect,
    zero_operator,
)


class TestHofstadterWeights:
    def test_flux_free(self):
        g = square_lattice()
        w = hofstadter_weights(g, Fraction(0))
        for i in range(2):
            for x in (-3, 0, 5):
                assert w.positive_phase(i, np.array([[x, 1]]))[0] == 1.0

    def test_half_flux_at_column_one(self):
        g = square_lattice()
        w = hofstadter_weights(g, Fraction(1, 2))
        vertical = next(
            i for i, t in enumerate(g.templates) if t.offset == (0, 1)
        )
        assert w.positive_phase(vertical, np.array([[1, 0]]))[0] == pytest.approx(-1.0)

    def test_third_flux_at_column_two(self):
        g = square_lattice()
        w = hofstadter_weights(g, Fraction(1, 3))
        vertical = next(i for i, t in enumerate(g.templates) if t.offset == (0, 1))
        assert w.positive_phase(vertical, np.array([[2, 5]]))[0] == pytest.approx(
            cmath.exp(4j * cmath.pi / 3)
        )

    def test_horizontal_edges_carry_one(self):
        g = square_lattice()
        w = hofstadter_weights(g, Fraction(2, 7))
        horizontal = next(i for i, t in enumerate(g.templates) if t.offset == (1, 0))
        assert w.positive_phase(horizontal, np.array([[3, -2]]))[0] == 1.0

    def test_reversal_conjugates(self):
        g = square_lattice()
        w = hofstadter_weights(g, Fraction(1, 3))
        at = np.array([[2, 0]])
        assert w.reversed_phase(1, at) == pytest.approx(w.positive_phase(1, at).conj())

    def test_wrong_graph_rejected(self):
        with pytest.raises(WeightError):
            hofstadter_weights(line_graph(), Fraction(1, 2))

    def test_exact_periodicity_of_rational_phase(self):
        # reduced-argument evaluation keeps p/q phases exactly q-periodic
        a = Fraction(3, 7)
        for x in range(-20, 20):
            assert unit_phase(a * x) == unit_phase(a * (x + 7))


class TestValidateWeights:
    def test_uniform_cocycle_is_constant(self):
        g = square_lattice()
        cocycles = validate_weights(g, uniform_weights(g), 3)
        for c in cocycles.values():
            vals = list(c.values.values())
            assert all(abs(v - vals[0]) < 1e-12 for v in vals)

    def test_hofstadter_cocycle_matches_landau_formula(self):
        # s_(1,0)(x, y) = e^{2 pi i alpha y} up to one global phase
        g = square_lattice()
        alpha = Fraction(1, 3)
        cocycles = validate_weights(g, hofstadter_weights(g, alpha), 4)
        c = cocycles[(1, 0)]
        base = c(Vertex(0, (0, 0)))
        for v, val in c.values.items():
            expected = base * unit_phase(alpha * v.shift[1])
            assert abs(val - expected) < 1e-10
        # the transverse generator needs no twist at all
        c2 = cocycles[(0, 1)]
        base2 = c2(Vertex(0, (0, 0)))
        assert all(abs(val - base2) < 1e-10 for val in c2.values.values())

    def test_perturbed_edge_detected(self):
        g = square_lattice()
        w = perturbed_weights(hofstadter_weights(g, Fraction(1, 3)), 0, (0, 0), 0.37)
        with pytest.raises(NotWeaklyInvariantError):
            validate_weights(g, w, 3)

    def test_conjugation_defect_detected(self):
        g = square_lattice()
        w = with_conjugation_defect(uniform_weights(g), 0.25)
        with pytest.raises(WeightError) as err:
            validate_weights(g, w, 2)
        assert "invalid weight" in str(err.value)

    def test_triangle_components_each_get_base(self):
        g = triangle_cells()
        cocycles = validate_weights(g, uniform_weights(g), 2)
        assert all(len(c.values) == 3 * 5 for c in cocycles.values())


class TestHarperDml:
    def test_line_stencils(self):
        g = line_graph()
        H, D = harper_dml(g, uniform_weights(g))
        d0 = Vertex(0, (0,))
        assert apply_local(H, {d0: 1.0}) == {
            Vertex(0, (-1,)): 1.0,
            Vertex(0, (1,)): 1.0,
        }
        out = apply_local(D, {d0: 1.0})
        assert out[d0] == 2.0
        assert out[Vertex(0, (1,))] == -1.0 and out[Vertex(0, (-1,))] == -1.0

    def test_square_diagonal_is_valence(self):
        g = square_lattice()
        _, D = harper_dml(g, uniform_weights(g))
        out = apply_local(D, {Vertex(0, (3, -1)): 1.0})
        assert out[Vertex(0, (3, -1))] == 4.0

    def test_triangle_cell_spectrum(self):
        # one-cell Laplacian eigenvalues {0, 3, 3} from a 3x3 eigensolve
        g = triangle_cells()
        _, D = harper_dml(g, uniform_weights(g))
        M = np.zeros((3, 3), complex)
        for orb in range(3):
            for u, c in apply_local(D, {Vertex(orb, (0,)): 1.0}).items():
                M[u.orbit, orb] += c
        evals = np.linalg.eigvalsh(M)
        assert np.allclose(evals, [0.0, 3.0, 3.0], atol=1e-12)

    def test_propagation_radius(self):
        g = square_lattice()
        H, D = harper_dml(g, hofstadter_weights(g, Fraction(1, 5)))
        assert H.propagation == 1 and D.propagation == 1

    def test_magnetic_phases_enter_stencil(self):
        g = square_lattice()
        _, D = harper_dml(g, hofstadter_weights(g, Fraction(1, 2)))
        out = apply_local(D, {Vertex(0, (1, 0)): 1.0})
        assert out[Vertex(0, (1, 1))] == pytest.approx(1.0)  # -e^{i pi}
        assert out[Vertex(0, (2, 0))] == pytest.approx(-1.0)


class TestApplyLocal:
    def test_support_containment(self):
        g = line_graph()
        _, D = harper_dml(g, uniform_weights(g))
        out = apply_local(D, {Vertex(0, (0,)): 1.0})
        assert {v.shift[0] for v in out} == {-1, 0, 1}

    def test_zero_stencil(self):
        g = square_lattice()
        Z = zero_operator(g)
        assert apply_local(Z, {Vertex(0, (0, 0)): 2.0}) == {}

    @given(st.lists(st.tuples(st.integers(-3, 3), st.floats(-2, 2)), min_size=1, max_size=5))
    def test_linearity(self, items):
        g = line_graph()
        _, D = harper_dml(g, uniform_weights(g))
        f = {}
        for x, c in items:
            v = Vertex(0, (x,))
            f[v] = f.get(v, 0.0) + complex(c)
        two_f = {v: 2.0 * c for v, c in f.items()}
        lhs = apply_local(D, two_f)
        rhs = {v: 2.0 * c for v, c in apply_local(D, f).items()}
        assert set(lhs) == set(rhs)
        assert all(abs(lhs[v] - rhs[v]) < 1e-12 for v in lhs)

    def test_self_adjointness_sampled(self):
        g = square_lattice()
        _, D = harper_dml(g, hofstadter_weights(g, Fraction(2, 5)))
        rng = np.random.default_rng(7)
        support = sorted(simplicial_ball(g, Vertex(0, (0, 0)), 2))
        for _ in range(10):
            f = {v: complex(*rng.normal(size=2)) for v in support}
            h = {v: complex(*rng.normal(size=2)) for v in support}
            lhs = inner_product(apply_local(D, f), h)
            rhs = inner_product(f, apply_local(D, h))
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))

    def test_bounded_propagation_exact(self):
        g = square_lattice()
        _, D = harper_dml(g, hofstadter_weights(g, Fraction(1, 4)))
        v = Vertex(0, (0, 0))
        ball = simplicial_ball(g, v, D.propagation)
        col = apply_local(D, {v: 1.0})
        assert all(u in ball for u in col)


class TestLocalOperatorValidation:
    def test_non_hermitian_rejected(self):
        g = line_graph()
        with pytest.raises(StencilError):
            local_operator(g, [(0, 0, (1,), 1.0), (0, 0, (-1,), 0.5)])

    def test_missing_partner_rejected(self):
        g = line_graph()
        with pytest.raises(StencilError):
            local_operator(g, [(0, 0, (1,), 1.0)])

    def test_cross_component_entry_rejected(self):
        g = triangle_cells()
        with pytest.raises(StencilError):
            local_operator(g, [(0, 0, (1,), 1.0), (0, 0, (-1,), 1.0)])

    def test_complex_diagonal_rejected(self):
        g = line_graph()
        with pytest.raises(StencilError):
            local_operator(g, [(0, 0, (0,), 1.0 + 0.5j)])

    def test_valid_custom_stencil(self):
        g = line_graph()
        op = local_operator(
            g, [(0, 0, (0,), 2.0), (0, 0, (1,), 0.5j), (0, 0, (-1,), -0.5j)]
        )
        assert op.propagation == 1
        assert op.norm_bound == pytest.approx(3.0)

    def test_longer_range_propagation(self):
        g = line_graph()
        op = local_operator(g, [(0, 0, (2,), 1.0), (0, 0, (-2,), 1.0)])
        assert op.propagation == 2


class TestMagneticTranslation:
    def test_unitarity(self):
        g = square_lattice()
        cocycles = validate_weights(g, hofstadter_weights(g, Fraction(1, 3)), 4)
        f = {Vertex(0, (0, 0)): 1.0 + 2.0j, Vertex(0, (1, 1)): -0.5j}
        for c in cocycles.values():
            assert l2_norm(magnetic_translate(c, f)) == pytest.approx(l2_norm(f))

    def test_commutator_vanishes_for_valid_cocycle(self):
        g = square_lattice()
        w = hofstadter_weights(g, Fraction(1, 3))
        _, D = harper_dml(g, w)
        cocycles = validate_weights(g, w, 5)
        tests = [{Vertex(0, (0, 0)): 1.0}]
        for c in cocycles.values():
            assert translation_commutator(D, c, tests) <= 1e-12

    def test_plain_translation_commutes_exactly(self):
        # integer coefficients and dyadic test values keep everything exact
        g = line_graph()
        _, D = harper_dml(g, uniform_weights(g))
        c = Cocycle((1,), {Vertex(0, (x,)): 1.0 + 0.0j for x in range(-6, 7)})
        tests = [{Vertex(0, (0,)): 1.0, Vertex(0, (1,)): 0.5}]
        assert translation_commutator(D, c, tests) == 0.0

    def test_wrong_twist_leaves_large_residual(self):
        g = square_lattice()
        w = hofstadter_weights(g, Fraction(1, 3))
        _, D = harper_dml(g, w)
        verts = [Vertex(0, (x, y)) for x in range(-4, 5) for y in range(-4, 5)]
        flat = Cocycle((1, 0), {v: 1.0 + 0.0j for v in verts})
        residual = translation_commutator(D, flat, [{Vertex(0, (0, 0)): 1.0}])
        assert residual > 0.1


def edge_phase(weights, e):
    """sigma of one oriented edge, read at the origin of its E+ member."""
    anchor = np.array([(e.terminus if e.reversed else e.origin).shift])
    rule = weights.reversed_phase if e.reversed else weights.positive_phase
    return complex(rule(e.template, anchor)[0])


def enumerate_closed_walks(graph, weights, start, length):
    """Independent oracle: sum of sigma-phase products over closed walks,
    by direct depth-first enumeration of neighbor chains."""
    total = 0.0 + 0.0j

    def walk(v, remaining, amplitude):
        nonlocal total
        if remaining == 0:
            if v == start:
                total += amplitude
            return
        for e in graph.neighbors(v):
            walk(e.terminus, remaining - 1, amplitude * edge_phase(weights, e))

    walk(start, length, 1.0 + 0.0j)
    return total


class TestGammaTracePower:
    def test_power_zero_counts_orbits(self):
        g = triangle_cells()
        _, D = harper_dml(g, uniform_weights(g))
        assert gamma_trace_power(D, 0) == 3.0

    def test_line_laplacian_diagonal(self):
        g = line_graph()
        _, D = harper_dml(g, uniform_weights(g))
        assert gamma_trace_power(D, 1) == pytest.approx(2.0)

    def test_line_hopping_two_walks(self):
        g = line_graph()
        H, _ = harper_dml(g, uniform_weights(g))
        assert gamma_trace_power(H, 2) == pytest.approx(2.0)

    @pytest.mark.parametrize("alpha", [Fraction(0), Fraction(1, 2), Fraction(1, 3)])
    def test_hofstadter_fourth_moment(self, alpha):
        # 28 flux-free closed 4-walks plus 8 unit-plaquette walks with
        # phases e^{+-2 pi i alpha}; cross-checked by brute-force walk
        # enumeration below
        g = square_lattice()
        w = hofstadter_weights(g, alpha)
        H, _ = harper_dml(g, w)
        got = gamma_trace_power(H, 4)
        closed_form = 28.0 + 8.0 * np.cos(2 * np.pi * float(alpha))
        brute = enumerate_closed_walks(g, w, Vertex(0, (0, 0)), 4)
        assert abs(brute.imag) < 1e-12
        assert got == pytest.approx(brute.real, abs=1e-10)
        assert got == pytest.approx(closed_form, abs=1e-10)

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_walk_enumeration_matches_all_small_powers(self, n):
        g = square_lattice()
        w = hofstadter_weights(g, Fraction(2, 5))
        H, _ = harper_dml(g, w)
        brute = enumerate_closed_walks(g, w, Vertex(0, (0, 0)), n)
        assert gamma_trace_power(H, n) == pytest.approx(brute.real, abs=1e-10)

    def test_square_trace_nonnegative(self):
        g = square_lattice()
        _, D = harper_dml(g, hofstadter_weights(g, Fraction(1, 7)))
        assert gamma_trace_power(D, 2) >= 0.0

    def test_negative_power_rejected(self):
        g = line_graph()
        _, D = harper_dml(g, uniform_weights(g))
        with pytest.raises(ValueError):
            gamma_trace_power(D, -1)
