"""Weights, cocycles, magnetic translations, stencil operators on window
arrays and the normalized trace, with walk-enumeration and dense-power
oracles for the trace powers."""

import cmath
from fractions import Fraction

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given

from magspec.exhaustion import folner_box, translated, window_subgraph
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
    WeightFunction,
    gamma_trace_power,
    harper_dml,
    hofstadter_weights,
    landau_phase,
    local_operator,
    perturbed_weights,
    translation_commutator,
    uniform_weights,
    unit_phase,
    validate_weights,
    window_coo,
    window_matvec,
    with_conjugation_defect,
    zero_operator,
)
from magspec.spectra import assemble_dirichlet

from strategies import graphs


def column(op, v):
    """The operator's column at one vertex, read off its triplets."""
    to_orbit, to_shift, _, vals = op.triplets(np.array([v.orbit]), np.array([v.shift]))
    return {
        Vertex(b, tuple(x)): c
        for b, x, c in zip(to_orbit.tolist(), to_shift.tolist(), vals.tolist())
    }


def box_window(graph, radius):
    """The window over the translates {-radius..radius}^d."""
    return window_subgraph(
        graph, translated(folner_box(graph.dimension, 2 * radius + 1), (-radius,) * graph.dimension)
    )


def delta(window, *verts):
    """Indicator functions of window vertices, one row each."""
    f = np.zeros((len(verts), len(window)), dtype=complex)
    for i, v in enumerate(verts):
        f[i, window.positions(v.orbit, np.array([v.shift]))[0]] = 1.0
    return f


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
            assert np.abs(c.values - c.values[0]).max() < 1e-12

    def test_hofstadter_cocycle_matches_landau_formula(self):
        # s_(1,0)(x, y) = e^{2 pi i alpha y} up to one global phase
        g = square_lattice()
        alpha = Fraction(1, 3)
        cocycles = validate_weights(g, hofstadter_weights(g, alpha), 4)
        c = cocycles[(1, 0)]
        origin = c.window.positions(0, np.zeros((1, 2), dtype=int))[0]
        base = c.values[origin]
        for val, (_, y) in zip(c.values, c.window.shifts.tolist()):
            expected = base * unit_phase(alpha * y)
            assert abs(val - expected) < 1e-10
        # the transverse generator needs no twist at all
        c2 = cocycles[(0, 1)]
        assert np.abs(c2.values - c2.values[origin]).max() < 1e-10

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
        assert all(c.values.shape == (3 * 5,) for c in cocycles.values())


class TestHarperDml:
    def test_line_stencils(self):
        g = line_graph()
        H, D = harper_dml(g, uniform_weights(g))
        d0 = Vertex(0, (0,))
        assert column(H, d0) == {
            Vertex(0, (-1,)): 1.0,
            Vertex(0, (1,)): 1.0,
        }
        out = column(D, d0)
        assert out[d0] == 2.0
        assert out[Vertex(0, (1,))] == -1.0 and out[Vertex(0, (-1,))] == -1.0

    def test_square_diagonal_is_valence(self):
        g = square_lattice()
        _, D = harper_dml(g, uniform_weights(g))
        out = column(D, Vertex(0, (3, -1)))
        assert out[Vertex(0, (3, -1))] == 4.0

    def test_triangle_cell_spectrum(self):
        # one-cell Laplacian eigenvalues {0, 3, 3} from a 3x3 eigensolve
        g = triangle_cells()
        _, D = harper_dml(g, uniform_weights(g))
        M = np.zeros((3, 3), complex)
        for orb in range(3):
            for u, c in column(D, Vertex(orb, (0,))).items():
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
        out = column(D, Vertex(0, (1, 0)))
        assert out[Vertex(0, (1, 1))] == pytest.approx(1.0)  # -e^{i pi}
        assert out[Vertex(0, (2, 0))] == pytest.approx(-1.0)


class TestApplyLocal:
    """The operator applied to functions on a window: the COO matvec."""

    def test_support_containment(self):
        g = line_graph()
        _, D = harper_dml(g, uniform_weights(g))
        w = box_window(g, 3)
        out = window_matvec(window_coo(D, w), delta(w, Vertex(0, (0,)))[0])
        assert w.shifts[np.flatnonzero(out), 0].tolist() == [-1, 0, 1]

    def test_zero_stencil(self):
        g = square_lattice()
        Z = zero_operator(g)
        w = box_window(g, 1)
        rows, cols, vals = coo = window_coo(Z, w)
        assert rows.size == cols.size == vals.size == 0
        assert not window_matvec(coo, 2.0 * delta(w, Vertex(0, (0, 0)))).any()

    @given(st.lists(st.tuples(st.integers(-3, 3), st.floats(-2, 2)), min_size=1, max_size=5))
    def test_linearity(self, items):
        g = line_graph()
        _, D = harper_dml(g, uniform_weights(g))
        w = box_window(g, 4)
        coo = window_coo(D, w)
        f = np.zeros(len(w), dtype=complex)
        for x, c in items:
            f[w.positions(0, np.array([[x]]))[0]] += c
        lhs = window_matvec(coo, 2.0 * f)
        rhs = 2.0 * window_matvec(coo, f)
        assert np.array_equal(lhs != 0, rhs != 0)
        assert np.abs(lhs - rhs).max() < 1e-12

    def test_self_adjointness_sampled(self):
        g = square_lattice()
        _, D = harper_dml(g, hofstadter_weights(g, Fraction(2, 5)))
        rng = np.random.default_rng(7)
        support = sorted(simplicial_ball(g, Vertex(0, (0, 0)), 2))
        w = box_window(g, 2)
        pos = w.positions(np.array([v.orbit for v in support]), np.array([v.shift for v in support]))
        coo = window_coo(D, w)
        for _ in range(10):
            f = np.zeros(len(w), dtype=complex)
            h = np.zeros(len(w), dtype=complex)
            f[pos] = rng.normal(size=(len(support), 2)).view(complex)[:, 0]
            h[pos] = rng.normal(size=(len(support), 2)).view(complex)[:, 0]
            lhs = np.vdot(h, window_matvec(coo, f))
            rhs = np.vdot(window_matvec(coo, h), f)
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))

    def test_bounded_propagation_exact(self):
        g = square_lattice()
        _, D = harper_dml(g, hofstadter_weights(g, Fraction(1, 4)))
        v = Vertex(0, (0, 0))
        ball = simplicial_ball(g, v, D.propagation)
        assert all(u in ball for u in column(D, v))

    def test_matvec_is_the_dirichlet_matrix(self):
        g = square_lattice()
        _, D = harper_dml(g, hofstadter_weights(g, Fraction(1, 3)))
        w = window_subgraph(g, folner_box(2, 4))
        f = np.random.default_rng(3).normal(size=(3, len(w), 2)).view(complex)[..., 0]
        M = assemble_dirichlet(D, w)
        assert np.abs(window_matvec(window_coo(D, w), f) - f @ M.T).max() < 1e-12


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
        # T is unitary exactly when every cocycle value has unit modulus
        g = square_lattice()
        cocycles = validate_weights(g, hofstadter_weights(g, Fraction(1, 3)), 4)
        for c in cocycles.values():
            assert c.values.shape == (len(c.window),)
            assert np.abs(np.abs(c.values) - 1.0).max() < 1e-12

    def test_commutator_vanishes_for_valid_cocycle(self):
        g = square_lattice()
        w = hofstadter_weights(g, Fraction(1, 3))
        _, D = harper_dml(g, w)
        cocycles = validate_weights(g, w, 5)
        for c in cocycles.values():
            tests = delta(c.window, Vertex(0, (0, 0)))
            assert translation_commutator(D, c, tests) <= 1e-12

    def test_plain_translation_commutes_exactly(self):
        # integer coefficients and dyadic test values keep everything exact
        g = line_graph()
        _, D = harper_dml(g, uniform_weights(g))
        win = box_window(g, 6)
        c = Cocycle((1,), win, np.ones(len(win), dtype=complex))
        tests = delta(win, Vertex(0, (0,))) + 0.5 * delta(win, Vertex(0, (1,)))
        assert translation_commutator(D, c, tests) == 0.0

    def test_wrong_twist_leaves_large_residual(self):
        g = square_lattice()
        w = hofstadter_weights(g, Fraction(1, 3))
        _, D = harper_dml(g, w)
        win = box_window(g, 4)
        flat = Cocycle((1, 0), win, np.ones(len(win), dtype=complex))
        residual = translation_commutator(D, flat, delta(win, Vertex(0, (0, 0))))
        assert residual > 0.1

    @pytest.mark.parametrize("x", [3, -3, 2])
    def test_leaving_the_window_raises(self, x):
        # on {-3..3}: at 3 the translate leaves the window, at -3 the
        # operator's image does, and at 2 the translate of the image does
        g = line_graph()
        _, D = harper_dml(g, uniform_weights(g))
        win = box_window(g, 3)
        c = Cocycle((1,), win, np.ones(len(win), dtype=complex))
        with pytest.raises(WeightError, match="enlarge the validation radius"):
            translation_commutator(D, c, delta(win, Vertex(0, (x,))))
        inside = delta(win, Vertex(0, (0,)), Vertex(0, (1,)))
        assert translation_commutator(D, c, inside) == 0.0

    def test_validated_cocycle_window_contract(self):
        g = square_lattice()
        w = hofstadter_weights(g, Fraction(1, 3))
        _, D = harper_dml(g, w)
        c = validate_weights(g, w, 2)[(0, -1)]
        assert translation_commutator(D, c, delta(c.window, Vertex(0, (0, 0)))) <= 1e-12
        with pytest.raises(WeightError, match=r"translate by \(0, -1\) of Vertex\(orbit=0, shift=\(0, -2\)\)"):
            translation_commutator(D, c, delta(c.window, Vertex(0, (0, -2))))


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

    @given(graphs(), st.integers(0, 5))
    def test_walk_enumeration_on_random_graphs(self, g, n):
        # multi-orbit graphs with template offsets up to l1 = 2, so the
        # box radius (n // 2) * reach runs past 1
        rules = [
            lambda s, i=i: landau_phase(Fraction(i + 1, 5), s.sum(axis=1))
            for i in range(len(g.templates))
        ]
        w = WeightFunction(g, rules)
        H, _ = harper_dml(g, w)
        zero = (0,) * g.dimension
        brute = sum(enumerate_closed_walks(g, w, Vertex(orb, zero), n) for orb in range(g.num_orbits))
        assert gamma_trace_power(H, n) == pytest.approx(brute.real, rel=1e-12, abs=1e-9)

    def test_dense_dirichlet_power_on_reach_two_stencil(self):
        # a magnetic-like diagonal hop and a second-neighbour hop: offsets
        # of l1 length 2, on two orbits; the dense reference uses a box of
        # radius n * reach, twice what gamma_trace_power needs
        g = periodic_graph(2, 2, [(0, 1, (0, 0)), (0, 0, (1, 0)), (0, 0, (0, 1))])
        hop = lambda s: 0.7 * landau_phase(Fraction(1, 3), s[:, 0])  # noqa: E731
        op = local_operator(g, [
            (0, 1, (1, 1), hop),
            (1, 0, (-1, -1), lambda s: hop(s - 1).conj()),
            (0, 0, (2, 0), 0.5j),
            (0, 0, (-2, 0), -0.5j),
            (1, 1, (0, 0), 0.3),
            (0, 1, (0, 0), 1.0),
            (1, 0, (0, 0), 1.0),
        ])
        assert op.offset_reach == 2
        for n in range(7):
            win = box_window(g, n * op.offset_reach)
            M = assemble_dirichlet(op, win)
            dense = 0.0
            for orb in range(2):
                e = delta(win, Vertex(orb, (0, 0)))[0]
                f = e
                for _ in range(n):
                    f = M @ f
                dense += np.vdot(e, f)
            assert abs(dense.imag) < 1e-12 * max(1.0, abs(dense))
            assert gamma_trace_power(op, n) == pytest.approx(dense.real, rel=1e-12, abs=1e-12)
