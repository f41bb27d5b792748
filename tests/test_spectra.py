"""Window restrictions, counting backends, jumps, interior restrictions
and the window-normalized subspace dimension."""

import threading
import time
import tracemalloc
from fractions import Fraction

import hypothesis.strategies as st
import numpy as np
import pytest
import scipy.linalg
from hypothesis import given

from magspec.config import build_model, parse_config
from magspec.exhaustion import folner_box, interior_vertices, translated, window_subgraph
from magspec.experiments import _window_spectrum, run_jumps, select_probe_lambdas
from magspec.floquet import band_edges, magnetic_cell
from magspec.lattice import Vertex, line_graph, periodic_graph, square_lattice, triangle_cells
from magspec.operators import (
    LocalOperator,
    StencilEntry,
    WeightFunction,
    gauge_transformed,
    harper_dml,
    hofstadter_weights,
    landau_phase,
    local_operator,
    perturbed_weights,
    uniform_weights,
    unit_phase,
    zero_operator,
)
from magspec.spectra import (
    MAX_DENSE_DIM,
    SHIFT_SCALE,
    ZERO_PIVOT_SCALE,
    UnresolvedClusterError,
    WindowMatrix,
    WindowTooLargeError,
    _assert_hermitian,
    _block_singular_values,
    _block_spectrum,
    _band_eigvals,
    _conjugation_symmetric,
    _mirror,
    _real_band_eigvals,
    _real_form,
    _real_sectors,
    _reflection,
    _rotation,
    _block_stacks,
    _components,
    _inertia,
    assemble_dirichlet,
    assemble_neumann,
    count_leq,
    dirichlet_matrix,
    inertia_bracket,
    inertia_count_leq,
    interior_restriction,
    neumann_matrix,
    projection_window_dim,
    rect_kernel_dim,
    spectral_density,
)

from magspec.checks import random_stencil_window
from strategies import (
    dense_band_spectrum,
    dense_dirichlet,
    dense_neumann,
    dense_real_band_spectrum,
    dense_sector_band_spectrum,
    from_dense,
    vertices,
    window_mirror,
    window_point_reflection,
)

PATH3 = np.array([[2, -1, 0], [-1, 2, -1], [0, -1, 2]], dtype=complex)


def index_of(window):
    """Vertex -> window position, built vertex by vertex."""
    return {v: j for j, v in enumerate(vertices(window))}


def line_window(m):
    g = line_graph()
    _, D = harper_dml(g, uniform_weights(g))
    w = window_subgraph(g, folner_box(1, m))
    return g, D, w


class TestAssembleDirichlet:
    def test_path_tridiagonal_keeps_full_valence(self):
        _, D, w = line_window(3)
        M = assemble_dirichlet(D, w)
        assert np.allclose(M, PATH3)

    def test_zero_operator(self):
        g = square_lattice()
        w = window_subgraph(g, folner_box(2, 3))
        assert not assemble_dirichlet(zero_operator(g), w).any()

    def test_hofstadter_two_by_two(self):
        # one inner edge carries -e^{i pi x}; explicit 4x4 readout
        g = square_lattice()
        _, D = harper_dml(g, hofstadter_weights(g, Fraction(1, 2)))
        w = window_subgraph(g, folner_box(2, 2))
        M = assemble_dirichlet(D, w)
        # vertex order: (0,0), (0,1), (1,0), (1,1)
        expected = np.array(
            [
                [4, -1, -1, 0],
                [-1, 4, 0, -1],
                [-1, 0, 4, 1],
                [0, -1, 1, 4],
            ],
            dtype=complex,
        )
        assert np.allclose(M, expected, atol=1e-12)
        assert np.allclose(M, M.conj().T, atol=1e-14)

    def test_dimension_cap(self):
        g = line_graph()
        _, D = harper_dml(g, uniform_weights(g))
        w = window_subgraph(g, folner_box(1, 5001))
        with pytest.raises(WindowTooLargeError):
            assemble_dirichlet(D, w)

    def test_non_hermitian_stencil_rejected(self):
        # a hop to the right without its conjugate partner, built directly
        # so that local_operator's own Hermitian check is bypassed
        g = line_graph()
        one = lambda s: np.ones(len(s), dtype=complex)  # noqa: E731
        op = LocalOperator(g, {0: (StencilEntry(0, (1,), one),)}, 1, 1, 1.0)
        w = window_subgraph(g, folner_box(1, 4))
        with pytest.raises(AssertionError, match="not Hermitian"):
            assemble_dirichlet(op, w)


def reference_neumann(weights, window):
    """Magnetic Laplacian of the induced subgraph, edge by edge: each inner
    edge adds 1 to both endpoints' diagonal, -sigma(e) at (terminus,
    origin) and its conjugate at (origin, terminus)."""
    n = len(window)
    index = index_of(window)
    M = np.zeros((n, n), dtype=complex)
    g = window.graph
    shifts = map(tuple, window.elements.tolist())
    for e in (g.template_edge(t, s) for s in shifts for t in range(len(g.templates))):
        if e.terminus not in index:
            continue
        i, j = index[e.origin], index[e.terminus]
        p = weights.positive_phase(e.template, np.array([e.origin.shift]))[0]
        M[j, i] -= p
        M[i, j] -= p.conjugate()
        M[i, i] += 1.0
        M[j, j] += 1.0
    return M


def decorated_lattice():
    # two orbits: an in-cell rung, a bridge and Landau-phase vertical edges
    g = periodic_graph(2, 2, [(0, 1, (0, 0)), (1, 0, (1, 0)), (0, 0, (0, 1)), (1, 1, (0, 1))])
    landau = [lambda s: landau_phase(Fraction(1, 3), s[:, 0])] * 2
    return g, WeightFunction(g, [1.0, 1.0, *landau], flux=Fraction(1, 3))


def doubled_line():
    # two parallel edges per step with different phases
    g = periodic_graph(1, 1, [(0, 0, (1,)), (0, 0, (1,))])
    return g, WeightFunction(g, [unit_phase(0.1), lambda s: landau_phase(0.37, s[:, 0])])


def perturbed_square():
    g = square_lattice()
    return g, perturbed_weights(hofstadter_weights(g, Fraction(1, 3)), 1, (1, 2), 0.3)


class TestAssembleNeumann:
    @pytest.mark.parametrize(
        "model, elements",
        [
            (decorated_lattice, folner_box(2, 4)),
            (perturbed_square, folner_box(2, 5)),
            (doubled_line, folner_box(1, 6)),
            (perturbed_square, translated(folner_box(2, 4), (1, 1))),
            (decorated_lattice, [(2, -1)]),
            (doubled_line, [(3,)]),
        ],
        ids=["decorated", "perturbed", "doubled-edge", "translated", "single-translate", "single-vertex"],
    )
    def test_matches_edge_by_edge_laplacian(self, model, elements):
        g, weights = model()
        w = window_subgraph(g, elements)
        assert np.array_equal(assemble_neumann(g, weights, w), reference_neumann(weights, w))

    def test_path_laplacian(self):
        g, _, w = line_window(3)
        M = assemble_neumann(g, uniform_weights(g), w)
        assert np.allclose(M, [[1, -1, 0], [-1, 2, -1], [0, -1, 1]])

    def test_single_vertex_window(self):
        g = line_graph()
        w = window_subgraph(g, folner_box(1, 1))
        M = assemble_neumann(g, uniform_weights(g), w)
        assert M.shape == (1, 1) and M[0, 0] == 0.0

    @pytest.mark.parametrize("m", [2, 3, 5])
    def test_dirichlet_minus_neumann(self, m):
        # diagonal, nonnegative, supported on the boundary collar
        g = square_lattice()
        weights = hofstadter_weights(g, Fraction(1, 3))
        _, D = harper_dml(g, weights)
        w = window_subgraph(g, folner_box(2, m))
        diff = assemble_dirichlet(D, w) - assemble_neumann(g, weights, w)
        off = diff - np.diag(np.diag(diff))
        assert np.abs(off).max() < 1e-14
        diag = np.real(np.diag(diff))
        assert diag.min() >= 0
        assert (diag[interior_vertices(g, w, 1).interior_positions] == 0.0).all()

    def test_neumann_counts_dominate(self):
        g = square_lattice()
        weights = hofstadter_weights(g, Fraction(1, 3))
        _, D = harper_dml(g, weights)
        w = window_subgraph(g, folner_box(2, 5))
        sd = spectral_density(dirichlet_matrix(D, w), w)
        sn = spectral_density(neumann_matrix(g, weights, w), w)
        for lam in np.linspace(-1, 9, 41):
            assert sn.ids(lam) >= sd.ids(lam)


class TestCountLeq:
    def test_path_count_at_two(self):
        # eigenvalues 2 - sqrt(2), 2, 2 + sqrt(2)
        assert count_leq(from_dense(PATH3), 2.0) == 2

    def test_gershgorin_extremes(self):
        rng = np.random.default_rng(3)
        A = rng.normal(size=(7, 7)) + 1j * rng.normal(size=(7, 7))
        A = from_dense(A + A.conj().T)
        bound = A.norm_bound
        assert count_leq(A, -bound - 1e-9) == 0
        assert count_leq(A, bound + 1e-9) == 7

    def test_a_sequence_of_points_shares_one_diagonalization(self):
        A = from_dense(PATH3)
        lams = [0.0, 2.0, 3.0, 5.0]
        counts = count_leq(A, lams)
        assert counts == [count_leq(A, lam) for lam in lams] == [0, 2, 2, 3]
        assert all(type(c) is int for c in [*counts, count_leq(A, 2.0)])

    def test_norm_bound_is_the_dense_gershgorin_bound(self):
        # row sums added entry by entry instead of over dense rows: equal
        # up to summation order
        rng = np.random.default_rng(0)
        for _ in range(300):
            _, _, A = random_stencil_window(rng)
            dense_rows = np.abs(A.dense()).sum(axis=1).max()
            assert A.norm_bound == pytest.approx(dense_rows, rel=1e-15, abs=0)

    def test_backends_agree(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            n = int(rng.integers(2, 30))
            A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            A = A + A.conj().T
            evals = np.linalg.eigvalsh(A)
            lam = float(rng.uniform(evals[0] - 1, evals[-1] + 1))
            A = from_dense(A)
            assert count_leq(A, lam) == inertia_count_leq(A, lam)

    def test_inertia_bracket_at_eigenvalue(self):
        # the bracket splits an eigenvalue; the one rule counts it
        A = from_dense(PATH3)
        lo, hi = inertia_bracket(A, 2.0)
        assert (lo, hi) == (1, 2)
        assert inertia_count_leq(A, 2.0) == 2

    def test_zero_matrix(self):
        Z = from_dense(np.zeros((4, 4), dtype=complex))
        assert inertia_count_leq(Z, 0.0) == 4
        assert inertia_count_leq(Z, -0.1) == 0

    def test_inertia_matches_closed_form_at_dimension_2050(self):
        # the full-valence tridiagonal window of the line has eigenvalues
        # 2 - 2cos(k pi/(n+1))
        g = line_graph()
        _, D = harper_dml(g, uniform_weights(g))
        w = window_subgraph(g, folner_box(1, 2050))
        A = dirichlet_matrix(D, w)
        n = 2050
        grid = 2.0 - 2.0 * np.cos(np.arange(1, n + 1) * np.pi / (n + 1))
        for lam in (0.5, 2.0):
            assert inertia_count_leq(A, lam) == int(np.count_nonzero(grid <= lam))


def pivot_sizes(M, lam):
    """Sizes of the diagonal blocks of the Bunch-Kaufman factor of
    M - lam I, read off scipy.linalg.ldl independently of _inertia."""
    _, d, _ = scipy.linalg.ldl(M - lam * np.eye(M.shape[0]), hermitian=True)
    sizes, k = [], 0
    while k < d.shape[0]:
        size = 2 if k + 1 < d.shape[0] and d[k + 1, k] != 0 else 1
        sizes.append(size)
        k += size
    return sizes


def assert_inertia_matches_eigvalsh(M, lams):
    """(neg, zero, pos) of M - lam I against eigvalsh, at points at least
    1e-6 of the norm away from every eigenvalue."""
    evals = np.linalg.eigvalsh(M)
    A = from_dense(M)
    norm = A.norm_bound
    for lam in lams:
        assert np.abs(evals - lam).min() > 1e-6 * norm
        neg = int(np.count_nonzero(evals < lam))
        got = _inertia(A, lam, ZERO_PIVOT_SCALE * norm)
        assert got == (neg, 0, len(evals) - neg), lam


def zero_diagonal_hermitian(rng, n):
    A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    A = A + A.conj().T
    A[np.diag_indices(n)] = 0.0
    return A


class TestInertia:
    def test_zero_diagonal_forces_2x2_pivots(self):
        rng = np.random.default_rng(21)
        for n in (2, 3, 7, 12):
            A = zero_diagonal_hermitian(rng, n)
            assert 2 in pivot_sizes(A, 0.0)
            assert_inertia_matches_eigvalsh(A, [0.0])

    def test_adjacent_2x2_blocks(self):
        # [[0, C], [C^*, 0]] with C square: every Schur complement keeps a
        # zero diagonal, so at lam = 0 every pivot is 2x2; the spectrum is
        # +-(singular values of C), n/2 on each side of 0
        rng = np.random.default_rng(22)
        k = 6
        C = rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))
        A = np.block([[np.zeros((k, k)), C], [C.conj().T, np.zeros((k, k))]])
        assert pivot_sizes(A, 0.0) == [2] * k
        W = from_dense(A)
        assert _inertia(W, 0.0, ZERO_PIVOT_SCALE * W.norm_bound) == (k, 0, k)
        assert_inertia_matches_eigvalsh(A, [0.0])

    def test_mixed_1x1_and_2x2_pivots(self):
        rng = np.random.default_rng(23)
        for n in (5, 9, 16):
            A = zero_diagonal_hermitian(rng, n)
            A[np.diag_indices(n)] = np.where(rng.random(n) < 0.5, 0.0, 10.0 * rng.normal(size=n))
            evals = np.linalg.eigvalsh(A)
            lams = [0.0, 0.5 * (evals[0] + evals[1]), 0.5 * (evals[-2] + evals[-1]), evals[-1] + 1.0]
            assert {1, 2} <= set(pivot_sizes(A, 0.0))
            assert_inertia_matches_eigvalsh(A, lams)

    def test_empty_matrix(self):
        A = from_dense(np.zeros((0, 0), dtype=complex))
        assert _inertia(A, 0.3, 1e-14) == (0, 0, 0)
        assert inertia_bracket(A, 0.3) == (0, 0)

    @pytest.mark.parametrize("bad", ["nan-entry", "inf-entry", "nan-lambda"])
    def test_non_finite_input_raises(self, bad):
        M = PATH3.copy()
        lam = 1.0
        if bad == "nan-entry":
            M[0, 1] = M[1, 0] = np.nan
        elif bad == "inf-entry":
            M[2, 2] = np.inf
        else:
            lam = float("nan")
        A = from_dense(M)
        with pytest.raises(ValueError):
            _inertia(A, lam, 1e-14)
        with pytest.raises(ValueError):
            inertia_count_leq(A, lam)


class TestSpectralDensity:
    def test_triangle_block_exact_for_every_window(self):
        g = triangle_cells()
        _, D = harper_dml(g, uniform_weights(g))
        for m in (1, 4, 9):
            w = window_subgraph(g, folner_box(1, m))
            spec = spectral_density(dirichlet_matrix(D, w), w)
            assert spec.ids(0.0 + 1e-9) == pytest.approx(1.0)
            assert spec.ids(3.0 + 1e-9) == pytest.approx(3.0)
            assert spec.ids(-1e-9) == 0.0

    def test_zero_operator_step(self):
        g = line_graph()
        w = window_subgraph(g, folner_box(1, 6))
        spec = spectral_density(dirichlet_matrix(zero_operator(g), w), w)
        assert spec.ids(-1e-12) == 0.0
        assert spec.ids(0.0) == 1.0

    def test_full_count_above_spectrum(self):
        g, D, w = line_window(8)
        spec = spectral_density(dirichlet_matrix(D, w), w)
        assert spec.ids(4.0 + 1e-6) == 1.0

    @given(st.floats(-1, 5), st.floats(-1, 5))
    def test_monotone_step_function(self, a, b):
        _, D, w = line_window(6)
        spec = spectral_density(dirichlet_matrix(D, w), w)
        lo, hi = min(a, b), max(a, b)
        assert spec.ids(lo) <= spec.ids(hi)

    def test_gauge_invariance_of_window_spectra(self):
        g = square_lattice()
        base = hofstadter_weights(g, Fraction(1, 3))
        rng = np.random.default_rng(5)
        w = window_subgraph(g, folner_box(2, 4))
        # random phases on the window, then 1 at position -1 (off the window)
        phases = np.array([unit_phase(rng.random()) for _ in range(len(w))] + [1.0])
        gauged = gauge_transformed(base, lambda orbit, s: phases[w.positions(orbit, s)])
        _, D1 = harper_dml(g, base)
        _, D2 = harper_dml(g, gauged)
        e1 = np.linalg.eigvalsh(assemble_dirichlet(D1, w))
        e2 = np.linalg.eigvalsh(assemble_dirichlet(D2, w))
        assert np.abs(e1 - e2).max() <= 1e-10

    def test_translation_invariance_of_window_spectra(self):
        g = square_lattice()
        _, D = harper_dml(g, hofstadter_weights(g, Fraction(1, 3)))
        box = folner_box(2, 4)
        e1 = np.linalg.eigvalsh(assemble_dirichlet(D, window_subgraph(g, box)))
        e2 = np.linalg.eigvalsh(
            assemble_dirichlet(D, window_subgraph(g, translated(box, (5, -2))))
        )
        assert np.abs(e1 - e2).max() <= 1e-10


# the Dirichlet line window of side 9 has eigenvalues 2 - 2cos(k pi/10)
LINE9_EIGS = 2.0 - 2.0 * np.cos(np.arange(1, 10) * np.pi / 10)


def line9_counter(path):
    """The window matrix and its count through one of the three paths."""
    _, D, w = line_window(9)
    A = dirichlet_matrix(D, w)
    if path == "count_leq":
        return A, lambda lam: count_leq(A, lam)
    if path == "inertia":
        return A, lambda lam: inertia_count_leq(A, lam)
    return A, spectral_density(A, w).count_leq


class TestCountingRule:
    """Every backend counts the eigenvalues <= lam + delta, with delta the
    matrix's counting_shift."""

    @pytest.mark.parametrize("path", ["count_leq", "WindowSpectrum", "inertia"])
    def test_an_eigenvalue_is_counted_and_delta_resolves_it(self, path):
        A, counter = line9_counter(path)
        delta = A.counting_shift
        assert delta == SHIFT_SCALE * A.norm_bound
        lam = float(LINE9_EIGS[2])
        assert counter(lam) == 3
        assert counter(lam - 2 * delta) == 2
        assert counter(0.5 * (LINE9_EIGS[2] + LINE9_EIGS[3])) == 3

    def test_spectrum_stores_the_shift(self):
        A, _ = line9_counter("count_leq")
        _, _, w = line_window(9)
        assert spectral_density(A, w).shift == A.counting_shift

    def test_shift_is_floored(self):
        for M in (np.zeros((3, 3), dtype=complex), 1e-9 * PATH3):
            assert from_dense(M).counting_shift == 1e-14

    def test_zero_pivot_at_the_shifted_point_is_unresolved(self):
        # lam + delta lands exactly on the eigenvalue 2 of PATH3
        A = from_dense(PATH3)
        with pytest.raises(UnresolvedClusterError):
            inertia_count_leq(A, 2.0 - A.counting_shift)


class TestJumpDim:
    def test_triangle_jump_at_zero(self):
        g = triangle_cells()
        _, D = harper_dml(g, uniform_weights(g))
        for m in (2, 5, 8):
            w = window_subgraph(g, folner_box(1, m))
            spec = spectral_density(dirichlet_matrix(D, w), w)
            assert spec.jump(0.0, 1e-8) == pytest.approx(1.0)
            assert spec.jump(3.0, 1e-8) == pytest.approx(2.0)

    def test_gap_point_has_no_jump(self):
        g = triangle_cells()
        _, D = harper_dml(g, uniform_weights(g))
        w = window_subgraph(g, folner_box(1, 4))
        assert spectral_density(dirichlet_matrix(D, w), w).jump(1.5, 1e-8) == 0.0

    def test_path_simple_eigenvalue(self):
        g, D, w = line_window(3)
        assert spectral_density(from_dense(PATH3), w).jump(2.0, 1e-10) == pytest.approx(1.0 / 3.0)

    def test_unresolved_cluster_raises(self):
        g, D, w = line_window(3)
        # tol so coarse that the neighbors sit within 10 tol of lambda
        with pytest.raises(UnresolvedClusterError):
            spectral_density(from_dense(PATH3), w).jump(2.0, 0.2)

    def test_nonpositive_tol_rejected(self):
        g, D, w = line_window(3)
        with pytest.raises(ValueError):
            spectral_density(from_dense(PATH3), w).jump(2.0, 0.0)


class TestInteriorRestriction:
    def test_path_columns_match_dirichlet(self):
        g, D, w = line_window(5)
        split = interior_vertices(g, w, 1)
        R = interior_restriction(D, w, split, 0.0)
        M = assemble_dirichlet(D, w)
        assert R.shape == (5, 3)
        assert np.allclose(R.dense(), M[:, 1:4])

    def test_lambda_shift_hits_interior_rows(self):
        g, D, w = line_window(5)
        split = interior_vertices(g, w, 1)
        R0 = interior_restriction(D, w, split, 0.0)
        R2 = interior_restriction(D, w, split, 2.0)
        shift = R0.dense() - R2.dense()
        expected = np.zeros((5, 3))
        expected[split.interior_positions, np.arange(3)] = 2.0
        assert np.allclose(shift, expected)

    def test_empty_interior(self):
        g = square_lattice()
        _, D = harper_dml(g, uniform_weights(g))
        w = window_subgraph(g, folner_box(2, 2))
        split = interior_vertices(g, w, 1)
        assert split.interior_positions.size == 0
        R = interior_restriction(D, w, split, 0.0)
        assert R.shape == (4, 0)
        assert rect_kernel_dim(R, 1e-8) == 0

    def test_understated_propagation_leaks(self):
        # offsets of length 2 under a declared propagation of 1: interior
        # columns next to the boundary reach outside the window
        g = line_graph()
        one = lambda s: np.ones(len(s), dtype=complex)  # noqa: E731
        ents = (StencilEntry(0, (2,), one), StencilEntry(0, (-2,), one))
        op = LocalOperator(g, {0: ents}, 1, 2, 2.0)
        w = window_subgraph(g, folner_box(1, 6))
        split = interior_vertices(g, w, 1)
        leak = r"column at Vertex\(orbit=0, shift=\(1,\)\) leaks outside the window"
        with pytest.raises(AssertionError, match=leak):
            interior_restriction(op, w, split, 0.0)

    def test_radius_below_propagation_rejected(self):
        g, D, w = line_window(5)
        split = interior_vertices(g, w, 0)
        with pytest.raises(ValueError):
            interior_restriction(D, w, split, 0.0)

    def test_padded_window_rows_stay_zero(self):
        # assembling the same columns over a padded window adds only zero
        # rows: finite propagation keeps columns inside the original window
        g, D, w = line_window(6)
        split = interior_vertices(g, w, 1)
        wide = window_subgraph(g, folner_box(1, 10))
        inside = split.interior_positions
        to_orbit, to_shift, _, vals = D.triplets(w.orbits[inside], w.shifts[inside])
        index, wide_index = index_of(w), index_of(wide)
        for b, x, c in zip(to_orbit, to_shift, vals):
            u = Vertex(int(b), tuple(int(t) for t in x))
            if u not in index:
                assert u in wide_index and c == 0.0


class TestRectKernelDim:
    def test_zero_matrix(self):
        assert rect_kernel_dim(from_dense(np.zeros((5, 3), dtype=complex)), 1e-8) == 3

    def test_injective_matrix(self):
        R = np.array([[1.0, 0.0], [0.0, 2.0], [0.0, 0.0]], dtype=complex)
        assert rect_kernel_dim(from_dense(R), 1e-8) == 0

    def test_triangle_interior_kernel(self):
        g = triangle_cells()
        _, D = harper_dml(g, uniform_weights(g))
        m = 6
        w = window_subgraph(g, folner_box(1, m))
        split = interior_vertices(g, w, 1)
        R = interior_restriction(D, w, split, 0.0)
        # every cell is fully interior, so one kernel vector per cell
        assert rect_kernel_dim(R, 1e-8) == m

    def test_rank_nullity(self):
        rng = np.random.default_rng(2)
        R = rng.normal(size=(8, 5)) @ np.diag([1, 1, 1, 0, 0])
        k = rect_kernel_dim(from_dense(R.astype(complex)), 1e-10)
        rank = np.linalg.matrix_rank(R, tol=1e-10)
        assert k + rank == 5

    def test_wide_matrix_counts_every_column(self):
        # a rank-1 2 x 4 matrix has a 3-dimensional kernel, although its
        # SVD returns only two singular values
        assert rect_kernel_dim(from_dense(np.ones((2, 4), dtype=complex)), 1e-8) == 3

    def test_unresolved_singular_cluster(self):
        R = np.diag([1.0, 1e-7]).astype(complex)
        with pytest.raises(UnresolvedClusterError):
            rect_kernel_dim(from_dense(R), 1e-8)


def random_hermitian(rng, k):
    A = rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))
    return A + A.conj().T


def planted_block(rng, rows, cols, rank):
    """Dense (hence connected) rows x cols block of the given rank."""
    return (rng.normal(size=(rows, rank)) + 1j * rng.normal(size=(rows, rank))) @ (
        rng.normal(size=(rank, cols)) + 1j * rng.normal(size=(rank, cols))
    )


def block_diagonal(blocks):
    R = np.zeros((sum(b.shape[0] for b in blocks), sum(b.shape[1] for b in blocks)), dtype=complex)
    r = c = 0
    for b in blocks:
        R[r : r + b.shape[0], c : c + b.shape[1]] = b
        r, c = r + b.shape[0], c + b.shape[1]
    return R


def scrambled(rng, R):
    """Random row and column permutations: the blocks stay connected
    components of the nonzero pattern but are no longer contiguous."""
    return R[rng.permutation(R.shape[0])][:, rng.permutation(R.shape[1])]


def permuted_block_matrix(seed):
    """Ten dense Hermitian blocks of sizes 1 to 7 under a random symmetric
    permutation."""
    rng = np.random.default_rng(seed)
    sizes = [1, 3, 3, 2, 5, 1, 4, 3, 2, 7]
    M = block_diagonal([random_hermitian(rng, k) for k in sizes])
    p = rng.permutation(M.shape[0])
    return M[np.ix_(p, p)], len(sizes)


def scrambled_block_restriction(seed):
    """A scrambled 21 x 16 block matrix.  (rows, cols, rank) per block:
    kernels of 1, 0, 2, 2 and 1 columns; the 2 x 4 block has more columns
    than rows, the 1 x 0 block is a row with no column."""
    rng = np.random.default_rng(seed)
    shapes = [(4, 3, 2), (3, 3, 3), (5, 4, 2), (2, 4, 2), (1, 0, 0), (6, 2, 1)]
    return scrambled(rng, block_diagonal([planted_block(rng, *s) for s in shapes]))


def dense_block_gather(M, row_labels, col_labels, count):
    """Reference for ``_block_stacks``: the blocks cut out of the dense
    matrix by fancy indexing.  Per distinct block shape in ascending
    order, the stack of the blocks of that shape in block order, each
    block's indices in ascending order."""
    members = []
    for labels in (row_labels, col_labels):
        sizes = np.bincount(labels, minlength=count)
        starts = np.cumsum(sizes) - sizes
        members.append((np.argsort(labels, kind="stable"), starts, sizes))
    shapes = np.stack([sizes for _, _, sizes in members], axis=1)
    for shape in np.unique(shapes, axis=0):
        which = np.flatnonzero((shapes == shape).all(axis=1))
        ridx, cidx = (order[starts[which][:, None] + np.arange(k)] for (order, starts, _), k in zip(members, shape))
        yield M[ridx[:, :, None], cidx[:, None, :]]


def assert_stacks_match_dense_gather(M, row_labels, col_labels, count):
    """The stacks written from the entries equal the dense gather bit for
    bit, shape by shape; returns the reference stacks."""
    got = list(_block_stacks(from_dense(M), row_labels, col_labels, count))
    want = list(dense_block_gather(M, row_labels, col_labels, count))
    assert [g.shape for g in got] == [w.shape for w in want]
    for g, w in zip(got, want):
        assert np.array_equal(g, w)
    return want


def box_matrix(graph, weights, boundary, m, operator="dml"):
    """Dirichlet or Neumann box window of the magnetic Laplacian, or the
    Dirichlet window of the Harper operator, with the auto counting points
    of the converge driver (9 points, margin 0.1; none at a float flux,
    which has no magnetic cell)."""
    harper, dml = harper_dml(graph, weights)
    op = dml if operator == "dml" else harper
    w = window_subgraph(graph, folner_box(graph.dimension, m))
    if boundary == "dirichlet":
        A = dirichlet_matrix(op, w)
    else:
        A = neumann_matrix(graph, weights, w)
    if not isinstance(weights.flux, Fraction):
        return A, w, []
    cell = magnetic_cell(graph, op, weights.flux)
    return A, w, select_probe_lambdas(band_edges(cell), 9, 0.1)


def decorated_square_lattice():
    """Two orbits per cell: an A-B rung, a B-A horizontal bridge and
    vertical edges on both orbits with the Landau phase at flux 1/3."""
    alpha = Fraction(1, 3)
    graph = periodic_graph(2, 2, [(0, 1, (0, 0)), (1, 0, (1, 0)), (0, 0, (0, 1)), (1, 1, (0, 1))])
    phase = lambda s: landau_phase(alpha, s[:, 0])  # noqa: E731
    return graph, WeightFunction(graph, [1.0, 1.0, phase, phase], flux=alpha)


FLUXES = [Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(2, 7)]
GOLDEN = (5**0.5 - 1) / 2  # a float flux


def counts_under_the_rule(evals, lams, delta):
    """#{evals <= lam + delta} at each lam, for an ascending spectrum."""
    return np.searchsorted(evals, np.asarray(lams) + delta, side="right").tolist()


def halves(n):
    """The sector dimensions of a window of n positions split by its
    rotation: n / 2 each at even n."""
    return [n // 2, n - n // 2]


def unsplit_real_kernel(A, w, b):
    """The real band kernel on the whole window (one sector), sorted."""
    return np.sort(_real_band_eigvals(_real_form(A, _mirror(w), b)))


def assert_band_path_matches_dense(A, w, bandwidth, points, seed, solver="banded-real", sectors=None):
    """The band solver's spectrum agrees with dense eigvalsh to 1e-12 of
    the norm bound, and its counts agree exactly with the dense ones and
    with the complex band kernel's under the counting rule, at the given
    points and at 50 seeded random points.  The window is solved in the
    given sectors (the whole window when None); a split spectrum also
    agrees with the unsplit real kernel, in values and counts."""
    spec = spectral_density(A, w)
    assert (spec.solver, spec.blocks, spec.bandwidth) == (solver, 1, bandwidth)
    assert spec.sectors == (sectors or [A.dim])
    assert (spec.symmetry_residual is None) == (sectors is None)
    dense = np.linalg.eigvalsh(A.dense())
    assert np.abs(spec.eigenvalues - dense).max() <= 1e-12 * A.norm_bound
    complex_kernel = np.sort(_band_eigvals(A, bandwidth))
    rng = np.random.default_rng(seed)
    lams = [*points, *rng.uniform(dense[0] - 0.5, dense[-1] + 0.5, 50)]
    counts = [spec.count_leq(lam) for lam in lams]
    assert counts == counts_under_the_rule(dense, lams, spec.shift)
    assert counts == counts_under_the_rule(complex_kernel, lams, spec.shift)
    if sectors is not None:
        assert spec.symmetry_residual <= spec.shift / 200
        unsplit = unsplit_real_kernel(A, w, bandwidth)
        assert np.abs(spec.eigenvalues - unsplit).max() <= 1e-12 * A.norm_bound
        assert counts == counts_under_the_rule(unsplit, lams, spec.shift)


class TestBackendsAgreeAtClusters:
    """Every counting backend gives the same count under the one rule,
    also inside a cluster: the Hofstadter boxes at flux 1/3 and 1/2 have
    many-fold eigenvalues at 4 and 4 +- sqrt 2, which the real and complex
    band kernels and dense eigvalsh split differently in the last bits.
    The band windows are solved in the two sectors of their rotation (at
    odd m the centre is fixed, and one sector is one larger); the unsplit
    real kernel counts alike."""

    @pytest.mark.parametrize("m", [16, 32, 33])
    @pytest.mark.parametrize("boundary", ["dirichlet", "neumann"])
    @pytest.mark.parametrize("flux", [Fraction(1, 3), Fraction(1, 2)])
    def test_counts_agree_at_probes_clusters_and_eigenvalues(self, flux, boundary, m):
        g = square_lattice()
        A, w, probes = box_matrix(g, hofstadter_weights(g, flux), boundary, m)
        spec = spectral_density(A, w)
        assert spec.solver == ("banded-real" if m > 16 else "dense")
        assert sorted(spec.sectors) == (halves(m * m) if m > 16 else [m * m])
        seeded = np.random.default_rng(m).choice(spec.eigenvalues, 20, replace=False)
        lams = [*probes, 4.0, 4.0 - 2**0.5, 4.0 + 2**0.5, *seeded]
        counts = [spec.count_leq(lam) for lam in lams]
        assert counts == count_leq(A, lams)
        assert counts == counts_under_the_rule(np.linalg.eigvalsh(A.dense()), lams, spec.shift)
        assert counts == [inertia_count_leq(A, lam) for lam in lams]
        if m > 16:
            assert counts == counts_under_the_rule(unsplit_real_kernel(A, w, m), lams, spec.shift)


class TestBlockPath:
    """spectral_density and rect_kernel_dim work per connected block of the
    nonzero pattern; the results must match the dense computation."""

    def test_components_match_csgraph(self):
        from scipy.sparse import coo_array
        from scipy.sparse.csgraph import connected_components

        rng = np.random.default_rng(5)
        for _ in range(100):
            n = int(rng.integers(1, 300))
            rows, cols = rng.integers(0, n, (2, int(rng.integers(0, 2 * n))))
            count, labels = _components(rows, cols, n)
            pattern = coo_array((np.ones(rows.size), (rows, cols)), shape=(n, n))
            ref_count, ref_labels = connected_components(pattern, directed=False)
            assert count == ref_count
            assert np.array_equal(labels, ref_labels)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_permuted_block_spectrum_matches_dense(self, seed):
        M, blocks = permuted_block_matrix(seed)
        _, _, w = line_window(M.shape[0])
        spec = spectral_density(from_dense(M), w)
        assert spec.blocks == blocks
        dense = np.linalg.eigvalsh(M)
        assert np.all(np.diff(spec.eigenvalues) >= 0)
        assert np.abs(spec.eigenvalues - dense).max() <= 1e-12 * np.linalg.norm(M, 2)

    def test_connected_matrix_takes_the_dense_call(self):
        rng = np.random.default_rng(3)
        M = random_hermitian(rng, 12)
        _, _, w = line_window(12)
        spec = spectral_density(from_dense(M), w)
        assert spec.blocks == 1 and spec.solver == "dense" and spec.bandwidth == 11
        assert np.array_equal(spec.eigenvalues, np.sort(np.linalg.eigvalsh(M)))

    @pytest.mark.parametrize("m", [32, 48])
    @pytest.mark.parametrize("boundary", ["dirichlet", "neumann"])
    @pytest.mark.parametrize("flux", [Fraction(0), Fraction(1, 2), Fraction(1, 3), Fraction(2, 7), GOLDEN])
    def test_hofstadter_box_band_path_matches_dense(self, flux, boundary, m):
        # half-bandwidth m (the x-neighbour) and n = m^2, so BAND_RATIO * m <= n
        g = square_lattice()
        A, w, points = box_matrix(g, hofstadter_weights(g, flux), boundary, m)
        assert_band_path_matches_dense(A, w, m, points, seed=m, sectors=halves(m * m))

    @pytest.mark.parametrize("m", [32, 48])
    @pytest.mark.parametrize("flux", [*FLUXES, GOLDEN])
    def test_harper_box_band_path_matches_dense(self, flux, m):
        g = square_lattice()
        A, w, points = box_matrix(g, hofstadter_weights(g, flux), "dirichlet", m, "harper")
        assert_band_path_matches_dense(A, w, m, points, seed=m, sectors=halves(m * m))

    def test_two_orbit_window_band_path_matches_dense(self):
        # the B-A bridge spans 2m - 1 = 63 places and n = 2 m^2 = 2048; the
        # point reflection, which keeps orbits, maps it off the stencil, so
        # the window is one sector
        g, weights = decorated_square_lattice()
        A, w, points = box_matrix(g, weights, "dirichlet", 32)
        assert_band_path_matches_dense(A, w, 63, points, seed=7)

    def test_line_window_band_path_matches_dense(self):
        _, D, w = line_window(200)
        A = dirichlet_matrix(D, w)
        assert_band_path_matches_dense(A, w, 1, [0.5, 2.0, 3.5], seed=200, sectors=[100, 100])

    def test_count_leq_eigh_shares_the_band_path(self):
        _, D, w = line_window(200)
        A = dirichlet_matrix(D, w)
        # without a window there is no mirror: count_leq takes zhbevd
        assert _block_spectrum(A)[3] == "banded"
        assert _block_spectrum(A, w)[3] == "banded-real"
        dense = np.linalg.eigvalsh(A.dense())
        for lam in (-1.0, 0.7, 2.1, 3.3, 5.0):
            assert count_leq(A, lam) == int(np.count_nonzero(dense <= lam))

    def test_bandwidth_of_matrices_without_off_diagonal_entries(self):
        # no off-diagonal nonzero: half-bandwidth 0, and the dense call
        s = _block_spectrum(from_dense(np.zeros((0, 0), dtype=complex)))
        assert s.eigenvalues.size == 0 and (s.blocks, s.bandwidth, s.solver) == (0, 0, "dense")
        for value in (0.0, 2.5):
            A = from_dense(np.array([[value]], dtype=complex))
            s = _block_spectrum(A)
            assert np.array_equal(s.eigenvalues, [value]) and (s.blocks, s.bandwidth, s.solver) == (1, 0, "dense")
            assert count_leq(A, 1.0) == int(value <= 1.0)

    def test_triangle_window_splits_into_cells(self):
        g = triangle_cells()
        _, D = harper_dml(g, uniform_weights(g))
        w = window_subgraph(g, folner_box(1, 8))
        assert spectral_density(dirichlet_matrix(D, w), w).blocks == 8

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_permuted_block_kernel_matches_dense_svd(self, seed):
        R = scrambled_block_restriction(seed)
        assert R.shape == (21, 16)
        s = np.linalg.svd(R, compute_uv=False)
        dense = int(np.count_nonzero(s < 1e-8 * s[0]))
        assert rect_kernel_dim(from_dense(R), 1e-8) == dense == 6

    def test_unresolved_value_inside_one_block_raises(self):
        rng = np.random.default_rng(4)
        q = np.linalg.qr(rng.normal(size=(2, 2)))[0]
        # smax = 2 sits in the first block; the second block keeps 1.5e-7,
        # above tol * smax and inside the 10 tol * smax gap of the union,
        # though outside the gap its own largest value would give
        R = scrambled(rng, block_diagonal([q @ np.diag([2.0, 1.0]) @ q.T, q @ np.diag([1.0, 1.5e-7]) @ q.T]))
        with pytest.raises(UnresolvedClusterError):
            rect_kernel_dim(from_dense(R.astype(complex)), 1e-8)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_square_block_stacks_match_the_dense_gather(self, seed):
        M, _ = permuted_block_matrix(seed)
        A = from_dense(M)
        count, labels = _components(A.rows, A.cols, A.dim)
        want = assert_stacks_match_dense_gather(M, labels, labels, count)
        reference = np.sort(np.concatenate([np.linalg.eigvalsh(w).ravel() for w in want]))
        assert np.array_equal(_block_spectrum(A)[0], reference)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_rectangular_block_stacks_match_the_dense_gather(self, seed):
        R = scrambled_block_restriction(seed)
        A = from_dense(R)
        r, c = R.shape
        count, labels = _components(A.rows, A.cols + r, r + c)
        want = assert_stacks_match_dense_gather(R, labels[:r], labels[r:], count)
        assert {w.shape[1:] for w in want} >= {(2, 4), (1, 0)}
        reference = []
        for w in want:
            blocks, rb, cb = w.shape
            if rb and cb:
                reference.append(np.linalg.svd(w, compute_uv=False).ravel())
            reference.append(np.zeros(blocks * (cb - min(rb, cb))))
        assert np.array_equal(_block_singular_values(A), np.concatenate(reference))


# (operator, flux, boundary, m): every flux and boundary at m = 32, and the
# m = 48 windows of the converge benchmark
BIT_IDENTITY_CASES = (
    [("dml", flux, bc, 32) for flux in FLUXES for bc in ("dirichlet", "neumann")]
    + [("harper", flux, "dirichlet", 32) for flux in FLUXES]
    + [("dml", Fraction(1, 3), bc, 48) for bc in ("dirichlet", "neumann")]
)

CONVERGE_THIRD_YAML = """
label: sq-third
graph: {dimension: 2, orbits: 1, templates: [[0, 0, [1, 0]], [0, 0, [0, 1]]]}
weights: {kind: hofstadter, flux: "1/3"}
operator: dml
boundary: both
windows: [48]
"""


def assert_triplet_band_matches_dense_copy(A, M, w, sectors):
    """The window matrix built from triplets equals the dense scatter; its
    one-sector real band spectrum, nnz and half-bandwidth equal those the
    real band solver got by computing the real form's diagonals off the
    dense matrix in the vertex-by-vertex mirror's basis, and its spectrum
    (split into ``sectors`` where the rotation applies) equals the one
    computed off the dense matrix in the same sectors, bit for bit."""
    assert np.array_equal(A.dense(), M)
    mirror = window_mirror(w)
    evals, b = dense_real_band_spectrum(M, mirror)
    assert A.nnz == int(np.count_nonzero(M))
    assert np.array_equal(unsplit_real_kernel(A, w, b), evals)
    spec = spectral_density(A, w)
    assert (spec.solver, spec.bandwidth, spec.sectors) == ("banded-real", b, sectors)
    rotation = _rotation(A, mirror, window_point_reflection(w))
    if rotation is not None:
        evals, dims = dense_sector_band_spectrum(M, mirror, rotation.point, rotation.phases)
        assert dims == sectors
    assert np.array_equal(spec.eigenvalues, evals)


class TestTripletBandPath:
    """Band windows are diagonalized from their COO triplets, without an
    n x n array; the eigenvalues are those of the dense-copy band path
    through the same (real) kernel, in the same sectors."""

    @pytest.mark.parametrize("operator,flux,boundary,m", BIT_IDENTITY_CASES)
    def test_square_box_bit_identical_to_dense_copy(self, operator, flux, boundary, m):
        g = square_lattice()
        weights = hofstadter_weights(g, flux)
        harper, dml = harper_dml(g, weights)
        op = dml if operator == "dml" else harper
        w = window_subgraph(g, folner_box(2, m))
        if boundary == "dirichlet":
            A, M = dirichlet_matrix(op, w), dense_dirichlet(op, w)
        else:
            A, M = neumann_matrix(g, weights, w), dense_neumann(g, weights, w)
        assert_triplet_band_matches_dense_copy(A, M, w, halves(m * m))

    def test_two_orbit_box_bit_identical_to_dense_copy(self):
        # the Neumann matrix is the Dirichlet one plus its lowered diagonal
        g, weights = decorated_square_lattice()
        w = window_subgraph(g, folner_box(2, 32))
        A, M = neumann_matrix(g, weights, w), dense_neumann(g, weights, w)
        assert_triplet_band_matches_dense_copy(A, M, w, [A.dim])

    @pytest.mark.parametrize("boundary", ["dirichlet", "neumann"])
    def test_refused_box_bit_identical_to_dense_copy(self, boundary):
        # a perturbed box fails the mirror check and keeps zhbevd: its
        # band spectrum is that of the diagonals copied off the dense matrix
        g = square_lattice()
        weights = perturbed_weights(hofstadter_weights(g, Fraction(1, 3)), 1, (1, 2), 0.3)
        w = window_subgraph(g, folner_box(2, 32))
        if boundary == "dirichlet":
            dml = harper_dml(g, weights)[1]
            A, M = dirichlet_matrix(dml, w), dense_dirichlet(dml, w)
        else:
            A, M = neumann_matrix(g, weights, w), dense_neumann(g, weights, w)
        assert np.array_equal(A.dense(), M)
        evals, nnz, b = dense_band_spectrum(M)
        spec = spectral_density(A, w)
        assert (spec.solver, spec.bandwidth, A.nnz) == ("banded", b, nnz)
        assert np.array_equal(spec.eigenvalues, evals)

    @pytest.mark.parametrize("boundary", ["dirichlet", "neumann"])
    def test_converge_window_allocates_no_dense_matrix(self, boundary):
        # a dense m = 48 window is n^2 * 16 bytes (85 MB); the band path
        # must peak below a quarter of that
        model = build_model(parse_config(CONVERGE_THIRD_YAML).model)
        n = 48 * 48
        tracemalloc.start()
        try:
            _, _, _, diag = _window_spectrum(model, 48, boundary)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert diag["solver"] == "banded-real" and diag["dim"] == n
        assert diag["sectors"] == [n // 2, n // 2] and diag["symmetry_residual"] <= 1e-12
        assert peak < n * n * 16 / 4, peak

    def test_line_window_past_the_dense_cap(self):
        # n = 6000 > MAX_DENSE_DIM: the band path needs no dense matrix, and
        # the Dirichlet path Laplacian has eigenvalues 2 - 2 cos(pi k / (n + 1))
        n = 6000
        assert n > MAX_DENSE_DIM
        _, D, w = line_window(n)
        spec = spectral_density(dirichlet_matrix(D, w), w)
        assert (spec.solver, spec.bandwidth, spec.eigenvalues.size) == ("banded-real", 1, n)
        assert spec.sectors == [n // 2, n // 2]
        exact = 2 - 2 * np.cos(np.pi * np.arange(1, n + 1) / (n + 1))
        checked = 0
        for lam in [-0.5, 0.001, 0.3, 1.0, 2.0, 2.7, 3.999, 4.5, *np.linspace(0.01, 3.99, 41)]:
            if np.abs(exact - lam).min() <= 1e-9:
                continue
            assert spec.count_leq(lam) == int(np.count_nonzero(exact <= lam)), lam
            checked += 1
        assert checked >= 45

    def test_dense_sink_keeps_the_cap(self):
        _, D, w = line_window(MAX_DENSE_DIM + 1)
        A = dirichlet_matrix(D, w)
        with pytest.raises(WindowTooLargeError):
            A.dense()

    def test_dense_input_feeds_the_same_routine(self):
        # a dense matrix read through np.nonzero (the tests' from_dense)
        # holds the entries the triplet routine summed, so it is solved alike
        g = square_lattice()
        _, dml = harper_dml(g, hofstadter_weights(g, Fraction(1, 3)))
        w = window_subgraph(g, folner_box(2, 32))
        A = dirichlet_matrix(dml, w)
        read = from_dense(assemble_dirichlet(dml, w))
        for got, want in zip((read.rows, read.cols, read.vals), (A.rows, A.cols, A.vals)):
            assert np.array_equal(got, want)
        assert np.array_equal(spectral_density(read, w).eigenvalues, spectral_density(A, w).eigenvalues)

    def test_hermitian_check_sums_duplicates_first(self):
        # (0, 1) is written twice, and only the sum mirrors (1, 0)
        rows, cols = np.array([0, 1, 0, 1, 0]), np.array([1, 0, 1, 1, 0])
        vals = np.array([1 + 1j, 2 - 2j, 1 + 1j, 3.0, 1.0])
        A = WindowMatrix.from_triplets(rows, cols, vals, 2)
        assert np.array_equal(A.dense(), [[1, 2 + 2j], [2 - 2j, 3]])
        _assert_hermitian(A)
        for keep in (slice(1, None), slice(0, 1)):  # a wrong mirror, no mirror
            B = WindowMatrix.from_triplets(rows[keep], cols[keep], vals[keep], 2)
            with pytest.raises(AssertionError, match="not Hermitian"):
                _assert_hermitian(B)


def f2py_band_eigvals(A, b):
    """The reference band kernel: scipy's f2py ``hbevd`` on the same lower
    band storage ``_band_eigvals`` writes."""
    lower = A.rows >= A.cols
    ab = np.zeros((b + 1, A.dim), dtype=complex, order="F")
    ab[(A.rows - A.cols)[lower], A.cols[lower]] = A.vals[lower]
    evals, _, info = scipy.linalg.get_lapack_funcs("hbevd", dtype=np.complex128)(
        ab, compute_v=0, lower=1, overwrite_ab=1
    )
    assert info == 0
    return evals


def square_box_matrix(flux, boundary, m):
    g = square_lattice()
    weights = hofstadter_weights(g, flux)
    w = window_subgraph(g, folner_box(2, m))
    if boundary == "dirichlet":
        return dirichlet_matrix(harper_dml(g, weights)[1], w)
    return neumann_matrix(g, weights, w)


class TestBandKernel:
    """The band kernel calls LAPACK zhbevd through scipy's Cython LAPACK
    table, which releases the GIL; its eigenvalues are those of scipy's
    f2py hbevd, bit for bit."""

    @pytest.mark.parametrize("m", [32, 48])
    @pytest.mark.parametrize("boundary", ["dirichlet", "neumann"])
    @pytest.mark.parametrize("flux", [Fraction(0), Fraction(1, 2), Fraction(1, 3)])
    def test_square_box_bit_identical_to_f2py(self, flux, boundary, m):
        A = square_box_matrix(flux, boundary, m)
        assert np.array_equal(_band_eigvals(A, m), f2py_band_eigvals(A, m))

    def test_line_window_bit_identical_to_f2py(self):
        _, D, w = line_window(200)
        A = dirichlet_matrix(D, w)
        assert np.array_equal(_band_eigvals(A, 1), f2py_band_eigvals(A, 1))

    def test_solve_releases_the_gil(self):
        # the main thread keeps ticking while a worker solves: its longest
        # pause stays far below the solve time (f2py's hbevd holds the GIL,
        # so there the pause is the whole solve)
        A = square_box_matrix(Fraction(1, 3), "dirichlet", 32)
        solve_s = []

        def solve():
            t = time.perf_counter()
            _band_eigvals(A, 32)
            solve_s.append(time.perf_counter() - t)

        worker = threading.Thread(target=solve)
        worker.start()
        last, gap = time.perf_counter(), 0.0
        while worker.is_alive():
            now = time.perf_counter()
            gap, last = max(gap, now - last), now
        worker.join()
        assert gap < solve_s[0] / 4, (gap, solve_s)


def f2py_real_band_eigvals(ab):
    """The reference real band kernel: scipy's f2py ``sbevd`` on the same
    lower band storage."""
    evals, _, info = scipy.linalg.get_lapack_funcs("sbevd", dtype=np.float64)(
        ab, compute_v=0, lower=1, overwrite_ab=0
    )
    assert info == 0
    return evals


def real_storage(A, w):
    """The real band storage of a mirror-symmetric window matrix at its own
    half-bandwidth, unsplit."""
    b = int(np.abs(A.rows - A.cols).max())
    assert _conjugation_symmetric(A, _mirror(w))
    return _real_form(A, _mirror(w), b), b


def dense_real_form(A, mirror):
    """U^* A U on the dense copy, with U built column by column: e_i at a
    fixed point, s = (e_i + e_r)/sqrt 2 at the lower index i of a pair
    (i, r) and t = i (e_i - e_r)/sqrt 2 at its upper index r."""
    n = A.dim
    U = np.zeros((n, n), dtype=complex)
    for c, r in enumerate(mirror):
        if r == c:
            U[c, c] = 1.0
        elif c < r:
            U[c, c] = U[r, c] = np.sqrt(0.5)
        else:
            U[r, c], U[c, c] = 1j * np.sqrt(0.5), -1j * np.sqrt(0.5)
    return U.conj().T @ A.dense() @ U


def small_real_window(case):
    """Window matrices small enough for a dense real form U^* A U."""
    g = square_lattice()
    if case == "line-201":
        _, D, w = line_window(201)
        return dirichlet_matrix(D, w), w
    if case == "two-orbit-12":
        g, weights = decorated_square_lattice()
        w = window_subgraph(g, folner_box(2, 12))
        return neumann_matrix(g, weights, w), w
    if case == "neumann-two-sevenths-16":
        w = window_subgraph(g, folner_box(2, 16))
        return neumann_matrix(g, hofstadter_weights(g, Fraction(2, 7)), w), w
    if case == "dml-third-17":
        w = window_subgraph(g, folner_box(2, 17))
        return dirichlet_matrix(harper_dml(g, hofstadter_weights(g, Fraction(1, 3)))[1], w), w
    assert case == "harper-golden-15"
    w = window_subgraph(g, folner_box(2, 15))
    return dirichlet_matrix(harper_dml(g, hofstadter_weights(g, GOLDEN))[0], w), w


def symmetric_gauge_box(m):
    """A box window whose east edges carry e^{i theta(y)} with
    theta(m - 1 - y) = -theta(y): R A R = conj(A) holds, but the real form
    couples s and t vectors of neighbouring slabs up to 2m - 1 places
    apart, outside the half-bandwidth m."""
    g = square_lattice()
    east = lambda s: np.exp(0.3j * (2 * s[:, 1] - (m - 1)))  # noqa: E731
    _, D = harper_dml(g, WeightFunction(g, [east, 1.0]))
    w = window_subgraph(g, folner_box(2, m))
    return dirichlet_matrix(D, w), w


def random_two_orbit_line(seed, cells=200):
    """A random Hermitian two-orbit stencil on Z with a complex on-site
    inter-orbit coupling, on a line window of ``cells`` translates."""
    rng = np.random.default_rng(seed)
    g = periodic_graph(1, 2, [(0, 1, (0,)), (0, 0, (1,))])
    c = lambda: complex(rng.normal(), rng.normal())  # noqa: E731
    raw = [(0, 0, (0,), complex(rng.normal())), (1, 1, (0,), complex(rng.normal()))]
    for a, b, off in [(0, 1, (0,)), (0, 1, (1,)), (0, 0, (1,)), (1, 1, (1,))]:
        v = c()
        raw += [(a, b, off, v), (b, a, tuple(-x for x in off), v.conjugate())]
    w = window_subgraph(g, folner_box(1, cells))
    return dirichlet_matrix(local_operator(g, raw), w), w


class TestRealBandKernel:
    """A band window that is real in the basis of its mirror (Theta = R
    conj, R the reflection of the window's last axis) is diagonalized in
    real band storage by LAPACK dsbevd, through scipy's Cython LAPACK
    table; every other band window keeps zhbevd."""

    @pytest.mark.parametrize("m", [32, 48])
    @pytest.mark.parametrize("boundary", ["dirichlet", "neumann"])
    @pytest.mark.parametrize("flux", [Fraction(0), Fraction(1, 2), Fraction(1, 3)])
    def test_square_box_bit_identical_to_f2py(self, flux, boundary, m):
        w = window_subgraph(square_lattice(), folner_box(2, m))
        ab, b = real_storage(square_box_matrix(flux, boundary, m), w)
        assert b == m
        assert np.array_equal(_real_band_eigvals(ab.copy(order="F")), f2py_real_band_eigvals(ab))

    def test_two_orbit_box_bit_identical_to_f2py(self):
        g, weights = decorated_square_lattice()
        w = window_subgraph(g, folner_box(2, 32))
        ab, _ = real_storage(neumann_matrix(g, weights, w), w)
        assert np.array_equal(_real_band_eigvals(ab.copy(order="F")), f2py_real_band_eigvals(ab))

    def test_solve_releases_the_gil(self):
        # as for zhbevd: the main thread keeps ticking while a worker solves
        w = window_subgraph(square_lattice(), folner_box(2, 48))
        ab, _ = real_storage(square_box_matrix(Fraction(1, 3), "dirichlet", 48), w)
        solve_s = []

        def solve():
            t = time.perf_counter()
            _real_band_eigvals(ab)
            solve_s.append(time.perf_counter() - t)

        worker = threading.Thread(target=solve)
        worker.start()
        last, gap = time.perf_counter(), 0.0
        while worker.is_alive():
            now = time.perf_counter()
            gap, last = max(gap, now - last), now
        worker.join()
        assert gap < solve_s[0] / 4, (gap, solve_s)

    @pytest.mark.parametrize(
        "case", ["dml-third-17", "harper-golden-15", "neumann-two-sevenths-16", "two-orbit-12", "line-201"]
    )
    def test_storage_is_the_lower_band_of_the_dense_real_form(self, case):
        # odd sides and the odd line have fixed points on the mirror axis
        A, w = small_real_window(case)
        mirror = _mirror(w)
        assert np.array_equal(mirror, window_mirror(w))
        ab, b = real_storage(A, w)
        B = dense_real_form(A, mirror)
        tol = 1e-14 * A.norm_bound
        assert np.abs(B.imag).max() <= tol
        n = A.dim
        offsets = np.subtract.outer(np.arange(n), np.arange(n))
        assert np.abs(B.real[offsets > b]).max() <= tol
        for k in range(b + 1):
            assert np.abs(ab[k, : n - k] - B.real.diagonal(-k)).max() <= tol, k
            assert not ab[k, n - k :].any()

    def test_storage_of_a_wider_real_form(self):
        # the symmetric-gauge box couples s and t vectors across slabs in
        # both directions; written at the real form's own half-bandwidth
        # 2m - 1, the storage is the lower band of the dense real form
        A, w = symmetric_gauge_box(9)
        mirror = _mirror(w)
        b = 2 * 9 - 1
        assert _conjugation_symmetric(A, mirror)
        ab = _real_form(A, mirror, b)
        B = dense_real_form(A, mirror).real
        assert ab[b].any()
        for k in range(b + 1):
            assert np.abs(ab[k, : A.dim - k] - B.diagonal(-k)).max() <= 1e-14 * A.norm_bound, k

    def test_mirror_must_be_an_involution(self):
        # three-orbit columns joined as triangles, and each orbit to itself
        # in the next column: cycling the orbits maps every entry to an
        # equal real one, but it is no reflection
        g = periodic_graph(1, 3, [(0, 1, (0,)), (1, 2, (0,)), (0, 2, (0,))]
                           + [(k, k, (1,)) for k in range(3)])
        _, D = harper_dml(g, uniform_weights(g))
        w = window_subgraph(g, folner_box(1, 40))
        A = dirichlet_matrix(D, w)
        cycled = w.positions((w.orbits + 1) % 3, w.shifts)
        keys = A.rows * A.dim + A.cols
        assert np.array_equal(np.sort(cycled[A.rows] * A.dim + cycled[A.cols]), keys)
        assert not _conjugation_symmetric(A, cycled)
        assert _conjugation_symmetric(A, _mirror(w))

    def refused(self, A, w):
        """The window keeps zhbevd, unsplit, with exactly its eigenvalues."""
        b = int(np.abs(A.rows - A.cols).max())
        assert _real_sectors(A, w, b) is None
        spec = spectral_density(A, w)
        assert (spec.solver, spec.bandwidth, spec.sectors, spec.symmetry_residual) == ("banded", b, [A.dim], None)
        assert np.array_equal(spec.eigenvalues, np.sort(_band_eigvals(A, b)))

    def test_gauge_transformed_weights_keep_the_complex_kernel(self):
        g = square_lattice()
        w = window_subgraph(g, folner_box(2, 32))
        phases = np.exp(2j * np.pi * np.random.default_rng(8).uniform(size=len(w)))
        gauged = gauge_transformed(
            hofstadter_weights(g, Fraction(1, 3)), lambda orbit, s: phases[w.positions(orbit, s)]
        )
        self.refused(dirichlet_matrix(harper_dml(g, gauged)[1], w), w)

    @pytest.mark.parametrize("boundary", ["dirichlet", "neumann"])
    def test_perturbed_weights_keep_the_complex_kernel(self, boundary):
        g = square_lattice()
        weights = perturbed_weights(hofstadter_weights(g, Fraction(1, 3)), 1, (1, 2), 0.3)
        w = window_subgraph(g, folner_box(2, 32))
        if boundary == "dirichlet":
            A = dirichlet_matrix(harper_dml(g, weights)[1], w)
        else:
            A = neumann_matrix(g, weights, w)
        self.refused(A, w)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_complex_two_orbit_stencil_keeps_the_complex_kernel(self, seed):
        self.refused(*random_two_orbit_line(seed))

    def test_non_box_window_keeps_the_complex_kernel(self):
        # a 40 x 32 box without its corner (0, 0): the mirror of (0, 31) is
        # off the window
        g = square_lattice()
        box = [(x, y) for x in range(40) for y in range(32) if (x, y) != (0, 0)]
        w = window_subgraph(g, box)
        assert (_mirror(w) < 0).sum() == 1
        self.refused(dirichlet_matrix(harper_dml(g, hofstadter_weights(g, Fraction(1, 3)))[1], w), w)

    def test_real_form_outside_the_band_keeps_the_complex_kernel(self):
        A, w = symmetric_gauge_box(32)
        mirror = _mirror(w)
        # the symmetry itself holds, and the real form is 2m - 1 wide
        assert np.abs(dense_real_form(A, mirror).imag).max() <= 1e-14 * A.norm_bound
        self.refused(A, w)


def dense_sector_forms(A, mirror, rotation):
    """The real form of each sector of the rotation on the dense copy:
    Q^* A Q with Q built column by column, real-orthonormal for Theta
    inside the sector.  Sector positions p < Pp (and fixed points of P
    whose phase is the sector's sign) hold f_p = (e_p + sign w_p e_Pp)
    / sqrt 2 (e_p at a fixed point), multiplied by sqrt(sign conj w_p)
    where Rp > PRp; a pair p < tau(p) = min(Rp, PRp) holds
    s = (f_p + f_tau)/sqrt 2 at p and t = i (f_p - f_tau)/sqrt 2 at tau(p),
    a fixed point of tau holds f_p.  Returns [(Q, Q^* A Q)] per sector."""
    n = A.dim
    point, w = rotation.point, rotation.phases
    ident = np.arange(n)
    forms = []
    for sign in (1, -1):
        members = [p for p in range(n) if p < point[p] or (p == point[p] and w[p] == sign)]
        f = {}
        for p in members:
            v = np.zeros(n, dtype=complex)
            if p == point[p]:
                v[p] = 1.0
            else:
                v[p], v[point[p]] = np.sqrt(0.5), sign * w[p] * np.sqrt(0.5)
            if mirror[p] > point[mirror[p]]:
                v *= np.sqrt(sign * np.conj(w[p]))
            f[p] = v
        Q = np.zeros((n, len(members)), dtype=complex)
        for col, p in enumerate(members):
            tau = min(mirror[p], point[mirror[p]])
            if tau == p:
                Q[:, col] = f[p]
            elif p < tau:
                Q[:, col] = (f[p] + f[tau]) * np.sqrt(0.5)
            else:
                Q[:, col] = 1j * (f[tau] - f[p]) * np.sqrt(0.5)
        assert np.abs(Q.conj().T @ Q - np.eye(len(members))).max() <= 1e-14
        forms.append((Q, Q.conj().T @ A.dense() @ Q))
    assert ident.size == sum(Q.shape[1] for Q, _ in forms)
    return forms


def square_plus_antidiagonal(m, operator="dml"):
    """The square lattice plus one (1, -1) hop, uniform weights: real
    entries, a stencil that the mirror y -> -y maps to (1, 1) and the point
    reflection keeps."""
    g = periodic_graph(2, 1, [(0, 0, (1, 0)), (0, 0, (0, 1)), (0, 0, (1, -1))])
    harper, dml = harper_dml(g, uniform_weights(g))
    w = window_subgraph(g, folner_box(2, m))
    return dirichlet_matrix(dml if operator == "dml" else harper, w), w


class TestRotationSplit:
    """A mirror-real band window that also commutes with a phased point
    reflection U = D P (every window axis reflected, orbits kept) is solved
    in the two sectors U = +-1, each in real band storage at the window's
    half-bandwidth; the split is accepted only by its residual on the
    entries, and every refusal is the one-sector real form."""

    @pytest.mark.parametrize(
        "case", ["dml-third-17", "harper-golden-15", "neumann-two-sevenths-16", "line-201"]
    )
    def test_sector_storage_is_the_lower_band_of_the_dense_sector_form(self, case):
        # odd sides have a fixed centre and a middle slab that the mirror
        # maps across the fold
        A, w = small_real_window(case)
        mirror = _mirror(w)
        rotation = _rotation(A, mirror, _reflection(w, slice(None)))
        assert np.array_equal(rotation.point, window_point_reflection(w))
        b = int(np.abs(A.rows - A.cols).max())
        tol = 1e-14 * A.norm_bound
        forms = dense_sector_forms(A, mirror, rotation)
        for sign, (Q, B) in zip((1, -1), forms):
            ab = _real_form(A, mirror, b, rotation, sign)
            k = Q.shape[1]
            assert ab.shape == (b + 1, k)
            assert np.abs(B.imag).max() <= tol
            offsets = np.subtract.outer(np.arange(k), np.arange(k))
            assert np.abs(B.real[offsets > b]).max(initial=0.0) <= tol
            for d in range(b + 1):
                assert np.abs(ab[d, : k - d] - B.real.diagonal(-d)).max(initial=0.0) <= tol, (sign, d)
                assert not ab[d, k - d :].any()
        # the sectors are orthogonal: together they hold the whole spectrum
        Q = np.hstack([Q for Q, _ in forms])
        assert np.abs(Q.conj().T @ Q - np.eye(A.dim)).max() <= 1e-14
        union = np.sort(np.concatenate([np.linalg.eigvalsh(B) for _, B in forms]))
        assert np.abs(union - np.linalg.eigvalsh(A.dense())).max() <= 1e-12 * A.norm_bound

    @pytest.mark.parametrize("flux", [Fraction(1, 3), Fraction(1, 2), GOLDEN])
    def test_rotation_is_an_exact_involution_that_keeps_theta(self, flux):
        g = square_lattice()
        A, w, _ = box_matrix(g, hofstadter_weights(g, flux), "dirichlet", 12)
        mirror = _mirror(w)
        rotation = _rotation(A, mirror, _reflection(w, slice(None)))
        P, phases = rotation.point, rotation.phases
        assert np.array_equal(phases[P], phases.conj())  # U^2 = 1
        assert np.array_equal(phases[mirror], phases.conj())  # R conj(U) R = U
        U = np.zeros((A.dim, A.dim), dtype=complex)
        U[P, np.arange(A.dim)] = phases
        M = A.dense()
        defect = np.abs(M - U @ M @ U.conj().T).sum(axis=1).max()
        assert rotation.residual == pytest.approx(defect, abs=1e-15)
        assert rotation.residual <= A.counting_shift / 200

    @pytest.mark.parametrize("flux", [Fraction(1, 3), Fraction(1, 2)])
    def test_odd_box_splits_with_a_fixed_centre(self, flux):
        g = square_lattice()
        A, w, _ = box_matrix(g, hofstadter_weights(g, flux), "dirichlet", 33)
        rotation = _rotation(A, _mirror(w), _reflection(w, slice(None)))
        centre = (A.dim - 1) // 2
        assert np.flatnonzero(rotation.point == np.arange(A.dim)).tolist() == [centre]
        sign = rotation.phases[centre]
        assert sign in (1.0, -1.0)
        spec = spectral_density(A, w)
        big = (A.dim + 1) // 2
        assert spec.sectors == ([big, big - 1] if sign == 1 else [big - 1, big])
        assert np.abs(spec.eigenvalues - np.linalg.eigvalsh(A.dense())).max() <= 1e-12 * A.norm_bound

    def pinned_diagonal(self, A, m, eps):
        """A plus eps on the diagonal at (0, 0) and (0, m - 1): the mirror
        keeps it, the point reflection moves it to the far column."""
        extra = np.array([0, m - 1])
        return WindowMatrix.from_triplets(
            np.concatenate([A.rows, extra]), np.concatenate([A.cols, extra]),
            np.concatenate([A.vals, np.full(2, eps)]), A.dim,
        )

    def test_split_is_accepted_up_to_a_two_hundredth_of_the_shift(self):
        # a residual G moves no eigenvalue by more than 2 G, so the split
        # needs G <= delta / 200
        g = square_lattice()
        m = 32
        A, w, _ = box_matrix(g, hofstadter_weights(g, Fraction(1, 3)), "dirichlet", m)
        delta = A.counting_shift
        below = self.pinned_diagonal(A, m, delta / 400)
        spec = spectral_density(below, w)
        assert spec.sectors == [512, 512]
        assert 0.99 * delta / 400 <= spec.symmetry_residual <= delta / 200
        dense = np.linalg.eigvalsh(below.dense())
        assert np.abs(spec.eigenvalues - dense).max() <= delta / 100
        above = self.pinned_diagonal(A, m, delta / 100)
        spec = spectral_density(above, w)
        assert (spec.solver, spec.sectors, spec.symmetry_residual) == ("banded-real", [1024], None)
        assert np.array_equal(spec.eigenvalues, unsplit_real_kernel(above, w, m))

    def test_window_without_the_rotation_is_its_one_sector(self):
        # the decorated lattice's B-A bridge is mirror-real but the point
        # reflection maps it off the stencil
        g, weights = decorated_square_lattice()
        w = window_subgraph(g, folner_box(2, 32))
        A = neumann_matrix(g, weights, w)
        assert _rotation(A, _mirror(w), _reflection(w, slice(None))) is None
        spec = spectral_density(A, w)
        assert (spec.solver, spec.sectors, spec.symmetry_residual) == ("banded-real", [A.dim], None)
        assert np.array_equal(spec.eigenvalues, unsplit_real_kernel(A, w, 63))

    @pytest.mark.parametrize("operator", ["dml", "harper"])
    def test_real_window_off_the_mirror_takes_plain_conjugation(self, operator):
        # the mirror maps the (1, -1) hop to (1, 1), off the stencil; the
        # entries are real, so Theta = conj, and the rotation still splits
        A, w = square_plus_antidiagonal(32, operator)
        assert not _conjugation_symmetric(A, _mirror(w))
        spec = spectral_density(A, w)
        assert (spec.solver, spec.bandwidth, spec.sectors) == ("banded-real", 32, [512, 512])
        dense = np.linalg.eigvalsh(A.dense())
        assert np.abs(spec.eigenvalues - dense).max() <= 1e-12 * A.norm_bound
        lams = [*np.random.default_rng(32).uniform(dense[0] - 0.5, dense[-1] + 0.5, 50),
                *np.random.default_rng(33).choice(dense, 20, replace=False)]
        counts = [spec.count_leq(lam) for lam in lams]
        assert counts == counts_under_the_rule(dense, lams, spec.shift)
        assert counts == counts_under_the_rule(np.sort(_band_eigvals(A, 32)), lams, spec.shift)


JUMPS_BLOCK_YAML = """
label: jumps-block
graph: {dimension: 1, orbits: 3, templates: [[0, 1, [0]], [1, 2, [0]], [0, 2, [0]]]}
weights: {kind: uniform}
operator: dml
windows: [64, 128, 256, 512]
"""


KAGOME_YAML = """
label: kagome
graph:
  dimension: 2
  orbits: 3
  templates: [[0, 1, [0, 0]], [0, 2, [0, 0]], [1, 2, [0, 0]], [0, 1, [-1, 0]], [0, 2, [0, -1]], [1, 2, [1, -1]]]
weights: {kind: uniform}
operator: dml
windows: [41]
"""


class TestBlockWindowsFromEntries:
    """Block-diagonal windows and interior restrictions are solved from
    their entries: no n x n or n x k array, and no dimension cap on the
    whole matrix; each dense block is capped as a dense window is."""

    def test_stacked_block_past_the_dense_cap_raises_before_it_is_written(self):
        # the kagome m = 41 interior restriction is 5043 x 4800 in 4 blocks:
        # window rows with no interior column are blocks of their own, and
        # the rest is one 5040 x 4800 block
        model = build_model(parse_config(KAGOME_YAML).model)
        w = window_subgraph(model.graph, folner_box(2, 41))
        split = interior_vertices(model.graph, w, model.operator.propagation)
        R = interior_restriction(model.operator, w, split, 0.0)
        assert R.shape == (5043, 4800)
        assert _components(R.rows, R.cols + R.shape[0], sum(R.shape))[0] == 4
        t = time.perf_counter()
        with pytest.raises(WindowTooLargeError, match="5040, 4800"):
            rect_kernel_dim(R, 1e-8)
        assert time.perf_counter() - t < 0.5

    def test_triangle_window_past_the_dense_cap(self):
        # n = 6000 > MAX_DENSE_DIM; every triangle cell has spectrum
        # {0, 3, 3} and, fully interior, one kernel vector at 0
        g = triangle_cells()
        _, D = harper_dml(g, uniform_weights(g))
        m = 2000
        w = window_subgraph(g, folner_box(1, m))
        assert len(w) == 3 * m > MAX_DENSE_DIM
        spec = spectral_density(dirichlet_matrix(D, w), w)
        assert (spec.solver, spec.blocks) == ("blocks", m)
        assert np.allclose(spec.eigenvalues, np.repeat([0.0, 3.0], [m, 2 * m]), atol=1e-12)
        split = interior_vertices(g, w, 1)
        assert rect_kernel_dim(interior_restriction(D, w, split, 0.0), 1e-8) == m

    def test_jumps_allocate_no_dense_window(self):
        # a dense m = 512 triangle window is n^2 * 16 bytes (38 MB) with
        # n = 1536; the whole jumps run must peak below a quarter of that
        cfg = parse_config(JUMPS_BLOCK_YAML)
        n = 3 * 512
        tracemalloc.start()
        try:
            _, meta = run_jumps(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert {d["solver"] for d in meta["diagnostics"]} == {"blocks"}
        assert max(d["dim"] for d in meta["diagnostics"]) == n
        assert peak < n * n * 16 / 4, peak


class TestProjectionWindowDim:
    def test_identity_gives_orbit_count(self):
        g = triangle_cells()
        w = window_subgraph(g, folner_box(1, 4))
        P = np.eye(len(w), dtype=complex)
        assert projection_window_dim(P, w, w) == pytest.approx(3.0)

    def test_zero_projection(self):
        g = line_graph()
        w = window_subgraph(g, folner_box(1, 5))
        P = np.zeros((5, 5), dtype=complex)
        assert projection_window_dim(P, w, w) == 0.0

    def test_indicator_of_interior(self):
        g = square_lattice()
        w = window_subgraph(g, folner_box(2, 4))
        split = interior_vertices(g, w, 1)
        P = np.zeros((len(w),) * 2, dtype=complex)
        P[split.interior_positions, split.interior_positions] = 1.0
        got = projection_window_dim(P, w, w)
        assert got == pytest.approx(split.interior_positions.size / len(w.elements))

    def test_padded_window_diagonal_restriction(self):
        g = line_graph()
        outer = window_subgraph(g, folner_box(1, 8))
        inner = window_subgraph(g, folner_box(1, 4))
        P = np.eye(8, dtype=complex)
        assert projection_window_dim(P, outer, inner) == pytest.approx(1.0)

    def test_inner_window_must_lie_inside_outer(self):
        g = line_graph()
        outer = window_subgraph(g, folner_box(1, 4))
        inner = window_subgraph(g, translated(folner_box(1, 2), (3,)))
        with pytest.raises(ValueError, match="leaves the outer window"):
            projection_window_dim(np.eye(4, dtype=complex), outer, inner)

    def test_non_projection_rejected(self):
        g = line_graph()
        w = window_subgraph(g, folner_box(1, 3))
        with pytest.raises(ValueError):
            projection_window_dim(np.diag([2.0, 0.0, 0.0]).astype(complex), w, w)
        skew = np.zeros((3, 3), dtype=complex)
        skew[0, 1] = 1.0
        with pytest.raises(ValueError):
            projection_window_dim(skew, w, w)
