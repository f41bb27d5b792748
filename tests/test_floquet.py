"""Bloch fibers, quadrature ground truth, band edges, exact jumps and the
moment cross-check."""

from fractions import Fraction
from math import gcd

import numpy as np
import pytest

from magspec.exhaustion import distinct_rows
from magspec.experiments import hofstadter_flux_list
from magspec.floquet import (
    CHAMBERS_NODES,
    CHAMBERS_ROUNDING,
    FIBER_CHUNK_ENTRIES,
    JUMP_PROBE_K,
    BandEdgeError,
    OracleUnavailableError,
    _distinct_fiber_eigs,
    _fiber_eigs,
    _fibers,
    band_edges,
    bloch_fiber,
    chambers_law,
    fiber_grid_eigs,
    flux_zero_law,
    grid_ids,
    ids_oracle,
    jump_oracle,
    magnetic_cell,
    merged_intervals,
    moment_crosscheck,
)
from magspec.lattice import (
    line_graph,
    periodic_graph,
    square_lattice,
    triangle_cells,
)
from magspec.operators import (
    harper_dml,
    harper_operator,
    hofstadter_weights,
    local_operator,
    uniform_weights,
    zero_operator,
)
from strategies import decorated_lattice, exact_ids_from_jumps, isolated_cells


def square_cell(alpha, operator="dml"):
    g = square_lattice()
    w = hofstadter_weights(g, alpha)
    H, D = harper_dml(g, w)
    op = D if operator == "dml" else H
    return magnetic_cell(g, op, alpha)


class TestMagneticCell:
    def test_flux_free_cell_is_scalar(self):
        cell = square_cell(Fraction(0))
        assert cell.q == 1 and cell.dim == 1

    def test_half_flux_cell(self):
        cell = square_cell(Fraction(1, 2))
        assert cell.q == 2 and cell.dim == 2

    def test_irrational_flux_rejected(self):
        g = square_lattice()
        w = hofstadter_weights(g, 0.5 * (np.sqrt(5) - 1))
        _, D = harper_dml(g, w)
        with pytest.raises(OracleUnavailableError):
            magnetic_cell(g, D, w.flux)

    def test_missing_flux_rejected(self):
        g = line_graph()
        _, D = harper_dml(g, uniform_weights(g))
        with pytest.raises(OracleUnavailableError):
            magnetic_cell(g, D, None)


class TestBlochFiber:
    def test_flux_free_symbol(self):
        # scalar symbol 4 - 2 cos k1 - 2 cos k2 of the lattice Laplacian
        cell = square_cell(Fraction(0))
        for k in ([0.3, 1.1], [2.0, 0.0], [np.pi, np.pi / 2]):
            H = bloch_fiber(cell, k)
            expected = 4.0 - 2.0 * np.cos(k[0]) - 2.0 * np.cos(k[1])
            assert H.shape == (1, 1)
            assert H[0, 0] == pytest.approx(expected, abs=1e-14)

    def test_half_flux_closed_form(self):
        # 2x2 fiber eigenvalues 4 -+ 2 sqrt(cos^2(k1/2) + cos^2 k2); the
        # first momentum is conjugate to the doubled cell, which rescales
        # k1 but leaves band sets and integrals unchanged
        cell = square_cell(Fraction(1, 2))
        rng = np.random.default_rng(0)
        for _ in range(25):
            k = rng.uniform(0, 2 * np.pi, size=2)
            evals = np.linalg.eigvalsh(bloch_fiber(cell, k))
            root = 2.0 * np.sqrt(np.cos(k[0] / 2) ** 2 + np.cos(k[1]) ** 2)
            assert evals == pytest.approx([4.0 - root, 4.0 + root], abs=1e-12)

    def test_fiber_hermitian_residual(self):
        cell = square_cell(Fraction(1, 3))
        rng = np.random.default_rng(1)
        for _ in range(20):
            H = bloch_fiber(cell, rng.uniform(0, 2 * np.pi, size=2))
            assert np.abs(H - H.conj().T).max() <= 1e-14

    def test_fiber_continuity(self):
        cell = square_cell(Fraction(1, 3))
        k = np.array([0.7, 1.9])
        e1 = np.linalg.eigvalsh(bloch_fiber(cell, k))
        e2 = np.linalg.eigvalsh(bloch_fiber(cell, k + 1e-7))
        assert np.abs(e1 - e2).max() < 1e-5


class TestIdsOracle:
    def test_flux_free_half_filling(self):
        cell = square_cell(Fraction(0))
        est = ids_oracle(cell, 4.0, N=128)
        assert est.value == pytest.approx(0.5, abs=5e-3)
        assert abs(est.coarse - est.fine) < est.error_bound

    def test_half_flux_half_filling_at_band_touching(self):
        # lambda = 4 is a band edge (the two bands touch), so the default
        # refuses it; with the override the symmetric value 1/2 is exact
        cell = square_cell(Fraction(1, 2))
        with pytest.raises(BandEdgeError):
            ids_oracle(cell, 4.0, N=64)
        est = ids_oracle(cell, 4.0, N=64, allow_band_edge=True)
        assert est.value == pytest.approx(0.5, abs=1e-12)

    def test_below_spectrum(self):
        cell = square_cell(Fraction(1, 3))
        assert ids_oracle(cell, -0.5, N=32).value == 0.0

    def test_above_spectrum_saturates_at_orbit_count(self):
        cell = square_cell(Fraction(1, 3))
        assert ids_oracle(cell, 9.0, N=32).value == 1.0

    def test_self_consistency_bound(self):
        cell = square_cell(Fraction(1, 3))
        for lam in (1.5, 2.6, 3.8, 4.9, 6.4):
            est = ids_oracle(cell, lam, N=64)
            assert abs(est.coarse - est.fine) < est.error_bound

    def test_monotone_in_lambda(self):
        cell = square_cell(Fraction(1, 3))
        values = [grid_ids(cell, lam, 64) for lam in np.linspace(-1, 9, 60)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_small_grid_rejected(self):
        cell = square_cell(Fraction(0))
        with pytest.raises(ValueError):
            ids_oracle(cell, 4.0, N=4)


class TestBandEdges:
    def test_flux_free_single_band(self):
        cell = square_cell(Fraction(0))
        bands = band_edges(cell, 64)
        assert len(bands) == 1
        assert bands[0].lo == pytest.approx(0.0, abs=1e-8)
        assert bands[0].hi == pytest.approx(8.0, abs=1e-8)

    def test_half_flux_edges(self):
        cell = square_cell(Fraction(1, 2))
        bands = band_edges(cell, 64)
        lo, hi = 4.0 - 2.0 * np.sqrt(2.0), 4.0 + 2.0 * np.sqrt(2.0)
        assert bands[0].lo == pytest.approx(lo, abs=1e-4)
        assert bands[-1].hi == pytest.approx(hi, abs=1e-4)
        merged = merged_intervals(bands)
        assert merged[0][0] >= lo - 1e-4 and merged[-1][1] <= hi + 1e-4

    def test_line_uniform_band(self):
        g = line_graph()
        _, D = harper_dml(g, uniform_weights(g))
        cell = magnetic_cell(g, D, Fraction(0))
        bands = band_edges(cell, 64)
        assert len(bands) == 1
        assert bands[0].lo == pytest.approx(0.0, abs=1e-8)
        assert bands[0].hi == pytest.approx(4.0, abs=1e-8)

    def test_third_flux_has_gaps(self):
        cell = square_cell(Fraction(1, 3))
        merged = merged_intervals(band_edges(cell, 64))
        assert len(merged) == 3


def reference_fibers(cell, kpts):
    """The fibers as one broadcast (len(kpts), dim, dim) product per hop."""
    H = np.zeros((kpts.shape[0], cell.dim, cell.dim), dtype=complex)
    for n, block in cell.hops.items():
        phase = kpts @ np.asarray(n, dtype=float)
        H += np.exp(1j * phase)[:, None, None] * block
    return H


def reference_mesh(axes):
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


def reference_band_edges(cell, N=64):
    """Band edges refined with one np.linspace grid per extremum and round,
    every grid point diagonalized, as band_edges did before points were
    deduplicated."""
    d, dim = cell.graph.dimension, cell.dim
    midpoints = (np.arange(N) + 0.5) * (2.0 * np.pi / N)
    kgrid = reference_mesh([midpoints] * d)
    eigs = np.linalg.eigvalsh(reference_fibers(cell, kgrid))
    rows = np.arange(2 * dim)
    band = rows % dim
    start = np.concatenate([eigs.argmin(axis=0), eigs.argmax(axis=0)])
    k = kgrid[start]
    h = np.pi / N
    for _ in range(14):
        grids = np.stack([reference_mesh([np.linspace(c - h, c + h, 5) for c in kr]) for kr in k])
        fibers = reference_fibers(cell, grids.reshape(-1, d))
        vals = np.linalg.eigvalsh(fibers).reshape(2 * dim, -1, dim)[rows, :, band]
        idx = np.where(rows < dim, vals.argmin(axis=1), vals.argmax(axis=1))
        k = grids[rows, idx]
        h *= 0.5
    best = vals[rows, idx]
    grid = eigs[start, band]
    bands = [
        (min(float(best[b]), float(grid[b])), max(float(best[dim + b]), float(grid[dim + b])))
        for b in range(dim)
    ]
    return np.array(sorted(bands))


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(
        np.asarray(a).view(np.int64), np.asarray(b).view(np.int64)
    )


def line_cell():
    g = line_graph()
    _, D = harper_dml(g, uniform_weights(g))
    return magnetic_cell(g, D, Fraction(0))


def decorated_cell():
    graph, _, dml = decorated_lattice(Fraction(1, 3))
    return magnetic_cell(graph, dml, Fraction(1, 3))


def triangle_cell():
    g = triangle_cells()
    _, D = harper_dml(g, uniform_weights(g))
    return magnetic_cell(g, D, Fraction(0))


def cubic_cell():
    g = periodic_graph(3, 1, [(0, 0, (1, 0, 0)), (0, 0, (0, 1, 0)), (0, 0, (0, 0, 1))])
    _, D = harper_dml(g, uniform_weights(g))
    return magnetic_cell(g, D, Fraction(0))


SQUARE_CASES = [
    (alpha, operator) for operator in ("dml", "harper") for alpha in hofstadter_flux_list(7)
]


class TestBandEdgeBitIdentity:
    """Deduplicated refinement and in-place fibers reproduce the linspace
    refinement and the broadcast fibers bit for bit."""

    def assert_identical(self, cell):
        d = cell.graph.dimension
        got = np.array([(b.lo, b.hi) for b in band_edges(cell, 64)])
        assert same_bits(got, reference_band_edges(cell, 64))
        rng = np.random.default_rng(5)
        kpts = np.concatenate([
            reference_mesh([(np.arange(8) + 0.5) * (np.pi / 4)] * d),
            rng.uniform(-np.pi, 3 * np.pi, size=(64, d)),
        ])
        assert same_bits(_fibers(cell, kpts), reference_fibers(cell, kpts))

    def test_line(self):
        self.assert_identical(line_cell())

    @pytest.mark.parametrize("alpha,operator", SQUARE_CASES)
    def test_square_lattice(self, alpha, operator):
        self.assert_identical(square_cell(alpha, operator))

    def test_decorated_lattice(self):
        cell = decorated_cell()
        assert cell.dim == 6
        self.assert_identical(cell)

    def test_cubic_lattice(self):
        self.assert_identical(cubic_cell())

    def test_signed_zero_momenta_are_not_merged(self):
        cell = square_cell(Fraction(1, 3))
        kpts = np.array([[0.0, 0.25], [-0.0, 0.25], [0.0, 0.25], [-0.0, 0.25]])
        before = cell.fibers_diagonalized
        eigs = _distinct_fiber_eigs(cell, kpts)
        assert cell.fibers_diagonalized - before == 2
        assert same_bits(eigs, np.linalg.eigvalsh(reference_fibers(cell, kpts)))

    def test_distinct_eigs_match_direct_calls(self):
        cell = square_cell(Fraction(2, 5))
        rng = np.random.default_rng(3)
        kpts = rng.uniform(0.0, 2 * np.pi, size=(6, 2))[rng.integers(0, 6, size=40)]
        assert same_bits(_distinct_fiber_eigs(cell, kpts), _fiber_eigs(cell, kpts))

    def test_chunk_boundaries_do_not_change_bits(self):
        # 7 x 7 fibers: two full chunks and a partial one, against one stack
        cell = square_cell(Fraction(2, 7))
        chunk = FIBER_CHUNK_ENTRIES // (cell.dim * cell.dim)
        kpts = np.random.default_rng(11).uniform(0.0, 2 * np.pi, size=(2 * chunk + 17, 2))
        assert same_bits(_fiber_eigs(cell, kpts), np.linalg.eigvalsh(_fibers(cell, kpts)))

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_distinct_rows_match_unique(self, d):
        # the lexsort grouping returns np.unique's rows and inverse, on
        # point sets with duplicates and both signed zeros
        rng = np.random.default_rng(d)
        values = np.array([0.0, -0.0, 0.25, -0.25, np.pi, 2 * np.pi, 1e-300])
        for size in (0, 1, 7, 60, 400):
            kpts = rng.choice(values, size=(size, d))
            keys = np.ascontiguousarray(kpts).view(np.int64)
            distinct, inverse = distinct_rows(keys)
            ref_distinct, ref_inverse = np.unique(keys, axis=0, return_inverse=True)
            assert np.array_equal(distinct, ref_distinct)
            assert np.array_equal(inverse, ref_inverse.reshape(-1))
            assert np.array_equal(distinct[inverse], keys)


class TestRefinementWork:
    """Fibers the refinement diagonalizes: distinct momenta per round, far
    fewer than one local grid per extremum (14 rounds x 2q rows x 25)."""

    @pytest.mark.parametrize("alpha,expected", [(Fraction(1, 3), 1400), (Fraction(2, 5), 1420)])
    def test_refine_fibers_pinned(self, alpha, expected):
        cell = square_cell(alpha)
        band_edges(cell, 64)
        assert cell.fibers_diagonalized - 64**2 == expected
        assert expected < 14 * 2 * cell.dim * 25

    def test_cached_edges_diagonalize_nothing(self):
        cell = square_cell(Fraction(1, 3))
        band_edges(cell, 64)
        before = cell.fibers_diagonalized
        band_edges(cell, 64)
        assert cell.fibers_diagonalized == before


BUTTERFLY_CASES = [
    (alpha, operator) for operator in ("dml", "harper") for alpha in hofstadter_flux_list(12)
]
REFINEMENT_ERROR = 1.3e-6  # largest gap of band_edges(cell, 64) to the exact edges, q <= 12


def edge_array(bands):
    return np.array([(b.lo, b.hi) for b in bands])


class TestHofstadterBandEdges:
    """Closed-form edges from the fibers at k = (0, 0) and (pi, pi/q),
    against the refined grid search and the fibers at random momenta, on
    every butterfly flux with q <= 12."""

    @pytest.mark.parametrize("alpha,operator", BUTTERFLY_CASES)
    def test_edges_enclose_the_refined_bands_and_every_fiber(self, alpha, operator):
        cell = square_cell(alpha, operator)
        exact = edge_array(chambers_law(cell).bands)
        assert cell.fibers_diagonalized == 4  # the check's four fibers give the edges too
        refined = edge_array(band_edges(cell, 64))
        assert exact.shape == refined.shape == (cell.q, 2)
        assert np.abs(exact - refined).max() <= REFINEMENT_ERROR
        assert np.all(exact[:, 0] <= refined[:, 0] + 1e-12)
        assert np.all(refined[:, 1] <= exact[:, 1] + 1e-12)
        kpts = np.random.default_rng(19).uniform(0.0, 2 * np.pi, size=(500, 2))
        eigs = _fiber_eigs(cell, kpts)  # column j: the j-th eigenvalue, in band j
        assert np.all(eigs >= exact[:, 0] - 1e-12)
        assert np.all(eigs <= exact[:, 1] + 1e-12)

    def test_flux_free_band(self):
        edges = edge_array(chambers_law(square_cell(Fraction(0))).bands)
        np.testing.assert_allclose(edges, [[0.0, 8.0]], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("make_cell", [line_cell, decorated_cell, cubic_cell],
                             ids=["line", "decorated", "cubic"])
    def test_non_square_cell_rejected(self, make_cell):
        cell = make_cell()
        with pytest.raises(OracleUnavailableError):
            chambers_law(cell)
        assert cell.fibers_diagonalized == 0


CHAMBERS_FLUXES = [Fraction(1, 3), Fraction(1, 2), Fraction(2, 7), Fraction(5, 12)]


def exact_ids(cell, lams):
    law = chambers_law(cell)
    return np.array([law.ids(lam).value for lam in lams])


def relation_breaking_cell():
    """The flux-1/3 Harper stencil plus a constant diagonal hop: periodic
    and Hermitian, but its fiber determinant no longer depends on k
    through 2 cos k1 + 2 cos(q k2) alone."""
    g = square_lattice()
    H = harper_operator(g, hofstadter_weights(g, Fraction(1, 3)))
    raw = [(0, e.target_orbit, e.offset, e.coeff) for e in H.entries[0]]
    op = local_operator(g, raw + [(0, 0, (1, 1), 0.3), (0, 0, (-1, -1), 0.3)])
    return magnetic_cell(g, op, Fraction(1, 3))


def zero_square_cell():
    """The zero operator at flux 1/3: every fiber is the same, so the
    relation holds only with c = 0."""
    g = square_lattice()
    return magnetic_cell(g, zero_operator(g), Fraction(1, 3))


class TestHofstadterIds:
    """The exact spectral density of the Landau-gauge square lattice from
    Chambers' relation, against the flux-0 law, the gap labels, the
    Harper-DML and particle-hole symmetries, and the midpoint grid."""

    def test_flux_free_half_filling(self):
        assert flux_zero_law(np.array([0.0]))[0] == pytest.approx(0.5, abs=1e-15)
        est = chambers_law(square_cell(Fraction(0), "harper")).ids(0.0)
        assert est.value == pytest.approx(0.5, abs=1e-14)
        assert 0 < est.error_bound < 1e-12

    @pytest.mark.parametrize("alpha,operator", BUTTERFLY_CASES)
    def test_gaps_hold_the_band_count_over_q(self, alpha, operator):
        cell = square_cell(alpha, operator)
        law = chambers_law(cell)
        edges = edge_array(law.bands)
        q = cell.q
        assert law.ids(edges[0, 0] - 0.5).value == 0.0
        assert law.ids(edges[-1, 1] + 0.5).value == 1.0
        for k in range(1, q):
            if edges[k, 0] - edges[k - 1, 1] > 1e-9:
                assert law.ids(0.5 * (edges[k - 1, 1] + edges[k, 0])).value == k / q

    @pytest.mark.parametrize("alpha", [Fraction(0)] + CHAMBERS_FLUXES + [Fraction(5, 7)])
    def test_dml_is_the_reflected_harper(self, alpha):
        lams = np.random.default_rng(41).uniform(-0.5, 8.5, 60)
        dml = exact_ids(square_cell(alpha, "dml"), lams)
        harper = exact_ids(square_cell(alpha, "harper"), 4.0 - lams)
        np.testing.assert_allclose(dml, 1.0 - harper, rtol=0, atol=1e-12)
        # the square lattice is bipartite: F(lam) + F(8 - lam) = 1 on the DML
        np.testing.assert_allclose(dml + exact_ids(square_cell(alpha, "dml"), 8.0 - lams), 1.0,
                                   rtol=0, atol=1e-12)

    @pytest.mark.parametrize("alpha", CHAMBERS_FLUXES)
    def test_nondecreasing_and_continuous_at_band_edges(self, alpha):
        cell = square_cell(alpha)
        edges = np.unique(edge_array(chambers_law(cell).bands))
        lams = np.sort(np.concatenate([
            np.linspace(-0.5, 8.5, 1501), edges, edges - 1e-9, edges + 1e-9,
        ]))
        values = exact_ids(cell, lams)
        assert np.all(np.diff(values) >= -1e-14)
        for e in edges:
            left, mid, right = exact_ids(cell, [e - 1e-9, e, e + 1e-9])
            assert abs(right - left) < 1e-6 and left - 1e-14 <= mid <= right + 1e-14

    @pytest.mark.parametrize("alpha", CHAMBERS_FLUXES)
    def test_agrees_with_the_midpoint_grid(self, alpha):
        cell = square_cell(alpha)
        lams = np.random.default_rng(7).uniform(-0.2, 8.2, 40)
        grid = np.array([grid_ids(cell, lam, 1024) for lam in lams])
        np.testing.assert_allclose(exact_ids(cell, lams), grid, rtol=0, atol=1e-4)

    def test_flux_zero_law_within_its_bound(self):
        near = 10.0 ** -np.arange(1, 16)
        t = np.concatenate([np.linspace(-4.0, 4.0, 2001), near, -near, 4 - near, 2 + near, 2 - near])
        fine = flux_zero_law(t, CHAMBERS_NODES)
        bound = np.abs(fine - flux_zero_law(t, CHAMBERS_NODES // 2)) + CHAMBERS_ROUNDING
        assert np.all(np.abs(fine - flux_zero_law(t, 256)) <= bound)
        assert bound.max() < 1e-9

    @pytest.mark.parametrize(
        "make_cell",
        [triangle_cell, decorated_cell, cubic_cell, relation_breaking_cell, zero_square_cell],
        ids=["triangle", "decorated", "cubic", "relation-breaking", "zero"],
    )
    def test_cells_outside_the_relation_rejected(self, make_cell):
        with pytest.raises(OracleUnavailableError):
            chambers_law(make_cell())


def off_relation_cell(alpha, stencil):
    """The Harper stencil at alpha with its (0, +-1) hops scaled by 0.7
    (``anisotropic``), or plus a 0.3 hop along (+-2, 0) (``long-hop``):
    periodic and Hermitian, but off Chambers' relation with s = 2 cos k1 +
    2 cos(q k2)."""
    g = square_lattice()
    H = harper_operator(g, hofstadter_weights(g, alpha))
    raw = [(0, e.target_orbit, e.offset, e.coeff) for e in H.entries[0]]
    if stencil == "anisotropic":
        raw = [(a, b, off, (lambda s, f=f: 0.7 * f(s)) if off[0] == 0 else f) for a, b, off, f in raw]
    else:
        raw += [(0, 0, (2, 0), 0.3), (0, 0, (-2, 0), 0.3)]
    return magnetic_cell(g, local_operator(g, raw), alpha)


class TestChambersCheck:
    """The relation check that decides where the exact oracle and the
    closed-form edges apply."""

    @pytest.mark.parametrize("stencil", ["anisotropic", "long-hop"])
    @pytest.mark.parametrize(
        "alpha", [Fraction(0), Fraction(1, 3), Fraction(2, 7), Fraction(1, 12), Fraction(5, 12)]
    )
    def test_off_relation_stencils_refused(self, alpha, stencil):
        with pytest.raises(OracleUnavailableError, match="break Chambers' relation"):
            chambers_law(off_relation_cell(alpha, stencil))

    def test_two_fiber_edges_are_wrong_off_the_relation(self):
        # why the edges need the check: off the relation the band extrema
        # leave k = (0, 0) and (pi, pi/q)
        cell = off_relation_cell(Fraction(1, 3), "long-hop")
        two = _fiber_eigs(cell, np.array([[0.0, 0.0], [np.pi, np.pi / 3]]))
        two_fiber = np.array(sorted(zip(two.min(axis=0), two.max(axis=0))))
        assert np.abs(two_fiber - edge_array(band_edges(cell, 64))).max() > 0.1

    @pytest.mark.parametrize("q", range(1, 37))
    def test_square_lattice_accepted_up_to_q_36(self, q):
        # the DML spectrum is centred at 4: about 0 its characteristic
        # coefficients grow like 4^q, and the check would refuse it from
        # q = 15 on; it takes them about the mean eigenvalue instead
        for p in range(q):
            if gcd(p, q) == 1:
                for operator in ("dml", "harper"):
                    law = chambers_law(square_cell(Fraction(p, q), operator))
                    check = law.check
                    assert check["residual"] <= check["tol"] and abs(check["c"]) > check["c_tol"]
                    assert abs(check["c"]) == pytest.approx(1.0, abs=1e-4)


KAGOME = [(0, 1, (0, 0)), (0, 2, (0, 0)), (1, 2, (0, 0)), (0, 1, (-1, 0)), (0, 2, (0, -1)), (1, 2, (1, -1))]
LIEB = [(0, 1, (0, 0)), (1, 0, (1, 0)), (0, 2, (0, 0)), (2, 0, (0, 1))]


def uniform_dml_cell(templates):
    g = periodic_graph(2, 3, templates)
    _, D = harper_dml(g, uniform_weights(g))
    return magnetic_cell(g, D, Fraction(0))


def pairs(jumps):
    return [(j.lam, j.dimension) for j in jumps]


class TestJumpOracle:
    def test_triangle_exact_jumps(self):
        jumps = jump_oracle(triangle_cell())
        assert [j.lam for j in jumps] == pytest.approx([0.0, 3.0], abs=1e-12)
        assert [j.dimension for j in jumps] == [Fraction(1), Fraction(2)]
        assert [j.multiplicities for j in jumps] == [(1, 1, 1), (2, 2, 2)]
        assert all(j.spread <= 1e-12 for j in jumps)

    def test_triangle_values_are_the_first_fibers(self):
        # lambda is the cluster mean at the first probe momentum, bit for bit
        cell = triangle_cell()
        first = _fiber_eigs(cell, np.array(JUMP_PROBE_K)[:, :1])[0]
        assert [j.lam for j in jump_oracle(cell)] == [float(np.mean(first[:1])), float(np.mean(first[1:]))]

    def test_isolated_vertices_zero_operator(self):
        g = isolated_cells(1, 1)
        assert pairs(jump_oracle(magnetic_cell(g, zero_operator(g), Fraction(0)))) == [
            (0.0, Fraction(1))
        ]

    def test_zero_operator_on_the_connected_line(self):
        # the line has inter-cell edges, but the zero operator's fibers
        # are constant: one flat band at 0
        g = line_graph()
        assert pairs(jump_oracle(magnetic_cell(g, zero_operator(g), Fraction(0)))) == [
            (0.0, Fraction(1))
        ]

    def test_multiplicity_is_divided_by_q(self):
        # on the cell of flux 1/3 the zero operator's fiber is 3 x 3: a
        # threefold eigenvalue at every momentum, a jump of 3/3
        g = square_lattice()
        jumps = jump_oracle(magnetic_cell(g, zero_operator(g), Fraction(1, 3)))
        assert pairs(jumps) == [(0.0, Fraction(1))]
        assert jumps[0].multiplicities == (3, 3, 3)

    @pytest.mark.parametrize("templates, lam", [(KAGOME, 6.0), (LIEB, 2.0)], ids=["kagome", "lieb"])
    def test_one_flat_band_among_dispersive_ones(self, templates, lam):
        jumps = jump_oracle(uniform_dml_cell(templates))
        assert [j.dimension for j in jumps] == [Fraction(1)]
        assert jumps[0].lam == pytest.approx(lam, abs=1e-12)
        assert jumps[0].multiplicities == (1, 1, 1)

    def test_dispersive_model_rejected(self):
        with pytest.raises(OracleUnavailableError):
            jump_oracle(square_cell(Fraction(1, 2)))

    def test_flux_free_dispersive_model_rejected(self):
        with pytest.raises(OracleUnavailableError):
            jump_oracle(square_cell(Fraction(0)))

    def test_exact_ids_from_jumps(self):
        jumps = [(0.0, Fraction(1)), (3.0, Fraction(2))]
        assert exact_ids_from_jumps(jumps, -0.1) == 0.0
        assert exact_ids_from_jumps(jumps, 0.0) == 1.0
        assert exact_ids_from_jumps(jumps, 2.9) == 1.0
        assert exact_ids_from_jumps(jumps, 3.0) == 3.0


class TestMomentCrosscheck:
    def test_power_zero_is_orbit_count(self):
        g = triangle_cells()
        _, D = harper_dml(g, uniform_weights(g))
        cell = magnetic_cell(g, D, Fraction(0))
        assert moment_crosscheck(D, cell, 0, N=16) == 0.0

    def test_line_first_moment(self):
        g = line_graph()
        _, D = harper_dml(g, uniform_weights(g))
        cell = magnetic_cell(g, D, Fraction(0))
        assert moment_crosscheck(D, cell, 1, N=32) <= 1e-12

    def test_half_flux_fourth_moment_two_channels(self):
        # walk enumeration vs fiber quadrature, two independent routes to
        # tr(H^4) = 20 at half flux
        g = square_lattice()
        w = hofstadter_weights(g, Fraction(1, 2))
        H, _ = harper_dml(g, w)
        cell = magnetic_cell(g, H, Fraction(1, 2))
        flat = fiber_grid_eigs(cell, 128)
        fiber_moment = float((flat**4).sum() / (cell.q * 128**2))
        assert fiber_moment == pytest.approx(20.0, abs=1e-8)
        assert moment_crosscheck(H, cell, 4, N=128) <= 1e-8

    @pytest.mark.parametrize("alpha", [Fraction(0), Fraction(1, 2), Fraction(1, 3)])
    def test_dml_moments_tight(self, alpha):
        cell = square_cell(alpha)
        op = cell.op
        assert moment_crosscheck(op, cell, 8, N=128) < 1e-6
