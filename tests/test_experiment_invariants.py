"""Driver-level invariants: band-edge flagging, oracle availability,
error-column monotonicity across window sizes, and agreement of the
exact-jump rule with the flat bands of a fiber grid."""

from fractions import Fraction

import numpy as np
import pytest

from magspec.config import ConfigError, parse_config
from magspec.experiments import run_converge, select_probe_lambdas
from magspec.exhaustion import folner_box, window_subgraph
from magspec.floquet import (
    band_edges,
    fiber_grid_eigs,
    ids_oracle,
    jump_oracle,
    magnetic_cell,
)
from magspec.lattice import line_graph, square_lattice, triangle_cells
from magspec.operators import harper_dml, hofstadter_weights, uniform_weights, zero_operator
from magspec.spectra import dirichlet_matrix, neumann_matrix, spectral_density

SQUARE_GRAPH = "graph: {dimension: 2, orbits: 1, templates: [[0, 0, [1, 0]], [0, 0, [0, 1]]]}"


# nearest-neighbour hops plus a 0.3 hop along (+-2, 0): one band
# [-103/30, 4.6] at flux 0, off Chambers' relation, so converge takes the
# grid oracle
LONG_HOP_STENCIL = (
    "operator: custom\n"
    "custom_stencil: [[0, 0, [1, 0], 1.0], [0, 0, [-1, 0], 1.0], [0, 0, [0, 1], 1.0], "
    "[0, 0, [0, -1], 1.0], [0, 0, [2, 0], 0.3], [0, 0, [-2, 0], 0.3]]"
)


class TestBandEdgeHandling:
    def test_band_edge_lambda_flagged_not_failed(self):
        # lambda = 4.6 is the top band edge: on the grid oracle's path the
        # row must appear with empty oracle columns instead of aborting the
        # run
        text = f"""
label: edgecase
{SQUARE_GRAPH}
{LONG_HOP_STENCIL}
windows: [4, 8]
lambdas: {{kind: explicit, values: [4.6]}}
oracle: {{grid_n: 32}}
"""
        rows, info = run_converge(parse_config(text))
        assert {o["method"] for o in info["oracle"]} == {"grid"}
        assert len(rows) == 2
        for r in rows:
            assert r.f_oracle is None and r.abs_err is None
            assert r.f_m is not None

    def test_band_edge_override_computes_value(self):
        # on the grid oracle's path, as above: every midpoint-grid
        # eigenvalue lies below the top edge, so F = 1 there
        text = f"""
label: edgecase
{SQUARE_GRAPH}
{LONG_HOP_STENCIL}
windows: [4]
lambdas: {{kind: explicit, values: [4.6]}}
oracle: {{grid_n: 32, allow_band_edge: true}}
"""
        rows, info = run_converge(parse_config(text))
        assert {o["method"] for o in info["oracle"]} == {"grid"}
        assert rows[0].f_oracle == 1.0

    def test_irrational_flux_with_comparison_is_config_error(self):
        text = f"""
label: golden
{SQUARE_GRAPH}
weights: {{kind: hofstadter, flux: 0.6180339887498949}}
operator: dml
windows: [4]
lambdas: {{kind: explicit, values: [4.0]}}
"""
        with pytest.raises(ConfigError):
            run_converge(parse_config(text))

    def test_irrational_flux_without_comparison_runs(self):
        text = f"""
label: golden
{SQUARE_GRAPH}
weights: {{kind: hofstadter, flux: 0.6180339887498949}}
operator: dml
windows: [4, 8]
lambdas: {{kind: explicit, values: [2.0, 4.0]}}
oracle: {{compare: false}}
"""
        rows, _ = run_converge(parse_config(text))
        assert all(r.f_oracle is None for r in rows)
        assert all(0.0 <= r.f_m <= 1.0 for r in rows)


class TestErrorColumnMonotonicity:
    @pytest.mark.parametrize("alpha", [Fraction(1, 2), Fraction(1, 3)])
    def test_nonincreasing_over_10_20_40(self, alpha):
        # On Neumann windows the error column is monotone by a theorem.
        # The box of side 2m is the disjoint union of 2^d translates of the
        # box of side m.  Dropping the edges between the translates lowers
        # the form sum_e |f(t) - sigma(e) f(o)|^2, and magnetic translations
        # make each translate's induced Laplacian gauge-equivalent to the
        # base box's.  By min-max, N_2m(lam) <= 2^d N_m(lam) for every lam,
        # so F^N_m is nonincreasing along the doubling chain 10, 20, 40;
        # with F^N_m -> F this gives F <= F^N_m.  With the oracle within its
        # error bound of F, F^N_m stays above oracle - bound and the error
        # column rises by at most twice that bound.  Dirichlet windows
        # have no such inequality, and their error column does rise at
        # some of these points.
        g = square_lattice()
        w = hofstadter_weights(g, alpha)
        _, dml = harper_dml(g, w)
        cell = magnetic_cell(g, dml, alpha)
        probes = select_probe_lambdas(band_edges(cell), 9, 0.1)
        sides = (10, 20, 40)
        spectra = {}
        for m in sides:
            win = window_subgraph(g, folner_box(2, m))
            spectra[m] = spectral_density(neumann_matrix(g, w, win), win)
        for lam in probes:
            est = ids_oracle(cell, lam, 256)
            counts = [spectra[m].count_leq(lam) for m in sides]
            assert counts[1] <= 4 * counts[0] and counts[2] <= 4 * counts[1], (lam, counts)
            f_m = [spectra[m].ids(lam) for m in sides]
            assert all(f >= est.value - est.error_bound for f in f_m), (lam, f_m, est)
            errs = [abs(f - est.value) for f in f_m]
            rises = [b - a for a, b in zip(errs, errs[1:])]
            assert all(r <= 2 * est.error_bound for r in rises), (lam, errs, est)

    def test_half_flux_midband_example(self):
        # |F_m(4) - 1/2| over m = 10, 20, 40 at half flux: nonincreasing
        # within the same slack
        g = square_lattice()
        w = hofstadter_weights(g, Fraction(1, 2))
        _, dml = harper_dml(g, w)
        cell = magnetic_cell(g, dml, Fraction(1, 2))
        truth = ids_oracle(cell, 4.0, 128, allow_band_edge=True).value
        assert truth == pytest.approx(0.5, abs=1e-12)
        errs = []
        for m in (10, 20, 40):
            win = window_subgraph(g, folner_box(2, m))
            spec = spectral_density(dirichlet_matrix(dml, win), win)
            errs.append(abs(spec.ids(4.0) - 0.5))
        rises = [b - a for a, b in zip(errs, errs[1:]) if b > a]
        assert len(rises) <= 1 and all(r < 1e-3 for r in rises), errs


def flat_band_reading(cell, N=16):
    """(lambda, D) from the N^d fiber grid of a model whose fibers are all
    constant: each distinct fiber value, with its multiplicity over q."""
    eigs = fiber_grid_eigs(cell, N)
    assert float((eigs.max(axis=0) - eigs.min(axis=0)).max()) < 1e-10
    values = np.sort(eigs.mean(axis=0))
    clusters = np.split(values, np.flatnonzero(np.diff(values) > 1e-9) + 1)
    return [(float(c.mean()), Fraction(len(c), cell.q)) for c in clusters]


class TestJumpRouteAgreement:
    @pytest.mark.parametrize("model", ["triangle-cells", "line-zero"])
    def test_rule_matches_the_flat_band_grid(self, model):
        # the three generic momenta give the jumps that a 16^d grid of
        # fibers shows on models whose bands are all flat
        if model == "triangle-cells":
            g = triangle_cells()
            _, op = harper_dml(g, uniform_weights(g))
        else:
            g = line_graph()
            op = zero_operator(g)
        cell = magnetic_cell(g, op, Fraction(0))
        jumps = jump_oracle(cell)
        grid = flat_band_reading(cell)
        assert [j.dimension for j in jumps] == [d for _, d in grid]
        assert [j.lam for j in jumps] == pytest.approx([lam for lam, _ in grid], abs=1e-12)
