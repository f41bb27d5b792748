"""End-to-end integration on a model outside the shipped set: a two-orbit
decorated square lattice with rational flux in Landau gauge.  Exercises
multi-orbit windows, orbit-mixing magnetic cells (fiber dimension
q * #orbits) and the full cross-check chain."""

from fractions import Fraction

import numpy as np
import pytest

from magspec.exhaustion import folner_box, interior_vertices, window_subgraph
from magspec.floquet import band_edges, ids_oracle, magnetic_cell, moment_crosscheck
from magspec.operators import translation_commutator, validate_weights
from magspec.spectra import (
    assemble_dirichlet,
    assemble_neumann,
    dirichlet_matrix,
    interior_restriction,
    rect_kernel_dim,
    spectral_density,
)
from strategies import decorated_lattice

ALPHA = Fraction(1, 3)


@pytest.fixture(scope="module")
def model():
    return decorated_lattice(ALPHA)


def test_weights_are_weakly_invariant(model):
    graph, weights, dml = model
    cocycles = validate_weights(graph, weights, 5)
    assert len(cocycles) == 4
    window = cocycles[(1, 0)].window
    tests = np.zeros((2, len(window)), dtype=complex)
    tests[[0, 1], window.positions(np.array([0, 1]), np.zeros((2, 2), dtype=int))] = [1.0, 1.0 + 0.5j]
    worst = max(
        translation_commutator(dml, c, tests) for c in cocycles.values()
    )
    assert worst <= 1e-12 * dml.norm_bound


def test_moment_identity_on_six_band_cell(model):
    graph, weights, dml = model
    cell = magnetic_cell(graph, dml, ALPHA)
    assert cell.dim == 6  # q * #orbits
    assert moment_crosscheck(dml, cell, 8, 128) < 1e-6


def test_window_ids_tracks_oracle(model):
    graph, weights, dml = model
    cell = magnetic_cell(graph, dml, ALPHA)
    bands = band_edges(cell, 64)
    assert len(bands) == 6
    win = window_subgraph(graph, folner_box(2, 16))
    spec = spectral_density(dirichlet_matrix(dml, win), win)
    # one in-gap point (exact plateau at 1/3) and one in-band point
    gap_est = ids_oracle(cell, 2.0, 128)
    assert gap_est.value == pytest.approx(1.0 / 3.0, abs=1e-9)
    assert abs(spec.ids(2.0) - gap_est.value) < 0.02
    band_est = ids_oracle(cell, 3.5, 128)
    assert abs(spec.ids(3.5) - band_est.value) < 0.05
    assert spec.ids(10.0) == pytest.approx(2.0)  # saturates at #orbits


def test_neumann_dominates_and_interiors_inject(model):
    graph, weights, dml = model
    win = window_subgraph(graph, folner_box(2, 8))
    ed = np.sort(np.linalg.eigvalsh(assemble_dirichlet(dml, win)))
    en = np.sort(np.linalg.eigvalsh(assemble_neumann(graph, weights, win)))
    assert (en <= ed + 1e-12).all()
    split = interior_vertices(graph, win, dml.propagation)
    assert 0 < split.interior_positions.size < len(win)
    R = interior_restriction(dml, win, split, 2.0)  # spectral-gap shift
    assert rect_kernel_dim(R, 1e-8) == 0
