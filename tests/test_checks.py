"""The named check suite itself: green on healthy models, loud and
precisely named on injected faults."""

from fractions import Fraction

import numpy as np
import pytest

from magspec.checks import (
    ModelUnderTest,
    check_boundary_collar,
    check_dim_properties,
    check_folner_ratio,
    check_inertia_oracle,
    check_interior_radius,
    check_sigma_conjugation,
    model_suite,
    random_stencil_window,
)
from magspec.lattice import square_lattice, triangle_cells
from magspec.operators import (
    harper_dml,
    hofstadter_weights,
    uniform_weights,
    with_conjugation_defect,
)


def healthy_model(label="sq-third"):
    g = square_lattice()
    w = hofstadter_weights(g, Fraction(1, 3))
    _, D = harper_dml(g, w)
    return ModelUnderTest(label, g, w, D, flux=w.flux, window_sizes=(3, 4))


class TestModelSuite:
    def test_healthy_square_model_all_pass(self):
        rng = np.random.default_rng(0)
        results = model_suite(healthy_model(), rng)
        failed = [r.name for r in results if not r.passed]
        assert not failed, failed

    def test_healthy_triangle_model_all_pass(self):
        g = triangle_cells()
        w = uniform_weights(g)
        _, D = harper_dml(g, w)
        m = ModelUnderTest("tri", g, w, D, flux=w.flux, window_sizes=(2, 3))
        results = model_suite(m, np.random.default_rng(1))
        failed = [r.name for r in results if not r.passed]
        assert not failed, failed

    def test_conjugation_defect_flagged_by_name(self):
        g = square_lattice()
        w = with_conjugation_defect(hofstadter_weights(g, Fraction(1, 3)), 0.2)
        _, D = harper_dml(g, hofstadter_weights(g, Fraction(1, 3)))
        m = ModelUnderTest("bad", g, w, D, window_sizes=(3,))
        res = check_sigma_conjugation(m)
        assert not res.passed and res.name == "sigma-conjugation"

    def test_interior_radius_fault(self):
        m = healthy_model()
        m.interior_radius = 0
        res = check_interior_radius(m)
        assert not res.passed


class TestGlobalChecks:
    def test_inertia_oracle_small_run(self):
        res = check_inertia_oracle(np.random.default_rng(42), instances=15)
        assert res.passed, res.detail

    def test_inertia_oracle_stays_on_scipy_lapack(self, monkeypatch):
        # numpy and scipy each load their own OpenBLAS; alternating the two
        # in this loop makes one thread pool spin while the other works
        # (about 3x slower on two cores), so the loop makes no numpy
        # LAPACK call
        def forbidden(*args, **kwargs):
            raise AssertionError("numpy LAPACK call inside the inertia oracle loop")

        for name in ("eigvalsh", "eigh", "eigvals", "eig", "svd", "solve", "inv", "qr", "cholesky"):
            monkeypatch.setattr(np.linalg, name, forbidden)
        res = check_inertia_oracle(np.random.default_rng(5), instances=5)
        assert res.passed, res.detail
        assert int(res.detail.split()[0]) > 0  # some counting points were tested

    def test_random_stencil_windows_are_hermitian(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            _, _, M = random_stencil_window(rng, max_dim=120)
            assert M.shape[0] <= 120
            assert np.abs(M - M.conj().T).max() < 1e-12

    def test_folner_ratio_bound(self):
        res = check_folner_ratio(max_m=16)
        assert res.passed, res.detail

    def test_boundary_collar_bound(self):
        res = check_boundary_collar()
        assert res.passed, res.detail

    def test_dim_properties(self):
        results = check_dim_properties(np.random.default_rng(9))
        assert all(r.passed for r in results), [r.detail for r in results]
