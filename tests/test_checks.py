"""The named check suite itself: green on healthy models, loud and
precisely named on injected faults."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from magspec.checks import (
    ModelUnderTest,
    check_boundary_collar,
    check_dim_properties,
    check_dirichlet_neumann,
    check_folner_ratio,
    check_inertia_oracle,
    check_interior_radius,
    check_kernel_inclusion_and_rank,
    check_sigma_conjugation,
    check_translation_invariance,
    model_suite,
    oracle_points,
    random_stencil_window,
)
from magspec.exhaustion import interior_vertices
from magspec.lattice import square_lattice, triangle_cells
from magspec.operators import (
    harper_dml,
    hofstadter_weights,
    uniform_weights,
    with_conjugation_defect,
)
from magspec.spectra import WindowMatrix, spectral_density


def healthy_model(label="sq-third"):
    g = square_lattice()
    w = hofstadter_weights(g, Fraction(1, 3))
    _, D = harper_dml(g, w)
    return ModelUnderTest(label, g, w, D, window_sizes=(3, 4))


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
        m = ModelUnderTest("tri", g, w, D, window_sizes=(2, 3))
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

    def test_cocycles_solved_once_per_model(self, monkeypatch):
        import magspec.checks as checks

        solves = []
        solve = checks.validate_weights

        def counting(graph, weights, radius):
            solves.append(radius)
            return solve(graph, weights, radius)

        monkeypatch.setattr(checks, "validate_weights", counting)
        g = triangle_cells()
        w = uniform_weights(g)
        tri = ModelUnderTest("tri", g, w, harper_dml(g, w)[1], window_sizes=(2,))
        models = [healthy_model(), tri]
        for m in models:
            results = model_suite(m, np.random.default_rng(0))
            assert all(r.passed for r in results if r.name in ("cocycle-residual", "commutator-residual"))
        assert solves == [checks.COCYCLE_RADIUS + m.operator.propagation for m in models]


def triangle_model():
    g = triangle_cells()
    w = uniform_weights(g)
    return ModelUnderTest("tri", g, w, harper_dml(g, w)[1], window_sizes=(2, 3))


@pytest.mark.parametrize("model", [healthy_model, triangle_model])
def test_checks_read_window_spectra_from_spectral_density(model, monkeypatch):
    # every window spectrum a check reads comes from spectral_density:
    # window-norm-bound reads one, gauge and translation invariance two
    # each, and per window size Dirichlet-Neumann order two and kernel
    # inclusion one; eigvalsh is called only by the solvers in spectra
    # and the fiber stacks in floquet
    import magspec.checks as checks

    m = model()
    windows, callers = [], []
    solve, eigvalsh = checks.spectral_density, np.linalg.eigvalsh

    def counting(A, win):
        windows.append(len(win))
        return solve(A, win)

    def recording(*args, **kwargs):
        callers.append(sys._getframe(1).f_globals["__name__"])
        return eigvalsh(*args, **kwargs)

    monkeypatch.setattr(checks, "spectral_density", counting)
    monkeypatch.setattr(np.linalg, "eigvalsh", recording)
    results = model_suite(m, np.random.default_rng(0))
    assert all(r.passed for r in results), [r.name for r in results if not r.passed]
    assert len(windows) == 5 + 3 * len(m.window_sizes)
    assert callers and set(callers) <= {"magspec.spectra", "magspec.floquet"}, set(callers)


def neumann_with(monkeypatch, delta, place):
    """Make checks.neumann_matrix add delta to every window's Neumann
    matrix at one place: "off-diagonal" adds it at (0, 1) and its
    conjugate at (1, 0), "interior" on the diagonal of the first interior
    row."""
    import magspec.checks as checks

    neumann = checks.neumann_matrix

    def perturbed(graph, weights, win):
        N = neumann(graph, weights, win)
        if place == "off-diagonal":
            rows, cols, vals = [0, 1], [1, 0], [delta, np.conj(delta)]
        else:
            row = int(interior_vertices(graph, win, 1).interior_positions[0])
            rows, cols, vals = [row], [row], [delta]
        return WindowMatrix.from_triplets(
            np.concatenate([N.rows, rows]), np.concatenate([N.cols, cols]),
            np.concatenate([N.vals, vals]), N.dim,
        )

    monkeypatch.setattr(checks, "neumann_matrix", perturbed)


class TestDirichletNeumannOrder:
    """Each way D - N can leave the nonnegative boundary diagonal fails
    the check with its own detail and the size of the defect as metric."""

    def test_off_diagonal_difference(self, monkeypatch):
        neumann_with(monkeypatch, 1e-6j, "off-diagonal")
        res = check_dirichlet_neumann(healthy_model())
        assert (res.name, res.passed) == ("dirichlet-neumann-order", False)
        assert res.detail == "Dirichlet minus Neumann is not a nonnegative diagonal"
        assert res.metric == pytest.approx(1e-6)

    def test_negative_diagonal_difference(self, monkeypatch):
        # N raised above D on an interior row: D - N is negative there
        neumann_with(monkeypatch, 1e-6, "interior")
        res = check_dirichlet_neumann(healthy_model())
        assert not res.passed
        assert res.detail == "Dirichlet minus Neumann is not a nonnegative diagonal"
        assert res.metric == pytest.approx(1e-6)

    def test_lowering_on_an_interior_row(self, monkeypatch):
        # N lowered below D on an interior row: a nonnegative diagonal, but
        # off the boundary collar
        neumann_with(monkeypatch, -1e-6, "interior")
        res = check_dirichlet_neumann(healthy_model())
        assert not res.passed
        assert res.detail == "Dirichlet/Neumann difference not supported on the boundary"
        assert res.metric == pytest.approx(1e-6)


class TestRaisingCheck:
    """A per-model check whose body raises fails every name it declares,
    with the model label and the exception as detail."""

    def test_two_names_fail_together(self):
        m = healthy_model("no-window")
        m.window_sizes = (0,)
        results = check_kernel_inclusion_and_rank(m)
        assert [r.name for r in results] == ["kernel-inclusion", "rank-nullity"]
        for r in results:
            assert not r.passed and np.isnan(r.metric)
            assert r.model == "no-window"
            assert r.detail == "ValueError: box index must be >= 1"

    def test_one_name_fails(self):
        m = healthy_model("no-window")
        m.window_sizes = (0,)
        res = check_translation_invariance(m)
        assert (res.name, res.passed, res.model) == ("translation-invariance", False, "no-window")
        assert np.isnan(res.metric)
        assert res.detail == "ValueError: box index must be >= 1"


class TestGlobalChecks:
    def test_inertia_oracle_small_run(self):
        res = check_inertia_oracle(np.random.default_rng(42), instances=15)
        assert res.passed, res.detail

    def test_inertia_oracle_diagnostics(self):
        res = check_inertia_oracle(np.random.default_rng(5), instances=12)
        diag = res.diagnostics
        assert set(diag["solvers"]) == {"blocks", "banded", "banded-real", "dense"}
        assert sum(diag["solvers"].values()) == 12
        assert diag["points_tested"] + diag["points_excluded"] == 4 * 12
        assert res.detail.startswith(f"{diag['points_tested']} counting points")
        assert 0 < diag["max_dim"] <= 400
        assert all(count == 1 for count in diag["blas_threads"].values())
        assert "diagnostics" not in res.as_dict()

    def test_random_stencil_windows_are_hermitian(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            _, _, A = random_stencil_window(rng, max_dim=120)
            M = A.dense()
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


SRC = str(Path(__file__).resolve().parent.parent / "src")


class TestProcessPin:
    """Once magspec is imported, every loaded OpenBLAS (numpy's and
    scipy's) runs on one thread, whatever was imported first and whatever
    OPENBLAS_NUM_THREADS says; each case in a fresh interpreter, since
    OpenBLAS reads the variable when it loads."""

    @staticmethod
    def counts_after_import(first: str, variable=None) -> tuple[dict, str]:
        script = (
            f"import json, os, sys; sys.path.insert(0, {SRC!r}); {first}"
            "import magspec; from magspec.spectra import blas_thread_counts; "
            "print(json.dumps([blas_thread_counts(), os.environ['OPENBLAS_NUM_THREADS']]))"
        )
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        if variable is not None:
            env["OPENBLAS_NUM_THREADS"] = variable
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        counts, setting = json.loads(proc.stdout)
        if not counts:
            pytest.skip("no OpenBLAS thread control found in this process")
        return counts, setting

    def test_magspec_imported_first(self):
        counts, setting = self.counts_after_import("")
        assert set(counts.values()) == {1}, counts
        assert setting == "1"

    def test_numpy_and_scipy_imported_first(self):
        counts, _ = self.counts_after_import("import numpy, scipy.linalg; ")
        assert set(counts.values()) == {1}, counts

    def test_user_set_variable(self):
        counts, setting = self.counts_after_import("", variable="4")
        assert set(counts.values()) == {1}, counts
        assert setting == "4"  # read, not overwritten


@pytest.mark.parametrize("seed", [1, 5, 42])
def test_window_spectrum_reference_matches_heevd(seed):
    # the oracle's reference (the eigh backend's per-block, banded or dense
    # spectrum) excludes and counts exactly as dense heevd at every point
    # the oracle draws
    rng = np.random.default_rng(seed)
    solvers = set()
    for _ in range(60):
        _, win, A = random_stencil_window(rng, max_dim=400)
        spec = spectral_density(A, win)
        solvers.add(spec.solver)
        evals = spec.eigenvalues
        dense = np.sort(scipy.linalg.eigvalsh(A.dense(), driver="evd", check_finite=False))
        norm = max(A.norm_bound, 1e-12)
        for lam in oracle_points(rng, evals, norm):
            excluded = np.abs(evals - lam).min() <= 1e-9 * norm
            assert excluded == (np.abs(dense - lam).min() <= 1e-9 * norm)
            if not excluded:
                assert np.count_nonzero(evals <= lam) == np.count_nonzero(dense <= lam)
    assert "blocks" in solvers and "dense" in solvers
