"""The named check suite itself: green on healthy models, loud and
precisely named on injected faults."""

from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg

from magspec.checks import (
    ModelUnderTest,
    check_boundary_collar,
    check_dim_properties,
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
from magspec.lattice import square_lattice, triangle_cells
from magspec.operators import (
    harper_dml,
    hofstadter_weights,
    uniform_weights,
    with_conjugation_defect,
)
from magspec.spectra import (
    _openblas_controls,
    blas_thread_counts,
    gershgorin_bound,
    one_blas_thread,
    spectral_density,
)


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
        assert set(diag["solvers"]) == {"blocks", "banded", "dense"}
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


class TestOneBlasThread:
    """The inertia oracle's loop runs with every loaded OpenBLAS (numpy's
    and scipy's) on one thread, and only that loop."""

    @pytest.fixture
    def two_threads(self):
        # start from a known count above one, and give back what was there
        controls = _openblas_controls()
        if not controls:
            pytest.skip("no OpenBLAS thread control found in this process")
        before = [(set_, get()) for _, get, set_ in controls]
        for set_, _ in before:
            set_(2)
        yield
        for set_, count in before:
            set_(count)

    def test_every_openblas_reports_one_thread_inside(self, two_threads):
        with one_blas_thread():
            counts = blas_thread_counts()
        assert counts and all(c == 1 for c in counts.values()), counts

    def test_counts_restored_on_exit(self, two_threads):
        before = blas_thread_counts()
        assert set(before.values()) == {2}
        with one_blas_thread():
            pass
        assert blas_thread_counts() == before

    def test_counts_restored_after_exception(self, two_threads):
        before = blas_thread_counts()
        with pytest.raises(KeyError):
            with one_blas_thread():
                raise KeyError("body failed")
        assert blas_thread_counts() == before

    def test_oracle_factors_on_one_thread(self, two_threads, monkeypatch):
        import magspec.checks as checks

        seen = []
        factor = checks.inertia_count_leq

        def recording(M, lam):
            seen.append(blas_thread_counts())
            return factor(M, lam)

        monkeypatch.setattr(checks, "inertia_count_leq", recording)
        before = blas_thread_counts()
        res = check_inertia_oracle(np.random.default_rng(5), instances=5)
        assert res.passed, res.detail
        assert len(seen) == res.diagnostics["points_tested"] > 0
        assert all(set(counts.values()) == {1} for counts in seen), seen
        assert blas_thread_counts() == before


@pytest.mark.parametrize("seed", [1, 5, 42])
def test_window_spectrum_reference_matches_heevd(seed):
    # the oracle's reference (the eigh backend's per-block, banded or dense
    # spectrum) excludes and counts exactly as dense heevd at every point
    # the oracle draws
    rng = np.random.default_rng(seed)
    solvers = set()
    for _ in range(60):
        _, win, A = random_stencil_window(rng, max_dim=400)
        M = A.dense()
        spec = spectral_density(M, win)
        solvers.add(spec.solver)
        evals = spec.eigenvalues
        dense = np.sort(scipy.linalg.eigvalsh(M, driver="evd", check_finite=False))
        norm = max(gershgorin_bound(M), 1e-12)
        for lam in oracle_points(rng, evals, norm):
            excluded = np.abs(evals - lam).min() <= 1e-9 * norm
            assert excluded == (np.abs(dense - lam).min() <= 1e-9 * norm)
            if not excluded:
                assert np.count_nonzero(evals <= lam) == np.count_nonzero(dense <= lam)
    assert "blocks" in solvers and "dense" in solvers
