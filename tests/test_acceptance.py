"""Acceptance suite.

One test per shipped acceptance check, each printing a single pass/fail
line (run with -s to see them live).  Tolerances are pinned here, not
computed:

  strong-convergence   |F_32 - F| < 0.03, decreasing from m=16 (slack 1e-3)
  jump-convergence     triangle jumps exact for m in 4..64, collar bound
  dirichlet-neumann    both boundary conditions within 0.03 at m=32,
                       Neumann counting dominates Dirichlet pointwise
  moment-identity      walk trace vs fiber moments < 1e-6 (N=128, n <= 8),
                       window trace within the boundary-collar bound
  counting-backends    inertia count == eigendecomposition count, exact,
                       200 seeded random restrictions (dim <= 400)
  invariant-suite      every named structural check green, < 3 min
  butterfly-symmetry   band tables at p/q and (q-p)/q reflect about 4
                       within 1e-6 for all q <= 12
"""

import time
from fractions import Fraction

import numpy as np
import pytest

from magspec.checks import check_inertia_oracle
from magspec.config import parse_config
from magspec.exhaustion import (
    folner_box,
    interior_vertices,
    window_subgraph,
)
from magspec.experiments import (
    DEFAULT_VERIFY_MODELS,
    hofstadter_flux_list,
    run_butterfly,
    run_verify,
    select_probe_lambdas,
    verify_report,
)
from magspec.floquet import (
    band_edges,
    ids_oracle,
    jump_oracle,
    magnetic_cell,
    moment_crosscheck,
)
from magspec.lattice import line_graph, square_lattice, triangle_cells
from magspec.operators import (
    gamma_trace_power,
    harper_dml,
    hofstadter_weights,
    uniform_weights,
)
from magspec.spectra import (
    assemble_dirichlet,
    dirichlet_matrix,
    interior_restriction,
    neumann_matrix,
    rect_kernel_dim,
    spectral_density,
)

CONVERGENCE_TOL = 0.03
MONOTONE_SLACK = 1e-3
PROBE_COUNT = 9
PROBE_MARGIN = 0.1
ORACLE_GRID = 512
MOMENT_TOL = 1e-6
MOMENT_GRID = 128
MOMENT_NMAX = 8
BACKEND_INSTANCES = 200
BACKEND_MAX_DIM = 400
BUTTERFLY_QMAX = 12
BUTTERFLY_TOL = 1e-6

FLUXES = (Fraction(1, 2), Fraction(1, 3))


def _report(name: str, ok: bool, detail: str = "") -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f": {detail}"
    print(line)


def _square_model(alpha):
    g = square_lattice()
    w = hofstadter_weights(g, alpha)
    harper, dml = harper_dml(g, w)
    return g, w, dml


def _spectrum(g, op, m, boundary="dirichlet", weights=None):
    win = window_subgraph(g, folner_box(g.dimension, m))
    if boundary == "dirichlet":
        A = dirichlet_matrix(op, win)
    else:
        A = neumann_matrix(g, weights, win)
    return spectral_density(A, win)


def test_strong_convergence_at_continuity_points():
    """Window counting functions approach the quadrature ground truth at
    in-band and in-gap points, with the error shrinking from m=16 to m=32."""
    t0 = time.perf_counter()
    failures = []
    for alpha in FLUXES:
        g, w, dml = _square_model(alpha)
        cell = magnetic_cell(g, dml, alpha)
        probes = select_probe_lambdas(band_edges(cell), PROBE_COUNT, PROBE_MARGIN)
        assert len(probes) == PROBE_COUNT
        truth = {lam: ids_oracle(cell, lam, ORACLE_GRID).value for lam in probes}
        spec16 = _spectrum(g, dml, 16)
        spec32 = _spectrum(g, dml, 32)
        for lam in probes:
            e16 = abs(spec16.ids(lam) - truth[lam])
            e32 = abs(spec32.ids(lam) - truth[lam])
            if not (e32 < CONVERGENCE_TOL and e32 < e16 + MONOTONE_SLACK):
                failures.append(
                    f"alpha={alpha} lambda={lam:.4f}: e16={e16:.5f} e32={e32:.5f}"
                )
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 120.0
    _report(
        "strong-convergence",
        ok,
        f"18 probe points, worst window m=32, {elapsed:.1f}s"
        + ("" if not failures else "; " + "; ".join(failures)),
    )
    assert not failures, failures
    assert elapsed < 120.0, f"runtime {elapsed:.1f}s exceeds 120s"


def test_jump_convergence_on_block_model():
    """Triangle-cell jumps are exact at every window size, interior jumps
    obey both kernel inequalities and the one-dimensional collar bound."""
    t0 = time.perf_counter()
    g = triangle_cells()
    w = uniform_weights(g)
    _, dml = harper_dml(g, w)
    jumps = jump_oracle(magnetic_cell(g, dml, w.flux))
    assert [j.dimension for j in jumps] == [Fraction(1), Fraction(2)]
    assert jumps[0].lam == pytest.approx(0.0, abs=1e-12)
    assert jumps[1].lam == pytest.approx(3.0, abs=1e-12)
    oracle = {0.0: Fraction(1), 3.0: Fraction(2)}
    radius = dml.propagation
    orbits = g.num_orbits
    problems = []
    for m in range(4, 65):
        win = window_subgraph(g, folner_box(1, m))
        spec = spectral_density(dirichlet_matrix(dml, win), win)
        split = interior_vertices(g, win, radius)
        for lam, d_exact in oracle.items():
            d_count = spec.jump_count(lam, 1e-8)
            expected = m * d_exact
            if d_count != expected:
                problems.append(f"m={m} lambda={lam}: D_m count {d_count} != {expected}")
            k_count = rect_kernel_dim(
                interior_restriction(dml, win, split, lam), 1e-8
            )
            d_prime = Fraction(k_count, m)
            if d_prime > min(Fraction(d_count, m), d_exact):
                problems.append(f"m={m} lambda={lam}: D'={d_prime} above min(D_m, D)")
            collar_bound = Fraction(3 * radius * orbits, m)
            if abs(d_prime - d_exact) > collar_bound:
                problems.append(
                    f"m={m} lambda={lam}: |D' - D| = {abs(d_prime - d_exact)} > {collar_bound}"
                )
    elapsed = time.perf_counter() - t0
    ok = not problems and elapsed < 30.0
    _report("jump-convergence", ok, f"m = 4..64, {elapsed:.1f}s")
    assert not problems, problems
    assert elapsed < 30.0, f"runtime {elapsed:.1f}s exceeds 30s"


def test_dirichlet_vs_neumann():
    """Both boundary conditions meet the convergence tolerance at m=32 and
    the Neumann counting function dominates the Dirichlet one pointwise."""
    tol_failures = []
    order_failures = []
    for alpha in FLUXES:
        g, w, dml = _square_model(alpha)
        cell = magnetic_cell(g, dml, alpha)
        probes = select_probe_lambdas(band_edges(cell), PROBE_COUNT, PROBE_MARGIN)
        truth = {lam: ids_oracle(cell, lam, ORACLE_GRID).value for lam in probes}
        spectra = {}
        for m in (8, 16, 32):
            spectra[(m, "dirichlet")] = _spectrum(g, dml, m)
            spectra[(m, "neumann")] = _spectrum(g, dml, m, "neumann", w)
        for lam in probes:
            for bc in ("dirichlet", "neumann"):
                err = abs(spectra[(32, bc)].ids(lam) - truth[lam])
                if err >= CONVERGENCE_TOL:
                    tol_failures.append(
                        f"alpha={alpha} {bc} lambda={lam:.4f}: err={err:.5f}"
                    )
            for m in (8, 16, 32):
                if spectra[(m, "neumann")].ids(lam) < spectra[(m, "dirichlet")].ids(lam):
                    order_failures.append(f"alpha={alpha} m={m} lambda={lam:.4f}")
    ok = not tol_failures and not order_failures
    _report(
        "dirichlet-neumann",
        ok,
        "pointwise domination holds"
        + ("" if not tol_failures else
           f"; {len(tol_failures)} of 36 tolerance checks at m=32 miss 0.03: "
           + "; ".join(tol_failures)),
    )
    assert not order_failures, order_failures
    assert not tol_failures, (
        "Neumann windows at m=32 sit above the 0.03 tolerance on parts of the "
        "spectrum (they pass at m=64; the Dirichlet side passes at m=32): "
        + "; ".join(tol_failures)
    )


def test_moment_identity():
    """Walk-enumerated trace powers equal fiber quadrature moments, and the
    window trace deviates from the per-domain trace by at most the
    boundary-collar bound."""
    cases = []
    g1 = line_graph()
    w1 = uniform_weights(g1)
    _, d1 = harper_dml(g1, w1)
    cases.append(("line", g1, w1, d1, (64, 256, 1024)))
    for alpha in (Fraction(0), Fraction(1, 2), Fraction(1, 3)):
        g2, w2, d2 = _square_model(alpha)
        cases.append((f"square-{alpha}", g2, w2, d2, (8, 16, 32)))

    quad_failures = []
    collar_failures = []
    for label, g, w, op, windows in cases:
        cell = magnetic_cell(g, op, w.flux)
        worst = moment_crosscheck(op, cell, MOMENT_NMAX, MOMENT_GRID)
        if worst >= MOMENT_TOL:
            quad_failures.append(f"{label}: quadrature discrepancy {worst:.3e}")
        walk = [gamma_trace_power(op, n) for n in range(MOMENT_NMAX + 1)]
        for m in windows:
            win = window_subgraph(g, folner_box(g.dimension, m))
            evals = np.linalg.eigvalsh(assemble_dirichlet(op, win))
            norm = len(win.elements)
            for n in range(MOMENT_NMAX + 1):
                window_trace = float(np.sum(evals**n)) / norm
                split = interior_vertices(g, win, n * op.propagation)
                collar = len(win) - split.interior_positions.size
                bound = (op.norm_bound**n) * collar / norm
                gap = abs(window_trace - walk[n])
                if gap > bound + 1e-9 * max(1.0, abs(walk[n])):
                    collar_failures.append(
                        f"{label} m={m} n={n}: |{window_trace:.6g} - {walk[n]:.6g}| "
                        f"= {gap:.3e} > {bound:.3e}"
                    )
    ok = not quad_failures and not collar_failures
    _report("moment-identity", ok, "4 models, n <= 8, N = 128")
    assert not quad_failures, quad_failures
    assert not collar_failures, collar_failures


def test_counting_backend_equivalence():
    """Inertia counting equals eigendecomposition counting, exactly, on 200
    seeded random Hermitian stencil restrictions of dimension <= 400."""
    result = check_inertia_oracle(
        np.random.default_rng(20250814), instances=BACKEND_INSTANCES,
        max_dim=BACKEND_MAX_DIM,
    )
    _report("counting-backends", result.passed, result.detail)
    assert result.passed, result.detail


def test_structural_invariant_suite():
    """Every named invariant check is green on the shipped verify models."""
    t0 = time.perf_counter()
    cfg = parse_config(
        DEFAULT_VERIFY_MODELS + "\nlabel: acceptance-verify\nseed: 20240901\n"
    )
    results, _ = run_verify(cfg)
    report = verify_report(results)
    elapsed = time.perf_counter() - t0
    ok = report["passed"] and elapsed < 180.0
    _report(
        "invariant-suite",
        ok,
        f"{report['num_checks']} checks, {elapsed:.1f}s"
        + ("" if report["passed"] else f"; failures: {report['failures']}"),
    )
    assert report["passed"], report["failures"]
    assert elapsed < 180.0, f"runtime {elapsed:.1f}s exceeds 180s"


def test_butterfly_reflection_symmetry():
    """Band tables at flux p/q and (q-p)/q coincide under reflection about
    the valence, within 1e-6, for every q <= 12."""
    cfg = parse_config(f"label: bf\nbutterfly: {{q_max: {BUTTERFLY_QMAX}}}\n")
    records, _ = run_butterfly(cfg)
    table = {}
    for p, q, _, band, lo, hi in records:
        table.setdefault(Fraction(p, q), []).append((lo, hi))
    worst = 0.0
    for flux, bands in table.items():
        mirror = table[1 - flux]
        reflected = sorted((8.0 - hi, 8.0 - lo) for lo, hi in mirror)
        for (a, b), (c, d) in zip(sorted(bands), reflected):
            worst = max(worst, abs(a - c), abs(b - d))
    ok = worst < BUTTERFLY_TOL
    _report(
        "butterfly-symmetry",
        ok,
        f"{len(table)} flux values, worst reflection mismatch {worst:.2e}",
    )
    assert ok, f"reflection mismatch {worst:.3e} exceeds {BUTTERFLY_TOL}"
