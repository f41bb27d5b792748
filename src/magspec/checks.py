"""Named structural checks.

Each check returns a CheckResult with a stable name, so the verify driver
can aggregate them into a machine-readable report and point at the exact
invariant that broke.  The acceptance suite runs the same code paths.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

from .exhaustion import (
    folner_box,
    interior_vertices,
    isoperimetric_ratio,
    translated,
    window_boundary_ratio,
    window_subgraph,
)
from .floquet import (
    OracleUnavailableError,
    magnetic_cell,
    moment_crosscheck,
)
from .lattice import (
    PeriodicGraph,
    Shift,
    Vertex,
    periodic_graph,
    simplicial_ball,
    square_lattice,
    triangle_cells,
)
from .operators import (
    Cocycle,
    LocalOperator,
    WeightFunction,
    check_conjugation_symmetry,
    dml_operator,
    gauge_transformed,
    gamma_trace_power,
    local_operator,
    translation_commutator,
    unit_phase,
    validate_weights,
    window_coo,
    window_matvec,
)
from .spectra import (
    WindowMatrix,
    blas_thread_counts,
    dirichlet_matrix,
    inertia_count_leq,
    interior_restriction,
    neumann_matrix,
    projection_window_dim,
    rect_kernel_dim,
    spectral_density,
)

COCYCLE_RADIUS = 6
MOMENT_N_MAX = 8  # walk moments compared, n = 0..MOMENT_N_MAX
MOMENT_GRID_N = 128  # fiber grid points per axis for the moments


@dataclass
class CheckResult:
    name: str
    passed: bool
    metric: float
    detail: str
    model: str = ""
    # run facts for the verify manifest; the report (as_dict) leaves them out
    diagnostics: Optional[dict] = None

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "model": self.model,
            "passed": bool(self.passed),
            "metric": float(self.metric),
            "detail": self.detail,
        }


@dataclass
class ModelUnderTest:
    """One graph + weight + operator triple the suite runs over."""

    label: str
    graph: PeriodicGraph
    weights: WeightFunction
    operator: LocalOperator
    window_sizes: tuple[int, ...] = (4, 6)
    interior_radius: Optional[int] = None

    @functools.cached_property
    def cocycles(self) -> dict[Shift, Cocycle]:
        """One cocycle per generator, solved once for both the residual
        and the commutator check, on the box of radius COCYCLE_RADIUS +
        propagation that the commutator's test vectors need."""
        return validate_weights(self.graph, self.weights, COCYCLE_RADIUS + self.operator.propagation)


def _model_check(*names: str):
    """Declare a per-model check by its report names.  The body returns
    one (passed, metric, detail) per name, a bare triple for a single
    name; the check returns one CheckResult per name (a bare one for a
    single name), labelled with the model, as the body's annotation
    states.  A body that raises fails every name with the exception as
    detail: a broken model surfaces as named failures, not a crash."""
    def declare(body):
        @functools.wraps(body)
        def check(m: ModelUnderTest, *args):
            try:
                outcomes = body(m, *args)
            except Exception as exc:
                outcomes = [(False, float("nan"), f"{type(exc).__name__}: {exc}")] * len(names)
            else:
                outcomes = outcomes if len(names) > 1 else [outcomes]
            results = [CheckResult(name, *out, m.label) for name, out in zip(names, outcomes)]
            return results if len(names) > 1 else results[0]
        return check
    return declare


def _dirichlet_spectrum(op: LocalOperator, win) -> np.ndarray:
    """Ascending eigenvalues of the operator's Dirichlet window matrix."""
    return spectral_density(dirichlet_matrix(op, win), win).eigenvalues


@_model_check("sigma-conjugation")
def check_sigma_conjugation(m: ModelUnderTest) -> CheckResult:
    resid = check_conjugation_symmetry(m.graph, m.weights, 3)
    return resid <= 1e-12, resid, f"max |sigma(rev e) - conj sigma(e)| = {resid:.3e}"


@_model_check("cocycle-residual")
def check_cocycle_residual(m: ModelUnderTest) -> CheckResult:
    m.cocycles  # the solve raises on a cycle with holonomy mismatch
    return True, 0.0, "coboundary equation solved for every generator at 1e-12"


@_model_check("commutator-residual")
def check_commutator(m: ModelUnderTest) -> CheckResult:
    window = next(iter(m.cocycles.values())).window
    # delta at each orbit representative, then one mix of them all
    orbits = np.arange(m.graph.num_orbits)
    origin = window.positions(orbits, np.zeros((orbits.size, m.graph.dimension), dtype=np.int64))
    tests = np.zeros((orbits.size + 1, len(window)), dtype=complex)
    tests[orbits, origin] = 1.0
    tests[-1, origin] = 0.5 + 0.25j * (orbits + 1)
    scale = max(1.0, m.operator.norm_bound)
    worst = max(
        translation_commutator(m.operator, c, tests) for c in m.cocycles.values()
    ) / scale
    return worst <= 1e-12, worst, f"max ||A T f - T A f|| / ||A|| = {worst:.3e}"


@_model_check("self-adjointness")
def check_self_adjoint(m: ModelUnderTest, rng: np.random.Generator) -> CheckResult:
    support = sorted(simplicial_ball(m.graph, Vertex(0, (0,) * m.graph.dimension), 2))
    # f and g live on the ball, so the compression to a window over its
    # translates gives <Af, g> exactly
    window = window_subgraph(m.graph, [v.shift for v in support])
    pos = window.positions(np.array([v.orbit for v in support]), np.array([v.shift for v in support]))
    coo = window_coo(m.operator, window)
    worst = 0.0
    for _ in range(5):
        # one complex normal per ball vertex in sorted-Vertex order, f then g
        f, g = np.zeros((2, len(window)), dtype=complex)
        f[pos] = rng.normal(size=(len(support), 2)).view(complex)[:, 0]
        g[pos] = rng.normal(size=(len(support), 2)).view(complex)[:, 0]
        lhs = np.vdot(g, window_matvec(coo, f))
        rhs = np.vdot(window_matvec(coo, g), f)
        norm = max(1.0, abs(lhs), abs(rhs))
        worst = max(worst, abs(lhs - rhs) / norm)
    return worst <= 1e-12, worst, f"max relative <Af,g> - <f,Ag> = {worst:.3e}"


@_model_check("propagation-support")
def check_propagation_support(m: ModelUnderTest) -> CheckResult:
    zero = (0,) * m.graph.dimension
    balls = [simplicial_ball(m.graph, Vertex(orb, zero), m.operator.propagation)
             for orb in range(m.graph.num_orbits)]
    to_orbit, to_shift, src, vals = m.operator.triplets(np.arange(len(balls)), np.array([zero] * len(balls)))
    ok = all(
        Vertex(b, tuple(x)) in balls[j]
        for b, x, j, c in zip(to_orbit.tolist(), to_shift.tolist(), src.tolist(), vals.tolist())
        if c != 0
    )
    return ok, 0.0 if ok else 1.0, f"supp(A delta_v) inside the {m.operator.propagation}-ball, exact"


@_model_check("gauge-invariance")
def check_gauge_invariance(m: ModelUnderTest, rng: np.random.Generator) -> CheckResult:
    mside = m.window_sizes[-1]
    win = window_subgraph(m.graph, folner_box(m.graph.dimension, mside))
    # random phases on the window, then 1 at position -1 (off the window)
    phases = np.array([unit_phase(rng.random()) for _ in range(len(win))] + [1.0 + 0.0j])
    gauged = gauge_transformed(m.weights, lambda orbit, s: phases[win.positions(orbit, s)])
    e1 = _dirichlet_spectrum(dml_operator(m.graph, m.weights), win)
    e2 = _dirichlet_spectrum(dml_operator(m.graph, gauged), win)
    worst = float(np.abs(e1 - e2).max())
    return worst <= 1e-10, worst, f"max eigenvalue shift under a random gauge = {worst:.3e}"


@_model_check("translation-invariance")
def check_translation_invariance(m: ModelUnderTest) -> CheckResult:
    mside = m.window_sizes[-1]
    box = folner_box(m.graph.dimension, mside)
    gamma = (3,) + (2,) * (m.graph.dimension - 1)
    e1 = _dirichlet_spectrum(m.operator, window_subgraph(m.graph, box))
    e2 = _dirichlet_spectrum(m.operator, window_subgraph(m.graph, translated(box, gamma)))
    worst = float(np.abs(e1 - e2).max())
    return (
        worst <= 1e-10, worst,
        f"max eigenvalue shift between windows over L and gamma+L = {worst:.3e}",
    )


@_model_check("dirichlet-neumann-order")
def check_dirichlet_neumann(m: ModelUnderTest) -> CheckResult:
    dml = dml_operator(m.graph, m.weights)
    worst = 0.0
    for mside in m.window_sizes:
        win = window_subgraph(m.graph, folner_box(m.graph.dimension, mside))
        D = dirichlet_matrix(dml, win)
        N = neumann_matrix(m.graph, m.weights, win)
        diff = WindowMatrix.from_triplets(
            np.concatenate([D.rows, N.rows]), np.concatenate([D.cols, N.cols]),
            np.concatenate([D.vals, -N.vals]), D.dim,
        )
        on = diff.rows == diff.cols
        off = float(np.abs(diff.vals[~on]).max(initial=0.0))
        diag = np.bincount(diff.rows[on], diff.vals[on].real, minlength=diff.dim)
        if off > 1e-12 or diag.min() < -1e-12:
            return False, max(off, -diag.min()), "Dirichlet minus Neumann is not a nonnegative diagonal"
        interior_rows = interior_vertices(m.graph, win, 1).interior_positions
        if interior_rows.size and float(np.abs(diag[interior_rows]).max()) > 1e-12:
            return (
                False, float(np.abs(diag[interior_rows]).max()),
                "Dirichlet/Neumann difference not supported on the boundary",
            )
        ed = spectral_density(D, win).eigenvalues
        en = spectral_density(N, win).eigenvalues
        # eigenvalue-wise domination gives F_Neu >= F_Dir at every lambda
        worst = max(worst, float((en - ed).max()))
    return (
        worst <= 1e-12, worst,
        f"max_i eig_i(Neumann) - eig_i(Dirichlet) = {worst:.3e} (<= 0 required)",
    )


@_model_check("kernel-inclusion", "rank-nullity")
def check_kernel_inclusion_and_rank(m: ModelUnderTest) -> list[CheckResult]:
    """Integer-level D' <= D on window restrictions plus exact rank-nullity."""
    radius = m.interior_radius if m.interior_radius is not None else m.operator.propagation
    incl_detail, rank_detail = [], []
    for mside in m.window_sizes:
        win = window_subgraph(m.graph, folner_box(m.graph.dimension, mside))
        split = interior_vertices(m.graph, win, radius)
        A = dirichlet_matrix(m.operator, win)
        evals = spectral_density(A, win).eigenvalues
        scale = max(1.0, A.norm_bound)
        for lam in (0.0, float(evals[len(evals) // 2])):
            R = interior_restriction(m.operator, win, split, lam)
            kdim = rect_kernel_dim(R, 1e-8)
            mult = int(np.count_nonzero(np.abs(evals - lam) <= 1e-8 * scale))
            if kdim > mult:
                incl_detail.append(f"m={mside} lam={lam}: D'={kdim} > D={mult}")
            rank = int(np.linalg.matrix_rank(R.dense(), tol=1e-8 * scale))
            if kdim + rank != R.shape[1]:
                rank_detail.append(
                    f"m={mside} lam={lam}: kernel {kdim} + rank {rank} != {R.shape[1]}"
                )
    return [
        (
            not incl_detail, float(bool(incl_detail)),
            "; ".join(incl_detail) or "dim ker(A' - lam i') <= dim ker(A_m - lam) on all probes",
        ),
        (
            not rank_detail, float(bool(rank_detail)),
            "; ".join(rank_detail) or "kernel + rank = #interior columns, exact",
        ),
    ]


@_model_check("interior-radius")
def check_interior_radius(m: ModelUnderTest) -> CheckResult:
    radius = m.interior_radius if m.interior_radius is not None else m.operator.propagation
    return (
        radius >= m.operator.propagation, float(radius),
        f"interior radius {radius} vs propagation bound {m.operator.propagation}",
    )


@_model_check("moment-crosscheck")
def check_moments(m: ModelUnderTest) -> CheckResult:
    try:
        cell = magnetic_cell(m.graph, m.operator, m.weights.flux)
    except OracleUnavailableError as exc:
        return True, 0.0, f"skipped: {exc}"
    worst = moment_crosscheck(m.operator, cell, MOMENT_N_MAX, MOMENT_GRID_N)
    return (
        worst < 1e-6, worst,
        f"max |walk trace - fiber moment| over n <= {MOMENT_N_MAX} at N={MOMENT_GRID_N}: {worst:.3e}",
    )


@_model_check("trace-normalization")
def check_trace_basics(m: ModelUnderTest) -> CheckResult:
    t0 = gamma_trace_power(m.operator, 0)
    t2 = gamma_trace_power(m.operator, 2)
    return (
        t0 == float(m.graph.num_orbits) and t2 >= -1e-12, t0,
        f"tr(A^0) = {t0} (expect {m.graph.num_orbits}); tr(A^2) = {t2:.6g} >= 0",
    )


# global checks (model-independent)


def random_stencil_window(rng: np.random.Generator, max_dim: int = 400):
    """Random Hermitian stencil restricted to a random box window.

    Used as the test population for the inertia/eigendecomposition
    counting equivalence.  Returns (operator, window, dirichlet_matrix).
    """
    while True:
        dimension = int(rng.integers(1, 3))
        norb = int(rng.integers(1, 4))
        raw = []
        n_entries = int(rng.integers(1, 5))
        for _ in range(n_entries):
            a = int(rng.integers(norb))
            b = int(rng.integers(norb))
            off = tuple(int(x) for x in rng.integers(-1, 2, size=dimension))
            if a == b and all(x == 0 for x in off):
                c = complex(rng.normal(), 0.0)
                raw.append((a, a, off, c))
                continue
            c = complex(rng.normal(), rng.normal())
            raw.append((a, b, off, c))
            raw.append((b, a, tuple(-x for x in off), c.conjugate()))
        # a chain across orbits plus one template per axis keeps every
        # stencil offset at finite graph distance
        templates = [(orb, orb + 1, (0,) * dimension) for orb in range(norb - 1)]
        for axis in range(dimension):
            templates.append((0, 0, tuple(1 if i == axis else 0 for i in range(dimension))))
        graph = periodic_graph(dimension, norb, templates)
        try:
            op = local_operator(graph, raw)
        except Exception:
            continue
        side_max = max(2, int((max_dim / norb) ** (1.0 / dimension)))
        side = int(rng.integers(2, side_max + 1))
        win = window_subgraph(graph, folner_box(dimension, side))
        if len(win) > max_dim:
            continue
        return op, win, dirichlet_matrix(op, win)


def oracle_points(rng: np.random.Generator, evals: np.ndarray, norm: float) -> list[float]:
    """The inertia oracle's counting points for one matrix with ascending
    spectrum evals and norm bound norm: three uniform draws from the
    spectrum's range widened by 0.1 norm on each side, then a point 5e-8
    norm above the middle eigenvalue."""
    lo, hi = float(evals[0]) - 0.1 * norm, float(evals[-1]) + 0.1 * norm
    lams = list(rng.uniform(lo, hi, size=3))
    lams.append(float(evals[len(evals) // 2]) + 5e-8 * norm)
    return lams


def check_inertia_oracle(
    rng: np.random.Generator, instances: int = 200, max_dim: int = 400
) -> CheckResult:
    """Inertia-based counting equals full-eigendecomposition counting on
    random Hermitian stencil restrictions, exactly, away from eigenvalues:
    points within 1e-9 of the norm bound of an eigenvalue are excluded.

    Both backends take the same window matrix.  The reference spectrum is
    the window's ``spectral_density``: per connected block, in band
    storage when the band is narrow (real band storage when the window's
    mirror makes the matrix real), dense otherwise, so the check reads
    "inertia backend == eigh backend".  Like every LAPACK
    call in the package, the loop runs on one OpenBLAS thread (the
    process-wide pin, see ``spectra``).  The result's ``diagnostics``
    count the instances per reference solver, the largest dimension, the
    points tested and excluded, and the OpenBLAS thread counts read after
    the loop."""
    mismatches = tested = excluded = largest = 0
    solvers = dict.fromkeys(("blocks", "banded", "banded-real", "dense"), 0)
    for _ in range(instances):
        _, win, A = random_stencil_window(rng, max_dim)
        spec = spectral_density(A, win)
        evals = spec.eigenvalues
        solvers[spec.solver] += 1
        largest = max(largest, A.dim)
        norm = max(A.norm_bound, 1e-12)
        for lam in oracle_points(rng, evals, norm):
            if np.abs(evals - lam).min() <= 1e-9 * norm:
                excluded += 1  # counting at an eigenvalue is ambiguous
                continue
            tested += 1
            expected = int(np.count_nonzero(evals <= lam))
            if inertia_count_leq(A, lam) != expected:
                mismatches += 1
    threads = blas_thread_counts()
    return CheckResult(
        "inertia-oracle", mismatches == 0, float(mismatches),
        f"{tested} counting points over {instances} random restrictions, "
        f"{mismatches} mismatches",
        diagnostics={
            "solvers": solvers,
            "max_dim": largest,
            "points_tested": tested,
            "points_excluded": excluded,
            "blas_threads": threads,
        },
    )


def check_folner_ratio(max_m: int = 20) -> CheckResult:
    """Two-sided collar ratio of square boxes in Z^2 stays strictly under
    4 d delta / m for m >= 4 delta."""
    worst = -1.0
    detail = []
    for delta in (1, 2):
        for m in range(4 * delta, max_m + 1, 2):
            ratio = isoperimetric_ratio(folner_box(2, m), delta)
            bound = Fraction(4 * 2 * delta, m)
            margin = float(bound - ratio)
            worst = max(worst, float(ratio / bound))
            if ratio >= bound:
                detail.append(f"m={m} delta={delta}: {float(ratio):.4f} >= {float(bound):.4f}")
    ok = not detail
    return CheckResult(
        "folner-ratio", ok, worst,
        "; ".join(detail) or f"max ratio/bound over Z^2 boxes = {worst:.4f} < 1",
    )


def check_boundary_collar() -> CheckResult:
    """Graph-side inner collar of box windows obeys the same 4 d delta / m
    bound, for the canonical lattices in d = 1, 2, 3."""
    graphs = {
        1: periodic_graph(1, 1, [(0, 0, (1,))]),
        2: square_lattice(),
        3: periodic_graph(3, 1, [(0, 0, (1, 0, 0)), (0, 0, (0, 1, 0)), (0, 0, (0, 0, 1))]),
    }
    detail = []
    worst = -1.0
    for d, graph in graphs.items():
        for delta in (1, 2):
            for m in (4 * delta, 4 * delta + 3, 8 * delta):
                win = window_subgraph(graph, folner_box(d, m))
                ratio = window_boundary_ratio(graph, win, delta)
                bound = Fraction(4 * d * delta, m)
                worst = max(worst, float(ratio / bound))
                if ratio >= bound:
                    detail.append(f"d={d} m={m} delta={delta}")
    return CheckResult(
        "boundary-collar", not detail, worst,
        "; ".join(detail) or f"max collar/bound over d <= 3 boxes = {worst:.4f} < 1",
    )


def _random_projection(rng: np.random.Generator, n: int, k: int) -> np.ndarray:
    A = rng.normal(size=(n, k)) + 1j * rng.normal(size=(n, k))
    Q, _ = np.linalg.qr(A)
    return Q @ Q.conj().T


def check_dim_properties(rng: np.random.Generator) -> list[CheckResult]:
    """Additivity, monotonicity and the window-subspace normalization of
    the window-normalized dimension, plus its agreement with the per-cell
    trace on the block model (the invariant-projection case)."""
    graph = square_lattice()
    win = window_subgraph(graph, folner_box(2, 4))
    n = len(win)
    norm = len(win.elements)
    results = []

    A = rng.normal(size=(n, 5)) + 1j * rng.normal(size=(n, 5))
    Q, _ = np.linalg.qr(A)
    W, V = Q[:, :2] @ Q[:, :2].conj().T, Q[:, 2:] @ Q[:, 2:].conj().T
    together = Q @ Q.conj().T
    add_err = abs(
        projection_window_dim(together, win, win)
        - projection_window_dim(W, win, win)
        - projection_window_dim(V, win, win)
    )
    results.append(CheckResult(
        "dim-additivity", add_err <= 1e-10, add_err,
        f"orthogonal-sum additivity residual {add_err:.3e}",
    ))

    small = Q[:, :2] @ Q[:, :2].conj().T
    large = Q[:, :4] @ Q[:, :4].conj().T
    mono = projection_window_dim(large, win, win) - projection_window_dim(small, win, win)
    results.append(CheckResult(
        "dim-monotonicity", mono >= -1e-12, mono,
        f"dim(V) - dim(W) = {mono:.6f} >= 0 for W inside V",
    ))

    k = 3
    P = _random_projection(rng, n, k)
    sub = abs(projection_window_dim(P, win, win) - k / norm)
    full = abs(projection_window_dim(np.eye(n), win, win) - graph.num_orbits)
    results.append(CheckResult(
        "dim-window-subspace", max(sub, full) <= 1e-10, max(sub, full),
        f"rank-k / identity normalization residuals {sub:.3e}, {full:.3e}",
    ))

    # block model: a translation-invariant projection (same per-cell
    # projector in every cell) must give its per-cell trace
    tri = triangle_cells()
    twin = window_subgraph(tri, folner_box(1, 6))
    cellP = _random_projection(rng, 3, 1)
    blocks = [cellP] * len(twin.elements)
    P_inv = np.zeros((len(twin), len(twin)), dtype=complex)
    for b, blk in enumerate(blocks):
        P_inv[3 * b : 3 * b + 3, 3 * b : 3 * b + 3] = blk
    inv_err = abs(projection_window_dim(P_inv, twin, twin) - float(np.trace(cellP).real))
    results.append(CheckResult(
        "dim-invariant-projection", inv_err <= 1e-10, inv_err,
        f"window dimension vs per-cell trace residual {inv_err:.3e}",
    ))
    return results


@_model_check("window-norm-bound")
def check_window_norm_bound(m: ModelUnderTest) -> CheckResult:
    win = window_subgraph(m.graph, folner_box(m.graph.dimension, m.window_sizes[-1]))
    mx = float(np.abs(_dirichlet_spectrum(m.operator, win)).max())
    bound = m.operator.norm_bound
    return mx <= bound + 1e-9, mx, f"max |eig| = {mx:.6g} within the stencil bound {bound:.6g}"


def _run_timed(calls: list[Callable], timings: Optional[dict]) -> list[CheckResult]:
    """Run the check calls in order and collect their results.  When a
    timings dict is given, add each call's wall time to it under the
    call's check name (names joined by "+" for a call that returns
    several results), summing over repeated names."""
    results: list[CheckResult] = []
    for call in calls:
        t0 = time.perf_counter()
        out = call()
        out = out if isinstance(out, list) else [out]
        if timings is not None:
            key = "+".join(r.name for r in out)
            timings[key] = timings.get(key, 0.0) + time.perf_counter() - t0
        results.extend(out)
    return results


def model_suite(
    m: ModelUnderTest, rng: np.random.Generator, timings: Optional[dict] = None
) -> list[CheckResult]:
    return _run_timed([
        lambda: check_sigma_conjugation(m),
        lambda: check_cocycle_residual(m),
        lambda: check_commutator(m),
        lambda: check_self_adjoint(m, rng),
        lambda: check_propagation_support(m),
        lambda: check_trace_basics(m),
        lambda: check_window_norm_bound(m),
        lambda: check_gauge_invariance(m, rng),
        lambda: check_translation_invariance(m),
        lambda: check_dirichlet_neumann(m),
        lambda: check_interior_radius(m),
        lambda: check_kernel_inclusion_and_rank(m),
        lambda: check_moments(m),
    ], timings)


def global_suite(
    rng: np.random.Generator, inertia_instances: int = 200, timings: Optional[dict] = None
) -> list[CheckResult]:
    return _run_timed([
        lambda: check_inertia_oracle(rng, inertia_instances),
        check_folner_ratio,
        check_boundary_collar,
        lambda: check_dim_properties(rng),
    ], timings)
