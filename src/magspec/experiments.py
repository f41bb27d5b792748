"""Experiment drivers and file outputs.

Four drivers: convergence tables (window counting function vs quadrature
ground truth), jump tables (window jumps, interior jumps, exact jumps),
butterfly band tables over rational fluxes, and the named-check
verification report.  All tabular output is written with 17 significant
digits and assembled in a fixed key order, so identical config + seed
reproduces byte-identical CSV; wall-clock timings go to the run manifest
instead (they cannot be deterministic), together with per-window
diagnostics (dimension, nonzeros, connected blocks, half-bandwidth and
eigenvalue solver of each window matrix and the seconds the window took
to build and solve; for converge also the distance from each counting
point to the window's nearest eigenvalue and the window's counting shift
delta, so a point within delta of an eigenvalue shows), per-flux
butterfly diagnostics (fiber dimension and the fibers diagonalized, two
per flux for the closed-form band edges) or the inertia oracle's run
facts for verify.  Every driver returns its rows plus a dict of the
manifest sections the run adds: ``timings_s`` and ``diagnostics``;
converge adds the wall time of its two stages to ``timings_s``
(``oracle``: counting points and ground truth; ``windows``: every
window's build and solve), and records ``oracle``, the ground-truth value,
its error bound and its ``method`` (``chambers``, exact on the square
lattice, or ``grid``, the fiber-grid quadrature) per counting point, and
``threads``, the size of its window pool; jumps records its exact jumps'
evidence (``floquet.jump_oracle``) or the oracle's refusal as ``oracle``.

Converge and jumps build and solve each window with one routine,
``_window_spectrum``.  Converge runs it with ``ordered_parallel``, one
thread per usable CPU: the band and dense solvers release the GIL, so two
windows take little more wall time than the larger one.  That pool is the
only parallelism: OpenBLAS runs on one thread (see ``spectra``), as every
manifest's ``blas_threads`` records.  Everything else is
serial: the oracle's first counting point fills the fiber-grid caches
the others read, the stacks of small ``eigvalsh`` calls in jumps gain
nothing from a second thread, and butterfly diagonalizes two fibers per
flux.  Rows come out in a fixed order whatever the thread count.
"""

from __future__ import annotations

import csv
import json
import os
import time
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from math import gcd
from pathlib import Path
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

import numpy as np

from . import __version__
from .checks import CheckResult, ModelUnderTest, global_suite, model_suite
from .config import (
    BuiltModel,
    ConfigError,
    ExperimentConfig,
    ModelSpec,
    WeightSpec,
    build_graph,
    build_model,
    config_digest,
)
from .exhaustion import Window, folner_box, interior_vertices, window_subgraph
from .floquet import (
    Band,
    IdsEstimate,
    JUMP_CLUSTER_TOL,
    JUMP_PROBE_K,
    MagneticCell,
    OracleUnavailableError,
    band_edge_distance,
    band_edges,
    hofstadter_band_edges,
    hofstadter_ids,
    ids_oracle,
    jump_oracle,
    magnetic_cell,
    merged_intervals,
)
from .operators import dml_operator, harper_operator, hofstadter_weights
from .lattice import square_lattice
from .spectra import (
    WindowMatrix,
    WindowSpectrum,
    blas_thread_counts,
    dirichlet_matrix,
    interior_restriction,
    neumann_matrix,
    rect_kernel_dim,
    spectral_density,
)

RESULT_COLUMNS = (
    "experiment",
    "boundary",
    "m",
    "lambda",
    "f_m",
    "f_oracle",
    "abs_err",
    "d_m",
    "d_prime_m",
    "d_oracle",
)

BUTTERFLY_COLUMNS = ("p", "q", "alpha", "band", "lo", "hi")


class ResultRow(NamedTuple):
    """One row of a converge or jumps table, fields in RESULT_COLUMNS order."""

    experiment: str
    boundary: str
    m: int
    lam: float
    f_m: Optional[float] = None
    f_oracle: Optional[float] = None
    abs_err: Optional[float] = None
    d_m: Optional[float] = None
    d_prime_m: Optional[float] = None
    d_oracle: Optional[float] = None


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def write_csv(path, columns: Sequence[str], records: Iterable[tuple]) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for rec in records:
            writer.writerow([_fmt(v) for v in rec])


def write_manifest(path, *, config_text: str, seed: int, info: dict, outputs: list[str]) -> None:
    """Run manifest: tool and library versions, the thread count of every
    loaded OpenBLAS (``blas_threads``), config digest, seed, outputs, and
    the sections the driver returned in ``info``."""
    import scipy

    manifest = {
        "tool": {"name": "magspec", "version": __version__},
        "config_sha256": config_digest(config_text),
        "seed": seed,
        "libraries": {"numpy": np.__version__, "scipy": scipy.__version__},
        "blas_threads": blas_thread_counts(),
        "outputs": outputs,
        "written_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        **info,
    }
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the system
    has one (Linux), else every CPU."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def ordered_parallel(fn: Callable, items: Sequence) -> list:
    """``[fn(x) for x in items]`` on a pool of one thread per usable CPU:
    results in input order, and the first exception in input order is the
    one raised (items not yet started are then dropped).  It pays only
    where ``fn`` spends its time in calls that release the GIL, such as
    converge's window solves."""
    pool = ThreadPoolExecutor(max_workers=_usable_cpus())
    try:
        return list(pool.map(fn, items))
    finally:
        pool.shutdown(cancel_futures=True)


def select_probe_lambdas(
    bands: Sequence[Band], count: int, margin: float
) -> list[float]:
    """Deterministic counting points: below and above the spectrum, then
    internal gap midpoints, then in-band points at dyadic fractions
    (midpoints, quarters, eighths, ...) of each band, all kept at least
    ``margin`` away from every band edge, filled in that priority order
    until ``count`` points are collected."""
    merged = merged_intervals(bands)
    edges = sorted({e for b in bands for e in (b.lo, b.hi)})
    safety = margin + 0.02

    def admissible(x: float) -> bool:
        return min(abs(x - e) for e in edges) >= safety

    chosen: list[float] = []

    def take(x: float) -> None:
        if len(chosen) < count and admissible(x) and all(abs(x - y) > 1e-9 for y in chosen):
            chosen.append(x)

    take(merged[0][0] - 0.5)
    take(merged[-1][1] + 0.5)
    for (_, hi1), (lo2, _) in zip(merged, merged[1:]):
        if lo2 - hi1 >= 2 * safety:
            take(0.5 * (hi1 + lo2))
    depth = 1
    while len(chosen) < count and depth <= 6:
        level = []
        for lo, hi in merged:
            for j in range(1, 2**depth, 2):
                level.append(lo + (hi - lo) * j / 2**depth)
        for x in sorted(level):
            take(x)
        depth += 1
    return sorted(chosen)


def _oracle_cell(model: BuiltModel) -> MagneticCell:
    return magnetic_cell(model.graph, model.operator, model.weights.flux)


def _square_family(spec: ModelSpec) -> bool:
    """Whether the model is the Harper or DML operator on
    ``square_lattice()``, the family that Chambers' relation covers."""
    return spec.operator in ("harper", "dml") and build_graph(spec.graph) == square_lattice()


def _chambers_applies(spec: ModelSpec) -> bool:
    """Whether converge takes the exact oracle (``hofstadter_ids``): the
    square family with plain Hofstadter weights, no fault-injection knob."""
    return _square_family(spec) and spec.weights == WeightSpec("hofstadter", spec.weights.flux)


def _window_spectrum(
    model: BuiltModel, m: int, boundary: str
) -> tuple[Window, WindowMatrix, WindowSpectrum, dict]:
    """The box window of side m, its matrix and spectrum, and their
    diagnostics, with ``seconds``, the wall time of building and
    diagonalizing it.  Neumann windows are the Laplacian's; run_converge
    refuses them for other operators."""
    t0 = time.perf_counter()
    win = window_subgraph(model.graph, folner_box(model.graph.dimension, m))
    if boundary == "dirichlet":
        A = dirichlet_matrix(model.operator, win)
    else:  # "neumann", the only other boundary parse_config admits
        A = neumann_matrix(model.graph, model.weights, win)
    spec = spectral_density(A, win)
    return win, A, spec, {
        "m": m, "boundary": boundary, "dim": A.dim, "nnz": A.nnz, "blocks": spec.blocks,
        "bandwidth": spec.bandwidth, "solver": spec.solver, "seconds": time.perf_counter() - t0,
    }


def _boundaries(cfg: ExperimentConfig) -> list[str]:
    return ["dirichlet", "neumann"] if cfg.boundary == "both" else [cfg.boundary]


BAND_EDGE_EXCLUSION = 1e-3  # counting points closer than this are flagged


def run_converge(cfg: ExperimentConfig) -> tuple[list[ResultRow], dict]:
    """Counting-function table F_m(lambda) per window, with ground truth
    and error column when the oracle applies: exact by Chambers' relation
    (``hofstadter_ids``) where ``_chambers_applies``, else the fiber-grid
    quadrature ``ids_oracle`` at ``oracle.grid_n``; the manifest's oracle
    entries name the ``method``.  Auto counting points avoid the band
    edges: the closed-form ``hofstadter_band_edges`` on the exact path, the
    fiber grid's ``band_edges`` on the other.  Rows sorted by (lambda, m,
    boundary).  On the grid path, counting points inside the default band-edge
    exclusion are flagged (their oracle columns stay empty) rather than
    failed, unless the config opts in to band-edge evaluation; the exact
    oracle is continuous at the edges and needs no exclusion."""
    if cfg.model is None:
        raise ConfigError("converge needs a model section")
    if cfg.boundary != "dirichlet" and cfg.model.operator != "dml":
        raise ConfigError(
            "neumann boundary is defined for the Laplacian only; "
            f"got operator {cfg.model.operator!r}"
        )
    t0 = time.perf_counter()
    model = build_model(cfg.model)
    t_oracle = time.perf_counter()

    cell = None
    estimates: dict[float, Optional[IdsEstimate]] = {}
    if cfg.oracle.compare:
        try:
            cell = _oracle_cell(model)
        except OracleUnavailableError as exc:
            raise ConfigError(
                f"oracle comparison requested but unavailable: {exc}"
            ) from None
    method = "chambers" if _chambers_applies(cfg.model) else "grid"
    if cfg.lambdas.kind == "explicit":
        lams = sorted(cfg.lambdas.values)
    else:
        if cell is None:
            raise ConfigError("auto lambda selection needs the oracle")
        edges = hofstadter_band_edges(cell) if method == "chambers" else band_edges(cell)
        lams = select_probe_lambdas(edges, cfg.lambdas.count, cfg.lambdas.margin)
    if cell is not None:
        def oracle_at(lam: float) -> Optional[IdsEstimate]:
            if method == "chambers":
                return hofstadter_ids(cell, lam)
            if not cfg.oracle.allow_band_edge and band_edge_distance(cell, lam) < BAND_EDGE_EXCLUSION:
                return None
            return ids_oracle(
                cell, lam, cfg.oracle.grid_n,
                allow_band_edge=cfg.oracle.allow_band_edge,
            )

        # serial: the first point fills the cell's fiber-grid caches
        estimates = {lam: oracle_at(lam) for lam in lams}
    t_windows = time.perf_counter()

    tasks = [(m, bc) for m in cfg.windows for bc in _boundaries(cfg)]
    # each window and its matrix are dropped as soon as it is solved
    results = ordered_parallel(lambda t: _window_spectrum(model, *t)[2:], tasks)
    timings = {"oracle": t_windows - t_oracle, "windows": time.perf_counter() - t_windows}
    spectra = {t: spec for t, (spec, _) in zip(tasks, results)}
    rows = []
    for lam in lams:
        for m in cfg.windows:
            for bc in _boundaries(cfg):
                f_m = spectra[(m, bc)].ids(lam)
                est = estimates.get(lam)
                f_star = None if est is None else est.value
                err = None if f_star is None else abs(f_m - f_star)
                rows.append(ResultRow(cfg.label, bc, m, lam, f_m, f_star, err))
    for spec, diag in results:
        diag["eigenvalue_distance"] = [spec.distance(lam) for lam in lams]
        diag["counting_shift"] = spec.shift
    return rows, {
        "timings_s": {"total": time.perf_counter() - t0, **timings},
        "threads": _usable_cpus(),
        "diagnostics": [diag for _, diag in results],
        "oracle": [
            {"lambda": lam, "method": method, "value": None, "error_bound": None} if est is None
            else {"lambda": lam, "method": method, "value": est.value, "error_bound": est.error_bound}
            for lam, est in estimates.items()
        ],
    }


def run_jumps(cfg: ExperimentConfig) -> tuple[list[ResultRow], dict]:
    """Jump table: window jumps D_m, interior jumps D'_m, and exact jumps
    D, at the config's explicit lambdas when it gives them, else at the
    model's flat bands (``jump_oracle`` on its magnetic cell).  D is the
    oracle's jump where a lambda lies within JUMP_CLUSTER_TOL * max(1,
    |lambda|) of one, and empty elsewhere or without an oracle.  The two
    kernel inequalities D'_m <= D_m and D'_m <= D are enforced rowwise at
    integer level."""
    if cfg.model is None:
        raise ConfigError("jumps needs a model section")
    t0 = time.perf_counter()
    model = build_model(cfg.model)
    propagation = model.operator.propagation
    radius = cfg.interior_radius if cfg.interior_radius is not None else propagation
    if radius < propagation:
        raise ConfigError(
            f"interior_radius {radius} is below the operator's propagation bound {propagation}"
        )
    try:
        jumps = jump_oracle(_oracle_cell(model))
    except OracleUnavailableError as exc:
        if cfg.lambdas.kind != "explicit":
            raise ConfigError("model admits no exact jump oracle; provide explicit lambdas") from None
        jumps, oracle = [], {"unavailable": str(exc)}
    else:
        momenta = [list(k[: model.graph.dimension]) for k in JUMP_PROBE_K]
        oracle = {"momenta": momenta, "jumps": [
            {"lambda": j.lam, "dimension": str(j.dimension),
             "multiplicities": list(j.multiplicities), "spread": j.spread}
            for j in jumps
        ]}
    lams = sorted(cfg.lambdas.values) if cfg.lambdas.kind == "explicit" else [j.lam for j in jumps]

    def exact_jump(lam: float) -> Optional[Fraction]:
        tol = JUMP_CLUSTER_TOL * max(1.0, abs(lam))
        return next((j.dimension for j in jumps if abs(j.lam - lam) <= tol), None)

    windows, diagnostics = [], []
    for m in cfg.windows:
        win, A, spec, diag = _window_spectrum(model, m, "dirichlet")
        tol = cfg.jump_tol_scale * max(A.norm_bound, 1e-4)
        windows.append((m, win, spec, interior_vertices(model.graph, win, radius), tol))
        diagnostics.append(diag)
    rows = []
    for lam in lams:
        d_oracle = exact_jump(lam)
        for m, win, spec, split, tol in windows:
            norm = spec.normalization
            d_count = spec.jump_count(lam, tol)
            k_count = rect_kernel_dim(interior_restriction(model.operator, win, split, lam), 1e-8)
            if k_count > d_count:
                raise AssertionError(
                    f"kernel inclusion violated at m={m}, lambda={lam}: "
                    f"D'={k_count} > D_m={d_count}"
                )
            if d_oracle is not None and Fraction(k_count, norm) > d_oracle:
                raise AssertionError(
                    f"interior jump exceeds the exact jump at m={m}, lambda={lam}"
                )
            rows.append(ResultRow(
                cfg.label, "dirichlet", m, lam, d_m=d_count / norm, d_prime_m=k_count / norm,
                d_oracle=None if d_oracle is None else float(d_oracle),
            ))
    return rows, {
        "timings_s": {"total": time.perf_counter() - t0},
        "diagnostics": diagnostics,
        "oracle": oracle,
    }


def hofstadter_flux_list(q_max: int) -> list[Fraction]:
    fluxes = {Fraction(0), Fraction(1)}
    for q in range(1, q_max + 1):
        for p in range(1, q):
            if gcd(p, q) == 1:
                fluxes.add(Fraction(p, q))
    return sorted(fluxes)


def run_butterfly(cfg: ExperimentConfig) -> tuple[list[tuple], dict]:
    """Band intervals of the square-lattice family per rational flux, in
    closed form from two fibers per flux (``hofstadter_band_edges``).
    The operator is the DML unless the model section asks for ``harper``.
    A model outside ``_square_family``, or one with a weights section
    other than the default, is a ConfigError: the flux is swept, so
    weights (fault-injection knobs included) would be dropped unread.
    Asserts the alpha -> 1 - alpha reflection symmetry of the band data
    (about the valence for the Laplacian, about zero for the hopping
    operator) before returning.  Its ``diagnostics`` hold one entry per
    flux: p, q, the fiber dimension and the fibers diagonalized."""
    t0 = time.perf_counter()
    graph = square_lattice()
    if cfg.model is not None:
        if not _square_family(cfg.model):
            raise ConfigError(
                "butterfly sweeps the Harper or DML operator on square_lattice(), not this model"
            )
        if cfg.model.weights != WeightSpec():
            raise ConfigError("butterfly sweeps the flux: its model takes no weights section")
    use_dml = cfg.model is None or cfg.model.operator == "dml"
    build = dml_operator if use_dml else harper_operator
    center = 4.0 if use_dml else 0.0
    fluxes = hofstadter_flux_list(cfg.butterfly.q_max)

    def bands_at(flux: Fraction) -> tuple[list[Band], dict]:
        cell = magnetic_cell(graph, build(graph, hofstadter_weights(graph, flux)), flux)
        bands = list(hofstadter_band_edges(cell))
        diag = {
            "p": flux.numerator, "q": flux.denominator, "dim": cell.dim,
            "fibers": cell.fibers_diagonalized,
        }
        return bands, diag

    per_flux = [bands_at(flux) for flux in fluxes]
    all_bands = {flux: bands for flux, (bands, _) in zip(fluxes, per_flux)}
    for flux in fluxes:
        mirror = 1 - flux
        if mirror not in all_bands:
            continue
        got = sorted((b.lo, b.hi) for b in all_bands[flux])
        reflected = sorted(
            (2 * center - b.hi, 2 * center - b.lo) for b in all_bands[mirror]
        )
        worst = max(
            max(abs(a - c), abs(b - d)) for (a, b), (c, d) in zip(got, reflected)
        )
        if worst > 1e-6:
            raise AssertionError(
                f"butterfly reflection symmetry broken at flux {flux}: {worst:.3e}"
            )
    records = []
    for flux in fluxes:
        for i, band in enumerate(all_bands[flux]):
            records.append(
                (flux.numerator, flux.denominator, float(flux), i, band.lo, band.hi)
            )
    return records, {
        "timings_s": {"total": time.perf_counter() - t0},
        "diagnostics": [diag for _, diag in per_flux],
    }


DEFAULT_VERIFY_MODELS = """
models:
  - label: line-uniform
    graph: {dimension: 1, orbits: 1, templates: [[0, 0, [1]]]}
    weights: {kind: uniform}
    operator: dml
  - label: square-flux-half
    graph: {dimension: 2, orbits: 1, templates: [[0, 0, [1, 0]], [0, 0, [0, 1]]]}
    weights: {kind: hofstadter, flux: "1/2"}
    operator: dml
  - label: square-flux-third
    graph: {dimension: 2, orbits: 1, templates: [[0, 0, [1, 0]], [0, 0, [0, 1]]]}
    weights: {kind: hofstadter, flux: "1/3"}
    operator: dml
  - label: triangle-cells
    graph: {dimension: 1, orbits: 3, templates: [[0, 1, [0]], [1, 2, [0]], [0, 2, [0]]]}
    weights: {kind: uniform}
    operator: dml
"""


def run_verify(cfg: ExperimentConfig) -> tuple[list[CheckResult], dict]:
    """Run every named invariant check over the configured models plus the
    model-independent suites.  Returns the full result list; the caller
    decides the exit code from the pass flags.  The manifest's
    ``diagnostics`` hold one entry per check that reports run facts
    (today the inertia oracle), tagged with the check's name."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(cfg.seed)
    specs = list(cfg.models)
    if cfg.model is not None:
        specs.insert(0, cfg.model)
    if not specs:
        from .config import parse_config

        specs = list(parse_config(DEFAULT_VERIFY_MODELS, "verify-default").models)
    results: list[CheckResult] = []
    timings: dict[str, float] = {}
    for spec in specs:
        model = build_model(spec)
        mut = ModelUnderTest(
            label=spec.label,
            graph=model.graph,
            weights=model.weights,
            operator=model.operator,
            window_sizes=cfg.verify.window_sizes,
            interior_radius=cfg.interior_radius,
        )
        results.extend(model_suite(mut, rng, timings))
    results.extend(global_suite(rng, cfg.verify.inertia_instances, timings))
    return results, {
        "timings_s": {"total": time.perf_counter() - t0, **timings},
        "diagnostics": [{"check": r.name, **r.diagnostics} for r in results if r.diagnostics],
    }


def verify_report(results: Sequence[CheckResult]) -> dict:
    return {
        "passed": all(r.passed for r in results),
        "num_checks": len(results),
        "failures": [r.name for r in results if not r.passed],
        "checks": [r.as_dict() for r in results],
    }
