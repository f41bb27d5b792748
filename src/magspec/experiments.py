"""Experiment drivers and file outputs.

Four drivers: convergence tables (window counting function vs quadrature
ground truth), jump tables (window jumps, interior jumps, exact jumps),
butterfly band tables over rational fluxes, and the named-check
verification report.  All tabular output is written with 17 significant
digits and assembled in a fixed key order, so identical config + seed
reproduces byte-identical CSV; wall-clock timings go to the run manifest
instead (they cannot be deterministic), together with per-window
diagnostics (dimension, nonzeros, connected blocks, half-bandwidth and
eigenvalue solver of each window matrix; for converge also the distance
from each counting point to the window's nearest eigenvalue), per-flux
butterfly diagnostics (fiber dimension and the fibers diagonalized on the
grid and in the band edge refinement) or the inertia oracle's run facts
for verify.  Every driver returns its rows plus a dict of the manifest
sections the run adds: ``timings_s`` and ``diagnostics``, and for
converge ``oracle``, the quadrature value and error bound per counting
point.
"""

from __future__ import annotations

import csv
import json
import time
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
    build_model,
    config_digest,
)
from .exhaustion import folner_box, interior_vertices, window_subgraph
from .floquet import (
    Band,
    IdsEstimate,
    MagneticCell,
    OracleUnavailableError,
    band_edge_distance,
    band_edges,
    ids_oracle,
    jump_oracle,
    magnetic_cell,
    merged_intervals,
)
from .operators import harper_dml, hofstadter_weights
from .lattice import square_lattice
from .spectra import (
    WindowMatrix,
    WindowSpectrum,
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
    """Run manifest: tool and library versions, config digest, seed,
    outputs, and the sections the driver returned in ``info``."""
    import scipy

    manifest = {
        "tool": {"name": "magspec", "version": __version__},
        "config_sha256": config_digest(config_text),
        "seed": seed,
        "libraries": {"numpy": np.__version__, "scipy": scipy.__version__},
        "outputs": outputs,
        "written_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        **info,
    }
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def ordered_parallel(fn: Callable, items: Sequence) -> list:
    """The drivers' map, in input order and serial.  On a two-core machine
    a thread pool made the dense LAPACK calls compete with OpenBLAS's own
    threads: same rows, more CPU time and memory, no shorter run."""
    return [fn(x) for x in items]


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


def _diagnostics(m: int, boundary: str, A: WindowMatrix, spec: WindowSpectrum) -> dict:
    return {
        "m": m,
        "boundary": boundary,
        "dim": A.dim,
        "nnz": A.nnz,
        "blocks": spec.blocks,
        "bandwidth": spec.bandwidth,
        "solver": spec.solver,
    }


def _window_spectrum(model: BuiltModel, m: int, boundary: str) -> tuple[WindowSpectrum, dict]:
    win = window_subgraph(model.graph, folner_box(model.graph.dimension, m))
    if boundary == "dirichlet":
        A = dirichlet_matrix(model.operator, win)
    else:  # "neumann", the only other boundary parse_config admits
        if model.spec.operator != "dml":
            raise ConfigError(
                "neumann boundary is defined for the Laplacian only; "
                f"got operator {model.spec.operator!r}"
            )
        A = neumann_matrix(model.graph, model.weights, win)
    spec = spectral_density(A, win)
    return spec, _diagnostics(m, boundary, A, spec)


def _boundaries(cfg: ExperimentConfig) -> list[str]:
    return ["dirichlet", "neumann"] if cfg.boundary == "both" else [cfg.boundary]


BAND_EDGE_EXCLUSION = 1e-3  # counting points closer than this are flagged


def run_converge(cfg: ExperimentConfig) -> tuple[list[ResultRow], dict]:
    """Counting-function table F_m(lambda) per window, with quadrature
    ground truth and error column when the oracle applies.  Rows sorted by
    (lambda, m, boundary).  Counting points inside the default band-edge
    exclusion are flagged (their oracle columns stay empty) rather than
    failed, unless the config opts in to band-edge evaluation."""
    if cfg.model is None:
        raise ConfigError("converge needs a model section")
    t0 = time.perf_counter()
    model = build_model(cfg.model)

    cell = None
    estimates: dict[float, Optional[IdsEstimate]] = {}
    if cfg.oracle.compare:
        try:
            cell = _oracle_cell(model)
        except OracleUnavailableError as exc:
            raise ConfigError(
                f"oracle comparison requested but unavailable: {exc}"
            ) from None
    if cfg.lambdas.kind == "explicit":
        lams = sorted(cfg.lambdas.values)
    else:
        if cell is None:
            raise ConfigError("auto lambda selection needs the oracle")
        lams = select_probe_lambdas(
            band_edges(cell), cfg.lambdas.count, cfg.lambdas.margin
        )
    if cell is not None:
        def oracle_at(lam: float) -> Optional[IdsEstimate]:
            if not cfg.oracle.allow_band_edge and band_edge_distance(cell, lam) < BAND_EDGE_EXCLUSION:
                return None
            return ids_oracle(
                cell, lam, cfg.oracle.grid_n,
                allow_band_edge=cfg.oracle.allow_band_edge,
            )

        estimates = dict(zip(lams, ordered_parallel(oracle_at, lams)))

    tasks = [(m, bc) for m in cfg.windows for bc in _boundaries(cfg)]
    results = ordered_parallel(lambda t: _window_spectrum(model, t[0], t[1]), tasks)
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
    return rows, {
        "timings_s": {"total": time.perf_counter() - t0},
        "diagnostics": [diag for _, diag in results],
        "oracle": [
            {"lambda": lam, "value": None, "error_bound": None} if est is None
            else {"lambda": lam, "value": est.value, "error_bound": est.error_bound}
            for lam, est in estimates.items()
        ],
    }


def run_jumps(cfg: ExperimentConfig) -> tuple[list[ResultRow], dict]:
    """Jump table: window jumps D_m, interior jumps D'_m, and exact jumps
    where the model admits them.  The two kernel inequalities
    D'_m <= D_m and D'_m <= D are enforced rowwise at integer level."""
    if cfg.model is None:
        raise ConfigError("jumps needs a model section")
    t0 = time.perf_counter()
    model = build_model(cfg.model)
    try:
        cell = _oracle_cell(model)
    except OracleUnavailableError:
        cell = None
    try:
        jumps = jump_oracle(model.graph, model.operator, cell)
    except OracleUnavailableError:
        jumps = None

    if jumps is not None:
        lams = [lam for lam, _ in jumps]
        oracle_map = {lam: d for lam, d in jumps}
    elif cfg.lambdas.kind == "explicit":
        lams = sorted(cfg.lambdas.values)
        oracle_map = None
    else:
        raise ConfigError(
            "model admits no exact jump oracle; provide explicit lambdas"
        )

    radius = (
        cfg.interior_radius
        if cfg.interior_radius is not None
        else model.operator.propagation
    )

    def one_window(m: int):
        win = window_subgraph(model.graph, folner_box(model.graph.dimension, m))
        A = dirichlet_matrix(model.operator, win)
        spec = spectral_density(A, win)
        split = interior_vertices(model.graph, win, radius)
        row_sums = np.bincount(A.rows, np.abs(A.vals), minlength=A.dim)
        tol = cfg.jump_tol_scale * max(float(row_sums.max(initial=0.0)), 1e-4)
        out = []
        for lam in lams:
            d_count = spec.jump_count(lam, tol)
            R = interior_restriction(model.operator, win, split, lam)
            k_count = rect_kernel_dim(R, 1e-8)
            norm = len(win.elements)
            d_oracle = None if oracle_map is None else oracle_map[lam]
            if k_count > d_count:
                raise AssertionError(
                    f"kernel inclusion violated at m={m}, lambda={lam}: "
                    f"D'={k_count} > D_m={d_count}"
                )
            if d_oracle is not None and Fraction(k_count, norm) > d_oracle:
                raise AssertionError(
                    f"interior jump exceeds the exact jump at m={m}, lambda={lam}"
                )
            out.append(
                ResultRow(
                    cfg.label,
                    "dirichlet",
                    m,
                    lam,
                    d_m=d_count / norm,
                    d_prime_m=k_count / norm,
                    d_oracle=None if d_oracle is None else float(d_oracle),
                )
            )
        return out, _diagnostics(m, "dirichlet", A, spec)

    per_window = ordered_parallel(one_window, list(cfg.windows))
    rows = []
    for lam_i, lam in enumerate(lams):
        for res, _ in per_window:
            rows.append(res[lam_i])
    return rows, {
        "timings_s": {"total": time.perf_counter() - t0},
        "diagnostics": [diag for _, diag in per_window],
    }


def hofstadter_flux_list(q_max: int) -> list[Fraction]:
    fluxes = {Fraction(0), Fraction(1)}
    for q in range(1, q_max + 1):
        for p in range(1, q):
            if gcd(p, q) == 1:
                fluxes.add(Fraction(p, q))
    return sorted(fluxes)


def run_butterfly(cfg: ExperimentConfig) -> tuple[list[tuple], dict]:
    """Band intervals of the square-lattice family per rational flux.
    Asserts the alpha -> 1 - alpha reflection symmetry of the band data
    (about the valence for the Laplacian, about zero for the hopping
    operator) before returning.  Its ``diagnostics`` hold one entry per
    flux: p, q, the fiber dimension, the grid fibers and the distinct
    momenta the band edge refinement diagonalized."""
    t0 = time.perf_counter()
    graph = square_lattice()
    use_dml = cfg.model is None or cfg.model.operator != "harper"
    center = 4.0 if use_dml else 0.0
    fluxes = hofstadter_flux_list(cfg.butterfly.q_max)

    grid_fibers = cfg.butterfly.grid_n ** graph.dimension

    def bands_at(flux: Fraction) -> tuple[list[Band], dict]:
        weights = hofstadter_weights(graph, flux)
        harper, dml = harper_dml(graph, weights)
        op = dml if use_dml else harper
        cell = magnetic_cell(graph, op, flux)
        bands = list(band_edges(cell, cfg.butterfly.grid_n))
        diag = {
            "p": flux.numerator, "q": flux.denominator, "dim": cell.dim,
            "grid_fibers": grid_fibers,
            "refine_fibers": cell.fibers_diagonalized - grid_fibers,
        }
        return bands, diag

    per_flux = ordered_parallel(bands_at, fluxes)
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
