"""Bloch-Floquet ground truth for rational-flux periodic operators.

For flux p/q the Landau-gauge phases are exactly periodic under the
sublattice that stretches the first axis by q, so the operator decomposes
over the torus into finite Hermitian fibers of dimension q * #orbits.
Band integrals of the fiber counting function give the limiting spectral
density (normalized so it saturates at #orbits), the eigenvalues that
every fiber shares (the flat bands) give the exact jump list, and fiber
trace moments cross-check the walk-based trace through an independent
computation.  Band edges come from a refined fiber grid search, or, where
``chambers_law`` accepts the cell (the Landau-gauge square lattice), in
closed form from two fibers, which there also give the spectral density
exactly as a one-dimensional integral over the flux-0 law.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .exhaustion import distinct_rows
from .lattice import PeriodicGraph, Shift
from .operators import LocalOperator, gamma_trace_power

PERIODICITY_TOL = 1e-13
BAND_EDGE_EXCLUSION = 1e-3  # ids_oracle refuses counting points this close to an edge
BAND_JOIN_TOL = 1e-9   # gap below which merged_intervals joins two bands
CHAMBERS_NODES = 64    # Gauss-Legendre nodes per smooth piece of the flux-0 law
CHAMBERS_ROUNDING = 1e-14  # rounding of the quadrature sums, added to the bound
CHAMBERS_TOL = 1e-9    # relative characteristic-polynomial residual of the relation
CHAMBERS_PROBE_K = (0.7123, 0.3217)  # generic momentum at which the relation is checked
# generic momenta (first d components) at which jump_oracle reads the fiber
# multiplicities: a dispersive band meets one value at all three only by chance
JUMP_PROBE_K = ((0.7123, 0.3217, 0.5309), (1.9371, 2.4607, 1.1173), (4.1593, 5.3029, 3.7311))
JUMP_CLUSTER_TOL = 1e-9  # eigenvalue cluster gap, relative to the largest |eigenvalue|
# Complex entries per stack of fibers diagonalized at once: 4 MiB, plus
# eigvalsh's copy.  The grid chunks used to be 16 times larger, which for
# 3 x 3 fibers held a whole 512^2 grid (64 MiB) at once and ran no faster.
FIBER_CHUNK_ENTRIES = 1 << 18


class OracleUnavailableError(RuntimeError):
    """Model outside the oracle's domain (irrational flux, a stencil that is
    not periodic, no flat band)."""


class BandEdgeError(RuntimeError):
    """Counting point too close to a band edge for quadrature ground truth."""


@dataclass(eq=False)
class MagneticCell:
    """Enlarged unit cell of a q-periodic stencil plus its hop matrices.

    ``hops[n]`` maps the cell at the origin of the coarse lattice to the
    cell at coarse offset n; the fiber at momentum k is the Fourier sum of
    the hops.  Fiber index order is (column within cell, orbit).
    """

    graph: PeriodicGraph
    op: LocalOperator
    q: int
    dim: int
    hops: dict[Shift, np.ndarray]
    fibers_diagonalized: int = 0  # momenta diagonalized by _fiber_eigs so far
    _grid_cache: dict[int, np.ndarray] = field(default_factory=dict)
    _flat_cache: dict[int, np.ndarray] = field(default_factory=dict)
    _band_cache: dict[int, tuple] = field(default_factory=dict)


def _flux_denominator(flux) -> int:
    if flux is None:
        raise OracleUnavailableError("weights carry no flux parameter; no oracle")
    if isinstance(flux, Fraction):
        return flux.denominator
    if isinstance(flux, int):
        return 1
    raise OracleUnavailableError(
        f"irrational flux {flux!r} rejected: the Floquet oracle needs p/q"
    )


def magnetic_cell(graph: PeriodicGraph, op: LocalOperator, flux) -> MagneticCell:
    """Build the enlarged cell for a stencil that is exactly periodic under
    q Z x Z^(d-1), with q the flux denominator.  Periodicity of the
    coefficients is verified numerically and violations are rejected."""
    q = _flux_denominator(flux)
    d = graph.dimension
    norb = graph.num_orbits
    dim = q * norb
    reps = np.zeros((q, d), dtype=np.int64)  # the cell's columns c = 0..q-1
    reps[:, 0] = np.arange(q)
    steps = np.eye(d, dtype=np.int64)
    steps[0, 0] = q  # one coarse step, then a unit step along each transverse axis

    hops: dict[Shift, np.ndarray] = {}
    for orbit in range(norb):
        for ent in op.entries.get(orbit, ()):
            coeffs = ent.coeff(reps)
            for j, step in enumerate(steps):
                if np.abs(ent.coeff(reps + step) - coeffs).max() > PERIODICITY_TOL:
                    raise OracleUnavailableError(
                        "stencil is not periodic under the enlarged cell" if j == 0
                        else "stencil coefficients depend on a transverse translate"
                    )
            for c in range(q):
                t0 = c + ent.offset[0]
                c2 = t0 % q
                n = ((t0 - c2) // q,) + tuple(ent.offset[1:])
                block = hops.setdefault(n, np.zeros((dim, dim), dtype=complex))
                row = c2 * norb + ent.target_orbit
                col = c * norb + orbit
                block[row, col] += coeffs[c]
    for n, block in hops.items():
        rev = hops.get(tuple(-x for x in n))
        if rev is None or np.abs(rev - block.conj().T).max() > 1e-12:
            raise OracleUnavailableError("hop matrices are not Hermitian-paired")
    return MagneticCell(graph, op, q, dim, hops)


def _fibers(cell: MagneticCell, kpts: np.ndarray) -> np.ndarray:
    """Hermitian fibers at a stack of torus momenta, shape (len(kpts),
    dim, dim): the sum of hops weighted by e^{i k . n} over coarse
    offsets n.  Each nonzero hop entry is added in place, so no temporary
    the size of the stack is made per hop."""
    H = np.zeros((kpts.shape[0], cell.dim, cell.dim), dtype=complex)
    for n, block in cell.hops.items():
        e = np.exp(1j * (kpts @ np.asarray(n, dtype=float)))
        for r, c in zip(*np.nonzero(block)):
            H[:, r, c] += e * block[r, c]
    return H


def _fiber_eigs(cell: MagneticCell, kpts: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of the fibers at each momentum, shape
    (len(kpts), dim); fibers are built and diagonalized in chunks of at
    most FIBER_CHUNK_ENTRIES matrix entries (one fiber when a single fiber
    is larger).  ``eigvalsh`` treats each matrix of a stack on its own, so
    the chunking does not change a bit.  Adds len(kpts) to the cell's
    ``fibers_diagonalized``."""
    eigs = np.empty((kpts.shape[0], cell.dim), dtype=float)
    chunk = max(1, FIBER_CHUNK_ENTRIES // max(1, cell.dim * cell.dim))
    for start in range(0, kpts.shape[0], chunk):
        eigs[start : start + chunk] = np.linalg.eigvalsh(_fibers(cell, kpts[start : start + chunk]))
    cell.fibers_diagonalized += kpts.shape[0]
    return eigs


def _distinct_fiber_eigs(cell: MagneticCell, kpts: np.ndarray) -> np.ndarray:
    """``_fiber_eigs`` at every row of kpts, diagonalizing each distinct
    momentum once.  Rows are matched on their exact bit patterns, so +0.0
    and -0.0 stay apart; ``eigvalsh`` treats each matrix of a stack on its
    own, so every eigenvalue has the bits of a direct call."""
    keys = np.ascontiguousarray(kpts, dtype=float).view(np.int64)
    distinct, inverse = distinct_rows(keys)
    return _fiber_eigs(cell, distinct.view(float))[inverse]


def bloch_fiber(cell: MagneticCell, k) -> np.ndarray:
    """Hermitian fiber at torus momentum k: sum of hops weighted by
    e^{i k . n} over coarse offsets n."""
    return _fibers(cell, np.asarray(k, dtype=float)[None, :])[0]


def _midpoints(N: int) -> np.ndarray:
    return (np.arange(N) + 0.5) * (2.0 * np.pi / N)


def _mesh(axes) -> np.ndarray:
    """Points of the product grid of the given axes, shape (#points, d)."""
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


def fiber_grid_eigs(cell: MagneticCell, N: int) -> np.ndarray:
    """Eigenvalues of all fibers on the N^d midpoint grid, shape
    (N^d, dim), each row ascending.  Cached per N."""
    cached = cell._grid_cache.get(N)
    if cached is None:
        cached = _fiber_eigs(cell, _mesh([_midpoints(N)] * cell.graph.dimension))
        cell._grid_cache[N] = cached
    return cached


def _sorted_flat_eigs(cell: MagneticCell, N: int) -> np.ndarray:
    cached = cell._flat_cache.get(N)
    if cached is None:
        cached = np.sort(fiber_grid_eigs(cell, N).ravel())
        cell._flat_cache[N] = cached
    return cached


def grid_ids(cell: MagneticCell, lam: float, N: int) -> float:
    """Midpoint-rule value of the normalized counting integral at grid N."""
    flat = _sorted_flat_eigs(cell, N)
    d = cell.graph.dimension
    return float(np.searchsorted(flat, lam, side="right") / (cell.q * N**d))


@dataclass(frozen=True)
class IdsEstimate:
    """A value of the limiting spectral density and its error bound, with
    the coarse and fine values behind the bound and the coarse resolution
    (grid side N for ``ids_oracle``, Gauss nodes per piece for
    ``ChambersLaw.ids``)."""

    value: float
    error_bound: float
    coarse: float
    fine: float
    grid: int


def ids_oracle(
    cell: MagneticCell, lam: float, N: int = 128, allow_band_edge: bool = False
) -> IdsEstimate:
    """Quadrature estimate of the limiting spectral density at lam.

    Uses the N and 2N midpoint grids; the reported bound is the
    Richardson-style difference (doubled, plus one grid point's weight) so
    the two grid values always differ by less than it.  Counting points
    within BAND_EDGE_EXCLUSION of a ``band_edges`` edge raise BandEdgeError
    unless allow_band_edge is set, because the integrand is discontinuous
    there.
    """
    if N < 8:
        raise ValueError("grid must have N >= 8")
    if not allow_band_edge:
        dist = min(abs(lam - e) for band in band_edges(cell) for e in (band.lo, band.hi))
        if dist < BAND_EDGE_EXCLUSION:
            raise BandEdgeError(f"band-edge lambda: {lam} is {dist:.2e} from an edge")
    coarse = grid_ids(cell, lam, N)
    fine = grid_ids(cell, lam, 2 * N)
    d = cell.graph.dimension
    bound = 2.0 * abs(fine - coarse) + 1.0 / (cell.q * (2 * N) ** d)
    return IdsEstimate(fine, bound, coarse, fine, N)


@dataclass(frozen=True)
class Band:
    lo: float
    hi: float


def band_edges(cell: MagneticCell, N: int = 64) -> tuple[Band, ...]:
    """Per-band spectral intervals: grid extrema of each sorted fiber
    eigenvalue branch, refined by nested local grids (5 points per axis,
    spacing halved 14 times), all extrema in lockstep.  Derivative-free, so
    band crossings (where the sorted band function is only continuous) are
    handled too.  Cached per N.

    Each round builds the local grids of all 2 * dim extrema as one array
    and diagonalizes every distinct momentum of the round once (the
    extrema often share a momentum).  The grid axes reproduce
    ``np.linspace(k - h, k + h, 5)`` bit for bit and points are matched
    on their exact bits, so the edges, and the CSVs written from them,
    stay byte-identical to one linspace grid and one diagonalization per
    extremum."""
    if N < 64:
        raise ValueError("band location needs a grid of N >= 64")
    cached = cell._band_cache.get(N)
    if cached is not None:
        return cached
    eigs = fiber_grid_eigs(cell, N)
    dim, d = cell.dim, cell.graph.dimension
    rows = np.arange(2 * dim)
    band = rows % dim  # rows 0..dim-1 seek each band's minimum, the rest its maximum
    start = np.concatenate([eigs.argmin(axis=0), eigs.argmax(axis=0)])
    k = _mesh([_midpoints(N)] * d)[start]
    corners = _mesh([np.arange(5)] * d)  # (5^d, d) axis index of each local grid point
    h = np.pi / N
    for _ in range(14):
        lo, hi = k - h, k + h
        axes = np.arange(5.0) * ((hi - lo) / 4)[..., None] + lo[..., None]  # np.linspace's steps
        axes[..., -1] = hi
        grids = axes[:, np.arange(d), corners]  # (2 * dim, 5^d, d)
        vals = _distinct_fiber_eigs(cell, grids.reshape(-1, d)).reshape(2 * dim, -1, dim)[rows, :, band]
        idx = np.where(rows < dim, vals.argmin(axis=1), vals.argmax(axis=1))
        k = grids[rows, idx]
        h *= 0.5
    best = vals[rows, idx]
    grid = eigs[start, band]
    bands = [
        Band(min(float(best[b]), float(grid[b])), max(float(best[dim + b]), float(grid[dim + b])))
        for b in range(dim)
    ]
    out = tuple(sorted(bands, key=lambda band: (band.lo, band.hi)))
    cell._band_cache[N] = out
    return out


@lru_cache(maxsize=None)
def _clustered_rule(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes on [0, 1] mapped by u -> (1 - cos(pi u)) / 2,
    which clusters them at both ends, and their weights (the map's
    Jacobian included).  A square-root kink at an end of a piece becomes
    smooth in u, so the rule keeps its geometric convergence there."""
    u, w = np.polynomial.legendre.leggauss(nodes)
    u = 0.5 * (u + 1.0)
    return 0.5 * (1.0 - np.cos(np.pi * u)), 0.25 * np.pi * np.sin(np.pi * u) * w


def flux_zero_law(t: np.ndarray, nodes: int = CHAMBERS_NODES) -> np.ndarray:
    """G(t), the probability that 2 cos x + 2 cos y <= t for (x, y) uniform
    on the torus: the limiting spectral density of the flux-0 Harper
    operator.  G(t) = (1/pi) int_0^pi [1 - arccos(clip((t - 2 cos x)/2,
    -1, 1))/pi] dx, integrated on the pieces of [0, pi] cut at the kinks
    where the clip engages, each with ``nodes`` clustered Gauss nodes."""
    t = np.asarray(t, dtype=float)[:, None, None]
    y, w = _clustered_rule(nodes)
    kinks = np.arccos(np.clip((t[:, :, 0] + [-2.0, 2.0]) / 2.0, -1.0, 1.0))
    ends = np.zeros((t.shape[0], 1))
    cuts = np.sort(np.concatenate([ends, kinks, ends + np.pi], axis=1), axis=1)[:, :, None]
    width = np.diff(cuts, axis=1)
    x = cuts[:, :-1] + width * y
    g = 1.0 - np.arccos(np.clip((t - 2.0 * np.cos(x)) / 2.0, -1.0, 1.0)) / np.pi
    return (g * w * width).sum(axis=(1, 2)) / np.pi


@dataclass(frozen=True, eq=False)
class ChambersLaw:
    """Chambers' relation on a cell that passed ``chambers_law``: the
    fibers' eigenvalues at s = +4 (``top``), -4 (``bottom``) and 0
    (``zero``), and the ``check``'s residual, tol, c and c_tol."""

    top: np.ndarray
    bottom: np.ndarray
    zero: np.ndarray
    check: dict

    @property
    def bands(self) -> tuple[Band, ...]:
        """Exact per-band intervals, sorted as ``band_edges`` sorts them:
        the j-th fiber eigenvalue is monotone in s, so band j is swept out
        between s = 4 and s = -4 (Hofstadter, PRB 14, 2239, 1976)."""
        lo, hi = np.minimum(self.top, self.bottom), np.maximum(self.top, self.bottom)
        return tuple(sorted(map(Band, lo.tolist(), hi.tolist()), key=lambda b: (b.lo, b.hi)))

    def ids(self, lam: float) -> IdsEstimate:
        """Exact limiting spectral density at lam.  With D(lam) = det(lam -
        H) at s = 0, lam lies on band j at s = t_j = 4 D(lam) / D(e_j(+4)),
        e_j(+4) the j-th eigenvalue at s = 4.  s has the flux-0 law G, and
        band j is swept upward in s when e_j(+4) > e_j(-4), so it adds
        G(t_j) (else 1 - G(t_j)) when lam lies inside it and 1 when lam
        lies above it; F is the sum over q, continuous at the band edges.
        The error bound is the difference between the values at
        CHAMBERS_NODES and at half as many nodes, plus CHAMBERS_ROUNDING."""
        top, bottom, zero, q = self.top, self.bottom, self.zero, len(self.zero)

        def det(x) -> np.ndarray:
            return np.prod(np.subtract.outer(x, zero), axis=-1)

        lo, hi = np.minimum(top, bottom), np.maximum(top, bottom)
        inside = (lo < lam) & (lam < hi)
        t = np.clip(4.0 * det(lam) / det(top[inside]), -4.0, 4.0)
        rising = top[inside] > bottom[inside]
        below = np.count_nonzero(hi <= lam)

        def value(nodes: int) -> tuple[float, np.ndarray]:
            law = flux_zero_law(t, nodes)
            return float(below + np.where(rising, law, 1.0 - law).sum()) / q, law

        fine, law_fine = value(CHAMBERS_NODES)
        coarse, law_coarse = value(CHAMBERS_NODES // 2)
        bound = float(np.abs(law_fine - law_coarse).sum()) / q + CHAMBERS_ROUNDING
        return IdsEstimate(fine, bound, coarse, fine, CHAMBERS_NODES // 2)


def chambers_law(cell: MagneticCell) -> ChambersLaw:
    """Check Chambers' relation (Phys. Rev. 140, A135, 1965) on the cell:
    det(lam - H(k)) = D(lam) - c s(k), s(k) = 2 cos k1 + 2 cos(q k2), k1
    the momentum of the q-stretched axis.  The fibers at s = 4, -4, 0
    (k = (0, 0), (pi, pi/q), (pi/2, pi/2q)) and CHAMBERS_PROBE_K are
    diagonalized as one stack; their characteristic polynomials about the
    mean eigenvalue at s = 0 (which keeps c, and the constant terms O(1))
    must differ from the one at s = 0 by -c s alone, within tol =
    CHAMBERS_TOL * max(1, largest coefficient), with |c| > c_tol =
    CHAMBERS_TOL * max(1, largest constant term).  On the square lattice
    it passes at every p/q with q <= 36 by a factor of 500 (and to q = 58
    with numpy 2.4).  Raises OracleUnavailableError on a cell that is not
    2D with one orbit or whose fibers break the relation."""
    if cell.graph.dimension != 2 or cell.graph.num_orbits != 1:
        raise OracleUnavailableError("Chambers' relation needs two dimensions and one orbit")
    q = cell.q
    k1, k2 = CHAMBERS_PROBE_K
    kpts = np.array([[0.0, 0.0], [np.pi, np.pi / q], [np.pi / 2, np.pi / (2 * q)], [k1, k2]])
    eigs = _fiber_eigs(cell, kpts)
    top, bottom, zero, _ = eigs
    coeffs = np.zeros((q + 1, 4))  # column i: np.poly(eigs[i] - mean), as one recursion
    coeffs[0] = 1.0
    for j, r in enumerate((eigs - zero.mean()).T):
        coeffs[1 : j + 2] -= r * coeffs[: j + 1]
    shifts = coeffs[:, [0, 1, 3]] - coeffs[:, 2:3]
    c = -shifts[-1, 0] / 4.0
    shifts[-1] += c * np.array([4.0, -4.0, 2.0 * np.cos(k1) + 2.0 * np.cos(q * k2)])
    check = {"residual": float(np.abs(shifts).max()), "c": float(c),
             "tol": CHAMBERS_TOL * max(1.0, float(np.abs(coeffs[:, 2]).max())),
             "c_tol": CHAMBERS_TOL * max(1.0, float(np.abs(coeffs[-1]).max()))}
    if check["residual"] > check["tol"] or not abs(c) > check["c_tol"]:
        raise OracleUnavailableError(f"the fibers break Chambers' relation {check}; no exact oracle")
    return ChambersLaw(top, bottom, zero, check)


def merged_intervals(bands) -> list[tuple[float, float]]:
    """Union of band intervals as disjoint intervals (bands closer than
    BAND_JOIN_TOL merge)."""
    out: list[list[float]] = []
    for band in sorted(bands, key=lambda b: (b.lo, b.hi)):
        if out and band.lo <= out[-1][1] + BAND_JOIN_TOL:
            out[-1][1] = max(out[-1][1], band.hi)
        else:
            out.append([band.lo, band.hi])
    return [(a, b) for a, b in out]


class Jump(NamedTuple):
    """An exact jump of F at lam: D(lam) = mu / q, the multiplicity of lam
    at each JUMP_PROBE_K momentum (mu is the least) and the spread of its
    cluster across the three fibers."""

    lam: float
    dimension: Fraction
    multiplicities: tuple[int, ...]
    spread: float


def jump_oracle(cell: MagneticCell) -> list[Jump]:
    """Exact jumps of a rational-flux periodic operator.

    F jumps at lam by D(lam) = mu(lam) / q, with mu(lam) the multiplicity
    of lam in the fiber H(k) at almost every k: exactly at the flat bands,
    where compactly supported eigenfunctions live (Kuchment, Bull. AMS 53,
    343, 2016).  The fibers at the generic momenta JUMP_PROBE_K are
    diagonalized, and each one's eigenvalues cut into clusters where
    neighbours lie more than tol apart, tol = JUMP_CLUSTER_TOL * max(1,
    largest |eigenvalue|).  A cluster of the first fiber whose mean lies within tol of a
    cluster mean of each other fiber is a jump, at the first mean, with mu
    the least cluster size.  Raises OracleUnavailableError when the three
    fibers share no value."""
    d = cell.graph.dimension
    eigs = _fiber_eigs(cell, np.array(JUMP_PROBE_K)[:, :d])
    tol = JUMP_CLUSTER_TOL * max(1.0, float(np.abs(eigs).max()))
    first, *others = [np.split(e, np.flatnonzero(np.diff(e) > tol) + 1) for e in eigs]
    jumps = []
    for cluster in first:
        lam = float(np.mean(cluster))
        members = [cluster] + [
            next((c for c in clusters if abs(np.mean(c) - lam) <= tol), None) for clusters in others
        ]
        if any(c is None for c in members):
            continue
        counts = tuple(len(c) for c in members)
        spread = float(np.ptp(np.concatenate(members)))
        jumps.append(Jump(lam, Fraction(min(counts), cell.q), counts, spread))
    if not jumps:
        raise OracleUnavailableError(
            "no exact jump oracle: the fibers at JUMP_PROBE_K share no eigenvalue"
        )
    return jumps


def moment_crosscheck(
    op: LocalOperator, cell: MagneticCell, n_max: int, N: int = 128
) -> float:
    """Max over n <= n_max of |walk trace of A^n - fiber quadrature moment|.

    The fiber moment is a trigonometric polynomial of low degree, so the
    midpoint rule is exact once N exceeds it; the walk side never touches
    the fibers, making this a two-channel identity check.
    """
    flat = _sorted_flat_eigs(cell, N)
    d = cell.graph.dimension
    denom = cell.q * N**d
    worst = 0.0
    for n in range(n_max + 1):
        fiber_moment = float(np.sum(flat**n) / denom)
        walk_moment = gamma_trace_power(op, n)
        worst = max(worst, abs(fiber_moment - walk_moment))
    return worst
