"""Window matrices and eigenvalue counting.

Every window matrix is read off the operator's stencil by one routine,
``operators.window_coo`` (``LocalOperator.triplets`` at the window's
vertices, with rows found by ``Window.positions``), and held as its
nonzero entries (``WindowMatrix``: sorted COO triplets, each position
once) up to the solvers: ``dirichlet_matrix`` and ``neumann_matrix``
build the square ones, ``interior_restriction`` the rectangular
A' - lam i'.  ``WindowMatrix.dense`` is the one place one becomes a
dense array, capped at MAX_DENSE_DIM: ``assemble_dirichlet`` and
``assemble_neumann`` (the dense matrices the checks and tests read),
the dense solver and the SVD of a connected interior restriction call
it.  The Neumann Laplacian is the Dirichlet compression of the magnetic
Laplacian minus a diagonal, so their difference is a nonnegative
diagonal on the boundary collar by construction.

Two counting backends count eigenvalues <= lam: full diagonalization and
LDL-inertia counting.  The inertia backend calls LAPACK
``hetrf`` (Bunch-Kaufman) on M - lam I and reads the inertia off the
eigenvalues of the factor's 1x1 and 2x2 diagonal blocks D, by Sylvester's
law; the triangular factor is never formed.  The backends agree away from
eigenvalues; they differ when the counting point essentially hits one.
The inertia backend then brackets it with a small shift and returns the
upper count, matching the right-continuity of the eigenvalue counting
function.  The diagonalization paths (``count_leq`` and
``WindowSpectrum``) keep the plain count of computed eigenvalues <= lam,
which there depends on rounding, and raise
``CountingPointOnEigenvalueWarning`` instead.

Window spectra (``spectral_density`` and ``count_leq``) and interior
kernels (``rect_kernel_dim``), which read dense input once through
``WindowMatrix.from_dense``, are computed one connected block of the
nonzero pattern at a time: a block-diagonal model such as the triangle
cells costs O(n) instead of a dense O(n^3) call, its equal-shape blocks
stacked straight from the entries.  A connected matrix whose nonzeros
lie within a narrow band (half-bandwidth b with BAND_RATIO * b <= n, as
a box window in its natural vertex order has) is diagonalized in LAPACK
band storage by ``hbevd``, at O(n^2 b) instead of O(n^3), from its
(b + 1) n lower-band entries.  Neither builds an n x n or n x k array or
has a dimension cap.  A connected matrix with a wide band takes the
plain dense call.

Jumps and kernel dimensions are floating-point notions here, so both are
defined through clusters with a validated gap, judged over the union of
all blocks' values: the caller gets an error ("unresolved cluster")
instead of a silently wrong multiplicity.

``one_blas_thread`` pins every loaded OpenBLAS to one thread for the
duration of a loop of small factorizations and diagonalizations, where a
second BLAS thread only spins.
"""

from __future__ import annotations

import ctypes
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.linalg.lapack import _compute_lwork, get_lapack_funcs

from .exhaustion import InteriorSplit, Window
from .operators import LocalOperator, WeightFunction, harper_dml, window_coo

MAX_DENSE_DIM = 5000
SHIFT_SCALE = 1e-10       # bracketing shift, relative to the norm bound
ZERO_PIVOT_SCALE = 5e-14  # relative block-eigenvalue size treated as singular
# A connected matrix of half-bandwidth b >= 1 is diagonalized in band
# storage when BAND_RATIO * b <= n.  Band hbevd against dense heevd, wall
# time on 2 cores (OpenBLAS): Hofstadter boxes (n, b) = (2304, 48) 0.74 s
# vs 1.27 s and (1024, 32) 0.10 s vs 0.14 s; random band matrices break
# even near n / b = 20 ((1024, 48) 1.02x the dense time) and lose below it
# ((1024, 64) 1.32x, (256, 32) 1.22x).  32 keeps a margin over the
# crossover; the table is in the README.
BAND_RATIO = 32

_HETRF, _HETRF_LWORK = get_lapack_funcs(("hetrf", "hetrf_lwork"), dtype=np.complex128)
_HBEVD = get_lapack_funcs("hbevd", dtype=np.complex128)


# (prefix, suffix) of the thread-control symbols an OpenBLAS build exports:
# plain, ILP64, and the scipy-openblas builds that numpy and scipy ship
_OPENBLAS_SYMBOLS = (
    ("openblas_", ""), ("openblas_", "64_"), ("scipy_openblas_", ""), ("scipy_openblas_", "64_"),
)


def _openblas_controls() -> list[tuple[str, Callable[[], int], Callable[[int], None]]]:
    """(library file name, get_num_threads, set_num_threads) for every
    OpenBLAS mapped into this process, found by path in /proc/self/maps.
    Empty without /proc or when no loaded library exports both symbols."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return []
    controls = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix, suffix in _OPENBLAS_SYMBOLS:
            try:
                get = getattr(lib, f"{prefix}get_num_threads{suffix}")
                set_ = getattr(lib, f"{prefix}set_num_threads{suffix}")
            except AttributeError:
                continue
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            controls.append((path.rsplit("/", 1)[-1], get, set_))
            break
    return controls


def blas_thread_counts() -> dict[str, int]:
    """Thread count of every loaded OpenBLAS, keyed by library file name
    (numpy and scipy each load their own)."""
    return {name: int(get()) for name, get, _ in _openblas_controls()}


@contextmanager
def one_blas_thread():
    """Run the body with every loaded OpenBLAS on one thread, then restore
    each library's previous count, also when the body raises.

    Meant for loops of small LAPACK calls (the inertia oracle's hetrf and
    reference spectra), where OpenBLAS keeps a second thread spinning for
    nothing and a loop that alternates numpy's and scipy's libraries makes
    one pool spin while the other works.  It is scoped, not process-wide:
    a dense eigvalsh at n = 2304 takes 1.6-2 times as long on one thread.
    Where no setter is found it does nothing: without /proc (no way to
    list the loaded libraries), or with a BLAS that is not OpenBLAS."""
    controls = _openblas_controls()
    previous = [(set_, int(get())) for _, get, set_ in controls]
    for set_, _ in previous:
        set_(1)
    try:
        yield
    finally:
        for set_, count in previous:
            set_(count)


class WindowTooLargeError(ValueError):
    """Window whose dense matrix would exceed the supported dimension."""


class UnresolvedClusterError(RuntimeError):
    """Eigenvalue or singular-value cluster without the required gap."""


class CountingPointOnEigenvalueWarning(RuntimeWarning):
    """Counting point within the bracketing shift of a computed eigenvalue:
    the diagonalization count there depends on rounding."""


def _warn_if_on_eigenvalue(evals: np.ndarray, lam: float) -> None:
    """Warn when an ascending spectrum has an eigenvalue within the
    bracketing shift of lam: SHIFT_SCALE times the largest |eigenvalue|,
    floored at 1e-14, as in inertia_bracket."""
    if evals.size == 0:
        return
    eps = max(SHIFT_SCALE * max(abs(evals[0]), abs(evals[-1])), 1e-14)
    lo = int(np.searchsorted(evals, lam - eps, side="left"))
    hi = int(np.searchsorted(evals, lam + eps, side="right"))
    if hi > lo:
        warnings.warn(
            f"counting point {float(lam)!r} is within {eps:.1e} of {hi - lo} eigenvalue(s); "
            f"the count there lies between {lo} and {hi} and depends on rounding",
            CountingPointOnEigenvalueWarning,
            stacklevel=3,
        )


@dataclass(frozen=True, eq=False)
class WindowMatrix:
    """A matrix of shape ``shape`` held as its nonzero entries: ``rows``,
    ``cols`` and ``vals`` sorted by (row, column), each position once,
    which is what ``np.nonzero`` reads off the dense matrix.  Square and
    Hermitian for a window operator (``dim`` is then its dimension),
    rectangular for an interior restriction."""

    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    shape: tuple[int, int]

    @classmethod
    def from_dense(cls, M: np.ndarray) -> "WindowMatrix":
        rows, cols = np.nonzero(M)
        return cls(rows, cols, M[rows, cols], M.shape)

    @classmethod
    def from_triplets(
        cls, rows: np.ndarray, cols: np.ndarray, vals: np.ndarray, shape: int | tuple[int, int]
    ) -> "WindowMatrix":
        """The sum of COO triplets (shape an int for a square matrix), a
        position given more than once added up in input order (the
        additions ``np.add.at`` makes on a dense zero matrix, so every
        entry has the same bits), entries that sum to zero dropped."""
        shape = (shape, shape) if isinstance(shape, int) else shape
        width = shape[1]
        keys, inverse = np.unique(rows.astype(np.int64) * width + cols, return_inverse=True)
        summed = np.zeros(keys.size, dtype=complex)
        np.add.at(summed, inverse, vals)
        keep = summed != 0
        keys = keys[keep]
        return cls(keys // width, keys % width, summed[keep], shape)

    @property
    def dim(self) -> int:
        return self.shape[0]

    @property
    def nnz(self) -> int:
        return int(self.vals.size)

    def dense(self) -> np.ndarray:
        """The dense matrix; building one is capped at MAX_DENSE_DIM."""
        if max(self.shape) > MAX_DENSE_DIM:
            raise WindowTooLargeError(
                f"dense matrix of shape {self.shape} exceeds the cap {MAX_DENSE_DIM}; "
                "choose a smaller window"
            )
        M = np.zeros(self.shape, dtype=complex)
        M[self.rows, self.cols] = self.vals
        return M


def dirichlet_matrix(op: LocalOperator, window: Window) -> WindowMatrix:
    """Compression of the operator to functions supported on the window:
    entry (u, v) = <A delta_v, delta_u> for window vertices u, v, summed
    from the stencil's ``window_coo`` triplets with the targets off the
    window dropped.  Hermitian by construction (asserted)."""
    rows, cols, vals = window_coo(op, window)
    inside = rows >= 0
    A = WindowMatrix.from_triplets(rows[inside], cols[inside], vals[inside], len(window))
    _assert_hermitian(A)
    return A


def neumann_matrix(graph, weights: WeightFunction, window: Window) -> WindowMatrix:
    """Magnetic Laplacian of the induced finite subgraph: the Dirichlet
    compression of the Laplacian with each diagonal entry lowered by the
    vertex's valence minus its number of inner edges, so the diagonal
    counts the valence inside the window.  The lowering is added after
    the compression's own entries, as a subtraction from the dense
    diagonal would be.  Only defined for Laplacian-type operators, which
    is why this takes the graph and weights directly."""
    A = dirichlet_matrix(harper_dml(graph, weights)[1], window)
    tails, heads, _ = window.edge_ends()
    inner = np.bincount(np.concatenate([tails, heads]), minlength=len(window))
    valence = np.array([graph.valence(orb) for orb in range(graph.num_orbits)])
    drop = valence[window.orbits] - inner
    lowered = np.flatnonzero(drop)
    return WindowMatrix.from_triplets(
        np.concatenate([A.rows, lowered]),
        np.concatenate([A.cols, lowered]),
        np.concatenate([A.vals, -drop[lowered]]),
        A.dim,
    )


def assemble_dirichlet(op: LocalOperator, window: Window) -> np.ndarray:
    """``dirichlet_matrix`` as a dense matrix (capped at MAX_DENSE_DIM)."""
    return dirichlet_matrix(op, window).dense()


def assemble_neumann(
    graph, weights: WeightFunction, window: Window
) -> np.ndarray:
    """``neumann_matrix`` as a dense matrix (capped at MAX_DENSE_DIM)."""
    return neumann_matrix(graph, weights, window).dense()


def _assert_hermitian(A: WindowMatrix, tol: float = 1e-12) -> None:
    """Largest |A - A^*| entry against tol times the largest |A| entry (at
    least 1).  An entry of A - A^* is zero unless it or its mirror is a
    stored entry, and both have the same size, so the stored entries and
    their mirrors (found by binary search on the sorted positions) decide
    it without an n x n temporary."""
    if A.nnz == 0:
        return
    keys = A.rows.astype(np.int64) * A.dim + A.cols
    mirror = A.cols.astype(np.int64) * A.dim + A.rows
    at = np.minimum(np.searchsorted(keys, mirror), keys.size - 1)
    mirrored = np.where(keys[at] == mirror, A.vals[at], 0)
    scale = max(1.0, float(np.abs(A.vals).max()))
    resid = float(np.abs(A.vals - mirrored.conj()).max())
    if resid > tol * scale:
        raise AssertionError(f"restriction matrix is not Hermitian: residual {resid:.3e}")


def gershgorin_bound(M: np.ndarray) -> float:
    """Row-sum bound on the spectral radius; cheap and rigorous."""
    if M.size == 0:
        return 0.0
    return float(np.abs(M).sum(axis=1).max())


def count_leq(M: np.ndarray, lam: float) -> int:
    """Number of eigenvalues <= lam, counting multiplicity, by
    diagonalization as spectral_density does (per connected block, in band
    storage when the band is narrow); warns when lam is within the
    bracketing shift of an eigenvalue.  ``inertia_count_leq`` is the
    factorization backend.
    """
    evals = _block_spectrum(M)[0]
    _warn_if_on_eigenvalue(evals, lam)
    return int(np.searchsorted(evals, lam, side="right"))


def _inertia(M: np.ndarray, lam: float, zero_tol: float) -> tuple[int, int, int]:
    """(negative, zero, positive) counts of the eigenvalues of M - lam I,
    read off the block diagonal D of LAPACK hetrf's Bunch-Kaufman
    factorization P (M - lam I) P^T = L D L^* by Sylvester's law.  D has
    1x1 blocks and 2x2 Hermitian blocks; each 2x2 block starts at a pair
    of equal negative pivot indices.  NaN or inf input raises ValueError."""
    n = M.shape[0]
    B = np.array(M, dtype=complex, order="F")
    B[np.diag_indices(n)] -= lam
    if not np.isfinite(B).all():
        raise ValueError("array must not contain infs or NaNs")
    lwork = _compute_lwork(_HETRF_LWORK, n, lower=True)
    ldu, ipiv, info = _HETRF(B, lwork=lwork, lower=True, overwrite_a=True)
    if info < 0:
        raise ValueError(f"hetrf: illegal value in argument {-info}")
    eigs = ldu.diagonal().real.copy()
    first = np.flatnonzero(ipiv < 0)[::2]
    a, c, b = eigs[first], eigs[first + 1], ldu[first + 1, first]
    half = 0.5 * (a + c)
    # |b| through hypot(re, im), as abs() of a complex scalar does; numpy's
    # vectorized complex abs can differ in the last bit and move D's values
    disc = np.hypot(0.5 * (a - c), np.hypot(b.real, b.imag))
    eigs[first] = half - disc
    eigs[first + 1] = half + disc
    neg = int(np.count_nonzero(eigs < -zero_tol))
    zero = int(np.count_nonzero(np.abs(eigs) <= zero_tol))
    return neg, zero, n - neg - zero


def inertia_bracket(M: np.ndarray, lam: float) -> tuple[int, int]:
    """Counts at lam -/+ the bracketing shift (1e-10 of the norm bound).
    The two agree except when lam sits essentially on an eigenvalue."""
    norm = gershgorin_bound(M)
    eps = max(SHIFT_SCALE * norm, 1e-14)
    zero_tol = ZERO_PIVOT_SCALE * max(norm, 1e-300)
    lo_neg, lo_zero, _ = _inertia(M, lam - eps, zero_tol)
    hi_neg, hi_zero, _ = _inertia(M, lam + eps, zero_tol)
    if lo_zero or hi_zero:
        raise UnresolvedClusterError(
            f"factorization breakdown persists at {lam} +- {eps:.3e}"
        )
    return lo_neg, hi_neg + hi_zero


def inertia_count_leq(M: np.ndarray, lam: float) -> int:
    if M.shape[0] == 0:
        return 0
    norm = gershgorin_bound(M)
    zero_tol = ZERO_PIVOT_SCALE * max(norm, 1e-300)
    neg, zero, _ = _inertia(M, lam, zero_tol)
    if zero == 0:
        return neg
    # lam is numerically an eigenvalue: bracket and take the upper count,
    # which is the right-continuous reading of "eigenvalues <= lam"
    _, hi = inertia_bracket(M, lam)
    return hi


def _components(rows: np.ndarray, cols: np.ndarray, n: int) -> tuple[int, np.ndarray]:
    """Connected components of the undirected graph on n nodes with an
    edge per (row, col) pair: the block count and each node's block label,
    blocks numbered by their smallest node.

    Hook and compress: every root takes the smallest root across its
    edges, then pointers are jumped until each node points at a root.
    Pointers never increase, so this ends, and it ends only when no edge
    joins two roots.  (``scipy.sparse.csgraph`` gives the same labels, but
    importing it adds about 5 MiB to the resident set of a run.)"""
    parent = np.arange(n)
    while True:
        low = np.minimum(parent[rows], parent[cols])
        hooked = parent.copy()
        np.minimum.at(hooked, parent[rows], low)
        np.minimum.at(hooked, parent[cols], low)
        while not np.array_equal(jumped := hooked[hooked], hooked):
            hooked = jumped
        if np.array_equal(hooked, parent):
            break
        parent = hooked
    is_root = parent == np.arange(n)
    return int(is_root.sum()), (np.cumsum(is_root) - 1)[parent]


def _block_stacks(A: WindowMatrix, row_labels: np.ndarray, col_labels: np.ndarray, count: int):
    """The blocks of A, grouped by shape.  The labelings assign the row
    and the column indices to blocks 0..count-1, and every entry of A lies
    in one block.  Yields, per distinct shape (rows, cols) in ascending
    order, a stack (blocks of that shape, in block order) x rows x cols,
    written from the entries, each block's indices in ascending order."""
    labelings = (row_labels, col_labels)
    shapes = np.stack([np.bincount(labels, minlength=count) for labels in labelings], axis=1)
    local = []  # each index's place in its block
    for labels, size in zip(labelings, shapes.T):
        starts = np.cumsum(size) - size
        at = np.empty(labels.size, dtype=np.int64)
        at[np.argsort(labels, kind="stable")] = np.arange(labels.size) - np.repeat(starts, size)
        local.append(at)
    block = row_labels[A.rows]
    for shape in np.unique(shapes, axis=0):
        same = (shapes == shape).all(axis=1)
        mine = same[block]
        rows, cols = local[0][A.rows[mine]], local[1][A.cols[mine]]
        stack = np.zeros((int(same.sum()), *shape), dtype=complex)
        stack[(np.cumsum(same) - 1)[block[mine]], rows, cols] = A.vals[mine]
        yield stack


def _band_eigvals(A: WindowMatrix, b: int) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix of half-bandwidth b, from its b + 1
    lower diagonals in LAPACK lower band storage: ab[k, j] = A[j + k, j],
    written from the stored entries on or below the diagonal."""
    lower = A.rows >= A.cols
    ab = np.zeros((b + 1, A.dim), dtype=complex, order="F")
    ab[(A.rows - A.cols)[lower], A.cols[lower]] = A.vals[lower]
    evals, _, info = _HBEVD(ab, compute_v=0, lower=1, overwrite_ab=1)
    if info:
        raise np.linalg.LinAlgError(f"hbevd failed with info {info}")
    return evals


def _block_spectrum(M: np.ndarray | WindowMatrix) -> tuple[np.ndarray, int, int, str]:
    """Sorted eigenvalues of a Hermitian matrix, dense or a WindowMatrix
    (a dense one is read through ``np.nonzero``), the number of connected
    blocks of its nonzero pattern, its half-bandwidth max |i - j| over the
    nonzeros (0 without off-diagonal nonzeros) and the solver used.  The
    spectrum is the union of the blocks' spectra; equal-size blocks are
    diagonalized in one stacked call ("blocks"), written straight from the
    entries.  A connected matrix is diagonalized in band storage when
    BAND_RATIO * b <= n ("banded"), and by the plain dense call otherwise
    ("dense").  Only the dense solver builds the dense matrix, so only it
    is capped at MAX_DENSE_DIM."""
    A = M if isinstance(M, WindowMatrix) else WindowMatrix.from_dense(M)
    n = A.dim
    if n == 0:
        return np.zeros(0), 0, 0, "dense"
    b = int(np.abs(A.rows - A.cols).max()) if A.nnz else 0
    count, labels = _components(A.rows, A.cols, n)
    if count == 1:
        if 0 < BAND_RATIO * b <= n:
            return np.sort(_band_eigvals(A, b)), 1, b, "banded"
        return np.sort(np.linalg.eigvalsh(A.dense())), 1, b, "dense"
    parts = [np.linalg.eigvalsh(stack).ravel() for stack in _block_stacks(A, labels, labels, count)]
    return np.sort(np.concatenate(parts)), count, b, "blocks"


def _block_singular_values(R: WindowMatrix) -> np.ndarray:
    """Singular values of a rectangular matrix, one per column: the union
    over the connected blocks of its bipartite row/column nonzero graph,
    each r x c block padded with c - min(r, c) zeros.  Rows without a
    column add nothing; equal-shape blocks share one stacked call, written
    from the entries.  Only a connected matrix takes the dense SVD."""
    r, c = R.shape
    count, labels = _components(R.rows, R.cols + r, r + c)
    if count == 1:
        return np.concatenate([np.linalg.svd(R.dense(), compute_uv=False), np.zeros(c - min(r, c))])
    parts = []
    for stack in _block_stacks(R, labels[:r], labels[r:], count):
        blocks, rb, cb = stack.shape
        if rb and cb:
            parts.append(np.linalg.svd(stack, compute_uv=False).ravel())
        parts.append(np.zeros(blocks * (cb - min(rb, cb))))
    return np.concatenate(parts)


@dataclass(eq=False)
class WindowSpectrum:
    """Sorted spectrum of one window restriction plus the Folner
    normalization; evaluates the normalized counting function and its
    jumps.  ``blocks``, ``bandwidth`` and ``solver`` say how the spectrum
    was computed (see _block_spectrum)."""

    eigenvalues: np.ndarray
    normalization: int
    blocks: int = 1
    bandwidth: int = 0
    solver: str = "dense"

    def count_leq(self, lam: float) -> int:
        _warn_if_on_eigenvalue(self.eigenvalues, lam)
        return int(np.searchsorted(self.eigenvalues, lam, side="right"))

    def distance(self, lam: float) -> float:
        """Distance from lam to the nearest eigenvalue, read off the sorted
        spectrum (inf when it is empty)."""
        i = int(np.searchsorted(self.eigenvalues, lam))
        near = self.eigenvalues[max(i - 1, 0) : i + 1]
        return float(np.abs(near - lam).min(initial=np.inf))

    def ids(self, lam: float) -> float:
        """F_m(lam) = #{eigenvalues <= lam} / #Lambda_m.  Not bracketed:
        when lam is within the bracketing shift of an eigenvalue the value
        depends on rounding, and CountingPointOnEigenvalueWarning is raised."""
        return self.count_leq(lam) / self.normalization

    def jump_count(self, lam: float, tol: float) -> int:
        """Multiplicity of the eigenvalue cluster at lam.  The nearest
        eigenvalue outside [lam - tol, lam + tol] must be more than
        10 tol away, otherwise the cluster is unresolved."""
        if tol <= 0:
            raise ValueError("cluster tolerance must be positive")
        dist = np.abs(self.eigenvalues - lam)
        inside = dist <= tol
        outside = dist[~inside]
        if outside.size and outside.min() <= 10 * tol:
            raise UnresolvedClusterError(
                f"unresolved cluster at {lam}: nearest outside eigenvalue at "
                f"distance {outside.min():.3e} <= 10 tol"
            )
        return int(inside.sum())

    def jump(self, lam: float, tol: float) -> float:
        """D_m(lam) = cluster multiplicity / #Lambda_m."""
        return self.jump_count(lam, tol) / self.normalization


def spectral_density(M: np.ndarray | WindowMatrix, window: Window) -> WindowSpectrum:
    """Diagonalize a window matrix, dense or a WindowMatrix, once, one
    connected block at a time, and wrap the sorted spectrum with the
    window's Folner normalization."""
    evals, blocks, bandwidth, solver = _block_spectrum(M)
    return WindowSpectrum(evals, len(window.elements), blocks, bandwidth, solver)


def interior_restriction(
    op: LocalOperator, window: Window, split: InteriorSplit, lam: float
) -> WindowMatrix:
    """Matrix of (A' - lam i'): functions on the interior -> functions on
    the window, in window coordinates, summed from the stencil's
    ``window_coo`` entries at the interior columns with -lam added on the
    interior diagonal after them.

    The interior radius must dominate the operator's propagation bound so
    that no column can leak outside the window; leakage is checked exactly
    during assembly.
    """
    if split.radius < op.propagation:
        raise ValueError(
            f"interior radius {split.radius} is below the propagation bound "
            f"{op.propagation}"
        )
    interior = split.interior_positions
    rows, cols, vals = window_coo(op, window, interior)
    leaks = np.flatnonzero(rows < 0)
    if leaks.size:
        y = window.vertex(interior[cols[leaks[0]]])
        raise AssertionError(
            f"finite propagation violated: column at {y} leaks outside the window"
        )
    k = interior.size
    return WindowMatrix.from_triplets(
        np.concatenate([rows, interior]),
        np.concatenate([cols, np.arange(k)]),
        np.concatenate([vals, np.full(k, -complex(lam))]),  # -0.0 imaginary part: adds as - lam
        (len(window), k),
    )


def rect_kernel_dim(R: np.ndarray | WindowMatrix, tol: float) -> int:
    """Kernel dimension of a rectangular matrix, dense or a WindowMatrix:
    singular values below tol * (largest one), with the same cluster-gap
    validation as jumps, over the union of the connected blocks' singular
    values.  Rank-nullity holds by construction: kernel + rank = #cols."""
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    cols = R.shape[1]
    if cols == 0:
        return 0
    s = _block_singular_values(R if isinstance(R, WindowMatrix) else WindowMatrix.from_dense(R))
    smax = float(s.max())
    if smax == 0.0:
        return cols
    small = s < tol * smax
    kept = s[~small]
    if kept.size and kept.min() <= 10 * tol * smax:
        raise UnresolvedClusterError(
            f"unresolved singular-value cluster: smallest kept value "
            f"{kept.min():.3e} <= 10 tol smax"
        )
    return int(small.sum())


def projection_window_dim(
    P: np.ndarray, outer: Window, inner: Window, tol: float = 1e-10
) -> float:
    """Window-normalized dimension of a subspace given by its orthogonal
    projection matrix over the (possibly padded) outer window:
    (1/#Lambda) sum over inner-window vertices of the projection diagonal.
    The inner window must lie inside the outer one.
    """
    n = P.shape[0]
    if P.shape != (n, n) or n != len(outer):
        raise ValueError("projection must be square over the outer window")
    scale = max(1.0, float(np.abs(P).max()) if P.size else 1.0)
    if float(np.abs(P - P.conj().T).max()) > tol * scale:
        raise ValueError("input fails the projection test: not self-adjoint")
    if float(np.abs(P @ P - P).max()) > tol * scale:
        raise ValueError("input fails the projection test: not idempotent")
    idx = outer.positions(inner.orbits, inner.shifts)
    if (idx < 0).any():
        raise ValueError("inner window leaves the outer window")
    diag = np.real(np.diag(P)[idx])
    return float(diag.sum() / len(inner.elements))
