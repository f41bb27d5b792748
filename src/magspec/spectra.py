"""Window matrices and eigenvalue counting.

Every window matrix is read off the operator's stencil by one routine,
``operators.window_coo`` (``LocalOperator.triplets`` at the window's
vertices, with rows found by ``Window.positions``), and held as its
nonzero entries (``WindowMatrix``: sorted COO triplets, each position
once) up to the solvers: ``dirichlet_matrix`` and ``neumann_matrix``
build the square ones, ``interior_restriction`` the rectangular
A' - lam i'.  ``spectral_density`` is the one way a window matrix becomes
eigenvalues: the drivers and the named checks read their window spectra
from it, and the tolerances they scale by the matrix's norm from
``WindowMatrix.norm_bound``.  ``WindowMatrix.dense``
is the one place one becomes a dense array, capped at MAX_DENSE_DIM: the
dense solver, the inertia backend's factorization, the SVD of a connected
interior restriction and the checks that read matrix entries call it.
``assemble_dirichlet`` and ``assemble_neumann`` are its dense copies for
the tests (and names the benchmark's tracer wraps); nothing in the
package calls them.  The Neumann Laplacian is the Dirichlet compression
of the magnetic Laplacian minus a diagonal, so their difference is a
nonnegative diagonal on the boundary collar by construction.

Two counting backends count the eigenvalues <= lam of a WindowMatrix:
full diagonalization (``count_leq``) and LDL-inertia counting
(``inertia_count_leq``), which calls LAPACK ``hetrf`` (Bunch-Kaufman)
in place on the dense copy of A - lam I and reads the inertia off the
eigenvalues of the factor's 1x1 and 2x2 diagonal blocks D, by
Sylvester's law; the triangular factor is never formed.  The backends
agree away from eigenvalues; they differ when the counting point
essentially hits one.  The inertia backend then brackets it with a shift
of SHIFT_SCALE times ``WindowMatrix.norm_bound`` and returns the upper
count, matching the right-continuity of the eigenvalue counting
function.  The diagonalization paths (``count_leq`` and
``WindowSpectrum``) keep the plain count of computed eigenvalues <= lam,
which there depends on rounding, and raise
``CountingPointOnEigenvalueWarning`` instead.

Window spectra (``spectral_density`` and ``count_leq``) and interior
kernels (``rect_kernel_dim``) are computed one connected block of the
nonzero pattern at a time: a block-diagonal model such as the triangle
cells costs O(n) instead of a dense O(n^3) call, its equal-shape blocks
stacked straight from the entries.  A connected matrix whose nonzeros
lie within a narrow band (half-bandwidth b with BAND_RATIO * b <= n, as
a box window in its natural vertex order has) is diagonalized in LAPACK
band storage by ``zhbevd``, at O(n^2 b) instead of O(n^3), from its
(b + 1) n lower-band entries.  Neither builds an n x n or n x k array or
has a dimension cap.  A connected matrix with a wide band takes the
plain dense call.  ``zhbevd`` is called through scipy's Cython LAPACK
table with ctypes (``_HBEVD``): the same routine and OpenBLAS as scipy's
f2py ``hbevd``, so the same eigenvalues bit for bit, but the call
releases the GIL, and band windows solved on several threads run side by
side (numpy's ``eigvalsh``, the dense and blocks solver, releases it too).

A band window can be real in disguise.  Let R reflect the window's last
(fastest) axis, orbits kept.  When R A R = conj(A) holds exactly, entry
for entry, A commutes with the antiunitary Theta = R conj, and in a
basis that Theta fixes (pairs (e_i + e_Ri)/sqrt 2 and i (e_i - e_Ri)/sqrt 2,
placed at the pair's lower and upper index) A is real symmetric.  A pair
lies in one slab of the box, so the real form keeps the half-bandwidth;
the check also refuses it if it does not.  Such a window
(``spectral_density`` knows the window, ``count_leq`` does not) is
diagonalized from real band storage, written straight from the entries,
by ``dsbevd`` (``_SBEVD``, called like ``_HBEVD``): about a quarter of
the flops, 2.7 times faster on the m = 48 converge windows.  Landau-gauge
Hofstadter boxes pass at every flux, Dirichlet and Neumann; gauge-
transformed or perturbed weights, complex on-site couplings between
orbits and windows that are not mirror-symmetric keep ``zhbevd``.  The
two kernels' eigenvalues differ in the last bits, so only counts at
points within the bracketing shift of an eigenvalue can differ.

Jumps and kernel dimensions are floating-point notions here, so both are
defined through clusters with a validated gap, judged over the union of
all blocks' values: the caller gets an error ("unresolved cluster")
instead of a silently wrong multiplicity.

Every loaded OpenBLAS runs on one thread, for the whole process: the
package sets ``OPENBLAS_NUM_THREADS=1`` before numpy loads, and this
module pins, at import, every OpenBLAS already loaded (by a caller that
imported numpy or scipy first, or under a user-set variable).  The
window pool (``experiments.ordered_parallel``) is the only parallelism;
a second BLAS thread under it would share a core with the other window's
solve.
"""

from __future__ import annotations

import ctypes
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.linalg import cython_lapack
from scipy.linalg.lapack import _compute_lwork, get_lapack_funcs

from .exhaustion import InteriorSplit, Window
from .operators import HERMITIAN_TOL, LocalOperator, WeightFunction, dml_operator, window_coo

MAX_DENSE_DIM = 5000
PROJECTION_TOL = 1e-10    # projection test of projection_window_dim, relative
SHIFT_SCALE = 1e-10       # bracketing shift, relative to the norm bound
ZERO_PIVOT_SCALE = 5e-14  # relative block-eigenvalue size treated as singular
# A connected matrix of half-bandwidth b >= 1 is diagonalized in band
# storage when BAND_RATIO * b <= n.  Band hbevd against dense heevd, best
# of 3 on one OpenBLAS thread: Hofstadter boxes (n, b) = (2304, 48) 1.06 s
# vs 3.21 s, (1024, 32) 0.13 s vs 0.30 s, (256, 16) 5.3 ms vs 6.4 ms;
# random band matrices win down to n / b = 16 ((1024, 64) 0.89x the dense
# time) and lose from about 12 ((2304, 192) 1.24x, (1024, 96) 1.20x), so
# 32 is about twice the crossover; the table is in the README.  The real
# kernel (dsbevd) shares the threshold: the entry check that picks it runs
# after this choice.
BAND_RATIO = 32

_HETRF, _HETRF_LWORK = get_lapack_funcs(("hetrf", "hetrf_lwork"), dtype=np.complex128)


def _cython_lapack(name: str, *argtypes):
    """LAPACK routine ``name`` from scipy's Cython LAPACK table (the
    OpenBLAS scipy links) as a ctypes function.  Unlike the f2py wrappers,
    which hold the GIL for the whole call, a ctypes call releases it, so
    threads can run the routine side by side."""
    capsule = cython_lapack.__pyx_capi__[name]
    api = ctypes.pythonapi
    get_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(("PyCapsule_GetName", api))
    get_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", api)
    )
    return ctypes.CFUNCTYPE(None, *argtypes)(get_pointer(capsule, get_name(capsule)))


def _f_array(dtype):
    return np.ctypeslib.ndpointer(dtype=dtype, flags="F_CONTIGUOUS")


_INT = ctypes.POINTER(ctypes.c_int)
# zhbevd(jobz, uplo, n, kd, ab, ldab, w, z, ldz, work, lwork, rwork,
# lrwork, iwork, liwork, info); the integers go by reference, so a
# ctypes.c_int passed for one is readable after the call
_HBEVD = _cython_lapack(
    "zhbevd", ctypes.c_char_p, ctypes.c_char_p, _INT, _INT, _f_array(np.complex128), _INT,
    _f_array(np.float64), _f_array(np.complex128), _INT, _f_array(np.complex128), _INT,
    _f_array(np.float64), _INT, _f_array(np.intc), _INT, _INT,
)
# dsbevd(jobz, uplo, n, kd, ab, ldab, w, z, ldz, work, lwork, iwork,
# liwork, info), its real symmetric counterpart
_SBEVD = _cython_lapack(
    "dsbevd", ctypes.c_char_p, ctypes.c_char_p, _INT, _INT, _f_array(np.float64), _INT,
    _f_array(np.float64), _f_array(np.float64), _INT, _f_array(np.float64), _INT,
    _f_array(np.intc), _INT, _INT,
)


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


# the process-wide pin (see the module docstring), also for libraries
# that loaded before the package could set OPENBLAS_NUM_THREADS
for _, _, _set in _openblas_controls():
    _set(1)


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
    floored at 1e-14 (inertia_bracket scales it by the norm bound)."""
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

    @property
    def norm_bound(self) -> float:
        """Gershgorin bound on the spectral radius, the largest absolute
        row sum of the entries (0 for an empty matrix)."""
        return float(np.bincount(self.rows, np.abs(self.vals), minlength=self.dim).max(initial=0.0))

    def dense(self, order: str = "C") -> np.ndarray:
        """The dense matrix in memory order ``order``; capped at MAX_DENSE_DIM."""
        if max(self.shape) > MAX_DENSE_DIM:
            raise WindowTooLargeError(
                f"dense matrix of shape {self.shape} exceeds the cap {MAX_DENSE_DIM}; "
                "choose a smaller window"
            )
        M = np.zeros(self.shape, dtype=complex, order=order)
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
    A = dirichlet_matrix(dml_operator(graph, weights), window)
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


def _assert_hermitian(A: WindowMatrix) -> None:
    """Largest |A - A^*| entry against HERMITIAN_TOL times the largest |A|
    entry (at least 1).  An entry of A - A^* is zero unless it or its
    mirror is a stored entry, and both have the same size, so the stored
    entries and their mirrors (found by binary search on the sorted
    positions) decide it without an n x n temporary."""
    if A.nnz == 0:
        return
    keys = A.rows.astype(np.int64) * A.dim + A.cols
    mirror = A.cols.astype(np.int64) * A.dim + A.rows
    at = np.minimum(np.searchsorted(keys, mirror), keys.size - 1)
    mirrored = np.where(keys[at] == mirror, A.vals[at], 0)
    scale = max(1.0, float(np.abs(A.vals).max()))
    resid = float(np.abs(A.vals - mirrored.conj()).max())
    if resid > HERMITIAN_TOL * scale:
        raise AssertionError(f"restriction matrix is not Hermitian: residual {resid:.3e}")


def count_leq(A: WindowMatrix, lam: float) -> int:
    """Number of eigenvalues <= lam, counting multiplicity, by
    diagonalization as spectral_density does (per connected block, in band
    storage when the band is narrow); warns when lam is within the
    bracketing shift of an eigenvalue.  ``inertia_count_leq`` is the
    factorization backend.  Without a window there is no mirror, so a
    band matrix always takes the complex kernel here ("banded"), where
    spectral_density may take the real one ("banded-real"); the two
    spectra differ in the last bits, so at a warned point the counts can
    differ too.
    """
    evals = _block_spectrum(A)[0]
    _warn_if_on_eigenvalue(evals, lam)
    return int(np.searchsorted(evals, lam, side="right"))


def _inertia(A: WindowMatrix, lam: float, zero_tol: float) -> tuple[int, int, int]:
    """(negative, zero, positive) counts of the eigenvalues of A - lam I,
    read off the block diagonal D of LAPACK hetrf's Bunch-Kaufman
    factorization P (A - lam I) P^T = L D L^* by Sylvester's law, made in
    place in the one dense copy.  D has 1x1 blocks and 2x2 Hermitian
    blocks; each 2x2 block starts at a pair of equal negative pivot
    indices.  NaN or inf input raises ValueError."""
    n = A.dim
    B = A.dense(order="F")
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


def inertia_bracket(A: WindowMatrix, lam: float) -> tuple[int, int]:
    """Counts at lam -/+ the bracketing shift (SHIFT_SCALE of the norm
    bound ``A.norm_bound``, at least 1e-14).  The two agree except when
    lam sits essentially on an eigenvalue."""
    norm = A.norm_bound
    eps = max(SHIFT_SCALE * norm, 1e-14)
    zero_tol = ZERO_PIVOT_SCALE * max(norm, 1e-300)
    lo_neg, lo_zero, _ = _inertia(A, lam - eps, zero_tol)
    hi_neg, hi_zero, _ = _inertia(A, lam + eps, zero_tol)
    if lo_zero or hi_zero:
        raise UnresolvedClusterError(
            f"factorization breakdown persists at {lam} +- {eps:.3e}"
        )
    return lo_neg, hi_neg + hi_zero


def inertia_count_leq(A: WindowMatrix, lam: float) -> int:
    """Number of eigenvalues <= lam by the inertia of A - lam I; a point
    that is numerically an eigenvalue is bracketed (``inertia_bracket``)."""
    if A.dim == 0:
        return 0
    neg, zero, _ = _inertia(A, lam, ZERO_PIVOT_SCALE * max(A.norm_bound, 1e-300))
    if zero == 0:
        return neg
    # lam is numerically an eigenvalue: bracket and take the upper count,
    # which is the right-continuous reading of "eigenvalues <= lam"
    _, hi = inertia_bracket(A, lam)
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
    n = A.dim
    # eigenvalues only (jobz "N"): LAPACK's minimal workspaces, which are
    # also the ones scipy's f2py hbevd passes
    evals, z = np.empty(n), np.empty(1, dtype=complex)
    work, rwork, iwork = np.empty(n, dtype=complex), np.empty(n), np.empty(1, dtype=np.intc)
    c_int, info = ctypes.c_int, ctypes.c_int()
    _HBEVD(
        b"N", b"L", c_int(n), c_int(b), ab, c_int(b + 1), evals, z, c_int(1),
        work, c_int(n), rwork, c_int(n), iwork, c_int(1), info,
    )
    if info.value:
        raise np.linalg.LinAlgError(f"hbevd failed with info {info.value}")
    return evals


def _mirror(window: Window) -> np.ndarray:
    """Window position of each vertex's mirror image across the last
    (fastest) axis of the window's translates, y -> lo + hi - y over their
    range on that axis, orbit kept; -1 where the image is off the window.
    A vertex and its image differ only in that axis, so on a box both lie
    in one slab of consecutive positions."""
    last = window.elements[:, -1]
    shifts = window.shifts.copy()
    shifts[:, -1] = last.min() + last.max() - shifts[:, -1]
    return window.positions(window.orbits, shifts)


def _real_band_storage(A: WindowMatrix, mirror: np.ndarray, b: int) -> np.ndarray | None:
    """Lower band storage (b + 1, n) of the real symmetric U^* A U, or None
    when A is not real in that basis or the real form leaves the band.

    Theta = R conj, with R the permutation ``mirror``, is antiunitary; the
    check is exact: R must be an involution, and R A R = conj(A) entry for
    entry (the sorted mirrored positions equal A's, each value the
    conjugate of its mirror's).  U is real-orthonormal for Theta: at a
    pair i < Ri it has s = (e_i + e_Ri)/sqrt 2 at column i and
    t = i (e_i - e_Ri)/sqrt 2 at column Ri, and e_i at a fixed point.  For
    representatives i, j (the lower index of a pair, or a fixed point)
    and a = A_ij, a' = A_iRj:
    (s, s) = Re(a + a'), (s, t) = -Im(a - a'), (t, s) = Im(a + a'),
    (t, t) = Re(a - a'), each times 1/sqrt 2 per fixed point among i, j.
    Each band entry is written once, straight from the entries (a' found
    by binary search on the sorted positions); nothing is summed."""
    n = A.dim
    ident = np.arange(n)
    if mirror.shape != (n,) or (mirror < 0).any() or not np.array_equal(mirror[mirror], ident):
        return None
    keys = A.rows.astype(np.int64) * n + A.cols
    image = mirror[A.rows].astype(np.int64) * n + mirror[A.cols]
    order = np.argsort(image)
    if not (np.array_equal(image[order], keys) and np.array_equal(A.vals, A.vals[order].conj())):
        return None

    def entry(r: np.ndarray, c: np.ndarray) -> np.ndarray:
        want = r * n + c
        at = np.minimum(np.searchsorted(keys, want), keys.size - 1)
        return np.where(keys[at] == want, A.vals[at], 0)

    rep = np.minimum(ident, mirror)
    weight = np.where(mirror == ident, np.sqrt(0.5), 1.0)
    mine = A.rows == rep[A.rows]
    pairs = np.unique(A.rows[mine].astype(np.int64) * n + rep[A.cols[mine]])
    i, j = pairs // n, pairs % n
    a, a_mirror = entry(i, j), entry(i, mirror[j])
    plus, minus = a + a_mirror, a - a_mirror
    scale = weight[i] * weight[j]
    ri, rj = mirror[i], mirror[j]
    # the (s, s), (s, t), (t, s) and (t, t) entries of each representative
    # pair; a t row or column exists only where its index is not fixed
    p = np.concatenate([i, i, ri, ri])
    q = np.concatenate([j, rj, j, rj])
    v = np.concatenate([plus.real, -minus.imag, plus.imag, minus.real]) * np.tile(scale, 4)
    exists = np.concatenate([i == i, rj != j, ri != i, (ri != i) & (rj != j)])
    keep = exists & (p >= q) & (v != 0)
    p, q, v = p[keep], q[keep], v[keep]
    if v.size and int((p - q).max()) > b:
        return None
    ab = np.zeros((b + 1, n), order="F")
    ab[p - q, q] = v
    return ab


def _real_band_eigvals(ab: np.ndarray) -> np.ndarray:
    """Eigenvalues of a real symmetric band matrix from its lower band
    storage ab (b + 1, n), which LAPACK dsbevd overwrites."""
    b, n = ab.shape[0] - 1, ab.shape[1]
    # eigenvalues only (jobz "N"): LAPACK's minimal workspaces, which are
    # also the ones scipy's f2py sbevd passes
    evals, z = np.empty(n), np.empty(1)
    work, iwork = np.empty(2 * n), np.empty(1, dtype=np.intc)
    c_int, info = ctypes.c_int, ctypes.c_int()
    _SBEVD(
        b"N", b"L", c_int(n), c_int(b), ab, c_int(b + 1), evals, z, c_int(1),
        work, c_int(2 * n), iwork, c_int(1), info,
    )
    if info.value:
        raise np.linalg.LinAlgError(f"sbevd failed with info {info.value}")
    return evals


def _block_spectrum(A: WindowMatrix, window: Window | None = None) -> tuple[np.ndarray, int, int, str]:
    """Sorted eigenvalues of a Hermitian WindowMatrix, the number of
    connected blocks of its nonzero pattern, its half-bandwidth max |i - j|
    over the nonzeros (0 without off-diagonal nonzeros) and the solver used.  The
    spectrum is the union of the blocks' spectra; equal-size blocks are
    diagonalized in one stacked call ("blocks"), written straight from the
    entries.  A connected matrix is diagonalized in band storage when
    BAND_RATIO * b <= n, and by the plain dense call otherwise ("dense").
    In band storage, a matrix over ``window`` that is real in the basis of
    the window's mirror (``_real_band_storage``: an exact check on the
    entries) takes the real kernel dsbevd ("banded-real"); every other
    band matrix, and every one without a window, takes zhbevd ("banded").
    Only the dense solver builds the dense matrix, so only it is capped at
    MAX_DENSE_DIM."""
    n = A.dim
    if n == 0:
        return np.zeros(0), 0, 0, "dense"
    b = int(np.abs(A.rows - A.cols).max()) if A.nnz else 0
    count, labels = _components(A.rows, A.cols, n)
    if count == 1:
        if 0 < BAND_RATIO * b <= n:
            ab = None if window is None else _real_band_storage(A, _mirror(window), b)
            if ab is None:
                return np.sort(_band_eigvals(A, b)), 1, b, "banded"
            return np.sort(_real_band_eigvals(ab)), 1, b, "banded-real"
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


def spectral_density(A: WindowMatrix, window: Window) -> WindowSpectrum:
    """Diagonalize a window matrix once, one connected block at a time,
    and wrap the sorted spectrum with the window's Folner normalization.
    The window also supplies the mirror that lets a band matrix take the
    real kernel (see _block_spectrum)."""
    evals, blocks, bandwidth, solver = _block_spectrum(A, window)
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


def rect_kernel_dim(R: WindowMatrix, tol: float) -> int:
    """Kernel dimension of a rectangular WindowMatrix: singular values
    below tol * (largest one), with the same cluster-gap validation as
    jumps, over the union of the connected blocks' singular values.
    Rank-nullity holds by construction: kernel + rank = #cols."""
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    cols = R.shape[1]
    if cols == 0:
        return 0
    s = _block_singular_values(R)
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


def projection_window_dim(P: np.ndarray, outer: Window, inner: Window) -> float:
    """Window-normalized dimension of a subspace given by its orthogonal
    projection matrix over the (possibly padded) outer window:
    (1/#Lambda) sum over inner-window vertices of the projection diagonal.
    The inner window must lie inside the outer one.
    """
    n = P.shape[0]
    if P.shape != (n, n) or n != len(outer):
        raise ValueError("projection must be square over the outer window")
    scale = max(1.0, float(np.abs(P).max()) if P.size else 1.0)
    if float(np.abs(P - P.conj().T).max()) > PROJECTION_TOL * scale:
        raise ValueError("input fails the projection test: not self-adjoint")
    if float(np.abs(P @ P - P).max()) > PROJECTION_TOL * scale:
        raise ValueError("input fails the projection test: not idempotent")
    idx = outer.positions(inner.orbits, inner.shifts)
    if (idx < 0).any():
        raise ValueError("inner window leaves the outer window")
    diag = np.real(np.diag(P)[idx])
    return float(diag.sum() / len(inner.elements))
