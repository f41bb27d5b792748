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

There is one counting rule: count(lam) = #{eigenvalues <= lam + delta},
the right-continuous eigenvalue count read with one shift delta =
``WindowMatrix.counting_shift`` (SHIFT_SCALE times the Gershgorin bound
``WindowMatrix.norm_bound``, at least 1e-14), the only place delta is
computed.  A cluster of eigenvalues at lam that rounding splits by far
less than delta is then counted whole, whichever kernel split it.  Two
backends apply the rule to a WindowMatrix: full diagonalization
(``count_leq``, and ``WindowSpectrum`` from ``spectral_density``, which
stores delta as ``shift``) and LDL-inertia counting
(``inertia_count_leq``), which calls LAPACK ``hetrf`` (Bunch-Kaufman) in
place on the dense copy of A - (lam + delta) I and reads the inertia off
the eigenvalues of the factor's 1x1 and 2x2 diagonal blocks D, by
Sylvester's law; the triangular factor is never formed.  A zero pivot at
lam + delta raises ``UnresolvedClusterError``.

Window spectra (``spectral_density`` and ``count_leq``) and interior
kernels (``rect_kernel_dim``) are computed one connected block of the
nonzero pattern at a time: a block-diagonal model such as the triangle
cells costs O(n) instead of a dense O(n^3) call, its equal-shape blocks
stacked straight from the entries.  A connected matrix whose nonzeros
lie within a narrow band (half-bandwidth b with BAND_RATIO * b <= n, as
a box window in its natural vertex order has) is diagonalized in LAPACK
band storage by ``zhbevd``, at O(n^2 b) instead of O(n^3), from its
(b + 1) n lower-band entries.  Neither builds an n x n or n x k array;
the band path has no dimension cap, and the blocks path caps each dense
block at MAX_DENSE_DIM, as ``WindowMatrix.dense`` caps a whole matrix.
A connected matrix with a wide band takes the plain dense call.  ``zhbevd`` is called through scipy's Cython LAPACK
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
the check also refuses it if it does not.  Where the mirror fails, R is
the identity and Theta plain conjugation: a window with real entries
(the kagome and Lieb Laplacians with uniform weights) is real as it is.
Such a window (``spectral_density`` knows the window, ``count_leq`` does
not) is diagonalized from real band storage, written straight from the
entries, by ``dsbevd`` (``_SBEVD``, called like ``_HBEVD``): about a
quarter of the flops, 2.7 times faster on the m = 48 converge windows.
Landau-gauge Hofstadter boxes pass at every flux, Dirichlet and Neumann;
gauge-transformed or perturbed weights, complex on-site couplings between
orbits and complex windows that are not mirror-symmetric keep ``zhbevd``.
The two kernels' eigenvalues differ in the last bits, far less than the
counting shift, so the counts agree.

A real window can split further.  Let P reflect every axis of the
window's translates, orbits kept (the 180 degree rotation of a square
box).  A Landau-gauge box commutes with U = D P for a diagonal of phases
D, not with P itself; D is read off the entries: A = U A U^* says
conj(w_r) w_c = A_rc / A_{Pr,Pc} at every entry (w = D's diagonal),
and the phases are carried from position 0 along each row's entry to
its smallest column by pointer jumping, in log2(depth) vectorized
rounds.  U^2 = w_p w_Pp must be one constant c, and U / sqrt c then
squares to 1.  It commutes with Theta up to a sign: Theta U Theta^-1 =
(R conj(D) R) P solves the same equations as U, so it is a multiple of
U (a connected A fixes the phases up to one factor), and it squares to
what U does, so Theta (U / sqrt c) Theta^-1 = +-U / sqrt c.  The sign is
+ on every box tried (Theta U Theta^-1 = conj(c) U), and the check below
refuses -, under which Theta would swap the sectors.  D is a product of
rounded phases, so the split cannot rest on bit equality: w / sqrt c is
kept at one position per orbit of {1, R, P, RP} and spread over the
orbit so that the U built from it squares to 1 and commutes with Theta
exactly, and the split is accepted when the Gershgorin bound G of
A - U A U^* over the entries, ``symmetry_residual``, is at most
delta/200.  (A + U A U^*)/2 commutes with U exactly and lies within G/2
of A; the sector matrices, read off A's entries with U's symmetry,
differ from its compressions to the two sectors U = +-1 by at most 3G/2
(each entry by half of two entries of A - U A U^*, summed over a row
and a column).  So by Weyl's inequality no eigenvalue moves by more
than 2G <= delta/100.  Each sector vector (e_p +- w_p e_Pp)/sqrt 2 (p < Pp) is
held at p, so a sector keeps the window order of the lower half and the
half-bandwidth b: the fold couples only positions near the middle.  Theta
maps the sector vector at p to the one at min(Rp, PRp), so the sector
has a real form built as the whole window's is; on the middle slab of an
odd box, where R maps p across the fold, the vector is first multiplied
by a square root of the phase Theta gives it.  An odd box has a fixed
centre, which belongs to the sector of its sign, so the sectors have
(n + 1)/2 and (n - 1)/2 positions.  Two dsbevd calls of size n/2 take
about half the time of one of size n (0.19 against 0.37 s at m = 48).
A window that fails any of these checks, or whose sector storage would
leave the band, is solved as one sector, exactly as before.

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
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np
from scipy.linalg import cython_lapack
from scipy.linalg.lapack import _compute_lwork, get_lapack_funcs

from .exhaustion import InteriorSplit, Window
from .operators import HERMITIAN_TOL, LocalOperator, WeightFunction, dml_operator, window_coo

MAX_DENSE_DIM = 5000
PROJECTION_TOL = 1e-10    # projection test of projection_window_dim, relative
SHIFT_SCALE = 1e-10       # counting shift, relative to the norm bound
ZERO_PIVOT_SCALE = 5e-14  # relative block-eigenvalue size treated as singular
ROTATION_TOL = SHIFT_SCALE / 100  # spread of U^2 = w_p w_Pp a rotation split accepts
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

    @property
    def counting_shift(self) -> float:
        """delta of the counting rule: eigenvalues <= lam + delta count at
        lam (SHIFT_SCALE of the norm bound, at least 1e-14)."""
        return max(SHIFT_SCALE * self.norm_bound, 1e-14)

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


def count_leq(A: WindowMatrix, lam: float | Sequence[float]) -> int | list[int]:
    """Number of eigenvalues <= lam + ``A.counting_shift``, counting
    multiplicity, by diagonalization as spectral_density does (per
    connected block, in band storage when the band is narrow); for a
    sequence of points, their counts from the one diagonalization.
    ``inertia_count_leq`` is the factorization backend."""
    evals = _block_spectrum(A)[0]
    return np.searchsorted(evals, np.asarray(lam) + A.counting_shift, side="right").tolist()


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
    """Counts at lam -/+ the counting shift ``A.counting_shift``; the two
    agree except when lam sits essentially on an eigenvalue.  Nothing in
    the package calls it; it stays for the tests and as a name the
    benchmark's tracer wraps."""
    eps = A.counting_shift
    zero_tol = ZERO_PIVOT_SCALE * max(A.norm_bound, 1e-300)
    lo_neg, lo_zero, _ = _inertia(A, lam - eps, zero_tol)
    hi_neg, hi_zero, _ = _inertia(A, lam + eps, zero_tol)
    if lo_zero or hi_zero:
        raise UnresolvedClusterError(
            f"factorization breakdown persists at {lam} +- {eps:.3e}"
        )
    return lo_neg, hi_neg + hi_zero


def inertia_count_leq(A: WindowMatrix, lam: float) -> int:
    """Number of eigenvalues <= lam + ``A.counting_shift``: the negative
    inertia of A - (lam + delta) I, one factorization.  A zero pivot there
    (an eigenvalue within the pivot tolerance of lam + delta) raises
    UnresolvedClusterError."""
    if A.dim == 0:
        return 0
    at = lam + A.counting_shift
    neg, zero, _ = _inertia(A, at, ZERO_PIVOT_SCALE * max(A.norm_bound, 1e-300))
    if zero:
        raise UnresolvedClusterError(f"factorization breakdown at {at}: {zero} zero pivot(s)")
    return neg


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
    written from the entries, each block's indices in ascending order.
    Each block is a dense array, so a block with more rows or columns than
    MAX_DENSE_DIM raises WindowTooLargeError before any is written, as
    ``WindowMatrix.dense`` does."""
    labelings = (row_labels, col_labels)
    shapes = np.stack([np.bincount(labels, minlength=count) for labels in labelings], axis=1)
    if shapes.max(initial=0) > MAX_DENSE_DIM:
        raise WindowTooLargeError(
            f"dense block of shape {tuple(shapes[shapes.max(axis=1).argmax()].tolist())} exceeds the cap "
            f"{MAX_DENSE_DIM}; choose a smaller window"
        )
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


def _reflection(window: Window, axes: slice) -> np.ndarray:
    """Window position of each vertex's image when the window's translates
    are reflected in the given axes, x -> lo + hi - x over their range on
    each, orbit kept; -1 where the image is off the window."""
    box = window.elements[:, axes]
    shifts = window.shifts.copy()
    shifts[:, axes] = box.min(axis=0) + box.max(axis=0) - shifts[:, axes]
    return window.positions(window.orbits, shifts)


def _mirror(window: Window) -> np.ndarray:
    """The mirror R across the last (fastest) axis of the window's
    translates (``_reflection``).  A vertex and its image differ only in
    that axis, so on a box both lie in one slab of consecutive positions."""
    return _reflection(window, slice(-1, None))


def _image_order(A: WindowMatrix, perm: np.ndarray) -> np.ndarray | None:
    """For an involution ``perm`` of the positions that maps A's nonzero
    pattern onto itself, the order that lines each entry (r, c) up with
    the entry at (perm r, perm c): A.vals[order] holds A_{perm r, perm c}
    (the sorted permuted positions equal A's).  None otherwise."""
    n = A.dim
    if perm.shape != (n,) or (perm < 0).any() or not np.array_equal(perm[perm], np.arange(n)):
        return None
    keys = A.rows.astype(np.int64) * n + A.cols
    image = perm[A.rows].astype(np.int64) * n + perm[A.cols]
    order = np.argsort(image)
    return order if np.array_equal(image[order], keys) else None


def _conjugation_symmetric(A: WindowMatrix, mirror: np.ndarray) -> bool:
    """Whether A commutes with Theta = R conj, R the permutation
    ``mirror``, exactly: R must be an involution, and R A R = conj(A)
    entry for entry (``_image_order``, each value the conjugate of its
    mirror's)."""
    order = _image_order(A, mirror)
    return order is not None and np.array_equal(A.vals, A.vals[order].conj())


class _Rotation(NamedTuple):
    """A unitary U = D P that commutes with A and with Theta and squares to
    1: U e_p = ``phases[p]`` e_Pp, P the permutation ``point``.
    ``residual`` is the Gershgorin bound of A - U A U^* over the entries."""

    point: np.ndarray
    phases: np.ndarray
    residual: float


def _rotation(A: WindowMatrix, mirror: np.ndarray, point: np.ndarray) -> _Rotation | None:
    """The phases D that make U = D P a symmetry of a connected A, read off
    the entries, or None.  P (``point``) must be an involution other than
    the identity that commutes with R (``mirror``) and maps A's positions
    onto themselves.  A = U A U^* reads conj(w_r) w_c = A_rc / A_{Pr,Pc}
    at each entry (w = D's diagonal); along the entry to each row's
    smallest column, which must lie below the row except at position 0
    (w_0 = 1), the phases are carried down by pointer jumping, log2 of the
    depth rounds.  U^2 = w_p w_Pp must be one constant c to ROTATION_TOL.
    Then w / sqrt c is taken at one representative per orbit of
    {1, R, P, RP} and spread over the orbit as an exact involution that
    commutes with Theta exactly (w_Pp = w_Rp = conj(w_p), real where the
    representative is fixed by R or P).  That U is accepted when the
    Gershgorin bound of A - U A U^* over the entries is at most delta/200,
    so that no eigenvalue of the split moves by more than delta/100 (see
    the module docstring)."""
    n = A.dim
    ident = np.arange(n)
    order = _image_order(A, point)
    if order is None or np.array_equal(point, ident) or not np.array_equal(point[mirror], mirror[point]):
        return None
    turned = A.vals[order]  # A_{Pr,Pc} at each entry (r, c)
    first = np.searchsorted(A.rows, ident)  # each row's smallest column
    parent = A.cols[first]
    if (parent[1:] >= ident[1:]).any():
        return None
    parent[0] = 0
    link = (A.vals[first] / turned[first]).conj()  # w_r / w_parent
    step = np.where(ident == 0, 1.0, link / np.abs(link))
    while parent.any():
        step, parent = step * step[parent], parent[parent]
    square = step * step[point]
    if np.abs(square - square[0]).max() > ROTATION_TOL:
        return None
    w = step / np.sqrt(square[0])
    rep = np.minimum(np.minimum(ident, mirror), np.minimum(point, mirror[point]))
    w = w[rep] / np.abs(w[rep])
    w = np.where((mirror[rep] == rep) | (point[rep] == rep), np.where(w.real >= 0, 1.0, -1.0), w)
    w = np.where((ident != rep) & ((ident == mirror[rep]) | (ident == point[rep])), w.conj(), w)
    defect = np.abs(A.vals - w[A.rows].conj() * w[A.cols] * turned)
    residual = float(np.bincount(A.rows, defect, minlength=n).max())
    if residual > A.counting_shift / 200:
        return None
    return _Rotation(point, w, residual)


def _real_form(
    A: WindowMatrix, mirror: np.ndarray, b: int, rotation: _Rotation | None = None, sign: int = 1
) -> np.ndarray | None:
    """Lower band storage (b + 1, k) of a real form of A, or None when it
    would leave the band.  A must commute with Theta = R conj exactly
    (``_conjugation_symmetric``, R the permutation ``mirror``).

    Without a rotation the basis is real-orthonormal for Theta over the
    whole window (k = n): at a pair i < Ri it has s = (e_i + e_Ri)/sqrt 2
    at column i and t = i (e_i - e_Ri)/sqrt 2 at column Ri, and e_i at a
    fixed point.  For representatives i, j (the lower index of a pair, or
    a fixed point) and a = A_ij, a' = A_iRj:
    (s, s) = Re(a + a'), (s, t) = -Im(a - a'), (t, s) = Im(a + a'),
    (t, t) = Re(a - a'), each times 1/sqrt 2 per fixed point among i, j.

    With a rotation U (``_rotation``) it is the same construction inside
    the sector U = ``sign``: f_p = (e_p + sign w_p e_Pp)/sqrt 2 for p < Pp,
    and e_p at a fixed point of P with w_p = sign, held at p, so that the
    sector's positions keep their window order.  There, by U's symmetry,
    <f_i, A f_j> = A_ij + sign w_j A_iPj (times 1/sqrt 2 per fixed point
    of P): two of its four terms, so that Theta's exact symmetry of the
    entries keeps the real form's zeros exact.  Theta maps f_p to
    f_tau(p), tau(p) = min(Rp, PRp); where
    Rp > PRp (the middle slab of an odd box) it maps f_p to
    sign conj(w_p) f_tau(p), so f_p is first multiplied by the square root
    of that phase.  Each band entry is written once, straight from the
    entries (a', A_iPj found by binary search on the sorted positions);
    nothing is summed but the two terms of a sector entry."""
    n = A.dim
    ident = np.arange(n)
    keys = A.rows.astype(np.int64) * n + A.cols

    def lookup(r: np.ndarray, c: np.ndarray) -> np.ndarray:
        want = r * n + c
        at = np.minimum(np.searchsorted(keys, want), keys.size - 1)
        return np.where(keys[at] == want, A.vals[at], 0)

    if rotation is None:
        member, fold, tau, entry = np.ones(n, dtype=bool), ident, mirror, lookup
    else:
        point, w = rotation.point, rotation.phases
        fixed = point == ident
        member = (ident < point) | (fixed & (w == sign))
        fold = np.minimum(ident, point)  # the sector position of each window position
        tau = fold[mirror]
        phase = np.where(mirror > point[mirror], np.sqrt(sign * w.conj()), 1.0)
        scale = np.where(fixed, np.sqrt(0.5), 1.0) * phase

        def entry(r: np.ndarray, c: np.ndarray) -> np.ndarray:
            return scale[r].conj() * scale[c] * (lookup(r, c) + sign * w[c] * lookup(r, point[c]))

    rank = np.cumsum(member) - 1
    rep = np.minimum(ident, tau)
    weight = np.where(tau == ident, np.sqrt(0.5), 1.0)
    cols = fold[A.cols]
    mine = (A.rows == rep[A.rows]) & member[A.rows] & member[cols]
    pairs = np.unique(A.rows[mine].astype(np.int64) * n + rep[cols[mine]])
    i, j = pairs // n, pairs % n
    a, a_mirror = entry(i, j), entry(i, tau[j])
    plus, minus = a + a_mirror, a - a_mirror
    scale = weight[i] * weight[j]
    ri, rj = tau[i], tau[j]
    # the (s, s), (s, t), (t, s) and (t, t) entries of each representative
    # pair; a t row or column exists only where its index is not fixed
    p = np.concatenate([i, i, ri, ri])
    q = np.concatenate([j, rj, j, rj])
    v = np.concatenate([plus.real, -minus.imag, plus.imag, minus.real]) * np.tile(scale, 4)
    exists = np.concatenate([i == i, rj != j, ri != i, (ri != i) & (rj != j)])
    keep = exists & (p >= q) & (v != 0)
    p, q, v = rank[p[keep]], rank[q[keep]], v[keep]
    if v.size and int((p - q).max()) > b:
        return None
    ab = np.zeros((b + 1, int(member.sum())), order="F")
    ab[p - q, q] = v
    return ab


def _real_sectors(A: WindowMatrix, window: Window, b: int) -> tuple[list[np.ndarray], float | None] | None:
    """The real band storages of a band window and the residual that
    accepted its rotation split (None when unsplit), or None when the
    window has no real form.  Theta = R conj with R the window's mirror
    (``_mirror``), else plain conjugation (R the identity); then the
    rotation U = D P with P the point reflection of every window axis
    (``_rotation``) splits the real form into the sectors U = 1 and
    U = -1.  A window that fails the rotation check, or whose sector
    storage would leave the band, is its one sector."""
    n = A.dim
    mirror = next((R for R in (_mirror(window), np.arange(n)) if _conjugation_symmetric(A, R)), None)
    if mirror is None:
        return None
    rotation = _rotation(A, mirror, _reflection(window, slice(None)))
    if rotation is not None:
        sectors = [_real_form(A, mirror, b, rotation, sign) for sign in (1, -1)]
        if all(ab is not None for ab in sectors):
            return sectors, rotation.residual
    ab = _real_form(A, mirror, b)
    return None if ab is None else ([ab], None)


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


class _Solve(NamedTuple):
    """What ``_block_spectrum`` found: the sorted eigenvalues, the number
    of connected blocks, the half-bandwidth, the solver, the dimensions of
    the sectors solved apart ([n] when unsplit) and the symmetry residual
    that accepted the split (None when unsplit)."""

    eigenvalues: np.ndarray
    blocks: int
    bandwidth: int
    solver: str
    sectors: list[int]
    residual: float | None = None


def _block_spectrum(A: WindowMatrix, window: Window | None = None) -> _Solve:
    """Sorted eigenvalues of a Hermitian WindowMatrix and how they were
    found (``_Solve``): the half-bandwidth is max |i - j| over the nonzeros
    (0 without off-diagonal nonzeros).  The spectrum is the union of the
    connected blocks' spectra; equal-size blocks are diagonalized in one
    stacked call ("blocks"), written straight from the entries.  A
    connected matrix is diagonalized in band storage when
    BAND_RATIO * b <= n, and by the plain dense call otherwise ("dense").
    In band storage, a matrix over ``window`` with a real form
    (``_real_sectors``: exact checks on the entries) takes the real kernel
    dsbevd ("banded-real"), once per sector; every other band matrix, and
    every one without a window, takes zhbevd ("banded").  Only the dense
    solver and the stacked blocks build dense matrices, so only they are
    capped at MAX_DENSE_DIM."""
    n = A.dim
    if n == 0:
        return _Solve(np.zeros(0), 0, 0, "dense", [0])
    b = int(np.abs(A.rows - A.cols).max()) if A.nnz else 0
    count, labels = _components(A.rows, A.cols, n)
    if count == 1:
        if 0 < BAND_RATIO * b <= n:
            real = None if window is None else _real_sectors(A, window, b)
            if real is None:
                return _Solve(np.sort(_band_eigvals(A, b)), 1, b, "banded", [n])
            sectors, residual = real
            evals = np.concatenate([_real_band_eigvals(ab) for ab in sectors])
            return _Solve(np.sort(evals), 1, b, "banded-real", [ab.shape[1] for ab in sectors], residual)
        return _Solve(np.sort(np.linalg.eigvalsh(A.dense())), 1, b, "dense", [n])
    parts = [np.linalg.eigvalsh(stack).ravel() for stack in _block_stacks(A, labels, labels, count)]
    return _Solve(np.sort(np.concatenate(parts)), count, b, "blocks", [n])


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
    normalization and the matrix's counting shift; evaluates the
    normalized counting function and its jumps.  ``blocks``, ``bandwidth``,
    ``solver``, ``sectors`` and ``symmetry_residual`` say how the spectrum
    was computed (see _block_spectrum)."""

    eigenvalues: np.ndarray
    normalization: int
    shift: float
    blocks: int = 1
    bandwidth: int = 0
    solver: str = "dense"
    sectors: list[int] | None = None
    symmetry_residual: float | None = None

    def count_leq(self, lam: float) -> int:
        """Number of eigenvalues <= lam + ``shift``, the matrix's
        ``counting_shift``."""
        return int(np.searchsorted(self.eigenvalues, lam + self.shift, side="right"))

    def distance(self, lam: float) -> float:
        """Distance from lam to the nearest eigenvalue, read off the sorted
        spectrum (inf when it is empty)."""
        i = int(np.searchsorted(self.eigenvalues, lam))
        near = self.eigenvalues[max(i - 1, 0) : i + 1]
        return float(np.abs(near - lam).min(initial=np.inf))

    def ids(self, lam: float) -> float:
        """F_m(lam) = #{eigenvalues <= lam + shift} / #Lambda_m, the
        right-continuous count of ``count_leq``."""
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
    s = _block_spectrum(A, window)
    return WindowSpectrum(
        s.eigenvalues, len(window.elements), A.counting_shift, s.blocks, s.bandwidth, s.solver,
        s.sectors, s.residual,
    )


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
