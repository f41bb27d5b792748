"""Shared test helpers: hypothesis strategies for random small periodic
graphs and shifts, the group action on vertices and the orientation
class of edges, the edgeless graph, the counting function of a jump
list, the vertex list of a window, the set-based collar reference, the
two-orbit decorated square lattice, the dense window matrices, the
vertex-by-vertex window mirror and the dense-copy band solvers (complex
and real) that the triplet band paths are checked against, and
``from_dense``, which hands a dense test matrix to the counting layer."""

import hypothesis.strategies as st
import numpy as np
from scipy.linalg.lapack import get_lapack_funcs

from magspec.lattice import OrientedEdge, PeriodicGraph, Vertex, add, periodic_graph, reverse, word_ball
from magspec.operators import WeightFunction, harper_dml, landau_phase, window_coo
from magspec.spectra import WindowMatrix


@st.composite
def shifts(draw, dimension, lo=-4, hi=4):
    return tuple(
        draw(st.integers(min_value=lo, max_value=hi)) for _ in range(dimension)
    )


@st.composite
def graph_specs(draw):
    """Valid periodic-graph descriptions with 1-2 dimensions, up to 3
    orbits and up to 4 templates (no self-loops, offsets within l1 <= 2)."""
    dimension = draw(st.integers(min_value=1, max_value=2))
    orbits = draw(st.integers(min_value=1, max_value=3))
    n_templates = draw(st.integers(min_value=1, max_value=4))
    templates = []
    for _ in range(n_templates):
        a = draw(st.integers(min_value=0, max_value=orbits - 1))
        b = draw(st.integers(min_value=0, max_value=orbits - 1))
        off = tuple(
            draw(st.integers(min_value=-2, max_value=2)) for _ in range(dimension)
        )
        if sum(abs(x) for x in off) > 2:
            off = tuple(max(-1, min(1, x)) for x in off)
        if a == b and all(x == 0 for x in off):
            off = (1,) + off[1:]
        templates.append((a, b, off))
    return dimension, orbits, templates


@st.composite
def graphs(draw):
    dimension, orbits, templates = draw(graph_specs())
    return periodic_graph(dimension, orbits, templates)


def act(gamma, v: Vertex) -> Vertex:
    """Translate a vertex by a group element (the free action)."""
    return Vertex(v.orbit, add(gamma, v.shift))


def is_positive(e: OrientedEdge) -> bool:
    """Membership in the positive orientation class E+."""
    return not e.reversed


def positive_representative(e: OrientedEdge) -> OrientedEdge:
    """The E+ member of {e, reverse(e)}."""
    return e if not e.reversed else reverse(e)


def isolated_cells(dimension: int = 1, num_orbits: int = 1) -> PeriodicGraph:
    """Edgeless graph (valence zero everywhere)."""
    return periodic_graph(dimension, num_orbits, [])


def exact_ids_from_jumps(jumps, lam: float) -> float:
    """Counting function of a pure-point model: sum of jumps at or below lam."""
    return float(sum(d for x, d in jumps if x <= lam + 1e-12))


def vertices(window):
    """The window's vertices as Vertex pairs, in window order, read off its
    arrays: the vertex-by-vertex references compare against these."""
    return [window.vertex(j) for j in range(len(window))]


def boundary_collar(elements, delta):
    """Two-sided collar, element by element: the group elements within
    delta of the set and of its complement, in the l1 word metric.  The
    reference that the array collar of ``isoperimetric_ratio`` is checked
    against."""
    elems = {tuple(g) for g in elements}
    ball = word_ball(len(next(iter(elems))), delta)
    candidates = {add(g, b) for g in elems for b in ball}
    return {
        g for g in candidates
        if any(add(g, b) in elems for b in ball) and any(add(g, b) not in elems for b in ball)
    }


def decorated_lattice(flux):
    """Two-orbit decorated square lattice at a rational flux in Landau
    gauge: an A-B rung inside the cell, a B-A horizontal bridge and
    vertical edges on both orbits carrying the column-dependent phase.
    Returns (graph, weights, dml)."""
    graph = periodic_graph(2, 2, [
        (0, 1, (0, 0)),
        (1, 0, (1, 0)),
        (0, 0, (0, 1)),
        (1, 1, (0, 1)),
    ])
    rules = [
        1.0,
        1.0,
        lambda s: landau_phase(flux, s[:, 0]),
        lambda s: landau_phase(flux, s[:, 0]),
    ]
    weights = WeightFunction(graph, rules, flux=flux)
    harper, dml = harper_dml(graph, weights)
    return graph, weights, dml


def dense_dirichlet(op, window):
    """The Dirichlet window matrix scattered straight onto an n x n zero
    matrix: ``np.add.at`` of the ``window_coo`` triplets whose target is
    inside the window."""
    n = len(window)
    rows, cols, vals = window_coo(op, window)
    inside = rows >= 0
    M = np.zeros((n, n), dtype=complex)
    np.add.at(M, (rows[inside], cols[inside]), vals[inside])
    return M


def dense_neumann(graph, weights, window):
    """The Neumann window matrix on a dense array: the dense Dirichlet
    Laplacian, then its diagonal lowered by valence minus inner edges."""
    M = dense_dirichlet(harper_dml(graph, weights)[1], window)
    tails, heads, _ = window.edge_ends()
    inner = np.bincount(np.concatenate([tails, heads]), minlength=len(window))
    valence = np.array([graph.valence(orb) for orb in range(graph.num_orbits)])
    M[np.diag_indices_from(M)] -= valence[window.orbits] - inner
    return M


def dense_band_spectrum(M):
    """The band solver reading a dense matrix: nnz and the half-bandwidth b
    from its nonzeros, the b + 1 lower diagonals copied off M into LAPACK
    band storage, and the sorted ``zhbevd`` eigenvalues.  Returns
    (eigenvalues, nnz, b)."""
    n = M.shape[0]
    rows, cols = np.nonzero(M)
    b = int(np.abs(rows - cols).max())
    ab = np.zeros((b + 1, n), dtype=complex)
    for k in range(b + 1):
        ab[k, : n - k] = M.diagonal(-k)
    evals, _, info = get_lapack_funcs("hbevd", dtype=np.complex128)(
        ab, compute_v=0, lower=1, overwrite_ab=1
    )
    assert info == 0
    return np.sort(evals), int(np.count_nonzero(M)), b


def window_mirror(window):
    """Position of each vertex's mirror image across the last axis of the
    window's translates (orbit kept), -1 off the window, found vertex by
    vertex in a dict index."""
    verts = vertices(window)
    index = {v: j for j, v in enumerate(verts)}
    lo = min(v.shift[-1] for v in verts)
    hi = max(v.shift[-1] for v in verts)
    return np.array([
        index.get(Vertex(v.orbit, v.shift[:-1] + (lo + hi - v.shift[-1],)), -1) for v in verts
    ])


def dense_real_band_spectrum(M, mirror):
    """The real band solver reading a dense matrix: the half-bandwidth b
    from its nonzeros, each of the b + 1 lower diagonals of the real form
    U^* M U (U: s = (e_i + e_Ri)/sqrt 2 at the lower index of a mirror
    pair, t = i (e_i - e_Ri)/sqrt 2 at the upper one, e_i at a fixed
    point) computed position by position off M, zeros written as +0.0, and
    the sorted ``dsbevd`` eigenvalues of scipy's f2py ``sbevd``.  Returns
    (eigenvalues, b)."""
    n = M.shape[0]
    rows, cols = np.nonzero(M)
    b = int(np.abs(rows - cols).max())
    rep = np.minimum(np.arange(n), mirror)
    upper = np.arange(n) != rep  # the t column of a pair
    weight = np.where(mirror == np.arange(n), np.sqrt(0.5), 1.0)
    ab = np.zeros((b + 1, n), order="F")
    for k in range(b + 1):
        p = np.arange(k, n)
        q = p - k
        i, j = rep[p], rep[q]
        a, a_mirror = M[i, j], M[i, mirror[j]]
        plus, minus = a + a_mirror, a - a_mirror
        value = np.select(
            [~upper[p] & ~upper[q], ~upper[p] & upper[q], upper[p] & ~upper[q]],
            [plus.real, -minus.imag, plus.imag],
            minus.real,
        ) * (weight[i] * weight[j])
        ab[k, q] = np.where(value != 0, value, 0.0)
    evals, _, info = get_lapack_funcs("sbevd", dtype=np.float64)(
        ab, compute_v=0, lower=1, overwrite_ab=1
    )
    assert info == 0
    return np.sort(evals), b


def from_dense(M) -> WindowMatrix:
    """The WindowMatrix of a dense matrix: its nonzeros as ``np.nonzero``
    reads them, in (row, column) order."""
    rows, cols = np.nonzero(M)
    return WindowMatrix(rows, cols, M[rows, cols], M.shape)
