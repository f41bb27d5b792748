"""Folner boxes in Z^d and the window subgraphs they cut out of a graph.

Windows enumerate their vertices in a fixed order (lexicographic by
translate, then orbit) so that every matrix built over the same window is
reproducible; they hold them as arrays and find positions by mixed-radix
arithmetic on the bounding box of their translates.  Interiors are
computed against the graph metric: a vertex belongs to the r-interior when
its whole r-ball stays inside the window, which is decided exactly along
the window's inner edges (the graph itself is never materialized).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .lattice import PeriodicGraph, Shift, Vertex, add, word_ball


def folner_box(dimension: int, m: int) -> list[Shift]:
    """The box {0..m-1}^d, the m-th member of the standard Folner tower."""
    if m < 1:
        raise ValueError("box index must be >= 1")
    return sorted(itertools.product(range(m), repeat=dimension))


def isoperimetric_ratio(elements: Iterable[Shift], delta: int) -> Fraction:
    """#(delta-collar) / #(set), exact rational.  The two-sided collar, the
    group elements within delta of the set and of its complement in the l1
    word metric, is the set's delta-dilation minus its delta-erosion; the
    ball holds 0, so the erosion lies inside the dilation."""
    if delta < 1:
        raise ValueError("delta must be >= 1")
    elems = np.unique(np.array([tuple(g) for g in elements], dtype=np.int64), axis=0)
    if not elems.size:
        raise ValueError("the set must be nonempty")
    near = elems[:, None, :] + np.array(word_ball(elems.shape[1], delta), dtype=np.int64)
    lo = near.min(axis=(0, 1))
    span = tuple(int(x) for x in near.max(axis=(0, 1)) - lo + 1)
    keys = np.ravel_multi_index(tuple(np.moveaxis(near - lo, -1, 0)), span)
    inside = np.isin(keys, np.ravel_multi_index(tuple((elems - lo).T), span))
    dilation = np.unique(keys).size
    erosion = np.count_nonzero(inside.all(axis=1))
    return Fraction(dilation - erosion, len(elems))


@dataclass(eq=False)
class Window:
    """Finite window of a periodic graph over a Folner set of translates.

    ``elements`` are the translates, sorted and distinct, as the rows of
    an int64 array of shape (k, d) (any array-like of shifts is converted
    on construction).  Vertex j of the window is (``orbits[j]``,
    ``shifts[j]``); vertices are sorted by (shift, orbit).  ``positions``
    inverts that order.  Immutable after construction.
    """

    graph: PeriodicGraph
    elements: np.ndarray

    def __post_init__(self) -> None:
        norb = self.graph.num_orbits
        box = np.asarray(self.elements, dtype=np.int64).reshape(-1, self.graph.dimension)
        self.elements = box
        self.orbits = np.tile(np.arange(norb), len(box))
        self.shifts = np.repeat(box, norb, axis=0)
        self._lo = box.min(axis=0)
        self._span = tuple(int(x) for x in box.max(axis=0) - self._lo + 1)
        self._table = np.full(math.prod(self._span) * norb, -1, dtype=np.intp)
        self._table[self._keys(self.orbits, self.shifts - self._lo)] = np.arange(len(self))

    def __len__(self) -> int:
        return len(self.orbits)

    def vertex(self, j: int) -> Vertex:
        """Vertex j as an (orbit, shift) pair, for messages."""
        return Vertex(int(self.orbits[j]), tuple(int(x) for x in self.shifts[j]))

    @property
    def verts(self) -> tuple[Vertex, ...]:
        """Every vertex, built on access; only the benchmark's tracer reads it."""
        return tuple(map(self.vertex, range(len(self))))

    def _keys(self, orbits: np.ndarray, rel: np.ndarray) -> np.ndarray:
        flat = np.ravel_multi_index(tuple(rel.T), self._span, mode="clip")
        return flat * self.graph.num_orbits + orbits

    def positions(self, orbits, shifts: np.ndarray) -> np.ndarray:
        """Window position of each vertex (orbits[k], shifts[k]), -1 for a
        vertex off the window; shifts has shape (k, d), and orbits is an
        array of k orbits or one orbit for all."""
        rel = np.asarray(shifts).reshape(-1, self.graph.dimension) - self._lo
        inside = ((rel >= 0) & (rel < self._span)).all(axis=1)
        return np.where(inside, self._table[self._keys(orbits, rel)], -1)

    def edge_ends(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every E+ edge with both endpoints inside the window: positions of
        its origin and terminus and its template index, ordered by origin,
        then by template."""
        ends = [np.zeros((3, 0), dtype=np.intp)]
        for i, t in enumerate(self.graph.templates):
            tails = np.flatnonzero(self.orbits == t.origin_orbit)
            heads = self.positions(t.terminus_orbit, self.shifts[tails] + t.offset)
            inner = heads >= 0
            ends.append(np.stack([tails[inner], heads[inner], np.full(int(inner.sum()), i)]))
        tails, heads, templates = np.concatenate(ends, axis=1)
        order = np.argsort(tails, kind="stable")
        return tails[order], heads[order], templates[order]


def distinct_rows(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of a 2D integer array in lexicographic order, and
    for each row the index of its distinct row: what ``np.unique(keys,
    axis=0, return_inverse=True)`` returns, from a lexsort over the
    columns (first column most significant) and a row-change mask instead
    of an argsort over void-typed rows."""
    order = np.lexsort(keys.T[::-1])
    ordered = keys[order]
    starts = np.ones(len(keys), dtype=bool)
    starts[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    inverse = np.empty(len(keys), dtype=np.intp)
    inverse[order] = np.cumsum(starts) - 1
    return ordered[starts], inverse


def window_subgraph(graph: PeriodicGraph, elements: Iterable[Shift]) -> Window:
    """Largest subgraph of the periodic graph over the given translates,
    which are deduplicated and sorted as rows of an integer array
    (lexicographic row order is sorted-tuple order)."""
    translates = [tuple(g) for g in elements]
    if not translates:
        raise ValueError("window needs at least one translate")
    if any(len(g) != graph.dimension for g in translates):
        raise ValueError("translate dimension mismatch")
    return Window(graph, distinct_rows(np.array(translates, dtype=np.int64))[0])


@dataclass(eq=False)
class InteriorSplit:
    """Partition of a window into its r-interior (ascending window
    positions) and the boundary collar (every other position)."""

    radius: int
    interior_positions: np.ndarray


def interior_vertices(graph: PeriodicGraph, window: Window, radius: int) -> InteriorSplit:
    """Split window vertices into the r-interior (graph-metric r-ball stays
    inside the window) and the complementary boundary collar.

    A vertex is within distance 1 of the complement when fewer of its
    edge ends lie on inner edges than its valence; a shortest path to the
    complement stays inside the window until its last step, so the collar
    grows from those vertices along the inner edges, once per unit of
    radius.
    """
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    tails, heads, _ = window.edge_ends()
    valence = np.array([graph.valence(orb) for orb in range(graph.num_orbits)])
    degree = np.bincount(np.concatenate([tails, heads]), minlength=len(window))
    outside = degree < valence[window.orbits]  # some edge leaves the window
    near = np.zeros(len(window), dtype=bool)
    for _ in range(radius):
        grown = near | outside
        grown[heads[near[tails]]] = True
        grown[tails[near[heads]]] = True
        near = grown
    return InteriorSplit(radius, np.flatnonzero(~near))


def window_boundary_ratio(graph: PeriodicGraph, window: Window, delta: int) -> Fraction:
    """Fraction of window vertices within graph distance delta of the
    complement (the inner delta-collar of the window subgraph)."""
    split = interior_vertices(graph, window, delta)
    return Fraction(len(window) - split.interior_positions.size, len(window))


def translated(elements: Sequence[Shift], gamma: Shift) -> list[Shift]:
    """The translate gamma + set, used for translation-invariance checks."""
    return [add(gamma, g) for g in elements]
