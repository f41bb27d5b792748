"""Periodic graphs carrying a free Z^d translation action.

A graph is described by a finite fundamental domain (orbit indices
0..num_orbits-1) together with a list of edge templates.  Template
(a, b, off) stands for the Z^d-orbit of edges (a, x) -> (b, x + off);
the translate x ranges over the whole group, so the data stays finite
while the graph is infinite.  The template representatives with
``reversed=False`` form the positive orientation class E+ (exactly one
of e, reverse(e) is positive for every combinatorial edge).

Vertices are (orbit, shift) pairs; freeness of the action is automatic
because the group acts on the shift component alone.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Optional

Shift = tuple[int, ...]


class GraphSpecError(ValueError):
    """Malformed periodic-graph description."""


class Vertex(NamedTuple):
    orbit: int
    shift: Shift


class OrientedEdge(NamedTuple):
    origin: Vertex
    terminus: Vertex
    template: int
    reversed: bool


def add(a: Shift, b: Shift) -> Shift:
    return tuple(x + y for x, y in zip(a, b))


def neg(a: Shift) -> Shift:
    return tuple(-x for x in a)


def word_length(a: Shift) -> int:
    return sum(abs(x) for x in a)


def word_ball(dimension: int, radius: int) -> list[Shift]:
    """All group elements of l1 word length <= radius, sorted."""
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    rng = range(-radius, radius + 1)
    return sorted(
        g
        for g in itertools.product(rng, repeat=dimension)
        if word_length(g) <= radius
    )


def reverse(e: OrientedEdge) -> OrientedEdge:
    return OrientedEdge(e.terminus, e.origin, e.template, not e.reversed)


@dataclass(frozen=True)
class EdgeTemplate:
    origin_orbit: int
    terminus_orbit: int
    offset: Shift


@dataclass(frozen=True)
class PeriodicGraph:
    dimension: int
    num_orbits: int
    templates: tuple[EdgeTemplate, ...]
    generators: tuple[Shift, ...]

    def template_edge(self, index: int, shift: Shift) -> OrientedEdge:
        """The E+ edge of template ``index`` anchored at origin translate ``shift``."""
        t = self.templates[index]
        return OrientedEdge(
            Vertex(t.origin_orbit, shift),
            Vertex(t.terminus_orbit, add(shift, t.offset)),
            index,
            False,
        )

    def valence(self, orbit: int) -> int:
        return sum(t.origin_orbit == orbit for t in self.templates) + sum(
            t.terminus_orbit == orbit for t in self.templates
        )

    def neighbors(self, v: Vertex) -> list[OrientedEdge]:
        """All oriented edges with origin v, in template order, E+ edges first."""
        out = []
        for i, t in enumerate(self.templates):
            if t.origin_orbit == v.orbit:
                out.append(self.template_edge(i, v.shift))
        for i, t in enumerate(self.templates):
            if t.terminus_orbit == v.orbit:
                out.append(reverse(self.template_edge(i, add(v.shift, neg(t.offset)))))
        return out


def periodic_graph(
    dimension: int,
    num_orbits: int,
    templates: Iterable[tuple[int, int, Iterable[int]]],
) -> PeriodicGraph:
    """Validate a graph description and build the PeriodicGraph, whose
    generators are the unit shifts and their inverses.

    Rejects an empty fundamental domain, orbit indices out of range and
    self-loop templates (zero offset between equal orbits).  Multi-edges
    between the same vertex pair are allowed through distinct templates.
    """
    if dimension not in (1, 2, 3):
        raise GraphSpecError(f"dimension must be 1, 2 or 3, got {dimension}")
    if num_orbits < 1:
        raise GraphSpecError("empty fundamental domain")
    built = []
    for a, b, off in templates:
        off = tuple(int(x) for x in off)
        if len(off) != dimension:
            raise GraphSpecError(f"offset {off} has wrong dimension")
        if not (0 <= a < num_orbits and 0 <= b < num_orbits):
            raise GraphSpecError(f"orbit index out of range in template ({a},{b},{off})")
        if a == b and all(x == 0 for x in off):
            raise GraphSpecError("self-loop template rejected")
        built.append(EdgeTemplate(a, b, off))
    gens = []
    for i in range(dimension):
        e = tuple(1 if j == i else 0 for j in range(dimension))
        gens.append(e)
        gens.append(neg(e))
    return PeriodicGraph(dimension, num_orbits, tuple(built), tuple(gens))


def line_graph() -> PeriodicGraph:
    """The integer line: one orbit, one right-pointing template."""
    return periodic_graph(1, 1, [(0, 0, (1,))])


def square_lattice() -> PeriodicGraph:
    """Z^2 with east- and north-pointing templates."""
    return periodic_graph(2, 1, [(0, 0, (1, 0)), (0, 0, (0, 1))])


def triangle_cells() -> PeriodicGraph:
    """Z-many disjoint triangles: three orbits joined by zero-offset edges."""
    return periodic_graph(1, 3, [(0, 1, (0,)), (1, 2, (0,)), (0, 2, (0,))])


def simplicial_ball(g: PeriodicGraph, v: Vertex, radius: int) -> dict[Vertex, int]:
    """Vertex -> graph distance for the radius-ball around v (BFS)."""
    dist = {v: 0}
    frontier = deque([v])
    while frontier:
        u = frontier.popleft()
        du = dist[u]
        if du == radius:
            continue
        for e in g.neighbors(u):
            w = e.terminus
            if w not in dist:
                dist[w] = du + 1
                frontier.append(w)
    return dist


def simplicial_distance(
    g: PeriodicGraph, u: Vertex, v: Vertex, cap: int
) -> Optional[int]:
    """Graph distance from u to v, or None when it exceeds ``cap``."""
    if u == v:
        return 0
    dist = {u: 0}
    frontier = deque([u])
    while frontier:
        w = frontier.popleft()
        dw = dist[w]
        if dw == cap:
            continue
        for e in g.neighbors(w):
            t = e.terminus
            if t not in dist:
                if t == v:
                    return dw + 1
                dist[t] = dw + 1
                frontier.append(t)
    return None
