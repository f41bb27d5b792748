"""The array machinery against vertex-by-vertex references: window
positions and inner edges, Dirichlet assembly from stencil triplets,
window interiors, the array Hofstadter phases and the complex products
inside weight rules.  Windows run over random graphs and random
translate sets, and over non-box sets: an L-shape with a hole, a
translated box, a single translate and a 3D box."""

from fractions import Fraction

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given

from magspec.exhaustion import folner_box, interior_vertices, translated, window_subgraph
from magspec.lattice import Vertex, add, periodic_graph, simplicial_ball, square_lattice
from magspec.operators import (
    WeightFunction,
    gauge_transformed,
    harper_dml,
    hofstadter_weights,
    landau_phase,
    perturbed_weights,
    unit_phase,
    with_conjugation_defect,
)
from magspec.spectra import assemble_dirichlet

from strategies import graphs, shifts, vertices

DECORATED_CUBE = periodic_graph(
    3, 2, [(0, 1, (0, 0, 0)), (1, 0, (1, 0, 0)), (0, 0, (0, 1, 0)), (1, 1, (0, 0, 1))]
)
L_WITH_HOLE = sorted(
    set(folner_box(2, 5)) - {(x, y) for x in (3, 4) for y in (3, 4)} - {(1, 1)}
)
FIXED = {
    "l-shape-with-hole": (square_lattice(), L_WITH_HOLE),
    "translated-box": (square_lattice(), translated(folner_box(2, 4), (-7, 3))),
    "single-translate": (square_lattice(), [(2, -5)]),
    "3d-box": (DECORATED_CUBE, folner_box(3, 3)),
}


@st.composite
def graph_windows(draw):
    """A random graph and a random set of 1-16 translates (holes and
    disconnected pieces included)."""
    graph = draw(graphs())
    elements = draw(st.sets(shifts(graph.dimension, -3, 3), min_size=1, max_size=16))
    return graph, sorted(elements)


def index_of(window):
    return {v: j for j, v in enumerate(vertices(window))}


def phased(graph):
    """Weights that depend on every template and on the origin translate."""
    rules = [
        lambda s, i=i: landau_phase(Fraction(i + 1, 5), s.sum(axis=1))
        for i in range(len(graph.templates))
    ]
    return WeightFunction(graph, rules)


def check_positions(graph, elements):
    w = window_subgraph(graph, elements)
    index = index_of(w)
    assert np.array_equal(w.positions(w.orbits, w.shifts), np.arange(len(w)))
    pad = 3
    lo = np.min(w.elements, axis=0) - pad
    hi = np.max(w.elements, axis=0) + pad
    grid = np.stack(np.meshgrid(*[np.arange(a, b + 1) for a, b in zip(lo, hi)], indexing="ij"), -1)
    grid = grid.reshape(-1, graph.dimension)
    for orb in range(graph.num_orbits):
        got = w.positions(np.full(len(grid), orb), grid)
        want = [index.get(Vertex(orb, tuple(int(x) for x in s)), -1) for s in grid]
        assert got.tolist() == want
    far = np.full((1, graph.dimension), 10**6)
    assert w.positions(np.zeros(1, dtype=int), far).tolist() == [-1]


def check_edge_ends(graph, elements):
    """Inner E+ edges in origin order, then template order."""
    w = window_subgraph(graph, elements)
    index = index_of(w)
    want = []
    for v in vertices(w):
        for i, t in enumerate(graph.templates):
            head = graph.template_edge(i, v.shift).terminus
            if t.origin_orbit == v.orbit and head in index:
                want.append((index[v], index[head], i))
    assert list(zip(*(a.tolist() for a in w.edge_ends()))) == want


def reference_dirichlet(op, window):
    """<A delta_v, delta_u> vertex by vertex, each coefficient read at one
    translate."""
    index = index_of(window)
    M = np.zeros((len(window), len(window)), dtype=complex)
    for j, v in enumerate(vertices(window)):
        for ent in op.entries.get(v.orbit, ()):
            u = Vertex(ent.target_orbit, add(v.shift, ent.offset))
            if u in index:
                M[index[u], j] += ent.coeff(np.array([v.shift]))[0]
    return M


def reference_triplets(op, window):
    """Stencil entries column by column, in stencil order."""
    return [
        (ent.target_orbit, add(v.shift, ent.offset), j, complex(ent.coeff(np.array([v.shift]))[0]))
        for j, v in enumerate(vertices(window))
        for ent in op.entries.get(v.orbit, ())
    ]


def check_dirichlet(graph, elements):
    w = window_subgraph(graph, elements)
    for op in harper_dml(graph, phased(graph)):
        to_orbit, to_shift, src, vals = op.triplets(w.orbits, w.shifts)
        got = list(zip(to_orbit.tolist(), map(tuple, to_shift.tolist()), src.tolist(), vals.tolist()))
        assert got == reference_triplets(op, w)
        assert np.array_equal(assemble_dirichlet(op, w), reference_dirichlet(op, w))


def reference_interior(graph, window, radius):
    """Positions of the vertices whose whole graph-metric radius-ball lies
    in the window."""
    verts = vertices(window)
    inside = set(verts)
    return [j for j, v in enumerate(verts) if set(simplicial_ball(graph, v, radius)) <= inside]


def check_interior(graph, elements):
    w = window_subgraph(graph, elements)
    for radius in (0, 1, 2, 3):
        split = interior_vertices(graph, w, radius)
        assert split.interior_positions.tolist() == reference_interior(graph, w, radius)


class TestFixedWindows:
    @pytest.mark.parametrize("case", sorted(FIXED))
    def test_positions_invert_vertex_order(self, case):
        check_positions(*FIXED[case])

    @pytest.mark.parametrize("case", sorted(FIXED))
    def test_edge_ends_match_vertex_reference(self, case):
        check_edge_ends(*FIXED[case])

    @pytest.mark.parametrize("case", sorted(FIXED))
    def test_triplets_and_dirichlet_match_vertex_reference(self, case):
        check_dirichlet(*FIXED[case])

    @pytest.mark.parametrize("case", sorted(FIXED))
    def test_interior_matches_ball_reference(self, case):
        check_interior(*FIXED[case])


class TestRandomWindows:
    @given(graph_windows())
    def test_positions_invert_vertex_order(self, gw):
        check_positions(*gw)

    @given(graph_windows())
    def test_edge_ends_match_vertex_reference(self, gw):
        check_edge_ends(*gw)

    @given(graph_windows())
    def test_triplets_and_dirichlet_match_vertex_reference(self, gw):
        check_dirichlet(*gw)

    @given(graph_windows())
    def test_interior_matches_ball_reference(self, gw):
        check_interior(*gw)


FLUXES = [Fraction(1, 2), Fraction(1, 3), Fraction(2, 7), Fraction(-1, 3), Fraction(5, 12),
          Fraction(0), Fraction(7, 5), 0.3183098861837907, 0.1, 0.618033988749895]


class TestHofstadterPhases:
    @pytest.mark.parametrize("flux", FLUXES)
    def test_bit_equal_to_scalar_formula(self, flux):
        x = np.arange(-500, 500)
        want = np.array([unit_phase(flux * int(t)) for t in x])
        assert np.array_equal(landau_phase(flux, x).view(float), want.view(float))

    @given(st.integers(-40, 40), st.integers(1, 60), st.lists(st.integers(-10**6, 10**6), max_size=20))
    def test_rational_flux_bit_equal(self, p, q, xs):
        flux = Fraction(p, q)
        x = np.array(xs, dtype=np.int64)
        want = np.array([unit_phase(flux * t) for t in xs], dtype=complex)
        assert np.array_equal(landau_phase(flux, x).view(float), want.view(float))

    @pytest.mark.parametrize("flux", FLUXES)
    def test_weights_read_the_column(self, flux):
        g = square_lattice()
        w = hofstadter_weights(g, flux)
        vertical = next(i for i, t in enumerate(g.templates) if t.offset == (0, 1))
        s = np.array([[x, y] for x in range(-9, 9) for y in (-4, 0, 3)])
        want = np.array([unit_phase(flux * int(x)) for x in s[:, 0]])
        assert np.array_equal(w.positive_phase(vertical, s).view(float), want.view(float))


class TestComplexProducts:
    """Rules that multiply phases give the bits of Python's complex product
    (numpy's complex multiply may fuse a multiply-add)."""

    S = np.array([[x, y] for x in range(-6, 6) for y in range(-3, 3)])

    def base(self):
        return hofstadter_weights(square_lattice(), Fraction(2, 7))

    def scalar(self, w, template):
        return [complex(c) for c in w.positive_phase(template, self.S)]

    def test_conjugation_defect(self):
        base, defect = self.base(), unit_phase(0.2)
        w = with_conjugation_defect(base, 0.2)
        for i in range(2):
            want = np.array([c.conjugate() * defect for c in self.scalar(base, i)])
            assert np.array_equal(w.reversed_phase(i, self.S).view(float), want.view(float))

    def test_perturbed_edge(self):
        base, factor = self.base(), unit_phase(0.3)
        w = perturbed_weights(base, 1, (1, 2), 0.3)
        hit = [tuple(s) == (1, 2) for s in self.S.tolist()]
        want = np.array([c * (factor if h else 1.0) for c, h in zip(self.scalar(base, 1), hit)])
        assert np.array_equal(w.positive_phase(1, self.S).view(float), want.view(float))

    def test_gauge_transform(self):
        base = self.base()
        rng = np.random.default_rng(3)
        u = {(x, y): unit_phase(rng.random()) for x in range(-7, 8) for y in range(-4, 5)}
        w = gauge_transformed(base, lambda orbit, s: np.array([u[tuple(t)] for t in s.tolist()]))
        for i, t in enumerate(square_lattice().templates):
            want = np.array([
                c * u[tuple(np.add(s, t.offset).tolist())] * u[tuple(s)].conjugate()
                for c, s in zip(self.scalar(base, i), self.S.tolist())
            ])
            assert np.array_equal(w.positive_phase(i, self.S).view(float), want.view(float))
