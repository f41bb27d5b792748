"""Group action, word balls, neighbor enumeration and the positive
orientation class."""

import math

import hypothesis.strategies as st
import pytest
from hypothesis import given

from magspec.lattice import (
    GraphSpecError,
    Vertex,
    line_graph,
    periodic_graph,
    reverse,
    simplicial_ball,
    simplicial_distance,
    square_lattice,
    triangle_cells,
    word_ball,
)
from strategies import act, graphs, is_positive, positive_representative, shifts


class TestGroupAction:
    def test_identity(self):
        v = Vertex(0, (2, 3))
        assert act((0, 0), v) == v

    def test_translation(self):
        assert act((1, 0), Vertex(0, (2, 3))) == Vertex(0, (3, 3))

    @given(shifts(2), shifts(2), st.integers(0, 2))
    def test_composition(self, g1, g2, orbit):
        v = Vertex(orbit, (0, 0))
        assert act(g1, act(g2, v)) == act(tuple(a + b for a, b in zip(g1, g2)), v)

    @given(shifts(3))
    def test_inverse(self, g):
        v = Vertex(1, (5, -2, 0))
        ginv = tuple(-x for x in g)
        assert act(ginv, act(g, v)) == v

    @given(shifts(2))
    def test_freeness_on_word_ball(self, g):
        # act(gamma, v) = v forces gamma = 0
        v = Vertex(0, (0, 0))
        if act(g, v) == v:
            assert g == (0, 0)


def ball_size_formula(d: int, r: int) -> int:
    # independent oracle: sum_k 2^k C(d,k) C(r,k) counts the l1 ball in Z^d
    return sum(2**k * math.comb(d, k) * math.comb(r, k) for k in range(d + 1))


class TestWordBall:
    def test_radius_zero(self):
        assert word_ball(1, 0) == [(0,)]

    def test_line_radius_two(self):
        assert word_ball(1, 2) == [(-2,), (-1,), (0,), (1,), (2,)]

    def test_plane_radius_one(self):
        assert len(word_ball(2, 1)) == 5

    @given(st.integers(1, 3), st.integers(0, 5))
    def test_size_formula(self, d, r):
        assert len(word_ball(d, r)) == ball_size_formula(d, r)

    def test_negative_radius(self):
        with pytest.raises(ValueError):
            word_ball(1, -1)


class TestBuildGraph:
    def test_empty_domain_rejected(self):
        with pytest.raises(GraphSpecError):
            periodic_graph(1, 0, [])

    def test_orbit_out_of_range(self):
        with pytest.raises(GraphSpecError):
            periodic_graph(1, 2, [(0, 2, (0,))])

    def test_self_loop_rejected(self):
        with pytest.raises(GraphSpecError):
            periodic_graph(2, 1, [(0, 0, (0, 0))])

    def test_dimension_guard(self):
        with pytest.raises(GraphSpecError):
            periodic_graph(4, 1, [])

    def test_canonical_lattices(self):
        assert line_graph().valence(0) == 2
        assert square_lattice().valence(0) == 4
        tri = triangle_cells()
        assert all(tri.valence(o) == 2 for o in range(3))

    def test_edgeless_graph_allowed(self):
        g = periodic_graph(1, 1, [])
        assert g.valence(0) == 0
        assert g.neighbors(Vertex(0, (0,))) == []


class TestNeighbors:
    def test_line_valence(self):
        g = line_graph()
        edges = g.neighbors(Vertex(0, (5,)))
        assert len(edges) == 2
        assert {e.terminus.shift for e in edges} == {(4,), (6,)}

    def test_square_valence(self):
        g = square_lattice()
        assert len(g.neighbors(Vertex(0, (1, 7)))) == 4

    def test_triangle_valence(self):
        g = triangle_cells()
        edges = g.neighbors(Vertex(1, (3,)))
        assert len(edges) == 2
        assert {e.terminus.orbit for e in edges} == {0, 2}
        assert all(e.terminus.shift == (3,) for e in edges)

    def test_origin_is_vertex(self):
        g = square_lattice()
        v = Vertex(0, (2, -1))
        assert all(e.origin == v for e in g.neighbors(v))

    @given(graphs(), shifts(2, -2, 2))
    def test_equivariance(self, g, gamma):
        gamma = gamma[: g.dimension]
        v = Vertex(0, (0,) * g.dimension)
        moved = [
            (act(gamma, e.origin), act(gamma, e.terminus), e.template, e.reversed)
            for e in g.neighbors(v)
        ]
        direct = [tuple(e) for e in g.neighbors(act(gamma, v))]
        assert moved == direct

    @given(graphs())
    def test_valence_constant_on_orbits(self, g):
        for orbit in range(g.num_orbits):
            v0 = Vertex(orbit, (0,) * g.dimension)
            v1 = Vertex(orbit, (3,) * g.dimension)
            assert len(g.neighbors(v0)) == len(g.neighbors(v1)) == g.valence(orbit)


class TestOrientation:
    def test_line_positive_edges_point_right(self):
        g = line_graph()
        pos = [e for e in g.neighbors(Vertex(0, (0,))) if is_positive(e)]
        assert len(pos) == 1 and pos[0].terminus.shift == (1,)

    def test_square_positive_edges_point_east_north(self):
        g = square_lattice()
        pos = [e for e in g.neighbors(Vertex(0, (0, 0))) if is_positive(e)]
        assert {e.terminus.shift for e in pos} == {(1, 0), (0, 1)}

    @given(graphs())
    def test_transversal(self, g):
        # exactly one of {e, reverse(e)} is positive, and the positive
        # representative is shared by both members of the pair
        for orbit in range(g.num_orbits):
            for e in g.neighbors(Vertex(orbit, (0,) * g.dimension)):
                assert is_positive(e) != is_positive(reverse(e))
                assert positive_representative(e) == positive_representative(reverse(e))

    def test_reverse_involution(self):
        g = square_lattice()
        e = g.neighbors(Vertex(0, (0, 0)))[0]
        assert reverse(reverse(e)) == e
        assert reverse(e).origin == e.terminus


class TestSimplicialMetric:
    def test_ball_on_line(self):
        g = line_graph()
        ball = simplicial_ball(g, Vertex(0, (0,)), 2)
        assert {v.shift[0] for v in ball} == {-2, -1, 0, 1, 2}

    def test_distance_within_cell(self):
        g = triangle_cells()
        assert simplicial_distance(g, Vertex(0, (0,)), Vertex(2, (0,)), 5) == 1

    def test_distance_across_cells_is_infinite(self):
        g = triangle_cells()
        assert simplicial_distance(g, Vertex(0, (0,)), Vertex(0, (1,)), 8) is None

    def test_distance_on_square(self):
        g = square_lattice()
        assert simplicial_distance(g, Vertex(0, (0, 0)), Vertex(0, (2, 3)), 10) == 5
