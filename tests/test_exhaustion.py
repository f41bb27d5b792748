"""Folner boxes, collar ratios, window subgraphs and interiors."""

from fractions import Fraction

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given

from magspec.exhaustion import (
    Window,
    folner_box,
    interior_vertices,
    isoperimetric_ratio,
    translated,
    window_boundary_ratio,
    window_subgraph,
)
from magspec.lattice import Vertex, line_graph, periodic_graph, square_lattice, triangle_cells

from strategies import boundary_collar, shifts, vertices


class TestFolnerBox:
    def test_line_box(self):
        assert folner_box(1, 3) == [(0,), (1,), (2,)]

    def test_plane_boxes(self):
        assert len(folner_box(2, 2)) == 4
        assert len(folner_box(2, 10)) == 100

    @given(st.integers(1, 3), st.integers(1, 6))
    def test_nested_and_sized(self, d, m):
        small, big = set(folner_box(d, m)), set(folner_box(d, m + 1))
        assert small < big
        assert len(small) == m**d

    def test_bad_index(self):
        with pytest.raises(ValueError):
            folner_box(1, 0)


class TestIsoperimetricRatio:
    def test_line_ten(self):
        # 2 inner + 2 outer collar points over 10
        assert isoperimetric_ratio(folner_box(1, 10), 1) == Fraction(4, 10)

    def test_plane_ten_by_ten(self):
        # 36 inner + 40 outer over 100
        assert isoperimetric_ratio(folner_box(2, 10), 1) == Fraction(76, 100)

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("delta", [1, 2])
    def test_monotone_decay(self, d, delta):
        for m in (2, 3, 4):
            r1 = isoperimetric_ratio(folner_box(d, m), delta)
            r2 = isoperimetric_ratio(folner_box(d, 2 * m), delta)
            assert r2 < r1

    def test_delta_guard(self):
        with pytest.raises(ValueError):
            isoperimetric_ratio(folner_box(1, 4), 0)

    @given(st.data(), st.integers(1, 3), st.integers(1, 3))
    def test_matches_set_collar(self, data, d, delta):
        # a translated box with holes punched in it, plus stray points
        m = data.draw(st.integers(1, 6))
        corner = data.draw(shifts(d))
        box = translated(folner_box(d, m), corner)
        holes = data.draw(st.sets(st.sampled_from(box), max_size=len(box) - 1))
        stray = data.draw(st.lists(shifts(d, -8, 8), max_size=5))
        elems = [g for g in box if g not in holes] + stray
        expected = Fraction(len(boundary_collar(elems, delta)), len(set(elems)))
        assert isoperimetric_ratio(elems, delta) == expected


class TestWindowSubgraph:
    def test_line_path(self):
        g = line_graph()
        w = window_subgraph(g, folner_box(1, 3))
        assert len(w) == 3
        assert len(w.edge_ends()[0]) == 2

    def test_square_four_cycle(self):
        g = square_lattice()
        w = window_subgraph(g, folner_box(2, 2))
        assert len(w) == 4
        assert len(w.edge_ends()[0]) == 4

    def test_triangle_windows(self):
        g = triangle_cells()
        for m in (1, 3, 5):
            w = window_subgraph(g, folner_box(1, m))
            assert len(w) == 3 * m
            assert len(w.edge_ends()[0]) == 3 * m

    def test_vertex_count_identity(self):
        g = triangle_cells()
        for m in (2, 4, 7):
            w = window_subgraph(g, folner_box(1, m))
            assert len(w) == len(w.elements) * g.num_orbits

    def test_vertex_order_lexicographic(self):
        g = triangle_cells()
        w = window_subgraph(g, [(1,), (0,)])
        assert vertices(w) == [Vertex(orb, (s,)) for s in (0, 1) for orb in range(3)]
        assert w.orbits.tolist() == [0, 1, 2] * 2
        assert w.shifts.tolist() == [[0]] * 3 + [[1]] * 3

    def test_eplus_transversal_inside_window(self):
        g = square_lattice()
        w = window_subgraph(g, folner_box(2, 4))
        seen = set()
        for tail, head, template in zip(*w.edge_ends()):
            key = (tail, head, template)
            rev = (head, tail, template)
            assert key not in seen and rev not in seen
            seen.add(key)
        # 2 m (m-1) undirected edges inside an m x m window
        assert len(seen) == 2 * 4 * 3


def tuple_window(graph, elements):
    """The window built from translates sorted and deduplicated as Python
    tuples, the reference for the array build."""
    return Window(graph, tuple(sorted({tuple(int(x) for x in g) for g in elements})))


def assert_same_window(w, ref):
    assert np.array_equal(w.elements, ref.elements)
    assert w.elements.dtype == np.int64
    assert np.array_equal(w.orbits, ref.orbits) and np.array_equal(w.shifts, ref.shifts)
    # positions over the bounding box grown by one, so misses are probed too
    lo, hi = ref.elements.min(axis=0) - 1, ref.elements.max(axis=0) + 2
    probe = np.stack(np.meshgrid(*map(np.arange, lo, hi), indexing="ij"), -1).reshape(-1, len(lo))
    for orb in range(w.graph.num_orbits):
        assert np.array_equal(w.positions(orb, probe), ref.positions(orb, probe))


class TestArrayTranslates:
    """window_subgraph orders and deduplicates translates as an int64 array;
    the window must equal the one built from sorted tuples."""

    @pytest.mark.parametrize("d,m", [(1, 7), (2, 5), (3, 4)])
    def test_boxes_match_tuple_build(self, d, m):
        g = periodic_graph(d, 2, [(0, 1, (0,) * d), (1, 0, (1,) + (0,) * (d - 1))])
        box = folner_box(d, m)
        for elements in (box, box[::-1], box + box[:3]):
            assert_same_window(window_subgraph(g, elements), tuple_window(g, box))

    @given(st.data())
    def test_translate_sets_with_duplicates(self, data):
        d = data.draw(st.integers(1, 3))
        elements = data.draw(st.lists(shifts(d), min_size=1, max_size=24))
        extra = data.draw(st.lists(st.sampled_from(elements), max_size=8))
        g = periodic_graph(d, 1, [(0, 0, (1,) + (0,) * (d - 1))])
        mixed = elements + extra
        assert_same_window(window_subgraph(g, mixed), tuple_window(g, mixed))

    def test_rejects_empty_and_wrong_dimension(self):
        g = square_lattice()
        with pytest.raises(ValueError, match="at least one"):
            window_subgraph(g, [])
        with pytest.raises(ValueError, match="dimension mismatch"):
            window_subgraph(g, [(0, 0), (1,)])


class TestInteriorVertices:
    def test_path_of_five(self):
        g = line_graph()
        w = window_subgraph(g, folner_box(1, 5))
        split = interior_vertices(g, w, 1)
        assert w.shifts[split.interior_positions, 0].tolist() == [1, 2, 3]
        boundary = np.setdiff1d(np.arange(len(w)), split.interior_positions)
        assert w.shifts[boundary, 0].tolist() == [0, 4]

    def test_radius_zero(self):
        g = square_lattice()
        w = window_subgraph(g, folner_box(2, 3))
        split = interior_vertices(g, w, 0)
        assert split.interior_positions.tolist() == list(range(len(w)))

    @pytest.mark.parametrize("m", [3, 5, 8])
    def test_square_interior_count(self, m):
        g = square_lattice()
        w = window_subgraph(g, folner_box(2, m))
        split = interior_vertices(g, w, 1)
        assert split.interior_positions.size == (m - 2) ** 2

    def test_nesting_and_partition(self):
        g = square_lattice()
        w = window_subgraph(g, folner_box(2, 6))
        s1 = interior_vertices(g, w, 1)
        s2 = interior_vertices(g, w, 2)
        assert set(s2.interior_positions.tolist()) <= set(s1.interior_positions.tolist())
        for s in (s1, s2):
            assert np.all(np.diff(s.interior_positions) > 0)
            assert 0 <= s.interior_positions.min() and s.interior_positions.max() < len(w)

    def test_disconnected_cells_are_their_own_interior(self):
        # intra-cell graphs have radius-r balls that never leave the cell
        g = triangle_cells()
        w = window_subgraph(g, folner_box(1, 4))
        split = interior_vertices(g, w, 3)
        assert split.interior_positions.tolist() == list(range(len(w)))

    def test_translated_window_same_interior_size(self):
        g = square_lattice()
        box = folner_box(2, 5)
        w1 = window_subgraph(g, box)
        w2 = window_subgraph(g, translated(box, (7, -3)))
        assert (
            interior_vertices(g, w1, 1).interior_positions.size
            == interior_vertices(g, w2, 1).interior_positions.size
        )


class TestBoundaryRatios:
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("delta", [1, 2])
    def test_graph_collar_bound(self, d, delta):
        from magspec.lattice import periodic_graph

        templates = [
            (0, 0, tuple(1 if j == i else 0 for j in range(d))) for i in range(d)
        ]
        g = periodic_graph(d, 1, templates)
        for m in (4 * delta, 4 * delta + 2, 8 * delta):
            w = window_subgraph(g, folner_box(d, m))
            assert window_boundary_ratio(g, w, delta) < Fraction(4 * d * delta, m)

    def test_interior_density_brackets_orbit_count(self):
        # #Y_m(r)/#Lambda_m increases toward the fundamental domain size
        g = square_lattice()
        ratios = []
        for m in (6, 12, 24):
            w = window_subgraph(g, folner_box(2, m))
            split = interior_vertices(g, w, 1)
            ratios.append(Fraction(split.interior_positions.size, len(w.elements)))
        assert ratios[0] < ratios[1] < ratios[2] <= g.num_orbits

    def test_graph_collar_ratio_decreasing_in_m(self):
        g = square_lattice()
        for delta in (1, 2):
            ratios = [
                window_boundary_ratio(g, window_subgraph(g, folner_box(2, m)), delta)
                for m in (4 * delta, 8 * delta, 16 * delta)
            ]
            assert ratios[0] > ratios[1] > ratios[2]
