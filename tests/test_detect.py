"""Path, cycle, and pendant-structure detection against brute-force oracles."""

from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathramsey.detect import (
    ComponentShape,
    PendantKind,
    _path_through,
    find_path,
    find_pendant_structures,
    is_pn_free,
    longest_cycle,
    longest_path_order,
    p4_free_shape,
)
from pathramsey.graphs import (
    Graph,
    GraphError,
    adjacency_masks,
    complete_graph,
    cycle_graph,
    path_graph,
    star_graph,
)


def brute_longest_path(g: Graph) -> int:
    """Oracle: try every vertex permutation prefix."""
    if g.n == 0:
        return 0
    best = 1
    for perm in permutations(range(g.n)):
        length = 1
        for a, b in zip(perm, perm[1:]):
            if not g.has_edge(a, b):
                break
            length += 1
        best = max(best, length)
    return best


def brute_path_bases(g: Graph, N: int) -> set[tuple[int, int]]:
    """Oracle: every edge (u, v) with u < v, and every (x, x), that some
    ordering of N distinct vertices forming a path runs through."""
    bases = set()
    for perm in permutations(range(g.n), N):
        steps = list(zip(perm, perm[1:]))
        if all(g.has_edge(a, b) for a, b in steps):
            bases.update((x, x) for x in perm)
            bases.update((min(a, b), max(a, b)) for a, b in steps)
    return bases


@st.composite
def tiny_graphs(draw, max_n=6):
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    mask = draw(st.integers(min_value=0, max_value=(1 << len(pairs)) - 1))
    return Graph.from_edges(n, [p for i, p in enumerate(pairs) if mask >> i & 1])


class TestLongestPath:
    def test_known_orders(self):
        assert longest_path_order(path_graph(5)) == 5
        assert longest_path_order(cycle_graph(5)) == 5
        assert longest_path_order(complete_graph(4)) == 4
        assert longest_path_order(star_graph(6)) == 3
        assert longest_path_order(Graph(3, frozenset())) == 1

    @settings(max_examples=60, deadline=None)
    @given(tiny_graphs())
    def test_matches_brute_force(self, g):
        assert longest_path_order(g) == brute_longest_path(g)

    def test_find_path_is_a_path(self):
        g = complete_graph(5)
        path = find_path(g, 4)
        assert path is not None and len(path) == 4 and len(set(path)) == 4
        assert all(g.has_edge(a, b) for a, b in zip(path, path[1:]))
        assert find_path(star_graph(5), 4) is None

    def test_pn_freeness(self):
        # a clique on 4 vertices has no path on 5 vertices
        assert is_pn_free(complete_graph(4), 5)
        assert not is_pn_free(path_graph(5), 5)
        assert is_pn_free(cycle_graph(6), 7)
        with pytest.raises(GraphError):
            is_pn_free(path_graph(3), 1)


class TestPathThrough:
    @settings(max_examples=60, deadline=None)
    @given(tiny_graphs(max_n=7))
    def test_matches_brute_force(self, g):
        adj = list(adjacency_masks(g))
        for N in range(1, g.n + 2):
            expected = brute_path_bases(g, N)
            for u, v in sorted(g.edges) + [(x, x) for x in range(g.n)]:
                assert _path_through(adj, u, v, N) == ((u, v) in expected), (u, v, N)
                assert _path_through(adj, v, u, N) == ((u, v) in expected), (v, u, N)

    def test_small_orders(self):
        adj = list(adjacency_masks(Graph.from_edges(3, [(0, 1)])))
        assert _path_through(adj, 0, 1, 2)
        assert not _path_through(adj, 0, 1, 1)  # one vertex holds no edge
        assert _path_through(adj, 2, 2, 1)
        assert not _path_through(adj, 2, 2, 2)  # isolated vertex
        assert _path_through(adj, 0, 0, 2)

    def test_path_graph_extremes(self):
        adj = list(adjacency_masks(path_graph(6)))
        assert _path_through(adj, 0, 1, 6) and _path_through(adj, 2, 3, 6)
        assert not _path_through(adj, 2, 3, 7)
        assert _path_through(adj, 5, 5, 6) and not _path_through(adj, 5, 5, 7)


class TestLongestCycle:
    def test_forest_has_none(self):
        assert longest_cycle(path_graph(6)) is None
        assert longest_cycle(star_graph(5)) is None

    def test_k4_longest_cycle_is_a_4_cycle(self):
        # brute force over cyclic orderings of K4 gives a Hamiltonian 4-cycle
        cyc = longest_cycle(complete_graph(4))
        assert cyc == [0, 1, 2, 3]

    def test_cycle_graph_recovers_itself(self):
        assert longest_cycle(cycle_graph(5)) == [0, 1, 2, 3, 4]

    def test_canonical_tie_break(self):
        # two disjoint triangles: report the one through the smallest vertex
        g = Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        assert longest_cycle(g) == [0, 1, 2]

    @settings(max_examples=40, deadline=None)
    @given(tiny_graphs())
    def test_reported_cycle_is_valid(self, g):
        cyc = longest_cycle(g)
        if cyc is None:
            return
        assert len(cyc) >= 3 and len(set(cyc)) == len(cyc)
        ring = cyc + [cyc[0]]
        assert all(g.has_edge(a, b) for a, b in zip(ring, ring[1:]))


class TestPendantStructures:
    def test_standalone_star_yields_nothing(self):
        # a star that is a whole component has no pendant structures
        assert find_pendant_structures(star_graph(5)) == []

    def test_pendant_edge_needs_busy_attach(self):
        g = path_graph(3)  # middle vertex has only degree-1 neighbors
        assert find_pendant_structures(g) == []
        g4 = path_graph(4)
        kinds = {s.kind for s in find_pendant_structures(g4)}
        assert kinds == {PendantKind.PENDANT_EDGE}

    def test_pendant_star(self):
        # center 1 with leaves 2,3 attached to the triangle vertex 0
        g = Graph.from_edges(
            6, [(0, 1), (1, 2), (1, 3), (0, 4), (0, 5), (4, 5)]
        )
        structures = find_pendant_structures(g)
        stars = [s for s in structures if s.kind is PendantKind.PENDANT_STAR]
        assert len(stars) == 1
        assert stars[0].attach == 0 and stars[0].members == frozenset({0, 1, 2, 3})

    def test_pendant_triangle(self):
        g = Graph.from_edges(5, [(0, 1), (1, 2), (0, 2), (0, 3), (3, 4)])
        structures = find_pendant_structures(g)
        tris = [s for s in structures if s.kind is PendantKind.PENDANT_TRIANGLE]
        assert len(tris) == 1 and tris[0].attach == 0

    def test_triangle_with_fans_gets_all_pendant_edges(self):
        # triangle 0,1,2 with 4 pendant edges at 0 and 3 each at 1 and 2
        edges = [(0, 1), (1, 2), (0, 2)]
        nxt = 3
        for corner, cnt in ((0, 4), (1, 3), (2, 3)):
            for _ in range(cnt):
                edges.append((corner, nxt))
                nxt += 1
        structures = find_pendant_structures(Graph.from_edges(nxt, edges))
        # every corner has two busy neighbors, so these are pendant edges
        assert all(s.kind is PendantKind.PENDANT_EDGE for s in structures)
        assert len(structures) == 10
        covered = set()
        for s in structures:
            covered |= s.members
        assert covered == set(range(nxt))

    def test_structures_are_edge_disjoint(self):
        g = Graph.from_edges(
            8, [(0, 1), (1, 2), (0, 2), (0, 3), (3, 4), (3, 5), (0, 6), (6, 7)]
        )
        claimed = set()
        for s in find_pendant_structures(g):
            for e in s.edges(g):
                assert e not in claimed
                claimed.add(e)


class TestP4FreeShape:
    def test_stars_and_triangles(self):
        g = Graph.from_edges(8, [(0, 1), (0, 2), (0, 3), (4, 5), (5, 6), (4, 6)])
        shapes = dict(p4_free_shape(g))
        assert shapes[frozenset({0, 1, 2, 3})] is ComponentShape.STAR
        assert shapes[frozenset({4, 5, 6})] is ComponentShape.TRIANGLE
        assert shapes[frozenset({7})] is ComponentShape.STAR

    def test_p4_is_rejected(self):
        assert p4_free_shape(path_graph(4)) is None
        assert p4_free_shape(cycle_graph(4)) is None
