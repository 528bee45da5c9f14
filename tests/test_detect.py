"""Path, cycle, and pendant-structure detection against brute-force oracles."""

import hashlib
import random
import time
from itertools import combinations, permutations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import _path_through

from pathramsey import detect
from pathramsey.corpus import generate_pn_free
from pathramsey.detect import (
    ComponentShape,
    PendantKind,
    closes_path,
    find_path,
    find_pendant_structures,
    is_pn_free,
    longest_cycle,
    longest_path_order,
    p4_free_shape,
    path_ends,
)
from pathramsey.goodness import verify_ramsey_value
from pathramsey.graphs import (
    Graph,
    GraphError,
    adjacency_masks,
    complete_graph,
    cycle_graph,
    path_graph,
    star_graph,
)

PATH_ENDS_DIGEST = "ade8cade65b6b38242a9b92b43ae65a3455079afd7eda9c79066f2f6d9c12658"
LONGEST_CYCLE_DIGEST = "cb32c6ef8e57c5bcafe30dd779e05b75bb2e0daac019276bb4bd27cc2df25bf1"


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
    @given(tiny_graphs(max_n=8))
    def test_matches_brute_force(self, g):
        longest = brute_longest_path(g)
        assert longest_path_order(g) == longest
        for N in range(1, 11):
            path = find_path(g, N)
            if N > longest:
                assert path is None, N
            else:
                assert path is not None and len(path) == N and len(set(path)) == N, (N, path)
                assert all(g.has_edge(a, b) for a, b in zip(path, path[1:])), (N, path)

    def test_order_beyond_the_graph_returns_at_once(self):
        start = time.monotonic()
        assert find_path(path_graph(3), 10**6) is None
        assert find_path(Graph(0, frozenset()), 1) is None
        assert longest_path_order(Graph(0, frozenset())) == 0
        assert time.monotonic() - start < 1.0

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


def assert_matches_the_layers(g: Graph) -> None:
    """`find_path` finds a path on N vertices exactly when the path layers
    hold one, and `longest_path_order` counts the nonempty layers."""
    layers = detect._path_layers(adjacency_masks(g), g.n, [])
    assert longest_path_order(g) == sum(1 for layer in layers if layer)
    for N in range(1, g.n + 2):
        path = find_path(g, N)
        assert (path is not None) == (N <= len(layers) and bool(layers[N - 1])), N
        if path is not None:
            assert len(path) == N and len(set(path)) == N, (N, path)
            assert all(g.has_edge(a, b) for a, b in zip(path, path[1:])), (N, path)


def assert_is_pn_free_matches_find_path(g: Graph) -> None:
    """`is_pn_free` reads the rounds of a cold table as `find_path` does."""
    for N in range(2, g.n + 2):
        fresh = Graph(g.n, g.edges)  # an equal graph, but a new object
        assert is_pn_free(fresh, N) == (find_path(Graph(g.n, g.edges), N) is None), N


class TestFronts:
    """On at most `_BITSET_MAX_VERTICES` vertices the path searches walk the
    fronts of the bitset tables; the path layers are the oracle."""

    @settings(max_examples=60, deadline=None)
    @given(tiny_graphs(max_n=12))
    @example(complete_graph(12))
    @example(Graph(12, frozenset()))
    def test_matches_the_layers(self, g):
        assert_matches_the_layers(g)

    def test_k12_has_a_hamiltonian_path(self):
        g = complete_graph(12)
        assert sorted(find_path(g, 12)) == list(range(12))
        assert find_path(g, 13) is None and longest_path_order(g) == 12

    @pytest.mark.parametrize("n, p", [(13, 0.25), (14, 0.2)])
    def test_larger_graphs_walk_the_layers(self, monkeypatch, n, p):
        rng = random.Random(n)
        g = Graph.from_edges(n, [(u, v) for u, v in combinations(range(n), 2) if rng.random() < p])
        monkeypatch.setattr(detect, "_fronts", None)  # never called past the bound
        assert_matches_the_layers(g)

    @settings(max_examples=60, deadline=None)
    @given(tiny_graphs(max_n=12))
    @example(complete_graph(12))
    def test_is_pn_free_on_the_fronts(self, g):
        assert_is_pn_free_matches_find_path(g)

    @pytest.mark.parametrize("n, p, seed", [(13, 0.2, 1), (13, 0.3, 2), (14, 0.15, 3), (14, 0.2, 4)])
    def test_is_pn_free_on_the_layers(self, monkeypatch, n, p, seed):
        rng = random.Random(seed)
        g = Graph.from_edges(n, [(u, v) for u, v in combinations(range(n), 2) if rng.random() < p])
        monkeypatch.setattr(detect, "_fronts", None)  # never called past the bound
        assert_is_pn_free_matches_find_path(g)


class TestSharedTable:
    """Consecutive questions about one graph object extend one table of path
    layers; every answer is the one a freshly built graph gives."""

    @settings(max_examples=60, deadline=None)
    @given(tiny_graphs(max_n=8), tiny_graphs(max_n=8),
           st.lists(st.integers(1, 9), min_size=1, max_size=5))
    def test_interleaved_graphs_match_fresh_ones(self, a, b, orders):
        orders = sorted(orders) + sorted(orders, reverse=True)  # N up, then down

        def answers(fresh: bool) -> list:
            out = []
            for i, N in enumerate(orders):
                for g in (a, b, a):
                    if fresh:
                        g = Graph(g.n, g.edges)  # an equal graph, but a new object
                    out.append(find_path(g, N))
                    if N >= 2:
                        out.append(is_pn_free(g, N))
                    if i == len(orders) // 2:
                        out.append(longest_path_order(g))
            return out

        assert answers(fresh=False) == answers(fresh=True)

    def test_layers_are_kept_for_the_last_graph_only(self, monkeypatch):
        built = []
        monkeypatch.setattr(detect, "adjacency_masks", lambda g: built.append(g) or adjacency_masks(g))
        g = cycle_graph(7)
        assert [is_pn_free(g, N) for N in (5, 6, 7)] == [False] * 3
        assert len(find_path(g, 6)) == 6 and longest_path_order(g) == 7
        assert built == [g]
        twin = Graph(g.n, g.edges)  # equal to g, but a new object starts cold
        assert find_path(twin, 7) == find_path(g, 7)
        assert len(built) == 3 and built[1] is twin and built[2] is g


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


@st.composite
def parents(draw, max_n=9):
    """Adjacency masks of a random graph on at most max_n vertices."""
    n = draw(st.integers(0, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    mask = draw(st.integers(0, (1 << len(pairs)) - 1))
    adj = [0] * n
    for i, (u, v) in enumerate(pairs):
        if mask >> i & 1:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
    return adj


class TestPathEnds:
    """A parent's path-end table against the kernel run on every child."""

    @settings(max_examples=30, deadline=None)
    @given(parents())
    @example([])  # the empty parent: only S = 0, a P1 and nothing longer
    @example([0b10, 0b1])  # one edge: fewer than N-1 vertices for every N >= 4
    @example([0b1110, 0b1, 0b1, 0b1])  # a star, whose leaves pair up for N = 5
    def test_matches_the_kernel_on_every_child(self, adj):
        n = len(adj)
        for N in range(1, 10):
            ends = path_ends(adj, N)
            for S in range(1 << n):
                child = [m | 1 << n if S >> v & 1 else m for v, m in enumerate(adj)] + [S]
                assert closes_path(ends, S) == _path_through(child, n, n, N), (adj, N, S)

    def test_frozen_digest(self):
        # frozen before the path searches of `detect` were merged into one
        # layer builder: every table of 300 seeded random graphs
        h = hashlib.sha256()
        rng = random.Random(11)
        for _ in range(300):
            n = rng.randint(0, 10)
            p = rng.random()
            adj = [0] * n
            for u in range(n):
                for v in range(u + 1, n):
                    if rng.random() < p:
                        adj[u] |= 1 << v
                        adj[v] |= 1 << u
            for N in range(1, 11):
                h.update(repr((adj, N, tuple(path_ends(adj, N)))).encode())
        assert h.hexdigest() == PATH_ENDS_DIGEST

    def test_small_orders(self):
        adj = [0b10, 0b1, 0]  # one edge and an isolated vertex
        assert closes_path(path_ends(adj, 1), 0)  # the new vertex alone is a P1
        assert not closes_path(path_ends(adj, 2), 0)
        assert closes_path(path_ends(adj, 2), 0b100)
        assert closes_path(path_ends(adj, 3), 0b1) and not closes_path(path_ends(adj, 3), 0b100)
        # joined to both ends of the edge the new vertex makes a triangle; joined
        # to an end and to the isolated vertex it lies inside a path on 4 vertices
        assert not closes_path(path_ends(adj, 4), 0b11)
        assert closes_path(path_ends(adj, 4), 0b101)


def complete_masks(n: int) -> list[int]:
    return [((1 << n) - 1) ^ 1 << v for v in range(n)]


class TestPairsOnDemand:
    """A table builds its pairs the first time they are read, which
    `closes_path` does only for a set with two vertices outside `single`."""

    @settings(max_examples=60, deadline=None)
    @given(parents(max_n=12), st.randoms(use_true_random=False))
    @example([], random.Random(0))
    @example(complete_masks(12), random.Random(0))
    @example([0b1110, 0b1, 0b1, 0b1], random.Random(0))  # a star, whose leaves pair up for N = 5
    def test_reading_the_pairs_first_changes_no_answer(self, adj, rng):
        n = len(adj)
        for N in range(1, n + 3):
            eager, lazy = path_ends(adj, N), path_ends(adj, N)
            eager.pairs
            singles = [0] + [1 << v for v in range(n)]
            assert [closes_path(lazy, S) for S in singles] == [closes_path(eager, S) for S in singles]
            assert "pairs" not in vars(lazy) or not lazy.pairs, N  # no set asked for a pair
            sets = {(1 << n) - 1, *(rng.getrandbits(n) for _ in range(8))}
            assert [closes_path(lazy, S) for S in sets] == [closes_path(eager, S) for S in sets]
            assert tuple(lazy) == tuple(eager) == (eager.always, eager.single, eager.pairs)
            assert lazy == eager

    @pytest.mark.parametrize("run, tables, built", [
        (lambda: generate_pn_free(7, 10), 2788, 471),
        (lambda: verify_ramsey_value(11, [path_graph(8)] * 2), 1348, 382),
    ], ids=["P7-free corpus", "R2(P8)"])
    def test_few_tables_build_their_pairs(self, monkeypatch, run, tables, built):
        counts = {"_bitset_ends": 0, "_bitset_pairs": 0, "_layered_ends": 0}
        for name in counts:
            def counted(*args, fn=getattr(detect, name), name=name):
                counts[name] += 1
                return fn(*args)
            monkeypatch.setattr(detect, name, counted)
        run()
        assert counts == {"_bitset_ends": tables, "_bitset_pairs": built, "_layered_ends": 0}


class TestBitsetTables:
    """The bitset tables against the layered tables and the kernel."""

    @settings(max_examples=60, deadline=None)
    @given(parents(max_n=12), st.randoms(use_true_random=False))
    @example([], random.Random(0))
    @example(complete_masks(12), random.Random(0))
    @example(complete_masks(7), random.Random(0))
    @example([0] * 12, random.Random(0))  # the empty graph
    def test_matches_the_layers_and_the_kernel(self, adj, rng):
        n = len(adj)
        # N = n + 1 leaves only complements to pair, N = n + 2 is beyond the graph
        for N in range(1, n + 3):
            ends = path_ends(adj, N)
            if 2 <= N <= n + 1:
                assert ends == detect._bitset_ends(adj, N) == detect._layered_ends(adj, N)
            for S in {0, (1 << n) - 1, *(rng.getrandbits(n) for _ in range(6))}:
                child = [m | 1 << n if S >> v & 1 else m for v, m in enumerate(adj)] + [S]
                assert closes_path(ends, S) == _path_through(child, n, n, N), (adj, N, S)

    @pytest.mark.parametrize("n, p, N", [(13, 0.3, 6), (16, 0.15, 4)])
    def test_larger_graphs_take_the_layers(self, monkeypatch, n, p, N):
        rng = random.Random(n)
        adj = [0] * n
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < p:
                    adj[u] |= 1 << v
                    adj[v] |= 1 << u
        monkeypatch.setattr(detect, "_bitset_ends", None)  # never called past the bound
        ends = path_ends(adj, N)
        assert ends == detect._layered_ends(adj, N)
        for S in [0, (1 << n) - 1, *(rng.getrandbits(n) for _ in range(20))]:
            child = [m | 1 << n if S >> v & 1 else m for v, m in enumerate(adj)] + [S]
            assert closes_path(ends, S) == _path_through(child, n, n, N), (N, S)


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

    @settings(max_examples=100, deadline=None)
    @given(tiny_graphs(max_n=7))
    def test_matches_brute_force(self, g):
        # oracle: every cycle written as a vertex sequence; the longest, and
        # among those the least canonical writing (rooted at its smallest
        # vertex, the smaller neighbor second)
        cycles = [
            list(seq)
            for k in range(3, g.n + 1)
            for seq in permutations(range(g.n), k)
            if seq[0] == min(seq) and seq[1] < seq[-1]
            and all(g.has_edge(a, b) for a, b in zip(seq, seq[1:] + seq[:1]))
        ]
        expected = min(cycles, key=lambda cyc: (-len(cyc), cyc)) if cycles else None
        assert longest_cycle(g) == expected

    @settings(max_examples=40, deadline=None)
    @given(tiny_graphs())
    def test_reported_cycle_is_valid(self, g):
        cyc = longest_cycle(g)
        if cyc is None:
            return
        assert len(cyc) >= 3 and len(set(cyc)) == len(cyc)
        ring = cyc + [cyc[0]]
        assert all(g.has_edge(a, b) for a, b in zip(ring, ring[1:]))

    @pytest.mark.parametrize("n", [11, 12])
    def test_dense_graphs_stop_at_a_hamiltonian_cycle(self, n):
        # the first path from root 0 closes a cycle through all n vertices,
        # which no other cycle can beat, so the search ends there
        assert longest_cycle(complete_graph(n)) == list(range(n))

    def test_one_search_per_graph_object(self, monkeypatch):
        searched = []
        search = detect._longest_cycle
        monkeypatch.setattr(detect, "_longest_cycle", lambda g: searched.append(g) or search(g))
        g = cycle_graph(6)
        first = longest_cycle(g)
        first.append(99)  # the caller owns the list it is given
        assert longest_cycle(g) == [0, 1, 2, 3, 4, 5] and searched == [g]
        twin = Graph(g.n, g.edges)  # equal to g, but a new object searches again
        assert longest_cycle(twin) == longest_cycle(g) == [0, 1, 2, 3, 4, 5]
        assert len(searched) == 3 and searched[1] is twin and searched[2] is g
        assert longest_cycle(path_graph(4)) is None and longest_cycle(path_graph(4)) is None

    def test_frozen_digest(self):
        # frozen before the search was made iterative: the cycle of each of
        # 2,000 seeded random graphs on at most 10 vertices, of mixed density
        h = hashlib.sha256()
        rng = random.Random(12)
        for _ in range(2000):
            n = rng.randint(0, 10)
            p = rng.uniform(0.05, 0.6)
            g = Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                                     if rng.random() < p])
            h.update(repr((g.n, sorted(g.edges), longest_cycle(g))).encode())
        assert h.hexdigest() == LONGEST_CYCLE_DIGEST


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

    @settings(max_examples=300, deadline=None)
    @given(tiny_graphs(max_n=9))
    @example(Graph.from_edges(6, [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5)]))  # a double star
    # two stars attached at vertex 1
    @example(Graph.from_edges(8, [(0, 1), (0, 2), (0, 3), (1, 4), (4, 5), (4, 6), (4, 7)]))
    def test_matches_its_definitions(self, g):
        deg = [g.degree(v) for v in range(g.n)]

        def center(u):  # degree >= 3, all neighbors but one (the attach) leaves
            busy = [v for v in g.neighbors(u) if deg[v] >= 2]
            return deg[u] >= 3 and len(busy) == 1

        structures = find_pendant_structures(g)
        for s in structures:
            members = sorted(s.members)
            sub = g.subgraph(members)
            rest = [v for v in members if v != s.attach]
            assert s.attach in s.members
            if s.kind is PendantKind.PENDANT_STAR:
                (c,) = [v for i, v in enumerate(members) if sub.degree(i) == len(members) - 1]
                assert len(members) >= 4 and len(sub.edges) == len(members) - 1
                assert c != s.attach and deg[c] == len(members) - 1 and deg[s.attach] >= 2
                assert all(deg[v] == 1 for v in rest if v != c)
            elif s.kind is PendantKind.PENDANT_TRIANGLE:
                assert len(members) == 3 and len(sub.edges) == 3
                assert deg[s.attach] > 2 and all(deg[v] == 2 for v in rest)
            else:
                (leaf,) = rest
                assert len(sub.edges) == 1 and deg[leaf] == 1 and not center(s.attach)
                assert any(deg[v] >= 2 for v in g.neighbors(s.attach))
        assert [(s.attach, sorted(s.members)) for s in structures] == sorted(
            (s.attach, sorted(s.members)) for s in structures)

        # every center, pendant triangle and pendant leaf edge is listed, and nothing else
        expected = set()
        for u in range(g.n):
            if center(u):
                (attach,) = [v for v in g.neighbors(u) if deg[v] >= 2]
                expected.add((PendantKind.PENDANT_STAR, attach, frozenset([u, *g.neighbors(u)])))
            if deg[u] == 1:
                (a,) = g.neighbors(u)
                if not center(a) and any(deg[v] >= 2 for v in g.neighbors(a)):
                    expected.add((PendantKind.PENDANT_EDGE, a, frozenset((u, a))))
        for tri in combinations(range(g.n), 3):
            high = [x for x in tri if deg[x] > 2]
            if all(g.has_edge(a, b) for a, b in combinations(tri, 2)) and len(high) == 1:
                expected.add((PendantKind.PENDANT_TRIANGLE, high[0], frozenset(tri)))
        listed = [(s.kind, s.attach, s.members) for s in structures]
        assert len(listed) == len(set(listed)) and set(listed) == expected

        # edge-disjoint, but for the middle edge of a double star
        for s, t in combinations(structures, 2):
            shared = set(s.edges(g)) & set(t.edges(g))
            if shared:
                assert s.kind is t.kind is PendantKind.PENDANT_STAR
                assert shared == {(min(s.attach, t.attach), max(s.attach, t.attach))}


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
