"""Isomorph-free enumeration of small path-free graphs."""

import networkx as nx
from hypothesis import given, settings
from hypothesis import strategies as st

from pathramsey.corpus import (
    are_isomorphic,
    connected_pn_free_graph6,
    generate_pn_free,
    masks_to_graph,
    wl_fingerprint,
)
from pathramsey.detect import is_pn_free
from pathramsey.graphs import Graph, graph6_decode


def to_masks(g: Graph):
    masks = [0] * g.n
    for u, v in g.edges:
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    return tuple(masks)


@st.composite
def mask_graphs(draw, n=6):
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    mask = draw(st.integers(0, (1 << len(pairs)) - 1))
    return Graph.from_edges(n, [p for i, p in enumerate(pairs) if mask >> i & 1])


class TestIsomorphism:
    @settings(max_examples=40, deadline=None)
    @given(mask_graphs(), st.permutations(list(range(6))))
    def test_relabelings_are_isomorphic(self, g, perm):
        h = Graph.from_edges(6, [(perm[u], perm[v]) for u, v in g.edges])
        assert wl_fingerprint(to_masks(g)) == wl_fingerprint(to_masks(h))
        assert are_isomorphic(to_masks(g), to_masks(h))

    @settings(max_examples=40, deadline=None)
    @given(mask_graphs(), mask_graphs())
    def test_matches_networkx(self, g, h):
        def nxg(x):
            out = nx.Graph()
            out.add_nodes_from(range(x.n))
            out.add_edges_from(x.edges)
            return out

        expected = nx.is_isomorphic(nxg(g), nxg(h))
        assert are_isomorphic(to_masks(g), to_masks(h)) == expected


class TestEnumeration:
    def test_unrestricted_counts_match_the_literature(self):
        # with a path bound beyond reach this is plain graph enumeration:
        # 1, 2, 4, 11, 34 unlabeled graphs on 1..5 vertices
        levels = generate_pn_free(9, 5)
        assert [len(levels[n]) for n in range(1, 6)] == [1, 2, 4, 11, 34]

    def test_all_outputs_are_pn_free_and_distinct(self):
        levels = generate_pn_free(5, 7)
        for n, graphs in levels.items():
            for i, masks in enumerate(graphs):
                assert is_pn_free(masks_to_graph(masks), 5)
                for other in graphs[i + 1:]:
                    assert not are_isomorphic(masks, other)

    def test_connected_corpus_is_complete_at_small_size(self):
        # oracle: filter an exhaustive labeled enumeration on 5 vertices
        lines = connected_pn_free_graph6(5, 5)
        corpus = [graph6_decode(s) for s in lines]
        found = set()
        pairs = [(i, j) for i in range(5) for j in range(i + 1, 5)]
        for mask in range(1 << len(pairs)):
            g = Graph.from_edges(5, [p for i, p in enumerate(pairs) if mask >> i & 1])
            gx = nx.Graph()
            gx.add_nodes_from(range(5))
            gx.add_edges_from(g.edges)
            if not nx.is_connected(gx) or not is_pn_free(g, 5):
                continue
            for idx, h in enumerate(corpus):
                if h.n == 5 and are_isomorphic(to_masks(g), to_masks(h)):
                    found.add(idx)
                    break
            else:
                raise AssertionError(f"missing graph {sorted(g.edges)}")
        assert found == {i for i, h in enumerate(corpus) if h.n == 5}

    def test_corpus_totals_are_stable(self):
        levels = {N: generate_pn_free(N, 9) for N in (5, 6, 7)}
        counts = {N: [len(levels[N][n]) for n in range(1, 10)] for N in levels}
        # frozen from an initial run, cross-checked at n <= 5 against the
        # unlabeled graph counts (all graphs on < N vertices are P_N-free)
        assert counts[5] == [1, 2, 4, 11, 16, 30, 51, 97, 153]
        assert counts[6] == [1, 2, 4, 11, 34, 65, 133, 274, 583]
        assert counts[7] == [1, 2, 4, 11, 34, 156, 310, 718, 1604]
