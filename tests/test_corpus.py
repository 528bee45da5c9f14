"""Isomorph-free enumeration of small path-free graphs."""

import hashlib
import json
import random
from itertools import combinations, permutations
from unittest.mock import patch

import networkx as nx
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import _path_through, has_path
from networkx.algorithms.isomorphism import categorical_edge_match, categorical_node_match

from pathramsey import corpus
from pathramsey.corpus import (
    _Catalog,
    _children,
    _degrees,
    _forms,
    _grow,
    _grown_rows,
    _rows,
    _shape,
    _subsets,
    _twin_classes,
    _with_last,
    are_isomorphic,
    augment,
    connected_pn_free_graph6,
    generate_pn_free,
    masks_to_graph,
    wl_fingerprint,
)
from pathramsey.detect import closes_path, is_pn_free, path_ends
from pathramsey.graphs import Graph, graph6_decode, path_graph, star_graph
from pathramsey.hypergraphs import Hypergraph3, _incidence, generate_small_instances


def to_masks(g: Graph):
    masks = [0] * g.n
    for u, v in g.edges:
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    return tuple(masks)


def reference_generate(N: int, max_vertices: int):
    """The unpruned enumeration: every neighbor subset of every parent, then the
    orderly filter, with a catalog that buckets by `wl_fingerprint` and tests
    bucket-mates with `are_isomorphic`.  The filter keeps a child whose new
    vertex has the least degree and, among the vertices of that degree, the
    least sum of its neighbors' degrees."""
    levels = {1: [(0,)]}
    for n in range(1, max_vertices):
        buckets, items = {}, []
        for parent in levels[n]:
            degs = _degrees(parent)
            for size in range(n + 1):
                for subset in combinations(range(n), size):
                    child_min = min(degs[v] + (v in subset) for v in range(n))
                    if size > child_min:
                        continue
                    child = list(parent) + [0]
                    for v in subset:
                        child[v] |= 1 << n
                        child[n] |= 1 << v
                    child = tuple(child)
                    degs = _degrees(child)
                    sums = [sum(degs[u] for u in range(n + 1) if m >> u & 1) for m in child]
                    if min(zip(degs, sums)) < (degs[n], sums[n]):
                        continue
                    if size and _path_through(child, n, n, N):
                        continue
                    bucket = buckets.setdefault(wl_fingerprint(child), [])
                    if not any(are_isomorphic(child, seen) for seen in bucket):
                        bucket.append(child)
                        items.append(child)
        levels[n + 1] = items
    return levels


@st.composite
def mask_graphs(draw, n=6):
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    mask = draw(st.integers(0, (1 << len(pairs)) - 1))
    return Graph.from_edges(n, [p for i, p in enumerate(pairs) if mask >> i & 1])


vertex_colors = st.lists(st.integers(0, 1), min_size=6, max_size=6)


class TestIsomorphism:
    @settings(max_examples=40, deadline=None)
    @given(mask_graphs(), st.permutations(list(range(6))), vertex_colors)
    def test_relabelings_are_isomorphic(self, g, perm, colors):
        h = Graph.from_edges(6, [(perm[u], perm[v]) for u, v in g.edges])
        assert wl_fingerprint(to_masks(g)) == wl_fingerprint(to_masks(h))
        assert are_isomorphic(to_masks(g), to_masks(h))
        # relabeled together with its starting colors, a colored graph is a duplicate
        moved = [0] * 6
        for v in range(6):
            moved[perm[v]] = colors[v]
        g_rows, h_rows = _rows((to_masks(g),)), _rows((to_masks(h),))
        assert _shape(g_rows) == _shape(h_rows)
        assert _shape(g_rows, colors) == _shape(h_rows, moved)
        catalog = _Catalog()
        assert catalog.add((to_masks(g),), colors)
        assert not catalog.add((to_masks(h),), moved)

    @settings(max_examples=40, deadline=None)
    @given(mask_graphs(), mask_graphs(), vertex_colors, vertex_colors)
    # the same path, colored so that refinement ranks agree but the colors do not
    @example(Graph.from_edges(6, [(0, 1), (1, 2)]), Graph.from_edges(6, [(0, 1), (1, 2)]),
             [0, 0, 1, 0, 0, 0], [0, 1, 1, 0, 0, 0])
    def test_matches_networkx(self, g, h, g_colors, h_colors):
        def nxg(x, colors):
            out = nx.Graph()
            out.add_nodes_from((v, {"color": colors[v]}) for v in range(x.n))
            out.add_edges_from(x.edges)
            return out

        expected = nx.is_isomorphic(nxg(g, [0] * 6), nxg(h, [0] * 6))
        assert are_isomorphic(to_masks(g), to_masks(h)) == expected
        colored = nx.is_isomorphic(nxg(g, g_colors), nxg(h, h_colors),
                                   node_match=categorical_node_match("color", None))
        catalog = _Catalog()
        assert catalog.add((to_masks(g),), g_colors)
        assert catalog.add((to_masks(h),), h_colors) is not colored

    def test_the_fingerprint_tells_2k2_from_c4(self):
        # both graphs are regular, so refinement ranks every vertex 0 in each
        two_k2 = to_masks(Graph.from_edges(4, [(0, 1), (2, 3)]))
        c4 = to_masks(Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)]))
        assert corpus._refine((two_k2,)) == corpus._refine((c4,)) == [0, 0, 0, 0]
        assert wl_fingerprint(two_k2) != wl_fingerprint(c4)
        # the catalog keys by shape too: each relabeled copy meets only its own graph
        catalog = _Catalog()
        with patch.object(corpus, "_isomorphic", wraps=corpus._isomorphic) as isomorphic:
            assert catalog.add((two_k2,)) and catalog.add((c4,))
            assert not catalog.add((to_masks(Graph.from_edges(4, [(0, 2), (1, 3)])),))
            assert not catalog.add((to_masks(Graph.from_edges(4, [(0, 2), (2, 1), (1, 3), (3, 0)])),))
        assert isomorphic.call_count == 2


class TestCatalog:
    def test_relabeled_incidence_graph_with_permuted_parts_is_rejected(self):
        # a 9-edge instance with its rows, columns and symbols permuted, then
        # relabeled inside each part, and its hyperedges listed in another order
        h = generate_small_instances(9)[-1]
        parts = [sorted(part) for part in h.parts]
        rng = random.Random(3)
        order = [1, 2, 0]
        relabel = {}
        for p, part in enumerate(parts):
            target = parts[order[p]]
            for v, w in zip(part, rng.sample(target, len(target))):
                relabel[v] = w
        edges = [frozenset(relabel[v] for v in e) for e in h.edges]
        rng.shuffle(edges)
        moved = Hypergraph3(h.n, tuple(edges), tuple(frozenset(relabel[v] for v in part)
                                                     for part in h.parts))
        assert moved.edges != h.edges
        catalog = _Catalog()
        assert catalog.add(*_incidence(h))
        assert not catalog.add(*_incidence(moved))
        assert (catalog.offered, catalog.count) == (2, 1)

    def test_an_item_alone_in_its_shape_is_not_refined(self):
        catalog = _Catalog()
        assert catalog.add((to_masks(path_graph(4)),))
        assert catalog.add((to_masks(star_graph(4)),))  # other degrees
        assert catalog.refined == 0
        # a second path of the same shape: both are refined, and it is rejected
        assert not catalog.add((to_masks(Graph.from_edges(4, [(2, 0), (0, 3), (3, 1)])),))
        assert (catalog.refined, catalog.count) == (2, 2)

    def test_shapes_whose_hashes_collide_are_told_apart(self):
        # with every shape under one hash, refinement and the isomorphism
        # test alone keep the same levels and counts
        expected = generate_pn_free(6, 7), list(augment((5, 5), 7))
        with patch.object(corpus, "hash", lambda shape: 0, create=True):
            got = generate_pn_free(6, 7), list(augment((5, 5), 7))
        assert got[0] == expected[0]
        assert [level[:3] for level in got[1]] == [level[:3] for level in expected[1]]
        assert sum(level.refined for level in got[1]) > sum(level.refined for level in expected[1])


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

    @pytest.mark.parametrize("N", range(3, 8))
    def test_matches_the_unpruned_enumeration(self, N):
        # same graphs in the same order, so the catalog keeps the same representatives
        assert generate_pn_free(N, 8) == reference_generate(N, 8)

    def test_level_counts_match_the_graph_atlas(self):
        atlas = nx.graph_atlas_g()
        for N in (5, 6, 7):
            levels = generate_pn_free(N, 7)
            expected = [sum(1 for g in atlas if g.number_of_nodes() == n and not has_path(g, N))
                        for n in range(1, 8)]
            assert [len(levels[n]) for n in range(1, 8)] == expected

    def test_corpus_totals_are_stable(self):
        levels = {N: generate_pn_free(N, top) for N, top in ((5, 9), (6, 9), (7, 10))}
        counts = {N: [len(levels[N][n]) for n in sorted(levels[N])] for N in levels}
        # frozen from an initial run, cross-checked at n <= 5 against the
        # unlabeled graph counts (all graphs on < N vertices are P_N-free)
        assert counts[5] == [1, 2, 4, 11, 16, 30, 51, 97, 153]
        assert counts[6] == [1, 2, 4, 11, 34, 65, 133, 274, 583]
        assert counts[7] == [1, 2, 4, 11, 34, 156, 310, 718, 1604, 3812]


@st.composite
def colorings(draw, k: int, max_vertices: int):
    """The k classes, as masks, of a coloring of the pairs of n <= max_vertices
    vertices in colors 0..k, color k in no class, and a color per vertex."""
    n = draw(st.integers(0, max_vertices))
    classes = [[0] * n for _ in range(k)]
    for u, v in combinations(range(n), 2):
        c = draw(st.integers(0, k))
        if c < k:
            classes[c][u] |= 1 << v
            classes[c][v] |= 1 << u
    colors = draw(st.lists(st.integers(0, k), min_size=n, max_size=n))
    return tuple(map(tuple, classes)), colors


class TestRows:
    """Each vertex's degree and sum of its neighbors' degrees per class, which
    `_children` derives for each child from its parent's, and from which the
    catalog takes its shapes."""

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 3).flatmap(lambda k: colorings(k, 8)))
    def test_rows_grown_from_a_parent_match_the_child(self, drawn):
        # the new vertex joins the vertices of each color c < k in class c
        classes, joins = drawn
        n = len(joins)
        sets = [sum(1 << v for v in range(n) if joins[v] == c) for c in range(len(classes))]
        grown = [_grown_rows(*args) for args in zip(classes, _rows(classes), sets)]
        assert grown == _rows(_grow(classes, sets, n))

    @settings(max_examples=100, deadline=None)
    @given(st.integers(2, 3).flatmap(lambda k: colorings(k - 1, 7)))
    def test_a_permuted_form_takes_its_shape_from_permuted_rows(self, drawn):
        # a k-coloring of K_n stored as its first k-1 classes, and every
        # permutation of its k colors but the identity
        coloring, _ = drawn
        k = len(coloring) + 1
        symmetries = list(permutations(range(k)))[1:]
        forms = list(_forms(coloring, symmetries, _rows(_with_last(coloring))))
        assert len(forms) == len(symmetries) + 1
        for form, form_rows in forms:
            assert _shape(form_rows) == _shape(_rows(form))


# SHA-256 of the `generate_pn_free(7, 10)` levels as JSON, in order: the
# representatives that the `census` benchmark orients
P7_FREE_DIGEST = "0d97a1bb295ae04651a4af9077a3cdf53ec7c87522fc8a00dd08cec5ae59a52b"


class TestP7FreeCorpus:
    def test_levels_and_catalog_counts_are_pinned(self):
        levels = list(augment((7, None), 10))
        doc = json.dumps([[classes[0] for classes in level.colorings] for level in levels],
                         separators=(",", ":"))
        assert hashlib.sha256(doc.encode()).hexdigest() == P7_FREE_DIGEST
        assert [level.offered for level in levels] == [1, 2, 4, 11, 37, 181, 331, 758, 1726, 4156]
        assert [level.refined for level in levels] == [0, 0, 0, 0, 6, 53, 46, 92, 265, 770]


class TestSubsets:
    """The sets a split color may take, built up so that no superset of a
    rejected set is tried; the oracle tests every subset."""

    @settings(max_examples=150, deadline=None)
    @given(mask_graphs(n=7), st.integers(2, 6), st.integers(0, 127), st.integers(0, 127),
           st.integers(0, 4), st.integers(0, 7))
    def test_matches_every_subset(self, g, N, pool, forced, lo, hi):
        table = path_ends(to_masks(g), N)
        forced &= pool
        visits = []
        got = list(_subsets(table, pool, forced, lo, hi, lambda: visits.append(1)))
        within = [s for s in range(128) if s & pool == s and s & forced == forced
                  and bin(s).count("1") <= hi]
        expected = [s for s in within
                    if bin(s).count("1") >= lo and not closes_path(table, s)]
        assert sorted(got) == expected and len(got) == len(set(got))
        # the sets of one size come in lexicographic order of their vertices,
        # as `itertools.combinations` gives them: the twin rule relies on it
        for size in range(8):
            same = [[v for v in range(7) if s >> v & 1] for s in got if bin(s).count("1") == size]
            assert same == sorted(same)
        if hi < lo:  # an empty size window tests no set
            assert not visits
        # every visit is a rejected set whose one-smaller subsets are accepted
        minimal = [s for s in within if closes_path(table, s) and not any(
            closes_path(table, s & ~(1 << v)) for v in range(7) if (s & ~forced) >> v & 1)]
        assert len(visits) <= len(minimal)
        if lo == 0:
            assert len(visits) == len(minimal)


@st.composite
def twin_parents(draw):
    """A k-coloring of K_n (all k classes), k = 2 or 3 and n <= 7, blown up
    from a coloring of K_m so that it has twins and then relabeled, and a
    path order per color as `augment` takes them."""
    k = draw(st.integers(2, 3))
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=4).filter(lambda s: sum(s) <= 7))
    block = [a for a, size in enumerate(sizes) for _ in range(size)]
    n = len(block)
    between = {(a, b): draw(st.integers(0, k - 1))
               for a in range(len(sizes)) for b in range(a + 1, len(sizes))}
    inside = [draw(st.integers(0, k - 1)) for _ in sizes]
    label = draw(st.permutations(range(n)))
    classes = [[0] * n for _ in range(k)]
    for x, y in combinations(range(n), 2):
        a, b = block[x], block[y]
        c = inside[a] if a == b else between[a, b]
        u, v = label[x], label[y]
        classes[c][u] |= 1 << v
        classes[c][v] |= 1 << u
    orders = [draw(st.integers(3, 6))] + [draw(st.sampled_from([3, 4, 5, 6, None]))
                                          for _ in range(k - 1)]
    return tuple(map(tuple, classes)), orders


def swapped(masks, u: int, w: int):
    """The masks relabeled by the transposition of u and w."""
    def move(m):
        return m ^ (1 << u | 1 << w) if (m >> u ^ m >> w) & 1 else m
    out = [move(m) for m in masks]
    out[u], out[w] = out[w], out[u]
    return tuple(out)


def colored_graph(child) -> nx.Graph:
    """A coloring stored as its first k-1 classes, as a graph with colored
    edges; the non-edges are the last color."""
    g = nx.Graph()
    g.add_nodes_from(range(len(child[0])))
    for c, masks in enumerate(child):
        g.add_edges_from(((u, v) for u, m in enumerate(masks) for v in range(u) if m >> v & 1),
                         color=c)
    return g


class TestTwinRule:
    """`augment` drops a child of a parent when two twins of the parent are
    colored out of the order in which the children are tried; brute force
    checks that the catalog would have rejected each one."""

    @settings(max_examples=60, deadline=None)
    @given(twin_parents())
    def test_twins_are_the_transpositions_that_are_automorphisms(self, drawn):
        classes, _ = drawn
        n = len(classes[0])
        pairs = {(u, w) for twin in _twin_classes(classes[:-1])
                 for u, w in combinations(range(n), 2) if twin >> u & 1 and twin >> w & 1}
        assert pairs == {(u, w) for u, w in combinations(range(n), 2)
                         if all(swapped(masks, u, w) == masks for masks in classes)}
        assert _twin_classes(classes) == _twin_classes(classes[:-1])
        assert _with_last(classes[:-1]) == classes

    @settings(max_examples=60, deadline=None)
    @given(twin_parents())
    @example(drawn=(((0b1110, 1, 1, 1), (0, 0b1100, 0b1010, 0b0110)), [7, None]))  # K_{1,3}
    def test_each_dropped_child_is_isomorphic_to_an_earlier_one(self, drawn):
        classes, orders = drawn
        parent = classes[:-1]
        bound = [N == orders[0] for N in orders]
        visits = []
        rows = _rows(classes)
        kept = [child for child, _ in _children(parent, rows, orders, bound,
                                                lambda: visits.append("kept"))]
        with patch.object(corpus, "_twin_classes", lambda coloring: []):
            every = [child for child, _ in _children(parent, rows, orders, bound,
                                                     lambda: visits.append("every"))]
        # the dropped children were counted as states all the same
        assert visits.count("kept") == visits.count("every")
        # dropped exactly when a swap of two twins gives an earlier child
        n = len(parent[0])
        twins = [(u, w) for u, w in combinations(range(n), 2)
                 if all(swapped(masks, u, w) == masks for masks in classes)]
        position = {child: i for i, child in enumerate(every)}
        assert kept == [child for i, child in enumerate(every) if not any(
            position.get(tuple(swapped(masks, u, w) for masks in child), i) < i for u, w in twins)]
        offered = []
        edge_color = categorical_edge_match("color", None)
        for child in every:
            if len(offered) < len(kept) and child == kept[len(offered)]:
                offered.append(child)
                continue
            g = colored_graph(child)
            assert any(nx.is_isomorphic(g, colored_graph(seen), edge_match=edge_color)
                       for seen in offered), child
        assert offered == kept
