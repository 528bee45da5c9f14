"""Triangle decompositions, dual hypergraphs, and the chromatic-index search."""

import hashlib
import json
from itertools import combinations, permutations, product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    MALFORMED_HYPERGRAPHS,
    StoppedClock,
    dual_of_cyclic_host,
    enumerated_chromatic_index,
)
from pathramsey import goodness, hypergraphs
from pathramsey.corpus import _Catalog
from pathramsey.goodness import Budget
from pathramsey.graphs import ColoredGraph, Graph, GraphError, monochromatic
from pathramsey.hypergraphs import (
    DualReport,
    Hypergraph3,
    _incidence,
    build_dual,
    build_triangle_host,
    chromatic_index,
    detect_triangle_decomposition,
    find_three_partition,
    generate_small_instances,
    question25_search,
)

# Frozen SHA-256 digest of the small-instance enumeration; a rewrite must keep it.
SMALL_DIGEST = "1244d3d1b69c6750534b4f1ddea0ed616f5a89ca46723d643b1f6bcacec28212"

LATIN3 = Hypergraph3(
    9,
    tuple(
        frozenset({r, 3 + c, 6 + (r + c) % 3}) for r in range(3) for c in range(3)
    ),
    (frozenset({0, 1, 2}), frozenset({3, 4, 5}), frozenset({6, 7, 8})),
)

FANO = Hypergraph3(
    7,
    tuple(
        frozenset(e)
        for e in [(0, 1, 2), (0, 3, 4), (0, 5, 6), (1, 3, 5), (1, 4, 6), (2, 3, 6), (2, 4, 5)]
    ),
)


@st.composite
def three_uniform(draw, max_n=8, max_edges=8):
    n = draw(st.integers(3, max_n))
    edges = draw(st.lists(st.sampled_from(list(combinations(range(n), 3))), max_size=max_edges))
    return Hypergraph3(n, tuple(frozenset(e) for e in edges))


def block_parts(m):
    return tuple(frozenset(range(p * m, (p + 1) * m)) for p in range(3))


@st.composite
def partial_instances(draw, m=3, size=None):
    """A labelled partial Latin square of order m: cells (row, m + column,
    2m + symbol) added in a drawn order while no two share two vertices."""
    cells = draw(st.permutations([(r, m + c, 2 * m + s) for r, c, s in product(range(m), repeat=3)]))
    size = draw(st.integers(0, m * m)) if size is None else size
    chosen = []
    for t in cells:
        if len(chosen) < size and all(len(set(t) & set(u)) <= 1 for u in chosen):
            chosen.append(t)
    return Hypergraph3(3 * m, tuple(frozenset(t) for t in chosen), block_parts(m))


def latin_squares(m):
    """Every Latin square of order m as a hypergraph on rows, columns and symbols."""
    out = []
    for square in product(permutations(range(m)), repeat=m):
        if all(len({square[r][c] for r in range(m)}) == m for c in range(m)):
            edges = tuple(frozenset({r, m + c, 2 * m + square[r][c]}) for r in range(m) for c in range(m))
            out.append(Hypergraph3(3 * m, edges, block_parts(m)))
    return out


def relabeled(h, rng):
    """h under a random relabeling that maps each part onto a part."""
    m = h.n // 3
    part_perm = rng.sample(range(3), 3)
    perms = [rng.sample(range(m), m) for _ in range(3)]
    edges = [frozenset(part_perm[v // m] * m + perms[v // m][v % m] for v in e) for e in h.edges]
    rng.shuffle(edges)
    return Hypergraph3(h.n, tuple(edges), block_parts(m))


def canonical_key(h):
    """Least sorted edge list over all 6 (m!)^3 part-preserving relabelings."""
    m = h.n // 3
    base = [tuple(sorted(e)) for e in h.edges]
    best = None
    for part_perm in permutations(range(3)):
        for perms in product(permutations(range(m)), repeat=3):
            key = tuple(sorted(
                tuple(sorted(part_perm[v // m] * m + perms[v // m][v % m] for v in e)) for e in base
            ))
            if best is None or key < best:
                best = key
    return best


class TestHypergraph3:
    def test_property_checks_on_latin_square(self):
        assert LATIN3.is_three_uniform()
        assert LATIN3.is_three_regular()
        assert LATIN3.is_three_partite()
        assert LATIN3.is_linear()

    def test_fano_plane_is_not_three_partite(self):
        assert FANO.is_three_uniform()
        assert FANO.is_three_regular()
        assert FANO.is_linear()  # any two lines meet in exactly one point
        assert not FANO.is_three_partite()
        assert find_three_partition(FANO) is None

    @settings(max_examples=60, deadline=None)
    @given(three_uniform())
    @example(FANO)
    @example(LATIN3)
    def test_three_partition_matches_enumeration(self, h):
        exists = any(
            all(len({side[v] for v in e}) == 3 for e in h.edges)
            for side in product(range(3), repeat=h.n)
        )
        parts = find_three_partition(h)
        assert (parts is not None) == exists
        if parts is not None:
            assert sorted(v for p in parts for v in p) == list(range(h.n))
            assert all(len(e & p) == 1 for e in h.edges for p in parts)

    def test_json_round_trip(self):
        again = Hypergraph3.from_json(LATIN3.to_json())
        assert again == LATIN3
        with pytest.raises(GraphError):
            Hypergraph3.from_json("{}")
        with pytest.raises(GraphError):
            Hypergraph3.from_json('{"v": 3, "edges": [[0, 1, 9]]}')

    @pytest.mark.parametrize("text", MALFORMED_HYPERGRAPHS.values(), ids=MALFORMED_HYPERGRAPHS.keys())
    def test_json_rejects_malformed_documents(self, text):
        with pytest.raises(GraphError):
            Hypergraph3.from_json(text)

    @settings(max_examples=300, deadline=None)
    @given(
        st.text(max_size=40)
        | st.recursive(
            st.none() | st.booleans() | st.integers(-3, 9) | st.floats() | st.text(max_size=3),
            lambda inner: st.lists(inner, max_size=5)
            | st.dictionaries(st.sampled_from(["v", "edges", "parts", "x"]), inner, max_size=4),
            max_leaves=20,
        ).map(json.dumps)
    )
    @example('{"v": 4, "edges": [[0, 1], [0, 1, 2, 3]], "parts": [[0], [], [1, 2]]}')
    def test_arbitrary_text_decodes_or_raises_graph_error(self, text):
        try:
            h = Hypergraph3.from_json(text)
        except GraphError:
            return
        assert Hypergraph3.from_json(h.to_json()) == h

    def test_partition_found_when_unstated(self):
        bare = Hypergraph3(LATIN3.n, LATIN3.edges)
        assert bare.is_three_partite()


class TestTriangleDecomposition:
    def test_host_decomposes(self):
        cg = build_triangle_host(3, (0, 1, 2))
        result = detect_triangle_decomposition(cg)
        assert result.offending is None
        assert len(result.decomposition.triangles) == 9

    def test_offender_reported(self):
        # one color class is a 4-clique, not a triangle
        g = Graph.from_edges(4, [(i, j) for i, j in combinations(range(4), 2)])
        cg = ColoredGraph(g, 3, {e: 0 for e in g.edges})
        result = detect_triangle_decomposition(cg)
        assert result.decomposition is None
        assert result.offending == (0, frozenset({0, 1, 2, 3}))

    def test_requires_three_colors(self):
        with pytest.raises(GraphError):
            detect_triangle_decomposition(monochromatic(Graph(3, frozenset())))


class TestDual:
    @pytest.mark.parametrize(
        "m,shifts", [(3, (0, 1, 2)), (5, (0, 1, 3)), (7, (0, 2, 6)), (9, (1, 4, 8))]
    )
    def test_dual_properties(self, m, shifts):
        cg = build_triangle_host(m, shifts)
        result = detect_triangle_decomposition(cg)
        report = build_dual(result.decomposition)
        assert isinstance(report, DualReport)
        assert report.three_uniform
        assert report.three_regular
        assert report.three_partite
        assert report.linear
        assert report.host_six_regular
        assert report.hypergraph.n == 3 * m

    def test_construction_validates_input(self):
        with pytest.raises(GraphError):
            build_triangle_host(4, (0, 1, 2))
        with pytest.raises(GraphError):
            build_triangle_host(5, (0, 1, 1))


class TestChromaticIndex:
    def test_latin_square_needs_three_colors(self):
        assert chromatic_index(LATIN3) == 3

    @settings(max_examples=60, deadline=None)
    @given(three_uniform())
    @example(LATIN3)
    def test_matches_enumeration_of_edge_colorings(self, h):
        assert chromatic_index(h) == enumerated_chromatic_index(h.edges)

    def test_budget_gives_none(self):
        h = dual_of_cyclic_host(7, (0, 1, 3))
        assert chromatic_index(h, Budget(max_nodes=3)) is None

    @pytest.mark.parametrize("frozen,interval", [(1, goodness.CHECK_INTERVAL), (2, 1)],
                             ids=["before-search", "during-search"])
    def test_time_budget_gives_none(self, monkeypatch, frozen, interval):
        # the clock passes the deadline at its second reading (at the search's
        # first state) or its third (at its second state)
        monkeypatch.setattr(goodness, "time", StoppedClock(frozen))
        monkeypatch.setattr(goodness, "CHECK_INTERVAL", interval)
        assert chromatic_index(dual_of_cyclic_host(17, (5, 8, 13)), Budget(max_seconds=0.05)) is None


class TestSmallCorpus:
    def test_only_the_latin_square_exists(self):
        # no valid instance has 3 or 6 hyperedges; at 9 the order-3 Latin
        # square is the unique instance up to isomorphism, kept as first found
        edges = [(0, 3, 6), (0, 4, 7), (0, 5, 8), (1, 3, 7), (1, 4, 8),
                 (1, 5, 6), (2, 3, 8), (2, 4, 6), (2, 5, 7)]
        first = Hypergraph3(9, tuple(frozenset(e) for e in edges), block_parts(3))
        assert generate_small_instances(9) == [first]

    def test_enumeration_order_keeps_its_digest(self, monkeypatch):
        # every labelled instance offered to the catalog, in order: the
        # first of each class is the one kept, so the order is the output
        offered = []

        class Recorder(_Catalog):
            def add(self, classes, start=None):
                offered.append(classes)
                return super().add(classes, start)

        monkeypatch.setattr(hypergraphs, "_Catalog", Recorder)
        kept = generate_small_instances(9)
        doc = json.dumps([offered, [[sorted(e) for e in h.edges] for h in kept]])
        assert len(offered) == 12
        assert hashlib.sha256(doc.encode()).hexdigest() == SMALL_DIGEST

    @settings(max_examples=20, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_latin_squares_collapse_to_one_entry(self, rng):
        squares = latin_squares(3)
        assert len(squares) == 12
        catalog = _Catalog()
        kept = [catalog.add(*_incidence(relabeled(h, rng))) for h in squares]
        assert kept == [True] + [False] * 11

    @settings(max_examples=40, deadline=None)
    @given(st.data(), st.randoms(use_true_random=False))
    def test_catalog_agrees_with_canonical_forms(self, data, rng):
        # at order 3 plain hypergraph isomorphism and part-preserving
        # isomorphism give the same classes
        size = data.draw(st.integers(0, 9))
        a = data.draw(partial_instances(size=size))
        b = data.draw(partial_instances(size=size))
        for other, same in ((relabeled(a, rng), True), (b, canonical_key(a) == canonical_key(b))):
            catalog = _Catalog()
            assert catalog.add(*_incidence(a))
            assert catalog.add(*_incidence(other)) is not same

    def test_search_flags_nothing_small(self):
        entries = question25_search(generate_small_instances(9))
        assert all(e.valid for e in entries)
        assert all(e.chi_index <= 5 for e in entries)
        assert not any(e.flagged for e in entries)

    def test_invalid_instances_are_skipped_with_reason(self):
        bad = Hypergraph3(3, (frozenset({0, 1}),))
        entries = question25_search([bad])
        assert entries[0].valid is False
        assert entries[0].reason == "not 3-uniform"
