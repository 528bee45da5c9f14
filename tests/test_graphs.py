"""Core data model: construction invariants, codecs, degree bookkeeping."""

import gc
import json
import weakref

import networkx as nx
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pathramsey.graphs import (
    BACKWARD,
    FORWARD,
    UNORIENTED,
    ColoredGraph,
    Graph,
    GraphError,
    Multigraph,
    PartialOrientation,
    adjacency_masks,
    complete_graph,
    connected_components,
    cycle_graph,
    degrees,
    edge_key,
    graph6_decode,
    graph6_encode,
    monochromatic,
    orientation_from_json,
    orientation_to_json,
    path_graph,
    star_graph,
    unoriented,
    with_marks,
)


@st.composite
def small_graphs(draw, max_n=9):
    n = draw(st.integers(min_value=0, max_value=max_n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    mask = draw(st.integers(min_value=0, max_value=(1 << len(pairs)) - 1))
    return Graph.from_edges(n, [p for i, p in enumerate(pairs) if mask >> i & 1])


class TestGraph:
    def test_edge_key_normalizes(self):
        assert edge_key(3, 1) == (1, 3)
        with pytest.raises(GraphError):
            edge_key(2, 2)

    def test_builders(self):
        assert len(complete_graph(5).edges) == 10
        assert len(path_graph(4).edges) == 3
        assert len(cycle_graph(3).edges) == 3
        assert star_graph(5).degree(0) == 4
        with pytest.raises(GraphError):
            cycle_graph(2)

    def test_bad_edge_rejected(self):
        with pytest.raises(GraphError):
            Graph(3, frozenset({(0, 3)}))
        with pytest.raises(GraphError):
            Graph(3, frozenset({(2, 1)}))

    def test_degrees_and_neighbors(self):
        g = path_graph(4)
        assert [g.degree(v) for v in range(4)] == [1, 2, 2, 1]
        assert g.neighbors(1) == [0, 2]

    def test_subgraph_reindexes(self):
        g = complete_graph(5)
        sub = g.subgraph([1, 3, 4])
        assert sub.n == 3 and len(sub.edges) == 3

    def test_connected_components(self):
        g = Graph.from_edges(5, [(0, 1), (2, 3)])
        comps = connected_components(g)
        assert comps == [frozenset({0, 1}), frozenset({2, 3}), frozenset({4})]


class TestAdjacencyMasks:
    def test_cache_does_not_keep_its_graph_alive(self):
        g = Graph.from_edges(7, [(0, 6), (2, 5)])
        assert adjacency_masks(g)[6] == 1
        ref = weakref.ref(g)
        del g
        gc.collect()
        assert ref() is None

    def test_equal_graphs_share_one_entry(self):
        adjacency_masks.cache_clear()
        g = cycle_graph(5)
        adjacency_masks(g)
        assert adjacency_masks.cache_info() == (0, 1)  # hits, misses
        h = cycle_graph(5)
        assert h is not g and adjacency_masks(h) == (18, 5, 10, 20, 9)
        assert adjacency_masks.cache_info() == (1, 1)


class TestGraph6:
    def test_known_encodings(self):
        # K4 encodes to C~ in the graph6 short form
        assert graph6_encode(complete_graph(4)) == "C~"
        assert graph6_decode("C~") == complete_graph(4)

    @settings(max_examples=60, deadline=None)
    @given(small_graphs())
    def test_round_trip(self, g):
        assert graph6_decode(graph6_encode(g)) == g

    @settings(max_examples=40, deadline=None)
    @given(small_graphs())
    def test_matches_networkx(self, g):
        gx = nx.Graph()
        gx.add_nodes_from(range(g.n))
        gx.add_edges_from(g.edges)
        theirs = nx.to_graph6_bytes(gx, header=False).decode().strip()
        assert graph6_encode(g) == theirs

    def test_header_stripped(self):
        assert graph6_decode(">>graph6<<C~") == complete_graph(4)

    def test_long_form(self):
        g = Graph.from_edges(70, [(0, 69)])
        assert graph6_decode(graph6_encode(g)) == g

    def test_rejects_garbage(self):
        with pytest.raises(GraphError):
            graph6_decode("")
        with pytest.raises(GraphError):
            graph6_decode("C")  # truncated body
        for header in (chr(127), "~??" + chr(127)):  # size characters above "~"
            with pytest.raises(GraphError):
                graph6_decode(header + "?" * 336)
        for text in ("A`", "B~", "~??C~"):  # padding bits set; a long header for 4 vertices
            with pytest.raises(GraphError):
                graph6_decode(text)

    def test_rejects_trailing_characters(self):
        assert graph6_decode("DQc").n == 5
        for text in ("DQcGARBAGE", "DQc?", "C~~", "?@"):
            with pytest.raises(GraphError):
                graph6_decode(text)

    @settings(max_examples=300, deadline=None)
    @given(st.text(max_size=30) | st.from_regex(r"\A(>>graph6<<)?[?-~]{0,12}\Z"))
    @example(">>graph6<<")
    @example("~~")
    @example("~??")
    def test_arbitrary_text_decodes_or_raises_graph_error(self, text):
        try:
            g = graph6_decode(text)
        except GraphError:
            return
        assert text.strip().removeprefix(">>graph6<<") == graph6_encode(g)


class TestColoredAndOriented:
    def test_coloring_must_cover_edges(self):
        g = path_graph(3)
        with pytest.raises(GraphError):
            ColoredGraph(g, 2, {(0, 1): 0})
        with pytest.raises(GraphError):
            ColoredGraph(g, 2, {(0, 1): 0, (1, 2): 5})

    def test_marks_validated(self):
        cg = monochromatic(path_graph(3))
        with pytest.raises(GraphError):
            PartialOrientation(cg, {(0, 1): 7, (1, 2): 0})
        with pytest.raises(GraphError):
            with_marks(cg, {(0, 2): FORWARD})

    @pytest.mark.parametrize("build, message", [
        (lambda cg: ColoredGraph(cg.graph, 2, {(0, 1): 0}),
         "coloring must assign exactly the edges of the graph"),
        (lambda cg: ColoredGraph(cg.graph, 2, {(0, 1): 0, (1, 2): 1, (0, 2): 1}),
         "coloring must assign exactly the edges of the graph"),
        (lambda cg: ColoredGraph(cg.graph, 2, {(0, 1): 0, (1, 2): 5}),
         "edge (1, 2) has color 5 outside 0..1"),
        (lambda cg: ColoredGraph(cg.graph, 2, {(1, 2): -1, (0, 1): 2}),
         "edge (1, 2) has color -1 outside 0..1"),
        (lambda cg: PartialOrientation(cg, {(1, 2): 0}),
         "marks must cover exactly the edges of the base graph"),
        (lambda cg: PartialOrientation(cg, {(0, 1): 0, (1, 2): 0, (0, 2): 0}),
         "marks must cover exactly the edges of the base graph"),
        (lambda cg: PartialOrientation(cg, {(0, 1): 1, (1, 2): 7}),
         "edge (1, 2) has invalid mark 7"),
        (lambda cg: PartialOrientation(cg, {(0, 1): [1], (1, 2): 0}),
         "edge (0, 1) has invalid mark [1]"),
        (lambda cg: with_marks(cg, {(0, 2): FORWARD}),
         "mark on nonexistent edge (0, 2)"),
        (lambda cg: with_marks(cg, {(2, 1): FORWARD, (2, 0): BACKWARD}),
         "mark on nonexistent edge (2, 0)"),
        (lambda cg: with_marks(cg, {(0, 1): 3}),
         "edge (0, 1) has invalid mark 3"),
    ], ids=["missing-color", "extra-color", "color-too-high", "first-bad-color",
            "missing-mark", "extra-mark", "bad-mark", "unhashable-mark",
            "marked-non-edge", "reversed-then-non-edge", "overlay-bad-mark"])
    def test_validation_messages(self, build, message):
        with pytest.raises(GraphError) as exc:
            build(monochromatic(path_graph(3), 0, 2))
        assert str(exc.value) == message

    def test_reversed_mark_key_is_normalised(self):
        po = with_marks(monochromatic(path_graph(3)), {(2, 1): BACKWARD, (0, 1): FORWARD})
        assert po.mark == {(0, 1): FORWARD, (1, 2): BACKWARD}
        assert po.head((1, 2)) == 1

    def test_head_tail(self):
        cg = monochromatic(path_graph(3))
        po = with_marks(cg, {(0, 1): FORWARD, (1, 2): BACKWARD})
        assert po.head((0, 1)) == 1 and po.tail((0, 1)) == 0
        assert po.head((1, 2)) == 1 and po.tail((1, 2)) == 2
        assert unoriented(cg).head((0, 1)) is None

    def test_degrees_split(self):
        cg = monochromatic(star_graph(4))
        po = with_marks(cg, {(0, 1): FORWARD, (0, 2): BACKWARD})
        d, din, dout = degrees(po, 0, 0)
        assert (d, din, dout) == (1, 1, 1)

    @settings(max_examples=40, deadline=None)
    @given(small_graphs(max_n=7), st.randoms(use_true_random=False))
    def test_json_round_trip(self, g, rng):
        color = {e: rng.randrange(2) for e in g.edges}
        mark = {e: rng.randrange(3) for e in g.edges}
        po = PartialOrientation(ColoredGraph(g, 2, color), mark)
        again = orientation_from_json(orientation_to_json(po))
        assert again.base.graph == g
        assert dict(again.base.color) == color
        assert dict(again.mark) == mark

    def test_json_rejects_malformed(self):
        with pytest.raises(GraphError):
            orientation_from_json("not json")
        with pytest.raises(GraphError):
            orientation_from_json('{"n": 2, "k": 1, "edges": [[1, 0, 0, 0]]}')
        with pytest.raises(GraphError):
            orientation_from_json(
                '{"n": 2, "k": 1, "edges": [[0, 1, 0, 0], [0, 1, 0, 0]]}'
            )

    @pytest.mark.parametrize("rows", [
        "[[0, 1, 0]]",
        "[[0, 1, 0, 0, 0]]",
        '[[0, "x", 0, 0]]',
        "[[0, 1.5, 0, 0]]",
        "[[0, 1, null, 0]]",
        "[[0, 1, true, 0]]",
        '["0 1 0 0"]',
        "[{\"u\": 0}]",
        "[7]",
        '"0 1 0 0"',
    ], ids=["short", "long", "string-entry", "float-entry", "null-entry", "bool-entry",
            "string-row", "object-row", "int-row", "string-edges"])
    def test_json_rejects_malformed_edge_rows(self, rows):
        with pytest.raises(GraphError):
            orientation_from_json(f'{{"n": 2, "k": 2, "edges": {rows}}}')

    @settings(max_examples=300, deadline=None)
    @given(
        st.text(max_size=40)
        | st.recursive(
            st.none() | st.booleans() | st.integers(-3, 5) | st.floats() | st.text(max_size=3),
            lambda inner: st.lists(inner, max_size=5)
            | st.dictionaries(st.sampled_from(["n", "k", "edges", "x"]), inner, max_size=4),
            max_leaves=20,
        ).map(json.dumps)
    )
    @example('{"n": "x", "k": 2, "edges": []}')
    @example('{"n": 2.7, "k": 2, "edges": []}')
    @example('{"n": 2, "k": 2.0, "edges": []}')
    @example('{"n": -1, "k": 2, "edges": []}')
    @example("1" * 5000)
    @example("[" * 100_000)
    def test_arbitrary_text_decodes_or_raises_graph_error(self, text):
        try:
            po = orientation_from_json(text)
        except GraphError:
            return
        assert orientation_from_json(orientation_to_json(po)) == po


class TestMultigraph:
    def test_parallel_edges_and_degree(self):
        mg = Multigraph.from_pairs(2, [(0, 1), (1, 0), (0, 1)])
        assert mg.degree(0) == 3
        assert mg.max_degree() == 3

    def test_duplicate_labels_rejected(self):
        with pytest.raises(GraphError):
            Multigraph(2, ((0, 1, "x"), (0, 1, "x")))

    def test_self_loop_rejected(self):
        with pytest.raises(GraphError):
            Multigraph.from_pairs(2, [(1, 1)])
