"""Main-part pipeline, König edge coloring, and the technical lemma harness."""

import hashlib
import json
import random
from itertools import combinations

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import grid_coloring
from pathramsey.decompose import (
    LemmaStatus,
    build_main_part_multigraph,
    induced_vertex_coloring,
    konig_edge_coloring,
    monochromatic_parts,
    run_pipeline,
    validate_technical_lemma,
)
from pathramsey.graphs import (
    ColoredGraph,
    Graph,
    GraphError,
    Multigraph,
    complete_graph,
    monochromatic,
    unoriented,
    with_marks,
)
from pathramsey.orientation import BoundParams, P5_PARAMS


# Frozen SHA-256 digests of the König and pipeline outputs; a rewrite must keep them.
KONIG_DIGEST = "4790e1d39d4a85c2bbc8fda2d326d649bc903410a2410910dd7d5927c60e7f0d"
PIPELINE_DIGEST = "6397de5f981933bce18a46c71ec47c6525b62bc48bd81168fe53130db8d9d404"


def random_bipartite_multigraph(rng: random.Random, max_degree: int = 8) -> Multigraph:
    nl = rng.randint(1, 6)
    nr = rng.randint(1, 6)
    deg = [0] * (nl + nr)
    pairs = []
    for _ in range(rng.randint(1, 24)):
        u = rng.randrange(nl)
        v = nl + rng.randrange(nr)
        if deg[u] < max_degree and deg[v] < max_degree:
            pairs.append((u, v))
            deg[u] += 1
            deg[v] += 1
    if not pairs:
        pairs = [(0, nl)]
    return Multigraph.from_pairs(nl + nr, pairs), (
        list(range(nl)),
        list(range(nl, nl + nr)),
    )


def digest(rows) -> str:
    return hashlib.sha256(json.dumps(rows, separators=(",", ":")).encode()).hexdigest()


def assert_proper_edge_coloring(mg: Multigraph, coloring: dict) -> None:
    delta = mg.max_degree()
    used = set(coloring.values())
    assert used <= set(range(delta))
    assert len(used) == delta  # exactly the maximum degree many colors
    seen = set()
    for u, v, lab in mg.edges:
        for x in (u, v):
            key = (x, coloring[lab])
            assert key not in seen
            seen.add(key)


@st.composite
def colored_graphs(draw, max_n=12):
    n = draw(st.integers(0, max_n))
    k = draw(st.integers(1, 3))
    pairs = list(combinations(range(n), 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    color = {e: draw(st.integers(0, k - 1)) for e in edges}
    return ColoredGraph(Graph.from_edges(n, color), k, color)


class TestParts:
    @settings(max_examples=150, deadline=None)
    @given(colored_graphs())
    def test_parts_are_the_color_class_components(self, cg):
        expected = []
        for c in range(cg.k):
            g = nx.Graph()
            g.add_nodes_from(range(cg.graph.n))
            g.add_edges_from(e for e, col in cg.color.items() if col == c)
            comps = [frozenset(comp) for comp in nx.connected_components(g) if len(comp) > 1]
            expected += [(c, comp) for comp in sorted(comps, key=min)]
        assert monochromatic_parts(cg) == expected

    def test_singletons_skipped(self):
        cg = grid_coloring(2, 5)
        parts = monochromatic_parts(cg)
        assert all(len(comp) > 1 for _, comp in parts)
        assert len(parts) == 2 + 5

    def test_vertex_in_one_color_only_fails(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2)])
        cg = ColoredGraph(g, 2, {(0, 1): 0, (1, 2): 0})
        parts = monochromatic_parts(cg)
        with pytest.raises(GraphError, match="vertex"):
            build_main_part_multigraph(cg, parts)

    def test_multigraph_edges_labeled_by_vertices(self):
        cg = grid_coloring(3, 4)
        mpm = build_main_part_multigraph(cg, monochromatic_parts(cg))
        assert sorted(mpm.edge_labels.values()) == list(range(12))
        left, right = mpm.bipartition()
        assert len(left) == 3 and len(right) == 4


class TestKonig:
    def test_parallel_edges(self):
        mg = Multigraph.from_pairs(2, [(0, 1)] * 5)
        coloring = konig_edge_coloring(mg, ([0], [1]))
        assert_proper_edge_coloring(mg, coloring)

    def test_rejects_non_bipartite_input(self):
        mg = Multigraph.from_pairs(3, [(0, 1), (1, 2), (0, 2)])
        with pytest.raises(GraphError):
            konig_edge_coloring(mg, ([0, 2], [1]))

    def test_rejects_vertex_outside_both_classes(self):
        # vertex 2 is in neither class: edges (1, 2) and (0, 2) cross nothing
        mg = Multigraph.from_pairs(3, [(0, 1), (1, 2), (0, 2)])
        with pytest.raises(GraphError, match="bipartition"):
            konig_edge_coloring(mg, ([0], [1]))

    def test_rejects_overlapping_classes(self):
        mg = Multigraph.from_pairs(2, [(0, 1)])
        with pytest.raises(GraphError):
            konig_edge_coloring(mg, ([0, 1], [1]))

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 2**32))
    def test_random_multigraphs_get_delta_colors(self, seed):
        mg, bipartition = random_bipartite_multigraph(random.Random(seed))
        coloring = konig_edge_coloring(mg, bipartition)
        assert_proper_edge_coloring(mg, coloring)

    def test_colorings_keep_their_digest(self):
        # the colorings of 300 random bipartite multigraphs, parallel edges
        # included; any change to the augmentation order shows here
        rows = []
        for seed in range(300):
            rng = random.Random(seed)
            nl, nr = rng.randint(1, 12), rng.randint(1, 12)
            pairs = [(rng.randrange(nl), nl + rng.randrange(nr)) for _ in range(rng.randint(1, 150))]
            mg = Multigraph.from_pairs(nl + nr, pairs)
            coloring = konig_edge_coloring(mg, (list(range(nl)), list(range(nl, nl + nr))))
            rows.append(sorted(coloring.items()))
        assert digest(rows) == KONIG_DIGEST


class TestPipeline:
    @pytest.mark.parametrize("rows,cols", [(3, 4), (4, 4), (2, 5), (4, 5), (5, 5)])
    def test_grid_hosts(self, rows, cols):
        report = run_pipeline(grid_coloring(rows, cols))
        assert report.colors_used == max(rows, cols)
        # properness re-checked from scratch
        g = Graph.from_edges(
            rows * cols, grid_coloring(rows, cols).graph.edges
        )
        for u, v in g.edges:
            assert report.vertex_coloring[u] != report.vertex_coloring[v]

    def test_relabeled_instances(self):
        for seed in range(5):
            cg = grid_coloring(3, 4, seed=seed)
            report = run_pipeline(cg)
            assert report.colors_used <= 5
            for u, v in cg.graph.edges:
                assert report.vertex_coloring[u] != report.vertex_coloring[v]

    def test_report_serializes(self):
        doc = run_pipeline(grid_coloring(3, 4)).to_jsonable()
        assert doc["proper"] is True
        assert doc["colors_used"] == 4
        assert len(doc["parts"]) == 7

    def test_reports_keep_their_digest(self):
        rows = [run_pipeline(grid_coloring(r, c, seed=100 * r + c)).to_jsonable()
                for r in range(4, 13) for c in range(r, 13)]
        assert digest(rows) == PIPELINE_DIGEST

    def test_induced_coloring_detects_gaps(self):
        cg = grid_coloring(2, 5)
        mpm = build_main_part_multigraph(cg, monochromatic_parts(cg))
        with pytest.raises(GraphError):
            induced_vertex_coloring(cg, mpm, {})


class TestTechnicalLemma:
    def test_main_parts_pass(self):
        verdict = validate_technical_lemma(unoriented(grid_coloring(4, 4)), P5_PARAMS)
        assert verdict.status is LemmaStatus.PASS

    def test_low_degree_is_a_hypothesis_failure(self):
        verdict = validate_technical_lemma(unoriented(grid_coloring(2, 4)), P5_PARAMS)
        assert verdict.status is LemmaStatus.HYPOTHESIS_FAILED
        assert any("degree" in d for d in verdict.details)

    def test_unbounded_part_is_a_hypothesis_failure(self):
        # a monochromatic clique too large for condition (2)
        cg = grid_coloring(2, 6)
        verdict = validate_technical_lemma(unoriented(cg), BoundParams(6, 1, 4))
        assert verdict.status is LemmaStatus.HYPOTHESIS_FAILED
        assert any("exceeds" in d for d in verdict.details)
