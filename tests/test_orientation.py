"""Boundedness checker, part classification, and the orientation constructors."""

import hashlib
import json
import logging

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathramsey import orientation
from pathramsey.corpus import connected_pn_free_graph6
from pathramsey.detect import PendantKind, PendantStructure, find_path, is_pn_free
from pathramsey.graphs import (
    BACKWARD,
    FORWARD,
    ColoredGraph,
    Graph,
    GraphError,
    PartialOrientation,
    color_subgraph,
    complete_graph,
    connected_components,
    cycle_graph,
    degrees,
    graph6_decode,
    monochromatic,
    path_graph,
    star_graph,
    with_marks,
)
from pathramsey.orientation import (
    ORIENTERS,
    BoundParams,
    BoundVerdict,
    NotPNFreeError,
    OrientationError,
    P5_PARAMS,
    P6_PARAMS,
    P7_PARAMS,
    build_witness,
    check_nst_bounded,
    check_st_bounded,
    classify_part,
    orient_p5_free,
    orient_p6_free,
    orient_p7_free,
    oriented_part,
    standard_orient,
    Violation,
    witness_params,
)


def arc(g: Graph, tail: int, head: int) -> tuple[tuple[int, int], int]:
    e = (tail, head) if tail < head else (head, tail)
    assert e in g.edges
    return e, FORWARD if tail < head else BACKWARD


def oriented(g: Graph, arcs: list[tuple[int, int]]) -> PartialOrientation:
    marks = dict(arc(g, t, h) for t, h in arcs)
    return with_marks(monochromatic(g), marks)


class TestBoundParams:
    def test_published_triples_satisfy_side_conditions(self):
        for n, s, t in ((5, 1, 4), (7, 2, 5), (8, 2, 6)):
            p = BoundParams(n, s, t)
            assert p.n > p.s + p.t - 1 and p.n > 2 * p.s + 2

    def test_violating_triples_rejected(self):
        with pytest.raises(GraphError):
            BoundParams(5, 1, 5)  # n = s + t - 1
        with pytest.raises(GraphError):
            BoundParams(6, 2, 3)  # n = 2s + 2
        with pytest.raises(GraphError):
            BoundParams(5, -1, 4)


class TestClassifyPart:
    def test_unoriented_part_is_main(self):
        g = complete_graph(4)
        cls = classify_part(
            with_marks(monochromatic(g), {}), frozenset(range(4)), 0
        )
        assert cls.t_minus == cls.t_plus == cls.x_set == frozenset()

    def test_double_sink_and_feeder(self):
        # 0 -> 1 -> 3 <- 2: vertex 3 has in-degree 2 and no outgoing path
        g = Graph.from_edges(4, [(0, 1), (1, 3), (2, 3)])
        po = oriented(g, [(0, 1), (1, 3), (2, 3)])
        cls = classify_part(po, frozenset(range(4)), 0)
        assert cls.t_minus == frozenset({3})
        assert cls.t_plus == frozenset({0, 1, 2})
        assert cls.x_set == frozenset()

    def test_sink_reaching_sink_is_demoted(self):
        # 1 <- 0 -> ... two heavy vertices, one reaching the other
        g = Graph.from_edges(5, [(0, 2), (1, 2), (2, 3), (3, 4), (1, 4)])
        po = oriented(g, [(0, 2), (1, 2), (2, 3), (3, 4), (1, 4)])
        # in-degrees: 2:2, 3:1, 4:2; vertex 2 reaches vertex 4 (heavy)
        cls = classify_part(po, frozenset(range(5)), 0)
        assert cls.t_minus == frozenset({4})
        assert 2 in cls.t_plus

    def test_residual_vertices_land_in_x(self):
        # a single oriented edge not touching any heavy vertex
        g = path_graph(3)
        po = oriented(g, [(0, 1)])
        cls = classify_part(po, frozenset(range(3)), 0)
        assert cls.t_minus == frozenset() and cls.x_set == frozenset({0, 1})

    def test_requires_a_component(self):
        g = Graph.from_edges(4, [(0, 1), (2, 3)])
        po = with_marks(monochromatic(g), {})
        with pytest.raises(GraphError):
            classify_part(po, frozenset({0, 1, 2, 3}), 0)


class TestChecker:
    def test_condition_1_sink_overload(self):
        # s = 1 forbids in-degree 2
        g = star_graph(3)
        po = oriented(g, [(1, 0), (2, 0)])
        verdict = check_st_bounded(po, frozenset(range(3)), 0, 1, 4)
        assert not verdict.passed
        assert any(v.condition == 1 for v in verdict.violations)

    def test_condition_2_unoriented_degree(self):
        g = star_graph(6)
        po = with_marks(monochromatic(g), {})
        verdict = check_st_bounded(po, frozenset(range(6)), 0, 1, 4)
        assert any(v.condition == 2 and v.vertex == 0 for v in verdict.violations)

    def test_condition_3_sink_majority(self):
        # two sinks, two feeders: |T-| = |T+| fails the strict majority
        g = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
        po = oriented(g, [(0, 2), (1, 2), (0, 3), (1, 3)])
        verdict = check_st_bounded(po, frozenset(range(4)), 0, 2, 6)
        assert any(v.condition == 3 for v in verdict.violations)

    def test_condition_4_large_part_needs_an_arc(self):
        g = cycle_graph(6)
        po = with_marks(monochromatic(g), {})
        params = BoundParams(5, 1, 4)
        verdict = check_nst_bounded(po, frozenset(range(6)), 0, params)
        assert [v.condition for v in verdict.violations] == [4]
        po2 = oriented(g, [])
        g7 = cycle_graph(5)
        verdict_small = check_nst_bounded(
            with_marks(monochromatic(g7), {}), frozenset(range(5)), 0, params
        )
        assert verdict_small.passed


class TestStandardOrient:
    def test_pendant_edge_toward_leaf(self):
        g = path_graph(4)
        s = PendantStructure(PendantKind.PENDANT_EDGE, 1, frozenset({0, 1}))
        assert standard_orient(g, s) == {(0, 1): BACKWARD}

    def test_pendant_triangle_outward(self):
        g = Graph.from_edges(5, [(0, 1), (1, 2), (0, 2), (0, 3), (3, 4)])
        s = PendantStructure(PendantKind.PENDANT_TRIANGLE, 0, frozenset({0, 1, 2}))
        marks = standard_orient(g, s)
        assert marks == {(0, 1): FORWARD, (0, 2): FORWARD}

    def test_pendant_star_along_paths(self):
        # attach 0 -> center 1 -> leaves 2, 3
        g = Graph.from_edges(6, [(0, 1), (1, 2), (1, 3), (0, 4), (0, 5), (4, 5)])
        s = PendantStructure(PendantKind.PENDANT_STAR, 0, frozenset({0, 1, 2, 3}))
        marks = standard_orient(g, s)
        assert marks == {(0, 1): FORWARD, (1, 2): FORWARD, (1, 3): FORWARD}


class TestConstructors:
    def test_clique_needs_no_marks(self):
        # cliques on <= 4 vertices stay fully unoriented
        assert orient_p5_free(complete_graph(4)) == {}
        assert orient_p5_free(complete_graph(3)) == {}

    def test_p5_on_a_path_raises_with_witness(self):
        with pytest.raises(NotPNFreeError) as exc:
            orient_p5_free(path_graph(5))
        assert len(exc.value.witness) == 5

    def test_disconnected_input_rejected(self):
        g = Graph.from_edges(4, [(0, 1), (2, 3)])
        with pytest.raises(GraphError):
            orient_p6_free(g)

    def test_lone_edge_tie_break(self):
        # a bare K2 orients toward the higher-indexed vertex
        assert orient_p5_free(Graph.from_edges(2, [(0, 1)])) == {(0, 1): FORWARD}

    def _check(self, g, marks, params):
        po = oriented_part(g, marks)
        verdict = check_nst_bounded(po, frozenset(range(g.n)), 0, params)
        assert verdict.passed, [v.message for v in verdict.violations]
        return po

    def test_p6_six_cycle_unoriented(self):
        g = cycle_graph(5)
        assert orient_p6_free(g) == {}

    def test_p6_four_cycle_with_fans_orients_pendants_only(self):
        # 4-cycle a,b,c,d with chord a-c, five pendant edges at a, three at c
        edges = [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)]
        nxt = 4
        for corner, cnt in ((0, 5), (2, 3)):
            for _ in range(cnt):
                edges.append((corner, nxt))
                nxt += 1
        g = Graph.from_edges(nxt, edges)
        marks = orient_p6_free(g)
        assert len(marks) == 8  # exactly the pendant edges
        assert all(e[0] in (0, 2) for e in marks)
        self._check(g, marks, P6_PARAMS)

    def test_p6_trees_oriented_from_root(self):
        g = path_graph(5)
        marks = orient_p6_free(g)
        po = self._check(g, marks, P6_PARAMS)
        # every edge oriented, away from vertex 0
        assert all(m != 0 for m in marks.values())
        assert degrees(po, 0, 0)[1] == 0

    def test_p7_five_cycle_m2_special_edges(self):
        # 5-cycle 0..4 with chord (0,2), extra midpoint 5, pendants at 0 and 2
        edges = [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (0, 2), (0, 5), (2, 5)]
        nxt = 6
        for corner, cnt in ((0, 4), (2, 3)):
            for _ in range(cnt):
                edges.append((corner, nxt))
                nxt += 1
        g = Graph.from_edges(nxt, edges)
        marks = orient_p7_free(g)
        # two special arcs: one toward each 2-edge midpoint, plus 7 pendants
        assert marks[(0, 1)] == FORWARD
        assert marks[(2, 5)] == FORWARD
        assert sum(1 for m in marks.values() if m != 0) == 9
        self._check(g, marks, P7_PARAMS)

    def test_p7_five_cycle_m3_double_source(self):
        # three extra midpoints besides b: full double-source orientation
        edges = [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]
        nxt = 5
        for _ in range(3):
            edges += [(0, nxt), (2, nxt)]
            nxt += 1
        g = Graph.from_edges(nxt, edges)
        marks = orient_p7_free(g)
        po = self._check(g, marks, P7_PARAMS)
        cls = classify_part(po, frozenset(range(g.n)), 0)
        # the in-degree-2 midpoints are the sinks; the two sources feed them,
        # and the sink class must be strictly larger than the feeder class
        assert cls.t_minus == frozenset({1, 5, 6, 7})
        assert cls.t_plus == frozenset({0, 2})
        assert len(cls.t_minus) > len(cls.t_plus)

    def test_p7_six_cycle_unoriented(self):
        g = Graph.from_edges(6, cycle_pairs := [(i, (i + 1) % 6) for i in range(6)])
        g = Graph.from_edges(6, cycle_pairs + [(0, 2), (1, 3), (2, 4), (1, 4)])
        assert orient_p7_free(g) == {}


def orientation_digest(max_vertices: int) -> tuple[int, str]:
    """Count and SHA-256 of canonical JSON [graph6, N, sorted marks] rows over
    every orientation of the connected P7-free graphs on <= max_vertices."""
    rows = []
    for line in connected_pn_free_graph6(7, max_vertices):
        g = graph6_decode(line)
        for N in (5, 6, 7):
            if is_pn_free(g, N):
                marks = ORIENTERS[f"p{N}"](g)
                rows.append([line, N, sorted([u, v, m] for (u, v), m in marks.items())])
    doc = json.dumps(rows, separators=(",", ":"))
    return len(rows), hashlib.sha256(doc.encode()).hexdigest()


class TestCaseTable:
    # Digests of the marks the constructors returned before they became one
    # case table (candidate lists tried in order); the table must keep them.
    def test_corpus_up_to_10_vertices_keeps_its_marks(self):
        assert orientation_digest(10) == (
            1835, "3f411db08e2e76647c8261942070069ec89944bb65faaf6247e53b180ef9f7f4")

    @pytest.mark.slow
    def test_corpus_up_to_12_vertices_keeps_its_marks(self):
        assert orientation_digest(12) == (
            4804, "90f980ad43fe6166d47807ecbadfcba75503e5f16a45c5b66df24244c9205f89")

    def test_no_passing_strategy_names_the_family_and_case(self, monkeypatch):
        calls = []

        def failing(*args):
            calls.append(args)
            return BoundVerdict(False, (Violation(1, 0, "forced"),))

        monkeypatch.setattr(orientation, "check_nst_bounded", failing)
        with pytest.raises(OrientationError, match=r"P6-free .* case '3-cycle'.*forced"):
            orient_p6_free(complete_graph(3))
        assert len(calls) == 2  # structure, then structure+hanging

    def test_strategies_after_the_winner_are_never_built(self, monkeypatch):
        def unreachable(g):
            raise AssertionError("built a strategy after the winner")

        monkeypatch.setattr(orientation, "_hanging_marks", unreachable)
        assert orient_p6_free(complete_graph(3)) == {}

    def test_debug_log_names_case_and_strategy(self, caplog):
        caplog.set_level(logging.DEBUG, logger="pathramsey.orientation")
        orient_p7_free(path_graph(5))
        orient_p5_free(complete_graph(4))
        assert caplog.messages == [
            "P7-free orientation: n=5, case 'tree', strategy 'tree from 0'",
            "P5-free orientation: n=4, case 'any', strategy 'leaves'",
        ]


class TestWitness:
    def test_parameters_and_size(self):
        po = build_witness(10)
        # thirteen vertices prove the lower bound for paths on ten vertices
        assert po.base.graph.n == 13
        assert witness_params(10) == BoundParams(13, 4, 9)
        with pytest.raises(GraphError):
            build_witness(3)

    @pytest.mark.parametrize("N", [4, 5, 6, 7, 8, 10])
    def test_no_monochromatic_path(self, N):
        po = build_witness(N)
        for c in (0, 1):
            assert find_path(color_subgraph(po.base, c), N) is None

    @pytest.mark.parametrize("N", [5, 6, 7, 8, 10])
    def test_parts_are_bounded(self, N):
        po = build_witness(N)
        params = witness_params(N)
        for c in (0, 1):
            sub = color_subgraph(po.base, c)
            for comp in connected_components(sub):
                if len(comp) > 1:
                    verdict = check_nst_bounded(po, comp, c, params)
                    assert verdict.passed, [v.message for v in verdict.violations]


class TestDegreeSumIdentity:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=2**28 - 1))
    def test_in_degrees_balance_out_degrees(self, mask):
        n = 8
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        g = Graph.from_edges(n, [p for i, p in enumerate(pairs) if mask >> i & 1])
        comps = connected_components(g)
        if len(comps) != 1:
            return
        for N, orienter in ((5, orient_p5_free), (6, orient_p6_free), (7, orient_p7_free)):
            if find_path(g, N) is not None:
                continue
            po = oriented_part(g, orienter(g))
            total_in = sum(degrees(po, v, 0)[1] for v in range(n))
            total_out = sum(degrees(po, v, 0)[2] for v in range(n))
            assert total_in == total_out
