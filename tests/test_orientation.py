"""Boundedness checker, part classification, and the orientation constructors."""

import hashlib
import json
import logging
from itertools import combinations

import networkx as nx
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pathramsey import orientation
from pathramsey.corpus import connected_pn_free_graph6
from pathramsey.detect import PendantKind, PendantStructure, find_path, is_pn_free
from pathramsey.graphs import (
    BACKWARD,
    FORWARD,
    UNORIENTED,
    ColoredGraph,
    Graph,
    GraphError,
    PartialOrientation,
    color_subgraph,
    complete_graph,
    connected_components,
    cycle_graph,
    degrees,
    edge_key,
    graph6_decode,
    monochromatic,
    path_graph,
    star_graph,
    with_marks,
)
from pathramsey.orientation import (
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
    orient,
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
        with pytest.raises(GraphError):
            classify_part(po, frozenset({0}), 0)  # connected, but the edge 0-1 leaves it

    def test_vertex_past_the_graph_is_input_error(self):
        # 8 comes first in the set, so the part's in-range vertices must be
        # numbered apart from it
        po = with_marks(ColoredGraph(Graph.from_edges(8, [(2, 3)]), 2, {(2, 3): 0}), {})
        with pytest.raises(GraphError, match=r"\[2, 3, 8\] is not a component of color 0"):
            classify_part(po, frozenset({2, 3, 8}), 0)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_raises_exactly_off_the_components(self, data):
        # a random two-colored, partly oriented graph on at most 8 vertices,
        # and a color and vertex set that may be out of range
        n = data.draw(st.integers(0, 8))
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        edges = [p for p in pairs if data.draw(st.booleans())]
        color = {e: data.draw(st.integers(0, 1)) for e in edges}
        marks = {e: data.draw(st.sampled_from((UNORIENTED, FORWARD, BACKWARD))) for e in edges}
        po = with_marks(ColoredGraph(Graph.from_edges(n, edges), 2, color), marks)
        c = data.draw(st.integers(-1, 2))
        if c in (0, 1) and n and data.draw(st.booleans()):
            # a component less some of its vertices, often none
            comp = data.draw(st.sampled_from(connected_components(color_subgraph(po.base, c))))
            part = comp - data.draw(st.frozensets(st.sampled_from(sorted(comp))))
        else:
            part = data.draw(st.frozensets(st.integers(-1, n + 1), max_size=n + 2))
        expected = f"{sorted(part)} is not a component of color {c}"
        try:
            if part in connected_components(color_subgraph(po.base, c)):
                expected = None
        except GraphError as exc:
            expected = str(exc)
        if expected is None:
            assert classify_part(po, part, c).part == part
        else:
            with pytest.raises(GraphError) as exc:
                classify_part(po, part, c)
            assert str(exc.value) == expected


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

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**21 - 1), st.integers(0, 2**21 - 1), st.integers(0, 3**21 - 1),
           st.integers(1, 3), st.integers(1, 6), st.integers(0, 2))
    @example(2**21 - 1, 0, 0, 1, 6, 0)  # an unoriented K7 at n = 7: condition (4) holds
    def test_degrees_match_the_per_vertex_scan(self, mask, colors, arcs, s, t, slack):
        # conditions (1), (2) and (4) and the residual set X as the per-vertex
        # `degrees` scan gives them, on every part of a random two-colored,
        # partly oriented graph; n is the least that (n, s, t) allows, plus slack
        pairs = [(i, j) for i in range(7) for j in range(i + 1, 7)]
        edges = [p for i, p in enumerate(pairs) if mask >> i & 1]
        color = {e: colors >> i & 1 for i, e in enumerate(edges)}
        marks = {e: (UNORIENTED, FORWARD, BACKWARD)[arcs // 3**i % 3] for i, e in enumerate(edges)}
        po = with_marks(ColoredGraph(Graph.from_edges(7, edges), 2, color), marks)
        for c in (0, 1):
            for part in connected_components(color_subgraph(po.base, c)):
                expected = []
                for v in sorted(part):
                    d, din, dout = degrees(po, v, c)
                    if din > 0 and d + din + min(1, dout) > s:
                        expected.append((1, v))
                    if d + min(1, din + dout) > t - 1:
                        expected.append((2, v))
                verdict = check_st_bounded(po, part, c, s, t)
                assert [(v.condition, v.vertex) for v in verdict.violations
                        if v.condition != 3] == expected
                params = BoundParams(max(s + t, 2 * s + 3) + slack, s, t)
                arcless = all(degrees(po, v, c)[1] == 0 for v in part)
                verdict = check_nst_bounded(po, part, c, params)
                assert ([v.condition for v in verdict.violations if v.condition == 4]
                        == ([4] if len(part) > params.n and arcless else []))
                cls = classify_part(po, part, c)
                touched = {v for v in part if degrees(po, v, c)[1:] != (0, 0)}
                assert cls.x_set == touched - cls.t_minus - cls.t_plus

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_vertex_classes_match_the_arc_digraph(self, data):
        # a directed cycle in color 0, two arcs into each of a few drawn
        # vertices, then random colored and marked edges; T-, T+ and X of
        # every part against networkx reachability on the part's arcs
        n = data.draw(st.integers(4, 9))
        order = data.draw(st.permutations(range(n)))
        cycle = order[:data.draw(st.integers(3, n))]
        arcs = {}  # edge -> (tail, head); an edge keeps its first arc
        for tail, head in zip(cycle, cycle[1:] + cycle[:1]):
            arcs[edge_key(tail, head)] = (tail, head, 0)
        for head in data.draw(st.lists(st.sampled_from(range(n)), min_size=2, max_size=4, unique=True)):
            others = [v for v in range(n) if v != head]
            for tail in data.draw(st.lists(st.sampled_from(others), min_size=2, max_size=2, unique=True)):
                arcs.setdefault(edge_key(tail, head), (tail, head, data.draw(st.integers(0, 1))))
        color = {e: c for e, (_, _, c) in arcs.items()}
        marks = {e: FORWARD if tail < head else BACKWARD for e, (tail, head, _) in arcs.items()}
        for e in combinations(range(n), 2):
            if e not in color and data.draw(st.booleans()):
                color[e] = data.draw(st.integers(0, 1))
                marks[e] = data.draw(st.sampled_from((UNORIENTED, FORWARD, BACKWARD)))
        po = with_marks(ColoredGraph(Graph.from_edges(n, color), 2, color), marks)
        for c in (0, 1):
            for part in connected_components(color_subgraph(po.base, c)):
                digraph = nx.DiGraph()
                digraph.add_nodes_from(part)
                digraph.add_edges_from((po.tail(e), po.head(e)) for e, col in color.items()
                                       if col == c and e[0] in part and marks[e] != UNORIENTED)
                # the heads of the directed paths of one or more arcs out of each vertex
                reach = {v: set().union(*({w} | nx.descendants(digraph, w) for w in digraph.successors(v)))
                         for v in part}
                heavy = {v for v in part if digraph.in_degree(v) >= 2}
                t_minus = {v for v in heavy if not reach[v] & heavy}
                t_plus = {v for v in part if reach[v] & t_minus}
                x_set = {v for v in part if digraph.degree(v)} - t_minus - t_plus
                cls = classify_part(po, part, c)
                assert (cls.t_minus, cls.t_plus, cls.x_set) == (t_minus, t_plus, x_set)

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
                marks = orient(g, N).marks
                rows.append([line, N, sorted([u, v, m] for (u, v), m in marks.items())])
    doc = json.dumps(rows, separators=(",", ":"))
    return len(rows), hashlib.sha256(doc.encode()).hexdigest()


class TestCaseTable:
    # Digests of the marks the constructors returned before they became one
    # case table (candidate lists tried in order); the table must keep them.
    # Re-frozen when the corpus's orderly rule became (f, h), which keeps
    # other labelled representatives of the same graphs.
    def test_corpus_up_to_10_vertices_keeps_its_marks(self):
        assert orientation_digest(10) == (
            1835, "61eb48f30e934affa823d9cb052d0253cbee8d4b4d5989c21fc8fdddb2b7a160")

    @pytest.mark.slow
    def test_corpus_up_to_12_vertices_keeps_its_marks(self):
        assert orientation_digest(12) == (
            4804, "e734b0de25839f365d4aaf588c7069eeb0fe08b518b699cf7f838e79e8489b36")

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
