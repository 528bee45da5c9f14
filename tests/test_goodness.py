"""Exhaustive Ramsey searches, closed forms, and extremal arithmetic."""

import hashlib
import json
import time
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction
from itertools import combinations, permutations, product

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import StoppedClock, TickingClock, has_path

from pathramsey import goodness
from pathramsey.corpus import _forms, _rows, _shape, _with_last, augment
from pathramsey.detect import contains_subgraph, find_path
from pathramsey.goodness import (
    CHECK_INTERVAL,
    BrooksBranch,
    Budget,
    GoodnessVerdict,
    RamseyOutcome,
    all_colorings_hit,
    brooks_star_check,
    chromatic_number,
    erdos_gallai_path_bound,
    exact_turan_path,
    is_k_colorable,
    star_ramsey,
    turan_threshold,
    verify_goodness,
    verify_ramsey_value,
)
from pathramsey.graphs import (
    ColoredGraph,
    Graph,
    GraphError,
    color_subgraph,
    complete_graph,
    cycle_graph,
    monochromatic,
    path_graph,
    star_graph,
)


def brute_all_hit(host: Graph, targets) -> bool:
    """Oracle: enumerate every coloring explicitly."""
    edges = host.sorted_edges()
    for colors in product(range(len(targets)), repeat=len(edges)):
        hit = False
        for c, t in enumerate(targets):
            cls = Graph(host.n, frozenset(e for e, col in zip(edges, colors) if col == c))
            if contains_subgraph(cls, t):
                hit = True
                break
        if not hit:
            return False
    return True


class TestContainsSubgraph:
    def test_paths_and_stars(self):
        assert contains_subgraph(cycle_graph(5), path_graph(5))
        assert not contains_subgraph(cycle_graph(5), path_graph(6))
        assert contains_subgraph(star_graph(5), star_graph(4))
        assert not contains_subgraph(path_graph(5), star_graph(4))

    def test_generic_target(self):
        assert contains_subgraph(complete_graph(5), cycle_graph(4))
        assert not contains_subgraph(star_graph(6), cycle_graph(3))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**10 - 1), st.integers(0, 2**3 - 1))
    def test_matches_brute_placement(self, gmask, hmask):
        gpairs = list(combinations(range(5), 2))
        hpairs = list(combinations(range(3), 2))
        g = Graph.from_edges(5, [p for i, p in enumerate(gpairs) if gmask >> i & 1])
        h = Graph.from_edges(3, [p for i, p in enumerate(hpairs) if hmask >> i & 1])
        # oracle: try all injections of h into g
        from itertools import permutations

        expected = any(
            all(g.has_edge(m[a], m[b]) for a, b in h.edges)
            for perm in permutations(range(5), 3)
            for m in [dict(enumerate(perm))]
        )
        assert contains_subgraph(g, h) == expected


class TestRamseyValues:
    def test_r2_p4_is_5(self):
        report = verify_ramsey_value(5, [path_graph(4)] * 2)
        assert report.outcome is RamseyOutcome.IS_RAMSEY
        assert report.elapsed < 10

    def test_r2_p5_is_6(self):
        report = verify_ramsey_value(6, [path_graph(5)] * 2)
        assert report.outcome is RamseyOutcome.IS_RAMSEY

    def test_r3_p4_is_6(self):
        report = verify_ramsey_value(6, [path_graph(4)] * 3)
        assert report.outcome is RamseyOutcome.IS_RAMSEY

    def test_too_small_reports_a_real_avoider(self):
        report = verify_ramsey_value(5, [path_graph(5)] * 2)
        assert report.outcome is RamseyOutcome.TOO_SMALL
        witness = report.witness
        assert witness is not None
        for c in (0, 1):
            cls = Graph(
                witness.graph.n,
                frozenset(e for e, col in witness.color.items() if col == c),
            )
            assert not contains_subgraph(cls, path_graph(5))

    def test_not_tight_above_the_true_value(self):
        report = verify_ramsey_value(7, [path_graph(5)] * 2)
        assert report.outcome is RamseyOutcome.NOT_TIGHT

    def test_budget_yields_indeterminate(self):
        # the augmentation needs 1,724 states
        report = verify_ramsey_value(9, [path_graph(7)] * 2, Budget(max_nodes=1000))
        assert report.outcome is RamseyOutcome.INDETERMINATE

    def test_small_hosts_match_oracle(self):
        for n in (3, 4, 5):
            for targets in ([path_graph(3)] * 2, [path_graph(4)] * 2):
                verdict, witness, _ = all_colorings_hit(complete_graph(n), targets)
                assert verdict == brute_all_hit(complete_graph(n), targets)

    def test_parallel_matches_serial(self):
        host = complete_graph(6)
        targets = [path_graph(5)] * 2
        v1, w1, _ = all_colorings_hit(host, targets, workers=1)
        v2, w2, _ = all_colorings_hit(host, targets, workers=3)
        assert v1 == v2 and w1 == w2

    def test_parallel_split_matches_serial_witness(self):
        host = complete_graph(8)
        targets = [path_graph(7)] * 2
        v1, w1, n1 = all_colorings_hit(host, targets, workers=1)
        v2, w2, n2 = all_colorings_hit(host, targets, workers=2)
        assert (v1, n1) == (False, 20)
        # 11 states list the eight colorings of the first three vertices; their
        # tasks visit 17, 17, 307, 17, 17, 331, 229 and 308 states when each
        # runs to its end, 1,254 in all, and stop once the first one's avoider is in
        assert v2 is False and w2 == w1
        assert n2 < 1254

    @pytest.mark.parametrize("workers", [2, 4])
    def test_parallel_node_budget_is_global(self, workers):
        # with a budget per task two workers visited 58,636 states; four
        # workers on a two-core host also load the shared counter's lock
        verdict, witness, states = all_colorings_hit(
            complete_graph(9), [path_graph(7)] * 2, Budget(max_nodes=20_000), workers=workers)
        assert verdict is None and witness is None
        assert 20_000 < states <= 20_000 + workers * CHECK_INTERVAL

    def test_pool_is_no_larger_than_the_task_list(self, monkeypatch):
        sizes = []

        class Recording(ProcessPoolExecutor):
            def __init__(self, max_workers=None, **kwargs):
                sizes.append(max_workers)
                super().__init__(max_workers, **kwargs)

        monkeypatch.setattr(goodness, "ProcessPoolExecutor", Recording)
        # one target that K5 avoids: every edge has the one color, so the
        # prefixes are listed down to the one full coloring, one task
        assert all_colorings_hit(complete_graph(5), [path_graph(6)], workers=3)[0] is False
        # two targets on K6: 64 prefix tasks, the colorings of the first four vertices
        assert all_colorings_hit(complete_graph(6), [path_graph(5)] * 2, workers=3)[0] is True
        assert sizes == [1, 3]

    @pytest.mark.parametrize("workers", [0, -5])
    def test_nonpositive_worker_count_is_rejected(self, workers):
        with pytest.raises(GraphError, match="worker count"):
            all_colorings_hit(complete_graph(5), [path_graph(4)] * 2, workers=workers)
        with pytest.raises(GraphError, match="worker count"):
            verify_goodness(complete_graph(5), [path_graph(4)] * 2, workers=workers)
        for targets in ([path_graph(4)] * 2, [star_graph(3)] * 2):
            with pytest.raises(GraphError, match="worker count"):
                verify_ramsey_value(5, targets, workers=workers)

    def test_parallel_time_budget_is_global(self):
        # K10 keeps its prefix tasks busy past the budget, so with a budget
        # per task two workers took two budgets.  Slack: one check interval
        # (4,096 states, about 0.1 s on a 2-core host) plus pool start and stop.
        start = time.monotonic()
        verdict, _, _ = all_colorings_hit(
            complete_graph(10), [path_graph(7)] * 2, Budget(max_seconds=1.0), workers=2)
        elapsed = time.monotonic() - start
        assert verdict is None
        assert elapsed < 1.0 + 0.5

    def test_goodness_certificates(self):
        cert = verify_goodness(complete_graph(6), [path_graph(5)] * 2)
        assert cert.verdict is GoodnessVerdict.ALL_COLORINGS_HIT
        cert = verify_goodness(complete_graph(4), [path_graph(5)] * 2)
        assert cert.verdict is GoodnessVerdict.COUNTEREXAMPLE_COLORING
        assert cert.witness is not None

    def test_edgeless_target_is_hit_at_once(self):
        # every coloring of a host on >= 1 vertex contains P1, edges or not
        assert all_colorings_hit(complete_graph(4), [path_graph(1), path_graph(5)]) == (
            True, None, 0)
        assert verify_ramsey_value(1, [path_graph(1)] * 2).outcome is RamseyOutcome.IS_RAMSEY
        assert verify_ramsey_value(2, [path_graph(1)] * 2).outcome is RamseyOutcome.NOT_TIGHT

    def test_probe_and_augmentation_share_one_budget(self):
        # R(K3, K3) = 6: the probe stops at its 36 states on K6, and 63
        # augmentation states list the colorings up to K6
        targets = [complete_graph(3)] * 2
        report = verify_ramsey_value(6, targets)
        assert (report.outcome, report.colorings_checked) == (RamseyOutcome.IS_RAMSEY, 100)
        # the budget runs out at the probe's end, at the first augmentation state, at its last
        for max_nodes in (36, 37, 99):
            report = verify_ramsey_value(6, targets, Budget(max_nodes=max_nodes))
            assert report.outcome is RamseyOutcome.INDETERMINATE and report.witness is None
            assert report.colorings_checked == max_nodes + 1

    def test_probe_and_augmentation_share_one_deadline(self, monkeypatch):
        # the clock reads 1 at the start and 2 when the deadline (2 + 80) is
        # set.  The probe's states 1..36 read 3..38 and it stops at its N^2
        # states, the check before the augmentation reads 39, and each
        # augmentation state reads it once, at its tick, so the 44th, state
        # 81, reads 83, past the deadline
        monkeypatch.setattr(goodness, "CHECK_INTERVAL", 1)
        monkeypatch.setattr(goodness, "time", TickingClock())
        report = verify_ramsey_value(6, [complete_graph(3)] * 2, Budget(max_seconds=80))
        assert report.outcome is RamseyOutcome.INDETERMINATE
        assert report.colorings_checked == 81


def join(g: Graph, h: Graph) -> Graph:
    """g and h side by side, with every vertex of g joined to every vertex of h."""
    return Graph.from_edges(g.n + h.n, [*g.edges, *((u + g.n, v + g.n) for u, v in h.edges),
                                        *((u, g.n + v) for u in range(g.n) for v in range(h.n))])


C5_JOIN_C5 = join(cycle_graph(5), cycle_graph(5))  # chromatic number 6 = R(P4, P4, P4)

SMALL_TARGETS = [path_graph(n) for n in range(2, 6)] + [star_graph(3), star_graph(4), complete_graph(3)]


class TestColoringSearch:
    """The vertex-at-a-time coloring search on hosts that are not complete."""

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_matches_brute_force(self, data):
        targets = data.draw(st.lists(st.sampled_from(SMALL_TARGETS), min_size=2, max_size=3))
        n = data.draw(st.integers(1, 6))
        pairs = list(combinations(range(n), 2))
        # at most 2^10 or 3^7 colorings for the oracle to list
        cap = 10 if len(targets) == 2 else 7
        edges = data.draw(st.lists(st.sampled_from(pairs), max_size=cap, unique=True)) if pairs else []
        host = Graph.from_edges(n, edges)
        verdict, witness, _ = all_colorings_hit(host, targets)
        assert verdict == brute_all_hit(host, targets)
        if verdict:
            assert witness is None
        else:
            assert witness.graph == host and witness.k == len(targets)
            for c, t in enumerate(targets):
                assert not contains_subgraph(color_subgraph(witness, c), t)

    def test_c5_join_c5_is_3_good_for_p4(self):
        # the edge-by-edge search took 1,372,350 states here.  Two workers
        # visit the same states between them, as no task finds an avoider
        for workers in (1, 2):
            assert all_colorings_hit(C5_JOIN_C5, [path_graph(4)] * 3, workers=workers) == (
                True, None, 13_211)


def gerencser_gyarfas(a: int, b: int) -> int:
    """R(P_a, P_b) for a >= b >= 1 (a single vertex is a P1 in either color)."""
    return a + b // 2 - 1 if b >= 2 else 1


def color_class(witness: ColoredGraph, c: int) -> Graph:
    return Graph(witness.graph.n, frozenset(e for e, col in witness.color.items() if col == c))


def avoids_targets(witness: ColoredGraph, orders) -> bool:
    """Oracle: no color class of the witness holds a path of its target's order."""
    return all(find_path(color_class(witness, c), o) is None for c, o in enumerate(orders))


def avoids(witness: ColoredGraph, targets) -> bool:
    """Oracle: no color class of the witness contains its target."""
    return not any(contains_subgraph(color_class(witness, c), t) for c, t in enumerate(targets))


SHAPES = {"P": path_graph, "S": star_graph, "K": complete_graph}


def targets_of(spec: str) -> list[Graph]:
    """Targets written as in the CLI: "P4,S4,K3"."""
    return [SHAPES[t[0]](int(t[1:])) for t in spec.split(",")]


def dfs_outcome(upper_hit: bool, lower_hit: bool) -> RamseyOutcome:
    if not upper_hit:
        return RamseyOutcome.TOO_SMALL
    return RamseyOutcome.NOT_TIGHT if lower_hit else RamseyOutcome.IS_RAMSEY


def same_report(r1, r2) -> bool:
    return (r1.outcome, r1.witness, r1.colorings_checked, r1.critical_colorings) == (
        r2.outcome, r2.witness, r2.colorings_checked, r2.critical_colorings)


PATH_PAIRS = [(a, b) for a in range(1, 8) for b in range(1, a + 1)]


# the states of `verify_ramsey_value(N, [P_a, P_b])`, by (N, (a, b))
STATES = {(9, (7, 7)): 1223, (8, (7, 5)): 754, (11, (8, 8)): 7236}


class TestRamseyByAugmentation:
    """Two path targets are decided by vertex augmentation; the DFS is the oracle."""

    @pytest.mark.parametrize("a, b", PATH_PAIRS, ids=[f"P{a},P{b}" for a, b in PATH_PAIRS])
    def test_matches_the_dfs_and_gerencser_gyarfas(self, a, b):
        gg = gerencser_gyarfas(a, b)
        hosts = range(max(gg - 2, 0), gg + 2)
        # all_colorings_hit on K_n for n <= gg; every coloring of K_{gg+1}
        # restricts to one of K_gg, so it hits as soon as K_gg does
        hit = {n: all_colorings_hit(complete_graph(n), [path_graph(a), path_graph(b)])[0]
               for n in hosts if n <= gg}
        assert (hit.get(gg - 1, False), hit[gg]) == (False, True)
        hit[gg + 1] = True
        for N in (n for n in (gg - 1, gg, gg + 1) if n >= 1):
            expected = dfs_outcome(hit[N], hit.get(N - 1, False))
            for orders in ((a, b), (b, a)):
                report = verify_ramsey_value(N, [path_graph(o) for o in orders])
                assert report.outcome is expected, (N, orders)
                if expected is RamseyOutcome.NOT_TIGHT:
                    assert report.witness is None and report.critical_colorings == 0
                    continue
                n = N if expected is RamseyOutcome.TOO_SMALL else N - 1
                assert report.witness.graph == complete_graph(n)
                assert avoids_targets(report.witness, orders)
                if expected is RamseyOutcome.IS_RAMSEY:
                    assert report.critical_colorings >= 1

    @pytest.mark.parametrize("N, orders, critical", [
        (9, (7, 7), 8), (8, (7, 5), 2), (8, (5, 7), 2), (11, (8, 8), 8)])
    def test_critical_colorings(self, N, orders, critical):
        report = verify_ramsey_value(N, [path_graph(o) for o in orders])
        assert report.outcome is RamseyOutcome.IS_RAMSEY
        assert report.critical_colorings == critical

    @pytest.mark.parametrize("N, orders", STATES, ids=[f"{N}-P{a},P{b}" for N, (a, b) in STATES])
    def test_states_are_pinned(self, N, orders):
        # one state per rejected neighbor set, candidate child or stuck
        # parent, and the DFS probe's N^2 + 1 before them
        report = verify_ramsey_value(N, [path_graph(o) for o in orders])
        assert report.colorings_checked == STATES[N, orders]

    @pytest.mark.parametrize("a, b", [(a, b) for a, b in PATH_PAIRS if b >= 2
                                      and gerencser_gyarfas(a, b) <= 8])
    def test_critical_colorings_match_the_graph_atlas(self, a, b):
        # a 2-coloring of K_n avoiding (P_a, P_b) up to isomorphism is a graph
        # with no P_a whose complement has no P_b
        N = gerencser_gyarfas(a, b)
        expected = sum(
            1 for g in nx.graph_atlas_g() if g.number_of_nodes() == N - 1
            and not has_path(g, a) and not has_path(nx.complement(g), b))
        report = verify_ramsey_value(N, [path_graph(a), path_graph(b)])
        assert report.critical_colorings == expected

    def test_too_small_from_the_levels(self):
        # the DFS finds no avoider of K8 for (P7, P6) within 64 states, so the
        # verdict comes from the first coloring of level 8
        report = verify_ramsey_value(8, [path_graph(7), path_graph(6)])
        assert report.outcome is RamseyOutcome.TOO_SMALL
        assert report.colorings_checked > 64 + 1
        assert report.critical_colorings == sum(
            1 for g in nx.graph_atlas_g() if g.number_of_nodes() == 7
            and not has_path(g, 7) and not has_path(nx.complement(g), 6))
        assert report.witness.graph == complete_graph(8)
        assert avoids_targets(report.witness, (7, 6))

    def test_too_small_from_the_dfs_below_the_levels_reach(self):
        # every avoiding coloring of K_9 would have to be listed first
        report = verify_ramsey_value(10, [path_graph(9)] * 2, Budget(max_seconds=60))
        assert report.outcome is RamseyOutcome.TOO_SMALL
        assert report.critical_colorings is None and report.colorings_checked <= 100
        assert avoids_targets(report.witness, (9, 9))

    def test_workers_do_not_change_the_report(self):
        serial = verify_ramsey_value(8, [path_graph(6)] * 2)
        assert same_report(serial, verify_ramsey_value(8, [path_graph(6)] * 2, workers=2))

    @pytest.mark.parametrize("max_nodes", [50, 1000])
    def test_node_budget_is_exact(self, max_nodes):
        # 50 runs out inside the DFS's 81 states, 1000 inside the augmentation
        report = verify_ramsey_value(9, [path_graph(7)] * 2, Budget(max_nodes=max_nodes))
        assert report.outcome is RamseyOutcome.INDETERMINATE
        assert report.witness is None and report.critical_colorings is None
        assert report.colorings_checked == max_nodes + 1

    def test_time_budget_is_checked_at_every_candidate(self, monkeypatch):
        # clock readings: the start, the deadline, one per probe state (the
        # 82nd is over the probe's node budget before it reads), the check
        # before the augmentation, then one per candidate; reading 101 is past
        # the deadline
        monkeypatch.setattr(goodness, "time", StoppedClock(100))
        report = verify_ramsey_value(9, [path_graph(7)] * 2, Budget(max_seconds=1.0))
        assert report.outcome is RamseyOutcome.INDETERMINATE
        assert report.colorings_checked == 9 * 9 + 1 + 17

    def test_time_budget_stops_the_probe(self, monkeypatch):
        # clock readings: the start, the deadline, then one per probe state;
        # reading 11, the 9th state's, is past the deadline, and the check
        # before the augmentation ends the run with fewer than N^2 states
        monkeypatch.setattr(goodness, "time", StoppedClock(10))
        report = verify_ramsey_value(9, [path_graph(7)] * 2, Budget(max_seconds=1.0))
        assert report.outcome is RamseyOutcome.INDETERMINATE
        assert report.colorings_checked == 9 < 9 * 9

    @pytest.mark.slow
    def test_r2_p9_is_12(self):
        report = verify_ramsey_value(12, [path_graph(9)] * 2)
        assert report.outcome is RamseyOutcome.IS_RAMSEY
        assert avoids_targets(report.witness, (9, 9))
        # the states, and the critical colorings up to isomorphism
        assert (report.colorings_checked, report.critical_colorings) == (68_428, 16)


def holds(adj: dict, spec) -> bool:
    """Oracle: does a class, as neighbor sets, hold its spec's target, a
    path on `spec` vertices or the graph `spec`?"""
    if isinstance(spec, Graph):
        edges = [(u, v) for u in adj for v in adj[u] if u < v]
        return contains_subgraph(Graph.from_edges(len(adj), edges), spec)
    return has_path(adj, spec)


def brute_avoiding_colorings(n: int, orders, recolor: bool = False) -> int:
    """Oracle: the k-colorings of K_n in which no color c holds the target of
    orders[c] (a path order or a graph), up to isomorphism: every labelled
    coloring is tested, and the avoiding ones are told apart by their least
    relabeling.  With `recolor`, up to isomorphism and the color permutations
    that keep the orders."""
    k = len(orders)
    pairs = list(combinations(range(n), 2))
    index = {p: i for i, p in enumerate(pairs)}
    relabelings = [[index[tuple(sorted((p[u], p[v])))] for u, v in pairs]
                   for p in permutations(range(n))]
    recolorings = [p for p in permutations(range(k))
                   if recolor and all(orders[p[c]] == orders[c] for c in range(k))] or [range(k)]
    forms = set()
    for colors in product(range(k), repeat=len(pairs)):
        classes = [{v: set() for v in range(n)} for _ in orders]
        for (u, v), c in zip(pairs, colors):
            classes[c][u].add(v)
            classes[c][v].add(u)
        if not any(holds(g, o) for g, o in zip(classes, orders)):
            forms.add(min(tuple(p[colors[i]] for i in r) for r in relabelings for p in recolorings))
    return len(forms)


PATH_TRIPLES = [(a, b, c) for a in range(1, 5) for b in range(1, a + 1) for c in range(1, b + 1)]
K3 = complete_graph(3)
# with stars and triangles; each coloring search up to K_R takes at most about a second
TRIPLES = ["P%d,P%d,P%d" % t for t in PATH_TRIPLES] + [
    "S4,P3,P3", "K3,P3,P3", "S4,K3,P2", "K3,K3,P2", "S4,S4,P3", "P4,P4,S4"]

# SHA-256 of every level's kept colorings and class count, frozen before
# `augment` dropped the children that a swap of two twins proves isomorphic;
# the (5,5,5) and (4,4,4,4) levels keep other representatives of the same
# orbits since the orderly rule chooses the new vertex by (f, h)
AUGMENT_DIGESTS = {
    ((5, 5, 5), 8): "86acdbb355c3cd39f425e90e9a06e308da2a6a7d0ad30bc01271481629c25375",
    ((7, 5), 7): "a780924c9c8f77885e8f8d96c5c19176e87d8c0c77c8b00483e7e4b97dd9c2bb",
    ((6, 6), 9): "e9d38e987a5a64b2cc1058bd7582d0ca27fd964b65b73a4a4c03a04c64c9c3fb",
    ((4, 4, 4, 4), 7): "b198923e59c4f97637aea815475cdd3162c6aabccb3af3d5367f3fb16a0d1077",
}


class TestThreeColorAugmentation:
    """Three targets are decided by vertex augmentation too."""

    @pytest.mark.parametrize("orders, n, count", [
        ((4, 4, 4), 5, 12), ((4, 4, 4), 4, 24), ((3, 3, 3), 4, 1), ((5, 4, 3), 5, 5),
        ((4, 3, 3), 5, 0), ((K3, K3), 5, 1), ((K3, star_graph(4)), 5, 2), ((K3, K3, 4), 4, 31)])
    def test_level_counts_match_brute_force(self, orders, n, count):
        assert brute_avoiding_colorings(n, orders) == count
        assert list(augment(orders, n))[-1].classes == count

    @pytest.mark.parametrize("orders, n", [
        ((4, 4, 4), 4), ((4, 4, 4), 5), ((5, 4, 4), 5), ((4, 4), 5), ((K3, K3), 5), ((K3, K3, 4), 4)])
    def test_one_coloring_per_orbit(self, orders, n):
        # the kept colorings: one per orbit of relabelings and the color
        # permutations that keep the specs
        assert len(list(augment(orders, n))[-1].colorings) == brute_avoiding_colorings(
            n, orders, recolor=True)

    @pytest.mark.parametrize("orders, n", [((4, 4), 4), ((4, 4), 5), ((4, 4, 4), 5), ((5, 5, 3), 4)])
    def test_forms_that_tie_on_shape(self, orders, n):
        # some kept coloring has two color-permuted forms of the least shape,
        # which the catalog tells apart by refinement; with three equal
        # targets, some coloring of K_n also has forms of two or more other
        # shapes, which one throwaway catalog counts together
        symmetries = [p for p in permutations(range(len(orders)))
                      if all(orders[p[c]] == orders[c] for c in range(len(orders)))][1:]
        levels = list(augment(orders, n))
        tied = spread = 0
        for m, level in enumerate(levels, start=1):
            assert level.classes == brute_avoiding_colorings(m, orders)
            assert len(level.colorings) == brute_avoiding_colorings(m, orders, recolor=True)
            for coloring in level.colorings:
                rows = _rows(_with_last(coloring))
                shapes = sorted(_shape(form_rows) for _, form_rows in _forms(coloring, symmetries, rows))
                tied += shapes[0] == shapes[1]
                spread += m == n and len(set(shapes) - {shapes[0]}) >= 2
        assert tied
        assert spread or orders != (4, 4, 4)

    @pytest.mark.parametrize("orders, N, classes", [
        ((8, 8), 11, [1, 2, 4, 11, 34, 156, 1044, 238, 44, 8, 0]),
        ((5, 5, 5), 9, [1, 3, 10, 66, 279, 209, 27, 27, 0])])
    def test_level_classes_are_pinned(self, orders, N, classes):
        # the colorings up to isomorphism alone, as the catalog counts them
        assert [level.classes for level in augment(orders, N)] == classes

    @pytest.mark.parametrize("orders, N", AUGMENT_DIGESTS)
    def test_levels_are_pinned(self, orders, N):
        # the representatives each level keeps, not only how many
        levels = [[level.colorings, level.classes] for level in augment(orders, N)]
        doc = json.dumps(levels, separators=(",", ":"))
        assert hashlib.sha256(doc.encode()).hexdigest() == AUGMENT_DIGESTS[orders, N]

    @pytest.mark.parametrize("spec", TRIPLES)
    def test_matches_the_dfs(self, spec):
        targets = targets_of(spec)
        hit = {0: False}
        while not hit[len(hit) - 1]:
            n = len(hit)
            hit[n] = all_colorings_hit(complete_graph(n), targets)[0]
        R = len(hit) - 1
        hit[R + 1] = True  # every coloring of K_{R+1} restricts to one of K_R
        for N in (n for n in (R - 1, R, R + 1) if n >= 1):
            expected = dfs_outcome(hit[N], hit[N - 1])
            for order in dict.fromkeys(permutations(targets)):
                report = verify_ramsey_value(N, list(order))
                assert report.outcome is expected, (N, order)
                if expected is RamseyOutcome.NOT_TIGHT:
                    assert report.witness is None and report.critical_colorings == 0
                    continue
                n = N if expected is RamseyOutcome.TOO_SMALL else N - 1
                assert report.witness.graph == complete_graph(n)
                assert avoids(report.witness, order)

    def test_r3_p5_is_9(self):
        report = verify_ramsey_value(9, [path_graph(5)] * 3)
        assert report.outcome is RamseyOutcome.IS_RAMSEY
        assert report.critical_colorings == 27
        # the DFS probe's 82 states, then 6,099 augmentation states
        assert report.colorings_checked == 6_181
        assert report.witness.graph == complete_graph(8)
        assert avoids_targets(report.witness, (5, 5, 5))

    def test_node_budget_is_exact(self):
        report = verify_ramsey_value(9, [path_graph(5)] * 3, Budget(max_nodes=4_000))
        assert report.outcome is RamseyOutcome.INDETERMINATE
        assert report.colorings_checked == 4_001

    def test_r3_p6_is_10(self):
        # Gyarfas-Ruszinko-Sarkozy-Szemeredi: R(P_n, P_n, P_n) = 2n - 2 for large even n
        report = verify_ramsey_value(10, [path_graph(6)] * 3)
        assert report.outcome is RamseyOutcome.IS_RAMSEY
        assert report.critical_colorings == 708
        assert report.witness.graph == complete_graph(9)
        assert avoids_targets(report.witness, (6, 6, 6))


class TestAnyTargets:
    """Targets other than paths go through the same augmentation; closed
    forms and known values are the oracles."""

    @pytest.mark.parametrize("m, tree", [(3, f"{s}{n}") for s in "PS" for n in range(2, 7)]
                             + [(4, "P4"), (4, "S4")])
    def test_clique_versus_tree_is_chvatal(self, m, tree):
        # Chvatal (1977): R(K_m, T) = (m-1)(n-1)+1 for every tree T on n vertices
        targets = [complete_graph(m), *targets_of(tree)]
        N = (m - 1) * (targets[1].n - 1) + 1
        report = verify_ramsey_value(N, targets)
        assert report.outcome is RamseyOutcome.IS_RAMSEY
        assert report.witness.graph == complete_graph(N - 1) and avoids(report.witness, targets)

    @pytest.mark.parametrize("N, spec, critical", [(6, "K3,K3", 1), (9, "K3,K4", 3)])
    def test_clique_pairs(self, N, spec, critical):
        # the critical colorings of R(K3, K4) = 9: McKay and Radziszowski count 3
        report = verify_ramsey_value(N, targets_of(spec))
        assert report.outcome is RamseyOutcome.IS_RAMSEY
        assert report.critical_colorings == critical
        assert avoids(report.witness, targets_of(spec))

    @pytest.mark.parametrize("n, k", [(n, 2) for n in range(2, 6)] + [(n, 3) for n in range(2, 5)])
    def test_stars_match_the_closed_form(self, n, k):
        N = star_ramsey(n, k)
        report = verify_ramsey_value(N, [star_graph(n)] * k)
        assert report.outcome is RamseyOutcome.IS_RAMSEY
        assert avoids(report.witness, [star_graph(n)] * k)

    @pytest.mark.parametrize("h", [path_graph(5), star_graph(4), complete_graph(3), Graph(3, frozenset())],
                             ids=["P5", "S4", "K3", "E3"])
    def test_one_target(self, h):
        # R(H) = |V(H)|: one color is K_n, which holds H exactly when n >= |V(H)|;
        # the witness is that 1-coloring
        for N, outcome, n in ((h.n - 1, RamseyOutcome.TOO_SMALL, h.n - 1),
                              (h.n, RamseyOutcome.IS_RAMSEY, h.n - 1),
                              (h.n + 1, RamseyOutcome.NOT_TIGHT, None)):
            report = verify_ramsey_value(N, [h])
            assert report.outcome is outcome
            assert report.witness == (None if n is None else monochromatic(complete_graph(n)))

    def test_too_small_witness_avoids_both_targets(self):
        targets = [complete_graph(3), star_graph(5)]
        report = verify_ramsey_value(8, targets)
        assert report.outcome is RamseyOutcome.TOO_SMALL
        assert report.witness.graph == complete_graph(8) and avoids(report.witness, targets)

    @pytest.mark.slow
    def test_r_k3_k5_is_14(self):
        targets = [complete_graph(3), complete_graph(5)]
        report = verify_ramsey_value(14, targets)
        assert report.outcome is RamseyOutcome.IS_RAMSEY
        assert report.critical_colorings == 1
        assert avoids(report.witness, targets)


class TestExtremal:
    def test_certified_bound(self):
        assert erdos_gallai_path_bound(6, 4) == 6
        assert erdos_gallai_path_bound(5, 4) == 5

    def test_exact_values_by_brute_force(self):
        # two disjoint triangles are optimal at n = 6
        assert exact_turan_path(5, 4) == 4
        assert exact_turan_path(6, 4) == 6
        assert exact_turan_path(5, 4) <= erdos_gallai_path_bound(5, 4)
        assert exact_turan_path(6, 4) <= erdos_gallai_path_bound(6, 4)
        # every labeled graph on n <= 5 vertices
        for n in range(6):
            pairs = list(combinations(range(n), 2))
            for N in range(2, 8):
                best = 0
                for mask in range(1 << len(pairs)):
                    g = nx.Graph([p for i, p in enumerate(pairs) if mask >> i & 1])
                    if g.number_of_edges() > best and not has_path(g, N):
                        best = g.number_of_edges()
                assert exact_turan_path(n, N) == best, (n, N)

    def test_disjoint_cliques_are_extremal(self):
        # Erdos-Gallai: n/(N-1) disjoint copies of K_{N-1} attain (N-2)n/2;
        # N <= n, as N = n + 1 would list every graph on n vertices
        for n in range(1, 10):
            for N in range(2, n + 1):
                if n % (N - 1) == 0:
                    assert exact_turan_path(n, N) == erdos_gallai_path_bound(n, N), (n, N)

    def test_paths_longer_than_the_graph(self):
        # every graph on 9 vertices is P10-free: K9 is extremal, read off
        # without listing the 274,668 graphs on 9 vertices
        assert exact_turan_path(9, 10) == 36
        assert [exact_turan_path(n, n + 1) for n in range(1, 5)] == [0, 1, 3, 6]

    def test_exact_value_rejects_bad_input(self):
        assert exact_turan_path(0, 5) == 0
        for n, N in ((3, 1), (0, 1), (-1, 3)):
            with pytest.raises(GraphError):
                exact_turan_path(n, N)

    def test_thresholds(self):
        assert turan_threshold(6, [path_graph(4), path_graph(5)]) == Fraction(6)
        assert turan_threshold(6, [path_graph(4)] * 3) == Fraction(7)

    def test_threshold_with_supplied_bounds(self):
        assert turan_threshold(6, [complete_graph(3)], ex_bounds=[6]) == Fraction(3)
        with pytest.raises(GraphError):
            turan_threshold(6, [complete_graph(3)])
        for short_or_long in ([6], [6, 6, 6]):  # one bound per target, no more, no fewer
            with pytest.raises(GraphError, match="extremal bounds for 2 targets"):
                turan_threshold(6, [complete_graph(3)] * 2, ex_bounds=short_or_long)


class TestStarRamsey:
    def test_closed_form_grid(self):
        expected = {}
        for n in range(2, 7):
            for k in range(1, 5):
                if n == 2:
                    expected[(n, k)] = 2
                else:
                    eps = 1 if (n % 2 == 1 and k % 2 == 0) else 2
                    expected[(n, k)] = k * (n - 2) + eps
        for (n, k), value in expected.items():
            assert star_ramsey(n, k) == value

    def test_brute_force_confirmation(self):
        assert verify_ramsey_value(3, [star_graph(3)] * 2).outcome is RamseyOutcome.IS_RAMSEY
        assert verify_ramsey_value(6, [star_graph(4)] * 2).outcome is RamseyOutcome.IS_RAMSEY
        assert star_ramsey(3, 2) == 3
        assert star_ramsey(4, 2) == 6

    def test_brooks_branches(self):
        # high-degree branch hands back a star center
        g = star_graph(6)
        branch = brooks_star_check(g, 4, 2)
        assert branch == BrooksBranch("max_degree", 0)
        # odd cycle branch only fires at threshold 3
        assert brooks_star_check(cycle_graph(5), 3, 2).branch == "odd_cycle"
        with pytest.raises(GraphError):
            brooks_star_check(complete_graph(4), 3, 2)
        with pytest.raises(GraphError):
            brooks_star_check(cycle_graph(4), 3, 2)


class TestChromaticNumber:
    def test_known_values(self):
        assert chromatic_number(complete_graph(5)) == 5
        assert chromatic_number(cycle_graph(5)) == 3
        assert chromatic_number(cycle_graph(6)) == 2
        assert chromatic_number(path_graph(4)) == 2
        assert chromatic_number(Graph(3, frozenset())) == 1
        petersen = Graph.from_edges(
            10,
            [(i, (i + 1) % 5) for i in range(5)]
            + [(i, i + 5) for i in range(5)]
            + [(5 + i, 5 + (i + 2) % 5) for i in range(5)],
        )
        assert chromatic_number(petersen) == 3

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**15 - 1))
    def test_matches_partition_oracle(self, mask):
        pairs = list(combinations(range(6), 2))
        g = Graph.from_edges(6, [p for i, p in enumerate(pairs) if mask >> i & 1])

        def oracle() -> int:
            for k in range(1, 7):
                for assign in product(range(k), repeat=6):
                    if all(assign[u] != assign[v] for u, v in g.edges):
                        return k
            return 6

        assert chromatic_number(g) == oracle()

    def test_is_k_colorable_consistency(self):
        g = cycle_graph(5)
        assert not is_k_colorable(g, 2)
        assert is_k_colorable(g, 3)
