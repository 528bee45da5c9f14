"""Exhaustive Ramsey searches, closed forms, and extremal arithmetic."""

import time
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathramsey.goodness import (
    CHECK_INTERVAL,
    BrooksBranch,
    Budget,
    GoodnessVerdict,
    RamseyOutcome,
    all_colorings_hit,
    brooks_star_check,
    chromatic_number,
    contains_subgraph,
    erdos_gallai_path_bound,
    exact_turan_path,
    find_avoiding_coloring,
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
    complete_graph,
    cycle_graph,
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
        report = verify_ramsey_value(9, [path_graph(7)] * 2, Budget(max_nodes=2000))
        assert report.outcome is RamseyOutcome.INDETERMINATE

    def test_small_hosts_match_oracle(self):
        for n in (3, 4, 5):
            for targets in ([path_graph(3)] * 2, [path_graph(4)] * 2):
                verdict, witness, _ = all_colorings_hit(complete_graph(n), targets)
                assert verdict == brute_all_hit(complete_graph(n), targets)

    def test_symmetry_pruning_sound(self):
        # pruned and unpruned agree on the verdict
        host = complete_graph(5)
        targets = [path_graph(4)] * 2
        v1, _, n1 = all_colorings_hit(host, targets, symmetric=True)
        v2, _, n2 = all_colorings_hit(host, targets, symmetric=False)
        assert v1 == v2
        assert n1 < n2

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
        assert (v1, n1) == (False, 42)
        assert (v2, n2) == (False, 8991)  # every prefix task runs to the end
        assert w1 == w2

    @pytest.mark.parametrize("workers", [2, 4])
    def test_parallel_node_budget_is_global(self, workers):
        # with a budget per task two workers visited 58,636 states; four
        # workers on a two-core host also load the shared counter's lock
        verdict, witness, states = all_colorings_hit(
            complete_graph(9), [path_graph(7)] * 2, Budget(max_nodes=20_000), workers=workers)
        assert verdict is None and witness is None
        assert 20_000 < states <= 20_000 + workers * CHECK_INTERVAL

    def test_parallel_time_budget_is_global(self):
        # K10 keeps each of the three prefix tasks that symmetry leaves busy
        # past the budget, so with a budget per task two workers took two
        # budgets.  Slack: one check interval (4,096 states, about 0.1 s on a
        # 2-core host) plus pool start and stop.
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

    def test_avoider_search(self):
        witness, _, exhausted = find_avoiding_coloring(
            complete_graph(5), [path_graph(5)] * 2
        )
        assert witness is not None and not exhausted


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

    def test_thresholds(self):
        assert turan_threshold(6, [path_graph(4), path_graph(5)]) == Fraction(6)
        assert turan_threshold(6, [path_graph(4)] * 3) == Fraction(7)

    def test_threshold_with_supplied_bounds(self):
        assert turan_threshold(6, [complete_graph(3)], ex_bounds=[6]) == Fraction(3)
        with pytest.raises(GraphError):
            turan_threshold(6, [complete_graph(3)])


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
