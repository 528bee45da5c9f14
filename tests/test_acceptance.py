"""Acceptance criteria: one test per criterion, one printed verdict line each.

Each test prints "ACCEPTANCE <k>: PASS|FAIL - <summary>" so a full run reads
as a checklist.  Criterion 2 deliberately treats the 2^36-coloring upper side
of the nine-vertex search as out of reach: the requirement there is the
witness plus an honest Indeterminate report under an explicit budget.
"""

import random
import time
from itertools import combinations

from conftest import enumerated_chromatic_index, grid_coloring
from pathramsey.corpus import connected_pn_free_graph6
from pathramsey.decompose import (
    LemmaStatus,
    konig_edge_coloring,
    run_pipeline,
    validate_technical_lemma,
)
from pathramsey.detect import find_path, is_pn_free
from pathramsey.goodness import (
    Budget,
    RamseyOutcome,
    erdos_gallai_path_bound,
    exact_turan_path,
    star_ramsey,
    turan_threshold,
    verify_ramsey_value,
)
from pathramsey.graphs import (
    GraphError,
    Multigraph,
    color_subgraph,
    connected_components,
    degrees,
    graph6_decode,
    path_graph,
    star_graph,
    unoriented,
)
from pathramsey.hypergraphs import (
    build_dual,
    build_triangle_host,
    chromatic_index,
    detect_triangle_decomposition,
    generate_small_instances,
    question25_search,
)
from pathramsey.orientation import (
    BoundParams,
    FAMILY_PARAMS,
    P5_PARAMS,
    build_witness,
    check_nst_bounded,
    classify_part,
    orient,
    oriented_part,
)


def verdict(num: int, passed: bool, summary: str) -> None:
    print(f"ACCEPTANCE {num}: {'PASS' if passed else 'FAIL'} - {summary}")
    assert passed, f"acceptance criterion {num} failed: {summary}"


def test_acceptance_1_ramsey_values():
    checks = []
    t0 = time.monotonic()
    checks.append(
        ("R2(P4)=5", verify_ramsey_value(5, [path_graph(4)] * 2).outcome
         is RamseyOutcome.IS_RAMSEY, time.monotonic() - t0, 1.0)
    )
    t0 = time.monotonic()
    checks.append(
        ("R2(P5)=6", verify_ramsey_value(6, [path_graph(5)] * 2).outcome
         is RamseyOutcome.IS_RAMSEY, time.monotonic() - t0, 1.0)
    )
    t0 = time.monotonic()
    checks.append(
        ("R3(P4)=6", verify_ramsey_value(6, [path_graph(4)] * 3).outcome
         is RamseyOutcome.IS_RAMSEY, time.monotonic() - t0, 60.0)
    )
    t0 = time.monotonic()
    checks.append(
        ("R2(P6)=8", verify_ramsey_value(8, [path_graph(6)] * 2).outcome
         is RamseyOutcome.IS_RAMSEY, time.monotonic() - t0, 600.0)
    )
    ok = all(good and took < limit for _, good, took, limit in checks)
    detail = ", ".join(f"{name} in {took:.2f}s" for name, _, took, _ in checks)
    verdict(1, ok, f"exact Ramsey values confirmed ({detail})")


def test_acceptance_2_p7_witness_and_budgeted_upper_side():
    po = build_witness(7)
    witness_ok = po.base.graph.n == 8 and all(
        find_path(color_subgraph(po.base, c), 7) is None for c in (0, 1)
    )
    # isomorph-free augmentation turns the nominal 2^36 colorings into a few
    # thousand candidates, so the full upper side is verified here as well,
    # beyond the requirement; half its states is a budget that must run out
    full = verify_ramsey_value(9, [path_graph(7)] * 2)
    budget = full.colorings_checked // 2
    report = verify_ramsey_value(9, [path_graph(7)] * 2, Budget(max_nodes=budget))
    budget_ok = (
        report.outcome is RamseyOutcome.INDETERMINATE
        and report.colorings_checked > budget
    )
    verdict(
        2,
        witness_ok and budget_ok and full.outcome is RamseyOutcome.IS_RAMSEY,
        "8-vertex witness avoids monochromatic P7; budgeted upper side reports "
        f"Indeterminate after {report.colorings_checked} states; unbudgeted "
        f"search confirms R2(P7)=9 in {full.colorings_checked} states",
    )


def test_acceptance_3_orientation_soundness(tmp_path):
    lines = connected_pn_free_graph6(7, 9)
    path = tmp_path / "p7free_le9.g6"
    path.write_text("\n".join(lines) + "\n")
    universe = [graph6_decode(s) for s in path.read_text().splitlines() if s]
    totals = {}
    violations = 0
    for family, N in (("p5", 5), ("p6", 6), ("p7", 7)):
        corpus = [g for g in universe if is_pn_free(g, N)]
        params = FAMILY_PARAMS[family]
        for g in corpus:
            try:
                po = oriented_part(g, orient(g, N).marks)
            except GraphError:
                violations += 1
                continue
            result = check_nst_bounded(po, frozenset(range(g.n)), 0, params)
            violations += len(result.violations)
        totals[family] = len(corpus)
    verdict(
        3,
        violations == 0 and min(totals.values()) > 0,
        f"0 violations over {totals['p5']} P5-free, {totals['p6']} P6-free, "
        f"{totals['p7']} P7-free connected graphs on <= 9 vertices",
    )


def test_acceptance_4_side_conditions():
    ok = True
    for n, s, t in ((5, 1, 4), (7, 2, 5), (8, 2, 6)):
        p = BoundParams(n, s, t)
        ok = ok and p.n > p.s + p.t - 1 and p.n > 2 * p.s + 2
    for bad in ((5, 1, 5), (6, 2, 3), (4, 1, 4)):
        try:
            BoundParams(*bad)
            ok = False
        except GraphError:
            pass
    verdict(4, ok, "family side conditions enforced for (5,1,4), (7,2,5), (8,2,6)")


def test_acceptance_5_pipeline_and_konig():
    shapes = [(2, 5), (5, 2), (3, 4), (4, 3), (3, 5), (5, 3), (4, 4), (4, 5), (5, 4), (5, 5)]
    count = 0
    for seed in range(10):
        for rows, cols in shapes:
            cg = grid_coloring(rows, cols, seed=seed * 101 + rows * 10 + cols)
            mindeg = min(cg.graph.degree(v) for v in range(cg.graph.n))
            assert mindeg >= 5
            report = run_pipeline(cg)
            assert report.colors_used <= 5
            for u, v in cg.graph.edges:
                assert report.vertex_coloring[u] != report.vertex_coloring[v]
            count += 1
    rng = random.Random(20260823)
    konig_count = 0
    while konig_count < 1000:
        nl, nr = rng.randint(1, 6), rng.randint(1, 6)
        deg = [0] * (nl + nr)
        pairs = []
        for _ in range(rng.randint(1, 30)):
            u, v = rng.randrange(nl), nl + rng.randrange(nr)
            if deg[u] < 8 and deg[v] < 8:
                pairs.append((u, v))
                deg[u] += 1
                deg[v] += 1
        if not pairs:
            continue
        mg = Multigraph.from_pairs(nl + nr, pairs)
        coloring = konig_edge_coloring(mg, (list(range(nl)), list(range(nl, nl + nr))))
        delta = mg.max_degree()
        assert len(set(coloring.values())) == delta
        seen = set()
        for u, v, lab in mg.edges:
            for x in (u, v):
                assert (x, coloring[lab]) not in seen
                seen.add((x, coloring[lab]))
        konig_count += 1
    verdict(
        5,
        count == 100 and konig_count == 1000,
        f"{count} pipeline instances proper in <= 5 colors; "
        f"{konig_count} bipartite multigraphs edge-colored with exactly max degree colors",
    )


def test_acceptance_6_technical_lemma_suite():
    lemma_inputs = 0
    for seed in range(40):
        cg = grid_coloring(4, 4, seed=seed)
        po = unoriented(cg)
        result = validate_technical_lemma(po, P5_PARAMS)
        assert result.status is LemmaStatus.PASS, result.details
        for c in (0, 1):
            for comp in connected_components(color_subgraph(cg, c)):
                if len(comp) > 1:
                    cls = classify_part(po, comp, c)
                    assert not (cls.t_minus or cls.t_plus or cls.x_set)
        lemma_inputs += 1
    # degree-sum identity over constructor-produced orientations
    orientations = 0
    for N in (5, 6, 7):
        lines = connected_pn_free_graph6(N, 8)
        for s in lines[::3]:
            g = graph6_decode(s)
            po = oriented_part(g, orient(g, N).marks)
            total_in = sum(degrees(po, v, 0)[1] for v in range(g.n))
            total_out = sum(degrees(po, v, 0)[2] for v in range(g.n))
            assert total_in == total_out
            orientations += 1
    verdict(
        6,
        lemma_inputs == 40 and orientations > 100,
        f"{lemma_inputs} hypothesis-satisfying inputs yield only main parts; "
        f"degree sums balance on {orientations} constructed orientations",
    )


def test_acceptance_7_turan_thresholds():
    ok = (
        turan_threshold(6, [path_graph(4), path_graph(5)]) == 6
        and turan_threshold(6, [path_graph(4)] * 3) == 7
        and exact_turan_path(5, 4) == 4
        and exact_turan_path(6, 4) == 6
        and exact_turan_path(5, 4) <= erdos_gallai_path_bound(5, 4)
        and exact_turan_path(6, 4) <= erdos_gallai_path_bound(6, 4)
    )
    verdict(
        7,
        ok,
        "thresholds 6 and 7 reproduced; ex(5,P4)=4 and ex(6,P4)=6 from the P4-free corpus",
    )


def test_acceptance_8_star_formula():
    ok = True
    for n in range(2, 7):
        for k in range(1, 5):
            closed = 2 if n == 2 else k * (n - 2) + (
                1 if (n % 2 == 1 and k % 2 == 0) else 2
            )
            ok = ok and star_ramsey(n, k) == closed
    ok = ok and verify_ramsey_value(3, [star_graph(3)] * 2).outcome is RamseyOutcome.IS_RAMSEY
    ok = ok and verify_ramsey_value(6, [star_graph(4)] * 2).outcome is RamseyOutcome.IS_RAMSEY
    verdict(8, ok, "closed form matches on the 2<=n<=6, 1<=k<=4 grid; "
                   "R2(S3)=3 and R2(S4)=6 confirmed by exhaustion")


def test_acceptance_9_hypergraph_duals():
    hosts = [(3, (0, 1, 2))]
    hosts += [(5, shifts) for shifts in combinations(range(5), 3)]
    hosts += [(7, shifts) for shifts in combinations(range(7), 3)]
    hosts += [(9, shifts) for shifts in list(combinations(range(9), 3))[:4]]
    hosts = hosts[:50]
    assert len(hosts) == 50
    duals_ok = 0
    for m, shifts in hosts:
        cg = build_triangle_host(m, shifts)
        result = detect_triangle_decomposition(cg)
        report = build_dual(result.decomposition)
        if (
            report.three_uniform
            and report.three_regular
            and report.three_partite
            and report.linear
            and report.host_six_regular
        ):
            duals_ok += 1
    corpus = generate_small_instances(9)
    cross_ok = all(chromatic_index(h) == enumerated_chromatic_index(h.edges) for h in corpus)
    entries = question25_search(corpus)
    search_ok = all(e.valid and e.chi_index <= 5 and not e.flagged for e in entries)
    verdict(
        9,
        duals_ok == 50 and cross_ok and search_ok,
        f"{duals_ok}/50 generated duals pass all property checks; chromatic "
        f"index matches an enumeration of hyperedge colorings; no instance with "
        f"<= 9 hyperedges exceeds 5",
    )
