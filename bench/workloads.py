"""The three workloads: ramsey, census and certify.

Each workload builds its inputs from the seed (`build`), runs one round of
fixed work against the package (`run`), checks a round's outputs with the
independent oracles (`check`) and tells whether a later round reproduced the
first (`same`).  Every search runs with one worker and state budgets only, so
a round does the same work in every run.
"""

from __future__ import annotations

import importlib
import io
import json
import os
import random
import sys
import time
import traceback
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from itertools import combinations

import oracles
from tracing import LAYERS


class Package:
    """The package's modules, imported afresh from the checkout's src."""

    def __init__(self):
        for name in [m for m in sys.modules if m == "pathramsey" or m.startswith("pathramsey.")]:
            del sys.modules[name]
        self.root = importlib.import_module("pathramsey")
        for layer in LAYERS:
            setattr(self, layer, importlib.import_module(f"pathramsey.{layer}"))
        self.dir = os.path.dirname(os.path.abspath(self.root.__file__))

    def modules(self) -> list:
        return [self.root] + [getattr(self, layer) for layer in LAYERS]


@dataclass
class Round:
    """What one round did: seconds per part, operations, and outputs."""

    parts: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    outputs: dict = field(default_factory=dict)
    op_ms: list[float] = field(default_factory=list)  # per-operation latency
    counts: dict[str, int] = field(default_factory=dict)  # exact work counts
    differs: bool = False  # a later round's outputs differ from the first's

    def attempt(self, fn, *args):
        """Run one operation; a raised exception counts it as failed."""
        self.attempted += 1
        try:
            return fn(*args)
        except Exception:
            self.failures.append(traceback.format_exc(limit=3))
            return None


class Timer:
    def __init__(self, rnd: Round, part: str):
        self.rnd, self.part = rnd, part

    def __enter__(self):
        self.start = time.perf_counter()

    def __exit__(self, *exc):
        self.rnd.parts[self.part] = time.perf_counter() - self.start


# ---------------------------------------------------------------------------
# ramsey: four coloring searches through the command line, in-process.

RAMSEY_JOBS = (
    # name, N, target orders, state budget (None: run to the verdict)
    ("R2(P7)", 9, (7, 7), None),
    ("R(P7,P5)", 8, (7, 5), None),
    ("R3(P5)", 9, (5, 5, 5), 200_000),
    ("R2(P8)", 11, (8, 8), 50_000),
)


def ramsey_argv(N: int, orders, budget) -> list[str]:
    argv = ["verify", "ramsey", "--N", str(N), "--targets", ",".join(f"P{o}" for o in orders),
            "--workers", "1"]
    if budget is not None:
        argv += ["--budget-colorings", str(budget)]
    return argv


class Ramsey:
    name = "ramsey"

    def build(self, pkg, seed: int):
        jobs = list(RAMSEY_JOBS)
        random.Random(seed).shuffle(jobs)  # the seed sets the job order only
        return [(job, ramsey_argv(*job[1:])) for job in jobs]

    def run(self, pkg, inputs) -> Round:
        rnd = Round()
        for job, argv in inputs:
            with Timer(rnd, job[0]):
                result = rnd.attempt(self._call, pkg, argv)
            if result is not None:
                rnd.outputs[job[0]] = result
        rnd.counts["states"] = sum(doc["colorings_checked"] for _, doc in rnd.outputs.values())
        return rnd

    @staticmethod
    def _call(pkg, argv):
        out = io.StringIO()
        with redirect_stdout(out):
            code = pkg.cli.main(argv)
        return code, json.loads(out.getvalue().splitlines()[-1])

    def check(self, inputs, rnd: Round) -> list[str]:
        errors = []
        for (name, N, orders, budget), _argv in inputs:
            if name not in rnd.outputs:
                continue
            code, doc = rnd.outputs[name]
            outcome = doc["outcome"]
            if budget is None:
                if (code, outcome) != (0, "is_ramsey"):
                    errors.append(f"{name}: exit {code}, {outcome}; expected 0, is_ramsey")
                if N != oracles.gerencser_gyarfas(*orders):
                    errors.append(f"{name}: N={N} is not the Gerencsér–Gyárfás value")
            elif (code, outcome) == (2, "indeterminate"):
                if "witness" in doc or doc["colorings_checked"] <= budget:
                    errors.append(f"{name}: indeterminate before its budget ran out")
                continue
            elif (code, outcome) != (0, "is_ramsey"):
                errors.append(f"{name}: exit {code}, {outcome} under a state budget")
            if outcome == "is_ramsey":
                if doc.get("witness", {}).get("n") != N - 1:
                    errors.append(f"{name}: lower-side witness is not on {N - 1} vertices")
                else:
                    errors += [f"{name}: {e}" for e in oracles.avoiding_witness_errors(doc["witness"], orders)]
        return errors

    def same(self, a: Round, b: Round) -> bool:
        def verdicts(rnd):
            return {k: (code, doc["outcome"], doc["colorings_checked"], doc.get("witness"))
                    for k, (code, doc) in rnd.outputs.items()}
        return verdicts(a) == verdicts(b)

    def summary(self, rounds: list[Round]) -> list[str]:
        lines = []
        for name, *_ in RAMSEY_JOBS:
            code, doc = rounds[0].outputs.get(name, (None, {}))
            secs = sorted(r.parts[name] for r in rounds)
            lines.append(f"{name}: exit {code} {doc.get('outcome')}, "
                         f"{doc.get('colorings_checked')} states, median {secs[len(secs) // 2]:.3f} s")
        lines.append(f"states per round: {rounds[0].counts['states']} count")
        return lines


# ---------------------------------------------------------------------------
# census: the P7-free corpus, then every orientation its graphs admit.

CENSUS_N, CENSUS_MAX_VERTICES = 7, 10
FAMILIES = (5, 6, 7)


class Census:
    name = "census"

    def build(self, pkg, seed: int):
        return seed  # the seed relabels every corpus graph before orientation

    def run(self, pkg, seed) -> Round:
        rnd = Round()
        with Timer(rnd, "generate"):
            levels = rnd.attempt(pkg.corpus.generate_pn_free, CENSUS_N, CENSUS_MAX_VERTICES) or {}
        graphs, orientations = [], []
        with Timer(rnd, "orient"):
            rng = random.Random(seed)
            for n in sorted(levels):
                for masks in levels[n]:
                    perm = list(range(n))
                    rng.shuffle(perm)
                    g = pkg.graphs.Graph.from_edges(
                        n, [(perm[u], perm[v]) for u, v in oracles.masks_to_edges(masks)])
                    if len(pkg.graphs.connected_components(g)) != 1:
                        continue
                    applied = [N for N in FAMILIES if pkg.detect.is_pn_free(g, N)]
                    graphs.append((g, applied))
                    for N in applied:
                        start = time.perf_counter()
                        marks = rnd.attempt(self._orient, pkg, g, N)
                        rnd.op_ms.append((time.perf_counter() - start) * 1e3)
                        orientations.append((len(graphs) - 1, N, marks))
        rnd.outputs = {"levels": levels, "graphs": graphs, "orientations": orientations}
        rnd.counts["kept"] = sum(len(level) for level in levels.values())
        return rnd

    @staticmethod
    def _orient(pkg, g, N):
        marks = getattr(pkg.orientation, f"orient_p{N}_free")(g)
        po = pkg.orientation.oriented_part(g, marks)
        verdict = pkg.orientation.check_nst_bounded(
            po, frozenset(range(g.n)), 0, pkg.orientation.FAMILY_PARAMS[f"p{N}"])
        return marks, verdict.passed

    def check(self, seed, rnd: Round) -> list[str]:
        levels = rnd.outputs["levels"]
        errors = []
        if sorted(levels) != list(range(1, CENSUS_MAX_VERTICES + 1)):
            errors.append(f"corpus levels {sorted(levels)}")
        atlas = oracles.atlas_pn_free_counts(CENSUS_N, 7)
        for n, count in atlas.items():
            if len(levels.get(n, ())) != count:
                errors.append(f"level {n}: {len(levels.get(n, ()))} graphs, atlas has {count}")
        connected = 0
        for n, level in levels.items():
            for masks in level:
                adj = oracles.neighbour_sets(n, oracles.masks_to_edges(masks))
                if oracles.has_path(adj, CENSUS_N):
                    errors.append(f"level {n}: a graph holds a path on {CENSUS_N} vertices")
                connected += oracles.is_connected(adj)
            pairs = oracles.isomorphic_pairs(level)
            if pairs:
                errors.append(f"level {n}: {pairs} isomorphic pairs")
        if connected != len(rnd.outputs["graphs"]):
            errors.append(f"{len(rnd.outputs['graphs'])} graphs oriented, {connected} are connected")
        for g, applied in rnd.outputs["graphs"]:
            adj = oracles.neighbour_sets(g.n, g.edges)
            if applied != [N for N in FAMILIES if not oracles.has_path(adj, N)]:
                errors.append(f"graph {sorted(g.edges)}: oriented as P{applied}-free")
        for index, N, result in rnd.outputs["orientations"]:
            if result is None:
                continue
            marks, passed = result
            g = rnd.outputs["graphs"][index][0]
            found = oracles.boundedness_violations(g.n, g.edges, marks, N)
            if found or not passed:
                errors.append(f"P{N} orientation of {sorted(g.edges)}: checker {passed}, recheck {found}")
        return errors

    def same(self, a: Round, b: Round) -> bool:
        return a.outputs["orientations"] == b.outputs["orientations"] and a.counts == b.counts

    def summary(self, rounds: list[Round]) -> list[str]:
        samples = sorted(ms for r in rounds for ms in r.op_ms)
        return [
            f"corpus: {rounds[0].counts['kept']} P{CENSUS_N}-free graphs on <= {CENSUS_MAX_VERTICES} vertices, "
            f"{len(rounds[0].outputs['graphs'])} connected",
            f"orientations: {len(rounds[0].op_ms)} per round; over {len(samples)}: "
            f"p50 {percentile(samples, 50):.4f} ms, p99 {percentile(samples, 99):.4f} ms",
        ]


# ---------------------------------------------------------------------------
# certify: hypergraph chromatic indices, the pipeline and König colorings.

DUAL_SIZES = ((13, 4), (15, 3), (17, 2))  # (odd m, shift triples drawn per run)
GRID_SIDES = range(4, 21, 2)
KONIG_GRAPHS, KONIG_SIDE, KONIG_EDGES = 600, 12, 150


def grid_coloring(graphs, rows: int, cols: int, rng: random.Random):
    """Row cliques in color 0 and column cliques in color 1 on a relabeled grid."""
    n = rows * cols
    label = list(range(n))
    rng.shuffle(label)
    color = {}
    for i in range(rows):
        for a, b in combinations(range(cols), 2):
            color[tuple(sorted((label[i * cols + a], label[i * cols + b])))] = 0
    for j in range(cols):
        for a, b in combinations(range(rows), 2):
            color[tuple(sorted((label[a * cols + j], label[b * cols + j])))] = 1
    return graphs.ColoredGraph(graphs.Graph.from_edges(n, color), 2, color)


class Certify:
    name = "certify"

    def build(self, pkg, seed: int):
        rng = random.Random(seed)
        duals = []
        for m, draws in DUAL_SIZES:
            for shifts in rng.sample(list(combinations(range(m), 3)), draws):
                duals.append((m, shifts, pkg.hypergraphs.build_triangle_host(m, shifts)))
        grids = [(r, c, grid_coloring(pkg.graphs, r, c, rng))
                 for r in GRID_SIDES for c in GRID_SIDES if r <= c]
        multigraphs = []
        for _ in range(KONIG_GRAPHS):
            pairs = [(rng.randrange(KONIG_SIDE), KONIG_SIDE + rng.randrange(KONIG_SIDE))
                     for _ in range(KONIG_EDGES)]
            sides = (list(range(KONIG_SIDE)), list(range(KONIG_SIDE, 2 * KONIG_SIDE)))
            multigraphs.append((pkg.graphs.Multigraph.from_pairs(2 * KONIG_SIDE, pairs), sides))
        return {"duals": duals, "grids": grids, "multigraphs": multigraphs}

    def run(self, pkg, inputs) -> Round:
        rnd = Round()
        hyper, decompose = pkg.hypergraphs, pkg.decompose
        with Timer(rnd, "duals"):
            rnd.outputs["duals"] = [rnd.attempt(self._dual, hyper, host) for _, _, host in inputs["duals"]]
        with Timer(rnd, "small"):
            rnd.outputs["small"] = rnd.attempt(self._small, hyper)
        with Timer(rnd, "pipeline"):
            rnd.outputs["pipeline"] = [rnd.attempt(decompose.run_pipeline, cg) for _, _, cg in inputs["grids"]]
        with Timer(rnd, "konig"):
            rnd.outputs["konig"] = [rnd.attempt(decompose.konig_edge_coloring, mg, sides)
                                    for mg, sides in inputs["multigraphs"]]
        return rnd

    @staticmethod
    def _small(hyper):
        instances = hyper.generate_small_instances(9)
        return instances, hyper.question25_search(instances)

    @staticmethod
    def _dual(hyper, host):
        td = hyper.detect_triangle_decomposition(host).decomposition
        report = hyper.build_dual(td)
        return td, report.hypergraph, hyper.chromatic_index(report.hypergraph)

    def check(self, inputs, rnd: Round) -> list[str]:
        errors = []
        for (m, shifts, host), result in zip(inputs["duals"], rnd.outputs["duals"]):
            if result is not None:
                errors += [f"dual m={m} {shifts}: {e}" for e in self._dual_errors(m, shifts, host, *result)]
        if rnd.outputs["small"] is not None:
            errors += self._small_errors(*rnd.outputs["small"])
        for (r, c, cg), report in zip(inputs["grids"], rnd.outputs["pipeline"]):
            if report is None:
                continue
            found = oracles.vertex_coloring_errors(cg.graph.n, cg.graph.edges, report.vertex_coloring)
            delta, more = oracles.edge_coloring_errors(report.multigraph.edges, report.edge_coloring)
            if delta != max(r, c) or report.colors_used != delta:
                more.append(f"{report.colors_used} colors, max degree {delta}, expected {max(r, c)}")
            errors += [f"pipeline {r}x{c}: {e}" for e in found + more]
        for i, ((mg, _sides), coloring) in enumerate(zip(inputs["multigraphs"], rnd.outputs["konig"])):
            if coloring is not None:
                errors += [f"konig {i}: {e}" for e in oracles.edge_coloring_errors(mg.edges, coloring)[1]]
        return errors

    @staticmethod
    def _dual_errors(m, shifts, host, td, h, chi) -> list[str]:
        """The dual of the cyclic host has chromatic index exactly 3.

        Host vertex j is the cell of shift index j // m, so coloring hyperedge
        j (the triangles at host vertex j) by j // m is proper: <= 3.  Each
        vertex lies in three hyperedges that pairwise meet: >= 3.
        """
        errors = []
        if dict(host.color) != oracles.cyclic_triangle_host(m, shifts):
            errors.append("host is not the cyclic Latin-square construction")
        triangles = [set(vertices) for _color, vertices in td.triangles]
        if not oracles.is_triangle_decomposition(host.graph.n, dict(host.color), triangles):
            errors.append("triangles do not partition the color classes")
        expected = [{i for i, t in enumerate(triangles) if v in t} for v in range(host.graph.n)]
        if [set(e) for e in h.edges] != expected:
            errors.append("hyperedges are not the triangles at each host vertex")
        errors += oracles.hyperedge_coloring_errors([sorted(e) for e in h.edges],
                                                    [j // m for j in range(len(h.edges))])
        degree = [sum(v in e for e in h.edges) for v in range(h.n)]
        if max(degree, default=0) < 3:
            errors.append("no vertex lies in three hyperedges")
        if chi != 3:
            errors.append(f"chromatic index {chi}, expected 3")
        return errors

    @staticmethod
    def _small_errors(instances, entries) -> list[str]:
        """Instances with <= 9 hyperedges are exactly the Latin squares of order 3
        up to isomorphism (3m hyperedges on 3m vertices need m*m = 3m)."""
        errors = []
        edge_lists = [[sorted(e) for e in h.edges] for h in instances]
        if not all(oracles.is_latin_square_hypergraph(h.n, es) for h, es in zip(instances, edge_lists)):
            errors.append("an instance is not a Latin-square hypergraph")
        graphs = [oracles.incidence_graph(h.n, es) for h, es in zip(instances, edge_lists)]
        for i in range(len(graphs)):
            for j in range(i + 1, len(graphs)):
                if oracles.hypergraphs_isomorphic(graphs[i], graphs[j]):
                    errors.append(f"instances {i} and {j} are isomorphic")
        for square in oracles.latin_square_hypergraphs(3):
            if not any(oracles.hypergraphs_isomorphic(oracles.incidence_graph(9, square), g) for g in graphs):
                errors.append(f"Latin square {square} is missing")
                break
        for entry, es in zip(entries, edge_lists):
            chi = oracles.brute_chromatic_index(es)
            if not entry.valid or entry.chi_index != chi or entry.flagged != (chi >= 6):
                errors.append(f"instance {entry.index}: {entry}, chromatic index {chi}")
        return errors

    def same(self, a: Round, b: Round) -> bool:
        def key(rnd):
            duals = [None if d is None else d[2] for d in rnd.outputs["duals"]]
            small = None if rnd.outputs["small"] is None else rnd.outputs["small"][1]
            pipes = [None if p is None else p.vertex_coloring for p in rnd.outputs["pipeline"]]
            return duals, small, pipes, rnd.outputs["konig"]
        return key(a) == key(b)

    def summary(self, rounds: list[Round]) -> list[str]:
        first = rounds[0].outputs
        chis = sorted({d[2] for d in first["duals"] if d is not None})
        return [
            f"duals: {len(first['duals'])}, chromatic indices {chis}",
            f"small instances: {[e.chi_index for e in (first['small'] or ((), ()))[1]]}",
            f"pipelines: {len(first['pipeline'])}, König colorings: {len(first['konig'])}",
        ]


WORKLOADS = {w.name: w for w in (Ramsey(), Census(), Certify())}


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    if not sorted_values:
        return 0.0
    rank = max(1, -(-len(sorted_values) * q // 100))
    return sorted_values[int(rank) - 1]
