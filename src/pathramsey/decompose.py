"""The main-part pipeline: parts, the shared-vertex multigraph, and coloring.

Given a 2-colored graph whose monochromatic parts are all main (no oriented
edges), the pipeline builds the bipartite multigraph of parts with one edge
per shared vertex, edge-colors it with exactly max-degree colors by
alternating-path augmentation, and reads the result back as a proper vertex
coloring of the original graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .detect import _bits
from .graphs import (
    ColoredGraph,
    Graph,
    GraphError,
    Multigraph,
    PartialOrientation,
    mask_components,
)
from .orientation import BoundParams, _scan, _st_violations


def monochromatic_parts(cg: ColoredGraph) -> list[tuple[int, frozenset[int]]]:
    """Connected components of every color class, skipping isolated vertices.

    Ordered by color, then by smallest vertex; the neighbor masks of all the
    classes are built in one pass over the coloring.
    """
    masks = [[0] * cg.graph.n for _ in range(cg.k)]
    for (u, v), c in cg.color.items():
        masks[c][u] |= 1 << v
        masks[c][v] |= 1 << u
    return [
        (c, frozenset(comp))
        for c in range(cg.k)
        for comp in mask_components(masks[c])
        if len(comp) > 1
    ]


@dataclass(frozen=True)
class MainPartMultigraph:
    """Bipartite multigraph of main parts; each edge is labeled by the shared vertex."""

    parts: tuple[tuple[int, frozenset[int]], ...]
    multigraph: Multigraph
    edge_labels: dict[int, int]  # edge label -> original vertex of the host graph

    def bipartition(self) -> tuple[list[int], list[int]]:
        left = [i for i, (c, _) in enumerate(self.parts) if c == 0]
        right = [i for i, (c, _) in enumerate(self.parts) if c != 0]
        return left, right


def build_main_part_multigraph(
    cg: ColoredGraph, parts: list[tuple[int, frozenset[int]]]
) -> MainPartMultigraph:
    """One multigraph vertex per part, one edge per vertex shared by two parts.

    Every host vertex must lie in exactly two parts (one per color); a vertex
    covered by fewer is a hypothesis failure and aborts with its name.
    """
    if cg.k != 2:
        raise GraphError("the pipeline is defined for 2-colored graphs")
    membership: dict[int, list[int]] = {v: [] for v in range(cg.graph.n)}
    for i, (_, comp) in enumerate(parts):
        for v in comp:
            membership[v].append(i)
    pairs = []
    labels = {}
    for v in range(cg.graph.n):
        owners = membership[v]
        if len(owners) != 2:
            raise GraphError(
                f"vertex {v} lies in {len(owners)} parts; the pipeline needs exactly two"
            )
        i, j = owners
        if parts[i][0] == parts[j][0]:
            raise GraphError(f"vertex {v} lies in two parts of the same color")
        labels[len(pairs)] = v
        pairs.append((i, j))
    mg = Multigraph(len(parts), tuple((min(i, j), max(i, j), lab) for lab, (i, j) in enumerate(pairs)))
    return MainPartMultigraph(tuple(parts), mg, labels)


def konig_edge_coloring(mg: Multigraph, bipartition: tuple[list[int], list[int]]) -> dict[int, int]:
    """Proper edge coloring of a bipartite multigraph with exactly Delta colors.

    Returns a map from edge label to color.  Classic alternating-path
    augmentation; colors are scanned in ascending order for determinism.
    Each edge flips at most one path, so the time is O(|E| (|V| + Delta)).
    """
    left, right = bipartition
    side = {}
    for v in left:
        side[v] = 0
    for v in right:
        if v in side:
            raise GraphError("bipartition classes overlap")
        side[v] = 1
    for u, v, _ in mg.edges:
        if u not in side or v not in side or side[u] == side[v]:
            raise GraphError(f"edge ({u}, {v}) does not cross the bipartition")
    delta = mg.max_degree()
    # edges by index: the other end of edge i at w is ends[i] - w, and
    # at[w][c] is the index of the edge of color c at w, None if c is free
    ends = [u + v for u, v, _ in mg.edges]
    at: list[list[int | None]] = [[None] * delta for _ in range(mg.n)]
    coloring = [0] * len(mg.edges)
    for i, (u, v, _) in enumerate(mg.edges):
        a = at[u].index(None)
        b = at[v].index(None)
        if a != b:
            # flip the a/b alternating path starting at v to free color a
            # there: swap a and b at every vertex of the path, in one walk
            w, c = v, a
            while True:
                row = at[w]
                row[a], row[b] = row[b], row[a]
                c = a + b - c
                j = row[c]  # the next path edge, already under its new color c
                if j is None:
                    break
                coloring[j] = c
                w = ends[j] - w
        at[u][a] = at[v][a] = i
        coloring[i] = a
    return {lab: c for (_, _, lab), c in zip(mg.edges, coloring)}


def induced_vertex_coloring(
    cg: ColoredGraph, mpm: MainPartMultigraph, edge_coloring: dict[int, int]
) -> dict[int, int]:
    """Transfer the part-multigraph edge coloring onto the host's vertices.

    Each host vertex takes the color of the multigraph edge it labels; the
    result is verified proper on the host graph and a failure signals a
    pipeline bug.
    """
    vertex_color = {mpm.edge_labels[lab]: c for lab, c in edge_coloring.items()}
    if set(vertex_color) != set(range(cg.graph.n)):
        raise GraphError("edge coloring does not cover every host vertex")
    for u, v in cg.graph.edges:
        if vertex_color[u] == vertex_color[v]:
            raise GraphError(
                f"induced coloring is not proper: edge ({u}, {v}) is monochromatic"
            )
    return vertex_color


@dataclass(frozen=True)
class PipelineReport:
    parts: tuple[tuple[int, frozenset[int]], ...]
    multigraph: Multigraph
    edge_coloring: dict[int, int]
    vertex_coloring: dict[int, int]
    colors_used: int

    def to_jsonable(self) -> dict:
        return {
            "parts": [{"color": c, "vertices": sorted(comp)} for c, comp in self.parts],
            "multigraph": {
                "n": self.multigraph.n,
                "edges": [
                    {"u": u, "v": v, "shared_vertex": lab}
                    for u, v, lab in self.multigraph.edges
                ],
            },
            "edge_coloring": {str(lab): c for lab, c in sorted(self.edge_coloring.items())},
            "vertex_coloring": {str(v): c for v, c in sorted(self.vertex_coloring.items())},
            "colors_used": self.colors_used,
            "proper": True,
        }


def run_pipeline(cg: ColoredGraph) -> PipelineReport:
    """Parts -> multigraph -> edge coloring -> proper vertex coloring."""
    parts = monochromatic_parts(cg)
    mpm = build_main_part_multigraph(cg, parts)
    edge_coloring = konig_edge_coloring(mpm.multigraph, mpm.bipartition())
    vertex_coloring = induced_vertex_coloring(cg, mpm, edge_coloring)
    return PipelineReport(
        mpm.parts,
        mpm.multigraph,
        edge_coloring,
        vertex_coloring,
        len(set(edge_coloring.values())),
    )


class LemmaStatus(Enum):
    PASS = "pass"
    HYPOTHESIS_FAILED = "hypothesis_failed"
    CONCLUSION_FAILED = "conclusion_failed"


@dataclass(frozen=True)
class LemmaVerdict:
    status: LemmaStatus
    details: tuple[str, ...]


def validate_technical_lemma(po: PartialOrientation, params: BoundParams) -> LemmaVerdict:
    """Empirically test: bounded parts plus high minimum degree force main parts.

    Hypothesis failures (low degree or an unbounded part) are reported
    separately from conclusion failures; a genuine conclusion failure on valid
    hypotheses would be a counterexample candidate (or an implementation bug).
    """
    cg = po.base
    problems = []
    for v in range(cg.graph.n):
        if cg.graph.degree(v) < params.n:
            problems.append(f"vertex {v} has degree {cg.graph.degree(v)} < n={params.n}")
    # each part's degrees and vertex classes, from one scan of the coloring per part
    scans = [(c, _scan(po, comp, c)) for c, comp in monochromatic_parts(cg)]
    for c, scan in scans:
        problems.extend(
            f"part {sorted(scan.part)} (color {c}): {viol.message}"
            for viol in _st_violations(scan, params.s, params.t)
        )
    if problems:
        return LemmaVerdict(LemmaStatus.HYPOTHESIS_FAILED, tuple(problems))
    conclusion = []
    for c, scan in scans:
        if scan.t_minus or scan.t_plus or scan.x_set:
            conclusion.append(
                f"part {sorted(scan.part)} (color {c}) is not main: "
                f"T-={_bits(scan.t_minus)}, T+={_bits(scan.t_plus)}, X={_bits(scan.x_set)}"
            )
    if conclusion:
        return LemmaVerdict(LemmaStatus.CONCLUSION_FAILED, tuple(conclusion))
    return LemmaVerdict(LemmaStatus.PASS, ())
