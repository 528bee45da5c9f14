"""Triangle decompositions, their dual hypergraphs, and the chromatic index.

A 3-colored graph whose monochromatic components are all triangles dualizes
to a hypergraph whose vertices are the triangles and whose hyperedges are the
original vertices; the dual of a 6-regular host is 3-uniform, 3-regular,
3-partite, and linear, and the search harness asks whether every such
hypergraph has chromatic index at most 5.

This module does no search of its own.  The chromatic index is
`goodness.chromatic_number` of the intersection graph, a 3-partition is a
3-coloring of the 2-section by the same colorer, and the small instances are
told apart by the corpus catalog on their vertex-hyperedge incidence graphs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import combinations

from .corpus import _Catalog
from .decompose import monochromatic_parts
from .goodness import Budget, BudgetExceeded, _Colorer, chromatic_number
from .graphs import ColoredGraph, Graph, GraphError


@dataclass(frozen=True)
class Hypergraph3:
    """Hypergraph with (intended) 3-element edges and an optional 3-partition.

    The constructor checks only that every vertex is in range and that the
    parts are three disjoint classes; the property checkers below are the
    arbiters, so slightly malformed duals (non-6-regular hosts) can still be
    emitted with their failing flags reported.
    """

    n: int
    edges: tuple[frozenset[int], ...]
    parts: tuple[frozenset[int], frozenset[int], frozenset[int]] | None = None

    def __post_init__(self):
        if self.n < 0:
            raise GraphError("vertex count must be nonnegative")
        for s in [*self.edges, *(self.parts or ())]:
            if any(not 0 <= v < self.n for v in s):
                raise GraphError(f"vertex set {sorted(s)} has a vertex outside 0..{self.n - 1}")
        if self.parts is not None and (
            len(self.parts) != 3 or sum(map(len, self.parts)) != len(frozenset().union(*self.parts))
        ):
            raise GraphError("parts must be three disjoint classes")

    def is_three_uniform(self) -> bool:
        return all(len(e) == 3 for e in self.edges)

    def is_three_regular(self) -> bool:
        count = [0] * self.n
        for e in self.edges:
            for v in e:
                count[v] += 1
        return all(c == 3 for c in count)

    def is_linear(self) -> bool:
        for i in range(len(self.edges)):
            for j in range(i + 1, len(self.edges)):
                if len(self.edges[i] & self.edges[j]) > 1:
                    return False
        return True

    def is_three_partite(self) -> bool:
        parts = self.parts if self.parts is not None else find_three_partition(self)
        if parts is None:
            return False
        if sorted(v for p in parts for v in p) != list(range(self.n)):
            return False
        return all(all(len(e & p) == 1 for p in parts) for e in self.edges)

    def to_json(self) -> str:
        doc: dict = {"v": self.n, "edges": [sorted(e) for e in self.edges]}
        if self.parts is not None:
            doc["parts"] = [sorted(p) for p in self.parts]
        return json.dumps(doc)

    @classmethod
    def from_json(cls, text: str) -> "Hypergraph3":
        try:
            doc = json.loads(text)
        except (ValueError, RecursionError) as exc:  # JSONDecodeError, digit limit, nesting
            raise GraphError(f"invalid JSON: {exc}") from exc
        if not (isinstance(doc, dict) and "v" in doc and "edges" in doc):
            raise GraphError("a hypergraph document is an object with fields v and edges")
        n, parts = doc["v"], doc.get("parts")
        if type(n) is not int:
            raise GraphError(f"v must be an integer, not {n!r}")
        edges = _vertex_sets(doc["edges"], "edges")
        return cls(n, edges, None if parts is None else _vertex_sets(parts, "parts"))


def _vertex_sets(rows, name: str) -> tuple[frozenset[int], ...]:
    """A JSON list of integer lists as vertex sets; GraphError for anything else."""
    if not (isinstance(rows, list)
            and all(isinstance(r, list) and all(type(v) is int for v in r) for r in rows)):
        raise GraphError(f"{name} must be a list of lists of integers")
    return tuple(frozenset(r) for r in rows)


def find_three_partition(h: Hypergraph3):
    """A 3-partition meeting every edge once; None if there is none.

    For 3-element edges these are the proper 3-colorings of the 2-section,
    where two vertices are adjacent when they share an edge.
    """
    if not h.is_three_uniform():
        return None
    two_section = Graph.from_edges(h.n, {(u, v) for e in h.edges for u in e for v in e if u < v})
    colors = _Colorer(two_section).color(3)
    if colors is None:
        return None
    return tuple(frozenset(v for v in range(h.n) if colors[v] == p) for p in range(3))


@dataclass(frozen=True)
class TriangleDecomposition:
    host: ColoredGraph
    triangles: tuple[tuple[int, frozenset[int]], ...]


@dataclass(frozen=True)
class DecompositionResult:
    decomposition: TriangleDecomposition | None
    offending: tuple[int, frozenset[int]] | None  # (color, component) that is not a triangle


def detect_triangle_decomposition(cg: ColoredGraph) -> DecompositionResult:
    """Check that every monochromatic component is a triangle."""
    if cg.k != 3:
        raise GraphError("triangle decompositions are defined for 3-colored graphs")
    triangles = monochromatic_parts(cg)
    for c, comp in triangles:
        if len(comp) != 3 or any(cg.color.get(e) != c for e in combinations(sorted(comp), 2)):
            return DecompositionResult(None, (c, comp))
    return DecompositionResult(TriangleDecomposition(cg, tuple(triangles)), None)


@dataclass(frozen=True)
class DualReport:
    hypergraph: Hypergraph3
    three_uniform: bool
    three_regular: bool
    three_partite: bool
    linear: bool
    host_six_regular: bool


def build_dual(td: TriangleDecomposition) -> DualReport:
    """Dual hypergraph: vertices are triangles, hyperedges are host vertices.

    Each host vertex's set of incident triangles becomes one hyperedge; the
    3-partition is taken directly from the triangle colors.  A non-6-regular
    host yields a dual whose failing property flags are simply reported.
    """
    host = td.host.graph
    incident: list[list[int]] = [[] for _ in range(host.n)]
    for idx, (_, comp) in enumerate(td.triangles):
        for v in comp:
            incident[v].append(idx)
    edges = tuple(frozenset(tris) for tris in incident if tris)
    parts = tuple(
        frozenset(i for i, (c, _) in enumerate(td.triangles) if c == p) for p in range(3)
    )
    h = Hypergraph3(len(td.triangles), edges, parts)
    six_regular = all(host.degree(v) == 6 for v in range(host.n))
    return DualReport(
        h,
        h.is_three_uniform(),
        h.is_three_regular(),
        h.is_three_partite(),
        h.is_linear(),
        six_regular,
    )


def intersection_graph(h: Hypergraph3) -> Graph:
    """Graph on hyperedges, adjacent when they share a vertex."""
    m = len(h.edges)
    pairs = [
        (i, j) for i in range(m) for j in range(i + 1, m) if h.edges[i] & h.edges[j]
    ]
    return Graph.from_edges(m, pairs)


def chromatic_index(h: Hypergraph3, budget: Budget = Budget()) -> int | None:
    """Exact chromatic index; None when the search budget runs out.

    Intersecting hyperedges must differ in color, so this is the chromatic
    number of the intersection graph.
    """
    try:
        return chromatic_number(intersection_graph(h), budget)
    except BudgetExceeded:
        return None


@dataclass(frozen=True)
class SearchEntry:
    index: int
    valid: bool
    reason: str | None
    chi_index: int | None
    flagged: bool


def question25_search(corpus, budget: Budget = Budget()) -> list[SearchEntry]:
    """Per-instance chromatic index over a corpus; flags any instance above 5.

    Instances failing the 3-uniform / 3-regular / 3-partite / linear checks
    are skipped with the failing property named.
    """
    report = []
    for i, h in enumerate(corpus):
        reason = None
        for name, check in (
            ("3-uniform", h.is_three_uniform),
            ("3-regular", h.is_three_regular),
            ("3-partite", h.is_three_partite),
            ("linear", h.is_linear),
        ):
            if not check():
                reason = f"not {name}"
                break
        if reason is not None:
            report.append(SearchEntry(i, False, reason, None, False))
            continue
        chi = chromatic_index(h, budget)
        report.append(SearchEntry(i, True, None, chi, chi is not None and chi >= 6))
    return report


# ---------------------------------------------------------------------------
# Instance generation.

def generate_small_instances(max_edges: int = 9) -> list[Hypergraph3]:
    """All 3-uniform 3-regular 3-partite linear hypergraphs with <= max_edges
    hyperedges, up to isomorphism.

    Counting forces e = v and part sizes e/3, so candidate sizes are the
    multiples of 3.  Every labelled instance is listed, with edge triples in
    increasing order, and the first of each isomorphism class is kept: the
    catalog compares incidence graphs whose vertices and hyperedges keep
    their own colors.
    """
    out = []
    for e in range(3, max_edges + 1, 3):
        out.extend(_instances_with_edges(e))
    return out


def _instances_with_edges(e: int) -> list[Hypergraph3]:
    m = e // 3
    parts = [list(range(p * m, (p + 1) * m)) for p in range(3)]
    candidates = [
        (a, b, c) for a in parts[0] for b in parts[1] for c in parts[2]
    ]
    catalog = _Catalog()
    found: list[Hypergraph3] = []
    count = [0] * e
    # partner[v]: the vertices sharing a chosen triple with v, so a triple is
    # linear against every chosen one when none of its three pairs is a partner
    partner = [0] * e

    def toggle(a: int, b: int, c: int, step: int):
        """Add (step 1) or remove (step -1) the triple; linearity makes the
        three pairs new partners, so XOR sets and clears them alike."""
        count[a] += step
        count[b] += step
        count[c] += step
        partner[a] ^= 1 << b | 1 << c
        partner[b] ^= 1 << a | 1 << c
        partner[c] ^= 1 << a | 1 << b

    def extend(start: int, chosen: list):
        if len(chosen) == e:
            if all(c == 3 for c in count):
                h = Hypergraph3(
                    3 * m,
                    tuple(frozenset(t) for t in chosen),
                    tuple(frozenset(p) for p in parts),
                )
                if catalog.add(*_incidence(h)):
                    found.append(h)
            return
        remaining = e - len(chosen)
        if len(candidates) - start < remaining:
            return
        for i in range(start, len(candidates)):
            # the candidates come in blocks of m * m per part-0 vertex: once the
            # cursor has passed a block whose vertex is short of 3 triples, no
            # leaf is left below
            if i % (m * m) == 0 and i and count[i // (m * m) - 1] < 3:
                return
            tri = a, b, c = candidates[i]
            if count[a] == 3 or count[b] == 3 or count[c] == 3:
                continue
            if partner[a] >> b & 1 or partner[a] >> c & 1 or partner[b] >> c & 1:
                continue
            toggle(a, b, c, 1)
            chosen.append(tri)
            extend(i + 1, chosen)
            chosen.pop()
            toggle(a, b, c, -1)

    extend(0, [])
    return found


def _incidence(h: Hypergraph3) -> tuple[tuple[tuple[int, ...]], list[int]]:
    """The vertex-hyperedge incidence graph as one class of adjacency masks,
    with starting colors 0 for vertices and 1 for hyperedges.

    Two hypergraphs are isomorphic exactly when these colored graphs are.
    """
    masks = [0] * (h.n + len(h.edges))
    for i, e in enumerate(h.edges):
        for v in e:
            masks[v] |= 1 << (h.n + i)
            masks[h.n + i] |= 1 << v
    return (tuple(masks),), [0] * h.n + [1] * len(h.edges)


def build_triangle_host(m: int, shifts: tuple[int, int, int]) -> ColoredGraph:
    """A 6-regular host whose three color classes are perfect triangle partitions.

    Vertices are the cells (i, i+c mod m) of the cyclic Latin square of odd
    order m, for the three distinct shifts c; rows, columns, and symbols each
    group the cells into disjoint triangles (colors 0, 1, 2).
    """
    if m < 3 or m % 2 == 0:
        raise GraphError("the cyclic construction needs odd m >= 3")
    if len(set(shifts)) != 3 or any(not 0 <= c < m for c in shifts):
        raise GraphError("need three distinct shifts in 0..m-1")
    cells = [(i, (i + c) % m) for c in shifts for i in range(m)]
    index = {cell: idx for idx, cell in enumerate(cells)}
    color = {}
    edges = []

    def add_triangle(cell_triple, col):
        idx = sorted(index[c] for c in cell_triple)
        for a in range(3):
            for b in range(a + 1, 3):
                e = (idx[a], idx[b])
                if e in color:
                    raise GraphError("construction produced a doubly covered edge")
                color[e] = col
                edges.append(e)

    inv2 = pow(2, -1, m)
    for i in range(m):  # rows -> color 0
        add_triangle([(i, (i + c) % m) for c in shifts], 0)
    for j in range(m):  # columns -> color 1
        add_triangle([((j - c) % m, j) for c in shifts], 1)
    for s in range(m):  # symbols i+j = s -> color 2
        add_triangle([(((s - c) * inv2 % m), (((s - c) * inv2 + c) % m)) for c in shifts], 2)
    g = Graph.from_edges(len(cells), edges)
    return ColoredGraph(g, 3, color)
