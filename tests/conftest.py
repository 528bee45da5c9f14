"""Shared helpers: generated pipeline and lemma instances, a hyperedge-coloring
oracle and two path oracles."""

from __future__ import annotations

import random

from pathramsey.graphs import ColoredGraph, Graph
from pathramsey.hypergraphs import (
    Hypergraph3,
    build_dual,
    build_triangle_host,
    detect_triangle_decomposition,
)


def grid_coloring(rows: int, cols: int, seed: int | None = None) -> ColoredGraph:
    """Red row-cliques and blue column-cliques on a rows x cols vertex grid.

    Every monochromatic part is a clique with no oriented edges (main), every
    vertex lies in exactly one part per color, and the minimum degree is
    (rows - 1) + (cols - 1).  An optional seed relabels the vertices.
    """
    n = rows * cols
    relabel = list(range(n))
    if seed is not None:
        random.Random(seed).shuffle(relabel)
    color = {}
    for i in range(rows):
        row = [relabel[i * cols + j] for j in range(cols)]
        for a in range(cols):
            for b in range(a + 1, cols):
                u, v = sorted((row[a], row[b]))
                color[(u, v)] = 0
    for j in range(cols):
        col = [relabel[i * cols + j] for i in range(rows)]
        for a in range(rows):
            for b in range(a + 1, rows):
                u, v = sorted((col[a], col[b]))
                color[(u, v)] = 1
    return ColoredGraph(Graph.from_edges(n, color.keys()), 2, color)


def dual_of_cyclic_host(m: int, shifts: tuple[int, int, int]) -> Hypergraph3:
    """The dual hypergraph of `build_triangle_host(m, shifts)`."""
    host = build_triangle_host(m, shifts)
    return build_dual(detect_triangle_decomposition(host).decomposition).hypergraph


def _partitions(items: list):
    """Every partition of `items` into nonempty classes."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for p in _partitions(rest):
        yield [[first]] + p
        for i in range(len(p)):
            yield p[:i] + [[first] + p[i]] + p[i + 1:]


def enumerated_chromatic_index(edges) -> int:
    """Fewest color classes over every partition of the hyperedges into
    classes of pairwise disjoint hyperedges."""
    return min(
        len(p) for p in _partitions(list(edges))
        if all(not a & b for cls in p for i, a in enumerate(cls) for b in cls[i + 1:])
    )


def has_path(g, N: int) -> bool:
    """Plain depth-first search for a simple path on N vertices of a networkx graph."""
    def extend(v, seen):
        return len(seen) == N or any(
            extend(u, seen | {u}) for u in g[v] if u not in seen)

    return any(extend(v, {v}) for v in g)


def _path_through(adj: list[int] | tuple[int, ...], u: int, v: int, N: int) -> bool:
    """Is there a simple path on N vertices through edge u-v (through u if u == v)?

    adj holds adjacency bitmasks; u-v must be an edge when u != v.  Such a path
    is an arm from u plus an arm from v sharing only the base {u, v}.  Arms are
    searched depth-first over (end vertex, visited mask) states, each expanded
    once.  The u-arm masks are recorded by size beyond the base, and each new
    v-arm mask is checked once against the u-arm masks of the complementary
    size.  u goes first: edges are colored in lexicographic order, so u has the
    denser class neighborhood and a complete arm from it turns up soonest.
    """
    base = 1 << u | 1 << v
    need = N - 1 - (u != v)  # vertices beyond the base
    if need <= 0:
        return need == 0
    arms = [[base]] + [[] for _ in range(need - 1)]  # u-arm masks by size
    seen = {base: 1 << u}  # visited mask -> bitmask of arm ends reached with it
    stack = [(u, base, 1)]  # (end, mask, size of its children)
    while stack:
        end, mask, k = stack.pop()
        free = adj[end] & ~mask
        while free:
            bit = free & -free
            free ^= bit
            m = mask | bit
            ends = seen.get(m)
            if ends is None:
                if k == need:
                    return True
                seen[m] = bit
                arms[k].append(m)
            elif ends & bit:
                continue
            else:
                seen[m] = ends | bit
            stack.append((bit.bit_length() - 1, m, k + 1))
    seen = {base: 1 << v}
    stack = [(v, base, 1)]
    while stack:
        end, mask, k = stack.pop()
        free = adj[end] & ~mask
        fits = arms[need - k]
        while free:
            bit = free & -free
            free ^= bit
            m = mask | bit
            ends = seen.get(m)
            if ends is None:
                for other in fits:
                    if other & m == base:
                        return True
                seen[m] = bit
            elif ends & bit:
                continue
            else:
                seen[m] = ends | bit
            if k < need:
                stack.append((bit.bit_length() - 1, m, k + 1))
    return False


class StoppedClock:
    """A stand-in for the `time` module whose monotonic clock reads 0 for its
    first `frozen` readings and 100 s after, so a time budget runs out at a
    chosen reading whatever the speed of the host."""

    def __init__(self, frozen: int):
        self.frozen = frozen
        self.readings = 0

    def monotonic(self) -> float:
        self.readings += 1
        return 0.0 if self.readings <= self.frozen else 100.0


class TickingClock:
    """A stand-in for the `time` module whose monotonic clock advances one
    second per reading, so a time budget runs out at a chosen reading."""

    def __init__(self):
        self.readings = 0

    def monotonic(self) -> float:
        self.readings += 1
        return float(self.readings)


# Hypergraph documents that must be rejected, not coerced or truncated.
MALFORMED_HYPERGRAPHS = {
    "float-v": '{"v": 2.7, "edges": []}',
    "bool-v": '{"v": true, "edges": []}',
    "string-v": '{"v": "3", "edges": []}',
    "negative-v": '{"v": -1, "edges": []}',
    "float-vertex": '{"v": 3, "edges": [[0, 1, 2.9]]}',
    "string-vertex": '{"v": 3, "edges": [[0, 1, "1"]]}',
    "bool-vertex": '{"v": 3, "edges": [[0, 1, true]]}',
    "edge-not-a-list": '{"v": 3, "edges": [7]}',
    "part-out-of-range": '{"v": 3, "edges": [[0, 1, 2]], "parts": [[0], [1], [5]]}',
    "parts-overlap": '{"v": 3, "edges": [[0, 1, 2]], "parts": [[0, 1], [1], [2]]}',
    "two-parts": '{"v": 3, "edges": [[0, 1, 2]], "parts": [[0], [1, 2]]}',
    "not-an-object": "[1, 2]",
    "nesting": "[" * 100_000,
    "digits": "1" * 5000,
}
