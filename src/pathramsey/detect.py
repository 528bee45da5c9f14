"""Exact detection of paths, cycles, and pendant substructures.

Everything here is exponential-time exact search over bitmask states; inputs
are desk scale (roughly <= 20 vertices) and correctness is the product.
P_N means a path on N vertices as a subgraph, never induced.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .graphs import Graph, GraphError, adjacency_masks


class PendantKind(Enum):
    PENDANT_EDGE = "edge"
    PENDANT_STAR = "star"
    PENDANT_TRIANGLE = "triangle"


class ComponentShape(Enum):
    STAR = "star"
    TRIANGLE = "triangle"


@dataclass(frozen=True)
class PendantStructure:
    """A pendant edge, star, or triangle hanging off its attach vertex."""

    kind: PendantKind
    attach: int
    members: frozenset[int]

    def edges(self, g: Graph) -> list[tuple[int, int]]:
        return [e for e in g.sorted_edges() if e[0] in self.members and e[1] in self.members]


def longest_path_order(g: Graph) -> int:
    """Number of vertices in a longest simple path (1 for edgeless graphs)."""
    if g.n == 0:
        return 0
    masks = adjacency_masks(g)
    best = 1
    # DFS over (last vertex, visited mask); seen-state set avoids re-expansion.
    seen = set()
    stack = [(v, 1 << v, 1) for v in range(g.n)]
    while stack:
        last, mask, length = stack.pop()
        if length > best:
            best = length
        free = masks[last] & ~mask
        while free:
            u = (free & -free).bit_length() - 1
            free &= free - 1
            state = (u, mask | (1 << u))
            if state not in seen:
                seen.add(state)
                stack.append((u, state[1], length + 1))
    return best


def find_path(g: Graph, N: int) -> list[int] | None:
    """A simple path on exactly N vertices, or None.  Early-exit DFS."""
    if N < 1:
        raise GraphError("path order must be positive")
    if N == 1:
        return [0] if g.n >= 1 else None
    masks = adjacency_masks(g)

    def extend(path: list[int], mask: int) -> list[int] | None:
        if len(path) == N:
            return path
        free = masks[path[-1]] & ~mask
        while free:
            u = (free & -free).bit_length() - 1
            free &= free - 1
            hit = extend(path + [u], mask | (1 << u))
            if hit is not None:
                return hit
        return None

    for v in range(g.n):
        hit = extend([v], 1 << v)
        if hit is not None:
            return hit
    return None


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


def is_pn_free(g: Graph, N: int) -> bool:
    """True iff g has no path on N vertices."""
    if N < 2:
        raise GraphError("P_N-freeness needs N >= 2")
    return find_path(g, N) is None


def longest_cycle(g: Graph) -> list[int] | None:
    """A longest cycle as an ordered vertex list, or None for forests.

    Ties break to the lexicographically least vertex sequence among canonical
    writings (cycle rooted at its smallest vertex, smaller neighbor second).
    """
    masks = adjacency_masks(g)
    best: list[int] | None = None

    def canonical(cyc: list[int]) -> list[int]:
        i = cyc.index(min(cyc))
        rot = cyc[i:] + cyc[:i]
        rev = [rot[0]] + rot[:0:-1]
        return min(rot, rev)

    def consider(cyc: list[int]):
        nonlocal best
        cand = canonical(cyc)
        if best is None or len(cand) > len(best) or (len(cand) == len(best) and cand < best):
            best = cand

    def extend(start: int, path: list[int], mask: int):
        last = path[-1]
        if len(path) >= 3 and masks[last] >> start & 1:
            consider(path)
        free = masks[last] & ~mask
        while free:
            u = (free & -free).bit_length() - 1
            free &= free - 1
            if u > start:  # root every cycle at its smallest vertex
                extend(start, path + [u], mask | (1 << u))

    for start in range(g.n):
        extend(start, [start], 1 << start)
    return best


def find_pendant_structures(g: Graph) -> list[PendantStructure]:
    """All maximal pendant stars, triangles, and edges, edge-disjoint.

    A structure is pendant only if its attach vertex has an edge outside it;
    a one-edge star counts as a pendant edge, and a pendant edge additionally
    requires its attach vertex to have a neighbor of degree >= 2 (so a star
    standing alone as a whole component yields nothing).
    """
    masks = adjacency_masks(g)
    deg = [bin(m).count("1") for m in masks]
    claimed: set[tuple[int, int]] = set()
    out: list[PendantStructure] = []

    def claim(members: frozenset[int]) -> list[tuple[int, int]]:
        es = [e for e in g.edges if e[0] in members and e[1] in members]
        claimed.update(es)
        return es

    # Pendant stars: center u whose neighbors are >= 2 leaves plus exactly one
    # attach vertex of degree >= 2 (the attach is a leaf of the star).
    for u in range(g.n):
        nbrs = [v for v in range(g.n) if masks[u] >> v & 1]
        leaves = [v for v in nbrs if deg[v] == 1]
        others = [v for v in nbrs if deg[v] >= 2]
        if len(leaves) >= 2 and len(others) == 1:
            attach = others[0]
            members = frozenset([u, attach, *leaves])
            out.append(PendantStructure(PendantKind.PENDANT_STAR, attach, members))
            claim(members)

    # Pendant triangles: exactly one corner has edges outside the triangle.
    for u, v in sorted(g.edges):
        if (u, v) in claimed:
            continue
        common = masks[u] & masks[v]
        while common:
            w = (common & -common).bit_length() - 1
            common &= common - 1
            tri = sorted((u, v, w))
            tri_edges = [(a, b) for a in tri for b in tri if a < b and g.has_edge(a, b)]
            outside = [x for x in tri if deg[x] > 2]
            if len(outside) == 1 and not any(e in claimed for e in tri_edges):
                attach = outside[0]
                members = frozenset(tri)
                out.append(PendantStructure(PendantKind.PENDANT_TRIANGLE, attach, members))
                claim(members)

    # Pendant edges: leaf edges whose attach still touches a degree->=2 vertex.
    for u, v in sorted(g.edges):
        if (u, v) in claimed:
            continue
        for leaf, attach in ((u, v), (v, u)):
            if deg[leaf] == 1 and deg[attach] >= 2:
                if any(masks[attach] >> w & 1 and deg[w] >= 2 for w in range(g.n)):
                    out.append(
                        PendantStructure(PendantKind.PENDANT_EDGE, attach, frozenset((leaf, attach)))
                    )
                    claimed.add((u, v))
                break

    out.sort(key=lambda s: (s.attach, sorted(s.members)))
    return out


def p4_free_shape(g: Graph) -> list[tuple[frozenset[int], ComponentShape]] | None:
    """Decompose a P4-free graph into star and triangle components, else None.

    The components of a P4-free graph are exactly stars and triangles; a
    single vertex or single edge counts as a (degenerate) star.
    """
    from .graphs import connected_components

    out = []
    for comp in connected_components(g):
        sub = g.subgraph(comp)
        m = len(sub.edges)
        if m == 3 and len(comp) == 3:
            out.append((comp, ComponentShape.TRIANGLE))
            continue
        degs = sorted(sub.degree(v) for v in range(sub.n))
        is_star = m == len(comp) - 1 and (len(comp) <= 2 or degs[-1] == len(comp) - 1)
        if is_star:
            out.append((comp, ComponentShape.STAR))
        else:
            return None
    return out
