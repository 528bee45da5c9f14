"""Isomorph-free enumeration of small path-free graphs.

Orderly vertex-augmentation: every graph arises from deleting a minimum-degree
vertex, so each level extends each parent by one vertex whose neighbor set is
no larger than the child's minimum degree.  Path-freeness is hereditary, so
pruning at every level keeps the search space small.  Isomorph rejection uses
a Weisfeiler-Leman fingerprint for bucketing plus an exact backtracking
isomorphism test inside each bucket.
"""

from __future__ import annotations

from itertools import combinations

from .detect import _path_through
from .graphs import Graph, graph6_encode

Masks = tuple[int, ...]


def _degrees(masks: Masks) -> list[int]:
    return [bin(m).count("1") for m in masks]


def wl_fingerprint(masks: Masks, rounds: int = 3) -> tuple:
    """Hash-free Weisfeiler-Leman style invariant: stable across processes."""
    n = len(masks)
    colors = _degrees(masks)
    for _ in range(rounds):
        signatures = []
        for v in range(n):
            nbr = sorted(colors[u] for u in range(n) if masks[v] >> u & 1)
            signatures.append((colors[v], tuple(nbr)))
        palette = {sig: i for i, sig in enumerate(sorted(set(signatures)))}
        colors = [palette[sig] for sig in signatures]
    edge_count = sum(_degrees(masks)) // 2
    triangles = 0
    for u in range(n):
        for v in range(u + 1, n):
            if masks[u] >> v & 1:
                triangles += bin(masks[u] & masks[v]).count("1")
    return (n, edge_count, triangles // 3, tuple(sorted(colors)))


def are_isomorphic(m1: Masks, m2: Masks) -> bool:
    """Exact isomorphism test via color-class constrained backtracking."""
    n = len(m1)
    if len(m2) != n:
        return False

    def classes(masks: Masks) -> list[tuple]:
        colors = _degrees(masks)
        for _ in range(3):
            signatures = []
            for v in range(n):
                nbr = sorted(colors[u] for u in range(n) if masks[v] >> u & 1)
                signatures.append((colors[v], tuple(nbr)))
            palette = {sig: i for i, sig in enumerate(sorted(set(signatures)))}
            colors = [palette[sig] for sig in signatures]
        return colors

    c1, c2 = classes(m1), classes(m2)
    if sorted(c1) != sorted(c2):
        return False
    order = sorted(range(n), key=lambda v: (c1.count(c1[v]), c1[v]))
    image = [-1] * n
    used = 0

    def place(i: int) -> bool:
        nonlocal used
        if i == n:
            return True
        v = order[i]
        for w in range(n):
            if used >> w & 1 or c2[w] != c1[v]:
                continue
            ok = True
            for j in range(i):
                u = order[j]
                if bool(m1[v] >> u & 1) != bool(m2[w] >> image[u] & 1):
                    ok = False
                    break
            if ok:
                image[v] = w
                used |= 1 << w
                if place(i + 1):
                    return True
                used &= ~(1 << w)
                image[v] = -1
        return False

    return place(0)


class _Catalog:
    """Isomorph-rejecting store of graphs (as adjacency mask tuples)."""

    def __init__(self):
        self.buckets: dict[tuple, list[Masks]] = {}
        self.items: list[Masks] = []

    def add(self, masks: Masks) -> bool:
        key = wl_fingerprint(masks)
        bucket = self.buckets.setdefault(key, [])
        for seen in bucket:
            if are_isomorphic(masks, seen):
                return False
        bucket.append(masks)
        self.items.append(masks)
        return True


def generate_pn_free(N: int, max_vertices: int) -> dict[int, list[Masks]]:
    """All P_N-free graphs (connected or not) up to isomorphism, by vertex count."""
    levels: dict[int, list[Masks]] = {1: [(0,)]}
    for n in range(1, max_vertices):
        catalog = _Catalog()
        for parent in levels[n]:
            degs = _degrees(parent)
            for size in range(0, n + 1):
                for subset in combinations(range(n), size):
                    # the new vertex must realize the child's minimum degree
                    sset = set(subset)
                    child_min = min(
                        (degs[v] + (1 if v in sset else 0) for v in range(n)),
                        default=size,
                    )
                    if size > child_min:
                        continue
                    child = list(parent) + [0]
                    for v in subset:
                        child[v] |= 1 << n
                        child[n] |= 1 << v
                    child_t = tuple(child)
                    if not size or not _path_through(child_t, n, n, N):
                        catalog.add(child_t)
        levels[n + 1] = catalog.items
    return levels


def _is_connected(masks: Masks) -> bool:
    n = len(masks)
    seen = 1
    stack = [0]
    while stack:
        v = stack.pop()
        free = masks[v] & ~seen
        while free:
            u = (free & -free).bit_length() - 1
            free &= free - 1
            seen |= 1 << u
            stack.append(u)
    return seen == (1 << n) - 1


def masks_to_graph(masks: Masks) -> Graph:
    n = len(masks)
    return Graph.from_edges(
        n, [(u, v) for u in range(n) for v in range(u + 1, n) if masks[u] >> v & 1]
    )


def connected_pn_free_graph6(N: int, max_vertices: int) -> list[str]:
    """graph6 lines for all connected P_N-free graphs on <= max_vertices vertices."""
    lines = []
    levels = generate_pn_free(N, max_vertices)
    for n in sorted(levels):
        for masks in levels[n]:
            if _is_connected(masks):
                lines.append(graph6_encode(masks_to_graph(masks)))
    return lines
