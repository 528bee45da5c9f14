"""Isomorph-free enumeration of small graphs with a hereditary property.

Orderly vertex-augmentation (`augment`): every graph arises from deleting a
minimum-degree vertex, so each level extends each parent by one vertex whose
neighbor set is no larger than the child's minimum degree.  That rule fixes the
sizes up front: a set of `size` neighbors can pass only if no parent vertex has
degree below `size - 1`, and only if it contains every parent vertex of degree
`size - 1`, so the sizes stop at the parent's minimum degree plus one and a
subset is rejected by one mask test.  Deleting a vertex keeps a hereditary
property, so pruning at every level is sound and keeps the search space small.
Two properties use it: P_N-freeness (`generate_pn_free`), and "no P_a, and no
P_b in the complement", whose levels are the 2-colorings of K_n avoiding
(P_a, P_b) that `goodness.verify_ramsey_value` lists.  Isomorph rejection
refines each candidate's Weisfeiler-Leman colors once, buckets by an invariant
built from them, and runs an exact backtracking isomorphism test, constrained
by those colors, inside each bucket.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from itertools import combinations

from .detect import _path_through
from .graphs import Graph, graph6_encode

Masks = tuple[int, ...]


def _degrees(masks: Masks) -> list[int]:
    return [bin(m).count("1") for m in masks]


def _refine(masks: Masks, start: list[int] | None = None) -> list:
    """Vertex colors after three rounds of Weisfeiler-Leman refinement.

    Colors start as `start`, or as degrees when it is None; each round a
    vertex's color becomes the rank of its (color, sorted neighbor colors)
    signature among the graph's distinct signatures.  Ranks, not hashes, so
    colors are stable across processes.  Ranks are relative to one graph, so
    with a `start` each color is returned as a (start, rank) pair: a map that
    keeps these colors keeps the starting colors too.
    """
    n = len(masks)
    nbrs = [[u for u in range(n) if m >> u & 1] for m in masks]
    colors = [len(vs) for vs in nbrs] if start is None else start
    for _ in range(3):
        signatures = [(colors[v], tuple(sorted([colors[u] for u in nbrs[v]]))) for v in range(n)]
        palette = {sig: i for i, sig in enumerate(sorted(set(signatures)))}
        colors = [palette[sig] for sig in signatures]
    return colors if start is None else list(zip(start, colors))


def _invariant(masks: Masks, colors: list) -> tuple:
    n = len(masks)
    triangles = 0
    for u in range(n):
        for v in range(u + 1, n):
            if masks[u] >> v & 1:
                triangles += bin(masks[u] & masks[v]).count("1")
    return (n, sum(_degrees(masks)) // 2, triangles // 3, tuple(sorted(colors)))


def wl_fingerprint(masks: Masks) -> tuple:
    """Hash-free Weisfeiler-Leman style invariant: stable across processes."""
    return _invariant(masks, _refine(masks))


def _isomorphic(m1: Masks, c1: list, m2: Masks, c2: list) -> bool:
    """Backtracking search for an isomorphism from m1 to m2 that keeps every color.

    `c1` and `c2` are the graphs' `_refine` colors: isomorphic graphs get the
    same palette, so a color-preserving map exists whenever any map does.
    """
    n = len(m1)
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


def are_isomorphic(m1: Masks, m2: Masks) -> bool:
    """Exact isomorphism test via color-class constrained backtracking."""
    if len(m1) != len(m2):
        return False
    c1, c2 = _refine(m1), _refine(m2)
    return sorted(c1) == sorted(c2) and _isomorphic(m1, c1, m2, c2)


class _Catalog:
    """Isomorph-rejecting store of graphs (as adjacency mask tuples).

    Each bucket entry keeps the graph's refined colors, so every candidate is
    refined once, however many bucket entries it is compared against.  Graphs
    added with starting vertex colors are compared by maps that keep them.
    """

    def __init__(self):
        self.buckets: dict[tuple, list[tuple[Masks, list]]] = {}
        self.items: list[Masks] = []

    def add(self, masks: Masks, start: list[int] | None = None) -> bool:
        """Store the graph unless an isomorphic one is stored; was it new?"""
        colors = _refine(masks, start)
        bucket = self.buckets.setdefault(_invariant(masks, colors), [])
        for seen, seen_colors in bucket:
            if _isomorphic(masks, colors, seen, seen_colors):
                return False
        bucket.append((masks, colors))
        self.items.append(masks)
        return True


def augment(keep: Callable[[Masks], bool], max_vertices: int) -> Iterator[list[Masks]]:
    """Every graph on n vertices with a hereditary property, up to isomorphism,
    for n = 1..max_vertices: one level per n, yielded as it is finished.

    `keep(child)` decides the property for a candidate whose last vertex is the
    new one.  Its parent, the child without that vertex, has the property, so
    `keep` need only look for what the new vertex adds.
    """
    level: list[Masks] = [()]
    for n in range(max_vertices):
        catalog = _Catalog()
        for parent in level:
            degs = _degrees(parent)
            # the new vertex must realize the child's minimum degree: every
            # parent vertex keeps degree >= size, or reaches it by joining
            for size in range(min(n, min(degs, default=0) + 1) + 1):
                forced = sum(1 << v for v in range(n) if degs[v] == size - 1)
                for subset in combinations(range(n), size):
                    new = sum(1 << v for v in subset)
                    if forced & ~new:
                        continue
                    child = [m | 1 << n if new >> v & 1 else m for v, m in enumerate(parent)]
                    child.append(new)
                    child_t = tuple(child)
                    if keep(child_t):
                        catalog.add(child_t)
        level = catalog.items
        yield level


def contains_path_at_last(masks: Masks, N: int) -> bool:
    """Is there a path on N vertices through the last vertex?

    A graph with fewer than N vertices has none, so the kernel is skipped there.
    """
    v = len(masks) - 1
    return len(masks) >= N and _path_through(masks, v, v, N)


def generate_pn_free(N: int, max_vertices: int) -> dict[int, list[Masks]]:
    """All P_N-free graphs (connected or not) up to isomorphism, by vertex count."""
    def keep(masks: Masks) -> bool:
        return not contains_path_at_last(masks, N)

    return dict(enumerate(augment(keep, max_vertices), start=1))


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
