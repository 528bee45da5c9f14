"""Isomorph-free enumeration of small graphs and k-colorings of K_n with a
hereditary property.

Orderly vertex-augmentation (`augment`): every graph arises from deleting a
minimum-degree vertex, so each level extends each parent by one vertex whose
neighbor set is no larger than the child's minimum degree.  That rule fixes the
sizes up front: a set of `size` neighbors can pass only if no parent vertex has
degree below `size - 1`, and only if it contains every parent vertex of degree
`size - 1`, so the sizes stop at the parent's minimum degree plus one and a
subset is rejected by one mask test.  A k-coloring of K_n is stored as its
first k-1 color classes; color 0 follows the orderly rule, and the other
colors split the rest of the new vertex's edges.  The property is "no P_N in
color c" for given orders N, and deleting a vertex keeps it, so pruning at
every level is sound and keeps the search space small: a new vertex only has
to avoid closing a path, which a table of the parent's path ends per color,
built once per parent, decides in a few mask operations.  Its cases are the
P_N-free graphs (`generate_pn_free`, one constrained color and its
complement) and the colorings of K_n avoiding path targets that
`goodness.verify_ramsey_value` lists.  Isomorph rejection refines each
candidate's Weisfeiler-Leman colors once, buckets by an invariant built from
them, and runs an exact backtracking isomorphism test, constrained by those
colors and keeping every color class, inside each bucket.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator, Sequence
from itertools import combinations

from .detect import PathEnds, closes_path, path_ends
from .graphs import Graph, graph6_encode, mask_components

Masks = tuple[int, ...]
Coloring = tuple[Masks, ...]  # adjacency masks per color class; a graph is one class


def _degrees(masks: Masks) -> list[int]:
    return [bin(m).count("1") for m in masks]


def _refine(classes: Coloring, start: list | None = None) -> list:
    """Vertex colors after three rounds of Weisfeiler-Leman refinement, or
    fewer once a round splits no color class.

    Colors start as `start`, or as degrees (per class) when it is None; each
    round a vertex's color becomes the rank of its signature, its color and
    the sorted colors of its neighbors in each class, among the graph's
    distinct signatures.  Ranks, not hashes, so colors are stable across
    processes.  Ranks are relative to one graph, so with a `start` each color
    is returned as a (start, rank) pair: a map that keeps these colors keeps
    the starting colors too.
    """
    n = len(classes[0])
    nbrs = [[[u for u in range(n) if m >> u & 1] for m in masks] for masks in classes]
    if start is not None:
        colors = start
    elif len(nbrs) == 1:  # plain degrees: the one-class case is the hot one
        colors = [len(vs) for vs in nbrs[0]]
    else:
        colors = [tuple(len(cls[v]) for cls in nbrs) for v in range(n)]
    count = 0
    for _ in range(3):
        seen = [[tuple(sorted(map(colors.__getitem__, vs))) for vs in cls] for cls in nbrs]
        signatures = list(zip(colors, *seen))
        palette = {sig: i for i, sig in enumerate(sorted(set(signatures)))}
        colors = [palette[sig] for sig in signatures]
        if len(palette) == count:  # another round would give these ranks again
            break
        count = len(palette)
    return colors if start is None else list(zip(start, colors))


def _invariant(classes: Coloring, colors: list) -> tuple:
    n = len(classes[0])
    out = [n]
    for masks in classes:
        triangles = 0
        for u in range(n):
            for v in range(u + 1, n):
                if masks[u] >> v & 1:
                    triangles += bin(masks[u] & masks[v]).count("1")
        out += [sum(_degrees(masks)) // 2, triangles // 3]
    return (*out, tuple(sorted(colors)))


def wl_fingerprint(masks: Masks) -> tuple:
    """Hash-free Weisfeiler-Leman style invariant: stable across processes."""
    return _invariant((masks,), _refine((masks,)))


def _isomorphic(g1: Coloring, c1: list, g2: Coloring, c2: list) -> bool:
    """Backtracking search for an isomorphism from g1 to g2 that keeps every
    color and every class.

    `c1` and `c2` are the colorings' `_refine` colors: isomorphic colorings get
    the same palette, so a color-preserving map exists whenever any map does.
    """
    n = len(g1[0])
    order = sorted(range(n), key=lambda v: (c1.count(c1[v]), c1[v]))
    image = [0] * n  # bit of each placed vertex's image

    def place(i: int, placed: int, used: int) -> bool:
        if i == n:
            return True
        v = order[i]
        # per class, the images of v's placed neighbors: w's placed neighbors must be these
        wanted = []
        for masks1, masks2 in zip(g1, g2):
            mapped = 0
            nbrs = masks1[v] & placed
            while nbrs:
                bit = nbrs & -nbrs
                nbrs ^= bit
                mapped |= image[bit.bit_length() - 1]
            wanted.append((masks2, mapped))
        for w in range(n):
            if used >> w & 1 or c2[w] != c1[v]:
                continue
            for masks2, mapped in wanted:
                if masks2[w] & used != mapped:
                    break
            else:
                image[v] = 1 << w
                if place(i + 1, placed | 1 << v, used | 1 << w):
                    return True
        return False

    return place(0, 0, 0)


def are_isomorphic(m1: Masks, m2: Masks) -> bool:
    """Exact isomorphism test via color-class constrained backtracking."""
    if len(m1) != len(m2):
        return False
    c1, c2 = _refine((m1,)), _refine((m2,))
    return sorted(c1) == sorted(c2) and _isomorphic((m1,), c1, (m2,), c2)


class _Catalog:
    """Isomorph-rejecting store of graphs and colorings (as class mask tuples).

    Each bucket entry keeps the refined colors, so every candidate is refined
    once, however many bucket entries it is compared against.  Items added
    with starting vertex colors are compared by maps that keep them.
    """

    def __init__(self):
        self.buckets: dict[tuple, list[tuple[Coloring, list]]] = {}
        self.items: list[Coloring] = []

    def add(self, classes: Coloring, start: list | None = None) -> bool:
        """Store the item unless an isomorphic one is stored; was it new?"""
        colors = _refine(classes, start)
        bucket = self.buckets.setdefault(_invariant(classes, colors), [])
        for seen, seen_colors in bucket:
            if _isomorphic(classes, colors, seen, seen_colors):
                return False
        bucket.append((classes, colors))
        self.items.append(classes)
        return True


_UNBOUNDED = PathEnds(False, 0, ())  # the table of a color with no path bound


def _splits(rest: int, tables: list[PathEnds], c: int,
            visit: Callable[[], None]) -> Iterator[tuple[int, ...]]:
    """The new vertex's edges to `rest` split over colors c and up, colors c
    to k-2 each taking a subset and the last color the rest, for every split
    that no color's table rejects; `visit` is called once per state."""
    if c == len(tables) - 1:
        visit()
        if not closes_path(tables[c], rest):
            yield (rest,)
        return
    s = rest
    while True:
        if closes_path(tables[c], s):
            visit()
        else:
            for split in _splits(rest & ~s, tables, c + 1, visit):
                yield (s,) + split
        if not s:
            break
        s = s - 1 & rest


def augment(orders: Sequence[int | None], max_vertices: int,
            visit: Callable[[], None] = lambda: None) -> Iterator[list[Coloring]]:
    """Every k-coloring of K_n with no path on orders[c] vertices in color c
    (None: no bound), up to isomorphism, for n = 1..max_vertices: one level per
    n, yielded as it is finished.  k = len(orders) >= 2; a coloring is its
    first k-1 classes.

    Color 0 takes the new vertex's neighbor set by the orderly rule, colors 1
    to k-2 each a subset of what is left, and the last color the rest.  Each
    choice is tested against its color's table of parent path ends; `visit`
    is called once per state, a choice that a table rejects or a full child.
    """
    k = len(orders)
    level: list[Coloring] = [((),) * (k - 1)]
    for n in range(max_vertices):
        full = (1 << n) - 1
        catalog = _Catalog()
        for parent in level:
            last = [full ^ 1 << v for v in range(n)]  # the last color's class
            for masks in parent:
                last = [m & ~c for m, c in zip(last, masks)]
            tables = [_UNBOUNDED if N is None else path_ends(masks, N)
                      for N, masks in zip(orders, parent + (last,))]
            degs = _degrees(parent[0])
            # the new vertex must realize the child's color-0 minimum degree:
            # every parent vertex keeps degree >= size, or reaches it by joining
            for size in range(min(n, min(degs, default=0) + 1) + 1):
                forced = sum(1 << v for v in range(n) if degs[v] == size - 1)
                for subset in combinations(range(n), size):
                    new = sum(1 << v for v in subset)
                    if forced & ~new:
                        continue
                    if closes_path(tables[0], new):
                        visit()
                        continue
                    for split in _splits(full & ~new, tables, 1, visit):
                        # the last color's set is implied by the others
                        catalog.add(tuple(
                            tuple(m | 1 << n if s >> v & 1 else m for v, m in enumerate(masks)) + (s,)
                            for masks, s in zip(parent, (new,) + split)))
        level = catalog.items
        yield level


def generate_pn_free(N: int, max_vertices: int) -> dict[int, list[Masks]]:
    """All P_N-free graphs (connected or not) up to isomorphism, by vertex count."""
    levels = augment((N, None), max_vertices)
    return {n: [classes[0] for classes in level] for n, level in enumerate(levels, start=1)}


def _is_connected(masks: Masks) -> bool:
    return len(next(mask_components(masks))) == len(masks)


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
