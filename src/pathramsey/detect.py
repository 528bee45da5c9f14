"""Exact detection of paths, cycles, and pendant substructures.

Everything here is exponential-time exact search over bitmask states; inputs
are desk scale (roughly <= 20 vertices) and correctness is the product.
P_N means a path on N vertices as a subgraph, never induced.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

from .graphs import Graph, GraphError, adjacency_masks, connected_components


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
    _, layers = _graph_layers(g, g.n)
    return sum(1 for layer in layers if layer)


def find_path(g: Graph, N: int) -> list[int] | None:
    """A simple path on exactly N vertices, or None.

    Walks back through the path layers from any path on N vertices: the
    vertex before end v is an end, adjacent to v, of the paths on the same
    vertex set less v.
    """
    if N < 1:
        raise GraphError("path order must be positive")
    masks, layers = _graph_layers(g, N)
    if len(layers) < N or not layers[N - 1]:
        return None
    mask, ends = next(iter(layers[N - 1].items()))
    v = (ends & -ends).bit_length() - 1
    path = [v]
    for layer in reversed(layers[:N - 1]):
        mask ^= 1 << v
        ends = layer[mask] & masks[v]
        v = (ends & -ends).bit_length() - 1
        path.append(v)
    return path


# the graph last searched by `_graph_layers`, its adjacency masks and its path layers
_recent: tuple[Graph, tuple[int, ...], list[dict[int, int]]] | None = None


def _graph_layers(g: Graph, count: int) -> tuple[tuple[int, ...], list[dict[int, int]]]:
    """g's adjacency masks and `_path_layers` on at least min(count, g.n) layers.

    The table of the graph object last searched is kept and extended, so
    consecutive questions about one graph build each layer once; a search of
    another graph drops it.  Each call extends its own copy of the list of
    layers, and no layer changes once built, so concurrent calls stay exact.
    """
    global _recent
    recent = _recent
    if recent is not None and recent[0] is g:
        masks, layers = recent[1], list(recent[2])
    else:
        masks, layers = adjacency_masks(g), []
    _path_layers(masks, count, layers)
    _recent = (g, masks, layers)
    return masks, layers


def _path_layers(adj: list[int] | tuple[int, ...], count: int,
                 layers: list[dict[int, int]]) -> list[dict[int, int]]:
    """Every simple path on up to `count` vertices, but never more than the graph has.

    layers[i] maps the vertex set of each path on i+1 vertices to the bitmask
    of the ends those paths reach; layers past the longest path are empty.
    `layers` holds the first layers, none at the start, and is extended in place.
    """
    if not layers:
        layers.append({1 << v: 1 << v for v in range(len(adj))})
    for _ in range(min(count, len(adj)) - len(layers)):
        grown: dict[int, int] = {}
        for mask, ends in layers[-1].items():
            reach = 0
            while ends:
                end = ends & -ends
                ends ^= end
                reach |= adj[end.bit_length() - 1]
            reach &= ~mask
            while reach:
                bit = reach & -reach
                reach ^= bit
                m = mask | bit
                grown[m] = grown.get(m, 0) | bit
        layers.append(grown)
    return layers


class PathEnds(NamedTuple):
    """Where a new vertex joined to a graph closes a path on N vertices (`path_ends`)."""

    always: bool  # N == 1: the new vertex is such a path by itself
    single: int  # ends of paths on N-1 vertices
    pairs: tuple[tuple[int, int], ...]  # (x bit, y mask): ends of disjoint paths, N-1 vertices in all


_BITSET_MAX_VERTICES = 12  # `path_ends` uses bitset tables up to this many vertices


def path_ends(adj: list[int] | tuple[int, ...], N: int) -> PathEnds:
    """The path ends of a graph that a new vertex can join into a path on N vertices.

    A new vertex with neighbor set S lies on such a path exactly when it is the
    end of one, S meeting `single`, or when it joins two disjoint paths on N-1
    vertices in total, S holding both ends; `closes_path` tests both.  The
    paths run to N-1 vertices, and `single` is every end of the longest.
    Pairs are kept only for ends outside `single`: a vertex set that meets
    `single` closes a path anyway.  Graphs on at most `_BITSET_MAX_VERTICES`
    vertices get `_bitset_ends`, larger ones the path layers: on large sparse
    graphs few of the 2^n vertex sets hold a path, and the layers list only those.
    """
    n = len(adj)
    if N <= 1:
        return PathEnds(True, 0, ())
    if n < N - 1:
        return PathEnds(False, 0, ())
    return _bitset_ends(adj, N) if n <= _BITSET_MAX_VERTICES else _layered_ends(adj, N)


def _layered_ends(adj: list[int] | tuple[int, ...], N: int) -> PathEnds:
    """`path_ends` for 2 <= N <= n+1 from the path layers: the ends of two
    layers pair up when two of their vertex sets are disjoint."""
    n = len(adj)
    layers = _path_layers(adj, N - 1, [])
    single = 0
    for ends in layers[-1].values():
        single |= ends
    pair = [0] * n
    for a in range(1, (N - 1) // 2 + 1):  # a vertices on one side, N-1-a on the other
        short = [(m, e & ~single) for m, e in layers[a - 1].items() if e & ~single]
        long = [(m, e & ~single) for m, e in layers[N - 2 - a].items() if e & ~single]
        for ma, ea in short:
            ys = 0
            for mb, eb in long:
                if not ma & mb:
                    ys |= eb
            if ys:
                for x in _bits(ea):
                    pair[x] |= ys
                for y in _bits(ys):
                    pair[y] |= ea
    return PathEnds(False, single, tuple((1 << x, ys) for x, ys in enumerate(pair) if ys))


# per n, per vertex y: the 2^n-bit set of the vertex sets that miss y
_WITHOUT: dict[int, tuple[int, ...]] = {}
_REVERSED_BYTES = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))


def _without(n: int) -> tuple[int, ...]:
    masks = _WITHOUT.get(n)
    if masks is None:
        out = []
        for y in range(n):
            pattern, width = (1 << (1 << y)) - 1, 2 << y  # sets below 2^y, then a gap
            while width < 1 << n:
                pattern |= pattern << width
                width <<= 1
            out.append(pattern)
        masks = _WITHOUT[n] = tuple(out)
    return masks


def _complements(sets: int, n: int) -> int:
    """The 2^n-bit set of the complements of `sets`: bit m moves to bit
    2^n - 1 - m, which reverses the bit string."""
    width = 1 << n
    size = (width + 7) // 8
    flipped = sets.to_bytes(size, "little").translate(_REVERSED_BYTES)[::-1]
    return int.from_bytes(flipped, "little") >> 8 * size - width


def _bitset_ends(adj: list[int] | tuple[int, ...], N: int) -> PathEnds:
    """`path_ends` for 2 <= N <= n+1, by one 2^n-bit set per end.

    front[x] has bit m set when a path with vertex set m ends at x; a round
    extends every path by one vertex y past its end, so front[y] becomes the
    union of front[x] over the neighbors x of y, less the sets that hold y,
    each with y added: a shift by 2^y.  After N-2 rounds the fronts hold the
    paths on N-1 vertices.  Ends x and y outside `single` pair up when a path
    ending at x and a disjoint one ending at y have N-1 vertices in all, each
    at most N-2: when `seen[y]`, the sets of the shorter paths ending at y,
    meets the complements of the sets of `seen[x]` grown by exactly
    n - (N-1) vertices, which keeps the total at N-1.
    """
    n = len(adj)
    without = _without(n)
    nbrs = [_bits(m) for m in adj]
    front = [1 << (1 << x) for x in range(n)]
    seen = front[:]
    for r in range(N - 2):
        grown = []
        for y, xs in enumerate(nbrs):
            reach = 0
            for x in xs:
                reach |= front[x]
            grown.append((reach & without[y]) << (1 << y))
        front = grown
        if not any(front):  # no longer paths: the later rounds add nothing
            break
        if r < N - 3:
            seen = [s | f for s, f in zip(seen, front)]
    single = sum(1 << y for y, f in enumerate(front) if f)
    outside = [x for x in range(n) if not single >> x & 1]
    pair = [0] * n
    for i, x in enumerate(outside[:-1]):
        grown = seen[x]
        for _ in range(n - (N - 1)):
            step = 0
            for y, w in enumerate(without):
                step |= (grown & w) << (1 << y)
            grown = step
        fits = _complements(grown, n)
        for y in outside[i + 1:]:
            if fits & seen[y]:
                pair[x] |= 1 << y
                pair[y] |= 1 << x
    return PathEnds(False, single, tuple((1 << x, ys) for x, ys in enumerate(pair) if ys))


def closes_path(ends: PathEnds, S: int) -> bool:
    """Does a new vertex with neighbor set S lie on a path on N vertices?"""
    if ends.always or S & ends.single:
        return True
    for x, ys in ends.pairs:
        if S & x and S & ys:
            return True
    return False


def _bits(mask: int) -> list[int]:
    """The set bits of a mask, lowest first."""
    out = []
    while mask:
        bit = mask & -mask
        mask ^= bit
        out.append(bit.bit_length() - 1)
    return out


def is_path_shape(h: Graph) -> int | None:
    """If h is a path, its vertex count, else None."""
    if h.n >= 1 and len(h.edges) == h.n - 1 and longest_path_order(h) == h.n:
        return h.n
    return None


def is_star_shape(h: Graph) -> int | None:
    """If h is a star on >= 2 vertices (a K2 counts), its vertex count."""
    if h.n >= 2 and len(h.edges) == h.n - 1:
        degs = sorted(h.degree(v) for v in range(h.n))
        if h.n == 2 or degs[-1] == h.n - 1:
            return h.n
    return None


def contains_subgraph(g: Graph, h: Graph) -> bool:
    """Does g contain h as a (not necessarily induced) subgraph?"""
    return _contains(adjacency_masks(g), h)


def _contains(masks: tuple[int, ...], h: Graph) -> bool:
    """`contains_subgraph` for a graph given by its adjacency masks: a star
    by its center's degree, any other h by placing its vertices, highest
    degree first, each on a free vertex adjacent to the images of its placed
    neighbors."""
    n_star = is_star_shape(h)
    if n_star is not None:
        return any(m.bit_count() >= n_star - 1 for m in masks)
    hm = adjacency_masks(h)
    order = sorted(range(h.n), key=lambda v: -hm[v].bit_count())
    image = [0] * h.n  # the vertex of g each placed vertex of h maps to

    def place(i: int, placed: int, used: int) -> bool:
        if i == h.n:
            return True
        v = order[i]
        free = (1 << len(masks)) - 1 & ~used
        for u in _bits(hm[v] & placed):
            free &= masks[image[u]]
        for w in _bits(free):
            image[v] = w
            if place(i + 1, placed | 1 << v, used | 1 << w):
                return True
        return False

    return place(0, 0, 0)


def is_pn_free(g: Graph, N: int) -> bool:
    """True iff g has no path on N vertices."""
    if N < 2:
        raise GraphError("P_N-freeness needs N >= 2")
    return find_path(g, N) is None


def longest_cycle(g: Graph) -> list[int] | None:
    """A longest cycle as an ordered vertex list, or None for forests.

    Ties break to the lexicographically least vertex sequence among canonical
    writings (cycle rooted at its smallest vertex, smaller neighbor second).
    The search roots each cycle at its smallest vertex, tries the roots and
    then each path's next vertices in increasing order, and extends a path
    before it tries the next one, so it meets the writings in lexicographic
    order.  It keeps a path that closes a cycle longer than the one kept so
    far: the first writing of each length it meets, the least, which is
    canonical, as a cycle's canonical writing is the lesser of its two.
    """
    masks = adjacency_masks(g)
    best: list[int] = []

    def extend(start: int, path: list[int], mask: int):
        nonlocal best
        last = path[-1]
        if len(path) > max(len(best), 2) and masks[last] >> start & 1:
            best = path
        free = masks[last] & ~mask
        while free:
            u = (free & -free).bit_length() - 1
            free &= free - 1
            extend(start, path + [u], mask | 1 << u)

    for start in range(g.n):
        extend(start, [start], (2 << start) - 1)  # only vertices above the root join
    return best or None


def find_pendant_structures(g: Graph) -> list[PendantStructure]:
    """All maximal pendant stars, triangles, and edges, sorted by (attach, members).

    A center is a vertex of degree >= 3 with exactly one neighbor of degree
    >= 2, its attach; its star is the center and all its neighbors.  A
    triangle is pendant when exactly one corner, its attach, has degree > 2.
    A pendant edge joins a leaf to an attach that is not a center and has a
    neighbor of degree >= 2 (so a star standing alone as a whole component
    yields nothing).  One pass over the vertices finds them all, with no set
    of claimed edges: a leaf lies on no triangle; a center's neighbors other
    than its attach are leaves, so no triangle uses a star edge; and a
    center's leaf edges belong to its star.  The structures are edge-disjoint
    but for a double star, two adjacent centers each with two or more leaves,
    whose two stars both hold the middle edge.
    """
    masks = adjacency_masks(g)
    deg = [m.bit_count() for m in masks]
    inner = sum(1 << v for v, d in enumerate(deg) if d >= 2)

    def center(u: int) -> bool:
        return deg[u] >= 3 and (masks[u] & inner).bit_count() == 1

    found = []
    for u, m in enumerate(masks):
        if center(u):
            found.append((PendantKind.PENDANT_STAR, (m & inner).bit_length() - 1, [u, *_bits(m)]))
        elif deg[u] == 2:
            v, w = _bits(m)
            high = [x for x in (v, w) if deg[x] > 2]
            # a triangle is found once, from the lower of its two corners of degree 2
            if masks[v] >> w & 1 and len(high) == 1 and u < v + w - high[0]:
                found.append((PendantKind.PENDANT_TRIANGLE, high[0], [u, v, w]))
        elif deg[u] == 1:
            attach = m.bit_length() - 1
            if masks[attach] & inner and not center(attach):
                found.append((PendantKind.PENDANT_EDGE, attach, [u, attach]))
    found.sort(key=lambda f: (f[1], sorted(f[2])))
    return [PendantStructure(kind, attach, frozenset(members)) for kind, attach, members in found]


def p4_free_shape(g: Graph) -> list[tuple[frozenset[int], ComponentShape]] | None:
    """Decompose a P4-free graph into star and triangle components, else None.

    The components of a P4-free graph are exactly stars and triangles; a
    single vertex or single edge counts as a (degenerate) star.
    """
    out = []
    for comp in connected_components(g):
        sub = g.subgraph(comp)
        if len(comp) == 3 and len(sub.edges) == 3:
            out.append((comp, ComponentShape.TRIANGLE))
        elif len(comp) == 1 or is_star_shape(sub):
            out.append((comp, ComponentShape.STAR))
        else:
            return None
    return out
