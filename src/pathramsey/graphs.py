"""Core data model: simple graphs, edge colorings, partial orientations, multigraphs.

Vertices are dense integer indices 0..n-1.  Edges are stored as sorted pairs so
that colorings and orientations can be hashed and compared canonically.  All
values are immutable after construction; builders validate their invariants up
front and raise :class:`GraphError` on malformed input.
"""

from __future__ import annotations

import functools
import json
import weakref
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

UNORIENTED = 0
FORWARD = 1   # first-listed (smaller) endpoint -> second
BACKWARD = 2  # second endpoint -> first


class GraphError(ValueError):
    """Raised when a graph value or operation violates an invariant."""


def edge_key(u: int, v: int) -> tuple[int, int]:
    """Normalize an unordered pair to a sorted tuple."""
    if u == v:
        raise GraphError(f"self-loop at vertex {u}")
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices 0..n-1."""

    n: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        if self.n < 0:
            raise GraphError("vertex count must be nonnegative")
        for u, v in self.edges:
            if not (0 <= u < v < self.n):
                raise GraphError(f"bad edge ({u}, {v}) for n={self.n}")

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[Sequence[int]]) -> "Graph":
        return cls(n, frozenset(edge_key(u, v) for u, v in edges))

    def sorted_edges(self) -> list[tuple[int, int]]:
        return sorted(self.edges)

    def has_edge(self, u: int, v: int) -> bool:
        return edge_key(u, v) in self.edges

    def degree(self, v: int) -> int:
        return adjacency_masks(self)[v].bit_count()

    def neighbors(self, v: int) -> list[int]:
        return [u for u in range(self.n) if u != v and self.has_edge(u, v)]

    def subgraph(self, vertices: Iterable[int]) -> "Graph":
        """Induced subgraph, reindexed to 0..len(vertices)-1 in sorted order."""
        vs = sorted(set(vertices))
        index = {v: i for i, v in enumerate(vs)}
        keep = [(index[u], index[v]) for u, v in self.edges if u in index and v in index]
        return Graph.from_edges(len(vs), keep)


class CacheInfo(NamedTuple):
    hits: int
    misses: int


class _PerGraph:
    """Memoise a function of one graph for exactly as long as the graph lives.

    Entries are keyed weakly, so the cache never keeps a graph alive, and by
    equality, so equal graphs share one entry while the first of them lives.
    ``cache_info()`` and ``cache_clear()`` read and reset it as they would an
    ``lru_cache``.
    """

    def __init__(self, fn: Callable[[Graph], tuple[int, ...]]):
        self._fn = fn
        self._memo: weakref.WeakKeyDictionary[Graph, tuple[int, ...]] = weakref.WeakKeyDictionary()
        self._hits = self._misses = 0
        functools.update_wrapper(self, fn)

    def __call__(self, g: Graph) -> tuple[int, ...]:
        try:
            value = self._memo[g]
        except KeyError:
            self._misses += 1
            value = self._memo[g] = self._fn(g)
        else:
            self._hits += 1
        return value

    def cache_info(self) -> CacheInfo:
        return CacheInfo(self._hits, self._misses)

    def cache_clear(self) -> None:
        self._memo.clear()
        self._hits = self._misses = 0


@_PerGraph
def adjacency_masks(g: Graph) -> tuple[int, ...]:
    """Per-vertex neighbor bitmasks; the workhorse for the exact searches."""
    masks = [0] * g.n
    for u, v in g.edges:
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    return tuple(masks)


def complete_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def path_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise GraphError("cycle needs at least 3 vertices")
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def star_graph(n: int) -> Graph:
    """Star on n vertices: center 0, leaves 1..n-1."""
    return Graph.from_edges(n, [(0, i) for i in range(1, n)])


@dataclass(frozen=True, eq=True)
class ColoredGraph:
    """Graph with a total k-coloring of its edges."""

    graph: Graph
    k: int
    color: Mapping[tuple[int, int], int] = field(hash=False)

    def __post_init__(self):
        if self.k < 1:
            raise GraphError("need at least one color")
        if set(self.color) != set(self.graph.edges):
            raise GraphError("coloring must assign exactly the edges of the graph")
        for e, c in self.color.items():
            if not (0 <= c < self.k):
                raise GraphError(f"edge {e} has color {c} outside 0..{self.k - 1}")

    def __hash__(self):
        return hash((self.graph, self.k, tuple(sorted(self.color.items()))))


@dataclass(frozen=True, eq=True)
class PartialOrientation:
    """Per-edge orientation marks overlaid on a colored graph.

    ``mark[e] == FORWARD`` means the smaller endpoint of e points to the larger.
    """

    base: ColoredGraph
    mark: Mapping[tuple[int, int], int] = field(hash=False)

    def __post_init__(self):
        if set(self.mark) != set(self.base.graph.edges):
            raise GraphError("marks must cover exactly the edges of the base graph")
        for e, m in self.mark.items():
            if m not in (UNORIENTED, FORWARD, BACKWARD):
                raise GraphError(f"edge {e} has invalid mark {m}")

    def __hash__(self):
        return hash((self.base, tuple(sorted(self.mark.items()))))

    def head(self, e: tuple[int, int]) -> int | None:
        """Vertex the oriented edge points to, or None if unoriented."""
        m = self.mark[e]
        if m == UNORIENTED:
            return None
        return e[1] if m == FORWARD else e[0]

    def tail(self, e: tuple[int, int]) -> int | None:
        m = self.mark[e]
        if m == UNORIENTED:
            return None
        return e[0] if m == FORWARD else e[1]


def unoriented(cg: ColoredGraph) -> PartialOrientation:
    """The all-unoriented overlay of a colored graph."""
    return PartialOrientation(cg, {e: UNORIENTED for e in cg.graph.edges})


def with_marks(cg: ColoredGraph, marks: Mapping[tuple[int, int], int]) -> PartialOrientation:
    """Overlay the given marks, defaulting every other edge to unoriented."""
    full = {e: UNORIENTED for e in cg.graph.edges}
    for e, m in marks.items():
        key = edge_key(*e)
        if key not in full:
            raise GraphError(f"mark on nonexistent edge {e}")
        full[key] = m
    return PartialOrientation(cg, full)


def monochromatic(g: Graph, color: int = 0, k: int = 1) -> ColoredGraph:
    """Color every edge of g with one color."""
    if not 0 <= color < k:
        raise GraphError("color out of range")
    return ColoredGraph(g, k, {e: color for e in g.edges})


def color_subgraph(cg: ColoredGraph, c: int) -> Graph:
    """Spanning subgraph holding exactly the edges of color c."""
    if not 0 <= c < cg.k:
        raise GraphError(f"color {c} out of range 0..{cg.k - 1}")
    return Graph(cg.graph.n, frozenset(e for e, col in cg.color.items() if col == c))


def degrees(po: PartialOrientation, v: int, c: int) -> tuple[int, int, int]:
    """(unoriented-degree, in-degree, out-degree) of v within color class c."""
    g = po.base.graph
    if not 0 <= v < g.n:
        raise GraphError(f"vertex {v} out of range")
    if not 0 <= c < po.base.k:
        raise GraphError(f"color {c} out of range")
    d = din = dout = 0
    for e, col in po.base.color.items():
        if col != c or v not in e:
            continue
        head = po.head(e)
        if head is None:
            d += 1
        elif head == v:
            din += 1
        else:
            dout += 1
    return d, din, dout


def mask_components(masks: Sequence[int]) -> Iterator[list[int]]:
    """Vertex lists of the connected components of the graph with these
    neighbor bitmasks, in order of their smallest vertex.

    A component grows one frontier at a time: the union of the frontier's
    neighbor masks, less what is already reached, is the next frontier, so
    each vertex is expanded once and no edge is walked bit by bit.
    """
    left = (1 << len(masks)) - 1
    while left:
        frontier = reached = left & -left
        comp = []
        while frontier:
            reach = 0
            while frontier:
                bit = frontier & -frontier
                frontier ^= bit
                v = bit.bit_length() - 1
                comp.append(v)
                reach |= masks[v]
            frontier = reach & ~reached
            reached |= frontier
        left &= ~reached
        yield comp


def connected_components(g: Graph) -> list[frozenset[int]]:
    """Partition of 0..n-1 into maximal connected vertex sets (sorted by minimum)."""
    return [frozenset(comp) for comp in mask_components(adjacency_masks(g))]


# ---------------------------------------------------------------------------
# graph6 codec (format of McKay's gtools; n up to 62 uses the short form)

def graph6_encode(g: Graph) -> str:
    n = g.n
    if n <= 62:
        head = chr(n + 63)
    elif n <= 258047:
        head = "~" + "".join(chr(((n >> s) & 63) + 63) for s in (12, 6, 0))
    else:
        raise GraphError("graph too large for graph6 encoding")
    bits = []
    for v in range(1, n):
        for u in range(v):
            bits.append(1 if g.has_edge(u, v) else 0)
    while len(bits) % 6:
        bits.append(0)
    chars = []
    for i in range(0, len(bits), 6):
        x = 0
        for b in bits[i:i + 6]:
            x = (x << 1) | b
        chars.append(chr(x + 63))
    return head + "".join(chars)


def graph6_decode(s: str) -> Graph:
    s = s.strip()
    if s.startswith(">>graph6<<"):
        s = s[10:]
    if not s:
        raise GraphError("empty graph6 string")
    if s[0] == "~":
        if len(s) < 4 or s[1] == "~":
            raise GraphError("unsupported graph6 size header")
        head, body = s[1:4], s[4:]
    else:
        head, body = s[0], s[1:]
    n = 0
    for ch in head:
        x = ord(ch) - 63
        if not 0 <= x < 64:
            raise GraphError(f"bad graph6 header character {ch!r}")
        n = (n << 6) | x
    if len(head) > 1 and n <= 62:
        raise GraphError(f"graph6 long size header for {n} vertices")
    need = (n * (n - 1) // 2 + 5) // 6
    if len(body) != need:
        raise GraphError(f"graph6 body has {len(body)} characters, not {need}")
    bits = []
    for ch in body:
        x = ord(ch) - 63
        if not 0 <= x < 64:
            raise GraphError(f"bad graph6 character {ch!r}")
        bits.extend((x >> s_) & 1 for s_ in range(5, -1, -1))
    if any(bits[n * (n - 1) // 2:]):
        raise GraphError("graph6 padding bits are set")
    edges = []
    i = 0
    for v in range(1, n):
        for u in range(v):
            if bits[i]:
                edges.append((u, v))
            i += 1
    return Graph.from_edges(n, edges)


# ---------------------------------------------------------------------------
# JSON wire format for colored / partially oriented graphs:
#   {"n": int, "k": int, "edges": [[u, v, color, orient]]}
# orient: 0 = none, 1 = u->v, 2 = v->u, with u < v.

def orientation_to_json(po: PartialOrientation) -> str:
    cg = po.base
    rows = [[u, v, cg.color[(u, v)], po.mark[(u, v)]] for u, v in cg.graph.sorted_edges()]
    return json.dumps({"n": cg.graph.n, "k": cg.k, "edges": rows})


def colored_to_json(cg: ColoredGraph) -> str:
    return orientation_to_json(unoriented(cg))


def orientation_from_json(text: str) -> PartialOrientation:
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError, digit limit, nesting
        raise GraphError(f"invalid JSON: {exc}") from exc
    try:
        n, k, rows = doc["n"], doc["k"], doc["edges"]
    except (KeyError, TypeError) as exc:
        raise GraphError(f"missing field in graph document: {exc}") from exc
    if type(n) is not int or type(k) is not int:
        raise GraphError(f"n and k must be integers, not {n!r} and {k!r}")
    if not isinstance(rows, list):
        raise GraphError("edges must be a list of [u, v, color, orient] rows")
    color, mark = {}, {}
    edges = []
    for row in rows:
        if not (isinstance(row, list) and len(row) == 4 and all(type(x) is int for x in row)):
            raise GraphError(f"edge row {row!r} is not four integers [u, v, color, orient]")
        u, v, c, o = row
        if u >= v:
            raise GraphError(f"edge [{u}, {v}] must list the smaller endpoint first")
        e = (u, v)
        if e in color:
            raise GraphError(f"duplicate edge {e}")
        edges.append(e)
        color[e] = c
        mark[e] = o
    cg = ColoredGraph(Graph.from_edges(n, edges), k, color)
    return PartialOrientation(cg, mark)


def colored_from_json(text: str) -> ColoredGraph:
    return orientation_from_json(text).base


# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Multigraph:
    """Undirected multigraph; parallel edges allowed, each instance labeled."""

    n: int
    edges: tuple[tuple[int, int, object], ...]  # (u, v, label), u <= v not required distinct

    def __post_init__(self):
        labels = [lab for _, _, lab in self.edges]
        if len(set(labels)) != len(labels):
            raise GraphError("edge labels must be unique per edge instance")
        for u, v, _ in self.edges:
            if not (0 <= u < self.n and 0 <= v < self.n) or u == v:
                raise GraphError(f"bad multigraph edge ({u}, {v})")

    @classmethod
    def from_pairs(cls, n: int, pairs: Iterable[Sequence[int]]) -> "Multigraph":
        return cls(n, tuple((min(u, v), max(u, v), i) for i, (u, v) in enumerate(pairs)))

    def degree(self, v: int) -> int:
        return sum(1 for u, w, _ in self.edges if v in (u, w))

    def max_degree(self) -> int:
        """All degrees counted in one pass over the edges."""
        deg = [0] * self.n
        for u, v, _ in self.edges:
            deg[u] += 1
            deg[v] += 1
        return max(deg, default=0)
