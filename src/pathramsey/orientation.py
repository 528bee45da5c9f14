"""Partial orientations of path-free graphs and the boundedness checker.

The checker enforces the four degree/size conditions that make an orientation
(n, s, t)-bounded.  It reads a part in one flat pass over the coloring, which
gives every vertex's unoriented degree, the bitmask of the tails of its
in-arcs and whether it has an out-arc; the sink, feeder and residual sets
(T-, T+, X) are bitmasks too, from walking the arcs backward one frontier at
a time.  The constructors for connected P5-, P6- and P7-free graphs
share one driver: it picks the longest-cycle case, builds that case's named
strategies from `_STRATEGIES` one at a time, returns the first the checker
passes with its case and name (also logged at DEBUG), or raises
OrientationError.
"""

from __future__ import annotations

import logging
from collections.abc import Callable
from dataclasses import dataclass
from typing import NamedTuple

from . import detect
from .graphs import (
    BACKWARD,
    FORWARD,
    UNORIENTED,
    ColoredGraph,
    Graph,
    GraphError,
    PartialOrientation,
    adjacency_masks,
    complete_graph,
    edge_key,
    mask_components,
    monochromatic,
    with_marks,
)

log = logging.getLogger(__name__)

Marks = dict[tuple[int, int], int]


class OrientationError(GraphError):
    """A constructor could not produce a bounded orientation."""


class NotPNFreeError(GraphError):
    """Input contains a forbidden path; carries a witness."""

    def __init__(self, N: int, witness: list[int]):
        super().__init__(f"graph contains a path on {N} vertices: {witness}")
        self.N = N
        self.witness = witness


@dataclass(frozen=True)
class BoundParams:
    """The (n, s, t) triple with the family-level side conditions."""

    n: int
    s: int
    t: int

    def __post_init__(self):
        if min(self.n, self.s, self.t) < 0:
            raise GraphError("bound parameters must be nonnegative")
        if not (self.n > self.s + self.t - 1 and self.n > 2 * self.s + 2):
            raise GraphError(
                f"(n={self.n}, s={self.s}, t={self.t}) violates n>s+t-1 or n>2s+2"
            )


P5_PARAMS = BoundParams(5, 1, 4)
P6_PARAMS = BoundParams(7, 2, 5)
P7_PARAMS = BoundParams(8, 2, 6)


@dataclass(frozen=True)
class PartClassification:
    """The sink/feeder/residual vertex sets of one monochromatic part."""

    part: frozenset[int]
    t_minus: frozenset[int]
    t_plus: frozenset[int]
    x_set: frozenset[int]


@dataclass(frozen=True)
class Violation:
    condition: int
    vertex: int | None
    message: str


@dataclass(frozen=True)
class BoundVerdict:
    passed: bool
    violations: tuple[Violation, ...] = ()


class _Scan(NamedTuple):
    """One part of color c as `_scan` reads it.  The lists run over every
    vertex of the graph and the sets are bitmasks of vertices."""

    part: frozenset[int]
    members: int  # the part
    d: list[int]  # unoriented degree in color c
    preds: list[int]  # the tails of the vertex's in-arcs in color c: d- is their number
    tails: int  # the vertices with an out-arc in color c, d+ > 0
    t_minus: int
    t_plus: int
    x_set: int


def _beyond(masks: list[int], sources: int) -> int:
    """The vertices at the end of a walk of one or more steps from `sources`,
    each step from v to a vertex of masks[v]: one frontier at a time."""
    reached, frontier = 0, sources
    while frontier:
        step = 0
        while frontier:
            bit = frontier & -frontier
            frontier ^= bit
            step |= masks[bit.bit_length() - 1]
        frontier = step & ~reached
        reached |= frontier
    return reached


def _scan(po: PartialOrientation, part: frozenset[int], c: int) -> _Scan:
    """Every vertex's (d, d-, d+) in color c and the part's T-, T+ and X, from
    one flat pass over the coloring; GraphError unless the part is a
    component of color c.

    A sink is a vertex of in-degree >= 2 with no walk along arcs to such a
    vertex, and a feeder one with a walk to a sink, so both come from walking
    the arcs backward from a set of vertices (`_beyond` over the in-arcs).
    """
    cg = po.base
    if not 0 <= c < cg.k:
        raise GraphError(f"color {c} out of range 0..{cg.k - 1}")
    n = cg.graph.n
    adj, d, preds = [0] * n, [0] * n, [0] * n
    tails = 0
    mark = po.mark
    for e, col in cg.color.items():
        if col == c:
            u, v = e
            adj[u] |= 1 << v
            adj[v] |= 1 << u
            m = mark[e]
            if m == UNORIENTED:
                d[u] += 1
                d[v] += 1
            elif m == FORWARD:
                preds[v] |= 1 << u
                tails |= 1 << u
            else:
                preds[u] |= 1 << v
                tails |= 1 << v
    if not part or min(part) < 0 or max(part) >= n:
        raise GraphError(f"{sorted(part)} is not a component of color {c}")
    members = (1 << n) - 1 if len(part) == n else sum(1 << v for v in part)
    low = members & -members
    if _beyond(adj, low) | low != members:
        raise GraphError(f"{sorted(part)} is not a component of color {c}")
    heavy = touched = 0
    for v in detect._bits(members):
        if preds[v]:
            touched |= 1 << v
            if preds[v] & (preds[v] - 1):
                heavy |= 1 << v
    t_minus = heavy & ~_beyond(preds, heavy)
    t_plus = _beyond(preds, t_minus)
    x_set = (touched | tails & members) & ~(t_minus | t_plus)
    return _Scan(part, members, d, preds, tails, t_minus, t_plus, x_set)


def classify_part(po: PartialOrientation, part: frozenset[int], c: int) -> PartClassification:
    """Split a monochromatic part into sink, feeder, and residual vertex sets.

    Sinks have in-degree >= 2 and no nontrivial directed path to another such
    vertex; feeders have a nontrivial directed path into some sink; the
    residual set holds the remaining vertices touching an oriented edge.  The
    part must be a component of color c.
    """
    scan = _scan(po, part, c)
    return PartClassification(part, *(frozenset(detect._bits(m))
                                      for m in (scan.t_minus, scan.t_plus, scan.x_set)))


def _st_violations(scan: _Scan, s: int, t: int) -> list[Violation]:
    """The violations of conditions (1)-(3) by a part, from its `_scan`."""
    violations: list[Violation] = []
    d, preds, tails = scan.d, scan.preds, scan.tails
    for v in detect._bits(scan.members):
        din, out = preds[v].bit_count(), tails >> v & 1  # out is min(1, d+)
        if din > 0 and d[v] + din + out > s:
            violations.append(
                Violation(1, v, f"vertex {v}: d={d[v]}, d-={din}, min(1,d+)={out} exceeds s={s}")
            )
        if d[v] + min(1, din + out) > t - 1:
            violations.append(
                Violation(2, v, f"vertex {v}: d={d[v]} plus oriented-incidence exceeds t-1={t - 1}")
            )
    if scan.t_minus or scan.t_plus:
        below, above = scan.t_minus.bit_count(), scan.t_plus.bit_count()
        if not below > above:
            violations.append(Violation(3, None, f"|T-|={below} not greater than |T+|={above}"))
    return violations


def check_st_bounded(
    po: PartialOrientation, part: frozenset[int], c: int, s: int, t: int
) -> BoundVerdict:
    """Check conditions (1)-(3) of the boundedness definition on one part."""
    violations = _st_violations(_scan(po, part, c), s, t)
    return BoundVerdict(not violations, tuple(violations))


def check_nst_bounded(
    po: PartialOrientation, part: frozenset[int], c: int, params: BoundParams
) -> BoundVerdict:
    """Conditions (1)-(3) plus the size condition (4): a part of more than n
    vertices has an oriented edge, so some vertex has d- > 0."""
    scan = _scan(po, part, c)
    violations = _st_violations(scan, params.s, params.t)
    if len(part) > params.n and not scan.tails & scan.members:
        violations.append(
            Violation(4, None, f"part of {len(part)} > n={params.n} vertices has no oriented edge")
        )
    return BoundVerdict(not violations, tuple(violations))


# ---------------------------------------------------------------------------
# Standard orientations of pendant structures.

def standard_orient(g: Graph, structure: detect.PendantStructure) -> Marks:
    """Marks directing a pendant structure away from its attach vertex.

    Pendant edge: toward the leaf.  Pendant triangle: the two attach edges
    outward, the far edge unoriented.  Pendant star (attached at a leaf):
    along paths from the attach, so attach -> center -> other leaves.
    """
    kind, attach, members = structure.kind, structure.attach, structure.members
    marks: Marks = {}

    def arc(tail: int, head: int):
        e = edge_key(tail, head)
        if e not in g.edges:
            raise GraphError(f"structure edge {e} missing from host graph")
        marks[e] = FORWARD if tail < head else BACKWARD

    if kind is detect.PendantKind.PENDANT_EDGE:
        (leaf,) = members - {attach}
        arc(attach, leaf)
    elif kind is detect.PendantKind.PENDANT_TRIANGLE:
        for other in sorted(members - {attach}):
            arc(attach, other)
    elif kind is detect.PendantKind.PENDANT_STAR:
        masks = adjacency_masks(g)
        centers = [v for v in members - {attach} if masks[v] >> attach & 1]
        if len(centers) != 1:
            raise GraphError("pendant star must attach through its center")
        center = centers[0]
        arc(attach, center)
        for leaf in sorted(members - {attach, center}):
            arc(center, leaf)
    else:
        raise GraphError(f"unknown structure kind {kind}")
    return marks


def _with_arcs(marks: Marks, arcs) -> Marks:
    """`marks`, updated in place, with each (tail, head) edge oriented tail -> head."""
    for tail, head in arcs:
        marks[edge_key(tail, head)] = FORWARD if tail < head else BACKWARD
    return marks


def _leaf_marks(g: Graph) -> Marks:
    """Orient every edge with a degree-1 endpoint toward that endpoint.

    A lone edge (both endpoints leaves) orients toward the higher index.
    """
    deg = [m.bit_count() for m in adjacency_masks(g)]
    edges = [(u, v) for u, v in g.sorted_edges() if 1 in (deg[u], deg[v])]
    return _with_arcs({}, [(u, v) if deg[v] == 1 else (v, u) for u, v in edges])


def _structure_marks(g: Graph) -> Marks:
    """Standard orientation of every pendant structure, plus stray leaf edges."""
    marks: Marks = {}
    for structure in detect.find_pendant_structures(g):
        marks.update(standard_orient(g, structure))
    for e, m in _leaf_marks(g).items():
        marks.setdefault(e, m)
    return marks


def _hanging_marks(g: Graph) -> Marks:
    """Orient every tree-like appendage away from the 2-core.

    Iteratively strip degree-1 vertices; each stripped edge points from the
    surviving endpoint toward the stripped one.  Every stripped vertex gets
    in-degree exactly 1, so no sinks of in-degree 2 appear, while vertices of
    the core shed unoriented degree for every appendage they carry.
    """
    masks = list(adjacency_masks(g))
    deg = [m.bit_count() for m in masks]
    arcs = []
    queue = [v for v in range(g.n) if deg[v] == 1]
    while queue:
        leaf = queue.pop()
        if deg[leaf] != 1:
            continue
        parent = masks[leaf].bit_length() - 1
        arcs.append((parent, leaf))
        masks[leaf] = 0
        masks[parent] &= ~(1 << leaf)
        deg[leaf] = 0
        deg[parent] -= 1
        if deg[parent] == 1:
            queue.append(parent)
    return _with_arcs({}, arcs)


def _tree_marks(g: Graph) -> Marks:
    """Orient every edge of a tree away from vertex 0."""
    masks = adjacency_masks(g)
    arcs = []
    seen = {0}
    stack = [0]
    while stack:
        v = stack.pop()
        m = masks[v]
        while m:
            u = (m & -m).bit_length() - 1
            m &= m - 1
            if u not in seen:
                seen.add(u)
                arcs.append((v, u))
                stack.append(u)
    return _with_arcs({}, arcs)


def _double_source(g: Graph, a: int, c: int) -> list[tuple[int, int]]:
    """Arcs out of a and out of c along every edge but {a, c}."""
    masks = adjacency_masks(g)
    return [(s, w) for s in (a, c) for w in range(g.n) if masks[s] >> w & 1 and w not in (a, c)]


def _sources_into(a: int, c: int, heads: list[int]) -> list[tuple[int, int]]:
    """Arcs from both a and c into every head."""
    return [(src, v) for v in heads for src in (a, c)]


def _clean(g: Graph, mids: list[int]) -> list[int]:
    """The midpoints without a pendant edge, which would make them double
    sinks that break condition (1)."""
    masks = adjacency_masks(g)
    deg = [m.bit_count() for m in masks]
    return [v for v in mids if all(deg[w] > 1 or not masks[v] >> w & 1 for w in range(g.n))]


def oriented_part(g: Graph, marks: Marks) -> PartialOrientation:
    """View a single part as a one-color graph carrying the given marks."""
    return with_marks(monochromatic(g), marks)


def _cycle_pairing(g: Graph, cycle: list[int]) -> tuple[int, int, list[int]] | None:
    """For a 4-cycle, the opposite pair (a, c) that owns extra 2-edge paths.

    Returns (a, c, midpoints) where midpoints are all common neighbors of a
    and c (the two cycle midpoints included), or None when neither opposite
    pair has a common neighbor beyond the cycle.
    """
    masks = adjacency_masks(g)
    p = cycle
    options = []
    for a, c, b, d in ((p[0], p[2], p[1], p[3]), (p[1], p[3], p[0], p[2])):
        common = masks[a] & masks[c]
        mids = [v for v in range(g.n) if common >> v & 1]
        if any(v not in (b, d) for v in mids):
            options.append((min(a, c), max(a, c), mids))
    if not options:
        return None
    return min(options)


def _five_cycle_midpoint_pair(g: Graph, cycle: list[int]) -> tuple[int, int, list[int]] | None:
    """For a 5-cycle, the pair (a, c) collecting all outside degree->=2 vertices.

    Returns (a, c, [b, *outside-midpoints]) where b is the cycle vertex between
    a and c; None when no outside vertex has degree >= 2.
    """
    masks = adjacency_masks(g)
    deg = [m.bit_count() for m in masks]
    outside = [v for v in range(g.n) if v not in cycle and deg[v] >= 2]
    if not outside:
        return None
    options = []
    for i in range(5):
        a, b, c = cycle[i], cycle[(i + 1) % 5], cycle[(i + 2) % 5]
        if all(masks[a] >> v & 1 and masks[c] >> v & 1 and deg[v] == 2 for v in outside):
            options.append((min(a, c), max(a, c), [b, *outside]))
    return min(options) if options else None


def _longest_cycle_case(g: Graph, N: int) -> tuple[str, tuple]:
    """The case of a connected P_N-free graph, and (a, c, midpoints) when the
    case has a pair of sources.

    P5-free graphs need no split; otherwise a longest cycle is absent, has
    N-1 or more vertices ("long cycle"), or has 5, 4 or 3, split further by
    its midpoints.
    """
    if N == 5:
        return "any", ()
    cycle = detect.longest_cycle(g)
    if cycle is None:
        return "tree", ()
    if len(cycle) >= N - 1:
        return "long cycle", ()
    if len(cycle) == 5:
        pair = _five_cycle_midpoint_pair(g, cycle)
        if pair is None:
            return "5-cycle, no midpoint pair", ()
        return ("5-cycle, two midpoints" if len(pair[2]) == 2 else "5-cycle, midpoints"), pair
    if len(cycle) == 4:
        pairing = _cycle_pairing(g, cycle)
        return ("4-cycle, no pairing", ()) if pairing is None else ("4-cycle, pairing", pairing)
    return "3-cycle", ()


_LEAVES = (("leaves", _leaf_marks),)
_TREE = (("tree from 0", _tree_marks),)
_UNORIENTED = (("unoriented", lambda g: {}),)
_STRUCTURE = (
    ("structure", _structure_marks),
    ("structure+hanging", lambda g: {**_structure_marks(g), **_hanging_marks(g)}),
)

# Per (N, case), the named strategies in the order they are tried.  A
# strategy is called with the graph and the case's (a, c, midpoints), if any;
# its marks are built only when it is tried.  Only strategies that win on some
# connected P_N-free graph with at most 12 vertices are listed.
_STRATEGIES: dict[tuple[int, str], tuple[tuple[str, Callable[..., Marks]], ...]] = {
    (5, "any"): _LEAVES,
    (6, "tree"): _TREE,
    (6, "long cycle"): _UNORIENTED,
    (6, "4-cycle, pairing"): (
        ("double source", lambda g, a, c, mids: _with_arcs({}, _double_source(g, a, c))),
    ),
    (6, "4-cycle, no pairing"): _LEAVES,
    (6, "3-cycle"): _STRUCTURE,
    (7, "tree"): _TREE,
    (7, "long cycle"): _UNORIENTED,
    (7, "5-cycle, no midpoint pair"): _LEAVES,
    (7, "5-cycle, two midpoints"): (
        ("one arc to each midpoint",
         lambda g, a, c, mids: _with_arcs(_structure_marks(g), [(a, mids[0]), (c, mids[1])])),
    ),
    (7, "5-cycle, midpoints"): (
        ("double source over the midpoints",
         lambda g, a, c, mids: _with_arcs(_structure_marks(g), _sources_into(a, c, mids))),
    ),
    (7, "4-cycle, pairing"): (
        ("structure+double source",
         lambda g, a, c, mids: _with_arcs(_structure_marks(g), _double_source(g, a, c))),
        ("clean midpoints",
         lambda g, a, c, mids: _with_arcs(_structure_marks(g), _sources_into(a, c, _clean(g, mids)))),
        ("structure", lambda g, a, c, mids: _structure_marks(g)),
    ),
    (7, "4-cycle, no pairing"): _STRUCTURE,
    (7, "3-cycle"): _STRUCTURE,
}


class Oriented(NamedTuple):
    """Marks the checker passed, with the longest-cycle case of the graph and
    the name of the strategy that built them."""

    marks: Marks
    case: str
    strategy: str


def orient(g: Graph, N: int) -> Oriented:
    """Orientation of a connected P_N-free graph (N = 5, 6 or 7) from the first
    strategy of its case that the checker passes; OrientationError when none
    does."""
    if g.n == 0 or len(next(mask_components(adjacency_masks(g)))) != g.n:
        raise GraphError("constructors take one connected part; decompose first")
    witness = detect.find_path(g, N)
    if witness is not None:
        raise NotPNFreeError(N, witness)
    case, vertices = _longest_cycle_case(g, N)
    params = FAMILY_PARAMS[f"p{N}"]
    first: BoundVerdict | None = None
    for strategy, build in _STRATEGIES[N, case]:
        marks = build(g, *vertices)
        verdict = check_nst_bounded(oriented_part(g, marks), frozenset(range(g.n)), 0, params)
        if verdict.passed:
            log.debug("P%d-free orientation: n=%d, case %r, strategy %r", N, g.n, case, strategy)
            return Oriented(marks, case, strategy)
        if first is None:
            first = verdict
    raise OrientationError(
        f"no P{N}-free strategy passed the checker in case {case!r}; "
        f"violations of the first: {[v.message for v in first.violations]}"
    )


def orient_p5_free(g: Graph) -> Marks:
    """(5,1,4)-bounded orientation of a connected P5-free graph: its leaf edges."""
    return orient(g, 5).marks


def orient_p6_free(g: Graph) -> Marks:
    """(7,2,5)-bounded orientation of a connected P6-free graph."""
    return orient(g, 6).marks


def orient_p7_free(g: Graph) -> Marks:
    """(8,2,6)-bounded orientation of a connected P7-free graph."""
    return orient(g, 7).marks


FAMILY_PARAMS = {"p5": P5_PARAMS, "p6": P6_PARAMS, "p7": P7_PARAMS}


def build_witness(N: int) -> PartialOrientation:
    """The complete 2-colored lower-bound graph for paths on N vertices.

    A red clique on N-1 vertices joined completely in blue to a blue clique on
    floor(N/2)-1 vertices; cross edges are oriented away from the blue clique.
    """
    if N < 4:
        raise GraphError("witness construction needs N >= 4")
    r = N - 1
    b = N // 2 - 1
    n = r + b
    g = complete_graph(n)
    color = {}
    mark = {}
    for u, v in g.sorted_edges():
        if v < r:  # both red-clique vertices
            color[(u, v)] = 0
            mark[(u, v)] = 0
        elif u >= r:  # both blue-clique vertices
            color[(u, v)] = 1
            mark[(u, v)] = 0
        else:  # cross edge: u red, v blue; orient blue -> red
            color[(u, v)] = 1
            mark[(u, v)] = BACKWARD
    cg = ColoredGraph(g, 2, color)
    return PartialOrientation(cg, mark)


def witness_params(N: int) -> BoundParams:
    """The (n, s, t) triple the witness family is conjectured to satisfy."""
    return BoundParams(N + N // 2 - 2, N // 2 - 1, N - 1)
