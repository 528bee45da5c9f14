"""Isomorph-free enumeration of small graphs and k-colorings of K_n with a
hereditary property.

Orderly vertex-augmentation (`augment`): every graph arises from deleting a
minimum-degree vertex, so each level extends each parent by one vertex whose
neighbor set is no larger than the child's minimum degree.  That rule fixes the
sizes up front: a set of `size` neighbors can pass only if no parent vertex has
degree below `size - 1`, and only if it contains every parent vertex of degree
`size - 1`, so the sizes stop at the parent's minimum degree plus one and a
subset is rejected by one mask test.  A k-coloring of K_n is stored as its
first k-1 color classes.  The degree in the rule is the least degree over
the colors whose spec is that of color 0, which the color permutations
that keep the specs leave unchanged, so a level keeps one coloring per orbit
of isomorphism and those permutations; among the vertices of least degree,
the new vertex must also have the least sorted (degree, sum of neighbor
degrees) pairs over those colors, which is just as invariant.  One subset
enumerator splits the new vertex's edges over the colors, the first such
color to take the least degree first and with exactly that many, and never
tries a superset of a set it has rejected.  The property is that no color c
holds its spec's target: a path on N vertices for an int N, the graph
itself for a `Graph`, nothing for None.  H-freeness is hereditary for every
H, so pruning at every level is sound and keeps the search space small: a
new vertex only has to avoid closing a path, which a table of the parent's
path ends per color, built once per parent, decides in a few mask
operations, and each full child is tested for containment of the target
graphs.  A parent with a vertex in every color's table of single ends has
no child, and is passed over before any split.  Its cases are the P_N-free
graphs (`generate_pn_free`, one constrained color and its complement) and
the colorings of K_n avoiding a target tuple that
`goodness.verify_ramsey_value` lists.  A child is dropped before the
catalog sees it when two twins of its parent, vertices with the same color
to every other vertex, take their colors out of the order in which the
choices are tried: swapping the two gives the same child up to isomorphism,
chosen earlier from the same parent.  This is the orbit pruning of orderly
generation (McKay, "Isomorph-free exhaustive generation", J. Algorithms
1998), kept to the automorphisms that cost nothing to find.  Each child's
rows, per class and vertex the pair (degree, sum of its neighbors'
degrees), come from its parent's rows and the new vertex's sets with one
popcount per vertex, before the child is built: the (f, h) rule reads
them, so a child that fails it is never built, and so does the catalog.
Isomorph rejection groups the candidates by their shape, their sorted
rows, which fixes the vertex count and each class's edge count.  A
candidate alone in its shape is stored as it is; the others have their
Weisfeiler-Leman colors refined once, are bucketed by their classes'
triangle counts and the sorted list of those colors, and meet an exact
backtracking isomorphism test, constrained by those colors and keeping
every color class, inside each bucket.  Of a coloring's images under the
color permutations, only those of the least shape are stored.  These
passes walk the set bits of the adjacency masks, never every vertex pair.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator, Sequence
from itertools import permutations
from typing import NamedTuple

from .detect import PathEnds, _bits, _contains, closes_path, path_ends
from .graphs import Graph, graph6_encode, mask_components

Masks = tuple[int, ...]
Coloring = tuple[Masks, ...]  # adjacency masks per color class; a graph is one class
# per color class, each vertex's degree there and the sum of its neighbors'
# degrees there, as two lists
Rows = Sequence[tuple[list[int], list[int]]]
# what a color class must avoid: None nothing, an int N a path on N
# vertices, a Graph that graph as a subgraph
Spec = int | Graph | None


def _degrees(masks: Masks) -> list[int]:
    return [m.bit_count() for m in masks]


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
    nbrs = [[_bits(m) for m in masks] for masks in classes]
    if start is not None:
        colors = start
    elif len(nbrs) == 1:  # plain degrees: the one-class case is the hot one
        colors = [len(vs) for vs in nbrs[0]]
    else:
        colors = [tuple(len(cls[v]) for cls in nbrs) for v in range(n)]
    count = len(set(colors))
    for _ in range(3):
        seen = [[tuple(sorted(map(colors.__getitem__, vs))) for vs in cls] for cls in nbrs]
        signatures = list(zip(colors, *seen))
        palette = {sig: i for i, sig in enumerate(sorted(set(signatures)))}
        colors = [palette[sig] for sig in signatures]
        if len(palette) == count:  # another round would give these ranks again
            break
        count = len(palette)
    return colors if start is None else list(zip(start, colors))


def wl_fingerprint(masks: Masks) -> tuple:
    """Hash-free Weisfeiler-Leman style invariant: stable across processes.
    It holds the shape, as refinement ranks are relative to one graph."""
    return _shape(_rows((masks,))), tuple(sorted(_refine((masks,))))


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


def _rows(classes: Coloring) -> list[tuple[list[int], list[int]]]:
    """Per class, each vertex's degree and the sum of its neighbors' degrees."""
    out = []
    for masks in classes:
        degrees = _degrees(masks)
        out.append((degrees, [sum(map(degrees.__getitem__, _bits(m))) for m in masks]))
    return out


def _grown_rows(masks: Masks, rows: tuple[list[int], list[int]],
                s: int) -> tuple[list[int], list[int]]:
    """The `_rows` of one class once a new vertex joins the vertices of s in
    it, from the class's rows before: a vertex of s gains the new vertex,
    whose degree is |s|, and each neighbor of s gains one per neighbor in s."""
    degrees, sums = rows[0][:], rows[1][:]
    size = s.bit_count()
    total = size  # the new vertex's sum: its neighbors' degrees, each one higher
    near = 0  # the vertices with a neighbor in s
    for v in _bits(s):
        total += degrees[v]
        degrees[v] += 1
        sums[v] += size
        near |= masks[v]
    for v in _bits(near):
        sums[v] += (masks[v] & s).bit_count()
    degrees.append(size)
    sums.append(total)
    return degrees, sums


def _shape(rows: Rows, start: list | None = None) -> tuple:
    """An invariant of a coloring with the `_rows` of its classes: the sorted
    rows of each vertex's starting color, if any, and its degree and the sum
    of its neighbors' degrees in each class."""
    columns = [column for pair in rows for column in pair]
    return tuple(sorted(zip(*columns) if start is None else zip(start, *columns)))


class _Catalog:
    """Isomorph-rejecting store of graphs and colorings (as class mask tuples).

    Items are grouped by `_shape` first, the sorted (degree, sum of neighbor
    degrees) rows of their vertices.  An item alone in its shape is stored
    as it is; once a second item of that shape arrives, both are refined, and
    the refined ones are bucketed by their triangle counts and sorted
    `_refine` colors, each entry with its colors, so every item is refined at
    most once.  Items added with starting vertex colors are compared by maps
    that keep them.  A shape is kept as its hash, as nearly every item has
    a shape of its own: two shapes whose hashes collide share refinement,
    and the isomorphism test still tells their items apart.
    """

    def __init__(self):
        self.alone: dict[int, tuple[Coloring, list | None]] = {}  # shape hash -> its one item
        self.buckets: dict[int, dict[tuple, list[tuple[Coloring, list]]]] = {}  # shape hash -> key -> items
        self.count = 0  # the items added up to isomorphism, color-permuted forms included
        self.offered = 0  # calls of `add`
        self.refined = 0  # items refined

    def add(self, classes: Coloring, start: list | None = None,
            symmetries: Sequence[tuple[int, ...]] = (), rows: Rows | None = None) -> bool:
        """Count the item unless an isomorphic one was added; was it new?

        With `symmetries`, color permutations p under which color c becomes
        p[c] (the identity left out), the item is a coloring stored as its
        first k-1 classes, and it is counted with its forms, its images under
        them, and it was added before when any form was: the forms of the
        least shape are stored, one per isomorphism class, and the others are
        counted up to isomorphism, refined only where their shapes tie.
        `rows` are the `_rows` of all k classes if there are symmetries, else
        of the item's classes; they are computed here when not given.  A
        form's shape comes from its permuted rows.
        """
        self.offered += 1
        if rows is None:
            rows = _rows(_with_last(classes) if symmetries else classes)
        forms: dict[tuple, list[Coloring]] = {}
        for form, form_rows in _forms(classes, symmetries, rows):
            forms.setdefault(_shape(form_rows, start), []).append(form)
        least = min(forms)
        if not self._store(least, forms[least][0], start):
            return False
        # no other item has a form isomorphic to one of these, so storing
        # them tells apart only the item's own forms of the least shape
        self.count += 1 + sum(self._store(least, form, start) for form in forms[least][1:])
        apart = _Catalog()  # the other forms, counted up to isomorphism on their own
        for shape, tied in forms.items():
            if shape != least:
                self.count += sum(apart._store(shape, form, start) for form in tied)
        self.refined += apart.refined
        return True

    def _refine(self, classes: Coloring, start: list | None) -> tuple[tuple, list]:
        self.refined += 1
        colors = _refine(classes, start)
        # six times each class's triangles, which the colors do not count
        triangles = (sum((m & masks[v]).bit_count() for m in masks for v in _bits(m))
                     for masks in classes)
        return (*triangles, *sorted(colors)), colors

    def _store(self, shape: tuple, classes: Coloring, start: list | None) -> bool:
        """Store the item under its shape unless an isomorphic one is stored."""
        shape = hash(shape)
        buckets = self.buckets.get(shape)
        if buckets is None:
            if shape not in self.alone:
                self.alone[shape] = classes, start
                return True
            buckets = self.buckets[shape] = {}
            first, first_start = self.alone.pop(shape)
            key, colors = self._refine(first, first_start)
            buckets[key] = [(first, colors)]
        key, colors = self._refine(classes, start)
        bucket = buckets.setdefault(key, [])
        for seen, seen_colors in bucket:
            if _isomorphic(classes, colors, seen, seen_colors):
                return False
        bucket.append((classes, colors))
        return True


_UNBOUNDED = PathEnds(False, 0, ())  # the table of a color with no path bound


def _tables(specs: Sequence[Spec], classes: Coloring) -> list[PathEnds]:
    """Per color, the table that a new vertex's neighbor set in it is tested
    against: a path spec's `path_ends` of the class, else `_UNBOUNDED`."""
    return [path_ends(masks, s) if isinstance(s, int) else _UNBOUNDED
            for s, masks in zip(specs, classes)]


def _contains_target(specs: Sequence[Spec], classes: Coloring) -> bool:
    """Does a class contain its color's `Graph` spec?  The tables pass every
    such color, so a full child is tested here; the test is exact, as its
    parent avoids the target and containment is monotone."""
    return any(isinstance(s, Graph) and _contains(masks, s) for s, masks in zip(specs, classes))


def _subsets(table: PathEnds, pool: int, forced: int, lo: int, hi: int,
             visit: Callable[[], None]) -> Iterator[int]:
    """Every set S with forced <= S <= pool and lo <= |S| <= hi that the table
    accepts; `visit` is called once per rejected set tried.

    `closes_path` rejects a set exactly when it meets the table's single ends
    or holds both ends of a pair, so forced + A is rejected exactly when
    `forced`, `forced` plus one vertex of A or `forced` plus two of them is.
    Only these sets are tested, and each only when no smaller one among them
    that it holds was rejected: no superset of a rejected set is tried.  The
    accepted sets are then the sets of mutually compatible vertices, built up
    from `forced` one vertex at a time, smallest first, so the sets of one
    size come in the lexicographic order of their vertices.  An empty size
    window, hi < lo, tests no set.
    """
    size = forced.bit_count()
    if forced & ~pool or size > hi or hi < lo:
        return
    if closes_path(table, forced):
        visit()
        return
    free = []  # the vertices that forced can take one at a time
    rest = pool & ~forced if size < hi else 0
    while rest:
        bit = rest & -rest
        rest ^= bit
        if closes_path(table, forced | bit):
            visit()
        else:
            free.append(bit)
    if size + len(free) < lo:
        return
    compatible = dict.fromkeys(free, 0)  # per free vertex, the later ones it can join
    if size + 1 < hi:
        for i, x in enumerate(free):
            for y in free[i + 1:]:
                if closes_path(table, forced | x | y):
                    visit()
                else:
                    compatible[x] |= y

    def grow(s: int, size: int, candidates: int) -> Iterator[int]:
        if size >= lo:
            yield s
        if size == hi or size + candidates.bit_count() < lo:
            return
        while candidates:
            bit = candidates & -candidates
            candidates ^= bit
            yield from grow(s | bit, size + 1, candidates & compatible[bit])

    yield from grow(forced, size, sum(free))


def _split(rest: int, colors: list[int], tables: list[PathEnds], forced: list[int],
           low: list[int], high: list[int],
           visit: Callable[[], None]) -> Iterator[tuple[int, ...]]:
    """The new vertex's edges to `rest` split over `colors` in order, each
    color c taking all of forced[c] and from low[c] to high[c] vertices, the
    last color the rest, for every split that no color's table rejects;
    `visit` is called once per rejected set tried and once per full split.
    Each color's sets come from `_subsets`, those of one size in
    lexicographic order of their vertices."""
    c, later = colors[0], colors[1:]
    if not later:
        visit()
        if not closes_path(tables[c], rest):
            yield (rest,)
        return
    reserved = 0  # the vertices later colors must take
    for d in later:
        reserved |= forced[d]
    room = rest.bit_count() - sum(low[d] for d in later)
    for s in _subsets(tables[c], rest & ~reserved, forced[c], low[c], min(high[c], room), visit):
        for split in _split(rest & ~s, later, tables, forced, low, high, visit):
            yield (s,) + split


def _twin_classes(coloring: Coloring) -> list[int]:
    """The classes, as masks, of two or more twins: vertices u and w with the
    same color to every other vertex, so that swapping them is an automorphism.

    Twins are an equivalence, and the edges inside a class share one color c.
    So for each c the classes with inner color c are the groups of two or
    more vertices with the same neighbors in every color, once each vertex
    counts as its own neighbor in color c.  The first k-1 color classes of a
    coloring give the same twins as all k.
    """
    k = len(coloring)
    twins: dict[tuple[int, ...], int] = {}  # (inner color, neighbors per color) -> vertices
    for v in range(len(coloring[0])):
        bit = 1 << v
        row = [masks[v] for masks in coloring]
        key = (k, *row)  # inner color k: the last, which no given class holds
        twins[key] = twins.get(key, 0) | bit
        for c in range(k):
            row[c] |= bit
            key = (c, *row)
            twins[key] = twins.get(key, 0) | bit
            row[c] ^= bit
    return [twin for twin in twins.values() if twin & twin - 1]


def _in_order(sets: tuple[int, ...], twins: list[int]) -> bool:
    """Does each twin class take the colors of `sets` in their order, lowest
    vertex first?

    If not, some twins u < w have u in a later set than w.  Swapping them
    gives the same child up to isomorphism, and `_children` offers that
    child earlier from the same parent: `_split` chooses the sets in this
    order, and each one's sets of one size in lexicographic order, so of two
    that differ by u in place of w, the one with u comes first.  So the
    catalog would reject this child.
    """
    for twin in twins:
        taken = 0  # the class's vertices in the sets so far: its lowest ones
        for s in sets[:-1]:
            taken |= s & twin
            rest = twin ^ taken
            if not rest:
                break
            if taken > rest & -rest:
                return False
    return True


def _with_last(coloring: Coloring) -> Coloring:
    """All k classes of a coloring stored as its first k-1."""
    n = len(coloring[0])
    last = [((1 << n) - 1) ^ 1 << v for v in range(n)]
    for masks in coloring:
        last = [m & ~c for m, c in zip(last, masks)]
    return coloring + (tuple(last),)


def _forms(coloring: Coloring, symmetries: Sequence[tuple[int, ...]],
           rows: Rows) -> Iterator[tuple[Coloring, Rows]]:
    """The coloring and its rows, then its images and theirs with color c
    becoming p[c], for each p; `rows` are the `_rows` of all k classes if
    there are symmetries, else of the coloring's."""
    yield coloring, rows[:len(coloring)]
    classes = _with_last(coloring) if symmetries else ()
    for p in symmetries:
        image, image_rows = list(classes), list(rows)
        for c, masks, row in zip(p, classes, rows):
            image[c], image_rows[c] = masks, row
        yield tuple(image[:-1]), image_rows[:-1]


class Level(NamedTuple):
    """The colorings of K_n that `augment` keeps, one per orbit of isomorphism
    and the color permutations that keep the specs, and the number of
    colorings of K_n up to isomorphism alone; with the children the catalog
    was offered, how many of them it refined, and the stuck parents: those
    with a vertex that every color's table rejects."""

    colorings: list[Coloring]
    classes: int
    offered: int = 0
    refined: int = 0
    stuck: int = 0


def augment(specs: Sequence[Spec], max_vertices: int,
            visit: Callable[[], None] = lambda: None) -> Iterator[Level]:
    """Every k-coloring of K_n in which no color c holds specs[c] (a path
    order, a target graph, or None for no bound), for n = 1..max_vertices:
    one level per n, yielded as it is finished.  k = len(specs) >= 2; a
    coloring is its first k-1 classes.

    A level keeps one coloring per orbit under isomorphism and the color
    permutations s with specs[s(c)] == specs[c].  Let B be the colors whose
    spec is specs[0], f(v) the least degree of v in a color of B, and h(v)
    the sorted pairs, over the colors c of B, of v's degree in c and the sum
    of the degrees in c of its neighbors in c; the permutations map B onto
    itself, so (f, h) is invariant.  A child is kept only if its new vertex
    has the least (f, h): every coloring arises so from a kept parent, by
    deleting a vertex of least (f, h).  This needs only that the property is
    hereditary, which H-freeness is for every H.  A parent's `_rows` are
    computed once, and `_children` derives each child's from them before
    building it, for the (f, h) rule and for the catalog's shapes.  `_children`
    chooses its neighbor sets, each tested against its color's table of
    parent path ends, and tests each full child against the target graphs;
    `visit` is called once per state, a choice that a table rejects or a full
    child, or a parent with no child.  A child that a swap of two twins of
    its parent turns into an earlier child is dropped there.  The catalog
    holds the least-shape forms of each kept coloring under the color
    permutations, so a child is rejected exactly when it is isomorphic to a
    permuted image of one, and the catalog counts the level's colorings up
    to isomorphism.
    """
    k = len(specs)
    symmetries = [p for p in permutations(range(k))
                  if all(specs[p[c]] == specs[c] for c in range(k))][1:]
    bound = [s == specs[0] for s in specs]
    level: list[Coloring] = [((),) * (k - 1)]
    for _ in range(max_vertices):
        catalog = _Catalog()
        kept: list[Coloring] = []
        stuck: list[Coloring] = []  # the parents with no child
        for parent in level:
            # of all k classes if the permuted forms need the last, else of the
            # k-1 stored ones, which then hold every color of B (the last is
            # in B only if some permutation swaps it with color 0)
            rows = _rows(_with_last(parent) if symmetries else parent)
            for child, child_rows in _children(parent, rows, specs, bound, visit,
                                               lambda: stuck.append(parent)):
                if catalog.add(child, symmetries=symmetries, rows=child_rows):
                    kept.append(child)
        level = kept
        yield Level(level, catalog.count, catalog.offered, catalog.refined, len(stuck))


def _children(parent: Coloring, rows: Rows, specs: Sequence[Spec], bound: list[bool],
              visit: Callable[[], None],
              stuck: Callable[[], None] = lambda: None) -> Iterator[tuple[Coloring, Rows]]:
    """The children `augment` offers its catalog from one parent, in order,
    each with its rows.

    `rows` are the parent's `_rows` of its first len(rows) classes, which
    hold every color c with bound[c]; a child's rows of the same classes
    come from them and the new vertex's sets, before the child is built.

    A parent is stuck when some vertex lies in the `single` ends of every
    color's table: no color can take its edge to the new vertex, so the
    parent has no child.  It is reported to `stuck` and counted as one state.

    For each f, each color c with bound[c] takes at least f vertices and
    every parent vertex whose degree in c is f - 1, and the first such color
    e to take exactly f is split first; the bound colors before e take more
    than f vertices.  A full child is dropped if a class of the parent's
    `twins` takes the colors out of this order (e, then the others) along
    its vertices, lowest first (`_in_order`), if its new vertex has not the
    least (f, h) (`_least_last`, read from the rows, so such a child is
    never built), or if one of its k classes holds its color's target graph.
    A twin swap fixes the new vertex, so it keeps (f, h) and the twin rule
    stays sound.  The parent's tables and twin classes are computed once for
    all of its children.
    """
    n = len(parent[0])
    k = len(specs)
    full = (1 << n) - 1
    classes = _with_last(parent)
    tables = _tables(specs, classes)
    blocked = full
    for table in tables:
        blocked &= full if table.always else table.single
    if blocked:
        visit()
        stuck()
        return
    graphs = any(isinstance(s, Graph) for s in specs)
    twins = _twin_classes(parent)
    by_degree: list[dict[int, int]] = [{} for _ in specs]  # per bound color, degree -> vertices
    for c in range(k):
        if bound[c]:
            for v, d in enumerate(rows[c][0]):
                by_degree[c][d] = by_degree[c].get(d, 0) | 1 << v
    least = min([min(ds) for ds in by_degree if ds], default=0)
    # the new vertex must realize the child's least f: every parent
    # vertex keeps f >= f(new), or reaches it by joining
    for f in range(min(n, least + 1) + 1):
        forced = [ds.get(f - 1, 0) for ds in by_degree]
        for e in range(k):
            if not bound[e]:
                continue
            colors = [e] + [c for c in range(k) if c != e]
            low = [f + (c < e) if bound[c] else 0 for c in range(k)]
            high = [f if c == e else n for c in range(k)]  # e takes exactly f
            for sets in _split(full, colors, tables, forced, low, high, visit):
                if not _in_order(sets, twins):
                    continue
                sets = sets[1:e + 1] + sets[:1] + sets[e + 1:]  # back to color order
                grown = [_grown_rows(*args) for args in zip(classes, rows, sets)]
                if not _least_last([row for row, b in zip(grown, bound) if b]):
                    continue
                # the last color's class is implied, and built only for a target graph
                child = _grow(classes if graphs else parent, sets, n)
                if not (graphs and _contains_target(specs, child)):
                    yield child[:k - 1], grown


def _grow(classes: Coloring, sets: Sequence[int], n: int) -> Coloring:
    """The classes on n vertices with a new vertex n joined in class c to the
    vertices of sets[c]; there may be fewer classes than sets."""
    bit = 1 << n
    return tuple([tuple([m | bit if s >> v & 1 else m for v, m in enumerate(masks)] + [s])
                  for masks, s in zip(classes, sets)])


def _least_last(rows: Rows) -> bool:
    """Does the last vertex have the least (f, h) among all vertices?

    `rows` are the `_rows` of some classes.  f(v) is v's least degree in
    them, and h(v) the sorted pairs, one per class, of v's degree and the
    sum of its neighbors' degrees there.  The first pair of h(v) holds f(v),
    so h alone orders the vertices as (f, h) does.
    """
    keys = list(zip(*[zip(*pair) for pair in rows]))
    if len(rows) > 1:  # one pair needs no sorting
        keys = [sorted(pairs) for pairs in keys]
    return min(keys) == keys[-1]


def generate_pn_free(N: int, max_vertices: int) -> dict[int, list[Masks]]:
    """All P_N-free graphs (connected or not) up to isomorphism, by vertex count."""
    levels = augment((N, None), max_vertices)
    return {n: [classes[0] for classes in level.colorings]
            for n, level in enumerate(levels, start=1)}


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
