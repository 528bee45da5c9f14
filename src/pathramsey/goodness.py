"""Ramsey-side machinery: exhaustive coloring verification, closed forms, and
the exact chromatic number.

One coloring search serves `verify_goodness`, `all_colorings_hit` and the
probe of every Ramsey check.  It places the host's vertices one at a time
and splits each vertex's edges to the placed vertices over the colors with
the corpus's subset enumerator: a path color is tested against the path-end
table of its class, any other target by containment once the split is full,
so no choice that already forces a monochromatic target is extended.
`verify_ramsey_value` gives the search N^2 states to find an avoider of
K_N, then lists the avoiding k-colorings of K_n up to isomorphism by the
corpus's vertex augmentation, a k-coloring being its first k-1 color
classes (for k = 2 a graph and its complement), for any target tuple.
Only the coloring search uses worker processes.  Budgets are explicit; an
exhausted budget yields an Indeterminate outcome, never a guess.  The time
budget is checked at every state; a node budget under several workers may
overshoot by one check interval per worker.  At the INFO level the module
logs one line per finished augmentation level and one per coloring search.
One vertex-coloring search serves `chromatic_number`, `is_k_colorable` and
the hypergraph module.
"""

from __future__ import annotations

import logging
import multiprocessing
import time
from collections.abc import Iterator
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .corpus import (Coloring, Level, _contains_target, _grow, _split, _tables, augment,
                     generate_pn_free)
from .detect import _bits, is_path_shape
from .graphs import (ColoredGraph, Graph, GraphError, adjacency_masks, complete_graph,
                     connected_components, edge_key)

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class Budget:
    """Hard limits for a search; None means unlimited."""

    max_nodes: int | None = None
    max_seconds: float | None = None

    def __post_init__(self):
        if self.max_nodes is not None and self.max_nodes <= 0:
            raise GraphError("node budget must be positive")
        if self.max_seconds is not None and not self.max_seconds > 0:  # NaN too
            raise GraphError("time budget must be positive")

    def deadline(self) -> float | None:
        """The absolute `time.monotonic()` deadline of a run that starts now."""
        return time.monotonic() + self.max_seconds if self.max_seconds else None


class BudgetExceeded(Exception):
    def __init__(self, nodes: int):
        super().__init__(f"search budget exceeded after {nodes} states")
        self.nodes = nodes


class _Superseded(Exception):
    """A parallel task stops: a task of a smaller prefix has found an avoider."""


class RamseyOutcome(Enum):
    IS_RAMSEY = "is_ramsey"
    TOO_SMALL = "too_small"
    NOT_TIGHT = "not_tight"
    INDETERMINATE = "indeterminate"


class GoodnessVerdict(Enum):
    ALL_COLORINGS_HIT = "all_colorings_hit"
    COUNTEREXAMPLE_COLORING = "counterexample_coloring"
    INDETERMINATE = "indeterminate"


@dataclass(frozen=True)
class RamseyReport:
    outcome: RamseyOutcome
    witness: ColoredGraph | None
    colorings_checked: int
    elapsed: float
    # avoiding colorings of K_{N-1} up to isomorphism; None where not counted
    critical_colorings: int | None = None


@dataclass(frozen=True)
class GoodnessCertificate:
    verdict: GoodnessVerdict
    witness: ColoredGraph | None
    colorings_checked: int
    elapsed: float = 0.0


# ---------------------------------------------------------------------------
# Core enumeration.

# The time budget is checked at every state.  Every CHECK_INTERVAL states a
# parallel task also adds its states to the state counter that all tasks of
# the run share, checks the node budget against it, and stops if a task of a
# smaller prefix has found an avoider.
CHECK_INTERVAL = 4096


class _BudgetedSearch:
    """The states a search has visited, checked against its budget as it runs."""

    def __init__(self, budget: Budget, deadline: float | None, counter=None):
        self.budget = budget
        self.deadline = deadline
        self.counter = counter
        self.nodes = 0
        self.flushed = 0

    def _tick(self):
        """Count one state; raise BudgetExceeded once the run is over its budget."""
        self.nodes += 1
        if self.budget.max_nodes is not None and self.nodes > self.budget.max_nodes:
            raise BudgetExceeded(self.nodes)
        if self.nodes % CHECK_INTERVAL == 0:
            self.check()
        elif self.deadline is not None and time.monotonic() > self.deadline:
            raise BudgetExceeded(self.nodes)

    def flush(self) -> int:
        """Add the states not yet counted to the shared counter; the states of all tasks."""
        if self.counter is None:
            return self.nodes
        with self.counter.get_lock():
            self.counter.value += self.nodes - self.flushed
            self.flushed = self.nodes
            return self.counter.value

    def check(self) -> None:
        """Raise BudgetExceeded once the run is over its node or time budget."""
        spent = self.flush()
        if self.budget.max_nodes is not None and spent > self.budget.max_nodes:
            raise BudgetExceeded(self.nodes)
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise BudgetExceeded(self.nodes)


def _placement_order(masks: tuple[int, ...]) -> list[int]:
    """The host's vertices, each next the one with the most placed neighbors
    (ties: the highest degree, then the lowest label)."""
    order: list[int] = []
    placed = 0
    left = list(range(len(masks)))
    while left:
        v = max(left, key=lambda u: ((masks[u] & placed).bit_count(), masks[u].bit_count(), -u))
        left.remove(v)
        order.append(v)
        placed |= 1 << v
    return order


class _VertexSearch(_BudgetedSearch):
    """DFS that colors the host one vertex at a time; finds an avoider or
    proves that every coloring hits a target.

    A node colors the edges among the first i vertices of `order`, stored as
    k color classes of adjacency masks over those positions.  Its children
    split vertex i's edges to the placed vertices over the colors with the
    corpus's `_split`, and each color is tested by its spec as in `augment`:
    a path color's sets against the `path_ends` table of its class, built
    once per node, and any other target by containment after each full
    split.  A state is a rejected set or a full split.
    """

    def __init__(self, host: Graph, targets: list[Graph], budget: Budget,
                 deadline: float | None, counter=None, found=None, index: int = 0):
        super().__init__(budget, deadline, counter)
        # a parallel task: the run's smallest prefix index with an avoider, and its own
        self.found = found
        self.index = index
        self.host = host
        # a path target by its order, any other by the graph itself
        self.specs = [is_path_shape(t) or t for t in targets]
        self.graphs = any(isinstance(s, Graph) for s in self.specs)
        masks = adjacency_masks(host)
        self.order = _placement_order(masks)
        position = {v: i for i, v in enumerate(self.order)}
        # per position, the mask of its host neighbors placed before it
        self.back = [sum(1 << position[u] for u in _bits(masks[v]) if position[u] < i)
                     for i, v in enumerate(self.order)]
        self.root: Coloring = ((),) * len(targets)

    def check(self) -> None:
        """As for any budgeted search; a parallel task also stops once a task
        of a smaller prefix has found an avoider."""
        super().check()
        if self.found is not None and self.found.value < self.index:
            raise _Superseded

    def children(self, node: Coloring) -> Iterator[Coloring]:
        """The colorings of one more vertex that extend `node` and avoid every
        target, in the order the search tries them."""
        i = len(node[0])
        k = len(node)
        tables = _tables(self.specs, node)
        for sets in _split(self.back[i], list(range(k)), tables, [0] * k, [0] * k, [i] * k,
                           self._tick):
            child = _grow(node, sets, i)
            if not (self.graphs and _contains_target(self.specs, child)):
                yield child

    def run(self, node: Coloring) -> Coloring | None:
        """The first avoiding coloring of the host that extends `node`, or None.
        Raises BudgetExceeded on exhaustion."""
        if len(node[0]) == len(self.order):
            return node
        for child in self.children(node):
            avoider = self.run(child)
            if avoider is not None:
                return avoider
        return None

    def witness(self, node: Coloring) -> ColoredGraph:
        """A full node as a coloring of the host."""
        color = {}
        for c, masks in enumerate(node):
            for i, m in enumerate(masks):
                for j in _bits(m & (1 << i) - 1):
                    color[edge_key(self.order[i], self.order[j])] = c
        return ColoredGraph(self.host, len(node), color)


# (shared state counter, absolute deadline, smallest prefix index with an
# avoider) of the parallel run a pool worker serves
_run_limits: tuple = (None, None, None)


def _init_worker(counter, deadline: float | None, found) -> None:
    global _run_limits
    _run_limits = (counter, deadline, found)


def _search_task(args):
    """(avoider, states, budget exhausted?) of one prefix task."""
    host, targets, budget, index, prefix = args
    counter, deadline, found = _run_limits
    search = _VertexSearch(host, targets, budget, deadline, counter, found, index)
    try:
        # a task that starts after the budget ran out, or after a smaller
        # prefix found an avoider, does nothing
        search.check()
        avoider = search.run(prefix)
        if avoider is not None:
            with found.get_lock():
                found.value = min(found.value, index)
        return avoider, search.nodes, False
    except BudgetExceeded as exc:
        return None, exc.nodes, True
    except _Superseded:
        return None, search.nodes, False
    finally:
        search.flush()


def all_colorings_hit(
    host: Graph,
    targets: list[Graph],
    budget: Budget = Budget(),
    workers: int = 1,
) -> tuple[bool | None, ColoredGraph | None, int]:
    """(verdict, avoider, states): verdict None means budget exhausted.

    With workers > 1 the search first lists, in its own order, the colorings
    of its first vertices, one more vertex at a time until there are at least
    four per worker, and each becomes a task.  Once a task finds an avoider,
    the tasks of later prefixes stop, before they start or at their next
    shared check; the tasks of earlier prefixes run to completion, so the
    witness is the avoider of the first prefix that has one, the serial
    search's, whatever the worker count.  The budget holds for the whole run:
    the node budget may overshoot by at most CHECK_INTERVAL states per worker.
    """
    _require(targets, workers)
    deadline = budget.deadline()
    start = time.monotonic()
    verdict, witness, states = _search(host, targets, budget, workers, deadline)
    log.info("coloring search on %d vertices: all hit %s after %d states in %.3f s",
             host.n, verdict, states, time.monotonic() - start)
    return verdict, witness, states


def _require(targets: list[Graph], workers: int) -> None:
    if len(targets) < 1:
        raise GraphError("need at least one target")
    if workers < 1:
        raise GraphError("worker count must be positive")


def _search(host: Graph, targets: list[Graph], budget: Budget, workers: int,
            deadline: float | None) -> tuple[bool | None, ColoredGraph | None, int]:
    """The search behind `all_colorings_hit`, in this process or split over workers."""
    # an edgeless target fits in every coloring of a host at least its size
    if any(not t.edges and t.n <= host.n for t in targets):
        return True, None, 0
    search = _VertexSearch(host, targets, budget, deadline)
    try:
        if workers == 1 or len(host.edges) < 8:
            avoider = search.run(search.root)
            return avoider is None, None if avoider is None else search.witness(avoider), search.nodes
        prefixes = [search.root]
        while 0 < len(prefixes) < 4 * workers and len(prefixes[0][0]) < host.n:
            prefixes = [child for node in prefixes for child in search.children(node)]
    except BudgetExceeded as exc:
        return None, None, exc.nodes
    if not prefixes:
        return True, None, search.nodes
    ctx = multiprocessing.get_context()
    counter = ctx.Value("q", search.nodes)
    found = ctx.Value("q", len(prefixes))
    with ProcessPoolExecutor(max_workers=min(workers, len(prefixes)), mp_context=ctx,
                             initializer=_init_worker, initargs=(counter, deadline, found)) as pool:
        tasks = [(host, targets, budget, i, p) for i, p in enumerate(prefixes)]
        results = list(pool.map(_search_task, tasks))
    total = search.nodes + sum(nodes for _, nodes, _ in results)
    first = next((avoider for avoider, _, _ in results if avoider is not None), None)
    if first is not None:
        return False, search.witness(first), total
    return (None if any(over for _, _, over in results) else True), None, total


def _coloring_of(classes: Coloring, k: int) -> ColoredGraph:
    """The k-coloring of K_n with color c on the edges of class c, k-1 on the rest."""
    n = len(classes[0])
    color = {}
    for u in range(n):
        for v in range(u + 1, n):
            color[u, v] = next((c for c, masks in enumerate(classes) if masks[u] >> v & 1), k - 1)
    return ColoredGraph(complete_graph(n), k, color)


def verify_ramsey_value(
    N: int,
    targets: list[Graph],
    budget: Budget = Budget(),
    workers: int = 1,
) -> RamseyReport:
    """Check that N is exactly the Ramsey number R(H_1, ..., H_k) of the targets.

    IsRamsey needs every coloring of K_N to hit some target and some coloring
    of K_{N-1} to avoid them all; an avoiding coloring of K_N gives TooSmall.
    A k-coloring of K_n avoids the targets exactly when no color c holds
    H_c, a hereditary property.  So level n of the isomorph-free vertex
    augmentation is every avoiding coloring of K_n up to isomorphism: an
    empty level N proves that every coloring of K_N hits a target, and level
    N-1 holds the critical colorings.  One target H is augmented as the pair
    (H, P2): a coloring with no edge in the second color is K_n in the first,
    so R(H) = R(H, P2).  Each state of the augmentation, a choice of the new
    vertex's edges that a path-end table rejects or a full child, is one
    state of the budget.  The augmentation is serial, so `workers` is checked
    but has no effect.

    Before it, the coloring search gets N^2 states to find an avoider of K_N.
    Below the Ramsey number it usually does (for two equal paths up to P14 it
    always did), where the augmentation would first have to list every
    avoiding coloring of K_{N-1}: all 12,346 graphs on 8 vertices for P9.
    """
    if N < 1:
        raise GraphError("Ramsey candidate N must be positive")
    _require(targets, workers)
    start = time.monotonic()
    k = len(targets)
    search = _BudgetedSearch(budget, budget.deadline())
    probe_budget = Budget(max_nodes=min(N * N, budget.max_nodes or N * N))
    probe = _VertexSearch(complete_graph(N), targets, probe_budget, search.deadline)
    try:
        avoider = probe.run(probe.root)
    except BudgetExceeded:
        avoider = None
    search.nodes = probe.nodes
    if avoider is not None:
        return RamseyReport(RamseyOutcome.TOO_SMALL, probe.witness(avoider),
                            search.nodes, time.monotonic() - start)

    specs = probe.specs if k > 1 else probe.specs + [2]  # one target H as (H, P2)
    # levels N-1 and N once the loop is done; N >= 1, so it runs at least once
    critical, upper = None, Level([((),) * (len(specs) - 1)], 1)
    try:
        search.check()
        for n, level in enumerate(augment(specs, N, search._tick), start=1):
            log.info("augmentation level K%d: catalog offered %d, refined %d, %d stuck parents: "
                     "%d colorings kept, %d up to isomorphism, %d states",
                     n, level.offered, level.refined, level.stuck,
                     len(level.colorings), level.classes, search.nodes)
            critical, upper = upper, level
    except BudgetExceeded as exc:
        return RamseyReport(RamseyOutcome.INDETERMINATE, None, exc.nodes, time.monotonic() - start)
    if upper.colorings:
        outcome, witness = RamseyOutcome.TOO_SMALL, _coloring_of(upper.colorings[0], k)
    elif not critical.colorings:
        outcome, witness = RamseyOutcome.NOT_TIGHT, None
    else:
        outcome, witness = RamseyOutcome.IS_RAMSEY, _coloring_of(critical.colorings[0], k)
    return RamseyReport(outcome, witness, search.nodes, time.monotonic() - start, critical.classes)


def verify_goodness(
    g: Graph,
    targets: list[Graph],
    budget: Budget = Budget(),
    workers: int = 1,
) -> GoodnessCertificate:
    """Exhaustively check that every k-coloring of g hits some target."""
    start = time.monotonic()
    verdict, witness, nodes = all_colorings_hit(g, targets, budget, workers=workers)
    elapsed = time.monotonic() - start
    if verdict is None:
        return GoodnessCertificate(GoodnessVerdict.INDETERMINATE, None, nodes, elapsed)
    if verdict:
        return GoodnessCertificate(GoodnessVerdict.ALL_COLORINGS_HIT, None, nodes, elapsed)
    return GoodnessCertificate(GoodnessVerdict.COUNTEREXAMPLE_COLORING, witness, nodes, elapsed)


# ---------------------------------------------------------------------------
# Closed forms and exact small extremal numbers.

def erdos_gallai_path_bound(n: int, N: int) -> int:
    """The certified upper bound floor((N-2) n / 2) on edges of P_N-free graphs."""
    if N < 2:
        raise GraphError("path order must be at least 2")
    return (N - 2) * n // 2


def exact_turan_path(n: int, N: int) -> int:
    """ex(n, P_N): the most edges of a P_N-free graph on n vertices, taken
    over level n of the isomorph-free `generate_pn_free`."""
    if N < 2:
        raise GraphError("path order must be at least 2")
    if n < 0:
        raise GraphError("vertex count must not be negative")
    if N > n:  # every graph on n vertices is P_N-free
        return n * (n - 1) // 2
    return max(sum(map(int.bit_count, masks)) // 2 for masks in generate_pn_free(N, n)[n])


def turan_threshold(
    n: int, targets: list[Graph], ex_bounds: list[int] | None = None
) -> Fraction:
    """The chromatic threshold 1 + (2/n) * sum of extremal bounds.

    Bounds ship only for path targets; anything else needs caller-supplied
    ex_bounds, one per target in matching order.
    """
    if n <= 0:
        raise GraphError("n must be positive")
    if ex_bounds is None:
        ex_bounds = []
        for i, h in enumerate(targets):
            N = is_path_shape(h)
            if N is None:
                raise GraphError(f"target {i} is not a path; supply an extremal bound")
            ex_bounds.append(erdos_gallai_path_bound(n, N))
    elif len(ex_bounds) != len(targets):
        raise GraphError(f"{len(ex_bounds)} extremal bounds for {len(targets)} targets")
    return 1 + Fraction(2, n) * sum(ex_bounds)


def star_ramsey(n: int, k: int) -> int:
    """Closed-form k-color Ramsey number of the star on n vertices."""
    if n < 2 or k < 1:
        raise GraphError("star_ramsey needs n >= 2, k >= 1")
    if n == 2:
        return 2
    eps = 1 if (n % 2 == 1 and k % 2 == 0) else 2
    return k * (n - 2) + eps


@dataclass(frozen=True)
class BrooksBranch:
    branch: str  # "max_degree" or "odd_cycle"
    center: int | None  # guaranteed star center for the max-degree branch


def brooks_star_check(g: Graph, n: int, k: int) -> BrooksBranch:
    """Which Brooks alternative guarantees a monochromatic star on n vertices.

    Caller guarantees chi(g) >= k(n-2)+1; complete graphs are excluded.
    """
    if len(g.edges) == g.n * (g.n - 1) // 2 and g.n > 1:
        raise GraphError("complete graphs are excluded from the Brooks argument")
    threshold = k * (n - 2) + 1
    degs = [g.degree(v) for v in range(g.n)]
    if degs and max(degs) >= threshold:
        return BrooksBranch("max_degree", max(range(g.n), key=lambda v: degs[v]))
    is_odd_cycle = (
        g.n >= 3 and g.n % 2 == 1 and all(d == 2 for d in degs)
        and len(connected_components(g)) == 1
    )
    if is_odd_cycle and threshold == 3:
        return BrooksBranch("odd_cycle", None)
    raise GraphError(
        "hypothesis violation: neither a high-degree vertex nor the odd-cycle case applies"
    )


# ---------------------------------------------------------------------------
# Exact chromatic number.

def _greedy_clique(masks: tuple[int, ...]) -> list[int]:
    order = sorted(range(len(masks)), key=lambda v: -masks[v].bit_count())
    clique: list[int] = []
    for v in order:
        if all(masks[v] >> u & 1 for u in clique):
            clique.append(v)
    return clique


class _Colorer(_BudgetedSearch):
    """Exact k-coloring by backtracking from a greedy clique, always coloring
    the vertex with the fewest colors left next.

    One colorer serves one budgeted call: its states and its deadline span
    every k it is asked about.
    """

    def __init__(self, g: Graph, budget: Budget = Budget()):
        super().__init__(budget, budget.deadline())
        masks = adjacency_masks(g)
        self.nbrs = [[u for u in range(g.n) if m >> u & 1] for m in masks]
        self.clique = _greedy_clique(masks)

    def color(self, k: int) -> list[int] | None:
        """A proper coloring with colors 0..k-1, one per vertex; None if there is none.

        Raises BudgetExceeded once the budget runs out.
        """
        if len(self.clique) > k:
            return None
        n, nbrs = len(self.nbrs), self.nbrs
        colors = [-1] * n
        for i, v in enumerate(self.clique):
            colors[v] = i

        def used(v: int) -> set[int]:
            return {colors[u] for u in nbrs[v] if colors[u] >= 0}

        def choices() -> tuple[int, Iterator[int]]:
            """The next vertex to color and the colors left to try on it."""
            v = max((u for u in range(n) if colors[u] < 0), key=lambda u: len(used(u)))
            blocked = used(v)
            # the colors in use are 0..max(colors); one new color stands for all unused ones
            return v, iter([c for c in range(min(k, max(colors) + 2)) if c not in blocked])

        # backtracking with an explicit stack, one frame per colored vertex, so
        # the depth is not bounded by the interpreter's recursion limit
        remaining = n - len(self.clique)
        if remaining == 0:
            return colors
        stack = [choices()]
        while stack:
            v, left = stack[-1]
            c = next(left, None)
            if c is None:
                colors[v] = -1
                stack.pop()
                continue
            self._tick()
            colors[v] = c
            if len(stack) == remaining:
                return colors
            stack.append(choices())
        return None


def is_k_colorable(g: Graph, k: int) -> bool:
    """Is there a proper coloring of g with k colors?"""
    return _Colorer(g).color(k) is not None


def chromatic_number(g: Graph, budget: Budget = Budget()) -> int:
    """Exact chromatic number: the least k from the clique size up that colors g.

    Raises BudgetExceeded once the states or the time of the whole call run
    past the budget.
    """
    colorer = _Colorer(g, budget)
    k = len(colorer.clique)
    while colorer.color(k) is None:
        k += 1
    return k
