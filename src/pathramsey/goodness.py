"""Ramsey-side machinery: exhaustive coloring verification and closed forms.

The coloring searches are exact enumerations with two sound prunings: early
exit once a partial coloring already forces a monochromatic target, and (for
complete hosts with identical targets) canonical restrictions that fix a
representative per symmetry orbit.  Budgets are explicit; an exhausted budget
yields an Indeterminate outcome, never a guess.
"""

from __future__ import annotations

import multiprocessing
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import product

from .detect import _path_through, find_path, longest_path_order
from .graphs import ColoredGraph, Graph, GraphError, adjacency_masks, complete_graph


@dataclass(frozen=True)
class Budget:
    """Hard limits for a search; None means unlimited."""

    max_nodes: int | None = None
    max_seconds: float | None = None

    def __post_init__(self):
        if self.max_nodes is not None and self.max_nodes <= 0:
            raise GraphError("node budget must be positive")
        if self.max_seconds is not None and self.max_seconds <= 0:
            raise GraphError("time budget must be positive")


class BudgetExceeded(Exception):
    def __init__(self, nodes: int):
        super().__init__(f"search budget exceeded after {nodes} states")
        self.nodes = nodes


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


@dataclass(frozen=True)
class GoodnessCertificate:
    verdict: GoodnessVerdict
    witness: ColoredGraph | None
    colorings_checked: int
    elapsed: float = 0.0


# ---------------------------------------------------------------------------
# Target handling.

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
    N = is_path_shape(h)
    if N is not None:
        return find_path(g, N) is not None
    n_star = is_star_shape(h)
    if n_star is not None:
        return any(g.degree(v) >= n_star - 1 for v in range(g.n))
    gm = adjacency_masks(g)
    hm = adjacency_masks(h)
    order = sorted(range(h.n), key=lambda v: -h.degree(v))

    def place(i: int, assign: dict[int, int], used: int) -> bool:
        if i == len(order):
            return True
        hv = order[i]
        req = [assign[u] for u in range(h.n) if hm[hv] >> u & 1 and u in assign]
        for gv in range(g.n):
            if used >> gv & 1:
                continue
            if all(gm[gv] >> r & 1 for r in req):
                assign[hv] = gv
                if place(i + 1, assign, used | 1 << gv):
                    return True
                del assign[hv]
        return False

    return place(0, {}, 0)


# ---------------------------------------------------------------------------
# Core enumeration.

# States between budget checks; at each one a parallel task also adds its
# states to the state counter that all tasks of the run share.
CHECK_INTERVAL = 4096


class _Searcher:
    """DFS over edge colorings; finds an avoider or proves all colorings hit."""

    def __init__(self, host: Graph, targets: list[Graph], budget: Budget, symmetric: bool,
                 deadline: float | None, counter=None):
        self.host = host
        self.targets = targets
        self.k = len(targets)
        self.edges = host.sorted_edges()
        self.budget = budget
        self.symmetric = symmetric and _is_complete(host) and _all_equal(targets)
        self.path_orders = [is_path_shape(t) for t in targets]
        self.star_orders = [is_star_shape(t) for t in targets]
        self.nodes = 0
        self.flushed = 0
        self.counter = counter
        self.deadline = deadline

    def _tick(self):
        self.nodes += 1
        if self.budget.max_nodes is not None and self.nodes > self.budget.max_nodes:
            raise BudgetExceeded(self.nodes)
        if self.nodes % CHECK_INTERVAL == 0:
            self.check()

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

    def _hits(self, adj: list[list[int]], c: int, u: int, v: int) -> bool:
        """Did coloring edge (u, v) with c complete target c in class c?"""
        N = self.path_orders[c]
        if N is not None:
            return _path_through(adj[c], u, v, N)
        n_star = self.star_orders[c]
        if n_star is not None:
            need = n_star - 1
            return (
                bin(adj[c][u]).count("1") >= need or bin(adj[c][v]).count("1") >= need
            )
        cls = Graph(self.host.n, frozenset(
            e for e, col in zip(self.edges, self._colors) if col == c
        ))
        return contains_subgraph(cls, self.targets[c])

    def run(self, prefix: tuple[int, ...] = ()) -> tuple[bool, dict | None]:
        """(all_hit, avoider-colors).  Raises BudgetExceeded on exhaustion.

        `prefix` pins the colors of the first edges (for work partitioning);
        prefixes inconsistent with the symmetry constraints report all-hit
        vacuously.
        """
        n_edges = len(self.edges)
        adj = [[0] * self.host.n for _ in range(self.k)]
        self._colors = [-1] * n_edges
        avoider: dict | None = None

        def assign(depth: int, c: int) -> bool:
            # returns True if every completion below this assignment hits
            nonlocal avoider
            u, v = self.edges[depth]
            self._tick()
            adj[c][u] |= 1 << v
            adj[c][v] |= 1 << u
            self._colors[depth] = c
            try:
                if self._hits(adj, c, u, v):
                    return True
                if depth + 1 == n_edges:
                    if avoider is None:
                        avoider = {e: self._colors[i] for i, e in enumerate(self.edges)}
                    return False
                return descend(depth + 1)
            finally:
                adj[c][u] &= ~(1 << v)
                adj[c][v] &= ~(1 << u)
                self._colors[depth] = -1

        def allowed_colors(depth: int) -> range | list[int]:
            colors = range(self.k)
            if self.symmetric:
                u, v = self.edges[depth]
                lo = 0
                if u == 0 and depth > 0 and self.edges[depth - 1][0] == 0:
                    lo = self._colors[depth - 1]  # vertex-0 star nondecreasing
                colors = range(lo, min(self.k, max(self._colors[:depth], default=-1) + 2))
            if depth < len(prefix):
                # a pinned color the symmetry rules forbid leaves nothing to
                # search: its canonical representative lives in another prefix
                return [prefix[depth]] if prefix[depth] in colors else []
            return colors

        def descend(depth: int) -> bool:
            for c in allowed_colors(depth):
                if not assign(depth, c):
                    return False
            return True

        # an edgeless target fits in every coloring of a host at least its size,
        # and _hits only looks for targets through a freshly colored edge
        if any(not t.edges and t.n <= self.host.n for t in self.targets):
            return True, None
        if n_edges == 0:
            return False, {}
        all_hit = descend(0)
        return all_hit, (None if all_hit else avoider)


def _is_complete(g: Graph) -> bool:
    return len(g.edges) == g.n * (g.n - 1) // 2


def _all_equal(targets: list[Graph]) -> bool:
    return all(t == targets[0] for t in targets[1:])


# (shared state counter, absolute deadline) of the parallel run a pool worker serves
_run_limits: tuple = (None, None)


def _init_worker(counter, deadline: float | None) -> None:
    global _run_limits
    _run_limits = (counter, deadline)


def _search_task(args):
    host_n, edges, target_specs, budget, symmetric, prefix = args
    host = Graph.from_edges(host_n, edges)
    targets = [Graph.from_edges(n, es) for n, es in target_specs]
    counter, deadline = _run_limits
    searcher = _Searcher(host, targets, budget, symmetric, deadline, counter)
    try:
        searcher.check()  # a task that starts after the budget ran out does nothing
        all_hit, avoider = searcher.run(prefix)
        return all_hit, avoider, searcher.nodes, False
    except BudgetExceeded as exc:
        return True, None, exc.nodes, True
    finally:
        searcher.flush()


def all_colorings_hit(
    host: Graph,
    targets: list[Graph],
    budget: Budget = Budget(),
    symmetric: bool = True,
    workers: int = 1,
) -> tuple[bool | None, ColoredGraph | None, int]:
    """(verdict, avoider, states): verdict None means budget exhausted.

    With workers > 1 the coloring space is split by fixed prefixes over the
    first edges; every task runs to completion, so the verdict and witness are
    deterministic regardless of worker count.  The budget holds for the whole
    run: it may overshoot by at most CHECK_INTERVAL states per worker.
    """
    k = len(targets)
    if k < 1:
        raise GraphError("need at least one target")
    deadline = time.monotonic() + budget.max_seconds if budget.max_seconds else None
    if workers <= 1 or len(host.edges) < 8:
        searcher = _Searcher(host, targets, budget, symmetric, deadline)
        try:
            all_hit, avoider = searcher.run()
        except BudgetExceeded as exc:
            return None, None, exc.nodes
        witness = None if avoider is None else ColoredGraph(host, k, avoider)
        return all_hit, witness, searcher.nodes
    prefix_len = 1
    while k ** prefix_len < 4 * workers and prefix_len < len(host.edges) - 1:
        prefix_len += 1
    prefixes = sorted(product(range(k), repeat=prefix_len))
    target_specs = tuple((t.n, tuple(t.sorted_edges())) for t in targets)
    spec = (host.n, tuple(host.sorted_edges()), target_specs, budget, symmetric)
    ctx = multiprocessing.get_context()
    counter = ctx.Value("q", 0)
    total = 0
    avoider_map = None
    exhausted = False
    with ProcessPoolExecutor(max_workers=workers, mp_context=ctx, initializer=_init_worker,
                             initargs=(counter, deadline)) as pool:
        for all_hit, avoider, nodes, over in pool.map(
            _search_task, [spec + (p,) for p in prefixes]
        ):
            total += nodes
            exhausted = exhausted or over
            if avoider is not None and avoider_map is None:
                avoider_map = avoider
    if avoider_map is not None:
        return False, ColoredGraph(host, k, avoider_map), total
    if exhausted:
        return None, None, total
    return True, None, total


def find_avoiding_coloring(
    host: Graph, targets: list[Graph], budget: Budget = Budget()
) -> tuple[ColoredGraph | None, int, bool]:
    """Search for a coloring with no monochromatic target; (witness, states, exhausted?)."""
    verdict, witness, nodes = all_colorings_hit(host, targets, budget, symmetric=True)
    if verdict is None:
        return None, nodes, True
    return witness, nodes, False


def verify_ramsey_value(
    N: int,
    targets: list[Graph],
    budget: Budget = Budget(),
    workers: int = 1,
) -> RamseyReport:
    """Check that N is exactly the Ramsey number of the target tuple.

    IsRamsey needs every coloring of K_N to hit some target and some coloring
    of K_{N-1} to avoid them all; an avoiding coloring of K_N gives TooSmall.
    """
    if N < 1:
        raise GraphError("Ramsey candidate N must be positive")
    start = time.monotonic()
    upper, witness, nodes_upper = all_colorings_hit(
        complete_graph(N), targets, budget, workers=workers
    )
    if upper is None:
        return RamseyReport(RamseyOutcome.INDETERMINATE, None, nodes_upper, time.monotonic() - start)
    if not upper:
        return RamseyReport(RamseyOutcome.TOO_SMALL, witness, nodes_upper, time.monotonic() - start)
    lower_witness, nodes_lower, exhausted = find_avoiding_coloring(
        complete_graph(N - 1), targets, budget
    )
    total = nodes_upper + nodes_lower
    if exhausted:
        return RamseyReport(RamseyOutcome.INDETERMINATE, None, total, time.monotonic() - start)
    if lower_witness is None:
        return RamseyReport(RamseyOutcome.NOT_TIGHT, None, total, time.monotonic() - start)
    return RamseyReport(RamseyOutcome.IS_RAMSEY, lower_witness, total, time.monotonic() - start)


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
    """Exact max edge count of a P_N-free graph on n labeled vertices (brute force)."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    best = 0
    for mask in range(1 << len(pairs)):
        cnt = bin(mask).count("1")
        if cnt <= best:
            continue
        g = Graph.from_edges(n, [pairs[i] for i in range(len(pairs)) if mask >> i & 1])
        if longest_path_order(g) < N:
            best = cnt
    return best


def turan_threshold(
    n: int, targets: list[Graph], ex_bounds: list[int] | None = None
) -> Fraction:
    """The chromatic threshold 1 + (2/n) * sum of extremal bounds.

    Bounds ship only for path targets; anything else needs caller-supplied
    ex_bounds in matching order.
    """
    if n <= 0:
        raise GraphError("n must be positive")
    bounds = []
    for i, h in enumerate(targets):
        if ex_bounds is not None:
            bounds.append(ex_bounds[i])
            continue
        N = is_path_shape(h)
        if N is None:
            raise GraphError(f"target {i} is not a path; supply an extremal bound")
        bounds.append(erdos_gallai_path_bound(n, N))
    return 1 + Fraction(2, n) * sum(bounds)


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
    if _is_complete(g) and g.n > 1:
        raise GraphError("complete graphs are excluded from the Brooks argument")
    threshold = k * (n - 2) + 1
    degs = [g.degree(v) for v in range(g.n)]
    if degs and max(degs) >= threshold:
        return BrooksBranch("max_degree", max(range(g.n), key=lambda v: degs[v]))
    from .graphs import connected_components

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
    order = sorted(range(len(masks)), key=lambda v: -bin(masks[v]).count("1"))
    clique: list[int] = []
    for v in order:
        if all(masks[v] >> u & 1 for u in clique):
            clique.append(v)
    return clique


def is_k_colorable(g: Graph, k: int) -> bool:
    """Backtracking k-colorability with clique seeding and fewest-choices order."""
    n = g.n
    if n == 0:
        return True
    if k >= n:
        return True
    masks = adjacency_masks(g)
    clique = _greedy_clique(masks)
    if len(clique) > k:
        return False
    colors = [-1] * n
    for i, v in enumerate(clique):
        colors[v] = i

    def choose() -> int | None:
        best_v, best_opts = None, None
        for v in range(n):
            if colors[v] != -1:
                continue
            used = {colors[u] for u in range(n) if masks[v] >> u & 1 and colors[u] != -1}
            opts = k - len(used)
            if opts == 0:
                return v
            if best_opts is None or opts < best_opts:
                best_v, best_opts = v, opts
        return best_v

    def solve(remaining: int) -> bool:
        if remaining == 0:
            return True
        v = choose()
        used = {colors[u] for u in range(n) if masks[v] >> u & 1 and colors[u] != -1}
        cap = min(k, max([colors[u] for u in range(n) if colors[u] != -1], default=-1) + 2)
        for c in range(cap):
            if c in used:
                continue
            colors[v] = c
            if solve(remaining - 1):
                return True
            colors[v] = -1
        return False

    return solve(n - len(clique))


def chromatic_number(g: Graph) -> int:
    """Exact chromatic number via clique lower bound plus k-colorability search."""
    if g.n == 0:
        return 0
    if not g.edges:
        return 1
    lo = len(_greedy_clique(adjacency_masks(g)))
    for k in range(max(lo, 2), g.n + 1):
        if is_k_colorable(g, k):
            return k
    return g.n
