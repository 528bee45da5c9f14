"""Independent checks of the benchmark's outputs.

Nothing here imports the package under test.  Each check recomputes its
answer another way: a plain DFS path search, the Gerencsér–Gyárfás closed
form, graph counts from the networkx atlas, networkx isomorphism, a
re-derivation of the four boundedness conditions from the marks, and direct
properness checks of every coloring.  networkx is imported lazily, so that it
is loaded only after the timed section and the memory reading.
"""

from __future__ import annotations

import warnings
from itertools import combinations, permutations, product

# The (n, s, t) triples of the paper's theorem for P5-, P6- and P7-free parts.
PAPER_PARAMS = {5: (5, 1, 4), 6: (7, 2, 5), 7: (8, 2, 6)}


# ---------------------------------------------------------------------------
# Paths and Ramsey values.

def neighbour_sets(n: int, edges) -> list[set[int]]:
    adj: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def masks_to_edges(masks) -> list[tuple[int, int]]:
    n = len(masks)
    return [(u, v) for u in range(n) for v in range(u + 1, n) if masks[u] >> v & 1]


def has_path(adj: list[set[int]], N: int) -> bool:
    """Is there a simple path on N vertices?  Plain DFS from every start."""
    if N <= 1:
        return len(adj) >= N

    def extend(v: int, visited: set[int], length: int) -> bool:
        if length == N:
            return True
        for w in adj[v]:
            if w not in visited:
                visited.add(w)
                if extend(w, visited, length + 1):
                    return True
                visited.remove(w)
        return False

    return any(extend(v, {v}, 1) for v in range(len(adj)))


def is_connected(adj: list[set[int]]) -> bool:
    seen = {0}
    stack = [0]
    while stack:
        for w in adj[stack.pop()] - seen:
            seen.add(w)
            stack.append(w)
    return len(seen) == len(adj)


def gerencser_gyarfas(n: int, m: int) -> int:
    """R(P_n, P_m) = n + floor(m/2) - 1 for n >= m >= 2."""
    n, m = max(n, m), min(n, m)
    return n + m // 2 - 1


def avoiding_witness_errors(doc: dict, orders: list[int]) -> list[str]:
    """A lower-side witness is a coloring of a complete graph on N-1 vertices
    in which no color class c holds a path on orders[c] vertices."""
    n, k, rows = doc["n"], doc["k"], doc["edges"]
    errors = []
    if k != len(orders):
        errors.append(f"witness has {k} colors, expected {len(orders)}")
    pairs = {(u, v) for u, v, _c, _o in rows}
    if len(pairs) != len(rows) or pairs != {(u, v) for u in range(n) for v in range(u + 1, n)}:
        errors.append(f"witness does not color every edge of K{n} exactly once")
    for c, order in enumerate(orders):
        cls = [(u, v) for u, v, col, _o in rows if col == c]
        if has_path(neighbour_sets(n, cls), order):
            errors.append(f"witness color {c} holds a path on {order} vertices")
    return errors


# ---------------------------------------------------------------------------
# The corpus.

def atlas_pn_free_counts(N: int, max_n: int) -> dict[int, int]:
    """Number of P_N-free graphs on n vertices, 1 <= n <= max_n <= 7, from the
    networkx atlas of all graphs on at most seven vertices."""
    import networkx as nx

    counts = {n: 0 for n in range(1, max_n + 1)}
    for g in nx.graph_atlas_g():
        n = g.number_of_nodes()
        if 1 <= n <= max_n and not has_path(neighbour_sets(n, g.edges()), N):
            counts[n] += 1
    return counts


def isomorphic_pairs(level) -> int:
    """Number of isomorphic pairs among a list of graphs given as masks.

    Graphs with different networkx WL hashes are not isomorphic, so only pairs
    inside one hash bucket go to networkx's exact test.
    """
    import networkx as nx

    buckets: dict[str, list] = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # notes a hash change across versions
        for masks in level:
            g = nx.Graph()
            g.add_nodes_from(range(len(masks)))
            g.add_edges_from(masks_to_edges(masks))
            buckets.setdefault(nx.weisfeiler_lehman_graph_hash(g), []).append(g)
    pairs = 0
    for bucket in buckets.values():
        for i in range(len(bucket)):
            for j in range(i + 1, len(bucket)):
                pairs += nx.is_isomorphic(bucket[i], bucket[j])
    return pairs


# ---------------------------------------------------------------------------
# Boundedness of one single-colored part, rederived from the marks.
# A mark on the sorted edge (u, v) is 0 (unoriented), 1 (u -> v) or 2 (v -> u).

def boundedness_violations(n: int, edges, marks: dict, N: int) -> list[str]:
    """Conditions (1)-(4) of (n, s, t)-boundedness for the whole graph as one part."""
    bn, s, t = PAPER_PARAMS[N]
    d = [0] * n
    din = [0] * n
    dout = [0] * n
    succ: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        mark = marks.get((u, v), 0)
        if mark == 0:
            d[u] += 1
            d[v] += 1
            continue
        tail, head = (u, v) if mark == 1 else (v, u)
        dout[tail] += 1
        din[head] += 1
        succ[tail].add(head)
    out = []
    for v in range(n):
        if din[v] > 0 and d[v] + din[v] + min(1, dout[v]) > s:
            out.append(f"(1) at vertex {v}")
        if d[v] + min(1, din[v] + dout[v]) > t - 1:
            out.append(f"(2) at vertex {v}")

    def reach(v: int) -> set[int]:
        seen: set[int] = set()
        stack = list(succ[v])
        while stack:
            w = stack.pop()
            if w not in seen:
                seen.add(w)
                stack.extend(succ[w])
        return seen

    reached = [reach(v) for v in range(n)]
    heavy = {v for v in range(n) if din[v] >= 2}
    sinks = {v for v in heavy if not reached[v] & heavy}
    feeders = {v for v in range(n) if reached[v] & sinks}
    if (sinks or feeders) and len(sinks) <= len(feeders):
        out.append(f"(3) |T-|={len(sinks)} <= |T+|={len(feeders)}")
    if n > bn and not any(marks.get(e, 0) for e in edges):
        out.append(f"(4) {n} > {bn} vertices and no oriented edge")
    return out


# ---------------------------------------------------------------------------
# Colorings.

def cyclic_triangle_host(m: int, shifts) -> dict[tuple[int, int], int]:
    """Edge colors of the cyclic Latin-square host, rebuilt from its definition.

    Vertices are the cells (i, i + c mod m), listed shift by shift; the cells
    of one row (color 0), one column (color 1) or one symbol i + j (color 2)
    form a triangle.
    """
    cells = [(i, (i + c) % m) for c in shifts for i in range(m)]
    index = {cell: k for k, cell in enumerate(cells)}
    color = {}
    groups = (lambda cell: cell[0], lambda cell: cell[1], lambda cell: (cell[0] + cell[1]) % m)
    for col, key in enumerate(groups):
        classes: dict[int, list[int]] = {}
        for cell in cells:
            classes.setdefault(key(cell), []).append(index[cell])
        for members in classes.values():
            for u, v in combinations(sorted(members), 2):
                color[(u, v)] = col
    return color


def is_triangle_decomposition(n: int, color: dict, triangles: list[set[int]]) -> bool:
    """Every triangle is monochromatic and every edge lies in exactly one."""
    covered = []
    for t in triangles:
        pairs = list(combinations(sorted(t), 2))
        if len(t) != 3 or len({color.get(e) for e in pairs}) != 1 or None in {color.get(e) for e in pairs}:
            return False
        covered += pairs
    return sorted(covered) == sorted(color) and all(0 <= v < n for t in triangles for v in t)


def edge_coloring_errors(edges, coloring: dict) -> tuple[int, list[str]]:
    """(max degree, errors) for a coloring of multigraph edges (u, v, label)
    that must be proper and use exactly the colors 0..max degree-1."""
    degree: dict[int, int] = {}
    seen = set()
    errors = []
    for u, v, label in edges:
        for x in (u, v):
            degree[x] = degree.get(x, 0) + 1
            key = (x, coloring[label])
            if key in seen:
                errors.append(f"two edges at {x} share color {coloring[label]}")
            seen.add(key)
    delta = max(degree.values(), default=0)
    if set(coloring.values()) != set(range(delta)):
        errors.append(f"colors {sorted(set(coloring.values()))} are not 0..{delta - 1}")
    return delta, errors


def vertex_coloring_errors(n: int, edges, coloring: dict) -> list[str]:
    if set(coloring) != set(range(n)):
        return ["vertex coloring does not cover the host"]
    return [f"edge {e} is monochromatic" for e in edges if coloring[e[0]] == coloring[e[1]]]


def hyperedge_coloring_errors(edges, colors: list[int]) -> list[str]:
    """Hyperedges that share a vertex must get different colors."""
    owner: dict[tuple[int, int], int] = {}
    errors = []
    for i, e in enumerate(edges):
        for v in e:
            j = owner.setdefault((v, colors[i]), i)
            if j != i:
                errors.append(f"hyperedges {j} and {i} meet at {v} with color {colors[i]}")
    return errors


def brute_chromatic_index(edges) -> int:
    """Least k with a proper hyperedge k-coloring, by trying every assignment."""
    for k in range(1, len(edges) + 1):
        for colors in product(range(k), repeat=len(edges)):
            if not hyperedge_coloring_errors(edges, list(colors)):
                return k
    return 0


def is_latin_square_hypergraph(n: int, edges) -> bool:
    """3-uniform, 3-regular, linear, and 3-partite on the blocks of n/3 vertices."""
    m = n // 3
    degree = [0] * n
    for e in edges:
        for v in e:
            degree[v] += 1
    blocks_met = all(sorted(v // m for v in e) == [0, 1, 2] for e in edges)
    linear = all(len(set(a) & set(b)) <= 1 for i, a in enumerate(edges) for b in edges[i + 1:])
    return (
        n % 3 == 0 and all(len(e) == 3 for e in edges) and degree == [3] * n
        and blocks_met and linear
    )


def latin_square_hypergraphs(order: int) -> list[list[tuple[int, int, int]]]:
    """Every Latin square of the given order as (row, column, symbol) hyperedges
    on the vertex blocks rows 0..m-1, columns m..2m-1, symbols 2m..3m-1."""
    m = order
    out = []
    rows = list(permutations(range(m)))
    for square in product(rows, repeat=m):
        if all(len({square[r][c] for r in range(m)}) == m for c in range(m)):
            out.append([(r, m + c, 2 * m + square[r][c]) for r in range(m) for c in range(m)])
    return out


def incidence_graph(n: int, edges):
    """Bipartite vertex/hyperedge incidence graph, for networkx isomorphism."""
    import networkx as nx

    g = nx.Graph()
    g.add_nodes_from(range(n), kind="vertex")
    for i, e in enumerate(edges):
        g.add_node(("e", i), kind="edge")
        g.add_edges_from((("e", i), v) for v in e)
    return g


def hypergraphs_isomorphic(a, b) -> bool:
    import networkx as nx
    from networkx.algorithms.isomorphism import categorical_node_match

    return nx.is_isomorphic(a, b, node_match=categorical_node_match("kind", None))
