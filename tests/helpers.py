"""Shared builders, generators, and independent checkers for the test suite.

The checkers here recompute everything from first principles (their own BFS,
their own constraint scans) so they stay independent of the library code
they validate.
"""

from __future__ import annotations

import random
from collections import deque

from ndchan import (
    Graph,
    NdPartition,
    WeightedGraph,
    build_shift_digraph,
)
from ndchan import solver
from ndchan.decomposition import CLIQUE, INDEPENDENT
from ndchan.errors import GuardExceeded


def send_probes_to_ilp(mp) -> None:
    """Answer every span probe of a part with the flow ILP through `mp` (a
    pytest MonkeyPatch): solve_flow picks the edge multiset over the part's
    whole shift digraph, an Euler walk orders it and _walk_slices checks and
    reads its slices, in place of the walk search, expanding no window.
    Searches for a least span (no span) still use the walk search."""
    search = solver._shortest_walk

    def by_ilp(sizes, weights, closure, span=None, max_windows=None):
        if span is None:
            return search(sizes, weights, closure, span, max_windows)
        digraph = build_shift_digraph(sizes, weights, max(weights.values()), max_nodes=max_windows)
        ms = solver.solve_flow(digraph, sizes, span)
        if ms is None:
            return None, 0
        walk = solver.euler_walk(ms, digraph)
        return solver._walk_slices(walk, digraph, sizes, span), 0

    mp.setattr(solver, "_shortest_walk", by_ilp)


def full_digraph_exceeds(wg: WeightedGraph, route: str, partition, guard: int) -> bool:
    """Whether some connected part of the route's type graph has more than
    `guard` windows (or more types than the build allows) in its shift
    digraph without the class-size bound.  A type no edge touches is in no
    part, as in the solver.

    The solver builds only the windows within the class sizes; with every
    size raised to the window length z no window is over a size, so this
    counts every valid window.  Selecting random draws on it keeps a test
    corpus fixed however tightly the solver bounds its digraph.
    """
    try:
        for sizes, weights, _, _ in solver._parts(wg, route, partition)[2]:
            z = max(weights.values())
            build_shift_digraph((z,) * len(sizes), weights, z, max_nodes=guard)
    except GuardExceeded:
        return True
    return False


def path_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def star_graph(leaves: int) -> Graph:
    return Graph.from_edges(leaves + 1, [(0, i + 1) for i in range(leaves)])


def complete_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def random_graph(rng: random.Random, n: int, p: float) -> Graph:
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ]
    return Graph.from_edges(n, edges)


def random_weighted_graph(rng: random.Random, n: int, p: float, wmax: int) -> WeightedGraph:
    triples = [
        (u, v, rng.randint(1, wmax))
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < p
    ]
    return WeightedGraph.from_edges(n, triples)


def uniform_instance(rng: random.Random, max_types=3, max_size=3, max_weight=3):
    """Random uniform instance built from a type-level description.

    Returns (weighted graph, partition); weights are uniform with respect to
    the partition by construction.
    """
    tau = rng.randint(1, max_types)
    sizes = [rng.randint(1, max_size) for _ in range(tau)]
    kinds = [
        rng.choice((CLIQUE, INDEPENDENT)) if s > 1 else INDEPENDENT for s in sizes
    ]
    offsets = []
    total = 0
    for s in sizes:
        offsets.append(total)
        total += s
    triples = []
    for i, (s, kind) in enumerate(zip(sizes, kinds)):
        if kind == CLIQUE:
            w = rng.randint(1, max_weight)
            triples += [
                (offsets[i] + a, offsets[i] + b, w)
                for a in range(s)
                for b in range(a + 1, s)
            ]
    for i in range(tau):
        for j in range(i + 1, tau):
            if rng.random() < 0.5:
                w = rng.randint(1, max_weight)
                triples += [
                    (offsets[i] + a, offsets[j] + b, w)
                    for a in range(sizes[i])
                    for b in range(sizes[j])
                ]
    wg = WeightedGraph.from_edges(total, triples)
    partition = NdPartition(
        tuple(
            frozenset(range(offsets[i], offsets[i] + sizes[i])) for i in range(tau)
        ),
        tuple(kinds),
    )
    return wg, partition


def connected_bipartite_instance(rng: random.Random, max_n=7, max_weight=3):
    """Random connected bipartite weighted instance with at least one edge."""
    while True:
        n = rng.randint(2, max_n)
        left = rng.randint(1, n - 1)
        pairs = [(u, v) for u in range(left) for v in range(left, n)]
        edges = [(u, v) for u, v in pairs if rng.random() < 0.6]
        if not edges:
            continue
        g = Graph.from_edges(n, edges)
        if not _connected(g):
            continue
        return WeightedGraph.from_edges(
            n, [(u, v, rng.randint(1, max_weight)) for u, v in edges]
        )


def _connected(g: Graph) -> bool:
    if g.n == 0:
        return True
    seen = {0}
    queue = deque([0])
    while queue:
        u = queue.popleft()
        for v in g.adjacency[u]:
            if v not in seen:
                seen.add(v)
                queue.append(v)
    return len(seen) == g.n


# --- independent checkers (fresh implementations, no library reuse) ---


def bfs_distances(n: int, edge_list) -> list[list]:
    adj = [[] for _ in range(n)]
    for u, v in edge_list:
        adj[u].append(v)
        adj[v].append(u)
    inf = float("inf")
    dist = [[inf] * n for _ in range(n)]
    for s in range(n):
        dist[s][s] = 0
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for v in adj[u]:
                if dist[s][v] == inf:
                    dist[s][v] = dist[s][u] + 1
                    queue.append(v)
    return dist


def lp_labeling_valid(g: Graph, p: tuple[int, ...], labels, span: int) -> bool:
    """Direct distance-constrained check: own BFS, own scans."""
    if any(not 0 <= lab <= span for lab in labels):
        return False
    dist = bfs_distances(g.n, sorted(g.edges))
    k = len(p)
    for u in range(g.n):
        for v in range(u + 1, g.n):
            d = dist[u][v]
            if d != float("inf") and 1 <= d <= k:
                if abs(labels[u] - labels[v]) < p[int(d) - 1]:
                    return False
    return True


def lp_feasible_brute(g: Graph, p: tuple[int, ...], span: int) -> bool:
    """Backtracking search over labelings under the distance constraints."""
    dist = bfs_distances(g.n, sorted(g.edges))
    k = len(p)
    required = [[] for _ in range(g.n)]
    for u in range(g.n):
        for v in range(g.n):
            if u != v:
                d = dist[u][v]
                if d != float("inf") and 1 <= d <= k:
                    required[u].append((v, p[int(d) - 1]))
    labels = [-1] * g.n

    def backtrack(v):
        if v == g.n:
            return True
        for value in range(span + 1):
            if all(labels[u] < 0 or abs(value - labels[u]) >= w for u, w in required[v]):
                labels[v] = value
                if backtrack(v + 1):
                    return True
                labels[v] = -1
        return False

    return backtrack(0)


def lp_min_span_brute(g: Graph, p: tuple[int, ...]) -> int:
    span = 0
    while not lp_feasible_brute(g, p, span):
        span += 1
    return span


def sequence_conditions_hold(sets, type_count, sizes, weighted_pairs) -> bool:
    """Check a label-slice set sequence directly.

    (i) every element is a set of known types, (ii) each type occurs exactly
    its class size many times, (iii) weighted type pairs keep their distance,
    loops only constraining distinct positions.
    """
    for s in sets:
        if any(not 0 <= t < type_count for t in s):
            return False
    for t in range(type_count):
        if sum(1 for s in sets if t in s) != sizes[t]:
            return False
    for (t, r), w in weighted_pairs.items():
        for i, si in enumerate(sets):
            for j, sj in enumerate(sets):
                if t == r and i == j:
                    continue
                if t in si and r in sj and abs(i - j) < w:
                    return False
    return True

