"""Undirected graphs, weighted instances, distances, and labeling verification."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

INF = math.inf


def normalize_edge(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices 0..n-1.

    Edges are stored normalized as pairs (u, v) with u < v; self-loops and
    duplicates are rejected.
    """

    n: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("vertex count must be nonnegative")
        for u, v in self.edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < v < self.n):
                raise ValueError(f"edge ({u}, {v}) out of range or not normalized")

    @classmethod
    def from_edges(cls, n: int, edges) -> "Graph":
        seen = set()
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            e = normalize_edge(u, v)
            if e in seen:
                raise ValueError(f"duplicate edge {e}")
            seen.add(e)
        return cls(n, frozenset(seen))

    @cached_property
    def adjacency(self) -> tuple[frozenset[int], ...]:
        nbrs = [set() for _ in range(self.n)]
        for u, v in self.edges:
            nbrs[u].add(v)
            nbrs[v].add(u)
        return tuple(frozenset(s) for s in nbrs)

    @cached_property
    def adjacency_masks(self) -> tuple[int, ...]:
        """Neighborhoods as bitmasks, used for twin detection."""
        masks = [0] * self.n
        for u, v in self.edges:
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        return tuple(masks)

    def neighbors(self, v: int) -> frozenset[int]:
        return self.adjacency[v]

    def has_edge(self, u: int, v: int) -> bool:
        return normalize_edge(u, v) in self.edges

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])


@dataclass(frozen=True)
class WeightedGraph:
    """Channel assignment instance: a graph with positive integer edge weights."""

    graph: Graph
    weights: dict

    def __post_init__(self):
        if set(self.weights) != self.graph.edges:
            raise ValueError("weights must cover exactly the edge set")
        for e, w in self.weights.items():
            if not isinstance(w, int) or w < 1:
                raise ValueError(f"edge {e} has invalid weight {w!r}")
        object.__setattr__(self, "weights", dict(self.weights))

    @classmethod
    def from_edges(cls, n: int, weighted_edges) -> "WeightedGraph":
        weights = {}
        for u, v, w in weighted_edges:
            e = normalize_edge(u, v)
            if e in weights:
                raise ValueError(f"duplicate edge {e}")
            weights[e] = w
        return cls(Graph.from_edges(n, list(weights)), weights)

    @property
    def wmax(self) -> int:
        """Largest edge weight; 1 on edgeless graphs so the window length stays positive."""
        return max(self.weights.values(), default=1)

    def weight(self, u: int, v: int) -> int:
        return self.weights[normalize_edge(u, v)]


@dataclass(frozen=True, slots=True)
class Labeling:
    """Vertex labels within [0, span]; validity is checked by verify_assignment."""

    labels: tuple[int, ...]
    span: int

    def __post_init__(self):
        if self.span < 0:
            raise ValueError("span must be nonnegative")


@dataclass(frozen=True)
class VerificationResult:
    ok: bool
    violated_edges: tuple[tuple[int, int], ...]
    out_of_range: tuple[int, ...]


_VERIFIED = VerificationResult(True, (), ())


def all_pairs_distance(g: Graph) -> list[list]:
    """Hop-distance matrix via BFS from every vertex; math.inf for unreachable pairs."""
    dist = [[INF] * g.n for _ in range(g.n)]
    adjacency = g.adjacency
    for s in range(g.n):
        row = dist[s]
        row[s] = 0
        frontier = [s]
        d = 0
        while frontier:
            d += 1
            nxt = []
            for u in frontier:
                for v in adjacency[u]:
                    if row[v] is INF:
                        row[v] = d
                        nxt.append(v)
            frontier = nxt
    return dist


def power_graph(g: Graph, k: int) -> Graph:
    """Graph joining all vertex pairs at hop distance between 1 and k."""
    if k < 1:
        raise ValueError("power must be at least 1")
    if k == 1:
        return g
    dist = all_pairs_distance(g)
    edges = [
        (u, v)
        for u in range(g.n)
        for v in range(u + 1, g.n)
        if dist[u][v] <= k
    ]
    return Graph.from_edges(g.n, edges)


def connected_components(g: Graph) -> tuple[tuple[int, ...], ...]:
    """Vertex sets of the connected components, each sorted, ordered by minimum vertex."""
    seen = [False] * g.n
    comps = []
    for s in range(g.n):
        if seen[s]:
            continue
        seen[s] = True
        comp = [s]
        frontier = [s]
        while frontier:
            u = frontier.pop()
            for v in g.adjacency[u]:
                if not seen[v]:
                    seen[v] = True
                    comp.append(v)
                    frontier.append(v)
        comps.append(tuple(sorted(comp)))
    return tuple(comps)


def verify_assignment(wg: WeightedGraph, labeling: Labeling) -> VerificationResult:
    """Check |l(u) - l(v)| >= w(u, v) on every edge and that labels stay in [0, span].

    One scan collects the violated edges and min and max bound the labels,
    so a labeling that passes gets the one shared passing result.  Only a
    failing one has its violated edges sorted and its out-of-range
    vertices listed, in ascending order.
    """
    labels = labeling.labels
    if len(labels) != wg.graph.n:
        raise ValueError(
            f"labeling covers {len(labels)} vertices, instance has {wg.graph.n}"
        )
    span = labeling.span
    violated = [(u, v) for (u, v), w in wg.weights.items() if abs(labels[u] - labels[v]) < w]
    if not violated and (not labels or min(labels) >= 0 and max(labels) <= span):
        return _VERIFIED
    out_of_range = tuple(v for v, lab in enumerate(labels) if not 0 <= lab <= span)
    return VerificationResult(False, tuple(sorted(violated)), out_of_range)


def trivial_upper_bound(wg: WeightedGraph) -> int:
    """Span that is always feasible: label vertex i with i * wmax."""
    return max(0, wg.graph.n - 1) * wg.wmax
