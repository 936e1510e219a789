"""Neighborhood-diversity partitions, type graphs, vertex covers, and refinement.

A partition is a valid decomposition when every class induces a clique or an
independent set and edges between any two classes are all-or-none.  The
condensed form is the type graph: one node per class carrying the class size,
a loop for clique classes, and an edge where two classes are fully joined,
each loop and edge with the weight its class pair carries.  check_uniform
builds it as plain data, the class sizes and a dict of weights keyed by
class pair, which is the form every consumer of a type graph takes.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import Graph, WeightedGraph

CLIQUE = "clique"
INDEPENDENT = "independent"


@dataclass(frozen=True)
class NdPartition:
    classes: tuple[frozenset[int], ...]
    kinds: tuple[str, ...]

    def __post_init__(self):
        if len(self.classes) != len(self.kinds):
            raise ValueError("classes and kinds must align")
        seen = set()
        for cls, kind in zip(self.classes, self.kinds):
            if not cls:
                raise ValueError("empty class")
            if kind not in (CLIQUE, INDEPENDENT):
                raise ValueError(f"unknown class kind {kind!r}")
            if cls & seen:
                raise ValueError("classes must be disjoint")
            seen |= cls

    @property
    def count(self) -> int:
        return len(self.classes)


def nd_partition(g: Graph) -> NdPartition:
    """Optimal neighborhood diversity decomposition.

    Classes are the equivalence classes of the twin relation
    N(u) \\ {v} == N(v) \\ {u}; the relation is transitive, so comparing
    against one representative per class suffices.
    """
    masks = g.adjacency_masks
    reps: list[int] = []
    members: list[list[int]] = []
    for v in range(g.n):
        for ci, u in enumerate(reps):
            if masks[u] & ~(1 << v) == masks[v] & ~(1 << u):
                members[ci].append(v)
                break
        else:
            reps.append(v)
            members.append([v])
    classes = tuple(frozenset(m) for m in members)
    kinds = tuple(
        CLIQUE if len(m) >= 2 and g.has_edge(m[0], m[1]) else INDEPENDENT
        for m in members
    )
    return NdPartition(classes, kinds)


def check_uniform(wg: WeightedGraph, p: NdPartition):
    """wg condensed under p into its type graph, in one pass over its
    edges: (class sizes, the first weight per class pair joined by edges,
    keyed (i, j) with i <= j, whether every edge carries its pair's weight,
    that is whether the weights are uniform on p).  A loop (t, t) marks a
    clique class of size at least two.  Raises ValueError when p violates
    the decomposition axioms, the class checks first: on a simple graph a
    class of size s is a clique or an independent set exactly when C(s, 2)
    or no edges lie inside it, and two classes are all-or-none exactly
    when s_i * s_j or no edges join them.

    One loop over the classes gives the sizes and each vertex's class, a
    dict filled a class at a time; the classes are disjoint, so they
    partition the vertices when the dict holds n keys, the least 0 or more
    and the largest under n.  One loop over the class pairs' edge counts
    tests every axiom, and the error message is worked out only when one
    fails.
    """
    n = wg.graph.n
    sizes, class_of = [], {}
    for ci, cls in enumerate(p.classes):
        sizes.append(len(cls))
        class_of.update(dict.fromkeys(cls, ci))
    if len(class_of) != n or n and (min(class_of) < 0 or max(class_of) >= n):
        raise ValueError("classes do not partition the vertex set")
    counts, weights, uniform = {}, {}, True  # per class pair: edges, first weight
    for (u, v), w in wg.weights.items():
        i, j = class_of[u], class_of[v]
        pair = (i, j) if i <= j else (j, i)
        counts[pair] = counts.get(pair, 0) + 1
        uniform &= weights.setdefault(pair, w) == w
    for (i, j), c in counts.items():
        if c != (sizes[i] * (sizes[i] - 1) // 2 if i == j else sizes[i] * sizes[j]):
            break
    else:
        return sizes, weights, uniform
    bad = [i for (i, j), c in counts.items() if i == j and c != sizes[i] * (sizes[i] - 1) // 2]
    if bad:
        raise ValueError(f"class {min(bad)} induces neither a clique nor an independent set")
    i, j = min((i, j) for (i, j), c in counts.items() if i != j and c != sizes[i] * sizes[j])
    raise ValueError(f"edges between classes {i} and {j} are not all-or-none")


def min_vertex_cover(g: Graph) -> frozenset[int]:
    """Exact minimum vertex cover by branching on an endpoint of an uncovered edge."""
    edges = sorted(g.edges)
    best = set()
    for u, v in edges:  # greedy 2-approximation bounds the branching depth
        if u not in best and v not in best:
            best.add(u)
            best.add(v)

    chosen: set[int] = set()

    def search():
        nonlocal best
        if len(chosen) >= len(best):
            return
        uncovered = next(
            (e for e in edges if e[0] not in chosen and e[1] not in chosen), None
        )
        if uncovered is None:
            best = set(chosen)
            return
        u, v = uncovered
        chosen.add(u)
        search()
        chosen.remove(u)
        chosen.add(v)
        search()
        chosen.remove(v)

    search()
    return frozenset(best)


def vc_partition(g: Graph, cover) -> NdPartition:
    """Decomposition from a vertex cover, any set of vertices: cover
    singletons plus the groups of independent vertices sharing an exact
    neighborhood."""
    cover = set(cover)
    if any(not 0 <= x < g.n for x in cover):
        raise ValueError("cover vertex out of range")
    for a, b in g.edges:
        if a not in cover and b not in cover:
            raise ValueError(f"edge ({a}, {b}) not covered")
    groups: dict[frozenset[int], list[int]] = {}
    for v in range(g.n):
        if v in cover:
            continue
        groups.setdefault(g.neighbors(v), []).append(v)
    classes = [frozenset({x}) for x in cover]
    classes.extend(frozenset(vs) for vs in groups.values())
    classes.sort(key=min)
    return NdPartition(tuple(classes), (INDEPENDENT,) * len(classes))


def refine_uniform(wg: WeightedGraph, p: NdPartition) -> NdPartition:
    """Split classes by the weight tuple toward their neighbors until weights
    are uniform; refining a decomposition keeps the decomposition axioms.

    One pass over each member's incident edges reads the weights inside
    its class and the signature toward the other classes.  A class whose
    inner weights differ is split into singletons, since no split by
    outside weights makes those uniform.
    """
    refined = []
    for cls, kind in zip(p.classes, p.kinds):
        if len(cls) == 1:
            refined.append((cls, kind))
            continue
        inner, groups = set(), {}
        for v in sorted(cls):
            sig = []
            for u in sorted(wg.graph.neighbors(v)):
                if u in cls:
                    inner.add(wg.weight(v, u))
                else:
                    sig.append((u, wg.weight(v, u)))
            groups.setdefault(tuple(sig), []).append(v)
        if len(inner) > 1:
            refined.extend((frozenset({v}), kind) for v in cls)
            continue
        for vs in groups.values():
            refined.append((frozenset(vs), kind))
    refined.sort(key=lambda item: min(item[0]))
    return NdPartition(tuple(c for c, _ in refined), tuple(k for _, k in refined))
