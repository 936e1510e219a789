"""Neighborhood-diversity partitions, type graphs, vertex covers, and refinement.

A partition is a valid decomposition when every class induces a clique or an
independent set and edges between any two classes are all-or-none.  The
condensed form is the type graph: one node per class carrying the class size,
a loop for clique classes, and an edge where two classes are fully joined,
each loop and edge with the weight its class pair carries.
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


@dataclass(frozen=True)
class TypeGraph:
    """Condensation of a weighted graph under a decomposition."""

    sizes: tuple[int, ...]
    loops: frozenset[int]
    adjacency: frozenset[tuple[int, int]]
    weights: dict

    def __post_init__(self):
        tau = len(self.sizes)
        if min(self.sizes, default=1) < 1:
            raise ValueError("class sizes must be positive")
        for i, j in self.adjacency:
            if not 0 <= i < j < tau:
                raise ValueError("type adjacency out of range or not normalized")
        if self.loops and not 0 <= min(self.loops) <= max(self.loops) < tau:
            raise ValueError("loop on unknown type")
        if self.weights.keys() != self.adjacency | {(t, t) for t in self.loops}:
            raise ValueError("weights must cover exactly adjacency and loops")
        for w in self.weights.values():
            if not isinstance(w, int) or w < 1:
                raise ValueError("type weights must be positive integers")
        object.__setattr__(self, "weights", dict(self.weights))

    @property
    def node_count(self) -> int:
        return len(self.sizes)

    @property
    def wmax(self) -> int:
        return max(self.weights.values(), default=1)


@dataclass(frozen=True)
class VertexCover:
    cover: frozenset[int]


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


def _validate_partition(g: Graph, p: NdPartition) -> list[int]:
    """Check the decomposition axioms; return per-class vertex bitmasks."""
    covered = set()
    for cls in p.classes:
        covered |= cls
    if covered != set(range(g.n)):
        raise ValueError("classes do not partition the vertex set")
    masks = g.adjacency_masks
    class_masks = []
    for cls in p.classes:
        m = 0
        for v in cls:
            m |= 1 << v
        class_masks.append(m)
    for ci, cls in enumerate(p.classes):
        cm = class_masks[ci]
        clique_ok = all(masks[v] & cm == cm ^ (1 << v) for v in cls)
        indep_ok = all(masks[v] & cm == 0 for v in cls)
        if not (clique_ok or indep_ok):
            raise ValueError(f"class {ci} induces neither a clique nor an independent set")
    for i in range(len(p.classes)):
        for j in range(i + 1, len(p.classes)):
            cross = {masks[v] & class_masks[j] for v in p.classes[i]}
            if cross == {0}:
                continue
            if cross != {class_masks[j]}:
                raise ValueError(f"edges between classes {i} and {j} are not all-or-none")
    return class_masks


def type_graph(g: Graph, p: NdPartition) -> TypeGraph:
    """Condense g under p with every weight 1; raises ValueError when p
    violates the decomposition axioms.

    Loops mark clique classes of size at least two; singleton classes stay
    loopless here, the solver's reflexivity preprocessing adds their loops.
    """
    return check_uniform(WeightedGraph(g, dict.fromkeys(g.edges, 1)), p)[1]


def _inner_weights(wg: WeightedGraph, cls) -> set[int]:
    """Weights of the edges inside a class; empty for an independent class."""
    members = sorted(cls)
    if len(members) < 2 or not wg.graph.has_edge(members[0], members[1]):
        return set()
    return {wg.weights[(u, v)] for a, u in enumerate(members) for v in members[a + 1 :]}


def check_uniform(wg: WeightedGraph, p: NdPartition):
    """Test whether weights are constant per class pair (and inside clique
    classes); raises ValueError when p violates the decomposition axioms.

    Returns (True, weighted TypeGraph) or (False, None).
    """
    class_masks = _validate_partition(wg.graph, p)
    masks = wg.graph.adjacency_masks
    loops = set()
    adjacency = set()
    for ci, cls in enumerate(p.classes):
        some = min(cls)
        if len(cls) >= 2 and masks[some] & class_masks[ci]:
            loops.add(ci)
        for cj in range(ci + 1, len(p.classes)):
            if masks[some] & class_masks[cj]:
                adjacency.add((ci, cj))
    weights = {}
    for i, j in sorted(adjacency):
        seen = {wg.weight(u, v) for u in p.classes[i] for v in p.classes[j]}
        if len(seen) != 1:
            return False, None
        weights[(i, j)] = seen.pop()
    for t in sorted(loops):
        seen = _inner_weights(wg, p.classes[t])
        if len(seen) != 1:
            return False, None
        weights[(t, t)] = seen.pop()
    sizes = tuple(len(cls) for cls in p.classes)
    return True, TypeGraph(sizes, frozenset(loops), frozenset(adjacency), weights)


def min_vertex_cover(g: Graph) -> VertexCover:
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
    return VertexCover(frozenset(best))


def vc_partition(g: Graph, u: VertexCover) -> NdPartition:
    """Decomposition from a vertex cover: cover singletons plus the groups of
    independent vertices sharing an exact neighborhood."""
    cover = set(u.cover)
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

    A clique class whose inner weights differ is split into singletons
    first, since no split by outside weights makes those uniform.
    """
    refined = []
    for cls, kind in zip(p.classes, p.kinds):
        if len(_inner_weights(wg, cls)) > 1:
            refined.extend((frozenset({v}), kind) for v in cls)
            continue
        if len(cls) == 1:
            refined.append((cls, kind))
            continue
        groups: dict[tuple, list[int]] = {}
        for v in sorted(cls):
            sig = tuple(
                sorted((u, wg.weight(v, u)) for u in wg.graph.neighbors(v) if u not in cls)
            )
            groups.setdefault(sig, []).append(v)
        for vs in groups.values():
            refined.append((frozenset(vs), kind))
    refined.sort(key=lambda item: min(item[0]))
    return NdPartition(tuple(c for c, _ in refined), tuple(k for _, k in refined))
