"""Channel assignment solving on uniform decompositions.

Front end: pick the route's partition (given, or from a minimum vertex
cover refined to uniform weights), condense the instance under it in one
pass over its edges (_condense, which also checks the axioms and the
uniformity), make the result reflexive once and split it into connected
parts, each handed to its search as class sizes and weights with no
TypeGraph built.  Each part has a shift digraph with window length
z = wmax, holding only the windows within the class sizes.  A span-lambda
labeling of a part is a closed walk of lambda + z + 1 edges through the
all-empty window whose per-type counts match the class sizes, and
_ComponentPipeline.shortest_walk returns the shortest one's slices, one
per label position; later positions are empty.  A part of one type is a
single class, whose walk is known in closed form.  Any other part gets one
exact engine: a breadth-first search over (window, per-type counts), one
int per state, which works out the types a window allows when it first
leaves it and numbers no windows.  It comes in two forms, chosen by the
part's class sizes: where all are 1, as on every part of the vertex-cover
route, _placed_search keeps the counts as the mask of types placed;
otherwise _count_search keeps mixed-radix count codes, each code's full
types and need worked out when a state first holds it.  A least span is
the largest of the parts' least spans.  One decode maps every part's
slices through its type ids onto the instance's vertices, and
verify_assignment checks the labeling before any entry point returns it.

The flow ILP (build_flow_model, solve_flow, euler_walk) is the paper's
formulation of the same walk as an integer edge multiset: Kirchhoff
balance, per-type occurrence counts and the total walk length, with
connectivity enforced through lazily generated cuts, put in order by an
Euler walk, and walk_to_labeling checks that walk's length, end points
and per-type counts before decoding it.  No solving entry point uses it;
it is kept as a library route and as the independent reference the
differential tests compare against.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import cached_property

from .decomposition import (
    NdPartition,
    TypeGraph,
    _condense,
    min_vertex_cover,
    nd_partition,
    refine_uniform,
    vc_partition,
)
from .errors import GuardExceeded, InternalSolverError, NotUniformError
from .graph import Labeling, WeightedGraph, verify_assignment
from .ilp import (
    EQ,
    LE,
    Constraint,
    IlpModel,
    add_constraint,
    refute_by_certificate,
    relaxation_point,
    solve_feasibility,
)
from .reduction import labeling_to_ca
from .shift_digraph import ShiftClosure, ShiftDigraph, build_shift_digraph, iter_bits

# solve_flow gives up after this many cut rounds per digraph edge
CUT_ROUNDS_PER_EDGE = 10

# a part with at most this many count codes has them tabulated in one pass
COUNT_TABLE_CODES = 4096


@dataclass(slots=True)
class SolveStats:
    """Counters filled in by the solving entry points.

    Slotted, like Labeling, because callers keep one per solve.
    """

    nd: int | None = None
    types: int | None = None
    digraph_nodes: int = 0  # windows the walk searches expanded; none on one-type parts
    cuts_added: int = 0
    solve_ms: float = 0.0


@dataclass(frozen=True)
class ReflexiveReduction:
    """Reflexive type graph plus the vertex bookkeeping needed to undo it.

    Loopless classes are shrunk to a single kept vertex with a placeholder
    weight-1 loop; the dropped vertices later copy the keeper's label.
    """

    type_graph: TypeGraph
    kept: tuple[tuple[int, ...], ...]
    dropped: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class EdgeMultiset:
    """Chosen multiplicities per digraph edge; zero entries are omitted."""

    counts: dict

    def __post_init__(self):
        if any(c < 1 for c in self.counts.values()):
            raise ValueError("multiplicities must be positive")
        object.__setattr__(self, "counts", dict(self.counts))

    @property
    def total(self) -> int:
        return sum(self.counts.values())


@dataclass(frozen=True)
class Walk:
    """Closed walk in the shift digraph as a node index sequence."""

    nodes: tuple[int, ...]


def _reflexive(sizes, weights: dict, classes):
    """Every type given a loop: a loopless class shrinks to its least
    vertex, kept, with a weight-1 loop (a singleton never repeats, so any
    weight works), and its other vertices are dropped.  Returns (sizes,
    weights, kept, dropped), the inputs left as they were."""
    sizes, weights = list(sizes), dict(weights)
    kept, dropped = [], []
    for t, cls in enumerate(classes):
        members = tuple(sorted(cls))
        if len(members) != sizes[t]:
            raise ValueError(f"class {t} size mismatch")
        if (t, t) not in weights:
            sizes[t] = weights[(t, t)] = 1
        kept.append(members[: sizes[t]])
        dropped.append(members[sizes[t] :])
    return sizes, weights, tuple(kept), tuple(dropped)


def preprocess_reflexive(tg: TypeGraph, partition: NdPartition) -> ReflexiveReduction:
    """Give every type a loop, shrinking loopless classes to one kept vertex."""
    if tg.node_count != partition.count:
        raise ValueError("type graph and partition disagree on class count")
    sizes, weights, kept, dropped = _reflexive(tg.sizes, tg.weights, partition.classes)
    reduced = TypeGraph(tuple(sizes), frozenset(range(tg.node_count)), tg.adjacency, weights)
    return ReflexiveReduction(reduced, kept, dropped)


def build_flow_model(d: ShiftDigraph, tg: TypeGraph, span: int):
    """ILP whose solutions are edge multisets of closed walks of the right shape.

    Variables: one multiplicity per digraph edge, bounded by the walk length
    span + z + 1.  Constraints: flow conservation at every node, per-type
    occurrence counts (edges leaving windows whose first slice contains the
    type must be taken exactly size(type) times), and the total length.
    Connectivity is not encoded here; it is enforced lazily by cuts.

    Returns the model and the edge list that variable indices refer to.
    """
    if span < 0:
        raise ValueError("span must be nonnegative")
    length = span + d.window_length + 1
    var_count = len(d.edges)
    constraints = []
    for node in range(len(d.windows)):
        terms = [(ei, 1) for ei in d.out_edges[node] if d.edges[ei][1] != node]
        terms += [(ei, -1) for ei in d.in_edges[node] if d.edges[ei][0] != node]
        if terms:
            constraints.append(Constraint.build(terms, EQ, 0))
    for t in range(tg.node_count):
        terms = [
            (ei, 1)
            for ei, (src, _) in enumerate(d.edges)
            if d.windows[src][0] >> t & 1
        ]
        constraints.append(Constraint.build(terms, EQ, tg.sizes[t]))
    constraints.append(Constraint.build([(ei, 1) for ei in range(var_count)], EQ, length))
    model = IlpModel(var_count, (length,) * var_count, tuple(constraints))
    return model, d.edges


def _detached_components(values, d: ShiftDigraph, big_m: int, capacity=None):
    """Weakly connected components of the support of `values` that miss the
    all-empty window, in union-find root order.

    Each comes as (nodes, offenders): offenders are the component's support
    edges in index order, each with its cut coefficient, which is big_m
    shrunk to the source window's visit capacity when capacities are given
    (the offender's provable maximum propagates much better than the
    generic walk length).
    """
    support = [ei for ei, v in enumerate(values) if v > 0]
    parent: dict[int, int] = {}

    def find(x):
        r = x
        while parent[r] != r:
            r = parent[r]
        while parent[x] != r:
            parent[x], x = r, parent[x]
        return r

    for ei in support:
        a, b = d.edges[ei]
        parent.setdefault(a, a)
        parent.setdefault(b, b)
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    empty_root = find(d.empty_index) if d.empty_index in parent else None

    nodes: dict[int, set[int]] = {}
    for node in parent:
        root = find(node)
        if root != empty_root:
            nodes.setdefault(root, set()).add(node)
    offenders: dict[int, list[tuple[int, int]]] = {root: [] for root in nodes}
    for ei in support:
        src = d.edges[ei][0]
        root = find(src)
        if root in offenders:
            m = big_m
            if capacity is not None and capacity[src] >= 0:
                m = min(m, max(1, capacity[src]))
            offenders[root].append((ei, m))
    return [(nodes[root], offenders[root]) for root in sorted(nodes)]


def _boundary(d: ShiftDigraph, component) -> tuple[list[int], list[int]]:
    """Digraph edges entering and leaving the node set, in index order."""
    into, out_of = [], []
    for ei, (a, b) in enumerate(d.edges):
        inside_a = a in component
        if inside_a != (b in component):
            (out_of if inside_a else into).append(ei)
    return into, out_of


def _cut(offender: int, crossing, big_m: int) -> Constraint:
    """Demand the offending edge only be used when a crossing edge is."""
    return Constraint.build([(offender, 1)] + [(ei, -big_m) for ei in crossing], LE, 0)


def connectivity_violation(values, d: ShiftDigraph, big_m: int, capacity=None):
    """Cut separating a used component from the all-empty window, if any.

    Returns None when the support is weakly connected and touches the empty
    window.  Otherwise picks the first support edge inside an offending
    component K and demands it only be used when some digraph edge crossing
    the K boundary is used too.  When window visit capacities are supplied,
    the cut coefficient shrinks to the offender's provable maximum.
    """
    detached = _detached_components(values, d, big_m, capacity)
    if not detached:
        return None
    # the component of the first support edge that misses the window
    component, offenders = min(detached, key=lambda entry: entry[1][0][0])
    offender, m = offenders[0]
    into, out_of = _boundary(d, component)
    return _cut(offender, into + out_of, m)


def _all_violated_cuts(values, d: ShiftDigraph, big_m: int, capacity=None, per_edge=True):
    """Cuts for every component missing the empty window, for every support
    edge of the component when per_edge is set.

    Each cut is the one-sided pair: a used component must be both entered
    and left.  Each is valid on its own and the pair dominates the two-sided
    boundary form of connectivity_violation, halving what a fractional
    solution can hide behind; the solve loop converges much faster when
    each round removes every offending component outright.
    """
    cuts = []
    for component, offenders in _detached_components(values, d, big_m, capacity):
        into, out_of = _boundary(d, component)
        for ei, m in offenders if per_edge else offenders[:1]:
            cuts += [_cut(ei, into, m), _cut(ei, out_of, m)]
    return cuts


def _window_capacity(window, sizes) -> int:
    """How often a walk may visit this window.

    k visits at indices I with a type in coordinate set J cover the label
    positions I + J, and |I + J| >= |I| + |J| - 1 on integers, so a type
    held in c coordinates allows at most size(t) - c + 1 visits (consecutive
    visits share positions, which is why this is not size // c).  The
    digraph holds no window with c over size(t), so this is at least 1.
    """
    counts: dict[int, int] = {}
    for mask in window:
        for t in iter_bits(mask):
            counts[t] = counts.get(t, 0) + 1
    if not counts:
        return -1  # untyped windows are unlimited
    return min(sizes[t] - c + 1 for t, c in counts.items())


def _walk_index_ranges(d: ShiftDigraph, span: int):
    """Feasible walk-index interval per node and per edge.

    A walk node at index i covers padded label positions i .. i+z-1, and
    types only occur at positions z+1 .. z+span+1, so every typed coordinate
    pins the index into an interval.  Index 1 and the final index belong to
    the all-empty window alone, and a node needs predecessors and successors
    whose intervals line up; iterating that to a fixpoint tightens the
    intervals along the graph.  Returns (node_ranges, edge_ranges) with
    empty ranges marked as (1, 0).
    """
    z = d.window_length
    length = span + z + 1
    last = length + 1
    lo = [1] * len(d.windows)
    hi = [last] * len(d.windows)
    for node, window in enumerate(d.windows):
        if node != d.empty_index:
            lo[node] = 2
            hi[node] = last - 1
        for jj in range(z):
            if window[jj]:
                lo[node] = max(lo[node], z + 1 - jj)
                hi[node] = min(hi[node], z + span + 1 - jj)

    changed = True
    while changed:
        changed = False
        for node in range(len(d.windows)):
            if node == d.empty_index or lo[node] > hi[node]:
                continue
            best_in = min(
                (lo[d.edges[ei][0]] for ei in d.in_edges[node]), default=last + 1
            )
            best_out = max(
                (hi[d.edges[ei][1]] for ei in d.out_edges[node]), default=0
            )
            if best_in + 1 > lo[node]:
                lo[node] = best_in + 1
                changed = True
            if best_out - 1 < hi[node]:
                hi[node] = best_out - 1
                changed = True

    edge_ranges = []
    for a, b in d.edges:
        elo = max(lo[a], lo[b] - 1, 1)
        ehi = min(hi[a], hi[b] - 1, length)
        edge_ranges.append((elo, ehi))
    return list(zip(lo, hi)), edge_ranges


def _pruned_digraph(d: ShiftDigraph, tg: TypeGraph, span: int):
    """Restriction of the digraph to windows a valid walk could visit.

    Drops edges whose feasible walk-index range is empty for this span, and
    the windows left without edges.  Valid supports only use the
    restriction, and cuts computed on it stay valid, so solving on it is
    equivalent; edge indices are mapped back afterwards.
    """
    capacity = [_window_capacity(w, tg.sizes) for w in d.windows]
    _, edge_ranges = _walk_index_ranges(d, span)
    keep_edge = [elo <= ehi for elo, ehi in edge_ranges]
    keep_node = [False] * len(d.windows)
    keep_node[d.empty_index] = True
    for ei, ok in enumerate(keep_edge):
        if ok:
            keep_node[d.edges[ei][0]] = True
            keep_node[d.edges[ei][1]] = True
    if all(keep_node) and all(keep_edge):
        return d, capacity, list(range(len(d.edges)))
    nodes = [i for i, k in enumerate(keep_node) if k]
    node_map = {old: new for new, old in enumerate(nodes)}
    edges = []
    edge_map = []
    for ei, ok in enumerate(keep_edge):
        if ok:
            a, b = d.edges[ei]
            edges.append((node_map[a], node_map[b]))
            edge_map.append(ei)
    pruned = ShiftDigraph(
        d.type_count, d.window_length, tuple(d.windows[i] for i in nodes), tuple(edges)
    )
    return pruned, [capacity[i] for i in nodes], edge_map


def _strengthen_model(
    model: IlpModel, d: ShiftDigraph, tg: TypeGraph, capacity, span: int
) -> IlpModel:
    """Add walk-implied constraints that sharpen propagation without changing
    the acceptable multisets.

    Every closed padded walk sees each type in coordinate role j exactly
    size(t) times for every j, not only j = 1, and visits each window at
    most its capacity; both facts follow from in-window coordinates mapping
    to distinct label positions.  On top of that, every edge use occupies
    one walk index within its feasible range, so edges confined to late
    (or early) indices cannot outnumber the remaining slots.
    """
    z = d.window_length
    sizes = tg.sizes
    extra = []

    for j in range(1, z):
        for t in range(tg.node_count):
            terms = [
                (ei, 1)
                for ei, (src, _) in enumerate(d.edges)
                if d.windows[src][j] >> t & 1
            ]
            extra.append(Constraint.build(terms, EQ, sizes[t]))

    # the two padding runs contribute z departures with an empty slice in
    # every coordinate role, which no all-full cyclic pattern can provide
    for j in range(z):
        terms = [
            (ei, -1)
            for ei, (src, _) in enumerate(d.edges)
            if d.windows[src][j] == 0
        ]
        extra.append(Constraint.build(terms, LE, -z))

    for node, cap in enumerate(capacity):
        if cap < 0:
            continue
        terms = [(ei, 1) for ei in d.out_edges[node]]
        if terms:
            extra.append(Constraint.build(terms, LE, cap))

    # the walk starts at the empty window, so the window must be visited
    extra.append(
        Constraint.build([(ei, -1) for ei in d.out_edges[d.empty_index]], LE, -1)
    )

    return IlpModel(model.var_count, model.upper_bounds, model.constraints + tuple(extra))


def _frontier_selector(d: ShiftDigraph):
    """Branching rule that lays the walk down from the all-empty window.

    Nodes whose committed in-flow exceeds their committed out-flow must be
    left again, so their undecided out-edges come first.  Committed flow
    stranded away from the start is approached along the shortest usable
    path, and otherwise the walk grows from nodes already reachable through
    committed flow.  Searching in this order keeps the tree close to the
    walk-prefix space instead of wandering through unordered flow patterns.
    """
    from collections import deque

    edges = d.edges
    out_edges = d.out_edges
    node_count = len(d.windows)

    def choose(lo, hi):
        out_c = [0] * node_count
        in_c = [0] * node_count
        for ei, (a, b) in enumerate(edges):
            v = lo[ei]
            if v:
                out_c[a] += v
                in_c[b] += v
        for node in range(node_count):
            if in_c[node] > out_c[node]:
                for ei in out_edges[node]:
                    if hi[ei] > lo[ei]:
                        return ei
        # reachability through committed flow, the start included
        reach = [False] * node_count
        reach[d.empty_index] = True
        frontier = [d.empty_index]
        while frontier:
            node = frontier.pop()
            for ei in out_edges[node]:
                if lo[ei] and not reach[edges[ei][1]]:
                    reach[edges[ei][1]] = True
                    frontier.append(edges[ei][1])
        stranded = {
            node
            for node in range(node_count)
            if not reach[node] and (out_c[node] or in_c[node])
        }
        if stranded:
            # head toward the nearest stranded support along usable edges
            parent = {}
            queue = deque(node for node in range(node_count) if reach[node])
            seen = set(queue)
            while queue:
                node = queue.popleft()
                for ei in out_edges[node]:
                    dst = edges[ei][1]
                    if hi[ei] == 0 or dst in seen:
                        continue
                    seen.add(dst)
                    parent[dst] = ei
                    if dst in stranded:
                        current = dst
                        while not reach[edges[parent[current]][0]]:
                            current = edges[parent[current]][0]
                        first = parent[current]
                        if hi[first] > lo[first]:
                            return first
                    queue.append(dst)
        for node in range(node_count):
            if reach[node]:
                for ei in out_edges[node]:
                    if hi[ei] > lo[ei]:
                        return ei
        return None

    return choose


def solve_flow(
    d: ShiftDigraph,
    tg: TypeGraph,
    span: int,
    *,
    stats: SolveStats | None = None,
):
    """Solve the flow model, adding connectivity cuts until the support is
    one component through the all-empty window.  None means no multiset exists.

    The model is built on the edges a walk of this span can use and solved
    with largest-value-first branching; edge indices map back to d at the
    end.
    """
    pruned, capacity, edge_map = _pruned_digraph(d, tg, span)
    model, _ = build_flow_model(pruned, tg, span)
    model = _strengthen_model(model, pruned, tg, capacity, span)
    selector = _frontier_selector(pruned)
    big_m = span + d.window_length + 1
    cap = CUT_ROUNDS_PER_EDGE * max(1, len(d.edges))
    rounds = 0

    # cheap root rounds first: separate cuts from relaxation vertices while
    # they keep showing disconnected support (best effort, tightly capped)
    for _ in range(min(cap, 25)):
        point = relaxation_point(model)
        if point is None:
            # no LP tools, or an LP without a solution, most often an
            # infeasible one: then a certificate refutes without any search
            if refute_by_certificate(model):
                return None
            break
        support = [1 if v > 1e-4 else 0 for v in point]
        cuts = _all_violated_cuts(support, pruned, big_m, capacity, per_edge=False)
        if not cuts:
            break
        for cut in cuts:
            model = add_constraint(model, cut)
        if stats is not None:
            stats.cuts_added += len(cuts)

    previous = None
    while True:
        # a budgeted pass settles easy rounds; refutation-heavy rounds go to
        # the certificate check and then the walk-frontier search
        try:
            solution = solve_feasibility(
                model, descending=True, phase=previous, max_nodes=3000
            )
        except GuardExceeded:
            if refute_by_certificate(model):
                return None
            solution = solve_feasibility(
                model, descending=True, selector=selector, wide_ascending=3
            )
        if solution is None:
            return None
        cuts = _all_violated_cuts(solution.values, pruned, big_m, capacity)
        if not cuts:
            return EdgeMultiset(
                {edge_map[ei]: v for ei, v in enumerate(solution.values) if v > 0}
            )
        previous = solution.values
        for cut in cuts:
            model = add_constraint(model, cut)
        rounds += 1
        if stats is not None:
            stats.cuts_added += len(cuts)
        if rounds > cap:
            raise InternalSolverError(
                f"connectivity cuts exceeded the iteration cap of {cap}"
            )


def euler_walk(ms: EdgeMultiset, d: ShiftDigraph) -> Walk:
    """Closed walk from the all-empty window traversing each edge exactly
    its multiplicity (Hierholzer); the multiset must be balanced and connected."""
    if not ms.counts:
        return Walk((d.empty_index,))

    balance: dict[int, int] = {}
    touched: set[int] = set()
    for ei, mult in ms.counts.items():
        a, b = d.edges[ei]
        balance[a] = balance.get(a, 0) + mult
        balance[b] = balance.get(b, 0) - mult
        touched.add(a)
        touched.add(b)
    if any(v != 0 for v in balance.values()):
        raise InternalSolverError("edge multiset violates flow conservation")
    if d.empty_index not in touched:
        raise InternalSolverError("edge multiset misses the all-empty window")

    succ: dict[int, list[list[int]]] = {}
    for ei in sorted(ms.counts):
        a, b = d.edges[ei]
        succ.setdefault(a, []).append([b, ms.counts[ei]])
    cursor = {node: 0 for node in succ}

    stack = [d.empty_index]
    circuit = []
    while stack:
        v = stack[-1]
        options = succ.get(v, ())
        i = cursor.get(v, 0)
        while i < len(options) and options[i][1] == 0:
            i += 1
        if v in cursor:
            cursor[v] = i
        if i < len(options):
            options[i][1] -= 1
            stack.append(options[i][0])
        else:
            circuit.append(stack.pop())
    circuit.reverse()

    if len(circuit) != ms.total + 1 or circuit[0] != d.empty_index or circuit[-1] != d.empty_index:
        raise InternalSolverError("multiset support is not an Eulerian circuit at the all-empty window")
    return Walk(tuple(circuit))


def _walk_slices(walk: Walk, d: ShiftDigraph, tg: TypeGraph, span: int) -> list[int]:
    """Slices at label positions 0..span of a closed walk, once its length,
    end points and per-type counts are checked.

    The walk node at index z + i carries label position i in its first slice.
    """
    z = d.window_length
    nodes = walk.nodes
    if len(nodes) != span + z + 2:
        raise InternalSolverError(
            f"walk has {len(nodes)} nodes, expected {span + z + 2}"
        )
    if nodes[0] != d.empty_index or nodes[-1] != d.empty_index:
        raise InternalSolverError("walk does not start and end at the all-empty window")

    counts = [0] * tg.node_count
    for node in nodes[:-1]:
        for t in iter_bits(d.windows[node][0]):
            counts[t] += 1
    if counts != list(tg.sizes):
        raise InternalSolverError("per-type occurrence counts do not match class sizes")
    return [d.windows[node][0] for node in nodes[z : z + span + 1]]


def walk_to_labeling(
    walk: Walk,
    d: ShiftDigraph,
    reduction: ReflexiveReduction,
    span: int,
    vertex_count: int,
) -> Labeling:
    """Decode a closed walk over the whole reflexive type graph into labels."""
    slices = _walk_slices(walk, d, reduction.type_graph, span)
    parts = [(slices, range(len(reduction.kept)))]
    return _decode(parts, reduction.kept, reduction.dropped, span, vertex_count)


def _decode(parts, kept, dropped, span: int, vertex_count: int) -> Labeling:
    """Labels from each part's slices, one per label position from 0 on.

    A part comes as (slices, type_ids): its slices name types by their
    place in the part, and type_ids[t] is the reduction's type at place t;
    the reduction's type r keeps the vertices kept[r] and drops dropped[r].
    Each type in slice i consumes its next kept vertex in ascending id
    order, and dropped vertices copy their keeper's label afterwards.
    """
    labels: list[int | None] = [None] * vertex_count
    used = [0] * len(kept)
    for slices, type_ids in parts:
        for i, mask in enumerate(slices):
            for t in iter_bits(mask):
                t = type_ids[t]
                labels[kept[t][used[t]]] = i
                used[t] += 1
    for keepers, others in zip(kept, dropped):
        for v in others:
            labels[v] = labels[keepers[0]]
    if any(lab is None for lab in labels):
        raise InternalSolverError("decode left unlabeled vertices")
    return Labeling(tuple(labels), span)


class _ComponentPipeline:
    """One connected part of the reflexive type graph: the exact search for
    the walk, reusable across span probes, over windows as the closure's
    int codes; digraph, its whole shift digraph, is only for the dump.

    A part of one type is one class, whose walk shortest_walk gives in
    closed form, with no closure and no search.  Any other part is searched
    over the states (window, per-type counts) of walk prefixes from the
    all-empty window.  A span-lambda labeling is a walk of lambda + 1 steps
    from the all-empty window, step k putting the new window's last slice
    at label position k - 1, whose per-type counts end equal to the class
    sizes; z empty slices then close it at the all-empty window.  Empty
    slices can always be appended, so a state reached at step k can do
    everything the same state can do when reached later: the step need not
    be part of the state, and the shortest walk to the class sizes serves
    every span from its own up.  A state is one int, window << bits |
    counts, and one of two searches runs, chosen by the class sizes:

    - _placed_search, when every class size is 1 (every part of the vc
      route, whose classes outside the cover are independent sets, and of
      any partition without a clique class): the counts are the mask of
      types placed.
    - _count_search otherwise: the counts are a mixed-radix code, whose
      types at their class size and remaining copies' need come from a
      table over the codes or, on a large code space, from _info.

    A window's kept slices hold no type past the counts, so the closure's
    bars alone give the types a new slice may hold.  Both searches memoise
    them per window, and per set of free types its moves, fullest first,
    so they return the same walk on a part of size-1 classes.  expanded
    counts the windows either search expanded, and more than max_windows of
    them raise GuardExceeded.  A part comes as its sizes and weights, as in
    a reflexive TypeGraph, and a one-type part makes no closure.
    """

    def __init__(self, sizes, weights: dict, *, max_digraph_nodes=None):
        self.sizes, self.weights = sizes, weights
        self.max_windows, self.expanded = max_digraph_nodes, 0
        z = max(weights.values(), default=1)
        self.closure = ShiftClosure(sizes, weights, z) if len(sizes) > 1 else None
        # _count_search's: per type, (its radix, the need of its copies left
        # at each count, 0 when full); a count code -> need << tau | full types
        self._digits: list[tuple[int, list[int]]] | None = None
        self._count_info: dict[int, int] = {}
        # window code -> types its bars allow in a new slice, and a set of
        # free types -> its moves fullest first, in the one search's form
        self._allowed: dict[int, int] = {}
        self._free_moves: dict[int, list[int]] = {}

    def _info(self, code: int) -> int:
        """A count code's need << tau | full, memoised: the label positions its
        remaining copies need at least, and the types at their class size."""
        key, full, need = code, 0, 0
        for t, (radix, needs) in enumerate(self._digits):
            code, count = divmod(code, radix)
            need = max(need, needs[count])
            full |= (count == radix - 1) << t
        info = self._count_info[key] = need << len(self._digits) | full
        return info

    @cached_property
    def type_graph(self) -> TypeGraph:
        """The part as a reflexive TypeGraph, for the digraph and the flow ILP."""
        pairs = frozenset(pair for pair in self.weights if pair[0] != pair[1])
        return TypeGraph(tuple(self.sizes), frozenset(range(len(self.sizes))), pairs, self.weights)

    @cached_property
    def digraph(self) -> ShiftDigraph:
        """The part's whole shift digraph; no search needs it."""
        tg = self.type_graph
        return build_shift_digraph(tg, tg.wmax, max_nodes=self.max_windows)

    def _allow(self, window: int) -> int:
        """The types the closure's bars allow in the slice shifted in after
        this window, memoised per window: a search's expansion of it,
        counted in expanded, past max_windows raising."""
        self.expanded += 1
        if self.max_windows is not None and self.expanded > self.max_windows:
            raise GuardExceeded(f"expanded window count exceeds guard of {self.max_windows}")
        barred = 0
        closure = self.closure
        for bit, bar in closure.bars:
            if window & bar:
                barred |= bit
        allowed = self._allowed[window] = closure.slice_mask & ~barred
        return allowed

    def shortest_walk(self, span: int | None = None) -> list[int] | None:
        """Slices shifted in by a shortest walk from the all-empty window
        whose per-type counts reach the class sizes, one per label position;
        their count minus 1 is the least span.

        A part of one type is one class: after the reflexive reduction a
        clique of s vertices whose pairs all carry the loop weight w (s = 1
        for a loopless class).  Its labels sit pairwise at least w apart, so
        its least span is (s - 1) * w, met by one copy every w positions,
        and a smaller span is refuted.  The refutation rests on the
        certificate _condense has checked exactly: C(s, 2) inner edges, all
        carrying w.

        Any other part gets a breadth-first search: layer k holds the states
        first entered after k steps, each with the state it was entered
        from, since reaching a state later can only lengthen the walk.
        Under a span, after span + 1 steps the search gives up with None,
        every state within them tried.  Without a span there is no state
        limit.
        """
        if len(self.sizes) == 1:
            size, loop = self.sizes[0], self.weights[(0, 0)]
            if span is not None and (size - 1) * loop > span:
                return None
            return [1] + ([0] * (loop - 1) + [1]) * (size - 1)
        if max(self.sizes) == 1:
            return self._placed_search(span)
        return self._count_search(span)

    def _placed_search(self, span: int | None) -> list[int] | None:
        """shortest_walk over the states window << tau | placed, for a part
        whose class sizes are all 1.  A state's moves are the independent
        sets of the types its window allows and it has not placed, each kept
        as the step mask << tau | mask that shifts it into both fields; the
        one that places every type left is the fullest, so it comes first.
        Under a span no state is pruned for its remaining copies: each type
        left needs one label position, and a state of the last layer is
        never expanded anyway.  _count_search returns the same walk here, but
        running these parts made minimize-vc corpus_s 36% slower (bench/run.py,
        3 pairs of 10 s runs, 2 shared vCPUs)."""
        closure = self.closure
        tau, everyone = closure.type_count, closure.slice_mask
        keep = (closure.window_mask ^ everyone) << tau  # a window's z - 1 older slices, shifted
        allowed_of, moves_of, allow = self._allowed, self._free_moves, self._allow
        last = float("inf") if span is None else span + 1
        parent = {0: None}  # the all-empty window with no type placed
        layer = [0]
        steps = 0
        while layer and steps < last:
            steps += 1
            next_layer = []
            for state in layer:
                window, placed = state >> tau, state & everyone
                allowed = allowed_of.get(window)
                if allowed is None:
                    allowed = allow(window)
                free = allowed & ~placed
                moves = moves_of.get(free)
                if moves is None:
                    # a stable sort, so _count_search's order
                    masks = sorted(closure.independent_sets(free), key=int.bit_count, reverse=True)
                    moves = moves_of[free] = [m << tau | m for m in masks]
                if moves[0] & everyone == everyone ^ placed:
                    slices = [moves[0] & everyone]
                    while state:
                        slices.append(state >> tau & everyone)
                        state = parent[state]
                    slices.reverse()
                    return slices
                head = state << tau & keep | placed
                for move in moves:
                    key = head | move
                    if key in parent:
                        continue
                    parent[key] = state
                    next_layer.append(key)
            layer = next_layer
        if span is None:
            raise InternalSolverError("no walk reaches the class sizes at any span")
        return None

    def _count_search(self, span: int | None) -> list[int] | None:
        """shortest_walk over the states window << bits | count code, bits
        being the bit length of the full code.  A state's moves are the
        independent sets of the types its window allows and that are not
        at their class size, each kept as mask << bits | its count code
        step, which adds into the shifted state; the fullest, the one that
        reaches the class sizes if any does, comes first.  A code's full
        types and need come from one table over at most COUNT_TABLE_CODES
        codes, and past that from _info once a state holds the code.  Under
        a span, a state whose remaining copies need more label positions
        than are left is not expanded."""
        closure = self.closure
        tau, newest = closure.type_count, closure.slice_mask
        places = [1]  # each type's place value in a count code, then the code count
        for size in self.sizes:
            places.append(places[-1] * (size + 1))
        goal = places[-1] - 1  # every digit at its class size
        if self._digits is None:
            # left copies of a type sit at least w(t, t) apart
            self._digits = [
                (size + 1, [(size - c - 1) * self.weights[(t, t)] + 1 for c in range(size)] + [0])
                for t, size in enumerate(self.sizes)
            ]
            if goal < COUNT_TABLE_CODES:  # digit by digit, as _info reads them
                infos = [0]
                for t, (_, needs) in enumerate(self._digits):
                    infos = [
                        max(i, n << tau | i & newest) | (not n) << t for n in needs for i in infos
                    ]
                self._count_info = dict(enumerate(infos))
        bits = goal.bit_length()
        codes = (1 << bits) - 1
        keep = (closure.window_mask ^ newest) << bits  # a window's z - 1 older slices, shifted
        allowed_of, moves_of, allow = self._allowed, self._free_moves, self._allow
        info_of, info = self._count_info, self._info
        last = float("inf") if span is None else span + 1
        parent = {0: None}  # the all-empty window with no type counted
        layer = [0]
        steps = 0
        while layer and steps < last:
            left = last - steps  # label positions from the one placed now
            steps += 1  # building the layer of walks with this many steps
            next_layer = []
            for state in layer:
                code = state & codes
                need_full = info_of.get(code)
                if need_full is None:  # a code space past COUNT_TABLE_CODES
                    need_full = info(code)
                if span is not None and need_full >> tau > left:
                    continue
                window = state >> bits
                allowed = allowed_of.get(window)
                if allowed is None:
                    allowed = allow(window)
                free = allowed & ~need_full
                moves = moves_of.get(free)
                if moves is None:
                    masks = sorted(closure.independent_sets(free), key=int.bit_count, reverse=True)
                    moves = moves_of[free] = [
                        m << bits | sum(places[t] for t in iter_bits(m)) for m in masks
                    ]
                if code + (moves[0] & codes) == goal:
                    slices = [moves[0] >> bits]
                    while state:
                        slices.append(state >> bits & newest)
                        state = parent[state]
                    slices.reverse()
                    return slices
                head = state << tau & keep | code
                for move in moves:
                    key = head + move
                    if key in parent:
                        continue
                    parent[key] = state
                    next_layer.append(key)
            layer = next_layer
        if span is None:
            raise InternalSolverError("no walk reaches the class sizes at any span")
        return None


def _type_parts(sizes, weights: dict):
    """Connected parts over type adjacency of a type graph's sizes and
    weights, each as (its sizes, its weights, its type ids in ascending
    order, which its sizes and weights number 0, 1, ...); a part of every
    type is the input itself.  No edge joins two parts, so each is solved
    on its own.  A class of isolated vertices stays one part: its vertices
    are unconstrained, and the reflexive reduction labels them all from one
    kept vertex.
    """
    tau = len(sizes)
    neighbors = [[] for _ in range(tau)]
    for i, j in weights:  # a loop makes a type its own neighbor, which is harmless
        neighbors[i].append(j)
        neighbors[j].append(i)
    part_of = [-1] * tau
    parts = []
    for first in range(tau):
        if part_of[first] >= 0:
            continue
        part_of[first] = len(parts)
        part = [first]
        for t in part:  # the loop also visits the types it appends
            for r in neighbors[t]:
                if part_of[r] < 0:
                    part_of[r] = len(parts)
                    part.append(r)
        parts.append(sorted(part))
    if len(parts) == 1:
        return [(sizes, weights, parts[0])]
    local = {t: i for part in parts for i, t in enumerate(part)}
    part_weights = [{} for _ in parts]
    for (i, j), w in weights.items():
        part_weights[part_of[i]][(local[i], local[j])] = w
    return [([sizes[t] for t in part], pw, part) for part, pw in zip(parts, part_weights)]


def _pipelines(wg: WeightedGraph, route: str, partition, max_digraph_nodes=None):
    """The route's partition, condensed once and made reflexive once, and
    one pipeline per connected part of the reflexive type graph.

    Returns (partition before weight refinement, (kept, dropped) of the
    reflexive reduction, list of (pipeline, the part's type ids)).  Raises
    ValueError on an unknown route, a missing partition on the uniform
    route or a given one on the vc route, or a partition that is no
    decomposition, and NotUniformError (a ValueError) on weights that are
    not uniform on the partition.
    """
    if route == "uniform":
        if partition is None:
            raise ValueError("uniform route requires a partition")
        base = refined = partition
    elif route == "vc":
        if partition is not None:
            raise ValueError("vc route takes no partition; it builds its own")
        base = vc_partition(wg.graph, min_vertex_cover(wg.graph))
        refined = refine_uniform(wg, base)
    else:
        raise ValueError(f"unknown route {route!r}")
    sizes, weights, uniform = _condense(wg, refined)
    if not uniform:
        raise NotUniformError("edge weights are not uniform on the given partition")
    sizes, weights, kept, dropped = _reflexive(sizes, weights, refined.classes)
    pipelines = [
        (_ComponentPipeline(part_sizes, part_weights, max_digraph_nodes=max_digraph_nodes), ids)
        for part_sizes, part_weights, ids in _type_parts(sizes, weights)
    ]
    return base, (kept, dropped), pipelines


def _solve(wg, route, partition, span, stats, max_digraph_nodes):
    """Labeling at `span`, or (least span, labeling) when span is None.

    Every labeling returned has passed verify_assignment on wg; one that
    fails raises InternalSolverError.  Fills nd and types of stats, adds the
    windows the walk searches expanded to digraph_nodes, and adds the call's
    wall time, from the route's partition on, to solve_ms.
    """
    if span is not None and span < 0:
        raise ValueError("span must be nonnegative")
    start = time.perf_counter()
    base, (kept, dropped), pipelines = _pipelines(wg, route, partition, max_digraph_nodes)
    if stats is not None:
        stats.nd = base.count
        stats.types = len(kept)

    minimize = span is None
    labeling = None
    parts = []
    for pipeline, type_ids in pipelines:
        slices = pipeline.shortest_walk(span)
        if slices is None:
            break  # this part has no labeling within the span
        parts.append((slices, type_ids))
    else:
        if minimize:
            # the parts are independent, so the least span is the largest of theirs
            span = max((len(slices) - 1 for slices, _ in parts), default=0)
        labeling = _decode(parts, kept, dropped, span, wg.graph.n)
        verdict = verify_assignment(wg, labeling)
        if not verdict.ok:
            raise InternalSolverError(
                f"labeling failed verification: edges {verdict.violated_edges}, "
                f"out of range {verdict.out_of_range}"
            )
    if stats is not None:
        stats.digraph_nodes += sum(p.expanded for p, _ in pipelines)
        stats.solve_ms = round(stats.solve_ms + (time.perf_counter() - start) * 1000, 3)
    return (span, labeling) if minimize else labeling


def solve_ca_uniform(
    wg: WeightedGraph,
    partition: NdPartition,
    span: int,
    *,
    stats: SolveStats | None = None,
    max_digraph_nodes: int | None = None,
):
    """Decide channel assignment at the given span on a uniform instance.

    Connected parts of the type graph are searched independently, and the
    labeling is decoded from all of them at once.

    Raises NotUniformError, a ValueError, when the weights are not uniform
    with respect to the partition.
    """
    return _solve(wg, "uniform", partition, span, stats, max_digraph_nodes)


def solve_ca_vc(
    wg: WeightedGraph,
    span: int,
    *,
    stats: SolveStats | None = None,
    max_digraph_nodes: int | None = None,
):
    """Decide channel assignment via the vertex-cover decomposition with
    weight refinement; works on arbitrary weighted instances."""
    return _solve(wg, "vc", None, span, stats, max_digraph_nodes)


def minimize_span(
    wg: WeightedGraph,
    route: str = "uniform",
    partition: NdPartition | None = None,
    *,
    stats: SolveStats | None = None,
    max_digraph_nodes: int | None = None,
):
    """Least feasible span with a witnessing labeling.

    Each connected part of the type graph gets one breadth-first walk search
    for its shortest walk, and the answer is the largest of their least
    spans, at which every part's own walk is decoded and checked as for a
    fixed span.  No span is refuted.
    """
    return _solve(wg, route, partition, None, stats, max_digraph_nodes)


def solve_labeling(
    g,
    constraints,
    span: int,
    *,
    stats: SolveStats | None = None,
    max_digraph_nodes: int | None = None,
):
    """Decide distance-constrained labeling through the channel assignment
    reduction.

    The twin partition of the original graph is used: it remains a valid
    decomposition of the power graph and the reduced weights are uniform on
    it, because weights depend only on class-level distances.
    """
    wg = labeling_to_ca(g, constraints)
    partition = nd_partition(g)
    return solve_ca_uniform(
        wg, partition, span, stats=stats, max_digraph_nodes=max_digraph_nodes
    )
