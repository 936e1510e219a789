"""Channel assignment solving on uniform decompositions.

Front end: pick the route's partition (given, or from a minimum vertex
cover refined to uniform weights), condense the instance under it into its
type graph in one pass over its edges (check_uniform, which also checks the
axioms and the uniformity), then make the type graph reflexive and split it
into connected parts in one pass over its types (preprocess_reflexive).
Every type graph here, the whole one and each part, is plain data: class
sizes and a dict of weights keyed by type pair.  Each part goes to its
search with, when it has several types, its ShiftClosure.  A type no edge
touches gets no part, and its vertices keep label 0.  Each part has a
shift digraph with window length z = wmax, holding only the windows
within the class sizes.  A span-lambda labeling of a part is a closed
walk of lambda + z + 1 edges through the all-empty window whose per-type
counts match the class sizes, and _shortest_walk returns the shortest
one's slices, one per label position; later positions are empty.  A part
of one type is a single clique class, whose walk is known in closed form.
Any other part gets one exact engine, a breadth-first search over (window,
per-type counts), one int per state, which tests the goal as each state
enters, works out the types a window allows when it first leaves it or a
state entering it may close the walk, and numbers no windows.  Its count
code holds a placed bit per type of class size 1 and, above those bits, a
mixed-radix digit per larger type, decoded when a state first holds the
digits; where every class has size 1, as on every part of the vertex-cover
route, the code is just the mask of types placed.  A least span is the
largest of the parts' least spans, 0 with no part.  One decode maps every
part's slices through its type ids onto the instance's vertices, and
verify_assignment checks the labeling before any entry point returns it.

The flow ILP (build_flow_model, solve_flow, euler_walk) is the paper's
formulation of the same walk as an integer edge multiset over a part's
whole shift digraph (build_shift_digraph): Kirchhoff balance, per-type
occurrence counts in every coordinate role, the total walk length and
window capacities, with connectivity enforced through lazily generated
cuts, put in order by an Euler walk, and walk_to_labeling checks each
part's walk's length, end points and per-type counts before decoding the
parts as the solve path does.  The model's size depends on the digraph,
not on the class sizes, and refute_by_certificate proves a span
infeasible from its linear relaxation alone.  No solving entry point uses
it; it is kept as a library route and as the independent reference the
differential tests compare against.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .decomposition import (
    NdPartition,
    check_uniform,
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
from .shift_digraph import ShiftClosure, ShiftDigraph, independent_sets, iter_bits

# solve_flow gives up after this many cut rounds per digraph edge
CUT_ROUNDS_PER_EDGE = 10


@dataclass(slots=True)
class SolveStats:
    """Counters filled in by the solving entry points.

    Slotted, like Labeling, because callers keep one per solve.
    """

    nd: int | None = None
    types: int | None = None
    # windows whose allowed slices the walk searches worked out; none on one-type parts
    digraph_nodes: int = 0
    cuts_added: int = 0
    solve_ms: float = 0.0


def preprocess_reflexive(sizes, weights: dict, classes):
    """The reflexive reduction and the split into connected parts, in one
    pass over check_uniform's sizes and weights, which it leaves as they
    were; classes are the partition's, one per type.

    A loopless class shrinks to its least vertex, kept, and its other
    vertices are dropped; a class of one vertex keeps it as it is, with no
    sort.  The parts are the connected components of the types some edge
    touches, over a bitmask adjacency, each grown from the least type no
    part holds yet, and one bitmask holds the types already in a part; no
    edge joins two parts, so each is solved on its own.  A part comes as
    (its sizes, its weights, its type ids in ascending order, which its
    sizes and weights number 0, 1, ...), every type given a loop: a shrunk
    type gets a weight-1 one (a singleton never repeats, so any weight
    works).  A type no edge touches gets no part: its vertices are
    unconstrained, and label 0 serves them all.  Returns (kept, dropped,
    parts).
    """
    tau = len(sizes)
    if len(classes) != tau:
        raise ValueError("type graph and partition disagree on class count")
    adjacent = [0] * tau
    for i, j in weights:
        adjacent[i] |= 1 << j
        adjacent[j] |= 1 << i
    kept, dropped = [], []
    for t, cls in enumerate(classes):
        size = sizes[t]
        if len(cls) != size:
            raise ValueError(f"class {t} size mismatch")
        if size == 1:
            kept.append(tuple(cls))
            dropped.append(())
            continue
        members = tuple(sorted(cls))
        cut = size if adjacent[t] >> t & 1 else 1
        kept.append(members[:cut])
        dropped.append(members[cut:])
    parts, part_of = [], [None] * tau  # per type: its part's weights, its place
    placed = 0  # the types already in a part
    for first, edges in enumerate(adjacent):
        if not edges or placed >> first & 1:
            continue
        part = frontier = 1 << first
        while frontier:
            t = frontier.bit_length() - 1
            frontier ^= 1 << t
            new = adjacent[t] & ~part
            part |= new
            frontier |= new
        placed |= part
        ids = list(iter_bits(part))
        pw = {(k, k): 1 for k in range(len(ids))}  # a real loop overwrites its placeholder
        parts.append(([len(kept[t]) for t in ids], pw, ids))
        for k, t in enumerate(ids):
            part_of[t] = (pw, k)
    for (i, j), w in weights.items():
        pw, k = part_of[i]
        pw[(k, part_of[j][1])] = w
    return tuple(kept), tuple(dropped), parts


def build_flow_model(d: ShiftDigraph, sizes, span: int):
    """ILP whose solutions are edge multisets of closed walks of the right
    shape; its linear relaxation is the lower bound refute_by_certificate
    checks.

    Variables: one multiplicity per digraph edge, bounded by the walk length
    span + z + 1.  Constraints, in this order: flow conservation at every
    node; per-type occurrence counts in coordinate role 0 (edges leaving
    windows whose first slice holds the type are taken exactly size(type)
    times); the total length; the same counts in roles 1 .. z - 1; at least
    z departures from windows with an empty slice in each role, which the
    two padding runs provide; at most _window_capacity departures from each
    typed window; and a departure from the all-empty window, where the walk
    starts.  Every closed walk of the right shape meets them all, since
    in-window coordinates map to distinct label positions.  Connectivity is
    not encoded here; solve_flow enforces it lazily by cuts.

    Returns the model, whose variable indices are d's edge indices, and
    each window's _window_capacity (-1 on an untyped window), which the cut
    separators take.
    Raises ValueError on a negative span, or on sizes for another number
    of types than d has.
    """
    if span < 0:
        raise ValueError("span must be nonnegative")
    if len(sizes) != d.type_count:
        raise ValueError(f"{len(sizes)} class sizes for a digraph of {d.type_count} types")
    z = d.window_length
    length = span + z + 1
    var_count = len(d.edges)

    def role_counts(j):
        return [
            Constraint.build(
                [(ei, 1) for ei, (src, _) in enumerate(d.edges) if d.windows[src][j] >> t & 1],
                EQ,
                size,
            )
            for t, size in enumerate(sizes)
        ]

    constraints = []
    for node in range(len(d.windows)):
        terms = [(ei, 1) for ei in d.out_edges[node] if d.edges[ei][1] != node]
        terms += [(ei, -1) for ei in d.in_edges[node] if d.edges[ei][0] != node]
        if terms:
            constraints.append(Constraint.build(terms, EQ, 0))
    constraints += role_counts(0)
    constraints.append(Constraint.build([(ei, 1) for ei in range(var_count)], EQ, length))
    for j in range(1, z):
        constraints += role_counts(j)
    for j in range(z):
        terms = [(ei, -1) for ei, (src, _) in enumerate(d.edges) if d.windows[src][j] == 0]
        constraints.append(Constraint.build(terms, LE, -z))
    capacity = [_window_capacity(window, sizes) for window in d.windows]
    for node, cap in enumerate(capacity):
        if cap >= 0 and d.out_edges[node]:
            constraints.append(Constraint.build([(ei, 1) for ei in d.out_edges[node]], LE, cap))
    constraints.append(Constraint.build([(ei, -1) for ei in d.out_edges[d.empty_index]], LE, -1))
    model = IlpModel(var_count, (length,) * var_count, tuple(constraints))
    return model, capacity


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


def _pruned_digraph(d: ShiftDigraph, sizes, span: int):
    """Restriction of the digraph to windows a valid walk could visit.

    Drops edges whose feasible walk-index range is empty for this span, and
    the windows left without edges.  Valid supports only use the
    restriction, and cuts computed on it stay valid, so solving on it is
    equivalent; edge indices are mapped back afterwards.
    """
    _, edge_ranges = _walk_index_ranges(d, span)
    keep_edge = [elo <= ehi for elo, ehi in edge_ranges]
    keep_node = [False] * len(d.windows)
    keep_node[d.empty_index] = True
    for ei, ok in enumerate(keep_edge):
        if ok:
            keep_node[d.edges[ei][0]] = True
            keep_node[d.edges[ei][1]] = True
    if all(keep_node) and all(keep_edge):
        return d, list(range(len(d.edges)))
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
    return pruned, edge_map


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
    sizes,
    span: int,
    *,
    stats: SolveStats | None = None,
):
    """Solve the flow model, adding connectivity cuts until the support is
    one component through the all-empty window.  Returns the edge multiset
    as {index of an edge of d: multiplicity}, zero multiplicities left out,
    or None when no multiset exists.

    The model is built on the edges a walk of this span can use and solved
    with largest-value-first branching; edge indices map back to d at the
    end.
    """
    pruned, edge_map = _pruned_digraph(d, sizes, span)
    model, capacity = build_flow_model(pruned, sizes, span)
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

    while True:
        # a budgeted pass settles easy rounds; refutation-heavy rounds go to
        # the certificate check and then the walk-frontier search
        try:
            values = solve_feasibility(model, max_nodes=3000)
        except GuardExceeded:
            if refute_by_certificate(model):
                return None
            values = solve_feasibility(model, selector=selector)
        if values is None:
            return None
        cuts = _all_violated_cuts(values, pruned, big_m, capacity)
        if not cuts:
            return {edge_map[ei]: v for ei, v in enumerate(values) if v > 0}
        for cut in cuts:
            model = add_constraint(model, cut)
        rounds += 1
        if stats is not None:
            stats.cuts_added += len(cuts)
        if rounds > cap:
            raise InternalSolverError(
                f"connectivity cuts exceeded the iteration cap of {cap}"
            )


def euler_walk(counts: dict, d: ShiftDigraph) -> tuple[int, ...]:
    """Closed walk from the all-empty window, as its node indices,
    traversing each edge exactly its multiplicity (Hierholzer).

    counts maps edge indices of d to multiplicities, as solve_flow returns
    them; each must be at least 1, and the multiset must be balanced and
    connected.
    """
    if any(mult < 1 for mult in counts.values()):
        raise ValueError("multiplicities must be positive")
    if not counts:
        return (d.empty_index,)

    balance: dict[int, int] = {}
    touched: set[int] = set()
    for ei, mult in counts.items():
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
    for ei in sorted(counts):
        a, b = d.edges[ei]
        succ.setdefault(a, []).append([b, counts[ei]])
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

    total = sum(counts.values())
    if len(circuit) != total + 1 or circuit[0] != d.empty_index or circuit[-1] != d.empty_index:
        raise InternalSolverError("multiset support is not an Eulerian circuit at the all-empty window")
    return tuple(circuit)


def _walk_slices(nodes, d: ShiftDigraph, sizes, span: int) -> list[int]:
    """Slices at label positions 0..span of a closed walk, given as its
    node indices, once its length, end points and per-type counts are
    checked.

    The walk node at index z + i carries label position i in its first slice.
    """
    z = d.window_length
    if len(nodes) != span + z + 2:
        raise InternalSolverError(
            f"walk has {len(nodes)} nodes, expected {span + z + 2}"
        )
    if nodes[0] != d.empty_index or nodes[-1] != d.empty_index:
        raise InternalSolverError("walk does not start and end at the all-empty window")

    counts = [0] * len(sizes)
    for node in nodes[:-1]:
        for t in iter_bits(d.windows[node][0]):
            counts[t] += 1
    if counts != list(sizes):
        raise InternalSolverError("per-type occurrence counts do not match class sizes")
    return [d.windows[node][0] for node in nodes[z : z + span + 1]]


def walk_to_labeling(parts, kept, dropped, span: int, vertex_count: int) -> Labeling:
    """Labels from one closed walk per part, decoded as the solve path
    decodes its parts' slices.

    A part comes as (its walk's node indices, its shift digraph, its
    sizes, its type ids), as preprocess_reflexive numbers them, and kept
    and dropped are that reduction's.  Each walk's length, end points and
    per-type counts are checked against span and the part's sizes first.
    """
    walks = [(_walk_slices(nodes, d, sizes, span), ids) for nodes, d, sizes, ids in parts]
    return _decode(walks, kept, dropped, span, vertex_count)


def _decode(parts, kept, dropped, span: int, vertex_count: int) -> Labeling:
    """Labels from each part's slices, one per label position from 0 on.

    A part comes as (slices, type_ids): its slices name types by their
    place in the part, and type_ids[t] is the reduction's type at place t;
    the reduction's type r keeps the vertices kept[r] and drops dropped[r].
    Each type in slice i consumes its next kept vertex in ascending id
    order, and dropped vertices copy their keeper's label afterwards.  A
    part's type with a kept vertex left over raises InternalSolverError; a
    type in no part has no constraint, and its vertices keep label 0.
    """
    labels = [0] * vertex_count
    for slices, type_ids in parts:
        used = [0] * len(type_ids)
        for i, mask in enumerate(slices):
            for t in iter_bits(mask):
                labels[kept[type_ids[t]][used[t]]] = i
                used[t] += 1
        for count, r in zip(used, type_ids):
            if count != len(kept[r]):
                raise InternalSolverError("decode left unlabeled vertices")
            for v in dropped[r]:
                labels[v] = labels[kept[r][0]]
    return Labeling(tuple(labels), span)


def _count_decoder(sizes, weights: dict):
    """The decode of a part's count codes past the placed bits of its
    size-1 types: digit code -> need << tau | full, the label positions the
    remaining copies of the types above size 1 need at least, and those of
    them at their class size.  A digit code holds, lowest first, a
    mixed-radix digit per type above size 1, its count."""
    tau = len(sizes)
    # per type above size 1: the type, its radix and the need of its copies
    # left at each count, which is 0 only when full; left copies sit at
    # least w(t, t) apart
    digits = [
        (t, size + 1, [(size - c - 1) * weights[(t, t)] + 1 for c in range(size)] + [0])
        for t, size in enumerate(sizes)
        if size > 1
    ]

    def decode(code: int) -> int:
        full = need = 0
        for t, radix, needs in digits:
            n = needs[code % radix]
            code //= radix
            if n > need:
                need = n
            elif not n:
                full |= 1 << t
        return need << tau | full

    return decode


def _moves(free: int, lifted, bits: int) -> list[int]:
    """The independent sets of the free types as moves, each the sum of
    its types' lifted terms, fullest first; a stable sort, so sets of equal
    size keep independent_sets' order."""
    return sorted(
        independent_sets(free, lifted), key=lambda move: (move >> bits).bit_count(), reverse=True
    )


def _shortest_walk(sizes, weights: dict, closure, span=None, max_windows=None):
    """Slices shifted in by a shortest walk from the all-empty window whose
    per-type counts reach the class sizes, one per label position (their
    count minus 1 is the part's least span, and under a span a part with no
    walk within it gives None), and the number of windows whose allowed
    types it worked out.  A part comes as its sizes and reflexive weights,
    as preprocess_reflexive gives them, and its ShiftClosure, None for a
    part of one type.

    A part of one type is one class: a clique of s vertices whose pairs all
    carry the loop weight w (a loopless class with no neighbour gets no
    part).  Its labels sit pairwise at least w apart, so its least
    span is (s - 1) * w, met by one copy every w positions, and a smaller
    span is refuted, on the certificate check_uniform has checked exactly:
    C(s, 2) inner edges, all carrying w.

    Any other part gets a breadth-first search over the states (window,
    per-type counts) of walk prefixes from the all-empty window.  A
    span-lambda labeling is a walk of lambda + 1 steps, step k putting the
    new window's last slice at label position k - 1, whose counts end at
    the class sizes; z empty slices then close it.  Empty slices can always
    be appended, so a state reached at step k can do all that it can when
    reached later: layer k holds the states first entered after k steps,
    each with the state it was entered from.  Under a span the search gives
    up after span + 1 steps, and skips a state whose remaining copies need
    more label positions than are left.

    The goal is tested as each state enters, the root included: a state
    closes the walk when its counts are one independent slice short of the
    class sizes, its window allows that slice, and the layer after it is
    still searched.  A table built once from the root's moves, every
    independent slice, maps each count code one slice short to its slice.
    A state after k steps is tested only if k + 1 slices as full as the
    fullest one could hold every copy.  Every state of the layers before
    was tested as it entered, so the first state to pass closes a shortest
    walk, and the search stops before building the rest of its layer, the
    widest.

    A state is one int, window << bits | count code, bits being the bit
    length of the full code.  In the count code a type of class size 1 is
    bit t of the low tau bits, set once it is placed, and the types above
    size 1 are mixed-radix digits above those bits; on a part of size-1
    classes (every part of the vc route, and of any partition without a
    clique class) the code is the mask of types placed.  Size-1 types are
    left out of the need: each needs one position, and one is always left
    inside the loop.  A window's kept slices hold no type past the counts,
    so the closure's bars alone give the types a new slice may hold; more
    than max_windows windows worked out, on expansion or on entry, raise
    GuardExceeded.  A state's moves are the independent sets of the allowed
    types not at their class size, each the sum of its types' terms
    1 << bits + t | step, fullest first.  The allowed types per
    window, the moves per set of free types and the decode per digit code
    are memoised for the call.
    """
    if closure is None:
        size, loop = sizes[0], weights[(0, 0)]
        if span is not None and (size - 1) * loop > span:
            return None, 0
        return [1] + ([0] * (loop - 1) + [1]) * (size - 1), 0
    tau, newest = closure.type_count, closure.slice_mask
    step_of, place = [], 1 << tau  # the next digit's place, above the size-1 bits
    for t, size in enumerate(sizes):
        if size == 1:
            step_of.append(1 << t)
        else:
            step_of.append(place)
            place *= size + 1
    goal = sum(size * step for size, step in zip(sizes, step_of))
    bits = goal.bit_length()
    decode = _count_decoder(sizes, weights)
    lifted = [
        (clash << bits, 1 << bits + t | step)
        for t, (clash, step) in enumerate(zip(closure.clash, step_of))
    ]
    codes = (1 << bits) - 1
    keep = (closure.window_mask ^ newest) << bits  # a window's z - 1 older slices, shifted
    info_of, allowed_of = {}, {}
    moves_of = {newest: _moves(newest, lifted, bits)}  # the root's: every independent slice
    closing = {goal - (move & codes): move >> bits for move in moves_of[newest]}
    widest, total = (moves_of[newest][0] >> bits).bit_count(), sum(sizes)

    def allowed_after(window):
        allowed = allowed_of.get(window)
        if allowed is None:
            if max_windows is not None and len(allowed_of) >= max_windows:
                raise GuardExceeded(f"window count exceeds guard of {max_windows}")
            allowed = allowed_of[window] = closure.allowed(window)
        return allowed

    def closed(state):
        # the walk's slices when one slice the window allows closes it
        last_slice = closing[state & codes]
        if last_slice & ~allowed_after(state >> bits):
            return None
        slices = [last_slice]
        while state:
            slices.append(state >> bits & newest)
            state = parent[state]
        slices.reverse()
        return slices

    last = float("inf") if span is None else span + 1
    parent = {0: None}  # the all-empty window with no type counted
    if widest >= total and (slices := closed(0)):  # then the root's code is in the table
        return slices, len(allowed_of)
    layer = [0]
    steps = 0
    while layer and steps < last:
        left = last - steps  # label positions from the one placed now
        steps += 1  # building the layer of walks with this many steps
        test = steps < last and (steps + 1) * widest >= total
        next_layer = []
        for state in layer:
            code = state & codes
            need_full = info_of.get(code >> tau)
            if need_full is None:
                need_full = info_of[code >> tau] = decode(code >> tau)
            if span is not None and need_full >> tau > left:
                continue
            free = allowed_after(state >> bits) & ~(need_full | code)
            moves = moves_of.get(free)
            if moves is None:
                moves = moves_of[free] = _moves(free, lifted, bits)
            head = state << tau & keep | code
            for move in moves:
                key = head + move
                if key in parent:
                    continue
                parent[key] = state
                next_layer.append(key)
                if test and (key & codes) in closing and (slices := closed(key)):
                    return slices, len(allowed_of)
        layer = next_layer
    if span is None:
        raise InternalSolverError("no walk reaches the class sizes at any span")
    return None, len(allowed_of)


def _parts(wg: WeightedGraph, route: str, partition):
    """The route's partition, condensed once and made reflexive once, and
    its connected parts, each with the ShiftClosure its search steps with.

    Returns (partition before weight refinement, (kept, dropped) of the
    reflexive reduction, list of (sizes, weights, closure, type ids) per
    part, the closure None for a one-type part; a type no edge touches is
    in no part).  Every closure is built
    before any part is searched, so a part over the type limit raises
    GuardExceeded first.  Raises ValueError on an unknown route, a missing
    partition on the uniform route or a given one on the vc route, or a
    partition that is no decomposition, and NotUniformError (a ValueError)
    on weights that are not uniform on the partition.
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
    sizes, weights, uniform = check_uniform(wg, refined)
    if not uniform:
        raise NotUniformError("edge weights are not uniform on the given partition")
    kept, dropped, parts = preprocess_reflexive(sizes, weights, refined.classes)
    parts = [
        (s, w, ShiftClosure(s, w, max(w.values())) if len(s) > 1 else None, ids)
        for s, w, ids in parts
    ]
    return base, (kept, dropped), parts


def _solve(wg, route, partition, span, stats, max_digraph_nodes):
    """Labeling at `span`, or (least span, labeling) when span is None.

    Every labeling returned has passed verify_assignment on wg; one that
    fails raises InternalSolverError.  Fills nd and types of stats, adds the
    windows the walk searches worked out to digraph_nodes, and adds the call's
    wall time, from the route's partition on, to solve_ms.
    """
    if span is not None and span < 0:
        raise ValueError("span must be nonnegative")
    start = time.perf_counter()
    base, (kept, dropped), parts = _parts(wg, route, partition)
    if stats is not None:
        stats.nd = base.count
        stats.types = len(kept)

    minimize = span is None
    labeling = None
    walks, worked_out = [], 0
    for sizes, weights, closure, type_ids in parts:
        slices, windows = _shortest_walk(sizes, weights, closure, span, max_digraph_nodes)
        worked_out += windows
        if slices is None:
            break  # this part has no labeling within the span
        walks.append((slices, type_ids))
    else:
        if minimize:
            # the parts are independent, so the least span is the largest of theirs
            span = max((len(slices) - 1 for slices, _ in walks), default=0)
        labeling = _decode(walks, kept, dropped, span, wg.graph.n)
        verdict = verify_assignment(wg, labeling)
        if not verdict.ok:
            raise InternalSolverError(
                f"labeling failed verification: edges {verdict.violated_edges}, "
                f"out of range {verdict.out_of_range}"
            )
    if stats is not None:
        stats.digraph_nodes += worked_out
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

    Each connected part of the type graph gets its shortest walk, in closed
    form for a one-type part and from one breadth-first walk search for any
    other, and the answer is the largest of their least spans (0 when no
    type has an edge), at which every part's own walk is decoded and checked
    as for a fixed span.  No span is refuted.
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
