"""Acceptance suite: oracle equivalence, reference properties, and bounds.

Each criterion prints one PASS line (run with -s to see them).  Random
instances are drawn from fixed seeds; generators reject draws whose window
digraph, counted without the class-size bound (full_digraph_exceeds), would
exceed the materialization scale this artifact targets, and the brute-force
guard is raised through its documented parameter to cover the sampled label
spaces.
"""

import contextlib
import hashlib
import random
import time
from collections import deque

import pytest
from hypothesis import assume, given, reject, settings, strategies as st

from ndchan import (
    DistanceConstraints,
    Graph,
    WeightedGraph,
    build_flow_model,
    build_shift_digraph,
    euler_walk,
    labeling_to_ca,
    min_vertex_cover,
    minimize_span,
    nd_partition,
    power_graph,
    refine_uniform,
    solve_ca_uniform,
    solve_ca_vc,
    solve_flow,
    solve_labeling,
    trivial_upper_bound,
    vc_partition,
    verify_assignment,
    walk_to_labeling,
)
from ndchan.ilp import EQ, LE, Constraint, IlpModel, solve_feasibility
from ndchan import solver
from ndchan.oracle import brute_force_ca, brute_force_nd
from ndchan.solver import SolveStats, connectivity_violation
from helpers import (
    complete_graph,
    connected_bipartite_instance,
    cycle_graph,
    full_digraph_exceeds,
    lp_feasible_brute,
    lp_labeling_valid,
    lp_min_span_brute,
    path_graph,
    random_graph,
    random_weighted_graph,
    send_probes_to_ilp,
    sequence_conditions_hold,
    star_graph,
    uniform_instance,
)

ORACLE_GUARD = 10**10
DIGRAPH_GUARD = 3000


def _passed(name, detail):
    print(f"ACCEPTANCE {name}: PASS ({detail})")


@pytest.fixture(scope="module")
def uniform_route_records():
    rng = random.Random(0xC0FFEE)
    records = []
    while len(records) < 200:
        wg, partition = uniform_instance(rng, max_types=3, max_size=3, max_weight=3)
        if wg.graph.n > 8:
            continue
        span = rng.randint(0, 10)
        labeling = solve_ca_uniform(wg, partition, span)
        oracle = brute_force_ca(wg, span, guard=ORACLE_GUARD)
        records.append(
            {
                "wg": wg,
                "partition": partition,
                "span": span,
                "labeling": labeling,
                "oracle": oracle,
            }
        )
    return records


@pytest.fixture(scope="module")
def vc_route_records():
    rng = random.Random(0xBEEF)
    records = []
    while len(records) < 100:
        n = rng.randint(2, 8)
        wg_candidate = [
            (u, v, rng.randint(1, 3))
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < 0.35
        ]
        wg = WeightedGraph.from_edges(n, wg_candidate)
        if len(min_vertex_cover(wg.graph)) > 3:
            continue
        span = rng.randint(0, min(12, trivial_upper_bound(wg)))
        if full_digraph_exceeds(wg, "vc", None, DIGRAPH_GUARD):
            continue
        labeling = solve_ca_vc(wg, span)
        oracle = brute_force_ca(wg, span, guard=ORACLE_GUARD)
        records.append(
            {"wg": wg, "span": span, "labeling": labeling, "oracle": oracle}
        )
    return records


FIXTURE_GRAPHS = (
    [(f"P{n}", path_graph(n)) for n in (2, 3, 4, 5, 6)]
    + [(f"C{n}", cycle_graph(n)) for n in (3, 4, 5, 6)]
    + [(f"K1,{k}", star_graph(k)) for k in (2, 3, 4)]
    + [("K4", complete_graph(4))]
)
FIXTURE_CONSTRAINTS = ((1,), (2, 1), (1, 1), (3, 2))


@pytest.fixture(scope="module")
def labeling_fixture_records():
    records = []
    for name, g in FIXTURE_GRAPHS:
        for p in FIXTURE_CONSTRAINTS:
            wg = labeling_to_ca(g, DistanceConstraints(p))
            partition = nd_partition(g)
            span, labeling = minimize_span(wg, "uniform", partition)
            records.append(
                {
                    "name": name,
                    "g": g,
                    "p": p,
                    "wg": wg,
                    "partition": partition,
                    "span": span,
                    "labeling": labeling,
                }
            )
    return records


def test_criterion_1_uniform_route_oracle_equivalence(uniform_route_records):
    start = time.perf_counter()
    feasible = 0
    for rec in uniform_route_records:
        assert (rec["labeling"] is None) == (rec["oracle"] is None), (
            rec["wg"].weights,
            rec["span"],
        )
        if rec["labeling"] is not None:
            feasible += 1
            assert verify_assignment(rec["wg"], rec["labeling"]).ok
    elapsed = time.perf_counter() - start
    _passed(
        "criterion 1 (uniform-route oracle equivalence)",
        f"200 instances, {feasible} feasible",
    )


def test_criterion_1_runtime(uniform_route_records):
    start = time.perf_counter()
    rng = random.Random(1)
    # re-solve a sample to confirm the solving itself is fast, fixtures aside
    sample = rng.sample(uniform_route_records, 20)
    for rec in sample:
        solve_ca_uniform(rec["wg"], rec["partition"], rec["span"])
    elapsed = time.perf_counter() - start
    assert elapsed < 300
    _passed("criterion 1 runtime", f"20-instance resample in {elapsed:.1f}s")


def test_criterion_2_vc_route_oracle_equivalence(vc_route_records):
    feasible = 0
    for rec in vc_route_records:
        assert (rec["labeling"] is None) == (rec["oracle"] is None), (
            rec["wg"].weights,
            rec["span"],
        )
        if rec["labeling"] is not None:
            feasible += 1
            assert verify_assignment(rec["wg"], rec["labeling"]).ok
    _passed(
        "criterion 2 (vertex-cover route oracle equivalence)",
        f"100 instances, {feasible} feasible",
    )


@contextlib.contextmanager
def _engine(name):
    """Route every component probe to one engine: "walk" for the walk
    search the solver uses, "ilp" for solve_flow and the Euler walk."""
    with pytest.MonkeyPatch.context() as mp:
        if name == "ilp":
            send_probes_to_ilp(mp)
        yield


def _differential(wg, span, solve, engines=("walk", "ilp")):
    """The engines and the oracle give one verdict, and each labeling
    passes verify_assignment.  Returns whether the span is feasible."""
    oracle = brute_force_ca(wg, span, guard=ORACLE_GUARD)
    for name in engines:
        with _engine(name):
            labeling = solve()
        assert (labeling is None) == (oracle is None), (name, wg.weights, span)
        if labeling is not None:
            assert verify_assignment(wg, labeling).ok
    return oracle is not None


def test_differential_engines_on_criterion_draws(uniform_route_records, vc_route_records):
    feasible = 0
    for rec in uniform_route_records:
        feasible += _differential(
            rec["wg"],
            rec["span"],
            lambda: solve_ca_uniform(rec["wg"], rec["partition"], rec["span"]),
        )
    for rec in vc_route_records:
        feasible += _differential(
            rec["wg"],
            rec["span"],
            lambda: solve_ca_vc(rec["wg"], rec["span"]),
        )
    _passed(
        "differential (walk search, ILP, oracle)",
        f"300 criterion 1 and 2 instances, {feasible} feasible",
    )


@given(st.integers(0, 2**32 - 1), st.integers(0, 10))
@settings(max_examples=40, deadline=None)
def test_differential_engines_on_random_uniform_instances(seed, span):
    wg, partition = uniform_instance(
        random.Random(seed), max_types=3, max_size=3, max_weight=3
    )
    assume(wg.graph.n <= 7)
    _differential(wg, span, lambda: solve_ca_uniform(wg, partition, span))


# derandomized: the ILP is slow on some draws, so fresh draws on every run
# gave this test no time bound
@given(st.integers(0, 2**32 - 1), st.integers(0, 10), st.sampled_from(((2, 1), (3, 2), (1, 1))))
@settings(max_examples=40, deadline=None, derandomize=True)
def test_differential_engines_on_random_vc_and_labeling_instances(seed, span, p):
    # a random weighted graph on the vertex-cover route and a random L(p)
    # labeling on the twin partition: both engines, minimize_span and the
    # brute-force oracles agree, and every labeling verifies
    rng = random.Random(seed)
    wg = random_weighted_graph(rng, rng.randint(1, 7), rng.uniform(0.1, 0.6), 3)
    assume(len(min_vertex_cover(wg.graph)) <= 3)
    g = random_graph(rng, rng.randint(1, 6), rng.random())
    dc = DistanceConstraints(p)
    lwg = labeling_to_ca(g, dc)
    if full_digraph_exceeds(wg, "vc", None, DIGRAPH_GUARD) or full_digraph_exceeds(
        lwg, "uniform", nd_partition(g), DIGRAPH_GUARD
    ):
        reject()

    _differential(wg, span, lambda: solve_ca_vc(wg, span))
    least, labeling = minimize_span(wg, "vc")
    assert least == _least_feasible_span(wg), wg.weights
    assert verify_assignment(wg, labeling).ok

    feasible = _differential(lwg, span, lambda: solve_labeling(g, dc, span))
    assert feasible == lp_feasible_brute(g, p, span), (sorted(g.edges), p, span)
    least, labeling = minimize_span(lwg, "uniform", nd_partition(g))
    assert least == lp_min_span_brute(g, p), (sorted(g.edges), p)
    assert verify_assignment(lwg, labeling).ok
    assert lp_labeling_valid(g, p, labeling.labels, least)


def test_criterion_3_labeling_pipeline_minimum_spans(labeling_fixture_records):
    anchors = {("P2", (2, 1)): 2, ("P3", (2, 1)): 3, ("P4", (2, 1)): 3, ("P5", (2, 1)): 4}
    for rec in labeling_fixture_records:
        expected = lp_min_span_brute(rec["g"], rec["p"])
        assert rec["span"] == expected, (rec["name"], rec["p"])
        assert verify_assignment(rec["wg"], rec["labeling"]).ok
        key = (rec["name"], rec["p"])
        if key in anchors:
            assert rec["span"] == anchors[key]
        if rec["name"] == "K4" and rec["p"] == (2, 1):
            assert rec["span"] == 2 * (4 - 1)
    _passed(
        "criterion 3 (labeling pipeline minimum spans)",
        f"{len(labeling_fixture_records)} graph/constraint combinations",
    )


def test_minimize_span_one_search_per_part(monkeypatch):
    # each part gets one shortest-walk search and no span probe: its own
    # walk, decoded at the largest least span, is the witness
    searched = []
    original_search = solver._shortest_walk

    def recorded_search(sizes, weights, closure, span=None, max_windows=None):
        assert span is None
        searched.append(id(weights))  # each part has its own weights
        return original_search(sizes, weights, closure, span, max_windows)

    monkeypatch.setattr(solver, "_shortest_walk", recorded_search)
    k20_20 = Graph.from_edges(40, [(u, v) for u in range(20) for v in range(20, 40)])
    cases = [(g, p) for _, g in FIXTURE_GRAPHS for p in FIXTURE_CONSTRAINTS]
    cases.append((k20_20, (3, 2)))
    for g, p in cases:
        wg = labeling_to_ca(g, DistanceConstraints(p))
        partition = nd_partition(g)
        searched.clear()
        span, labeling = minimize_span(wg, "uniform", partition)
        _, _, parts = solver._parts(wg, "uniform", partition)
        assert len(set(searched)) == len(searched) == len(parts) > 0, (g, p)
        assert verify_assignment(wg, labeling).ok
    assert span == 79  # K20,20 under L(3,2): each side 2 * 19, and 3 between them
    _passed("minimize_span searches", f"{len(cases)} instances, one search per part")


def test_walk_search_does_not_depend_on_successor_order(monkeypatch):
    """A state's move order picks the walk among the shortest ones.  With
    every memoised move list reversed within equal slice size, labels
    change on some instances, but least spans and decisions do not, and
    every labeling still verifies.  The moves stay fullest first: the
    search's goal test relies on that order, looking only at a state's
    first move, the one that places every type left."""
    k20_20 = Graph.from_edges(40, [(u, v) for u in range(20) for v in range(20, 40)])
    cases = [(g, p) for _, g in FIXTURE_GRAPHS for p in FIXTURE_CONSTRAINTS]
    cases.append((k20_20, (3, 2)))
    instances = [
        (labeling_to_ca(g, DistanceConstraints(p)), nd_partition(g)) for g, p in cases
    ]
    searched = {
        max(sizes) == 1
        for wg, partition in instances
        for sizes, _, closure, _ in solver._parts(wg, "uniform", partition)[2]
        if closure is not None
    }
    # searched parts whose count codes are placed-type masks, and parts
    # with count digits
    assert searched == {True, False}
    answers = [minimize_span(wg, "uniform", partition) for wg, partition in instances]
    original_sets = solver.independent_sets

    def reversed_sets(free, lifted):
        # the search sorts these stably by size, so reversed within it
        return original_sets(free, lifted)[::-1]

    monkeypatch.setattr(solver, "independent_sets", reversed_sets)
    changed = 0
    for (wg, partition), (least, first) in zip(instances, answers):
        span, labeling = minimize_span(wg, "uniform", partition)
        assert span == least
        assert verify_assignment(wg, labeling).ok
        changed += labeling.labels != first.labels
        for at in (least, least + 1):
            labeling = solve_ca_uniform(wg, partition, at)
            assert labeling is not None and verify_assignment(wg, labeling).ok
        if least > 0:
            assert solve_ca_uniform(wg, partition, least - 1) is None
    assert changed > 0  # the reversal reached the moves the search takes
    assert answers[-1][0] == 79
    _passed("successor order", f"{len(cases)} instances, labels changed on {changed}")


def test_answers_pinned():
    """Least spans and labels over the labeling fixtures on both routes, and
    the decisions at each least span and one below, hashed into one digest,
    and the windows each solve worked out into another.  A change to the
    walk search that moves any label or verdict, such as another move
    order, changes the first; one that works out other windows changes the
    second."""
    answers, windows = [], []
    for name, g in FIXTURE_GRAPHS:
        for p in FIXTURE_CONSTRAINTS:
            wg = labeling_to_ca(g, DistanceConstraints(p))
            partition = nd_partition(g)
            for route, part in (("uniform", partition), ("vc", None)):
                stats = SolveStats()
                least, labeling = minimize_span(wg, route, part, stats=stats)
                answers.append((name, p, route, least, labeling.labels))
                windows.append(stats.digraph_nodes)
                for span in (least, least - 1)[: 1 + (least > 0)]:
                    stats = SolveStats()
                    if route == "uniform":
                        labeling = solve_ca_uniform(wg, partition, span, stats=stats)
                    else:
                        labeling = solve_ca_vc(wg, span, stats=stats)
                    answers.append((span, labeling and labeling.labels))
                    windows.append(stats.digraph_nodes)
    assert len(answers) == 312
    digest = hashlib.sha256(repr(answers).encode()).hexdigest()
    assert digest == "68e5af47ade277c4bafc29acc9cf4be93d416868551790387473a809358ec5aa"
    digest = hashlib.sha256(repr(windows).encode()).hexdigest()
    assert digest == "bad100291fffa8ec7e02320b855ea3f29142cf68d5573a19a90e06ecd03614ae"
    _passed("answers pinned", f"{len(answers)} solves")


def _least_feasible_span(wg):
    span = 0
    while brute_force_ca(wg, span, guard=ORACLE_GUARD) is None:
        span += 1
    return span


@given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.sampled_from(((2, 1), (3, 2), (1, 1))))
@settings(max_examples=100, deadline=None)
def test_least_span_on_random_labelings(seed, n, p):
    rng = random.Random(seed)
    g = random_graph(rng, n, rng.random())
    wg = labeling_to_ca(g, DistanceConstraints(p))
    span, labeling = minimize_span(wg, "uniform", nd_partition(g))
    assert span == lp_min_span_brute(g, p), (sorted(g.edges), p)
    assert verify_assignment(wg, labeling).ok


# derandomized, as the differential test above is: fresh draws on every run
# made the test's run time and its draws change from run to run
@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None, derandomize=True)
def test_least_span_on_random_uniform_and_vc_instances(seed):
    rng = random.Random(seed)
    wg, partition = uniform_instance(rng, max_types=3, max_size=3, max_weight=3)
    assume(wg.graph.n <= 7)
    other = random_weighted_graph(rng, rng.randint(2, 7), 0.35, 3)
    assume(len(min_vertex_cover(other.graph)) <= 3)
    cases = ((wg, "uniform", partition), (other, "vc", None))
    if any(full_digraph_exceeds(*case, DIGRAPH_GUARD) for case in cases):
        reject()
    for instance, route, given_partition in cases:
        span, labeling = minimize_span(instance, route, given_partition)
        assert span == _least_feasible_span(instance), (route, instance.weights)
        assert verify_assignment(instance, labeling).ok


def test_criterion_4_bipartite_minimum_is_wmax():
    rng = random.Random(0xB1B)
    checked = 0
    while checked < 50:
        wg = connected_bipartite_instance(rng, max_n=7, max_weight=3)
        if full_digraph_exceeds(wg, "vc", None, DIGRAPH_GUARD):
            continue
        span, labeling = minimize_span(wg, "vc")
        assert span == wg.wmax, wg.weights
        assert verify_assignment(wg, labeling).ok
        checked += 1
    _passed("criterion 4 (bipartite minimum span equals wmax)", "50 instances")


def test_criterion_5_scaling_preserves_feasibility():
    rng = random.Random(0x5CA1E)
    checked = 0
    while checked < 50:
        g = random_graph(rng, rng.randint(2, 6), 0.5)
        p = tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 2)))
        span = rng.randint(0, 8)
        if any(
            full_digraph_exceeds(
                labeling_to_ca(g, DistanceConstraints(tuple(c * q for q in p))),
                "uniform",
                nd_partition(g),
                DIGRAPH_GUARD,
            )
            for c in (1, 2, 3)
        ):
            continue
        base = solve_labeling(g, DistanceConstraints(p), span)
        for c in (2, 3):
            scaled = solve_labeling(g, DistanceConstraints(tuple(c * q for q in p)), c * span)
            assert (scaled is None) == (base is None), (sorted(g.edges), p, span, c)
        checked += 1
    _passed("criterion 5 (scaled constraints preserve feasibility)", "50 instances, c in {2, 3}")


def test_criterion_6_decomposition_bounds():
    rng = random.Random(0xDEC0)
    for _ in range(100):
        g = random_graph(rng, rng.randint(1, 8), rng.random())
        partition = nd_partition(g)
        assert partition.count == brute_force_nd(g)
        for k in (2, 3):
            power_partition = nd_partition(power_graph(g, k))
            assert power_partition.count <= partition.count
        cover = min_vertex_cover(g)
        vc = len(cover)
        assert partition.count <= 2**vc + vc
        weights = {e: rng.randint(1, 3) for e in g.edges}
        wg = WeightedGraph(g, weights)
        refined = refine_uniform(wg, vc_partition(g, cover))
        assert refined.count <= vc + (2**vc) * wg.wmax**vc
    _passed("criterion 6 (decomposition bounds)", "100 graphs, powers 2 and 3")


def _duality_check(wg, partition, span):
    """Re-derive each part's walk for one feasible solve with the walk search
    and check the slices it shifted in, padded with empty slices to span + 1
    label positions, against the sequence conditions (class-size counts
    included) independently."""
    for sizes, weights, closure, _ in solver._parts(wg, "uniform", partition)[2]:
        slices, _ = solver._shortest_walk(sizes, weights, closure, span)
        assert slices is not None and len(slices) <= span + 1
        slices = slices + [0] * (span + 1 - len(slices))
        sets = [{t for t in range(mask.bit_length()) if mask >> t & 1} for mask in slices]
        assert sequence_conditions_hold(sets, len(sizes), sizes, weights)


def test_criterion_7_walk_sequence_duality(
    uniform_route_records, vc_route_records, labeling_fixture_records
):
    checked = 0
    for rec in uniform_route_records:
        if rec["labeling"] is not None:
            _duality_check(rec["wg"], rec["partition"], rec["span"])
            checked += 1
    for rec in vc_route_records:
        if rec["labeling"] is not None:
            wg = rec["wg"]
            refined = refine_uniform(wg, vc_partition(wg.graph, min_vertex_cover(wg.graph)))
            _duality_check(wg, refined, rec["span"])
            checked += 1
    for rec in labeling_fixture_records:
        _duality_check(rec["wg"], rec["partition"], rec["span"])
        checked += 1
    _passed("criterion 7 (walk/sequence duality)", f"{checked} feasible solves re-verified")


def test_criterion_8_lazy_cut_sanity():
    # a hand-built two-component multiset violates a generated cut
    digraph = build_shift_digraph([3], {(0, 0): 2}, 2)
    # windows as codes of one type: slice 0 in the high bit
    index = {w: i for i, w in enumerate(digraph.windows)}
    edge = {pair: i for i, pair in enumerate(digraph.edges)}
    up, down = index[0b01], index[0b10]
    values = [0] * len(digraph.edges)
    values[edge[(up, down)]] = 1
    values[edge[(down, up)]] = 1
    values[edge[(0, 0)]] = 2
    cut = connectivity_violation(values, digraph, 7)
    assert cut is not None
    violated = sum(coef * values[var] for var, coef in cut.terms) > cut.rhs
    assert violated

    # the full loop terminates on both sides of the K3 threshold
    wg = WeightedGraph.from_edges(3, [(0, 1, 2), (0, 2, 2), (1, 2, 2)])
    partition = nd_partition(wg.graph)
    with _engine("ilp"):
        assert solve_ca_uniform(wg, partition, 3) is None
        labeling = solve_ca_uniform(wg, partition, 4)
    assert labeling is not None and verify_assignment(wg, labeling).ok

    # an instance whose first solutions come back disconnected, forcing the
    # cut loop to add cuts before reaching a connected support; solve_flow is
    # called directly so that its stats count the cuts
    g3 = path_graph(3)
    wg3 = labeling_to_ca(g3, DistanceConstraints((1,)))
    _, (kept3, dropped3), [(sizes3, weights3, _, ids3)] = solver._parts(
        wg3, "uniform", nd_partition(g3)
    )
    digraph3 = build_shift_digraph(sizes3, weights3, max(weights3.values()))
    stats3 = SolveStats()
    multiset3 = solve_flow(digraph3, sizes3, 1, stats=stats3)
    assert multiset3 is not None
    walk3 = euler_walk(multiset3, digraph3)
    labeling3 = walk_to_labeling([(walk3, digraph3, sizes3, ids3)], kept3, dropped3, 1, g3.n)
    assert verify_assignment(wg3, labeling3).ok
    assert stats3.cuts_added >= 1
    # cap violations raise rather than mislabel, so reaching this point means
    # every acceptance solve stayed within its iteration cap
    _passed(
        "criterion 8 (lazy-cut sanity)",
        f"constructed violation cut + loop runs with {stats3.cuts_added} cuts",
    )


def _detached_cycle(d, avoid):
    """Edge indices of a cycle of d through no node in `avoid`, or None."""
    for start in range(len(d.windows)):
        if start in avoid:
            continue
        parent = {}
        queue = deque([start])
        while queue:
            node = queue.popleft()
            for ei in d.out_edges[node]:
                dst = d.edges[ei][1]
                if dst == start:
                    cycle = [ei]
                    while node != start:
                        cycle.append(parent[node])
                        node = d.edges[parent[node]][0]
                    return cycle
                if dst not in avoid and dst not in parent:
                    parent[dst] = ei
                    queue.append(dst)
    return None


def _violated(cut, values):
    return sum(coef * values[var] for var, coef in cut.terms) > cut.rhs


def test_cut_separators_on_walk_supports(uniform_route_records):
    # supports of walks the walk search finds are connected through the
    # all-empty window, so neither separator may cut them; a cycle added
    # away from the walk must be cut, and only that cycle
    supports = detached = 0
    for rec in uniform_route_records:
        if rec["labeling"] is None:
            continue
        span = rec["span"]
        for sizes, weights, closure, _ in solver._parts(rec["wg"], "uniform", rec["partition"])[2]:
            full = build_shift_digraph(sizes, weights, max(weights.values()))
            slices, _ = solver._shortest_walk(sizes, weights, closure, span)
            assert slices is not None
            # the closed walk of span + z + 1 steps that shifts in these
            # slices and then empty ones, as windows of the built digraph
            z, tau = full.window_length, full.type_count
            window_index = {w: i for i, w in enumerate(full.windows)}
            window = 0
            nodes = [window_index[window]]
            for mask in slices + [0] * (span + z + 1 - len(slices)):
                window = (window << tau | mask) & (1 << z * tau) - 1
                nodes.append(window_index[window])
            d, edge_map = solver._pruned_digraph(full, sizes, span)
            capacity = build_flow_model(d, sizes, span)[1]
            index = {pair: ei for ei, pair in enumerate(full.edges)}
            pruned_index = {full_ei: ei for ei, full_ei in enumerate(edge_map)}
            values = [0] * len(d.edges)
            for pair in zip(nodes, nodes[1:]):
                values[pruned_index[index[pair]]] += 1
            big_m = span + d.window_length + 1
            assert connectivity_violation(values, d, big_m, capacity) is None
            assert solver._all_violated_cuts(values, d, big_m, capacity) == []
            supports += 1

            touched = {d.empty_index}
            for ei, v in enumerate(values):
                if v:
                    touched.update(d.edges[ei])
            cycle = _detached_cycle(d, touched)
            if cycle is None:
                continue
            detached += 1
            for ei in cycle:
                values[ei] += 1
            nodes = {d.edges[ei][0] for ei in cycle}
            boundary = {
                ei for ei, (a, b) in enumerate(d.edges) if (a in nodes) != (b in nodes)
            }
            cut = connectivity_violation(values, d, big_m, capacity)
            assert cut is not None and _violated(cut, values)
            offender = [var for var, coef in cut.terms if coef == 1]
            assert len(offender) == 1 and offender[0] in cycle
            assert {var for var, _ in cut.terms} == boundary | set(offender)
            cuts = solver._all_violated_cuts(values, d, big_m, capacity)
            assert len(cuts) == 2 * len(cycle)
            assert all(_violated(c, values) for c in cuts)
            for into, out_of in zip(cuts[::2], cuts[1::2]):
                (first,) = [var for var, coef in into.terms if coef == 1]
                assert first in cycle
                assert [var for var, coef in out_of.terms if coef == 1] == [first]
                crossing = {var for var, _ in into.terms + out_of.terms} - {first}
                assert crossing == boundary
            assert len(
                solver._all_violated_cuts(values, d, big_m, capacity, per_edge=False)
            ) == 2
    assert detached > 0
    _passed(
        "cut separators on walk supports",
        f"{supports} connected supports, {detached} with a detached cycle",
    )


def test_criterion_9_ilp_against_box_enumeration():
    import itertools

    rng = random.Random(0x11F)
    checked = 0
    while checked < 1000:
        nvar = rng.randint(1, 10)
        ubs = tuple(rng.randint(0, 5) for _ in range(nvar))
        box = 1
        for ub in ubs:
            box *= ub + 1
        if box > 8000:
            continue
        constraints = []
        for _ in range(rng.randint(0, 8)):
            terms = [(j, rng.randint(-3, 3)) for j in range(nvar) if rng.random() < 0.5]
            constraints.append(
                Constraint.build(terms, rng.choice((EQ, LE)), rng.randint(-4, 10))
            )
        model = IlpModel(nvar, ubs, tuple(constraints))

        expected = None
        for point in itertools.product(*(range(ub + 1) for ub in ubs)):
            satisfied = True
            for c in model.constraints:
                total = sum(coef * point[var] for var, coef in c.terms)
                if (c.relation == EQ and total != c.rhs) or (
                    c.relation == LE and total > c.rhs
                ):
                    satisfied = False
                    break
            if satisfied:
                expected = point
                break

        got = solve_feasibility(model)
        assert (got is None) == (expected is None), (model,)
        if got is not None:
            total_ok = all(
                sum(coef * got[var] for var, coef in c.terms) == c.rhs
                if c.relation == EQ
                else sum(coef * got[var] for var, coef in c.terms) <= c.rhs
                for c in model.constraints
            )
            assert total_ok
        checked += 1
    _passed("criterion 9 (ilp feasibility vs box enumeration)", "1000 models")
