import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from ndchan import (
    DistanceConstraints,
    EdgeMultiset,
    Graph,
    Labeling,
    NdPartition,
    WeightedGraph,
    build_flow_model,
    build_shift_digraph,
    check_uniform,
    connectivity_violation,
    euler_walk,
    labeling_to_ca,
    minimize_span,
    nd_partition,
    preprocess_reflexive,
    solve_ca_uniform,
    solve_ca_vc,
    solve_flow,
    solve_labeling,
    verify_assignment,
    walk_to_labeling,
)
from ndchan.decomposition import CLIQUE, TypeGraph
from ndchan import solver
from ndchan.errors import GuardExceeded, InternalSolverError
from ndchan.ilp import EQ, solve_feasibility
from ndchan.oracle import brute_force_ca
from ndchan.shift_digraph import ShiftClosure
from ndchan.solver import SolveStats, Walk
from helpers import complete_graph, cycle_graph, path_graph, star_graph


def k3_instance(w=2):
    return WeightedGraph.from_edges(3, [(0, 1, w), (0, 2, w), (1, 2, w)])


def two_clique_classes():
    """A K3 clique class (weight 2) joined by weight 2 to a K4 clique class
    (weight 3): one part of two types, so the count-code search runs."""
    triples = [(u, v, 2) for u in range(3) for v in range(u + 1, 3)]
    triples += [(u, v, 3) for u in range(3, 7) for v in range(u + 1, 7)]
    triples += [(u, v, 2) for u in range(3) for v in range(3, 7)]
    wg = WeightedGraph.from_edges(7, triples)
    return wg, NdPartition((frozenset(range(3)), frozenset(range(3, 7))), (CLIQUE, CLIQUE))


def uniform_pipeline(wg):
    partition = nd_partition(wg.graph)
    ok, tg = check_uniform(wg, partition)
    assert ok
    reduction = preprocess_reflexive(tg, partition)
    digraph = build_shift_digraph(reduction.type_graph, reduction.type_graph.wmax)
    return partition, reduction, digraph


class TestPreprocessReflexive:
    def test_star_types_collapse(self):
        g = star_graph(3)
        p = nd_partition(g)
        ok, tg = check_uniform(WeightedGraph(g, {e: 1 for e in g.edges}), p)
        reduction = preprocess_reflexive(tg, p)
        assert reduction.type_graph.sizes == (1, 1)
        assert reduction.type_graph.loops == frozenset({0, 1})
        leaves = [i for i, kept in enumerate(reduction.kept) if reduction.dropped[i]]
        assert len(leaves) == 1
        assert reduction.dropped[leaves[0]] == (2, 3)

    def test_clique_class_unchanged(self):
        wg = k3_instance()
        p = nd_partition(wg.graph)
        ok, tg = check_uniform(wg, p)
        reduction = preprocess_reflexive(tg, p)
        assert reduction.type_graph.sizes == (3,)
        assert reduction.dropped == ((),)
        assert reduction.type_graph.weights[(0, 0)] == 2

    def test_c4_classes_reduced_to_singletons(self):
        g = cycle_graph(4)
        wg = WeightedGraph(g, {e: 1 for e in g.edges})
        p = nd_partition(g)
        ok, tg = check_uniform(wg, p)
        reduction = preprocess_reflexive(tg, p)
        assert reduction.type_graph.sizes == (1, 1)
        assert all(len(d) == 1 for d in reduction.dropped)


class TestBuildFlowModel:
    def test_single_type_counts(self):
        tg = TypeGraph((3,), frozenset({0}), frozenset(), {(0, 0): 2})
        d = build_shift_digraph(tg, 2)
        model, edges = build_flow_model(d, tg, 4)
        assert edges == d.edges
        assert model.var_count == len(d.edges)
        assert set(model.upper_bounds) == {7}
        occurrence = [
            c for c in model.constraints if c.relation == EQ and c.rhs == 3
        ]
        assert len(occurrence) == 1
        length = [
            c
            for c in model.constraints
            if c.relation == EQ and len(c.terms) == model.var_count
        ]
        assert length and length[-1].rhs == 7

    def test_pigeonhole_infeasible(self):
        # five labels demanded from a span of three
        tg = TypeGraph((5,), frozenset({0}), frozenset(), {(0, 0): 1})
        d = build_shift_digraph(tg, 1)
        assert solve_flow(d, tg, 3) is None

    def test_rejects_negative_span(self):
        tg = TypeGraph((1,), frozenset({0}), frozenset(), {(0, 0): 1})
        d = build_shift_digraph(tg, 1)
        with pytest.raises(ValueError):
            build_flow_model(d, tg, -1)


class TestConnectivityViolation:
    def setup_method(self):
        tg = TypeGraph((3,), frozenset({0}), frozenset(), {(0, 0): 2})
        self.d = build_shift_digraph(tg, 2)
        self.tg = tg

    def test_connected_support_passes(self):
        model, _ = build_flow_model(self.d, self.tg, 4)
        solution = solve_feasibility(model, descending=True)
        # not necessarily connected, so check a hand-built connected support:
        index = {w: i for i, w in enumerate(self.d.windows)}
        e = {pair: i for i, pair in enumerate(self.d.edges)}
        empty, up, down = index[(0, 0)], index[(0, 1)], index[(1, 0)]
        values = [0] * len(self.d.edges)
        values[e[(empty, up)]] = 1
        values[e[(up, down)]] = 1
        values[e[(down, empty)]] = 1
        assert connectivity_violation(values, self.d, 7) is None

    def test_detached_cycle_yields_violated_cut(self):
        index = {w: i for i, w in enumerate(self.d.windows)}
        e = {pair: i for i, pair in enumerate(self.d.edges)}
        up, down = index[(0, 1)], index[(1, 0)]
        values = [0] * len(self.d.edges)
        values[e[(up, down)]] = 1
        values[e[(down, up)]] = 1
        cut = connectivity_violation(values, self.d, 7)
        assert cut is not None
        lhs = sum(coef * values[var] for var, coef in cut.terms)
        assert lhs > cut.rhs  # current point violates the inequality

    def test_empty_support_passes(self):
        assert connectivity_violation([0] * len(self.d.edges), self.d, 7) is None


class TestSolveFlow:
    def test_k3_multiset_decodes_to_spread_labels(self):
        wg = k3_instance()
        partition, reduction, digraph = uniform_pipeline(wg)
        ms = solve_flow(digraph, reduction.type_graph, 4)
        assert ms is not None
        walk = euler_walk(ms, digraph)
        labeling = walk_to_labeling(walk, digraph, reduction, 4, 3)
        assert sorted(labeling.labels) == [0, 2, 4]

    def test_k3_span_three_infeasible(self):
        wg = k3_instance()
        partition, reduction, digraph = uniform_pipeline(wg)
        assert solve_flow(digraph, reduction.type_graph, 3) is None

    def test_infeasible_relaxation_is_refuted_without_search(self, monkeypatch):
        # the three copies of K3 need five positions at weight 2, which the
        # strengthened model's relaxation already rules out at span 3
        pytest.importorskip("scipy")

        def no_search(*args, **kwargs):
            raise AssertionError("a probe with an infeasible relaxation was searched")

        monkeypatch.setattr(solver, "solve_feasibility", no_search)
        _, reduction, digraph = uniform_pipeline(k3_instance())
        assert solve_flow(digraph, reduction.type_graph, 3) is None

    def test_bipartite_k22_at_wmax(self):
        wg = WeightedGraph.from_edges(
            4, [(0, 2, 3), (0, 3, 3), (1, 2, 3), (1, 3, 3)]
        )
        assert solve_ca_uniform(wg, nd_partition(wg.graph), 3) is not None


class TestEulerWalk:
    def setup_method(self):
        tg = TypeGraph((3,), frozenset({0}), frozenset(), {(0, 0): 2})
        self.d = build_shift_digraph(tg, 2)
        self.index = {w: i for i, w in enumerate(self.d.windows)}
        self.edge = {pair: i for i, pair in enumerate(self.d.edges)}

    def test_self_loop(self):
        loop = self.edge[(0, 0)]
        walk = euler_walk(EdgeMultiset({loop: 1}), self.d)
        assert walk.nodes == (0, 0)

    def test_three_cycle(self):
        empty, up, down = 0, self.index[(0, 1)], self.index[(1, 0)]
        ms = EdgeMultiset(
            {
                self.edge[(empty, up)]: 1,
                self.edge[(up, down)]: 1,
                self.edge[(down, empty)]: 1,
            }
        )
        walk = euler_walk(ms, self.d)
        assert walk.nodes == (empty, up, down, empty)

    def test_empty_multiset(self):
        assert euler_walk(EdgeMultiset({}), self.d).nodes == (0,)

    def test_unbalanced_rejected(self):
        up = self.index[(0, 1)]
        with pytest.raises(InternalSolverError, match="conservation"):
            euler_walk(EdgeMultiset({self.edge[(0, up)]: 1}), self.d)

    def test_support_missing_empty_window_rejected(self):
        up, down = self.index[(0, 1)], self.index[(1, 0)]
        ms = EdgeMultiset(
            {self.edge[(up, down)]: 1, self.edge[(down, up)]: 1}
        )
        with pytest.raises(InternalSolverError, match="empty"):
            euler_walk(ms, self.d)


class TestWalkToLabeling:
    def test_explicit_decode(self):
        wg = k3_instance()
        partition, reduction, digraph = uniform_pipeline(wg)
        index = {w: i for i, w in enumerate(digraph.windows)}
        empty, up, down = 0, index[(0, 1)], index[(1, 0)]
        # encodes slices {t},_,{t},_,{t} -> labels 0, 2, 4
        walk = Walk((empty, up, down, up, down, up, down, empty))
        labeling = walk_to_labeling(walk, digraph, reduction, 4, 3)
        assert labeling.labels == (0, 2, 4)

    def test_count_mismatch_rejected(self):
        wg = k3_instance()
        partition, reduction, digraph = uniform_pipeline(wg)
        with pytest.raises(InternalSolverError):
            walk_to_labeling(Walk((0,) * 8), digraph, reduction, 4, 3)

    def test_dropped_vertices_copy_keeper(self):
        g = cycle_graph(4)
        wg = WeightedGraph(g, {e: 1 for e in g.edges})
        labeling = solve_ca_uniform(wg, nd_partition(g), 1)
        assert labeling is not None
        assert verify_assignment(wg, labeling).ok
        assert labeling.labels[0] == labeling.labels[2]
        assert labeling.labels[1] == labeling.labels[3]


class TestSolveCaUniform:
    def test_k3_feasible_at_four(self):
        wg = k3_instance()
        labeling = solve_ca_uniform(wg, nd_partition(wg.graph), 4)
        assert labeling is not None
        assert verify_assignment(wg, labeling).ok

    def test_k3_infeasible_at_three(self):
        wg = k3_instance()
        assert solve_ca_uniform(wg, nd_partition(wg.graph), 3) is None

    def test_rejects_non_uniform_partition(self):
        wg = WeightedGraph.from_edges(3, [(0, 1, 1), (0, 2, 2), (1, 2, 3)])
        with pytest.raises(ValueError, match="uniform"):
            solve_ca_uniform(wg, nd_partition(wg.graph), 5)

    def test_rejects_negative_span(self):
        wg = k3_instance()
        with pytest.raises(ValueError):
            solve_ca_uniform(wg, nd_partition(wg.graph), -1)

    def test_disconnected_components_merge(self):
        # two separate heavy edges plus an isolated vertex
        wg = WeightedGraph.from_edges(5, [(0, 1, 3), (2, 3, 2)])
        labeling = solve_ca_uniform(wg, nd_partition(wg.graph), 3)
        assert labeling is not None
        assert verify_assignment(wg, labeling).ok

    def test_empty_graph(self):
        wg = WeightedGraph.from_edges(0, [])
        labeling = solve_ca_uniform(wg, NdPartition((), ()), 0)
        assert labeling is not None and labeling.labels == ()

    def test_single_vertex_span_zero(self):
        wg = WeightedGraph.from_edges(1, [])
        labeling = solve_ca_uniform(wg, nd_partition(wg.graph), 0)
        assert labeling.labels == (0,)

    def test_stats_populated(self):
        # K3's twin partition is one clique class, a one-type part answered
        # in closed form with no window expanded; two clique classes are
        # searched
        wg = k3_instance()
        stats = SolveStats()
        solve_ca_uniform(wg, nd_partition(wg.graph), 4, stats=stats)
        assert stats.nd == 1 and stats.types == 1
        assert stats.digraph_nodes == 0
        wg, partition = two_clique_classes()
        stats = SolveStats()
        solve_ca_uniform(wg, partition, 12, stats=stats)
        assert stats.nd == 2 and stats.types == 2
        assert stats.digraph_nodes > 0


class TestWalkSearch:
    def test_two_clique_classes_match_the_oracle(self):
        # at its least span 12 and on either side of it
        wg, partition = two_clique_classes()
        _, _, [(pipeline, _)] = solver._pipelines(wg, "uniform", partition)
        assert len(pipeline.shortest_walk()) - 1 == 12
        for span in (11, 12, 13):
            labeling = solve_ca_uniform(wg, partition, span)
            oracle = brute_force_ca(wg, span, guard=10**9)
            assert (labeling is None) == (oracle is None) == (span == 11), span
            if labeling is not None:
                assert verify_assignment(wg, labeling).ok
        assert pipeline.shortest_walk(11) is None

    def test_pads_above_the_least_span(self):
        # K20,20 under L(3,2): least span 79 (each side 2 * 19, and 3 between
        # them); a larger span takes the same walk padded with empty slices
        g = Graph.from_edges(40, [(u, v) for u in range(20) for v in range(20, 40)])
        dc = DistanceConstraints((3, 2))
        wg = labeling_to_ca(g, dc)
        assert solve_labeling(g, dc, 78) is None
        for span in (79, 200):
            labeling = solve_labeling(g, dc, span)
            assert labeling is not None and labeling.span == span
            assert verify_assignment(wg, labeling).ok
            assert max(labeling.labels) <= 79

    @given(st.integers(1, 10), st.integers(1, 5))
    @settings(max_examples=50, deadline=None)
    def test_one_type_part_in_closed_form(self, size, loop):
        # a one-type part is a clique class of `size` vertices, every pair
        # at `loop` (size 1 for a loopless class): its least span is
        # (size - 1) * loop, feasible there and refuted one below, with no
        # window expanded; both searches, run directly on the part, return
        # the closed form's slices, and so does the clique instance through
        # the entry points, which the oracle confirms where it runs
        least = (size - 1) * loop
        part = solver._ComponentPipeline([size], {(0, 0): loop})
        slices = part.shortest_walk()
        assert len(slices) - 1 == least
        assert part.shortest_walk(least) == slices
        assert least == 0 or part.shortest_walk(least - 1) is None
        assert part.expanded == 0 and part.closure is None
        searches = ["_count_search"] + (["_placed_search"] if size == 1 else [])
        for name in searches:
            # a one-type part makes no closure; give the search its own
            searched = solver._ComponentPipeline([size], {(0, 0): loop})
            searched.closure = ShiftClosure([size], {(0, 0): loop}, loop)
            search = getattr(searched, name)
            assert search(None) == search(least) == slices
            assert least == 0 or search(least - 1) is None
        pairs = itertools.combinations(range(size), 2)
        wg = WeightedGraph.from_edges(size, [(u, v, loop) for u, v in pairs])
        partition = nd_partition(wg.graph)
        span, labeling = minimize_span(wg, "uniform", partition)
        assert span == least and verify_assignment(wg, labeling).ok
        assert verify_assignment(wg, solve_ca_uniform(wg, partition, least)).ok
        assert least == 0 or solve_ca_uniform(wg, partition, least - 1) is None
        try:
            assert brute_force_ca(wg, least, guard=10**6) is not None
            assert least == 0 or brute_force_ca(wg, least - 1, guard=10**6) is None
        except GuardExceeded:
            pass

    def test_count_table_matches_the_definition(self, monkeypatch):
        # on random parts small enough to be tabulated, every count code's
        # table entry and _info (which larger parts read per code) give the
        # types at their class size and the label positions the remaining
        # copies need, left copies of type t at least w(t, t) apart; the
        # search returns the same walks reading the codes through _info
        rng = random.Random(21)
        for _ in range(40):
            tau = rng.randint(2, 4)
            sizes = [rng.randint(1, 4) for _ in range(tau)]
            weights = {(t, t): rng.randint(1, 4) for t in range(tau)}
            weights.update(((t, t + 1), rng.randint(1, 4)) for t in range(tau - 1))
            part = solver._ComponentPipeline(sizes, weights)
            part._count_search(0)
            table = dict(part._count_info)
            assert len(table) == math.prod(size + 1 for size in sizes)
            for code, info in table.items():
                left, rest = [], code
                for size in sizes:
                    rest, count = divmod(rest, size + 1)
                    left.append(size - count)
                full = sum(1 << t for t in range(tau) if not left[t])
                need = max(((n - 1) * weights[(t, t)] + 1 for t, n in enumerate(left) if n), default=0)
                assert info == part._info(code) == need << tau | full
            slices = part._count_search(None)
            least = len(slices) - 1
            with monkeypatch.context() as patched:
                patched.setattr(solver, "COUNT_TABLE_CODES", 0)
                untabled = solver._ComponentPipeline(sizes, weights)
                assert untabled._count_search(None) == slices
                assert untabled._count_search(least) == slices
                assert untabled._count_search(least - 1) is None

    def test_placed_search_matches_the_count_search(self):
        # on random parts of size-1 classes (2 to 8 types, weights up to 4;
        # test_one_type_part_in_closed_form runs both on one type), the
        # placed-type search returns the count-code search's slices for
        # the least span and for the decisions just below and at it; the
        # slices label the part's one-vertex-per-type graph, and the oracle
        # agrees with the verdicts where its label space is small enough
        rng = random.Random(15)
        oracle_runs = 0
        for _ in range(100):
            tau = rng.randint(2, 8)
            density = rng.random()
            weights = {(t, t): rng.randint(1, 4) for t in range(tau)}
            weights.update(
                ((t, r), rng.randint(1, 4))
                for t in range(tau)
                for r in range(t + 1, tau)
                if rng.random() < density
            )
            adjacency = frozenset(pair for pair in weights if pair[0] != pair[1])
            tg = TypeGraph((1,) * tau, frozenset(range(tau)), adjacency, weights)
            placed = solver._ComponentPipeline(tg.sizes, tg.weights)
            counted = solver._ComponentPipeline(tg.sizes, tg.weights)
            slices = placed._placed_search(None)
            assert slices == counted._count_search(None), tg
            least = len(slices) - 1
            assert placed._placed_search(least) == counted._count_search(least) == slices
            if least > 0:
                assert placed._placed_search(least - 1) is None, tg
                assert counted._count_search(least - 1) is None, tg
            wg = WeightedGraph.from_edges(tau, [(t, r, weights[(t, r)]) for t, r in adjacency])
            labels = [next(i for i, mask in enumerate(slices) if mask >> t & 1) for t in range(tau)]
            assert verify_assignment(wg, Labeling(tuple(labels), least)).ok
            try:
                below = least > 0 and brute_force_ca(wg, least - 1, guard=10**6)
                at = brute_force_ca(wg, least, guard=10**6)
            except GuardExceeded:
                continue
            assert not below and at is not None, tg
            oracle_runs += 1
        assert oracle_runs > 80

    def test_no_entry_point_reaches_the_ilp(self, monkeypatch, tmp_path, capsys):
        # the walk search answers every probe, with or without scipy
        def no_ilp(*args, **kwargs):
            raise AssertionError("a solving entry point reached the flow ILP")

        monkeypatch.setattr(solver, "solve_flow", no_ilp)
        monkeypatch.setattr(solver, "euler_walk", no_ilp)
        wg = WeightedGraph.from_edges(
            6, [(0, 1, 3), (0, 2, 1), (1, 2, 2), (3, 4, 2), (3, 5, 2), (4, 5, 2)]
        )
        g = cycle_graph(5)
        dc = DistanceConstraints((2, 1))
        assert solve_ca_vc(wg, 3) is None
        assert verify_assignment(wg, solve_ca_vc(wg, 4)).ok
        k3 = k3_instance()
        assert solve_ca_uniform(k3, nd_partition(k3.graph), 3) is None
        assert verify_assignment(k3, solve_ca_uniform(k3, nd_partition(k3.graph), 4)).ok
        assert minimize_span(wg, "vc")[0] == 4
        assert minimize_span(k3, "uniform", nd_partition(k3.graph))[0] == 4
        assert solve_labeling(g, dc, 3) is None
        assert solve_labeling(g, dc, 4) is not None

        from ndchan.cli import main

        path = tmp_path / "instance.json"
        path.write_text('{"n":3,"edges":[[0,1,1],[0,2,2],[1,2,3]]}')
        for route in ("auto", "vc"):
            assert main(["solve", "--instance", str(path), "--minimize", "--route", route]) == 0
        assert main(["label", "--instance", str(path), "--p", "2,1", "--minimize"]) == 0
        capsys.readouterr()


def paired_path(n):
    """P_n with every vertex replaced by two adjacent twins: its twin
    partition is n clique classes of size 2 in one part."""
    edges = [(2 * i, 2 * i + 1) for i in range(n)]
    edges += [(2 * i + a, 2 * i + 2 + b) for i in range(n - 1) for a in (0, 1) for b in (0, 1)]
    g = Graph.from_edges(2 * n, edges)
    return WeightedGraph(g, {e: 1 for e in g.edges})


class TestGuards:
    def test_more_than_sixteen_types(self, monkeypatch):
        # the twin partition of P17 is 17 singleton classes in one part, one
        # type more than the window enumeration tabulates slice masks for;
        # with every vertex doubled the classes have size 2, so the count
        # search runs, and the guard fires before it looks at a count code
        def no_count_work(self, code):
            raise AssertionError("the count search ran before the type-count guard")

        monkeypatch.setattr(solver._ComponentPipeline, "_info", no_count_work)
        g = path_graph(17)
        for wg in (WeightedGraph(g, {e: 1 for e in g.edges}), paired_path(17)):
            partition = nd_partition(wg.graph)
            assert len(partition.classes) == 17
            for solve in (
                lambda: solve_ca_uniform(wg, partition, 4),
                lambda: minimize_span(wg, "uniform", partition),
            ):
                with pytest.raises(GuardExceeded, match="17 types"):
                    solve()

    def test_count_work_follows_the_states_reached(self):
        # K3,...,3 with 16 parts under L(3, 2) is one part of 16 clique
        # classes of size 3, whose count codes number 4**16; refuting span
        # 5, far below its least span 109, looks at one count code per state
        # it reaches, a few dozen, and so does not scale with that product
        parts = 16
        g = Graph.from_edges(
            3 * parts,
            [(u, v) for u in range(3 * parts) for v in range(u + 1, 3 * parts) if u // 3 != v // 3],
        )
        wg = labeling_to_ca(g, DistanceConstraints((3, 2)))
        _, _, pipelines = solver._pipelines(wg, "uniform", nd_partition(g))
        ((pipeline, _),) = pipelines
        assert pipeline.sizes == [3] * parts
        assert pipeline.shortest_walk(5) is None
        assert 0 < len(pipeline._count_info) <= 100
        assert solve_labeling(g, DistanceConstraints((3, 2)), 5) is None

    def test_window_count_guard(self):
        # the guard counts the windows the walk searches expand: two clique
        # classes run the count-code search, K3's cover partition (three
        # classes of size 1) the placed-type search; K3's twin partition is
        # one class of size 3, answered in closed form with no window
        wg = k3_instance()
        partition = nd_partition(wg.graph)
        assert solve_ca_uniform(wg, partition, 4, max_digraph_nodes=0) is not None
        assert minimize_span(wg, "uniform", partition, max_digraph_nodes=0)[0] == 4
        cliques, clique_partition = two_clique_classes()
        for solve in (
            lambda **kw: solve_ca_uniform(cliques, clique_partition, 12, **kw),
            lambda **kw: minimize_span(cliques, "uniform", clique_partition, **kw),
            lambda **kw: solve_ca_vc(wg, 4, **kw),
            lambda **kw: minimize_span(wg, "vc", **kw),
        ):
            stats = SolveStats()
            solve(stats=stats)
            windows = stats.digraph_nodes
            assert solve(max_digraph_nodes=windows) is not None
            with pytest.raises(GuardExceeded):
                solve(max_digraph_nodes=windows - 1)

    def test_search_expands_fewer_windows_than_the_digraph_has(self, monkeypatch):
        # a minimize-vc bench witness (criterion 4's draw 176): every class
        # of the cover partition has size 1, so the placed-type search runs;
        # it expands a window only when it first leaves it, and never builds
        # the whole digraph
        wg = WeightedGraph.from_edges(
            7, [(0, 5, 2), (1, 4, 1), (1, 5, 2), (1, 6, 2), (2, 4, 1), (2, 6, 2), (3, 6, 1)]
        )
        expanded = []
        original = solver._ComponentPipeline._allow

        def counted(self, window):
            expanded.append(window)
            return original(self, window)

        def no_build(*args, **kwargs):
            raise AssertionError("a solve built the whole shift digraph")

        def no_counts(*args, **kwargs):
            raise AssertionError("a part of size-1 classes ran the count-code search")

        monkeypatch.setattr(solver._ComponentPipeline, "_allow", counted)
        monkeypatch.setattr(solver._ComponentPipeline, "_count_search", no_counts)
        monkeypatch.setattr(solver, "build_shift_digraph", no_build)
        stats = SolveStats()
        span, labeling = minimize_span(wg, "vc", stats=stats)
        assert verify_assignment(wg, labeling).ok
        assert len(set(expanded)) == len(expanded) == stats.digraph_nodes
        monkeypatch.undo()
        _, _, pipelines = solver._pipelines(wg, "vc", None)
        assert 0 < len(expanded) < sum(len(p.digraph.windows) for p, _ in pipelines)


class TestSolveCaVc:
    def test_weighted_star(self):
        wg = WeightedGraph.from_edges(4, [(0, 1, 1), (0, 2, 1), (0, 3, 2)])
        labeling = solve_ca_vc(wg, 2)
        assert labeling is not None
        assert verify_assignment(wg, labeling).ok
        assert solve_ca_vc(wg, 1) is None

    def test_path4_l21_instance(self):
        wg = labeling_to_ca(path_graph(4), DistanceConstraints((2, 1)))
        labeling = solve_ca_vc(wg, 3)
        assert labeling is not None
        assert verify_assignment(wg, labeling).ok

    def test_heavy_edge_infeasible(self):
        wg = WeightedGraph.from_edges(2, [(0, 1, 5)])
        assert solve_ca_vc(wg, 4) is None

    def test_stats_report_refined_types(self):
        wg = WeightedGraph.from_edges(4, [(0, 1, 1), (0, 2, 1), (0, 3, 2)])
        stats = SolveStats()
        solve_ca_vc(wg, 2, stats=stats)
        assert stats.nd == 2  # cover vertex + one group of leaves
        assert stats.types == 3  # leaves split by weight


class TestMinimizeSpan:
    def test_heavy_edge(self):
        wg = WeightedGraph.from_edges(2, [(0, 1, 5)])
        span, labeling = minimize_span(wg, "vc")
        assert span == 5
        assert verify_assignment(wg, labeling).ok

    def test_k3(self):
        wg = k3_instance()
        span, labeling = minimize_span(wg, "uniform", nd_partition(wg.graph))
        assert span == 4

    def test_c4_l21_span_four(self):
        wg = labeling_to_ca(cycle_graph(4), DistanceConstraints((2, 1)))
        span, labeling = minimize_span(wg, "uniform", nd_partition(cycle_graph(4)))
        assert span == 4
        assert verify_assignment(wg, labeling).ok

    def test_uniform_route_needs_partition(self):
        with pytest.raises(ValueError):
            minimize_span(k3_instance(), "uniform")

    def test_vc_route_takes_no_partition(self):
        wg = k3_instance()
        with pytest.raises(ValueError, match="no partition"):
            minimize_span(wg, "vc", nd_partition(wg.graph))

    def test_unknown_route(self):
        with pytest.raises(ValueError):
            minimize_span(k3_instance(), "dijkstra")

    def test_edgeless(self):
        wg = WeightedGraph.from_edges(3, [])
        span, labeling = minimize_span(wg, "vc")
        assert span == 0
        assert labeling.labels == (0, 0, 0)


class TestSolveLabeling:
    def test_star_l21_span_four(self):
        # the reduced star has a weight-1 clique class whose doubled window
        # must be visited twice; regression for the visit-capacity bound
        g = star_graph(3)
        dc = DistanceConstraints((2, 1))
        wg = labeling_to_ca(g, dc)
        labeling = solve_labeling(g, dc, 4)
        assert labeling is not None
        assert verify_assignment(wg, labeling).ok
        span, _ = minimize_span(wg, "uniform", nd_partition(g))
        assert span == 4

    def test_p4_l21(self):
        g = path_graph(4)
        dc = DistanceConstraints((2, 1))
        labeling = solve_labeling(g, dc, 3)
        assert labeling is not None
        wg = labeling_to_ca(g, dc)
        assert verify_assignment(wg, labeling).ok
        assert solve_labeling(g, dc, 2) is None

    def test_p5_l21_minimum_span(self):
        g = path_graph(5)
        wg = labeling_to_ca(g, DistanceConstraints((2, 1)))
        span, _ = minimize_span(wg, "uniform", nd_partition(g))
        assert span == 4

    def test_coloring_reduction(self):
        labeling = solve_labeling(complete_graph(3), DistanceConstraints((1,)), 2)
        assert labeling is not None
        assert sorted(labeling.labels) == [0, 1, 2]

    def test_labels_valid_for_distance_constraints(self):
        from helpers import lp_labeling_valid

        g = cycle_graph(5)
        labeling = solve_labeling(g, DistanceConstraints((2, 1)), 5)
        assert labeling is not None
        assert lp_labeling_valid(g, (2, 1), labeling.labels, 5)


class TestSolverAgainstOracleSmoke:
    def test_random_small_instances(self):
        rng = random.Random(424242)
        for _ in range(25):
            n = rng.randint(1, 6)
            triples = [
                (u, v, rng.randint(1, 3))
                for u in range(n)
                for v in range(u + 1, n)
                if rng.random() < 0.5
            ]
            wg = WeightedGraph.from_edges(n, triples)
            span = rng.randint(0, 8)
            got = solve_ca_vc(wg, span)
            expected = brute_force_ca(wg, span)
            assert (got is None) == (expected is None)
            if got is not None:
                assert verify_assignment(wg, got).ok


class TestFrontEnd:
    # two heavy edges, a weight-1 triangle and two isolated vertices
    MULTI = [(0, 1, 3), (2, 3, 2), (4, 5, 1), (4, 6, 1), (5, 6, 1)]

    def test_one_uniformity_check_per_call(self, monkeypatch):
        # the uniformity check is one condensation of the instance, and one
        # reflexive reduction follows it, however many parts the type graph
        # has; preprocess_reflexive, the public wrapper, stays off the path
        calls = []
        for name in ("_condense", "_reflexive", "preprocess_reflexive"):
            original = getattr(solver, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(solver, name, counted)
        wg = WeightedGraph.from_edges(9, self.MULTI)
        partition = nd_partition(wg.graph)
        for solve in (
            lambda: solve_ca_uniform(wg, partition, 3),
            lambda: solve_ca_vc(wg, 3),
            lambda: minimize_span(wg, "uniform", partition),
            lambda: minimize_span(wg, "vc"),
        ):
            calls.clear()
            solve()
            assert calls == ["_condense", "_reflexive"]

    def test_isolated_class_is_one_part(self):
        wg = WeightedGraph.from_edges(7, [(0, 1, 2)])
        partition = nd_partition(wg.graph)
        _, _, pipelines = solver._pipelines(wg, "uniform", partition)
        assert partition.classes == (frozenset({0, 1}), frozenset({2, 3, 4, 5, 6}))
        assert [type_ids for _, type_ids in pipelines] == [[0], [1]]
        stats = SolveStats()
        labeling = solve_ca_uniform(wg, partition, 2, stats=stats)
        assert verify_assignment(wg, labeling).ok
        for pipeline, _ in pipelines:
            assert pipeline.shortest_walk(2) is not None
        # each part is one type, answered in closed form: no window expanded
        assert [p.expanded for p, _ in pipelines] == [0, 0]
        assert stats.digraph_nodes == 0

    def test_type_graphs_built_per_solve(self, monkeypatch):
        # none: the condensation, the reflexive reduction and the split into
        # parts hand the searches plain sizes and weights on both routes,
        # for one part or several
        built = []
        original = TypeGraph.__post_init__

        def counted(self):
            built.append(self)
            original(self)

        monkeypatch.setattr(TypeGraph, "__post_init__", counted)
        # a star of one part, and test_isolated_class_is_one_part's two parts
        for wg in (
            WeightedGraph.from_edges(3, [(0, 1, 2), (0, 2, 2)]),
            WeightedGraph.from_edges(7, [(0, 1, 2)]),
        ):
            partition = nd_partition(wg.graph)
            assert solve_ca_uniform(wg, partition, 3) is not None
            assert solve_ca_vc(wg, 3) is not None
            assert minimize_span(wg, "uniform", partition)[1] is not None
            assert minimize_span(wg, "vc")[1] is not None
        assert built == []
        # the public wrappers still build them: the check's and the
        # reflexive reduction's
        _, tg = check_uniform(wg, partition)
        preprocess_reflexive(tg, partition)
        assert len(built) == 2

    def test_vc_routes_report_the_same_decomposition(self):
        wg = WeightedGraph.from_edges(9, self.MULTI + [(0, 7, 1), (0, 8, 2)])
        decided, minimized = SolveStats(), SolveStats()
        solve_ca_vc(wg, 4, stats=decided)
        minimize_span(wg, "vc", stats=minimized)
        assert (decided.nd, decided.types) == (minimized.nd, minimized.types)
        assert decided.types > decided.nd

    def test_labeling_that_fails_verification_is_an_internal_error(
        self, monkeypatch, tmp_path, capsys
    ):
        # a decode that gives vertex 1 the label of its neighbour 0: no entry
        # point may return its labeling, and the CLI exits 70 printing nothing
        original = solver._decode

        def broken(*args, **kwargs):
            labeling = original(*args, **kwargs)
            labels = list(labeling.labels)
            labels[1] = labels[0]
            return Labeling(tuple(labels), labeling.span)

        monkeypatch.setattr(solver, "_decode", broken)
        g = path_graph(3)
        wg = WeightedGraph(g, {e: 1 for e in g.edges})
        partition = nd_partition(g)
        dc = DistanceConstraints((2, 1))
        for solve in (
            lambda: solve_ca_uniform(wg, partition, 2),
            lambda: solve_ca_vc(wg, 2),
            lambda: minimize_span(wg, "uniform", partition),
            lambda: minimize_span(wg, "vc"),
            lambda: solve_labeling(g, dc, 4),
        ):
            with pytest.raises(InternalSolverError, match="failed verification"):
                solve()

        from ndchan.cli import main

        path = tmp_path / "instance.json"
        path.write_text('{"n":3,"edges":[[0,1],[1,2]]}')
        for argv in (
            ["solve", "--lambda", "2"],
            ["solve", "--minimize"],
            ["label", "--p", "2,1", "--lambda", "4"],
            ["label", "--p", "2,1", "--minimize"],
        ):
            assert main(argv + ["--instance", str(path)]) == 70, argv
            captured = capsys.readouterr()
            assert captured.out == "" and "failed verification" in captured.err
