import hashlib
import itertools
import json
import math
import random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from ndchan import (
    DistanceConstraints,
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
    refine_uniform,
    solve_ca_uniform,
    solve_ca_vc,
    solve_flow,
    solve_labeling,
    verify_assignment,
    walk_to_labeling,
)
from ndchan.decomposition import CLIQUE, INDEPENDENT
from ndchan import shift_digraph, solver
from ndchan.errors import GuardExceeded, InternalSolverError
from ndchan.ilp import EQ, refute_by_certificate, solve_feasibility
from ndchan.oracle import brute_force_ca
from ndchan.shift_digraph import ShiftClosure
from ndchan.solver import SolveStats
from helpers import (
    complete_graph,
    cycle_graph,
    path_graph,
    star_graph,
    uniform_instance,
)


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
    """The twin partition's reflexive reduction, (kept, dropped), its one
    part as (sizes, type ids), and that part's whole shift digraph."""
    _, reduction, [(sizes, weights, _, ids)] = solver._parts(wg, "uniform", nd_partition(wg.graph))
    return reduction, (sizes, ids), build_shift_digraph(sizes, weights, max(weights.values()))


class TestPreprocessReflexive:
    def test_star_types_collapse(self):
        g = star_graph(3)
        p = nd_partition(g)
        sizes, weights, uniform = check_uniform(WeightedGraph(g, {e: 1 for e in g.edges}), p)
        assert uniform and weights == {(0, 1): 1}
        kept, dropped, [(part_sizes, part_weights, ids)] = preprocess_reflexive(sizes, weights, p.classes)
        assert part_sizes == [1, 1] and ids == [0, 1]
        assert part_weights == {(0, 0): 1, (1, 1): 1, (0, 1): 1}
        assert weights == {(0, 1): 1}  # the condensed weights are left as they were
        leaves = [i for i in range(2) if dropped[i]]
        assert len(leaves) == 1
        assert dropped[leaves[0]] == (2, 3)

    def test_clique_class_unchanged(self):
        wg = k3_instance()
        p = nd_partition(wg.graph)
        sizes, weights, _ = check_uniform(wg, p)
        kept, dropped, parts = preprocess_reflexive(sizes, weights, p.classes)
        assert parts == [([3], {(0, 0): 2}, [0])]
        assert (kept, dropped) == (((0, 1, 2),), ((),))

    def test_c4_classes_reduced_to_singletons(self):
        g = cycle_graph(4)
        wg = WeightedGraph(g, {e: 1 for e in g.edges})
        p = nd_partition(g)
        sizes, weights, _ = check_uniform(wg, p)
        _, dropped, [(part_sizes, _, _)] = preprocess_reflexive(sizes, weights, p.classes)
        assert part_sizes == [1, 1]
        assert all(len(d) == 1 for d in dropped)

    def test_rejects_a_partition_of_another_class_count(self):
        wg = k3_instance()
        sizes, weights, _ = check_uniform(wg, nd_partition(wg.graph))
        with pytest.raises(ValueError, match="disagree on class count"):
            preprocess_reflexive(sizes, weights, (frozenset({0}), frozenset({1, 2})))


class TestBuildFlowModel:
    def test_single_type_counts(self):
        d = build_shift_digraph([3], {(0, 0): 2}, 2)
        model, capacity = build_flow_model(d, [3], 4)
        assert model.var_count == len(d.edges)
        # the all-empty window is unlimited; one holding the type once may
        # be visited 3 - 1 + 1 times (windows as codes, slice 0 in the high bit)
        assert dict(zip(d.windows, capacity)) == {0b00: -1, 0b01: 3, 0b10: 3}
        assert set(model.upper_bounds) == {7}
        # one occurrence count per coordinate role
        occurrence = [
            c for c in model.constraints if c.relation == EQ and c.rhs == 3
        ]
        assert len(occurrence) == d.window_length == 2
        length = [
            c
            for c in model.constraints
            if c.relation == EQ and len(c.terms) == model.var_count
        ]
        assert length and length[-1].rhs == 7

    def test_pigeonhole_infeasible(self):
        # five labels demanded from a span of three
        d = build_shift_digraph([5], {(0, 0): 1}, 1)
        assert solve_flow(d, [5], 3) is None

    def test_rejects_negative_span(self):
        d = build_shift_digraph([1], {(0, 0): 1}, 1)
        with pytest.raises(ValueError):
            build_flow_model(d, [1], -1)

    def test_rejects_sizes_of_another_type_count(self):
        d = build_shift_digraph([1], {(0, 0): 1}, 1)
        with pytest.raises(ValueError, match="2 class sizes for a digraph of 1 types"):
            build_flow_model(d, [1, 1], 2)

    def test_models_pinned(self):
        # every part's model and window capacities at spans least - 1 to
        # least + 1, on K3 (weight 2), P4 under L(2,1), C6 under L(3,2),
        # K2,2 under L(2,1) and minimize-vc's witness 45, in one digest.
        # The rows name edges, never windows, so a slip in how the model
        # reads a window's slices changes it
        k22 = Graph.from_edges(4, [(0, 2), (0, 3), (1, 2), (1, 3)])
        labeled = [
            (labeling_to_ca(g, DistanceConstraints(p)), nd_partition(g))
            for g, p in ((path_graph(4), (2, 1)), (cycle_graph(6), (3, 2)), (k22, (2, 1)))
        ]
        witness = WeightedGraph.from_edges(5, [(0, 4, 3), (1, 3, 2), (1, 4, 3), (2, 4, 2)])
        cases = [("uniform", k3_instance(), nd_partition(k3_instance().graph))]
        cases += [("uniform", wg, partition) for wg, partition in labeled]
        cases.append(("vc", witness, None))
        models = []
        for route, wg, partition in cases:
            least, _ = minimize_span(wg, route, partition)
            for sizes, weights, _, _ in solver._parts(wg, route, partition)[2]:
                d = build_shift_digraph(sizes, weights, max(weights.values()))
                for span in range(max(least - 1, 0), least + 2):
                    model, capacity = build_flow_model(d, sizes, span)
                    models.append((model.var_count, model.upper_bounds, model.constraints, capacity))
        digest = hashlib.sha256(repr(models).encode()).hexdigest()
        assert digest == "cd35d190228f62ba6082027828dea3ef55f37bf659b268b0d879258018249b15"


class TestFlowBound:
    @given(st.integers(0, 10**6))
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_certificate_never_refutes_a_feasible_span(self, seed):
        # the model's constraints hold for every walk, so its relaxation
        # must stay feasible at the walk search's least span and above
        pytest.importorskip("scipy")
        wg, partition = uniform_instance(
            random.Random(seed), max_types=3, max_size=4, max_weight=3
        )
        for sizes, weights, closure, _ in solver._parts(wg, "uniform", partition)[2]:
            least = len(solver._shortest_walk(sizes, weights, closure, None)[0]) - 1
            d = build_shift_digraph(sizes, weights, max(weights.values()))
            for span in (least, least + 1):
                assert not refute_by_certificate(build_flow_model(d, sizes, span)[0])


class TestConnectivityViolation:
    def setup_method(self):
        # windows as codes of one type: slice 0 in the high bit
        self.sizes = [3]
        self.d = build_shift_digraph(self.sizes, {(0, 0): 2}, 2)

    def test_connected_support_passes(self):
        model, _ = build_flow_model(self.d, self.sizes, 4)
        assert solve_feasibility(model) is not None
        # the solution is not necessarily connected, so check a hand-built connected support:
        index = {w: i for i, w in enumerate(self.d.windows)}
        e = {pair: i for i, pair in enumerate(self.d.edges)}
        empty, up, down = index[0b00], index[0b01], index[0b10]
        values = [0] * len(self.d.edges)
        values[e[(empty, up)]] = 1
        values[e[(up, down)]] = 1
        values[e[(down, empty)]] = 1
        assert connectivity_violation(values, self.d, 7) is None

    def test_detached_cycle_yields_violated_cut(self):
        index = {w: i for i, w in enumerate(self.d.windows)}
        e = {pair: i for i, pair in enumerate(self.d.edges)}
        up, down = index[0b01], index[0b10]
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
        (kept, dropped), (sizes, ids), digraph = uniform_pipeline(wg)
        ms = solve_flow(digraph, sizes, 4)
        assert ms is not None
        walk = euler_walk(ms, digraph)
        labeling = walk_to_labeling([(walk, digraph, sizes, ids)], kept, dropped, 4, 3)
        assert sorted(labeling.labels) == [0, 2, 4]

    def test_k3_span_three_infeasible(self):
        wg = k3_instance()
        _, (sizes, _), digraph = uniform_pipeline(wg)
        assert solve_flow(digraph, sizes, 3) is None

    def test_infeasible_relaxation_is_refuted_without_search(self, monkeypatch):
        # the three copies of K3 need five positions at weight 2, which the
        # strengthened model's relaxation already rules out at span 3
        pytest.importorskip("scipy")

        def no_search(*args, **kwargs):
            raise AssertionError("a probe with an infeasible relaxation was searched")

        monkeypatch.setattr(solver, "solve_feasibility", no_search)
        _, (sizes, _), digraph = uniform_pipeline(k3_instance())
        assert solve_flow(digraph, sizes, 3) is None

    def test_bipartite_k22_at_wmax(self):
        wg = WeightedGraph.from_edges(
            4, [(0, 2, 3), (0, 3, 3), (1, 2, 3), (1, 3, 3)]
        )
        assert solve_ca_uniform(wg, nd_partition(wg.graph), 3) is not None


class TestEulerWalk:
    def setup_method(self):
        # windows as codes of one type: slice 0 in the high bit
        self.d = build_shift_digraph([3], {(0, 0): 2}, 2)
        self.index = {w: i for i, w in enumerate(self.d.windows)}
        self.edge = {pair: i for i, pair in enumerate(self.d.edges)}

    def test_self_loop(self):
        loop = self.edge[(0, 0)]
        assert euler_walk({loop: 1}, self.d) == (0, 0)

    def test_three_cycle(self):
        empty, up, down = 0, self.index[0b01], self.index[0b10]
        counts = {
            self.edge[(empty, up)]: 1,
            self.edge[(up, down)]: 1,
            self.edge[(down, empty)]: 1,
        }
        assert euler_walk(counts, self.d) == (empty, up, down, empty)

    def test_empty_multiset(self):
        assert euler_walk({}, self.d) == (0,)

    @pytest.mark.parametrize("mult", [0, -1])
    def test_multiplicity_below_one_rejected(self, mult):
        empty, up, down = 0, self.index[0b01], self.index[0b10]
        counts = {
            self.edge[(empty, up)]: 1,
            self.edge[(up, down)]: 1,
            self.edge[(down, empty)]: 1,
            self.edge[(0, 0)]: mult,
        }
        with pytest.raises(ValueError, match="positive"):
            euler_walk(counts, self.d)

    def test_unbalanced_rejected(self):
        up = self.index[0b01]
        with pytest.raises(InternalSolverError, match="conservation"):
            euler_walk({self.edge[(0, up)]: 1}, self.d)

    def test_support_missing_empty_window_rejected(self):
        up, down = self.index[0b01], self.index[0b10]
        counts = {self.edge[(up, down)]: 1, self.edge[(down, up)]: 1}
        with pytest.raises(InternalSolverError, match="empty"):
            euler_walk(counts, self.d)


class TestWalkToLabeling:
    def test_explicit_decode(self):
        wg = k3_instance()
        (kept, dropped), (sizes, ids), digraph = uniform_pipeline(wg)
        index = {w: i for i, w in enumerate(digraph.windows)}
        empty, up, down = 0, index[0b01], index[0b10]
        # encodes slices {t},_,{t},_,{t} -> labels 0, 2, 4
        walk = (empty, up, down, up, down, up, down, empty)
        labeling = walk_to_labeling([(walk, digraph, sizes, ids)], kept, dropped, 4, 3)
        assert labeling.labels == (0, 2, 4)

    def test_count_mismatch_rejected(self):
        wg = k3_instance()
        (kept, dropped), (sizes, ids), digraph = uniform_pipeline(wg)
        with pytest.raises(InternalSolverError, match="occurrence counts"):
            walk_to_labeling([((0,) * 8, digraph, sizes, ids)], kept, dropped, 4, 3)

    def test_parts_decode_as_the_solve_path_does(self):
        # TestFrontEnd.MULTI at span 3: three parts, each its own flow ILP
        # walk over its whole digraph, decoded at once through the parts'
        # type ids; the isolated vertices 7 and 8 are in no part
        wg = WeightedGraph.from_edges(9, TestFrontEnd.MULTI)
        _, (kept, dropped), parts = solver._parts(wg, "uniform", nd_partition(wg.graph))
        walks = []
        for sizes, weights, _, ids in parts:
            digraph = build_shift_digraph(sizes, weights, max(weights.values()))
            walk = euler_walk(solve_flow(digraph, sizes, 3), digraph)
            walks.append((walk, digraph, sizes, ids))
        assert len(walks) == 3
        labeling = walk_to_labeling(walks, kept, dropped, 3, 9)
        assert verify_assignment(wg, labeling).ok and labeling.labels[7:] == (0, 0)

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

    @pytest.mark.parametrize("span", [None, 2.5, 4.0, "4"])
    def test_rejects_a_span_that_is_no_int(self, span):
        # None would minimize, and a float could come back as the span
        wg = k3_instance()
        with pytest.raises(ValueError, match="span must be a nonnegative int"):
            solve_ca_uniform(wg, nd_partition(wg.graph), span)

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

    def test_solve_ms_sums_unrounded_milliseconds(self, monkeypatch):
        # two solves on one SolveStats, timed by a fake clock, add their
        # wall times exactly as measured, with no rounding between them
        ticks = [10.0, 10.0001234, 20.0, 20.0005678]
        clock = iter(ticks)
        monkeypatch.setattr(solver, "time", SimpleNamespace(perf_counter=clock.__next__))
        wg = k3_instance()
        stats = SolveStats()
        for _ in range(2):
            solve_ca_uniform(wg, nd_partition(wg.graph), 4, stats=stats)
        expected = 0.0
        expected += (ticks[1] - ticks[0]) * 1000
        expected += (ticks[3] - ticks[2]) * 1000
        assert stats.solve_ms == expected
        assert round(stats.solve_ms, 3) != stats.solve_ms


class TestWalkSearch:
    def test_two_clique_classes_match_the_oracle(self):
        # at its least span 12 and on either side of it
        wg, partition = two_clique_classes()
        _, _, [(sizes, weights, closure, _)] = solver._parts(wg, "uniform", partition)
        assert len(solver._shortest_walk(sizes, weights, closure)[0]) - 1 == 12
        for span in (11, 12, 13):
            labeling = solve_ca_uniform(wg, partition, span)
            oracle = brute_force_ca(wg, span, guard=10**9)
            assert (labeling is None) == (oracle is None) == (span == 11), span
            if labeling is not None:
                assert verify_assignment(wg, labeling).ok
        assert solver._shortest_walk(sizes, weights, closure, 11)[0] is None

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
        # window expanded; the walk search, run directly on the part, returns
        # the closed form's slices, and so does the clique instance through
        # the entry points, which the oracle confirms where it runs
        least = (size - 1) * loop
        part = ([size], {(0, 0): loop})
        slices, expanded = solver._shortest_walk(*part, None)
        assert len(slices) - 1 == least and expanded == 0
        assert solver._shortest_walk(*part, None, least) == (slices, 0)
        assert least == 0 or solver._shortest_walk(*part, None, least - 1) == (None, 0)
        # the front end gives a one-type part no closure; given its own, the
        # part goes to the breadth-first search
        closure = ShiftClosure(*part, loop)

        def search(span=None):
            return solver._shortest_walk(*part, closure, span)[0]

        assert search() == search(least) == slices
        assert least == 0 or search(least - 1) is None
        # the clique instance is that part, with no closure; K1 has no edge,
        # so its one type gets no part at all
        pairs = itertools.combinations(range(size), 2)
        wg = WeightedGraph.from_edges(size, [(u, v, loop) for u, v in pairs])
        partition = nd_partition(wg.graph)
        parts = solver._parts(wg, "uniform", partition)[2]
        if size == 1:
            assert parts == []
        else:
            [(_, _, no_closure, _)] = parts
            assert no_closure is None
        span, labeling = minimize_span(wg, "uniform", partition)
        assert span == least and verify_assignment(wg, labeling).ok
        assert verify_assignment(wg, solve_ca_uniform(wg, partition, least)).ok
        assert least == 0 or solve_ca_uniform(wg, partition, least - 1) is None
        try:
            assert brute_force_ca(wg, least, guard=10**6) is not None
            assert least == 0 or brute_force_ca(wg, least - 1, guard=10**6) is None
        except GuardExceeded:
            pass

    def test_count_table_matches_the_definition(self):
        # on random parts, the count decode covers the digit codes of the
        # types above size 1 only (a size-1 type is a bit of the count code,
        # outside it); on every one of those codes it gives those types at
        # their class size and the label positions their remaining copies
        # need, left copies of type t at least w(t, t) apart.  The walk
        # places every type its class size many times and is refuted one
        # step shorter.  The digest of all 40 walks is pinned, so a change
        # in the move order of parts with count digits shows here
        rng = random.Random(21)
        mixed = 0
        walks = []
        for _ in range(40):
            tau = rng.randint(2, 4)
            sizes = [rng.randint(1, 4) for _ in range(tau)]
            weights = {(t, t): rng.randint(1, 4) for t in range(tau)}
            weights.update(((t, t + 1), rng.randint(1, 4)) for t in range(tau - 1))
            decode = solver._count_decoder(sizes, weights)
            counted = [t for t in range(tau) if sizes[t] > 1]
            mixed += 0 < len(counted) < tau
            for code in range(math.prod(sizes[t] + 1 for t in counted)):
                left, rest = [0] * tau, code
                for t in counted:
                    rest, count = divmod(rest, sizes[t] + 1)
                    left[t] = sizes[t] - count
                full = sum(1 << t for t in counted if not left[t])
                need = max(((n - 1) * weights[(t, t)] + 1 for t, n in enumerate(left) if n), default=0)
                assert decode(code) == need << tau | full
            closure = ShiftClosure(sizes, weights, max(weights.values()))
            slices, _ = solver._shortest_walk(sizes, weights, closure)
            walks.append(slices)
            assert [sum(m >> t & 1 for m in slices) for t in range(tau)] == sizes
            least = len(slices) - 1
            assert solver._shortest_walk(sizes, weights, closure, least)[0] == slices
            assert solver._shortest_walk(sizes, weights, closure, least - 1)[0] is None
        assert mixed > 10  # parts with both size-1 bits and digits
        digest = hashlib.sha256(repr(walks).encode()).hexdigest()
        assert digest == "572760572dfeb0c8d33ebc9b52c182c98ea2ec563bd35fbdbef74a50d01b9e72"

    def test_size_one_parts_match_the_oracle(self):
        # on random parts of size-1 classes (2 to 8 types, weights up to 4),
        # whose count codes are the masks of the types placed, with no
        # digit to decode, the search's least span is feasible and the
        # decision just below it refuted; the slices label the part's
        # one-vertex-per-type graph, and the oracle agrees with the verdicts
        # where its label space is small enough.  The digest of all 100
        # walks is pinned, so a change in the move order of these parts,
        # every part of the vc route, shows here
        rng = random.Random(15)
        oracle_runs = 0
        walks = []
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
            sizes = [1] * tau
            closure = ShiftClosure(sizes, weights, max(weights.values()))
            slices, _ = solver._shortest_walk(sizes, weights, closure)
            walks.append(slices)
            least = len(slices) - 1
            assert solver._shortest_walk(sizes, weights, closure, least)[0] == slices
            if least > 0:
                assert solver._shortest_walk(sizes, weights, closure, least - 1)[0] is None, weights
            pairs = [(t, r, w) for (t, r), w in weights.items() if t != r]
            wg = WeightedGraph.from_edges(tau, pairs)
            labels = [next(i for i, mask in enumerate(slices) if mask >> t & 1) for t in range(tau)]
            assert verify_assignment(wg, Labeling(tuple(labels), least)).ok
            try:
                below = least > 0 and brute_force_ca(wg, least - 1, guard=10**6)
                at = brute_force_ca(wg, least, guard=10**6)
            except GuardExceeded:
                continue
            assert not below and at is not None, weights
            oracle_runs += 1
        assert oracle_runs > 80
        digest = hashlib.sha256(repr(walks).encode()).hexdigest()
        assert digest == "6ef77ddc73df551b8a9670eb22a74b58ac15544c9bb63ffa962e5da4ddcb0d78"

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
        # with every vertex doubled the classes have size 2, so the search
        # has count digits to decode, and the guard fires before it decodes
        # a count code
        def no_count_work(sizes, weights):
            raise AssertionError("the count search ran before the type-count guard")

        monkeypatch.setattr(solver, "_count_decoder", no_count_work)
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

    def test_type_guard_fires_before_any_part_is_searched(self, monkeypatch, tmp_path, capsys):
        # two parts: a K3 and a K4 clique class (inner weights 2 and 3) both
        # joined by weight 2 to one hub vertex, whose count code has digits,
        # then the doubled P17, 17 clique classes of size 2.  The guard on
        # the second part fires before the first is searched, so no count
        # code is decoded, on the library and through the CLI (exit 3)
        def no_count_work(sizes, weights):
            raise AssertionError("a part was searched before the type-count guard")

        monkeypatch.setattr(solver, "_count_decoder", no_count_work)
        triples = [(u, v, 2) for u, v in itertools.combinations(range(3), 2)]
        triples += [(u, v, 3) for u, v in itertools.combinations(range(3, 7), 2)]
        triples += [(u, 7, 2) for u in range(7)]
        doubled = paired_path(17)
        triples += [(u + 8, v + 8, w) for (u, v), w in doubled.weights.items()]
        wg = WeightedGraph.from_edges(8 + doubled.graph.n, triples)
        partition = refine_uniform(wg, nd_partition(wg.graph))  # as ndchan solve does
        assert partition.classes[:3] == (frozenset(range(3)), frozenset(range(3, 7)), frozenset({7}))
        assert len(partition.classes) == 20
        for solve in (
            lambda: solve_ca_uniform(wg, partition, 4),
            lambda: minimize_span(wg, "uniform", partition),
        ):
            with pytest.raises(GuardExceeded, match="17 types"):
                solve()

        from ndchan.cli import main

        path = tmp_path / "instance.json"
        path.write_text(json.dumps({"n": wg.graph.n, "edges": [list(t) for t in triples]}))
        for flags in (["--lambda", "4"], ["--minimize"]):
            assert main(["solve", "--instance", str(path)] + flags) == 3
            captured = capsys.readouterr()
            assert captured.out == "" and "17 types" in captured.err

    def test_count_work_follows_the_states_reached(self, monkeypatch):
        # K3,...,3 with 16 parts under L(3, 2) is one part of 16 clique
        # classes of size 3, whose count codes number 4**16; refuting span
        # 5, far below its least span 109, decodes each count code its
        # states hold once, a few dozen, and so does not scale with that
        # product
        parts = 16
        g = Graph.from_edges(
            3 * parts,
            [(u, v) for u in range(3 * parts) for v in range(u + 1, 3 * parts) if u // 3 != v // 3],
        )
        wg = labeling_to_ca(g, DistanceConstraints((3, 2)))
        decoded = []
        decoder = solver._count_decoder

        def counted_decoder(sizes, weights):
            decode = decoder(sizes, weights)

            def counted(code):
                decoded.append(code)
                return decode(code)

            return counted

        monkeypatch.setattr(solver, "_count_decoder", counted_decoder)
        _, _, [(sizes, weights, closure, _)] = solver._parts(wg, "uniform", nd_partition(g))
        assert sizes == [3] * parts
        assert solver._shortest_walk(sizes, weights, closure, 5)[0] is None
        assert 0 < len(set(decoded)) == len(decoded) <= 100
        assert solve_labeling(g, DistanceConstraints((3, 2)), 5) is None

    def test_window_count_guard(self):
        # the guard counts the windows the walk search works out, on two
        # clique classes (count digits), on K3's cover partition (three
        # classes of size 1, placed bits only) and on the minimize-vc bench
        # witness c4-43, whose last window is worked out by the goal test
        # of the state that closes the walk, which is never expanded; K3's
        # twin partition is one class of size 3, answered in closed form
        # with no window
        wg = k3_instance()
        partition = nd_partition(wg.graph)
        assert solve_ca_uniform(wg, partition, 4, max_digraph_nodes=0) is not None
        assert minimize_span(wg, "uniform", partition, max_digraph_nodes=0)[0] == 4
        cliques, clique_partition = two_clique_classes()
        c4_43 = WeightedGraph.from_edges(
            6, [(0, 3, 1), (0, 4, 1), (0, 5, 2), (1, 4, 1), (1, 5, 2), (2, 3, 3), (2, 5, 2)]
        )
        for solve in (
            lambda **kw: solve_ca_uniform(cliques, clique_partition, 12, **kw),
            lambda **kw: minimize_span(cliques, "uniform", clique_partition, **kw),
            lambda **kw: solve_ca_vc(wg, 4, **kw),
            lambda **kw: minimize_span(wg, "vc", **kw),
            lambda **kw: solve_ca_vc(c4_43, 3, **kw),
            lambda **kw: minimize_span(c4_43, "vc", **kw),
        ):
            stats = SolveStats()
            solve(stats=stats)
            windows = stats.digraph_nodes
            assert solve(max_digraph_nodes=windows) is not None
            with pytest.raises(GuardExceeded):
                solve(max_digraph_nodes=windows - 1)

    def test_search_expands_fewer_windows_than_the_digraph_has(self, monkeypatch):
        # a minimize-vc bench witness (criterion 4's draw 176): every class
        # of the cover partition has size 1, so the count code is the mask
        # of types placed; the search works out a window's allowed types
        # once, when it first leaves it or a state entering it may close the
        # walk, and never builds the whole digraph
        wg = WeightedGraph.from_edges(
            7, [(0, 5, 2), (1, 4, 1), (1, 5, 2), (1, 6, 2), (2, 4, 1), (2, 6, 2), (3, 6, 1)]
        )
        expanded = []
        original = ShiftClosure.allowed

        def counted(self, window):
            expanded.append(window)
            return original(self, window)

        def no_build(*args, **kwargs):
            raise AssertionError("a solve built the whole shift digraph")

        monkeypatch.setattr(ShiftClosure, "allowed", counted)
        monkeypatch.setattr(shift_digraph, "build_shift_digraph", no_build)
        stats = SolveStats()
        span, labeling = minimize_span(wg, "vc", stats=stats)
        assert verify_assignment(wg, labeling).ok
        assert len(set(expanded)) == len(expanded) == stats.digraph_nodes
        monkeypatch.undo()
        windows = sum(
            len(build_shift_digraph(sizes, weights, max(weights.values())).windows)
            for sizes, weights, _, _ in solver._parts(wg, "vc", None)[2]
        )
        assert 0 < len(expanded) < windows

    def test_goal_is_tested_as_each_state_enters(self):
        # a seeded 14-vertex bipartite graph whose cover partition is one
        # part of 14 size-1 types.  The goal is tested as each state enters,
        # so a search that finds its walk stops before building its last
        # and widest layer and works out under 1,500 windows.  One below
        # the least span no state closes the walk, and the refutation works
        # out exactly the windows of the states it expands, 21,061
        wg = WeightedGraph.from_edges(
            14,
            [
                (0, 9, 2), (0, 11, 2), (0, 13, 1), (1, 8, 1), (1, 10, 3), (2, 7, 3), (2, 8, 3),
                (2, 9, 3), (2, 10, 2), (2, 11, 3), (3, 7, 3), (3, 8, 3), (3, 10, 2), (4, 9, 3),
                (4, 10, 1), (4, 11, 3), (4, 12, 1), (5, 7, 1), (5, 11, 2), (6, 13, 3),
            ],
        )
        labels = (0, 0, 0, 0, 0, 0, 0, 3, 3, 3, 3, 3, 1, 3)
        stats = SolveStats()
        span, labeling = minimize_span(wg, "vc", stats=stats)
        assert (span, labeling.labels, stats.types) == (3, labels, 14)
        assert stats.digraph_nodes < 1500
        stats = SolveStats()
        assert solve_ca_vc(wg, 3, stats=stats).labels == labels
        assert stats.digraph_nodes < 1500
        stats = SolveStats()
        assert solve_ca_vc(wg, 2, stats=stats) is None
        assert stats.digraph_nodes == 21061


class TestSolveCaVc:
    @pytest.mark.parametrize("span", [None, 2.5, -1])
    def test_rejects_a_span_that_is_no_nonnegative_int(self, span):
        with pytest.raises(ValueError, match="span must be a nonnegative int"):
            solve_ca_vc(k3_instance(), span)

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
    @pytest.mark.parametrize("span", [None, 2.5, -1])
    def test_rejects_a_span_that_is_no_nonnegative_int(self, span):
        with pytest.raises(ValueError, match="span must be a nonnegative int"):
            solve_labeling(path_graph(4), DistanceConstraints((2, 1)), span)

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
        # the uniformity check is one condensation of the instance,
        # check_uniform, and one pass that makes it reflexive and splits it
        # into parts follows, preprocess_reflexive, however many parts the
        # type graph has
        calls = []
        for name in ("check_uniform", "preprocess_reflexive"):
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
            assert calls == ["check_uniform", "preprocess_reflexive"]

    def test_isolated_class_has_no_part(self):
        # a weight-2 clique class of two vertices and a class of five
        # isolated vertices: only the clique class is a part, answered in
        # closed form with no window expanded, and the isolated vertices
        # all get label 0 from every entry point.  The vc route splits the
        # clique class into a cover vertex and a class of one, which make
        # one part of two types; its stats still count all three types
        wg = WeightedGraph.from_edges(7, [(0, 1, 2)])
        partition = nd_partition(wg.graph)
        _, (kept, dropped), parts = solver._parts(wg, "uniform", partition)
        assert partition.classes == (frozenset({0, 1}), frozenset({2, 3, 4, 5, 6}))
        assert (kept, dropped) == (((0, 1), (2,)), ((), (3, 4, 5, 6)))
        [(sizes, weights, closure, type_ids)] = parts
        assert (sizes, weights, closure, type_ids) == ([2], {(0, 0): 2}, None, [0])
        assert [ids for *_, ids in solver._parts(wg, "vc", None)[2]] == [[0, 1]]
        for solve, types in (
            (lambda stats: solve_ca_uniform(wg, partition, 2, stats=stats), 2),
            (lambda stats: solve_ca_vc(wg, 2, stats=stats), 3),
            (lambda stats: minimize_span(wg, "uniform", partition, stats=stats)[1], 2),
            (lambda stats: minimize_span(wg, "vc", stats=stats)[1], 3),
        ):
            stats = SolveStats()
            labeling = solve(stats)
            assert labeling.labels[2:] == (0,) * 5 and verify_assignment(wg, labeling).ok
            assert stats.types == types and (types == 3 or stats.digraph_nodes == 0)

    def test_edge_free_types_cost_no_search(self, monkeypatch):
        # an edgeless instance of three classes, given and as its twin
        # partition, and a star K1,2 (weight 2) beside three isolated vertices:
        # no part, closure or walk for a type no edge touches, on both
        # routes and all four entry points; the star's two types are the
        # one part searched, and the isolated vertices get label 0
        walks, closures = [], []
        search, closure = solver._shortest_walk, solver.ShiftClosure

        def counted_search(sizes, *args):
            walks.append(len(sizes))
            return search(sizes, *args)

        def counted_closure(sizes, *args):
            closures.append(len(sizes))
            return closure(sizes, *args)

        monkeypatch.setattr(solver, "_shortest_walk", counted_search)
        monkeypatch.setattr(solver, "ShiftClosure", counted_closure)
        edgeless = WeightedGraph.from_edges(6, [])
        classes = (frozenset({0}), frozenset({1, 2}), frozenset({3, 4, 5}))
        edgeless_partition = NdPartition(classes, (INDEPENDENT,) * 3)
        star = WeightedGraph.from_edges(6, [(0, 1, 2), (0, 2, 2)])
        for wg, partition, searched in (
            (edgeless, edgeless_partition, []),
            (edgeless, nd_partition(edgeless.graph), []),
            (star, nd_partition(star.graph), [2]),
        ):
            for solve in (
                lambda: solve_ca_uniform(wg, partition, 4),
                lambda: solve_ca_vc(wg, 4),
                lambda: minimize_span(wg, "uniform", partition)[1],
                lambda: minimize_span(wg, "vc")[1],
            ):
                walks.clear()
                closures.clear()
                labeling = solve()
                assert walks == closures == searched
                assert labeling.labels[3:] == (0, 0, 0)
                assert wg is star or labeling.labels == (0,) * 6

    def test_decode_guard_catches_a_short_walk(self, monkeypatch, tmp_path, capsys):
        # a mutant walk search that places the last copy of a type one time
        # too few: the decode refuses it before verification, on both
        # routes and all four entry points, and through the CLI (exit 70)
        search = solver._shortest_walk

        def short_walk(*args):
            slices, windows = search(*args)
            if slices is not None:
                last = max(i for i, mask in enumerate(slices) if mask)
                slices = slices[:last] + [slices[last] & slices[last] - 1] + slices[last + 1 :]
            return slices, windows

        monkeypatch.setattr(solver, "_shortest_walk", short_walk)
        wg = WeightedGraph.from_edges(9, self.MULTI)
        partition = nd_partition(wg.graph)
        for solve in (
            lambda: solve_ca_uniform(wg, partition, 3),
            lambda: solve_ca_vc(wg, 3),
            lambda: minimize_span(wg, "uniform", partition),
            lambda: minimize_span(wg, "vc"),
        ):
            with pytest.raises(InternalSolverError, match="decode left unlabeled vertices"):
                solve()

        from ndchan.cli import main

        path = tmp_path / "instance.json"
        path.write_text(json.dumps({"n": 9, "edges": [list(t) for t in self.MULTI]}))
        for flags in (["--lambda", "3"], ["--minimize"], ["--minimize", "--route", "vc"]):
            assert main(["solve", "--instance", str(path)] + flags) == 70, flags
            captured = capsys.readouterr()
            assert captured.out == "" and "decode left unlabeled vertices" in captured.err

    def test_isolated_classes_pinned(self):
        # 100 draws of uniform_instance with at least one class no edge
        # touches, 44 of them beside edges: on both routes the least span
        # and its labels, and the decisions at the least span and one
        # below, in one digest, and the windows each solve worked out in
        # another.  The answers' digest was taken while every such class
        # was still a part of its own, answered in closed form
        rng = random.Random(2121)
        answers, windows, mixed = [], [], 0
        while len(answers) < 100:
            wg, partition = uniform_instance(rng, max_types=4)
            adjacency = wg.graph.adjacency
            if all(any(adjacency[v] for v in cls) for cls in partition.classes):
                continue
            mixed += any(adjacency[v] for v in range(wg.graph.n))
            record = []
            for route, given, decide in (
                ("uniform", partition, lambda s, **kw: solve_ca_uniform(wg, partition, s, **kw)),
                ("vc", None, lambda s, **kw: solve_ca_vc(wg, s, **kw)),
            ):
                stats = SolveStats()
                least, labeling = minimize_span(wg, route, given, stats=stats)
                record.append((least, labeling.labels))
                windows.append(stats.digraph_nodes)
                for span in range(max(least - 1, 0), least + 1):
                    stats = SolveStats()
                    decided = decide(span, stats=stats)
                    record.append((span, decided and decided.labels))
                    windows.append(stats.digraph_nodes)
            answers.append(record)
        assert mixed == 44
        digest = hashlib.sha256(repr(answers).encode()).hexdigest()
        assert digest == "5df6ca6367361657b54eef7e03f02f8fcf1e4d21a614947b3378136813111d81"
        digest = hashlib.sha256(repr(windows).encode()).hexdigest()
        assert digest == "8cde00d5c8e3458274b4fe31a742182816fafe4996b5102c5beb068e0d2a9bb9"

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
