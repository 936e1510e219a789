import math

import pytest
from hypothesis import given, settings, strategies as st

from ndchan import (
    Graph,
    Labeling,
    WeightedGraph,
    all_pairs_distance,
    connected_components,
    power_graph,
    trivial_upper_bound,
    verify_assignment,
)
from ndchan.graph import VerificationResult
from helpers import bfs_distances, complete_graph, path_graph, random_graph

INF = math.inf


class TestGraphConstruction:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            Graph.from_edges(2, [(0, 0)])

    def test_rejects_duplicate_even_reversed(self):
        with pytest.raises(ValueError, match="duplicate"):
            Graph.from_edges(2, [(0, 1), (1, 0)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Graph.from_edges(2, [(0, 2)])

    def test_weights_must_cover_edges(self):
        g = Graph.from_edges(2, [(0, 1)])
        with pytest.raises(ValueError):
            WeightedGraph(g, {})

    def test_weights_must_be_positive(self):
        with pytest.raises(ValueError):
            WeightedGraph.from_edges(2, [(0, 1, 0)])


class TestAllPairsDistance:
    def test_path(self):
        dist = all_pairs_distance(path_graph(3))
        assert dist[0][2] == 2

    def test_complete(self):
        dist = all_pairs_distance(complete_graph(3))
        assert all(dist[u][v] == 1 for u in range(3) for v in range(3) if u != v)

    def test_disconnected_pair_is_infinite(self):
        dist = all_pairs_distance(Graph.from_edges(2, []))
        assert dist[0][1] == INF

    @given(st.integers(2, 7), st.floats(0, 1), st.integers(0, 9999))
    @settings(max_examples=40, deadline=None)
    def test_matches_reference_bfs(self, n, p, seed):
        import random

        g = random_graph(random.Random(seed), n, p)
        assert all_pairs_distance(g) == bfs_distances(n, sorted(g.edges))


class TestPowerGraph:
    def test_path3_squared_is_triangle(self):
        assert power_graph(path_graph(3), 2).edges == complete_graph(3).edges

    def test_path4_squared_frozen(self):
        assert sorted(power_graph(path_graph(4), 2).edges) == [
            (0, 1),
            (0, 2),
            (1, 2),
            (1, 3),
            (2, 3),
        ]

    def test_complete_graph_is_fixed_point(self):
        k3 = complete_graph(3)
        assert power_graph(k3, 5).edges == k3.edges

    def test_power_one_is_identity(self):
        g = path_graph(5)
        assert power_graph(g, 1) is g

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            power_graph(path_graph(2), 0)

    @given(st.integers(2, 7), st.integers(1, 3), st.integers(1, 3))
    @settings(max_examples=30, deadline=None)
    def test_powers_compose_on_paths(self, n, a, b):
        g = path_graph(n)
        composed = power_graph(power_graph(g, a), b)
        assert composed.edges == power_graph(g, a * b).edges

    @given(st.integers(2, 6), st.floats(0, 1), st.integers(0, 999), st.integers(1, 3), st.integers(1, 3))
    @settings(max_examples=30, deadline=None)
    def test_composition_contained_in_direct_power(self, n, p, seed, a, b):
        import random

        g = random_graph(random.Random(seed), n, p)
        composed = power_graph(power_graph(g, a), b)
        assert composed.edges <= power_graph(g, a * b).edges


class TestVerifyAssignment:
    def test_exact_separation_ok(self):
        wg = WeightedGraph.from_edges(2, [(0, 1, 2)])
        assert verify_assignment(wg, Labeling((0, 2), 2)).ok

    def test_violation_reported(self):
        wg = WeightedGraph.from_edges(2, [(0, 1, 2)])
        verdict = verify_assignment(wg, Labeling((0, 1), 2))
        assert not verdict.ok
        assert verdict.violated_edges == ((0, 1),)

    def test_l21_on_path4(self):
        # distance-1 pairs need gap 2, distance-2 pairs need gap 1
        wg = WeightedGraph.from_edges(
            4, [(0, 1, 2), (1, 2, 2), (2, 3, 2), (0, 2, 1), (1, 3, 1)]
        )
        assert verify_assignment(wg, Labeling((1, 3, 0, 2), 3)).ok

    def test_out_of_range_reported(self):
        wg = WeightedGraph.from_edges(2, [(0, 1, 1)])
        verdict = verify_assignment(wg, Labeling((0, 5), 2))
        assert not verdict.ok
        assert verdict.out_of_range == (1,)

    def test_size_mismatch_raises(self):
        wg = WeightedGraph.from_edges(2, [(0, 1, 1)])
        with pytest.raises(ValueError):
            verify_assignment(wg, Labeling((0,), 1))

    @given(st.integers(1, 7), st.floats(0, 1), st.integers(0, 999), st.integers(1, 4))
    @settings(max_examples=40, deadline=None)
    def test_stride_labeling_always_accepted(self, n, p, seed, wmax):
        import random

        rng = random.Random(seed)
        g = random_graph(rng, n, p)
        wg = WeightedGraph(
            g, {e: rng.randint(1, wmax) for e in g.edges}
        )
        labels = tuple(i * wg.wmax for i in range(n))
        assert verify_assignment(wg, Labeling(labels, trivial_upper_bound(wg))).ok

    def test_failure_report_is_sorted(self):
        # the weights come in no sorted order, three edges break and two
        # labels leave [0, 3]: the report lists both in ascending order
        weights = {(2, 3): 4, (0, 3): 1, (1, 2): 3, (0, 1): 2, (0, 2): 1}
        wg = WeightedGraph(Graph(4, frozenset(weights)), weights)
        verdict = verify_assignment(wg, Labeling((4, 3, 2, -1), 3))
        assert verdict == VerificationResult(False, ((0, 1), (1, 2), (2, 3)), (0, 3))

    def test_pass_reports_nothing(self):
        weights = {(2, 3): 2, (0, 1): 2, (0, 2): 1}
        wg = WeightedGraph(Graph(4, frozenset(weights)), weights)
        assert verify_assignment(wg, Labeling((3, 1, 0, 2), 3)) == VerificationResult(True, (), ())
        empty = WeightedGraph(Graph(0, frozenset()), {})
        assert verify_assignment(empty, Labeling((), 0)) == VerificationResult(True, (), ())

    @given(
        st.integers(0, 7),
        st.floats(0, 1),
        st.integers(0, 9999),
        st.integers(0, 8),
        st.integers(1, 4),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_a_plain_scan(self, n, p, seed, span, wmax):
        # random labelings, some out of range, against a scan of every
        # vertex and edge that builds the full report every time
        import random

        rng = random.Random(seed)
        edges = list(random_graph(rng, n, p).edges)
        rng.shuffle(edges)
        weights = {e: rng.randint(1, wmax) for e in edges}
        wg = WeightedGraph(Graph(n, frozenset(weights)), weights)
        labeling = Labeling(tuple(rng.randint(-2, span + 2) for _ in range(n)), span)
        assert verify_assignment(wg, labeling) == reference_verification(wg, labeling)


def reference_verification(wg, labeling):
    """verify_assignment as a plain scan: every vertex's range and every
    edge's gap, the violations sorted."""
    labels = labeling.labels
    out_of_range = tuple(v for v, lab in enumerate(labels) if not 0 <= lab <= labeling.span)
    violated = tuple(
        sorted((u, v) for (u, v), w in wg.weights.items() if abs(labels[u] - labels[v]) < w)
    )
    return VerificationResult(not violated and not out_of_range, violated, out_of_range)


class TestTrivialUpperBound:
    def test_single_heavy_edge(self):
        assert trivial_upper_bound(WeightedGraph.from_edges(2, [(0, 1, 5)])) == 5

    def test_triangle(self):
        wg = WeightedGraph.from_edges(3, [(0, 1, 2), (0, 2, 2), (1, 2, 2)])
        assert trivial_upper_bound(wg) == 4

    def test_edgeless_uses_weight_one(self):
        assert trivial_upper_bound(WeightedGraph.from_edges(4, [])) == 3


class TestConnectedComponents:
    def test_split(self):
        g = Graph.from_edges(5, [(0, 1), (3, 4)])
        assert connected_components(g) == ((0, 1), (2,), (3, 4))

    def test_empty_graph(self):
        assert connected_components(Graph.from_edges(0, [])) == ()
