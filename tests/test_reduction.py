import random

import pytest
from hypothesis import given, settings, strategies as st

from ndchan import (
    DistanceConstraints,
    Labeling,
    check_uniform,
    labeling_to_ca,
    nd_partition,
    verify_assignment,
)
from helpers import lp_labeling_valid, path_graph, random_graph


class TestDistanceConstraints:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            DistanceConstraints(())

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            DistanceConstraints((2, 0))

    def test_parse(self):
        assert DistanceConstraints.parse("2,1").values == (2, 1)

    def test_parse_garbage(self):
        with pytest.raises(ValueError):
            DistanceConstraints.parse("2,x")


class TestLabelingToCa:
    def test_path3_l21(self):
        wg = labeling_to_ca(path_graph(3), DistanceConstraints((2, 1)))
        assert wg.weights == {(0, 1): 2, (1, 2): 2, (0, 2): 1}

    def test_path4_l21_frozen(self):
        wg = labeling_to_ca(path_graph(4), DistanceConstraints((2, 1)))
        assert wg.weights == {
            (0, 1): 2,
            (1, 2): 2,
            (2, 3): 2,
            (0, 2): 1,
            (1, 3): 1,
        }

    def test_single_constraint_keeps_graph(self):
        g = path_graph(4)
        wg = labeling_to_ca(g, DistanceConstraints((1,)))
        assert wg.graph.edges == g.edges
        assert set(wg.weights.values()) == {1}

    def test_far_pairs_unconstrained(self):
        wg = labeling_to_ca(path_graph(4), DistanceConstraints((1,)))
        assert (0, 3) not in wg.weights

    @given(st.integers(2, 6), st.floats(0, 1), st.integers(0, 9999),
           st.lists(st.integers(1, 3), min_size=1, max_size=3))
    @settings(max_examples=50, deadline=None)
    def test_original_partition_stays_uniform_on_reduction(self, n, prob, seed, p):
        g = random_graph(random.Random(seed), n, prob)
        wg = labeling_to_ca(g, DistanceConstraints(tuple(p)))
        assert check_uniform(wg, nd_partition(g))[2]

    @given(st.integers(2, 5), st.floats(0, 1), st.integers(0, 9999),
           st.lists(st.integers(1, 3), min_size=1, max_size=2), st.integers(0, 6))
    @settings(max_examples=40, deadline=None)
    def test_reduced_verification_equals_direct_distance_check(
        self, n, prob, seed, p, span
    ):
        rng = random.Random(seed)
        g = random_graph(rng, n, prob)
        wg = labeling_to_ca(g, DistanceConstraints(tuple(p)))
        labels = tuple(rng.randint(0, span) for _ in range(n))
        direct = lp_labeling_valid(g, tuple(p), labels, span)
        assert verify_assignment(wg, Labeling(labels, span)).ok == direct


class TestScaleConstraints:
    @given(st.integers(2, 5), st.floats(0, 1), st.integers(0, 999),
           st.lists(st.integers(1, 3), min_size=1, max_size=2),
           st.integers(0, 5), st.sampled_from((2, 3)))
    @settings(max_examples=25, deadline=None)
    def test_scaling_preserves_brute_force_feasibility(self, n, prob, seed, p, span, c):
        from helpers import lp_feasible_brute

        # constraints and span scaled together by c
        g = random_graph(random.Random(seed), n, prob)
        assert lp_feasible_brute(g, tuple(p), span) == lp_feasible_brute(
            g, tuple(c * q for q in p), c * span
        )
