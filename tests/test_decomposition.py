import random

import pytest
from hypothesis import given, settings, strategies as st

from ndchan import (
    Graph,
    NdPartition,
    WeightedGraph,
    check_uniform,
    min_vertex_cover,
    nd_partition,
    refine_uniform,
    vc_partition,
)
from ndchan.decomposition import CLIQUE, INDEPENDENT
from ndchan.oracle import brute_force_nd
from helpers import (
    complete_graph,
    cycle_graph,
    path_graph,
    random_graph,
    random_weighted_graph,
    star_graph,
)


def condense(g, p):
    """check_uniform on g with every weight 1: (sizes, weights, uniform)."""
    return check_uniform(WeightedGraph(g, dict.fromkeys(g.edges, 1)), p)


class TestNdPartition:
    def test_complete_graph_single_class(self):
        p = nd_partition(complete_graph(5))
        assert p.count == 1
        assert p.kinds == (CLIQUE,)

    def test_c4_two_independent_classes(self):
        p = nd_partition(cycle_graph(4))
        assert {frozenset({0, 2}), frozenset({1, 3})} == set(p.classes)
        assert p.kinds == (INDEPENDENT, INDEPENDENT)

    def test_p4_all_singletons(self):
        assert nd_partition(path_graph(4)).count == 4

    def test_edgeless_single_class(self):
        p = nd_partition(Graph.from_edges(3, []))
        assert p.count == 1

    @given(st.integers(1, 7), st.floats(0, 1), st.integers(0, 9999))
    @settings(max_examples=50, deadline=None)
    def test_matches_brute_force_minimum(self, n, prob, seed):
        g = random_graph(random.Random(seed), n, prob)
        assert nd_partition(g).count == brute_force_nd(g)

    @given(st.integers(1, 7), st.floats(0, 1), st.integers(0, 9999))
    @settings(max_examples=50, deadline=None)
    def test_classes_are_valid_decomposition(self, n, prob, seed):
        g = random_graph(random.Random(seed), n, prob)
        condense(g, nd_partition(g))  # raises when the axioms fail


class TestTypeGraph:
    # the type graph check_uniform condenses: class sizes, and a weight per
    # class pair joined by edges, a loop (t, t) marking a clique class
    def test_triangle_condenses_to_loop(self):
        g = complete_graph(3)
        assert condense(g, nd_partition(g)) == ([3], {(0, 0): 1}, True)

    def test_c4_two_nodes_one_edge_no_loops(self):
        g = cycle_graph(4)
        assert condense(g, nd_partition(g)) == ([2, 2], {(0, 1): 1}, True)

    def test_star_sizes_and_edge(self):
        g = star_graph(3)
        sizes, weights, _ = condense(g, nd_partition(g))
        assert sorted(sizes) == [1, 3]
        assert weights == {(0, 1): 1}

    def test_rejects_mixed_class(self):
        # {0,1,2} on a path induces neither a clique nor an independent set
        with pytest.raises(ValueError, match="neither"):
            condense(
                path_graph(3),
                NdPartition((frozenset({0, 1, 2}),), (CLIQUE,)),
            )

    def test_rejects_partial_cover(self):
        with pytest.raises(ValueError, match="partition"):
            condense(path_graph(3), NdPartition((frozenset({0, 1}),), (CLIQUE,)))

    def test_rejects_all_or_none_violation(self):
        g = Graph.from_edges(3, [(0, 1)])
        bad = NdPartition((frozenset({0, 2}), frozenset({1})), (INDEPENDENT, INDEPENDENT))
        with pytest.raises(ValueError, match="all-or-none"):
            condense(g, bad)


class TestCheckUniform:
    def test_equal_weights_uniform(self):
        g = cycle_graph(4)
        wg = WeightedGraph(g, {e: 2 for e in g.edges})
        assert check_uniform(wg, nd_partition(g)) == ([2, 2], {(0, 1): 2}, True)

    def test_mixed_weights_rejected(self):
        g = cycle_graph(4)
        weights = {e: 1 for e in g.edges}
        weights[(1, 2)] = 2
        _, _, uniform = check_uniform(WeightedGraph(g, weights), nd_partition(g))
        assert not uniform

    def test_uniform_inside_clique_class(self):
        g = complete_graph(3)
        wg = WeightedGraph(g, {e: 2 for e in g.edges})
        assert check_uniform(wg, nd_partition(g)) == ([3], {(0, 0): 2}, True)

    def test_edgeless_graph_condenses_to_no_pairs(self):
        wg = WeightedGraph(Graph(5, frozenset()), {})
        p = NdPartition((frozenset({0, 3}), frozenset({1}), frozenset({2, 4})), (INDEPENDENT,) * 3)
        assert check_uniform(wg, p) == ([2, 1, 2], {}, True)

    @pytest.mark.parametrize(
        "n, edges, classes, message",
        [
            # a vertex out of range, above and below, with the sizes adding up to n
            (3, [], [{0, 1}, {5}], "classes do not partition the vertex set"),
            (3, [], [{-1, 0}, {1}], "classes do not partition the vertex set"),
            # classes that miss a vertex
            (4, [(0, 1)], [{0}, {1}, {2}], "classes do not partition the vertex set"),
            # class 1 holds one edge of three, and class 2 is fine
            (
                5,
                [(1, 2), (3, 4)],
                [{0}, {1, 2, 3}, {4}],
                "class 1 induces neither a clique nor an independent set",
            ),
            # class pairs (0, 1) and (1, 2) are partly joined, class 2
            # holds one edge of three: the class message comes first
            (
                6,
                [(0, 2), (2, 3), (3, 4)],
                [{0, 1}, {2}, {3, 4, 5}],
                "class 2 induces neither a clique nor an independent set",
            ),
            # pairs (1, 2) and (0, 1) are partly joined, (1, 2) counted
            # first: the least pair is named
            (
                5,
                [(3, 4), (0, 2), (1, 4)],
                [{0, 1}, {2, 4}, {3}],
                "edges between classes 0 and 1 are not all-or-none",
            ),
        ],
    )
    def test_error_messages(self, n, edges, classes, message):
        # raised with exactly these words, which the CLI prints
        wg = WeightedGraph.from_edges(n, [(u, v, 1) for u, v in edges])
        p = NdPartition(tuple(frozenset(c) for c in classes), (INDEPENDENT,) * len(classes))
        with pytest.raises(ValueError) as info:
            check_uniform(wg, p)
        assert str(info.value) == message



def reference_condensation(wg, p):
    """check_uniform from the definitions: a class's vertex pairs are all
    adjacent or none, and so are the vertex pairs across two classes, each
    with one weight.  Returns the class sizes and the set of weights per
    class pair joined by edges.  Raises ValueError on the first axiom that
    fails."""
    g = wg.graph
    if set().union(*p.classes) != set(range(g.n)):
        raise ValueError("classes do not partition the vertex set")

    def weights_of(pairs):
        """None when the pairs are neither all adjacent nor none, else their weights."""
        adjacent = [g.has_edge(u, v) for u, v in pairs]
        if any(adjacent) and not all(adjacent):
            return None
        return {wg.weight(u, v) for u, v in pairs if g.has_edge(u, v)}

    inner, cross = {}, {}
    for ci, cls in enumerate(p.classes):
        inner[ci] = weights_of([(u, v) for u in cls for v in cls if u < v])
        if inner[ci] is None:
            raise ValueError(f"class {ci} induces neither a clique nor an independent set")
    for i, ci in enumerate(p.classes):
        for j in range(i + 1, len(p.classes)):
            cross[(i, j)] = weights_of([(u, v) for u in ci for v in p.classes[j]])
            if cross[(i, j)] is None:
                raise ValueError(f"edges between classes {i} and {j} are not all-or-none")
    seen = {(t, t): ws for t, ws in inner.items() if ws}
    seen.update((pair, ws) for pair, ws in cross.items() if ws)
    return [len(cls) for cls in p.classes], seen


@st.composite
def condensation_cases(draw):
    """A decomposition with uniform weights on shuffled vertices, then at
    most one perturbation: a vertex moved to another class, or left out,
    an edge dropped, or a weight changed."""
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=4))
    cliques = [draw(st.booleans()) for _ in sizes]
    order = draw(st.permutations(range(sum(sizes))))
    classes, start = [], 0
    for size in sizes:
        classes.append([order[v] for v in range(start, start + size)])
        start += size
    weights = {}
    for i, ci in enumerate(classes):
        for j in range(i, len(classes)):
            if (cliques[i] if i == j else draw(st.booleans())):
                w = draw(st.integers(1, 3))
                for u in ci:
                    for v in classes[j]:
                        if u != v:
                            weights[(min(u, v), max(u, v))] = w
    change = draw(st.sampled_from(("none", "move", "leave out", "drop edge", "weight")))
    if change in ("move", "leave out"):
        donors = [ci for ci in classes if len(ci) > 1]
        if donors and (change == "leave out" or len(classes) > 1):
            donor = draw(st.sampled_from(donors))
            v = donor.pop(draw(st.integers(0, len(donor) - 1)))
            if change == "move":
                draw(st.sampled_from([ci for ci in classes if ci is not donor])).append(v)
    elif weights and change != "none":
        edge = draw(st.sampled_from(sorted(weights)))
        if change == "drop edge":
            del weights[edge]
        else:
            weights[edge] += draw(st.integers(1, 2))
    n = sum(sizes)
    wg = WeightedGraph(Graph(n, frozenset(weights)), weights)
    kinds = tuple(CLIQUE if c else INDEPENDENT for c in cliques)
    return wg, NdPartition(tuple(frozenset(ci) for ci in classes), kinds)


class TestCondensation:
    @given(condensation_cases())
    @settings(max_examples=300, deadline=None)
    def test_matches_the_definitions(self, case):
        # the one-pass edge count agrees with the pairwise definitions on
        # the verdict, the error message, the sizes and the class pairs,
        # each with one of its weights, the only one where uniform
        wg, p = case
        try:
            ref_sizes, ref_weights = reference_condensation(wg, p)
        except ValueError as exc:
            with pytest.raises(ValueError) as info:
                check_uniform(wg, p)
            assert str(info.value) == str(exc)
            return
        sizes, weights, uniform = check_uniform(wg, p)
        assert uniform == all(len(ws) == 1 for ws in ref_weights.values())
        assert sizes == ref_sizes and weights.keys() == ref_weights.keys()
        assert all(w in ref_weights[pair] for pair, w in weights.items())

class TestMinVertexCover:
    def test_path3_center(self):
        assert min_vertex_cover(path_graph(3)) == frozenset({1})

    def test_k4_needs_three(self):
        assert len(min_vertex_cover(complete_graph(4))) == 3

    def test_c5_needs_three(self):
        assert len(min_vertex_cover(cycle_graph(5))) == 3

    def test_edgeless_empty(self):
        assert min_vertex_cover(Graph.from_edges(4, [])) == frozenset()

    @given(st.integers(1, 8), st.floats(0, 1), st.integers(0, 9999))
    @settings(max_examples=40, deadline=None)
    def test_covers_and_is_minimum(self, n, prob, seed):
        from itertools import combinations

        g = random_graph(random.Random(seed), n, prob)
        cover = min_vertex_cover(g)
        assert all(u in cover or v in cover for u, v in g.edges)
        for size in range(len(cover)):
            for subset in combinations(range(n), size):
                chosen = set(subset)
                assert not all(u in chosen or v in chosen for u, v in g.edges)


class TestVcPartition:
    def test_star_center_cover(self):
        g = star_graph(3)
        p = vc_partition(g, frozenset({0}))
        assert set(p.classes) == {frozenset({0}), frozenset({1, 2, 3})}

    def test_p4_inner_cover(self):
        p = vc_partition(path_graph(4), frozenset({1, 2}))
        assert set(p.classes) == {
            frozenset({0}),
            frozenset({1}),
            frozenset({2}),
            frozenset({3}),
        }

    def test_edgeless_empty_cover(self):
        p = vc_partition(Graph.from_edges(3, []), frozenset())
        assert p.classes == (frozenset({0, 1, 2}),)

    def test_rejects_non_cover(self):
        with pytest.raises(ValueError, match="not covered"):
            vc_partition(path_graph(3), frozenset({0}))

    def test_takes_any_vertex_set_and_checks_its_range(self):
        assert vc_partition(path_graph(3), [1]) == vc_partition(path_graph(3), {1})
        with pytest.raises(ValueError, match="out of range"):
            vc_partition(path_graph(3), {1, 3})

    @given(st.integers(1, 8), st.floats(0, 1), st.integers(0, 9999))
    @settings(max_examples=40, deadline=None)
    def test_valid_decomposition_with_bounded_count(self, n, prob, seed):
        g = random_graph(random.Random(seed), n, prob)
        cover = min_vertex_cover(g)
        p = vc_partition(g, cover)
        condense(g, p)  # axioms
        assert p.count <= 2 ** len(cover) + len(cover)


class TestRefineUniform:
    def test_star_leaves_split_by_weight(self):
        wg = WeightedGraph.from_edges(4, [(0, 1, 1), (0, 2, 1), (0, 3, 2)])
        base = vc_partition(wg.graph, frozenset({0}))
        refined = refine_uniform(wg, base)
        assert set(refined.classes) == {
            frozenset({0}),
            frozenset({1, 2}),
            frozenset({3}),
        }

    def test_equal_weights_unchanged(self):
        wg = WeightedGraph.from_edges(4, [(0, 1, 2), (0, 2, 2), (0, 3, 2)])
        base = vc_partition(wg.graph, frozenset({0}))
        assert refine_uniform(wg, base).classes == base.classes

    @pytest.mark.parametrize(
        "edges",
        [
            [(0, 1, 1), (0, 2, 2), (1, 2, 3)],
            [(0, 1, 1), (0, 2, 1), (0, 3, 1), (1, 2, 2), (1, 3, 2), (2, 3, 3)],
        ],
    )
    def test_clique_class_with_mixed_weights_splits(self, edges):
        wg = WeightedGraph.from_edges(len({v for e in edges for v in e[:2]}), edges)
        base = nd_partition(wg.graph)
        assert base.count == 1 and base.kinds == (CLIQUE,)
        refined = refine_uniform(wg, base)
        assert refined.classes == tuple(frozenset({v}) for v in range(wg.graph.n))
        assert check_uniform(wg, refined)[2]

    def test_class_that_is_neither_kind_is_reported(self):
        # the path 0-1-2 as one class: its first two members are adjacent,
        # its first and last are not, so no class kind fits, and the
        # refinement leaves that for check_uniform to report
        wg = WeightedGraph.from_edges(3, [(0, 1, 1), (1, 2, 1)])
        refined = refine_uniform(wg, NdPartition((frozenset({0, 1, 2}),), (CLIQUE,)))
        assert refined.classes == (frozenset({0, 1, 2}),)
        with pytest.raises(ValueError, match="neither a clique nor an independent set"):
            check_uniform(wg, refined)

    def test_uniform_clique_class_stays_whole(self):
        wg = WeightedGraph.from_edges(
            4, [(u, v, 2) for u in range(3) for v in range(u + 1, 3)] + [(2, 3, 1)]
        )
        base = nd_partition(wg.graph)
        assert base.classes == (frozenset({0, 1}), frozenset({2}), frozenset({3}))
        assert refine_uniform(wg, base).classes == base.classes

    @given(st.integers(1, 8), st.floats(0, 1), st.integers(0, 9999), st.integers(1, 3))
    @settings(max_examples=50, deadline=None)
    def test_refined_twin_partition_is_uniform(self, n, prob, seed, wmax):
        wg = random_weighted_graph(random.Random(seed), n, prob, wmax)
        twins = nd_partition(wg.graph)
        refined = refine_uniform(wg, twins)
        assert check_uniform(wg, refined)[2]
        # a twin partition that is uniform already comes back unchanged, so
        # solving on the refined one covers solving on the twin partition
        if check_uniform(wg, twins)[2]:
            assert refined == twins

    @given(st.integers(1, 8), st.floats(0, 1), st.integers(0, 9999), st.integers(1, 3))
    @settings(max_examples=50, deadline=None)
    def test_refinement_reaches_uniformity(self, n, prob, seed, wmax):
        rng = random.Random(seed)
        wg = random_weighted_graph(rng, n, prob, wmax)
        cover = min_vertex_cover(wg.graph)
        refined = refine_uniform(wg, vc_partition(wg.graph, cover))
        assert check_uniform(wg, refined)[2]
        k = len(cover)
        assert refined.count <= k + (2**k) * wg.wmax**k
