import itertools
import random

import pytest

from ndchan import build_shift_digraph, dump_digraph, solver
from ndchan.errors import GuardExceeded
from ndchan.shift_digraph import ShiftClosure, independent_sets, iter_bits


# a type graph comes as a part does: (class sizes, reflexive weights)


def single_loop_type(weight, size=1):
    return [size], {(0, 0): weight}


def two_adjacent_types(w, loops=(1, 1)):
    return [1, 1], {(0, 0): loops[0], (1, 1): loops[1], (0, 1): w}


def brute_force_digraph(tau, weights, z):
    """Direct enumeration of all candidate tuples over tau types against
    the definitions, with no bound from the class sizes."""

    def tuple_ok(sets):
        for (t, r), w in weights.items():
            for i, si in enumerate(sets):
                for j, sj in enumerate(sets):
                    if t == r and i == j:
                        continue
                    hit = (t in si and r in sj) or (r in si and t in sj)
                    if hit and abs(i - j) < w:
                        return False
        return True

    subsets = [frozenset(s) for k in range(tau + 1) for s in itertools.combinations(range(tau), k)]
    nodes = [w for w in itertools.product(subsets, repeat=z) if tuple_ok(w)]
    edges = set()
    for a in nodes:
        for b in nodes:
            if a[1:] == b[:-1] and tuple_ok(a + (b[-1],)):
                edges.add((a, b))
    return set(nodes), edges


def random_part(rng):
    """A reflexive type graph of one to four types, as (sizes, weights),
    and a window length up to 3, with random sizes, loop weights and pair
    weights up to it."""
    tau, z = rng.randint(1, 4), rng.randint(1, 3)
    sizes = tuple(rng.randint(1, 3) for _ in range(tau))
    weights = {(t, t): rng.randint(1, z) for t in range(tau)}
    weights.update(
        ((t, r), rng.randint(1, z))
        for t, r in itertools.combinations(range(tau), 2)
        if rng.random() < 0.5
    )
    return sizes, weights, z


def within_sizes(window, sizes):
    """Whether no type fills more coordinates of the window than its size."""
    return all(sum(t in s for s in window) <= size for t, size in enumerate(sizes))


def slice_masks(d, node):
    """A window's slices, oldest first, read from its code: slice i at
    bits (z - 1 - i) * tau."""
    tau, z, code = d.type_count, d.window_length, d.windows[node]
    return tuple(code >> (z - 1 - i) * tau & (1 << tau) - 1 for i in range(z))


def as_sets(d, node):
    return tuple(frozenset(iter_bits(mask)) for mask in slice_masks(d, node))


class TestBuildShiftDigraph:
    def test_single_type_loop_two(self):
        d = build_shift_digraph(*single_loop_type(2), 2)
        windows = {as_sets(d, i) for i in range(len(d.windows))}
        empty = frozenset()
        t = frozenset({0})
        assert windows == {(empty, empty), (empty, t), (t, empty)}

    def test_adjacent_types_never_share_a_slot(self):
        d = build_shift_digraph(*two_adjacent_types(1), 1)
        windows = {as_sets(d, i)[0] for i in range(len(d.windows))}
        assert windows == {frozenset(), frozenset({0}), frozenset({1})}

    def test_shift_edges_of_loop_example(self):
        d = build_shift_digraph(*single_loop_type(2), 2)
        index = {as_sets(d, i): i for i in range(len(d.windows))}
        empty = frozenset()
        t = frozenset({0})
        edge_set = set(d.edges)
        assert (index[(empty, t)], index[(t, empty)]) in edge_set
        assert (index[(empty, t)], index[(empty, empty)]) not in edge_set

    def test_empty_window_first_with_self_loop(self):
        d = build_shift_digraph(*two_adjacent_types(2), 2)
        assert d.windows[d.empty_index] == 0
        assert slice_masks(d, d.empty_index) == (0, 0)
        assert (0, 0) in d.edges

    def test_empty_type_graph_single_node(self):
        d = build_shift_digraph((), {}, 2)
        assert len(d.windows) == 1
        assert d.edges == ((0, 0),)

    def test_rejects_zero_length(self):
        with pytest.raises(ValueError, match="window length"):
            build_shift_digraph(*single_loop_type(1), 0)

    def test_rejects_loopless_type(self):
        with pytest.raises(ValueError, match="type 0 has no loop"):
            build_shift_digraph((2, 1), {(1, 1): 1}, 1)

    def test_rejects_a_size_below_one(self):
        with pytest.raises(ValueError, match="class sizes must be positive"):
            build_shift_digraph((1, 0), {(0, 0): 1, (1, 1): 1}, 1)

    @pytest.mark.parametrize("weight", [0, -1, 1.5, "2"])
    def test_rejects_a_weight_that_is_no_positive_integer(self, weight):
        with pytest.raises(ValueError, match="positive integers"):
            build_shift_digraph((1, 1), {(0, 0): 1, (1, 1): 1, (0, 1): weight}, 1)

    @pytest.mark.parametrize("pair", [(0, 2), (1, 0), (-1, 1)])
    def test_rejects_a_pair_out_of_range_or_not_normalized(self, pair):
        with pytest.raises(ValueError, match="out of range or not normalized"):
            build_shift_digraph((1, 1), {(0, 0): 1, (1, 1): 1, pair: 1}, 1)

    def test_node_guard(self):
        with pytest.raises(GuardExceeded):
            build_shift_digraph(*two_adjacent_types(1), 3, max_nodes=2)

    def test_matches_exhaustive_enumeration(self):
        # sizes go up to z, where the size bound no longer removes anything
        rng = random.Random(5)
        cases = []
        for tau in (1, 2):
            for z in (1, 2, 3):
                for _ in range(8):
                    sizes = tuple(rng.randint(1, z) for _ in range(tau))
                    loops = {(t, t): rng.randint(1, 3) for t in range(tau)}
                    weights = dict(loops)
                    if tau == 2 and rng.random() < 0.7:
                        weights[(0, 1)] = rng.randint(1, 3)
                    cases.append((sizes, weights, z))
        # three types under every pattern of pair weights up to 2 (0: not
        # adjacent), so that windows holding all three occur, within their
        # sizes or past them
        pairs = list(itertools.combinations(range(3), 2))
        for z in (1, 2):
            for pattern in itertools.product(range(3), repeat=len(pairs)):
                sizes = tuple(rng.randint(1, z) for _ in range(3))
                weights = {(t, t): rng.randint(1, 3) for t in range(3)}
                weights.update((pair, w) for pair, w in zip(pairs, pattern) if w)
                cases.append((sizes, weights, z))
        for sizes, weights, z in cases:
            d = build_shift_digraph(sizes, weights, z)
            nodes, edges = brute_force_digraph(len(sizes), weights, z)
            got_nodes = {as_sets(d, i) for i in range(len(d.windows))}
            got_edges = {(as_sets(d, a), as_sets(d, b)) for a, b in d.edges}
            assert got_nodes == {w for w in nodes if within_sizes(w, sizes)}
            assert got_edges <= edges
            for a, b in edges:
                if within_sizes(a, sizes):
                    # absent exactly when the shifted window is over a size
                    assert ((a, b) in got_edges) == within_sizes(b, sizes)
            if all(size == z for size in sizes):
                assert got_nodes == nodes and got_edges == edges

    def test_breadth_first_window_and_edge_order(self):
        # windows are numbered in the order a breadth-first closure from the
        # all-empty window first reaches them, and each source's edges come
        # in ascending order of the slice they shift in
        rng = random.Random(11)
        for _ in range(200):
            d = build_shift_digraph(*random_part(rng))
            sources = [src for src, _ in d.edges]
            assert sources == sorted(sources)
            for src, group in itertools.groupby(d.edges, key=lambda edge: edge[0]):
                masks = [slice_masks(d, dst)[-1] for _, dst in group]
                assert masks == sorted(set(masks)), src
            reached = [d.empty_index]
            for _, dst in d.edges:
                if dst not in reached:
                    reached.append(dst)
            assert reached == list(range(len(d.windows)))

    def test_sixteen_types_build(self):
        # K16 of singleton classes: every slice is empty or one type
        tau = 16
        pairs = list(itertools.combinations(range(tau), 2))
        weights = {pair: 1 for pair in pairs}
        weights.update({(t, t): 1 for t in range(tau)})
        d = build_shift_digraph((1,) * tau, weights, 1)
        # z = 1: a window's code is its one slice
        assert list(d.windows) == [0] + [1 << t for t in range(tau)]
        assert len(d.edges) == (tau + 1) ** 2


class TestOnDemandSuccessors:
    def test_expanded_windows_match_the_full_digraph(self, monkeypatch):
        # every window the walk search works out (an int code, as the
        # digraph holds its windows) is a window of build_shift_digraph, worked
        # out once per search, and the slices of the types its bars allow,
        # less those that take a type past its class size, are that
        # window's out-edges in order; the moves made per set of free types are its independent
        # sets, fullest first, each adding its types' steps to the count code
        rng = random.Random(12)
        expanded = 0
        allowed_of, moves_of, seen = {}, {}, []
        allowed, moves = ShiftClosure.allowed, solver._moves

        def recorded_allowed(self, window):
            seen.append(window)
            allowed_of[window] = allowed(self, window)
            return allowed_of[window]

        def recorded_moves(free, lifted, bits):
            moves_of[free] = moves(free, lifted, bits)
            return moves_of[free]

        def search(span):
            nonlocal expanded
            seen.clear()
            slices, windows = solver._shortest_walk(sizes, weights, closure, span)
            assert len(set(seen)) == len(seen) == windows
            expanded += windows
            return slices

        for _ in range(200):
            sizes, weights, _ = random_part(rng)
            z = max(weights.values())
            closure = ShiftClosure(sizes, weights, z) if len(sizes) > 1 else None
            allowed_of.clear()
            moves_of.clear()
            with monkeypatch.context() as patched:
                patched.setattr(ShiftClosure, "allowed", recorded_allowed)
                patched.setattr(solver, "_moves", recorded_moves)
                least = len(search(None)) - 1
                for span in range(least + 2):
                    assert (search(span) is None) == (span < least)
            d = build_shift_digraph(sizes, weights, z)
            index = {code: node for node, code in enumerate(d.windows)}
            units = [(clash, 1 << t) for t, clash in enumerate(closure.clash)] if closure else []
            for code, allowed_types in allowed_of.items():
                node = index[code]
                kept = as_sets(d, node)[1:]
                slices = [
                    m
                    for m in independent_sets(allowed_types, units)
                    if within_sizes(kept + (frozenset(iter_bits(m)),), sizes)
                ]
                assert slices == [slice_masks(d, d.edges[ei][1])[-1] for ei in d.out_edges[node]]
            # the count code: a size-1 type's bit t, then the other types'
            # mixed-radix digits; a move holds its mask past the full code
            tau, steps, place = len(sizes), [], 1
            for t, size in enumerate(sizes):
                if size == 1:
                    steps.append(1 << t)
                else:
                    steps.append(place << tau)
                    place *= size + 1
            shift = sum(size * step for size, step in zip(sizes, steps)).bit_length()
            for free, made in moves_of.items():
                masks = [move >> shift & closure.slice_mask for move in made]
                assert sorted(masks) == independent_sets(free, units)
                assert masks == sorted(masks, key=int.bit_count, reverse=True)
                for mask, move in zip(masks, made):
                    assert move == mask << shift | sum(steps[t] for t in iter_bits(mask))
        assert expanded > 200


class TestDump:
    def test_edge_list_format(self):
        d = build_shift_digraph(*single_loop_type(2), 2)
        text = dump_digraph(d)
        lines = text.splitlines()
        assert lines[0].startswith("# shift digraph")
        assert "0x0 -> 0x0" in lines[1]
        assert len(lines) == len(d.edges) + 1
