"""Shift-register digraph over windows of consecutive label-slice type sets.

A window is a z-tuple (T1, ..., Tz) of type subsets standing for z consecutive
label positions.  It is valid when every weighted type pair respects the
in-window separations: for an edge (t, r) with t in Ti and r in Tj the
positions must satisfy |i - j| >= w(t, r).  For loops (t == r) only distinct
positions are constrained, since one slice never needs the same type twice.
Only windows that hold each type in at most its class size many coordinates
are built: a labeling uses each type exactly its class size many times, so
no walk can visit any other window.  Directed edges connect windows that
overlap on z-1 positions, so the closed walks through the all-empty window
whose type counts equal the class sizes are exactly the labelings' slice
sequences padded with empty slices on both sides.  ShiftClosure is the
step that closes the all-empty window, which the walk search runs on
demand; build_shift_digraph runs it to closure, numbering windows in
breadth-first order and grouping edges by source window in slice-mask order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .decomposition import TypeGraph
from .errors import GuardExceeded, InternalSolverError

# The walk search's count space, the product of (size + 1) over a part's
# types, is at least 2^tau and has no guard of its own; this bounds it.
_MAX_TYPES = 16


def iter_bits(mask: int):
    """Yield set bit positions of mask in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class ShiftDigraph:
    """Materialized window digraph; immutable and shareable once built."""

    type_count: int
    window_length: int
    windows: tuple[tuple[int, ...], ...]
    edges: tuple[tuple[int, int], ...]

    @property
    def empty_index(self) -> int:
        """Index of the all-empty window; the build places it first."""
        return 0

    @cached_property
    def out_edges(self) -> tuple[tuple[int, ...], ...]:
        out = [[] for _ in self.windows]
        for ei, (src, _) in enumerate(self.edges):
            out[src].append(ei)
        return tuple(tuple(es) for es in out)

    @cached_property
    def in_edges(self) -> tuple[tuple[int, ...], ...]:
        inc = [[] for _ in self.windows]
        for ei, (_, dst) in enumerate(self.edges):
            inc[dst].append(ei)
        return tuple(tuple(es) for es in inc)

    def window_code(self, node: int) -> int:
        """Fixed-width encoding, earlier positions in higher bits."""
        code = 0
        for mask in self.windows[node]:
            code = (code << self.type_count) | mask
        return code


class ShiftClosure:
    """The shift digraph's closure step.  out(node) gives a window's
    out-edges as (next window, new slice) in slice-mask order, numbering
    windows as they are first met (the all-empty one is 0; more than
    max_nodes raises GuardExceeded).  Run on every window in turn it is
    build_shift_digraph; the walk search runs it on the windows it expands."""

    def __init__(self, tg: TypeGraph, z: int, *, max_nodes: int | None = None):
        if z < 1:
            raise ValueError("window length must be positive")
        if tg.weights is None:
            raise ValueError("weighted type graph required")
        tau = tg.node_count
        missing = [t for t in range(tau) if t not in tg.loops]
        if missing:
            raise ValueError(f"type {missing[0]} has no loop; apply reflexivity preprocessing")
        if tau > _MAX_TYPES:
            raise GuardExceeded(
                f"{tau} types exceed the limit of {_MAX_TYPES} on the walk search's count space"
            )
        # conflict[d][t]: types that may not appear d positions away from t
        conflict = [[0] * tau for _ in range(z + 1)]
        for (i, j), w in tg.weights.items():
            if i == j:
                for d in range(1, min(w, z + 1)):
                    conflict[d][i] |= 1 << i
            else:
                for d in range(min(w, z + 1)):
                    conflict[d][i] |= 1 << j
                    conflict[d][j] |= 1 << i
        self.type_count, self.z, self.sizes = tau, z, tg.sizes
        self.conflict, self.max_nodes = conflict, max_nodes
        self.windows = [(0,) * z]
        self.index = {self.windows[0]: 0}

    def out(self, node: int) -> list[tuple[int, int]]:
        w, conflict, z, sizes = self.windows[node], self.conflict, self.z, self.sizes
        # types the new slice z - i positions after slice i may not hold, and
        # no type past its size in the shift
        barred = 0
        counts = [0] * self.type_count
        for i, mask in enumerate(w):
            for t in iter_bits(mask):
                barred |= conflict[z - i][t]
                if i:
                    counts[t] += 1
                    if counts[t] == sizes[t]:
                        barred |= 1 << t
        # the independent sets of conflict[0] within the allowed types: the
        # sets with type t come after all sets of lower types, so the masks
        # ascend
        slices = [0]
        for t in iter_bits(~barred & ((1 << self.type_count) - 1)):
            slices += [m | 1 << t for m in slices if not conflict[0][t] & m]
        edges, head, index, windows = [], w[1:], self.index, self.windows
        for m in slices:
            shifted = head + (m,)
            di = index.get(shifted)
            if di is None:
                di = index[shifted] = len(windows)
                windows.append(shifted)
                if self.max_nodes is not None and len(windows) > self.max_nodes:
                    raise GuardExceeded(f"window count exceeds guard of {self.max_nodes}")
            edges.append((di, m))
        if not node and edges[0] != (0, 0):  # both paths expand the all-empty window first
            raise InternalSolverError("all-empty window lost its self-loop")
        return edges


def build_shift_digraph(tg: TypeGraph, z: int, *, max_nodes: int | None = None) -> ShiftDigraph:
    """Build the valid windows of length z over a reflexive weighted type
    graph that hold no type in more coordinates than its class size, and
    the edges between them.

    A closed walk through the all-empty window visits each type exactly its
    class size many times, one label position per coordinate, so a window
    over a size is on no walk; it is left out, with every edge into or out
    of it.  The digraph is ShiftClosure's step run to closure: every window
    within the sizes is reached by shifting in its own slices one at a time,
    so construction cost tracks the window and edge counts rather than the
    2^(tau*z) candidates.  Windows come in breadth-first order from the
    all-empty one, which is first, and edges are grouped by source window,
    each source's edges in slice-mask order.  max_nodes guards the window
    count as in ShiftClosure.
    """
    closure = ShiftClosure(tg, z, max_nodes=max_nodes)
    # enumerate() also reaches the windows that out() appends
    edges = [(si, di) for si, _ in enumerate(closure.windows) for di, _ in closure.out(si)]
    return ShiftDigraph(closure.type_count, z, tuple(closure.windows), tuple(edges))


def dump_digraph(d: ShiftDigraph) -> str:
    """Text edge list with windows rendered as hex codes."""
    lines = [
        f"# shift digraph: types={d.type_count} z={d.window_length} "
        f"nodes={len(d.windows)} edges={len(d.edges)}"
    ]
    for src, dst in d.edges:
        lines.append(f"{d.window_code(src):#x} -> {d.window_code(dst):#x}")
    return "\n".join(lines)
