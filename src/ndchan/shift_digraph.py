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
The closure keeps a window as one int in window_code's layout (slice i at
bits (z-1-i)*tau), so a shift is a left shift and a bar one AND per type.
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
    """The shift digraph's closure step over int window codes, for a
    TypeGraph's sizes and weights.  Per type r it masks the bits of the
    types closer to a new slice than their weight to r, and, if size(r) < z,
    r's bits in the z - 1 slices a shift keeps; barred(code) tests them.
    independent_sets(allowed) lists the slices of allowed types in ascending
    mask order, and slices(barred) those of the types not barred, memoised
    on this closure; shift(node, masks) numbers the windows they lead to as
    first met (the all-empty one is 0; over max_nodes raises GuardExceeded)."""

    def __init__(self, sizes, weights: dict, z: int, *, max_nodes: int | None = None):
        if z < 1:
            raise ValueError("window length must be positive")
        tau = len(sizes)
        missing = [t for t in range(tau) if (t, t) not in weights]
        if missing:
            raise ValueError(f"type {missing[0]} has no loop; apply reflexivity preprocessing")
        if tau > _MAX_TYPES:
            raise GuardExceeded(
                f"{tau} types exceed the limit of {_MAX_TYPES} on the walk search's count space"
            )
        # newest[k]: the bits of the newest k slices; column: type 0's bits
        newest = [(1 << k * tau) - 1 for k in range(z + 1)]
        column = sum(1 << d * tau for d in range(z))
        bars, clash = [0] * tau, [0] * tau
        for (i, j), w in weights.items():
            near = column & newest[min(w - 1, z)]  # 1 to w - 1 positions back
            bars[i] |= near << j
            bars[j] |= near << i
            if i != j:
                clash[i] |= 1 << j
                clash[j] |= 1 << i
        self.bars = [(1 << r, bar) for r, bar in enumerate(bars) if bar]
        self.sizes, self.type_count, self.z, self.clash = sizes, tau, z, clash
        self.slice_mask, self.window_mask, self.max_nodes = newest[1], newest[z], max_nodes
        self.windows, self.index, self._slices = [0], {0: 0}, {}

    @cached_property
    def size_bars(self) -> list[tuple[int, int, int]]:
        """barred()'s (bit, bits in the z - 1 slices a shift keeps, size) per type under z."""
        keep = sum(1 << d * self.type_count for d in range(self.z - 1))
        return [(1 << r, keep << r, s) for r, s in enumerate(self.sizes) if s < self.z]

    def window(self, node: int) -> tuple[int, ...]:
        """The window's slice masks, oldest first."""
        code, tau = self.windows[node], self.type_count
        return tuple(code >> (self.z - 1 - i) * tau & self.slice_mask for i in range(self.z))

    def barred(self, code: int) -> int:
        barred = 0
        for bit, bar in self.bars:
            if code & bar:
                barred |= bit
        for bit, keep, size in self.size_bars:
            if (code & keep).bit_count() >= size:
                barred |= bit
        return barred

    def slices(self, barred: int) -> list[int]:
        slices = self._slices.get(barred)
        if slices is None:
            slices = self._slices[barred] = self.independent_sets(~barred & self.slice_mask)
        return slices

    def independent_sets(self, allowed: int) -> list[int]:
        # the sets of allowed types with no two of them adjacent (a clash);
        # the sets with type t come after all sets of lower types
        sets = [0]
        for t in iter_bits(allowed):
            sets += [m | 1 << t for m in sets if not self.clash[t] & m]
        return sets

    def shift(self, node: int, masks) -> list[int]:
        head = self.windows[node] << self.type_count & self.window_mask
        dsts, index, windows = [], self.index, self.windows
        for m in masks:
            code = head | m
            di = index.get(code)
            if di is None:
                di = index[code] = len(windows)
                windows.append(code)
                if self.max_nodes is not None and len(windows) > self.max_nodes:
                    raise GuardExceeded(f"window count exceeds guard of {self.max_nodes}")
            dsts.append(di)
        if not node and (0 not in masks or dsts[masks.index(0)]):
            raise InternalSolverError("all-empty window lost its self-loop")
        return dsts


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
    closure = ShiftClosure(tg.sizes, tg.weights, z, max_nodes=max_nodes)
    # enumerate() also reaches the windows that shift() appends
    edges = [
        (si, di)
        for si, code in enumerate(closure.windows)
        for di in closure.shift(si, closure.slices(closure.barred(code)))
    ]
    windows = tuple(closure.window(node) for node in range(len(closure.windows)))
    return ShiftDigraph(closure.type_count, z, windows, tuple(edges))


def dump_digraph(d: ShiftDigraph) -> str:
    """Text edge list with windows rendered as hex codes."""
    lines = [
        f"# shift digraph: types={d.type_count} z={d.window_length} "
        f"nodes={len(d.windows)} edges={len(d.edges)}"
    ]
    for src, dst in d.edges:
        lines.append(f"{d.window_code(src):#x} -> {d.window_code(dst):#x}")
    return "\n".join(lines)
