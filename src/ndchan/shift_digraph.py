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
sequences padded with empty slices on both sides.  ShiftClosure holds the
separation bars and slice lists of the step that closes the all-empty
window, which the walk search reads on demand; build_shift_digraph adds
the class-size bars and runs the step to closure, numbering windows in
breadth-first order and grouping edges by source window in slice-mask order.
A window is one int in window_code's layout (slice i at bits (z-1-i)*tau),
so a shift is a left shift and a bar one AND per type.
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
    """What the walk search reads of the shift digraph's closure step, for
    a part's sizes and weights, over int window codes.  Per type r, bars
    holds the bits of the types closer to a new slice than their weight to
    r, and independent_sets(allowed) lists the slices of allowed types in
    ascending mask order.  The class-size bars and the window numbering are
    build_shift_digraph's alone: the search's counts imply the size bars,
    and its states hold windows as unnumbered codes."""

    def __init__(self, sizes, weights: dict, z: int):
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
        self.type_count, self.clash = tau, clash
        self.slice_mask, self.window_mask = newest[1], newest[z]

    def independent_sets(self, allowed: int) -> list[int]:
        # the sets of allowed types with no two of them adjacent (a clash);
        # the sets with type t come after all sets of lower types
        sets = [0]
        for t in iter_bits(allowed):
            sets += [m | 1 << t for m in sets if not self.clash[t] & m]
        return sets


def build_shift_digraph(tg: TypeGraph, z: int, *, max_nodes: int | None = None) -> ShiftDigraph:
    """Build the valid windows of length z over a reflexive weighted type
    graph that hold no type in more coordinates than its class size, and
    the edges between them.

    A closed walk through the all-empty window visits each type exactly its
    class size many times, one label position per coordinate, so a window
    over a size is on no walk; it is left out, with every edge into or out
    of it.  The digraph is ShiftClosure's step run to closure: a window
    bars the types its bars hit and, where size(r) < z, a type r held at
    its size in the z - 1 slices a shift keeps; every window within the
    sizes is reached by shifting in its own slices one at a time, so
    construction cost tracks the window and edge counts rather than the
    2^(tau*z) candidates.  Windows come in breadth-first order from the
    all-empty one, which is first, and edges are grouped by source window,
    each source's edges in slice-mask order.  More than max_nodes windows
    raise GuardExceeded.
    """
    closure = ShiftClosure(tg.sizes, tg.weights, z)
    tau, slice_mask = closure.type_count, closure.slice_mask
    keep = sum(1 << d * tau for d in range(z - 1))
    size_bars = [(1 << r, keep << r, s) for r, s in enumerate(tg.sizes) if s < z]
    windows, index, slices_of, edges = [0], {0: 0}, {}, []
    for si, code in enumerate(windows):  # also reaches the windows appended below
        barred = 0
        for bit, bar in closure.bars:
            if code & bar:
                barred |= bit
        for bit, kept, size in size_bars:
            if (code & kept).bit_count() >= size:
                barred |= bit
        slices = slices_of.get(barred)
        if slices is None:
            slices = slices_of[barred] = closure.independent_sets(~barred & slice_mask)
        head = code << tau & closure.window_mask
        for m in slices:
            di = index.get(head | m)
            if di is None:
                di = index[head | m] = len(windows)
                windows.append(head | m)
                if max_nodes is not None and len(windows) > max_nodes:
                    raise GuardExceeded(f"window count exceeds guard of {max_nodes}")
            edges.append((si, di))
    if edges[0] != (0, 0):
        raise InternalSolverError("all-empty window lost its self-loop")
    return ShiftDigraph(
        tau,
        z,
        tuple(tuple(code >> (z - 1 - i) * tau & slice_mask for i in range(z)) for code in windows),
        tuple(edges),
    )


def dump_digraph(d: ShiftDigraph) -> str:
    """Text edge list with windows rendered as hex codes."""
    lines = [
        f"# shift digraph: types={d.type_count} z={d.window_length} "
        f"nodes={len(d.windows)} edges={len(d.edges)}"
    ]
    for src, dst in d.edges:
        lines.append(f"{d.window_code(src):#x} -> {d.window_code(dst):#x}")
    return "\n".join(lines)
