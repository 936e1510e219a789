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
separation bars and per-type clash masks of the step that closes the
all-empty window, and allowed(window) gives the types a new slice may hold
after a window; independent_sets lists the slices of a set of types.  The
walk search and build_shift_digraph both step with these two, and
build_shift_digraph adds the class-size bars on top and runs the step to
closure, numbering windows in breadth-first order and grouping edges by
source window in slice-mask order.
A window is one int in window_code's layout (slice i at bits (z-1-i)*tau),
so a shift is a left shift and a bar one AND per type.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

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


def independent_sets(free: int, lifted) -> list[int]:
    """The sets of free types no two of which clash, each the sum of its
    types' terms.  Per type t, lifted[t] is (t's clash mask, t's term),
    lifted alike: a set's sum holds its type mask where the clash masks
    look.  The sets with type t come after all sets of lower types, so with
    the terms 1 << t they are the slice masks in ascending order."""
    sets = [0]
    for t in iter_bits(free):
        clash, term = lifted[t]
        sets += [m + term for m in sets if not clash & m]
    return sets


class ShiftClosure:
    """What the walk search reads of the shift digraph's closure step, for
    a part's sizes and weights, over int window codes.  Per type r, bars
    holds the bits of the types closer to a new slice than their weight to
    r, and clash[r] the types that may not share a slice with r.  The
    class-size bars and the window numbering are build_shift_digraph's
    alone: the search's counts imply the size bars, and its states hold
    windows as unnumbered codes.  The weights must be reflexive and valid,
    as the front end's parts are; build_shift_digraph checks a caller's.
    More than 16 types raise GuardExceeded."""

    def __init__(self, sizes, weights: dict, z: int):
        tau = len(sizes)
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

    def allowed(self, window: int) -> int:
        """The types the bars allow in the slice shifted in after window."""
        barred = 0
        for bit, bar in self.bars:
            if window & bar:
                barred |= bit
        return self.slice_mask & ~barred


def build_shift_digraph(
    sizes, weights: dict, z: int, *, max_nodes: int | None = None
) -> ShiftDigraph:
    """Build the valid windows of length z over a reflexive weighted type
    graph, given as a part is (class sizes, and weights keyed (i, j) with
    i <= j), that hold no type in more coordinates than its class size, and
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
    raise GuardExceeded.  A window length below 1, a class size below 1, a
    type pair out of range or not normalized, a weight that is no positive
    integer, or a type without a loop raise ValueError.
    """
    tau = len(sizes)
    if z < 1:
        raise ValueError("window length must be positive")
    if min(sizes, default=1) < 1:
        raise ValueError("class sizes must be positive")
    for (i, j), w in weights.items():
        if not 0 <= i <= j < tau:
            raise ValueError(f"type pair {(i, j)} out of range or not normalized")
        if not isinstance(w, int) or w < 1:
            raise ValueError("type weights must be positive integers")
    missing = [t for t in range(tau) if (t, t) not in weights]
    if missing:
        raise ValueError(f"type {missing[0]} has no loop; apply reflexivity preprocessing")
    closure = ShiftClosure(sizes, weights, z)
    slice_mask = closure.slice_mask
    units = [(clash, 1 << t) for t, clash in enumerate(closure.clash)]
    keep = sum(1 << d * tau for d in range(z - 1))
    size_bars = [(1 << r, keep << r, s) for r, s in enumerate(sizes) if s < z]
    windows, index, slices_of, edges = [0], {0: 0}, {}, []
    for si, code in enumerate(windows):  # also reaches the windows appended below
        allowed = closure.allowed(code)
        for bit, kept, size in size_bars:
            if (code & kept).bit_count() >= size:
                allowed &= ~bit
        slices = slices_of.get(allowed)
        if slices is None:
            slices = slices_of[allowed] = independent_sets(allowed, units)
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
