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
sequences padded with empty slices on both sides.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .decomposition import TypeGraph
from .errors import GuardExceeded, InternalSolverError

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


def build_shift_digraph(tg: TypeGraph, z: int, *, max_nodes: int | None = None) -> ShiftDigraph:
    """Enumerate the valid windows of length z over a reflexive weighted type
    graph that hold no type in more coordinates than its class size.

    A closed walk through the all-empty window visits each type exactly its
    class size many times, one label position per coordinate, so a window
    over a size is on no walk; it is left out, with every edge into or out
    of it.  Only valid prefixes within the sizes are extended, so
    construction cost tracks the window count rather than the full
    2^(tau*z) candidate space.  Windows come in lexicographic order of
    their slice masks, the all-empty one first, and edges in order of
    their source windows.  max_nodes is a resource guard on the window
    count: exceeding it raises GuardExceeded.
    """
    if z < 1:
        raise ValueError("window length must be positive")
    if tg.weights is None:
        raise ValueError("weighted type graph required")
    tau = tg.node_count
    missing = [t for t in range(tau) if t not in tg.loops]
    if missing:
        raise ValueError(f"type {missing[0]} has no loop; apply reflexivity preprocessing")
    if tau > _MAX_TYPES:
        raise GuardExceeded(f"{tau} types exceed the materialization limit of {_MAX_TYPES}")

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

    size = 1 << tau
    confmask = []
    for d in range(z + 1):
        row = [0] * size
        cd = conflict[d]
        for m in range(1, size):
            low = m & -m
            row[m] = row[m ^ low] | cd[low.bit_length() - 1]
        confmask.append(row)

    position_sets = [m for m in range(size) if confmask[0][m] & m == 0]
    sizes = tg.sizes

    windows: list[tuple[int, ...]] = []
    # per window, the types its last z-1 slices hold at their class size
    tail_full: list[int] = []
    prefix = [0] * z
    counts = [0] * tau

    def extend(depth: int, full: int):
        # full: the types the prefix already holds at their class size
        if depth == z:
            windows.append(tuple(prefix))
            tail_full.append(full & ~prefix[0])
            if max_nodes is not None and len(windows) > max_nodes:
                raise GuardExceeded(f"window count exceeds guard of {max_nodes}")
            return
        for m in position_sets:
            if m & full:
                continue
            for i in range(depth):
                if confmask[depth - i][prefix[i]] & m:
                    break
            else:
                prefix[depth] = m
                next_full = full
                for t in iter_bits(m):
                    counts[t] += 1
                    if counts[t] == sizes[t]:
                        next_full |= 1 << t
                extend(depth + 1, next_full)
                for t in iter_bits(m):
                    counts[t] -= 1

    extend(0, 0)
    index = {w: i for i, w in enumerate(windows)}
    if windows[0] != (0,) * z:
        raise InternalSolverError("all-empty window missing or misplaced")

    edges: list[tuple[int, int]] = []
    slice_row = confmask[z]
    for si, w in enumerate(windows):
        tail = w[1:]
        # the (z+1)-slice separation, and no type past its size in the shift
        barred = slice_row[w[0]] | tail_full[si]
        for m in position_sets:
            if barred & m:
                continue
            ok = True
            for i in range(1, z):
                if confmask[z - i][w[i]] & m:
                    ok = False
                    break
            if not ok:
                continue
            di = index.get(tail + (m,))
            if di is None:
                raise InternalSolverError("shifted window escaped the node set")
            edges.append((si, di))

    d = ShiftDigraph(tau, z, tuple(windows), tuple(edges))
    if (0, 0) not in d.edges:
        raise InternalSolverError("all-empty window lost its self-loop")
    return d


def dump_digraph(d: ShiftDigraph) -> str:
    """Text edge list with windows rendered as hex codes."""
    lines = [
        f"# shift digraph: types={d.type_count} z={d.window_length} "
        f"nodes={len(d.windows)} edges={len(d.edges)}"
    ]
    for src, dst in d.edges:
        lines.append(f"{d.window_code(src):#x} -> {d.window_code(dst):#x}")
    return "\n".join(lines)
