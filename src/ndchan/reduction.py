"""Reduce distance-constrained labeling to channel assignment on a graph power."""

from __future__ import annotations

from dataclasses import dataclass

from .graph import Graph, WeightedGraph, all_pairs_distance


@dataclass(frozen=True)
class DistanceConstraints:
    """Separation requirements (p1, ..., pk) indexed by hop distance."""

    values: tuple[int, ...]

    def __post_init__(self):
        if not self.values:
            raise ValueError("at least one distance constraint is required")
        if any(not isinstance(p, int) or p < 1 for p in self.values):
            raise ValueError("distance constraints must be positive integers")

    @classmethod
    def parse(cls, text: str) -> "DistanceConstraints":
        try:
            return cls(tuple(int(part) for part in text.split(",")))
        except ValueError as exc:
            raise ValueError(f"cannot parse distance constraints from {text!r}") from exc


def labeling_to_ca(g: Graph, constraints: DistanceConstraints) -> WeightedGraph:
    """Weighted instance on the k-th power: pairs at distance i get weight p_i.

    Pairs farther than k (or in different components) impose no constraint and
    produce no edge.
    """
    values = constraints.values
    k = len(values)
    weights = {}
    for u, row in enumerate(all_pairs_distance(g)):
        for v in range(u + 1, g.n):
            d = row[v]
            if d <= k:  # pairs u < v are distinct and normalized already
                weights[(u, v)] = values[d - 1]
    return WeightedGraph(Graph(g.n, frozenset(weights)), weights)

