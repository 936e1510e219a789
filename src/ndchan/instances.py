"""Instance parsing and result serialization.

Two input formats are accepted: a JSON object

    {"n": 4, "edges": [[0, 1, 2], [1, 2]], "lambda": 3, "p": [2, 1]}

with 0-based vertex ids and optional per-edge weights (default 1), and a
DIMACS-like text format with 1-based ids:

    c comment
    p edge 4 2
    e 1 2 2
    e 2 3

Results are emitted as a single JSON object with fixed field names.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .errors import InstanceFormatError
from .graph import Graph, WeightedGraph, normalize_edge


@dataclass(frozen=True)
class InstanceFile:
    n: int
    edges: tuple[tuple[int, int, int], ...]
    span: int | None = None
    constraints: tuple[int, ...] | None = None

    def graph(self) -> Graph:
        return Graph.from_edges(self.n, [(u, v) for u, v, _ in self.edges])

    def weighted_graph(self) -> WeightedGraph:
        return WeightedGraph.from_edges(self.n, self.edges)


_STAT_KEYS = ("nd", "types", "digraph_nodes", "cuts_added", "solve_ms")


def parse_instance(text: str) -> InstanceFile:
    """Parse JSON or DIMACS-like text into a validated instance."""
    stripped = text.lstrip()
    if not stripped:
        raise InstanceFormatError("empty instance")
    if stripped.startswith("{"):
        return _parse_json(text)
    return _parse_dimacs(text)


def _require_int(value, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise InstanceFormatError(f"{what} must be an integer, got {value!r}")
    return value


def _validate_edge(n: int, u: int, v: int, w: int, where: str, seen: set):
    if u == v:
        raise InstanceFormatError(f"{where}: self-loop at vertex {u}")
    if not (0 <= u < n and 0 <= v < n):
        raise InstanceFormatError(f"{where}: vertex id out of range [0, {n})")
    if w < 1:
        raise InstanceFormatError(f"{where}: weight must be at least 1, got {w}")
    e = normalize_edge(u, v)
    if e in seen:
        raise InstanceFormatError(f"{where}: duplicate edge {e}")
    seen.add(e)
    return e + (w,)


def _parse_json(text: str) -> InstanceFile:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InstanceFormatError(f"invalid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise InstanceFormatError("instance must be a JSON object")
    unknown = set(data) - {"n", "edges", "lambda", "p"}
    if unknown:
        raise InstanceFormatError(f"unknown field(s): {', '.join(sorted(unknown))}")
    if "n" not in data:
        raise InstanceFormatError("missing field 'n'")
    n = _require_int(data["n"], "field 'n'")
    if n < 0:
        raise InstanceFormatError("field 'n' must be nonnegative")
    raw_edges = data.get("edges", [])
    if not isinstance(raw_edges, list):
        raise InstanceFormatError("field 'edges' must be a list")
    seen: set = set()
    edges = []
    for idx, item in enumerate(raw_edges):
        where = f"edges[{idx}]"
        if not isinstance(item, list) or len(item) not in (2, 3):
            raise InstanceFormatError(f"{where}: expected [u, v] or [u, v, w]")
        u = _require_int(item[0], f"{where} endpoint")
        v = _require_int(item[1], f"{where} endpoint")
        w = _require_int(item[2], f"{where} weight") if len(item) == 3 else 1
        edges.append(_validate_edge(n, u, v, w, where, seen))
    span = None
    if "lambda" in data:
        span = _require_int(data["lambda"], "field 'lambda'")
        if span < 0:
            raise InstanceFormatError("field 'lambda' must be nonnegative")
    constraints = None
    if "p" in data:
        if not isinstance(data["p"], list) or not data["p"]:
            raise InstanceFormatError("field 'p' must be a nonempty list")
        constraints = tuple(
            _require_int(p, f"p[{i}]") for i, p in enumerate(data["p"])
        )
        if any(p < 1 for p in constraints):
            raise InstanceFormatError("entries of 'p' must be positive")
    return InstanceFile(n, tuple(sorted(edges)), span, constraints)


def _parse_dimacs(text: str) -> InstanceFile:
    n = None
    declared_edges = None
    seen: set = set()
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        fields = line.split()
        if fields[0] == "p":
            if n is not None:
                raise InstanceFormatError(f"line {lineno}: repeated problem line")
            if len(fields) != 4 or fields[1] != "edge":
                raise InstanceFormatError(
                    f"line {lineno}: expected 'p edge <n> <m>'"
                )
            try:
                n = int(fields[2])
                declared_edges = int(fields[3])
            except ValueError as exc:
                raise InstanceFormatError(f"line {lineno}: {exc}") from exc
            if n < 0 or declared_edges < 0:
                raise InstanceFormatError(f"line {lineno}: negative counts")
        elif fields[0] == "e":
            if n is None:
                raise InstanceFormatError(
                    f"line {lineno}: edge before the problem line"
                )
            if len(fields) not in (3, 4):
                raise InstanceFormatError(f"line {lineno}: expected 'e <u> <v> [w]'")
            try:
                u = int(fields[1]) - 1
                v = int(fields[2]) - 1
                w = int(fields[3]) if len(fields) == 4 else 1
            except ValueError as exc:
                raise InstanceFormatError(f"line {lineno}: {exc}") from exc
            edges.append(_validate_edge(n, u, v, w, f"line {lineno}", seen))
        else:
            raise InstanceFormatError(f"line {lineno}: unknown line type {fields[0]!r}")
    if n is None:
        raise InstanceFormatError("missing problem line 'p edge <n> <m>'")
    if declared_edges != len(edges):
        raise InstanceFormatError(
            f"problem line declares {declared_edges} edges, found {len(edges)}"
        )
    return InstanceFile(n, tuple(sorted(edges)))


def emit_instance(instance: InstanceFile) -> str:
    """Canonical JSON form; parse(emit(parse(text))) == parse(text)."""
    payload: dict = {"n": instance.n, "edges": [list(e) for e in instance.edges]}
    if instance.span is not None:
        payload["lambda"] = instance.span
    if instance.constraints is not None:
        payload["p"] = list(instance.constraints)
    return json.dumps(payload)


def emit_result(feasible: bool, span: int, labels, stats: dict, minimized_span=None) -> str:
    """The result object; stats are read under _STAT_KEYS, 0 where absent."""
    payload = {
        "feasible": feasible,
        "lambda": span,
        "labels": list(labels) if labels is not None else None,
        "stats": {key: stats.get(key, 0) for key in _STAT_KEYS},
    }
    if minimized_span is not None:
        payload["lambda_min"] = minimized_span
    return json.dumps(payload)
