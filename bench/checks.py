"""Answer checks, run outside every timed region.

Nothing here calls the solver's own verification: labelings are scanned
against the raw instance, L(p) labelings against hop distances from a
breadth-first search of the original graph, and least spans against a
backtracking search or a closed form.  Each check returns None when the
answer is right and a one-line reason otherwise.
"""

from __future__ import annotations

from collections import deque

from ndchan.oracle import brute_force_ca

ORACLE_GUARD = 10**10


def scan_assignment(wg, labeling, span):
    """Channel assignment constraints, edge by edge."""
    labels = labeling.labels
    if labeling.span != span:
        return f"labeling reports span {labeling.span}, expected {span}"
    if len(labels) != wg.graph.n:
        return f"{len(labels)} labels for {wg.graph.n} vertices"
    for v, lab in enumerate(labels):
        if not isinstance(lab, int) or not 0 <= lab <= span:
            return f"vertex {v} has label {lab!r} outside [0, {span}]"
    for (u, v), w in wg.weights.items():
        if abs(labels[u] - labels[v]) < w:
            return f"edge ({u}, {v}) of weight {w} has labels {labels[u]}, {labels[v]}"
    return None


def hop_distances(n, edges):
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    dist = []
    for s in range(n):
        row = [None] * n
        row[s] = 0
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for v in adj[u]:
                if row[v] is None:
                    row[v] = row[u] + 1
                    queue.append(v)
        dist.append(row)
    return dist


def _requirements(g, p):
    """Per vertex, the (other vertex, separation) pairs L(p) demands."""
    dist = hop_distances(g.n, sorted(g.edges))
    need = [[] for _ in range(g.n)]
    for u in range(g.n):
        for v in range(g.n):
            d = dist[u][v]
            if u != v and d is not None and d <= len(p):
                need[u].append((v, p[d - 1]))
    return need


def scan_lp_labeling(g, p, labeling, span):
    """L(p) constraints on the original graph, pair by pair."""
    labels = labeling.labels
    if labeling.span != span or len(labels) != g.n:
        return f"labeling has span {labeling.span} and {len(labels)} labels"
    if any(not isinstance(lab, int) or not 0 <= lab <= span for lab in labels):
        return f"labels {labels} leave [0, {span}]"
    for u, pairs in enumerate(_requirements(g, p)):
        for v, sep in pairs:
            if abs(labels[u] - labels[v]) < sep:
                return f"vertices {u}, {v} need {sep} apart, have {labels[u]}, {labels[v]}"
    return None


def lp_feasible(g, p, span) -> bool:
    """Backtracking search for an L(p) labeling of span `span`."""
    need = _requirements(g, p)
    labels = [-1] * g.n

    def place(v):
        if v == g.n:
            return True
        for value in range(span + 1):
            if all(labels[u] < 0 or abs(value - labels[u]) >= sep for u, sep in need[v]):
                labels[v] = value
                if place(v + 1):
                    return True
        labels[v] = -1
        return False

    return place(0)


def lp_min_span(g, p) -> int:
    span = 0
    while not lp_feasible(g, p, span):
        span += 1
    return span


def check(inst, answer):
    """Reason the answer to one instance is wrong, or None."""
    if inst.kind == "decide":
        oracle = brute_force_ca(inst.wg, inst.span, guard=ORACLE_GUARD)
        if (answer is None) != (oracle is None):
            return f"verdict {'infeasible' if answer is None else 'feasible'} disagrees with the oracle"
        return None if answer is None else scan_assignment(inst.wg, answer, inst.span)
    span, labeling = answer
    if inst.kind == "vc":
        # a connected bipartite instance needs exactly its largest weight
        if span != inst.wg.wmax:
            return f"least span {span}, expected wmax {inst.wg.wmax}"
        return scan_assignment(inst.wg, labeling, span)
    expected = inst.expected_span
    if expected is None:
        expected = lp_min_span(inst.graph, inst.p)
    if span != expected:
        return f"least span {span}, expected {expected}"
    return scan_lp_labeling(inst.graph, inst.p, labeling, span)
