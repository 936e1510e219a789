"""Spans around the library's layer boundaries, for the traced run only.

The tracer replaces a function by a recording wrapper under every name an
ndchan module binds it to, so calls the solver makes internally are
recorded too, and puts the originals back afterwards.  Nothing in the
library changes.  A span is (name, start ns, end ns, parent span, instance);
spans stay in memory until the run ends.  A layer's time is the self time
of its spans: duration minus the time covered by child spans.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter

from ndchan.errors import GuardExceeded

# (defining module, function); a module is a layer.  _all_violated_cuts is
# the one private name: the solve loop separates its connectivity cuts
# there.  A name the library no longer has stops the run.
WRAPPED = (
    ("ndchan.decomposition", "nd_partition"),
    ("ndchan.decomposition", "min_vertex_cover"),
    ("ndchan.decomposition", "vc_partition"),
    ("ndchan.decomposition", "refine_uniform"),
    ("ndchan.decomposition", "check_uniform"),
    ("ndchan.reduction", "labeling_to_ca"),
    ("ndchan.shift_digraph", "build_shift_digraph"),
    ("ndchan.ilp", "solve_feasibility"),
    ("ndchan.ilp", "relaxation_point"),
    ("ndchan.ilp", "refute_by_certificate"),
    ("ndchan.ilp", "add_constraint"),
    ("ndchan.solver", "preprocess_reflexive"),
    ("ndchan.solver", "build_flow_model"),
    ("ndchan.solver", "solve_flow"),
    ("ndchan.solver", "connectivity_violation"),
    ("ndchan.solver", "_all_violated_cuts"),
    ("ndchan.solver", "euler_walk"),
    ("ndchan.solver", "walk_to_labeling"),
    ("ndchan.solver", "solve_ca_uniform"),
    ("ndchan.solver", "solve_ca_vc"),
    ("ndchan.solver", "minimize_span"),
    ("ndchan.solver", "solve_labeling"),
    ("ndchan.graph", "connected_components"),
    ("ndchan.graph", "trivial_upper_bound"),
    ("ndchan.graph", "verify_assignment"),
)

# per-layer metric -> functions whose self time it sums
TIMES = {
    "ilp.search_s": ("solve_feasibility",),
    "ilp.lp_s": ("relaxation_point",),
    "ilp.certificate_s": ("refute_by_certificate",),
    "solver.model_s": ("build_flow_model", "add_constraint"),
    "shift_digraph.s": ("build_shift_digraph",),
    "decomposition.s": (
        "nd_partition",
        "min_vertex_cover",
        "vc_partition",
        "refine_uniform",
        "check_uniform",
    ),
    "solver.cut_separation_s": ("connectivity_violation", "_all_violated_cuts"),
    "solver.flow_self_s": ("solve_flow",),
    "solver.decode_s": ("euler_walk", "walk_to_labeling"),
    # both reductions: labeling to channel assignment, and the type graph
    # made reflexive (the one step every solve takes)
    "reduction.s": ("labeling_to_ca", "preprocess_reflexive"),
    # verify_assignment is off the solve path today; the graph functions the
    # solve path does call keep the layer's time from reading zero
    "graph.s": ("connected_components", "trivial_upper_bound", "verify_assignment"),
}

# counts that must repeat exactly between traced passes of one corpus
COUNTS = (
    "ilp.search_calls",
    "ilp.certificate_calls",
    "ilp.bb_nodes",
    "ilp.lp_calls",
    "solver.add_constraint_calls",
    "shift_digraph.windows",
    "shift_digraph.edges",
    "solver.pruned_windows",
    "solver.pruned_edges",
    "decomposition.types",
    "solver.probes",
    "solver.infeasible_probes",
    "solver.cuts",
)
RATIOS = ("ilp.budget_overrun_ratio", "ilp.certificate_hit_ratio")

UNITS = {
    **{name: "s" for name in TIMES},
    **{name: "count" for name in COUNTS},
    **{name: "ratio" for name in RATIOS},
    "trace.overhead_share": "ratio",
}


def _solve_feasibility_before(counts, args, kwargs):
    if kwargs.get("stats_out") is None:
        kwargs["stats_out"] = {}
    return kwargs["stats_out"].get("nodes", 0)


def _solve_feasibility_after(counts, args, kwargs, nodes_before, result, exc):
    counts["ilp.search_calls"] += 1
    counts["ilp.bb_nodes"] += kwargs["stats_out"].get("nodes", 0) - nodes_before
    if kwargs.get("max_nodes") is not None:
        counts["budgeted_calls"] += 1
        if isinstance(exc, GuardExceeded):
            counts["budget_overruns"] += 1


def _count_model_digraph(counts, args, kwargs):
    d = args[0] if args else kwargs["d"]
    counts["solver.pruned_windows"] += len(d.windows)
    counts["solver.pruned_edges"] += len(d.edges)


def _count_digraph(counts, args, kwargs, token, result, exc):
    if exc is None:
        counts["shift_digraph.windows"] += len(result.windows)
        counts["shift_digraph.edges"] += len(result.edges)


def _count_lp(counts, args, kwargs, token, result, exc):
    # an LP is solved whatever its outcome (an infeasible one gives no
    # point); without scipy, or without variables, none is
    model = args[0] if args else kwargs["model"]
    if model.var_count > 0 and "scipy.optimize" in sys.modules:
        counts["ilp.lp_calls"] += 1


def _count_after(key, predicate=None):
    def after(counts, args, kwargs, token, result, exc):
        if exc is None:
            counts[key] += 1
            if predicate is not None and predicate(result):
                counts[key + ".hits"] += 1

    return after


HOOKS = {
    "solve_feasibility": (_solve_feasibility_before, _solve_feasibility_after),
    # the digraph handed to the model build, after span pruning
    "build_flow_model": (_count_model_digraph, None),
    "build_shift_digraph": (None, _count_digraph),
    "relaxation_point": (None, _count_lp),
    "refute_by_certificate": (None, _count_after("certificate", lambda proved: proved)),
    "add_constraint": (None, _count_after("solver.add_constraint_calls")),
    "solve_flow": (None, _count_after("solver.probes", lambda ms: ms is None)),
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.instance = None
        self._patches: list[tuple] = []
        self._originals = []
        for module_name, name in WRAPPED:
            original = getattr(importlib.import_module(module_name), name, None)
            if original is None:
                raise SystemExit(f"bench: {module_name}.{name} is gone; update WRAPPED")
            self._originals.append((name, original))

    def _wrap(self, name, fn):
        spans = self.spans
        stack = self.stack
        counts = self.counts
        clock = time.perf_counter_ns
        before, after = HOOKS.get(name, (None, None))

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            token = before(counts, args, kwargs) if before else None
            index = len(spans)
            spans.append([name, clock(), 0, stack[-1] if stack else -1, self.instance])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                spans[index][2] = clock()
                stack.pop()
                if after:
                    after(counts, args, kwargs, token, None, exc)
                raise
            spans[index][2] = clock()
            stack.pop()
            if after:
                after(counts, args, kwargs, token, result, None)
            return result

        return wrapper

    def install(self):
        modules = [m for key, m in sys.modules.items() if key.split(".")[0] == "ndchan"]
        for name, original in self._originals:
            wrapper = self._wrap(name, original)
            for module in modules:
                if getattr(module, name, None) is original:
                    setattr(module, name, wrapper)
                    self._patches.append((module, name, original))

    def uninstall(self):
        while self._patches:
            module, name, original = self._patches.pop()
            setattr(module, name, original)

    def reset(self):
        """Start a new pass: fresh counters and span list."""
        self.spans.clear()
        self.stack.clear()
        self.counts.clear()

    def pass_metrics(self, stats) -> dict:
        """Per-layer metrics of the pass just traced; stats are the
        SolveStats of its instances."""
        spans = self.spans
        covered = [0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                covered[parent] += end - start
        self_ns = Counter()
        for i, (name, start, end, _, _) in enumerate(spans):
            self_ns[name] += end - start - covered[i]
        out = {
            metric: sum(self_ns[name] for name in names) / 1e9
            for metric, names in TIMES.items()
        }
        c = self.counts
        out.update({key: c[key] for key in COUNTS})
        out["ilp.certificate_calls"] = c["certificate"]
        out["solver.infeasible_probes"] = c["solver.probes.hits"]
        out["solver.cuts"] = sum(s.cuts_added for s in stats if s is not None)
        out["decomposition.types"] = sum(s.types or 0 for s in stats if s is not None)
        out["ilp.budget_overrun_ratio"] = _ratio(c["budget_overruns"], c["budgeted_calls"])
        out["ilp.certificate_hit_ratio"] = _ratio(c["certificate.hits"], c["certificate"])
        return out


def _ratio(part, whole):
    return part / whole if whole else 0.0


def combine(passes: list[dict]) -> tuple[dict, list[str]]:
    """Each time is its smallest over the traced passes, as for end-to-end
    times; counts must agree exactly."""
    out = {}
    problems = []
    for key in passes[0]:
        values = [p[key] for p in passes]
        if key in TIMES:
            out[key] = min(values)
        else:
            if len(set(values)) != 1:
                problems.append(f"{key} differs between traced passes: {values}")
            out[key] = values[0]
    return out, problems
