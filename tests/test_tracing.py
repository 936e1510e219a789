"""The benchmark's tracer wraps library functions by name, and bench/
imports library names at set-up; each must exist.

bench/run.py --trace 1 stops on a wrapped name the library no longer has,
and every bench run stops on an import that fails, so a change that drops
one fails here first.  The tests only read bench/.
"""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

from ndchan import (
    SolveStats,
    WeightedGraph,
    build_shift_digraph,
    minimize_span,
    nd_partition,
    solve_ca_uniform,
    solver,
)

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def load_tracing(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ as it is
    spec = importlib.util.spec_from_file_location("_bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_wrapped_name_exists(monkeypatch):
    tracing = load_tracing(monkeypatch)
    assert tracing.WRAPPED
    missing = [
        (module, name)
        for module, name in tracing.WRAPPED
        if not callable(getattr(importlib.import_module(module), name, None))
    ]
    assert missing == []
    # every layer's timed functions are among the wrapped ones
    wrapped = {name for _, name in tracing.WRAPPED}
    assert {name for names in tracing.TIMES.values() for name in names} <= wrapped


def test_condensation_and_reduction_layers_are_timed(monkeypatch):
    # the solve path condenses through check_uniform and reduces through
    # preprocess_reflexive, the names the tracer wraps, so one uniform and
    # one vc solve each record one span of both, and both layers read > 0
    tracing = load_tracing(monkeypatch)
    wg = WeightedGraph.from_edges(5, [(0, 1, 2), (0, 2, 2), (1, 2, 2), (2, 3, 1), (3, 4, 3)])
    partition = nd_partition(wg.graph)
    stats = [SolveStats(), SolveStats()]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert solve_ca_uniform(wg, partition, 6, stats=stats[0]) is not None
        assert minimize_span(wg, "vc", stats=stats[1])[1] is not None
    finally:
        tracer.uninstall()
    names = [span[0] for span in tracer.spans]
    assert names.count("check_uniform") == names.count("preprocess_reflexive") == 2
    metrics = tracer.pass_metrics(stats)
    assert metrics["decomposition.s"] > 0 and metrics["reduction.s"] > 0


def test_flow_hooks_read_the_model_build(monkeypatch):
    # solve_flow builds its model once per probe, on the pruned digraph, so
    # the build's hook counts that digraph's windows; K3 at span 3 is
    # refuted by the certificate alone where scipy is installed
    tracing = load_tracing(monkeypatch)
    wg = WeightedGraph.from_edges(3, [(0, 1, 2), (0, 2, 2), (1, 2, 2)])
    [(sizes, weights, _, _)] = solver._parts(wg, "uniform", nd_partition(wg.graph))[2]
    d = build_shift_digraph(sizes, weights, max(weights.values()))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        metrics = []
        for span in (4, 3):
            tracer.reset()
            assert (solver.solve_flow(d, sizes, span) is None) == (span == 3)
            names = [s[0] for s in tracer.spans]
            assert names.count("build_flow_model") == 1
            metrics.append(tracer.pass_metrics([]))
    finally:
        tracer.uninstall()
    assert all(m["solver.pruned_windows"] > 0 for m in metrics)
    try:
        import scipy.optimize  # noqa: F401
    except ImportError:
        return  # without scipy no certificate is found
    assert metrics[1]["ilp.certificate_calls"] == 1
    assert metrics[1]["ilp.certificate_hit_ratio"] == 1.0


def bench_library_names():
    """(module, name) for every name bench/*.py imports from ndchan or
    reads as ndchan.<name>, found by scanning each file's syntax tree."""
    found = set()
    for path in sorted(TRACING.parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "ndchan":
                found.update((node.module, alias.name) for alias in node.names)
            elif (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "ndchan"
            ):
                found.add(("ndchan", node.attr))
    return found


def test_every_bench_import_exists():
    # a name the bench imports at set-up and the library no longer has
    # stops every bench run before its first solve
    names = bench_library_names()
    modules = {module for module, _ in names}
    assert {"ndchan", "ndchan.ilp", "ndchan.decomposition"} <= modules
    missing = [
        (module, name)
        for module, name in sorted(names)
        if not hasattr(importlib.import_module(module), name)
    ]
    assert missing == []
