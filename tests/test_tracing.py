"""The benchmark's tracer wraps library functions by name; each must exist.

bench/run.py --trace 1 stops on a wrapped name the library no longer has,
so a change that drops one fails here first.  The tests only read bench/.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

from ndchan import SolveStats, WeightedGraph, minimize_span, nd_partition, solve_ca_uniform

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
