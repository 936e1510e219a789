"""The benchmark's tracer wraps library functions by name; each must exist.

bench/run.py --trace 1 stops on a wrapped name the library no longer has,
so a change that drops one fails here first.  The test only reads bench/.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def test_every_wrapped_name_exists(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ as it is
    spec = importlib.util.spec_from_file_location("_bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
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
