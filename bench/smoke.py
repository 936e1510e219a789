"""Smoke test of the benchmark harness, on tiny corpora (about two minutes).

    python3 bench/smoke.py

Checks that every workload runs in its dependency configuration and prints
exactly the metrics BENCHMARK.json names, that the scipy workloads refuse to
run without scipy, that traced runs repeat their counts exactly and find no
LP calls without scipy, that the answer checks reject wrong answers, and
that the benchmark refuses to run where the library's sources are missing.
Exits 1 on the first failed check.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
EXACT = ("ilp.bb_nodes", "ilp.lp_calls", "solver.cuts", "shift_digraph.windows", "solver.probes")


def expect(condition, message):
    if not condition:
        print(f"smoke: FAIL {message}")
        sys.exit(1)


def bench(workload, trace, seed=3, cwd=ROOT):
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", "1", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    return proc, (json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None)


def check_runs():
    end_to_end = {m["name"] for m in SPEC["end_to_end"]}
    per_layer = {m["name"] for m in SPEC["per_layer"]}
    for workload in WORKLOADS:
        proc, result = bench(workload, 0)
        expect(proc.returncode == 0 and result, f"{workload}: run failed\n{proc.stderr}")
        expect(result["correct"] and result["failed"] == 0, f"{workload}: {result}")
        expect(set(result["metrics"]) == end_to_end, f"{workload}: metrics {set(result['metrics'])}")
        expect(all(m["value"] > 0 for m in result["metrics"].values()), f"{workload}: a zero metric")
        traced = []
        for _ in range(2):
            proc, result = bench(workload, 1)
            expect(proc.returncode == 0 and result, f"{workload} traced: run failed\n{proc.stderr}")
            expect(result["correct"], f"{workload} traced: {proc.stdout}")
            expect(set(result["metrics"]) == per_layer, f"{workload}: {set(result['metrics'])}")
            traced.append({k: v["value"] for k, v in result["metrics"].items()})
        for key in EXACT:
            expect(traced[0][key] == traced[1][key], f"{workload}: {key} differs between runs")
        lp_calls = traced[0]["ilp.lp_calls"]
        if workload.endswith("-pure"):
            expect(lp_calls == 0, f"{workload}: {lp_calls} LP calls with scipy blocked")
        print(f"smoke: ok {workload} (untraced, traced twice)")


def check_scipy_required():
    boot = (
        "import runpy, sys; sys.path.insert(0, 'bench'); import deps; "
        "deps.block_fast_extra(); sys.argv = ['bench/worker.py'] + sys.argv[1:]; "
        "runpy.run_path('bench/worker.py', run_name='__main__')"
    )
    for workload in WORKLOADS:
        if workload.endswith("-pure"):
            continue
        cmd = [sys.executable, "-c", boot, "--workload", workload, "--seed", "3"]
        cmd += ["--seconds", "1", "--tiny", "--setup-only"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=60)
        expect(proc.returncode != 0 and "needs scipy" in proc.stderr, f"{workload} ran without scipy")
    print("smoke: ok scipy workloads refuse to run without scipy")


def check_checks():
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    import checks
    import corpus
    from ndchan import Labeling

    inst = next(i for i in corpus.decide_uniform(3) if i.wg.weights)
    expect(checks.check(inst, None) or checks.check(inst, Labeling((0,) * inst.wg.graph.n, inst.span)),
           "a wrong verdict or labeling passed")
    vc = corpus.minimize_vc(3, tiny=True)[0]
    bad = Labeling((0,) * vc.wg.graph.n, vc.wg.wmax)
    expect(checks.check(vc, (vc.wg.wmax + 1, bad)), "a wrong least span passed")
    expect(checks.check(vc, (vc.wg.wmax, bad)), "an invalid labeling passed")
    # a solve the run deadline kept from starting is charged the per-solve
    # limit, and the first answer that succeeded is the one checked
    import worker

    unstarted = {0: worker.Solve(None, None, None, None, "not started")}
    expect(worker.instance_times([unstarted, unstarted]) == [worker.SOLVE_LIMIT_S],
           "an instance no pass started was not charged the limit")
    good = {0: worker.Solve(0.5, 0.4, (vc.wg.wmax, bad), None, None)}
    expect(worker.instance_times([unstarted, good]) == [0.4], "an unstarted solve was timed")
    failed = {0: worker.Solve(1.0, 0.9, None, None, "failed")}
    expect(worker.check_answers([vc], [failed, good]), "a later pass's wrong answer went unchecked")
    for parts in ((1, 3), (2, 2), (1, 2, 2), (2, 1, 1, 1)):
        g = corpus.multipartite(parts)
        for p in ((1,), (2, 1), (3, 2)):
            expect(corpus.multipartite_span(parts, p) == checks.lp_min_span(g, p),
                   f"closed form wrong for K{parts} under L{p}")
    print("smoke: ok answer checks reject wrong answers; closed forms match search")


def check_refuses_without_sources():
    tmp = ROOT / ".bench_tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    try:
        tmp.mkdir()
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, tmp / path, ignore=shutil.ignore_patterns("__pycache__"))
        proc, result = bench(WORKLOADS[0], 0, cwd=tmp)
        expect(proc.returncode != 0 and result is None, "ran without the library's sources")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print("smoke: ok refuses to run without the library's sources")


if __name__ == "__main__":
    check_checks()
    check_refuses_without_sources()
    check_scipy_required()
    check_runs()
    print("smoke: all checks passed")
