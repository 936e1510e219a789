"""Benchmark of the ndchan solver: one seeded workload per run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; ndchan is imported from src/, so
nothing is installed or built.  The workloads (see BENCHMARK.json for why
each was chosen):

  decide-uniform    single-span decisions on uniform instances, with scipy
  minimize-vc       least span on bipartite graphs, vertex-cover route, scipy
  minimize-label    least L(p) span, twin partition route, with scipy
  minimize-vc-pure  minimize-vc's instances with numpy and scipy blocked

A run times set-up in fresh processes, then solves the corpus in its own
worker process, one solve at a time, in passes for about S seconds, and
checks every answer outside the timed regions.  Each solve's wall time is
scaled by the machine's speed at that moment, which a fixed task timed
next to the solves gives (see PACE_S in worker.py), and an instance's time
is the median of its scaled times; instances under 0.1 s are solved
again between full passes.  The unscaled wall times are printed
too.  With --trace 0 it prints the end-to-end metrics; with
--trace 1 untraced and traced passes alternate and give the per-layer
metrics and the tracing overhead.  A solve that raises or runs past the
per-solve limit counts as failed: failed_share is printed, and the result
carries its complement, solved_share, since a metric that reads zero has
no relative bound.  The last line of stdout is the result as JSON.  A
wrong answer makes the exit code 1; a run that cannot run at all exits 2
and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import deps  # noqa: E402

WORKLOADS = ("decide-uniform", "minimize-vc", "minimize-label", "minimize-vc-pure")
# fresh processes timed for set-up besides the measuring worker itself
SETUP_PROBES = 4
END_TO_END_UNITS = {
    "corpus_s": "s",
    "solve_p50_ms": "ms",
    "solve_tail_ms": "ms",
    "solve_max_s": "s",
    "solved_share": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class Worker:
    """A worker process, timed from start to its `ready` line."""

    def __init__(self, argv):
        start = time.perf_counter()
        # a fixed hash seed, so that no set or dict order differs between
        # the processes of a run
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), *argv],
            cwd=ROOT,
            env={**os.environ, "PYTHONHASHSEED": "0"},
            stdout=subprocess.PIPE,
            text=True,
        )
        self.ready = self.proc.stdout.readline().strip() == "ready"
        self.setup_s = time.perf_counter() - start

    def finish(self, timeout):
        try:
            out, _ = self.proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
            raise
        if not self.ready or self.proc.returncode != 0:
            return None
        lines = out.strip().splitlines()
        return json.loads(lines[-1]) if lines else {}


def fail(message):
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true", help="a few instances, for smoke tests")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "ndchan" / "__init__.py").is_file():
        fail(f"no ndchan sources under {ROOT / 'src'}; run from a source checkout")
    if args.seconds < 1:
        fail("--seconds must be at least 1")

    argv = ["--workload", args.workload, "--seed", str(args.seed)]
    argv += ["--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.tiny:
        argv.append("--tiny")
    setups = []
    if not args.trace:
        for _ in range(SETUP_PROBES):
            probe = Worker(argv + ["--setup-only"])
            if probe.finish(timeout=60) is None:
                fail("set-up failed (see the worker's error above)")
            setups.append(probe.setup_s)
    worker = Worker(argv)
    setups.append(worker.setup_s)
    record = worker.finish(timeout=170)
    if record is None:
        fail("the workload process failed (see its error above)")

    env = deps.environment(ROOT)
    print(f"# workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    print("# env " + "  ".join(f"{k}={v}" for k, v in env.items()))
    print(
        f"# corpus {record['instances']} instances  fingerprint {record['fingerprint']}"
        f"  passes {record['passes']} untraced ({record['full_passes']} over every instance),"
        f" {record['traced_passes']} traced"
    )
    failed = len(record["failures"])
    attempted = record["attempted"]
    for line in record["failures"]:
        print(f"# failed solve  {line}")
    for line in record["problems"]:
        print(f"# WRONG  {line}")

    if args.trace:
        metrics = record["layers"]
        units = record["layer_units"]
        print(f"# spans of the last traced pass: {record['span_file']}")
    else:
        metrics = {
            **record["metrics"],
            "solved_share": 1 - failed / attempted,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": record["peak_rss_mb"],
        }
        units = END_TO_END_UNITS
        tail = f"p{record['tail_pct']}" if record["tail_pct"] else "max"
        print(f"# tail is {tail} of N={record['instances']}; slowest is {record['slowest']}")
        print(f"# failed_share {failed / attempted:.4f} ({failed} of {attempted} solves)")
        print("# set-up samples " + " ".join(f"{s:.4f}" for s in setups))
        print("# unscaled wall times " + "  ".join(
            f"{k} {v:.6g}" for k, v in record["wall_metrics"].items()))
    for name, value in metrics.items():
        print(f"{name:28s} {value:.6g} {units[name]}")

    correct = not record["problems"]
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
