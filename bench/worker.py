"""One workload in one process: set up, solve the corpus, check the answers.

Started by run.py, which times it from process start to the `ready` line
on stdout (the set-up time) and reads the result from the last line.

    python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1
                            [--tiny] [--setup-only]
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import resource
import signal
import statistics
import sys
import time
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# per-solve wall-clock limit: three times the slowest solve at the seed
# commit (3-4.7 s), more than the 1.7x spread one solve shows across runs
# on a shared two-core machine
SOLVE_LIMIT_S = 15.0
# no solve starts after this much measuring, so a run ends well within the
# 180 s a run may take however slow the solver gets
DEADLINE_S = 120.0
# instances whose time so far is under this are solved again between full
# passes, so that their median is taken over many solves
CHEAP_S = 0.1

# On a shared machine the speed of the processor changes from one second to
# the next, by 20-50% and for minutes at a time, and a solve's wall time
# with it.  So a fixed task of the benchmark's own, a pure-Python search
# like the solver's, is timed next to the solves (PACE_REPEATS times, for
# the median): before a solve when the last timing is older than
# PACE_EVERY_S, and after any solve that took longer.  A solve's scaled
# time is its wall time times PACE_S over the task's time around it: what
# the solve would take where the task takes PACE_S, the task's median time
# back to back on a shared 2-vCPU 2.1 GHz machine under CPython 3.11.  The
# task's time tracks the solver's closely (log-time correlation 0.8-0.9
# over half-second windows there), so scaled times vary 2-3 times less
# than wall times.
PACE_S = 0.0015
PACE_EVERY_S = 0.1
PACE_REPEATS = 5


class SolveTimeout(BaseException):
    """Raised by the alarm; a BaseException so no library handler eats it."""


def _alarm(signum, frame):
    raise SolveTimeout()


def setup(workload, seed, tiny):
    """Everything a run needs before its first timed solve."""
    import deps

    pure = workload.endswith("-pure")
    if pure:
        deps.block_fast_extra()
    sys.path.insert(0, str(ROOT / "src"))
    import ndchan
    from ndchan.ilp import EQ, Constraint, IlpModel, relaxation_point

    if not pure:
        deps.require_fast_extra()
    # the first LP call pays scipy's lazy import; without scipy it must not
    # produce a point
    point = relaxation_point(IlpModel(1, (1,), (Constraint.build([(0, 1)], EQ, 1),)))
    if pure and point is not None:
        raise SystemExit("bench: relaxation_point returned a point with scipy blocked")
    if not pure and point is None:
        raise SystemExit("bench: relaxation_point returned None with scipy available")

    import corpus

    return ndchan, corpus.build(workload, seed, tiny)


def solve(ndchan, inst, stats):
    """The timed call: what a user of the library runs for this instance."""
    if inst.kind == "decide":
        return ndchan.solve_ca_uniform(inst.wg, inst.partition, inst.span, stats=stats)
    if inst.kind == "vc":
        return ndchan.minimize_span(inst.wg, "vc", stats=stats)
    wg = ndchan.labeling_to_ca(inst.graph, inst.constraints)
    return ndchan.minimize_span(wg, "uniform", ndchan.nd_partition(inst.graph), stats=stats)


class Solve(NamedTuple):
    """One solve; the times are None for a solve not started."""

    seconds: float | None
    scaled: float | None
    answer: object
    stats: object
    error: str | None


@functools.cache
def _pace_graph():
    import corpus

    return corpus.cycle(7)


def pace_task() -> float:
    """Seconds the pace task takes now, the median of PACE_REPEATS timings:
    least L(2,1) spans by the answer checks' backtracking search.  Neither
    may change, or every scaled time moves with them."""
    import checks

    times = []
    for _ in range(PACE_REPEATS):
        start = time.perf_counter()
        for _ in range(5):
            checks.lp_min_span(_pace_graph(), (2, 1))
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def run_pass(ndchan, corpus, deadline, tracer=None, order=None, stop_at=None):
    """Solve each instance once, in `order` (every index by default): a dict
    from the instance's index to its Solve.  A solve not started by
    `deadline` counts as failed; at `stop_at` the pass just ends."""
    out = {}
    pace, paced_at = pace_task(), time.perf_counter()
    for i in range(len(corpus)) if order is None else order:
        inst = corpus[i]
        now = time.perf_counter()
        if stop_at is not None and now > stop_at:
            break
        if now > deadline:
            out[i] = Solve(None, None, None, None, "not started: run deadline passed")
            continue
        if now - paced_at > PACE_EVERY_S:
            pace, paced_at = pace_task(), time.perf_counter()
        if tracer is not None:
            tracer.instance = i
        stats = ndchan.SolveStats()
        answer = error = None
        start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, SOLVE_LIMIT_S)
        try:
            answer = solve(ndchan, inst, stats)
        except SolveTimeout:
            error = f"over the {SOLVE_LIMIT_S:g} s per-solve limit"
        except Exception as exc:  # a failed solve is counted, and the run goes on
            error = f"{type(exc).__name__}: {exc}"
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        seconds = time.perf_counter() - start
        around = pace
        if seconds > PACE_EVERY_S:
            pace, paced_at = pace_task(), time.perf_counter()
            around = (around + pace) / 2
        out[i] = Solve(seconds, seconds * PACE_S / around, answer, stats, error)
    return out


def _same(a, b):
    """Answers of two passes agree: verdict and span, and the labels."""
    if a is None or b is None:
        return a is b
    if isinstance(a, tuple):
        return a[0] == b[0] and a[1].labels == b[1].labels
    return a.labels == b.labels


def check_answers(corpus, passes):
    """Problems found, each a line.  The first answer to an instance is
    checked, and every later answer must repeat it."""
    import checks

    problems = []
    for i, inst in enumerate(corpus):
        answers = [p[i].answer for p in passes if i in p and p[i].error is None]
        if not answers:
            continue
        reason = checks.check(inst, answers[0])
        if reason:
            problems.append(f"{inst.name}: {reason}")
        if any(not _same(answers[0], later) for later in answers[1:]):
            problems.append(f"{inst.name}: answer differs between passes")
    return problems


def instance_times(passes, field="scaled"):
    """Per-instance time: the median of its solves' scaled times (or wall
    times, with field="seconds"); an instance no pass started is charged
    the per-solve limit, as a solve that ran into it is.  The first pass
    holds every instance."""
    times = []
    for i in range(len(passes[0])):
        started = [getattr(p[i], field) for p in passes if i in p and p[i].seconds is not None]
        times.append(statistics.median(started) if started else SOLVE_LIMIT_S)
    return times


def failed_solves(corpus, passes):
    return [
        f"{corpus[i].name}: {result.error}"
        for results in passes
        for i, result in results.items()
        if result.error is not None
    ]


def tail_rank(n):
    """Highest whole percentile with at least ten instances above it, and
    its 1-based rank in the sorted times (None below eleven instances)."""
    if n < 11:
        return None, None
    pct = min(99, (100 * (n - 10)) // n)
    rank = max(1, -(-pct * n // 100))
    return pct, rank


def time_metrics(times):
    ordered = sorted(times)
    _, rank = tail_rank(len(times))
    return {
        "corpus_s": sum(times),
        "solve_p50_ms": statistics.median(times) * 1e3,
        "solve_tail_ms": ordered[(rank or len(ordered)) - 1] * 1e3,
        "solve_max_s": ordered[-1],
    }


def measure(ndchan, corpus, rebuild, seconds):
    """Untraced passes over the corpus; no solve starts after `seconds`.

    The first pass solves every instance.  Later ones solve the slowest
    first, so that a pass the time cuts short leaves out cheap instances,
    and each pass is followed by passes over the cheap instances only, for
    a third as long as it took.  Every pass after the first solves freshly
    built instances, so none finds properties cached on its inputs by an
    earlier pass.
    """
    start = time.perf_counter()
    deadline = start + min(6 * seconds, DEADLINE_S)
    end = start + seconds
    passes = []
    order = range(len(corpus))
    while not passes or time.perf_counter() < end:
        if passes:
            corpus = rebuild()
        gc.collect()
        t = time.perf_counter()
        passes.append(run_pass(ndchan, corpus, deadline, order=order, stop_at=end if passes else None))
        times = instance_times(passes)
        order = sorted(order, key=times.__getitem__, reverse=True)
        cheap = [i for i in order if times[i] < CHEAP_S]
        until = min(end, time.perf_counter() + (time.perf_counter() - t) / 3)
        while cheap and time.perf_counter() < until:
            corpus = rebuild()
            passes.append(run_pass(ndchan, corpus, deadline, order=cheap, stop_at=until))
    return passes


def measure_traced(ndchan, corpus, rebuild, seconds, tracer):
    """Pairs of full passes, untraced then traced, for about `seconds`, so
    that the tracing overhead compares like with like; each pass solves
    freshly built instances."""
    start = time.perf_counter()
    deadline = start + min(6 * seconds, DEADLINE_S)
    plain, traced, layers = [], [], []
    while True:
        if plain:
            corpus = rebuild()
        gc.collect()
        t = time.perf_counter()
        plain.append(run_pass(ndchan, corpus, deadline))
        corpus = rebuild()
        gc.collect()
        tracer.install()
        tracer.reset()
        try:
            traced.append(run_pass(ndchan, corpus, deadline, tracer=tracer))
        finally:
            tracer.uninstall()
        layers.append(tracer.pass_metrics([r.stats for r in traced[-1].values()]))
        now = time.perf_counter()
        if now - start + (now - t) > seconds:
            return plain, traced, layers


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(HERE))
    ndchan, corpus = setup(args.workload, args.seed, args.tiny)
    print("ready", flush=True)
    if args.setup_only:
        return 0
    # objects alive after set-up (imports above all) are frozen, so that a
    # collection that falls inside a solve scans only what the solves
    # allocated, not whatever else the process happens to hold
    gc.collect()
    gc.freeze()

    import corpus as corpus_mod
    import tracing

    signal.signal(signal.SIGALRM, _alarm)
    tracer = tracing.Tracer() if args.trace else None
    rebuild = functools.partial(corpus_mod.build, args.workload, args.seed, args.tiny)
    if tracer is None:
        plain, traced, layer_passes = measure(ndchan, corpus, rebuild, args.seconds), [], []
    else:
        plain, traced, layer_passes = measure_traced(ndchan, corpus, rebuild, args.seconds, tracer)
    problems = check_answers(corpus, plain + traced)
    times = instance_times(plain)
    record = {
        "instances": len(corpus),
        "fingerprint": corpus_mod.fingerprint(corpus),
        "passes": len(plain),
        "full_passes": sum(len(p) == len(corpus) for p in plain),
        "traced_passes": len(traced),
        "attempted": len(corpus) * len(plain + traced),
        "failures": failed_solves(corpus, plain + traced),
        "problems": problems,
        "tail_pct": tail_rank(len(times))[0],
        "slowest": corpus[times.index(max(times))].name,
        "metrics": time_metrics(times),
        "wall_metrics": time_metrics(instance_times(plain, "seconds")),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if traced:
        layers, trace_problems = tracing.combine(layer_passes)
        record["problems"] += trace_problems
        layers["trace.overhead_share"] = sum(instance_times(traced)) / sum(times) - 1
        record["layers"] = layers
        record["layer_units"] = {name: tracing.UNITS[name] for name in layers}
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        span_file = out_dir / f"spans-{args.workload}-{args.seed}.jsonl"
        with open(span_file, "w") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
        record["span_file"] = str(span_file.relative_to(ROOT))
    print(json.dumps(record), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
