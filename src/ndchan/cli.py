"""Command-line interface.

Exit codes: 0 feasible/success, 1 proven infeasible (or failed verification
in `verify`), 2 input error, 3 resource guard tripped, 70 internal error
(a solved labeling that fails verification among them).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict

from .decomposition import check_uniform, nd_partition, refine_uniform
from .errors import GuardExceeded, InstanceFormatError, InternalSolverError
from .graph import Labeling, verify_assignment
from .instances import InstanceFile, emit_instance, emit_result, parse_instance
from .oracle import DEFAULT_GUARD, brute_force_ca, brute_force_nd
from .reduction import DistanceConstraints, labeling_to_ca
from .shift_digraph import build_shift_digraph, dump_digraph
from .solver import (
    SolveStats,
    _parts,
    minimize_span,
    solve_ca_uniform,
    solve_ca_vc,
)

EXIT_FEASIBLE = 0
EXIT_INFEASIBLE = 1
EXIT_INPUT = 2
EXIT_GUARD = 3
EXIT_INTERNAL = 70


def _read_instance(path: str) -> InstanceFile:
    if path == "-":
        return parse_instance(sys.stdin.read())
    with open(path, "r", encoding="utf-8") as handle:
        return parse_instance(handle.read())


def _resolve_span(args, instance: InstanceFile) -> int:
    span = args.span if args.span is not None else instance.span
    if span is None:
        raise InstanceFormatError("no span: pass --lambda or put 'lambda' in the instance")
    if span < 0:
        raise InstanceFormatError("span must be nonnegative")
    return span


def _constraints(args, instance: InstanceFile) -> DistanceConstraints:
    if args.p is not None:
        return DistanceConstraints.parse(args.p)
    if instance.constraints is not None:
        return DistanceConstraints(instance.constraints)
    raise InstanceFormatError("no distance constraints: pass --p or put 'p' in the instance")


def _dump_debug(args, wg, route, partition):
    """Each part's whole shift digraph, which no solve builds; a type no
    edge touches is in no part, so none is dumped for it."""
    if not getattr(args, "dump_digraph", False):
        return
    for sizes, weights, _, _ in _parts(wg, route, partition)[2]:
        digraph = build_shift_digraph(sizes, weights, max(weights.values()))
        print(dump_digraph(digraph), file=sys.stderr)


def _run(args, instance, wg, route, partition) -> int:
    """Decide or minimize on the route and print the result."""
    # a missing or negative span is an input error, reported before any dump
    span = None if args.minimize else _resolve_span(args, instance)
    _dump_debug(args, wg, route, partition)
    stats = SolveStats()
    if args.minimize:
        span, labeling = minimize_span(wg, route, partition, stats=stats)
    elif route == "uniform":
        labeling = solve_ca_uniform(wg, partition, span, stats=stats)
    else:
        labeling = solve_ca_vc(wg, span, stats=stats)
    feasible = labeling is not None
    labels = labeling.labels if feasible else None
    print(emit_result(feasible, span, labels, asdict(stats), span if args.minimize else None))
    return EXIT_FEASIBLE if feasible else EXIT_INFEASIBLE


def _cmd_solve(args) -> int:
    instance = _read_instance(args.instance)
    wg = instance.weighted_graph()
    if args.route == "vc":
        return _run(args, instance, wg, "vc", None)
    # the twin partition refined to uniform weights, uniform on every input
    # and unchanged where the twin partition is uniform already
    return _run(args, instance, wg, "uniform", refine_uniform(wg, nd_partition(wg.graph)))


def _cmd_label(args) -> int:
    instance = _read_instance(args.instance)
    g = instance.graph()
    wg = labeling_to_ca(g, _constraints(args, instance))
    return _run(args, instance, wg, "uniform", nd_partition(g))


def _cmd_nd(args) -> int:
    instance = _read_instance(args.instance)
    wg = instance.weighted_graph()
    partition = nd_partition(wg.graph)
    uniform = check_uniform(wg, partition)[2]
    print(
        json.dumps(
            {
                "nd": partition.count,
                "classes": [sorted(cls) for cls in partition.classes],
                "kinds": list(partition.kinds),
                "uniform": uniform,
            }
        )
    )
    return EXIT_FEASIBLE


def _cmd_reduce(args) -> int:
    instance = _read_instance(args.instance)
    g = instance.graph()
    wg = labeling_to_ca(g, _constraints(args, instance))
    reduced = InstanceFile(
        g.n,
        tuple(sorted((u, v, w) for (u, v), w in wg.weights.items())),
        instance.span,
        None,
    )
    print(emit_instance(reduced))
    return EXIT_FEASIBLE


def _cmd_oracle(args) -> int:
    instance = _read_instance(args.instance)
    if args.nd:
        print(json.dumps({"nd": brute_force_nd(instance.graph())}))
        return EXIT_FEASIBLE
    wg = instance.weighted_graph()
    guard = args.guard
    if args.minimize:
        span = 0
        while True:
            labeling = brute_force_ca(wg, span, guard=guard)
            if labeling is not None:
                print(
                    json.dumps(
                        {"feasible": True, "lambda_min": span, "labels": list(labeling.labels)}
                    )
                )
                return EXIT_FEASIBLE
            span += 1
    span = _resolve_span(args, instance)
    labeling = brute_force_ca(wg, span, guard=guard)
    print(
        json.dumps(
            {
                "feasible": labeling is not None,
                "lambda": span,
                "labels": list(labeling.labels) if labeling else None,
            }
        )
    )
    return EXIT_FEASIBLE if labeling is not None else EXIT_INFEASIBLE


def _cmd_verify(args) -> int:
    instance = _read_instance(args.instance)
    wg = instance.weighted_graph()
    span = _resolve_span(args, instance)
    try:
        labels = tuple(int(part) for part in args.labels.split(","))
    except ValueError as exc:
        raise InstanceFormatError(f"cannot parse labels {args.labels!r}") from exc
    if len(labels) != wg.graph.n:
        raise InstanceFormatError(
            f"{len(labels)} labels for {wg.graph.n} vertices"
        )
    verdict = verify_assignment(wg, Labeling(labels, span))
    print(
        json.dumps(
            {
                "ok": verdict.ok,
                "violated_edges": [list(e) for e in verdict.violated_edges],
                "out_of_range": list(verdict.out_of_range),
            }
        )
    )
    return EXIT_FEASIBLE if verdict.ok else EXIT_INFEASIBLE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ndchan",
        description="Channel assignment and distance-constrained labeling solver",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_instance(p):
        p.add_argument("--instance", required=True, help="instance file, '-' for stdin")

    solve = sub.add_parser("solve", help="decide or minimize a channel assignment")
    add_instance(solve)
    solve.add_argument("--lambda", dest="span", type=int, default=None)
    solve.add_argument("--minimize", action="store_true")
    solve.add_argument("--route", choices=("auto", "vc"), default="auto")
    solve.add_argument("--dump-digraph", action="store_true")
    solve.set_defaults(func=_cmd_solve)

    label = sub.add_parser("label", help="distance-constrained labeling via reduction")
    add_instance(label)
    label.add_argument("--p", default=None, help="comma-separated constraints, e.g. 2,1")
    label.add_argument("--lambda", dest="span", type=int, default=None)
    label.add_argument("--minimize", action="store_true")
    label.set_defaults(func=_cmd_label)

    nd = sub.add_parser("nd", help="neighborhood diversity decomposition")
    add_instance(nd)
    nd.set_defaults(func=_cmd_nd)

    reduce_p = sub.add_parser("reduce", help="emit the channel assignment reduction")
    add_instance(reduce_p)
    reduce_p.add_argument("--p", default=None)
    reduce_p.set_defaults(func=_cmd_reduce)

    oracle = sub.add_parser("oracle", help="brute-force reference solvers")
    add_instance(oracle)
    oracle.add_argument("--lambda", dest="span", type=int, default=None)
    oracle.add_argument("--minimize", action="store_true")
    oracle.add_argument("--nd", action="store_true", help="brute-force class count")
    oracle.add_argument("--guard", type=int, default=DEFAULT_GUARD)
    oracle.set_defaults(func=_cmd_oracle)

    verify = sub.add_parser("verify", help="check a labeling against an instance")
    add_instance(verify)
    verify.add_argument("--labels", required=True, help="comma-separated labels")
    verify.add_argument("--lambda", dest="span", type=int, default=None)
    verify.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InstanceFormatError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except GuardExceeded as exc:
        print(f"resource guard: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except InternalSolverError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
