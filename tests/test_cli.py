import argparse
import hashlib
import json
import re
from pathlib import Path

import pytest

from ndchan import build_shift_digraph, cli, shift_digraph, solver
from ndchan.cli import build_parser, main
from helpers import send_probes_to_ilp


def write_instance(tmp_path, payload, name="instance.json"):
    path = tmp_path / name
    path.write_text(payload)
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSolve:
    def test_feasible(self, tmp_path, capsys):
        path = write_instance(tmp_path, '{"n":2,"edges":[[0,1,5]]}')
        code, out, _ = run(capsys, ["solve", "--instance", path, "--lambda", "5"])
        assert code == 0
        payload = json.loads(out)
        assert payload["feasible"] is True
        assert sorted(payload["labels"]) == [0, 5]
        assert set(payload["stats"]) == {
            "nd",
            "types",
            "digraph_nodes",
            "cuts_added",
            "solve_ms",
        }

    def test_infeasible_exit_code(self, tmp_path, capsys):
        path = write_instance(tmp_path, '{"n":2,"edges":[[0,1,5]]}')
        code, out, _ = run(capsys, ["solve", "--instance", path, "--lambda", "4"])
        assert code == 1
        assert json.loads(out)["labels"] is None

    def test_minimize(self, tmp_path, capsys):
        path = write_instance(
            tmp_path, '{"n":3,"edges":[[0,1,2],[0,2,2],[1,2,2]]}'
        )
        code, out, _ = run(capsys, ["solve", "--instance", path, "--minimize"])
        assert code == 0
        payload = json.loads(out)
        assert payload["lambda_min"] == 4 and payload["lambda"] == 4

    def test_lambda_from_instance_field(self, tmp_path, capsys):
        path = write_instance(tmp_path, '{"n":2,"edges":[[0,1,5]],"lambda":5}')
        code, out, _ = run(capsys, ["solve", "--instance", path])
        assert code == 0

    def test_missing_lambda_is_input_error(self, tmp_path, capsys):
        path = write_instance(tmp_path, '{"n":2,"edges":[[0,1,5]]}')
        code, _, err = run(capsys, ["solve", "--instance", path])
        assert code == 2
        assert "span" in err or "lambda" in err

    def test_route_auto_solves_on_the_refined_twin_partition(self, tmp_path, capsys, monkeypatch):
        # where the twin partition is not weight-uniform, auto solves on it
        # refined to uniform weights (here three singletons) instead of
        # falling back to the vertex-cover route, and searches no cover
        def no_cover(*args):
            raise AssertionError("auto searched a vertex cover")

        monkeypatch.setattr("ndchan.solver.min_vertex_cover", no_cover)
        path = write_instance(
            tmp_path, '{"n":3,"edges":[[0,1,1],[0,2,2],[1,2,3]]}'
        )
        code, out, _ = run(capsys, ["solve", "--instance", path, "--lambda", "5"])
        assert code == 0
        payload = json.loads(out)
        assert payload["feasible"] is True
        assert payload["stats"]["types"] == 3

    def test_solve_ms_keeps_fractions(self, tmp_path, capsys):
        path = write_instance(tmp_path, '{"n":4,"edges":[[0,1,2],[2,3,2]]}')
        code, out, _ = run(capsys, ["solve", "--instance", path, "--lambda", "2"])
        assert code == 0
        assert json.loads(out)["stats"]["solve_ms"] > 0

    @pytest.mark.parametrize(
        "payload, checks",
        [
            ('{"n":4,"edges":[[0,1,2],[2,3,2]]}', 1),  # uniform on the twin partition
            ('{"n":3,"edges":[[0,1,1],[0,2,2],[1,2,3]]}', 1),  # uniform once refined
        ],
    )
    def test_uniformity_checked_once_per_route(self, tmp_path, capsys, monkeypatch, payload, checks):
        # one condensation per solve, check_uniform, and one reflexive
        # reduction of it, preprocess_reflexive
        calls = []
        for name in ("check_uniform", "preprocess_reflexive"):
            original = getattr(solver, name)

            def counted(*args, _name=name, _original=original):
                calls.append(_name)
                return _original(*args)

            monkeypatch.setattr(solver, name, counted)
        path = write_instance(tmp_path, payload)
        code, _, _ = run(capsys, ["solve", "--instance", path, "--lambda", "5"])
        assert code == 0
        assert calls == ["check_uniform", "preprocess_reflexive"] * checks

    def test_too_many_types_is_guard_exit(self, tmp_path, capsys):
        # P17's twin partition: 17 singleton classes in one part; with every
        # vertex doubled into two adjacent twins, 17 clique classes of size 2
        edges = [[i, i + 1] for i in range(16)]
        doubled = [[2 * i, 2 * i + 1] for i in range(17)]
        doubled += [[2 * i + a, 2 * i + 2 + b] for i in range(16) for a in (0, 1) for b in (0, 1)]
        for n, payload in ((17, edges), (34, doubled)):
            path = write_instance(tmp_path, json.dumps({"n": n, "edges": payload}))
            code, out, err = run(capsys, ["solve", "--instance", path, "--lambda", "4"])
            assert code == 3
            assert out == "" and "17 types" in err

    def test_dump_flags_go_to_stderr(self, tmp_path, capsys):
        path = write_instance(tmp_path, '{"n":2,"edges":[[0,1,2]]}')
        code, out, err = run(
            capsys,
            [
                "solve",
                "--instance",
                path,
                "--lambda",
                "2",
                "--dump-digraph",
            ],
        )
        assert code == 0
        assert "# shift digraph" in err
        json.loads(out)  # stdout still clean JSON

    def test_dump_has_one_digraph_per_component(self, tmp_path, capsys):
        # two weight-2 edges: two one-type parts, each dumped whole
        path = write_instance(tmp_path, '{"n":4,"edges":[[0,1,2],[2,3,2]]}')
        code, out, err = run(
            capsys, ["solve", "--instance", path, "--lambda", "2", "--dump-digraph"]
        )
        assert code == 0
        headers = [line for line in err.splitlines() if line.startswith("# shift digraph")]
        assert headers == ["# shift digraph: types=1 z=2 nodes=3 edges=5"] * 2
        # and each answered in closed form, expanding no window
        assert json.loads(out)["stats"]["digraph_nodes"] == 0

    def test_dump_builds_each_digraph_once(self, tmp_path, capsys, monkeypatch):
        # the solve never builds a whole digraph; the dump builds each
        # part's once
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return build_shift_digraph(*args, **kwargs)

        monkeypatch.setattr(cli, "build_shift_digraph", counted)
        monkeypatch.setattr(shift_digraph, "build_shift_digraph", counted)
        path = write_instance(tmp_path, '{"n":4,"edges":[[0,1,2],[2,3,2]]}')
        for flags, builds in (([], 0), (["--dump-digraph"], 2)):
            calls.clear()
            code, _, _ = run(capsys, ["solve", "--instance", path, "--lambda", "2"] + flags)
            assert code == 0
            assert len(calls) == builds, flags

    def test_dump_on_auto_and_vc_routes(self, tmp_path, capsys):
        # not uniform on the twin partition: auto dumps the refined twin
        # partition's digraph, vc the cover partition's, as each solves on it
        path = write_instance(
            tmp_path, '{"n":3,"edges":[[0,1,1],[0,2,2],[1,2,3]]}'
        )
        for route in ("auto", "vc"):
            code, out, err = run(
                capsys,
                [
                    "solve",
                    "--instance",
                    path,
                    "--lambda",
                    "5",
                    "--route",
                    route,
                    "--dump-digraph",
                ],
            )
            assert code == 0
            headers = [line for line in err.splitlines() if line.startswith("# shift digraph")]
            assert headers == ["# shift digraph: types=3 z=3 nodes=18 edges=42"], route
            # the search works out 11 of the digraph's windows
            assert json.loads(out)["stats"]["digraph_nodes"] == 11

    def test_dimacs_input(self, tmp_path, capsys):
        path = write_instance(tmp_path, "p edge 3 3\ne 1 2 2\ne 2 3 2\ne 1 3 2\n", "g.col")
        code, out, _ = run(capsys, ["solve", "--instance", path, "--lambda", "4"])
        assert code == 0

    # a weight-2 edge and a weight-1 edge on a path; its digraph at --lambda 3
    PATH3 = '{"n":3,"edges":[[0,1,2],[1,2,1]]}'
    PATH3_DUMP = """\
# shift digraph: types=3 z=2 nodes=13 edges=43
0x0 -> 0x0
0x0 -> 0x1
0x0 -> 0x2
0x0 -> 0x4
0x0 -> 0x5
0x1 -> 0x8
0x1 -> 0xc
0x2 -> 0x10
0x2 -> 0x14
0x4 -> 0x20
0x4 -> 0x21
0x4 -> 0x22
0x5 -> 0x28
0x8 -> 0x0
0x8 -> 0x1
0x8 -> 0x2
0x8 -> 0x4
0x8 -> 0x5
0xc -> 0x20
0xc -> 0x21
0xc -> 0x22
0x10 -> 0x0
0x10 -> 0x1
0x10 -> 0x2
0x10 -> 0x4
0x10 -> 0x5
0x14 -> 0x20
0x14 -> 0x21
0x14 -> 0x22
0x20 -> 0x0
0x20 -> 0x1
0x20 -> 0x2
0x20 -> 0x4
0x20 -> 0x5
0x21 -> 0x8
0x21 -> 0xc
0x22 -> 0x10
0x22 -> 0x14
0x28 -> 0x0
0x28 -> 0x1
0x28 -> 0x2
0x28 -> 0x4
0x28 -> 0x5
"""

    def test_span_errors_come_before_the_dump(self, tmp_path, capsys):
        # no span, or a negative one, exits 2 before any digraph is built
        path = write_instance(tmp_path, self.PATH3)
        for flags in ([], ["--lambda", "-1"]):
            code, out, err = run(capsys, ["solve", "--instance", path, "--dump-digraph"] + flags)
            assert code == 2, flags
            assert out == "" and "shift digraph" not in err and "span" in err

    def test_dump_text_is_pinned(self, tmp_path, capsys):
        # the windows, their hex codes and the edge order, byte for byte
        path = write_instance(tmp_path, self.PATH3)
        code, out, err = run(
            capsys, ["solve", "--instance", path, "--lambda", "3", "--dump-digraph"]
        )
        assert code == 0
        assert err == self.PATH3_DUMP
        # the search works out 4 of the digraph's 13 windows
        assert json.loads(out)["stats"]["digraph_nodes"] == 4

    @pytest.mark.parametrize(
        "payload, digest",
        [
            # three parts beside an isolated class, 18 lines
            (
                '{"n":9,"edges":[[0,1,3],[2,3,2],[4,5,1],[4,6,1],[5,6,1]]}',
                "c3d0563bfc8068456defb3bcdcaae2408c663584ef1868cafcc020c1ba22728d",
            ),
            # one part of four types, 221 lines
            (
                '{"n":7,"edges":[[0,3,2],[0,4,2],[0,5,2],[1,3,2],[1,4,2],[1,5,2],[2,3,2],'
                '[2,4,2],[2,5,2],[3,4,1],[3,5,1],[4,5,1],[5,6,3]]}',
                "1512925ebf453fee28ad52a5da7e50432a066bce6b5fb78aa3ff209a8d032ee1",
            ),
        ],
    )
    def test_dump_digest_is_pinned(self, tmp_path, capsys, payload, digest):
        # every part's dump, byte for byte, as sha256 of stderr
        path = write_instance(tmp_path, payload)
        code, _, err = run(capsys, ["solve", "--instance", path, "--minimize", "--dump-digraph"])
        assert code == 0
        assert hashlib.sha256(err.encode()).hexdigest() == digest

    def test_missing_file_is_input_error(self, capsys):
        code, _, err = run(capsys, ["solve", "--instance", "/nope/missing", "--lambda", "1"])
        assert code == 2

    def test_iteration_cap(self, tmp_path, capsys, monkeypatch):
        # the cap bounds the ILP's cut loop, so the probe is sent to the ILP;
        # P3 at span 1 needs cuts with and without scipy
        send_probes_to_ilp(monkeypatch)
        path = write_instance(tmp_path, '{"n":3,"edges":[[0,1,1],[1,2,1]]}')
        code, _, _ = run(capsys, ["solve", "--instance", path, "--lambda", "1"])
        assert code == 0
        monkeypatch.setattr(solver, "CUT_ROUNDS_PER_EDGE", 0)
        code, _, err = run(capsys, ["solve", "--instance", path, "--lambda", "1"])
        assert code == 70
        assert "iteration cap of 0" in err


class TestLabel:
    def test_decision(self, tmp_path, capsys):
        path = write_instance(tmp_path, '{"n":4,"edges":[[0,1],[1,2],[2,3]]}')
        code, out, _ = run(
            capsys, ["label", "--instance", path, "--p", "2,1", "--lambda", "3"]
        )
        assert code == 0
        assert json.loads(out)["feasible"] is True
        code, _, _ = run(
            capsys, ["label", "--instance", path, "--p", "2,1", "--lambda", "2"]
        )
        assert code == 1

    def test_minimize_with_instance_constraints(self, tmp_path, capsys):
        path = write_instance(
            tmp_path, '{"n":4,"edges":[[0,1],[1,2],[2,3]],"p":[2,1]}'
        )
        code, out, _ = run(capsys, ["label", "--instance", path, "--minimize"])
        assert code == 0
        assert json.loads(out)["lambda_min"] == 3

    def test_requires_constraints(self, tmp_path, capsys):
        path = write_instance(tmp_path, '{"n":2,"edges":[[0,1]]}')
        code, _, err = run(capsys, ["label", "--instance", path, "--lambda", "1"])
        assert code == 2


@pytest.mark.parametrize(
    "payload, argv, code, expected",
    [
        (
            '{"n":3,"edges":[[0,1,2],[1,2,1]]}',
            ["solve", "--lambda", "3"],
            0,
            '{"feasible": true, "lambda": 3, "labels": [0, 2, 0], "stats": {"nd": 3, '
            '"types": 3, "digraph_nodes": 4, "cuts_added": 0, "solve_ms": 0}}\n',
        ),
        (
            '{"n":3,"edges":[[0,1,2],[1,2,1]]}',
            ["solve", "--lambda", "1"],
            1,
            '{"feasible": false, "lambda": 1, "labels": null, "stats": {"nd": 3, '
            '"types": 3, "digraph_nodes": 5, "cuts_added": 0, "solve_ms": 0}}\n',
        ),
        (
            '{"n":5,"edges":[[0,1,2],[0,2,2],[1,2,2],[2,3,1],[3,4,3]]}',
            ["solve", "--minimize"],
            0,
            '{"feasible": true, "lambda": 4, "labels": [0, 2, 4, 0, 3], "stats": {"nd": 4, '
            '"types": 4, "digraph_nodes": 36, "cuts_added": 0, "solve_ms": 0}, '
            '"lambda_min": 4}\n',
        ),
        (
            '{"n":4,"edges":[[0,1],[1,2],[2,3]],"p":[2,1]}',
            ["label", "--minimize"],
            0,
            '{"feasible": true, "lambda": 3, "labels": [2, 0, 3, 1], "stats": {"nd": 4, '
            '"types": 4, "digraph_nodes": 13, "cuts_added": 0, "solve_ms": 0}, '
            '"lambda_min": 3}\n',
        ),
    ],
)
def test_result_stdout_is_pinned(tmp_path, capsys, payload, argv, code, expected):
    # the result object byte for byte: field order, stats keys and values,
    # with only the wall time masked
    path = write_instance(tmp_path, payload)
    got, out, _ = run(capsys, argv[:1] + ["--instance", path] + argv[1:])
    assert got == code
    assert re.sub(r'"solve_ms": [0-9.e-]+', '"solve_ms": 0', out) == expected


class TestOther:
    def test_nd(self, tmp_path, capsys):
        path = write_instance(tmp_path, '{"n":4,"edges":[[0,1],[1,2],[2,3],[0,3]]}')
        code, out, _ = run(capsys, ["nd", "--instance", path])
        assert code == 0
        payload = json.loads(out)
        assert payload["nd"] == 2
        assert payload["uniform"] is True

    @pytest.mark.parametrize(
        "payload, expected",
        [
            (
                '{"n":9,"edges":[[0,1,3],[2,3,2],[4,5,1],[4,6,1],[5,6,1]]}',
                '{"nd": 4, "classes": [[0, 1], [2, 3], [4, 5, 6], [7, 8]], '
                '"kinds": ["clique", "clique", "clique", "independent"], "uniform": true}\n',
            ),
            (
                '{"n":5,"edges":[[0,1,1],[0,2,2],[1,2,3],[2,3,1],[3,4,2]]}',
                '{"nd": 4, "classes": [[0, 1], [2], [3], [4]], '
                '"kinds": ["clique", "independent", "independent", "independent"], '
                '"uniform": false}\n',
            ),
        ],
    )
    def test_nd_output_is_pinned(self, tmp_path, capsys, payload, expected):
        path = write_instance(tmp_path, payload)
        code, out, _ = run(capsys, ["nd", "--instance", path])
        assert code == 0
        assert out == expected

    def test_reduce(self, tmp_path, capsys):
        path = write_instance(tmp_path, '{"n":3,"edges":[[0,1],[1,2]]}')
        code, out, _ = run(capsys, ["reduce", "--instance", path, "--p", "2,1"])
        assert code == 0
        payload = json.loads(out)
        assert payload == {"n": 3, "edges": [[0, 1, 2], [0, 2, 1], [1, 2, 2]]}

    def test_oracle_decision(self, tmp_path, capsys):
        path = write_instance(tmp_path, '{"n":2,"edges":[[0,1,5]]}')
        code, out, _ = run(capsys, ["oracle", "--instance", path, "--lambda", "4"])
        assert code == 1
        assert json.loads(out)["feasible"] is False

    def test_oracle_minimize(self, tmp_path, capsys):
        path = write_instance(tmp_path, '{"n":2,"edges":[[0,1,5]]}')
        code, out, _ = run(capsys, ["oracle", "--instance", path, "--minimize"])
        assert code == 0
        assert json.loads(out)["lambda_min"] == 5

    def test_oracle_nd(self, tmp_path, capsys):
        path = write_instance(tmp_path, '{"n":4,"edges":[[0,1],[1,2],[2,3]]}')
        code, out, _ = run(capsys, ["oracle", "--instance", path, "--nd"])
        assert code == 0
        assert json.loads(out)["nd"] == 4

    def test_oracle_guard_exit(self, tmp_path, capsys):
        path = write_instance(tmp_path, '{"n":12,"edges":[]}')
        code, _, err = run(
            capsys,
            ["oracle", "--instance", path, "--lambda", "40", "--guard", "100"],
        )
        assert code == 3
        assert "guard" in err

    def test_verify_ok(self, tmp_path, capsys):
        path = write_instance(tmp_path, '{"n":2,"edges":[[0,1,2]]}')
        code, out, _ = run(
            capsys,
            ["verify", "--instance", path, "--labels", "0,2", "--lambda", "2"],
        )
        assert code == 0
        assert json.loads(out)["ok"] is True

    def test_verify_reports_violations(self, tmp_path, capsys):
        path = write_instance(tmp_path, '{"n":2,"edges":[[0,1,2]]}')
        code, out, _ = run(
            capsys,
            ["verify", "--instance", path, "--labels", "0,1", "--lambda", "2"],
        )
        assert code == 1
        assert json.loads(out)["violated_edges"] == [[0, 1]]

    def test_verify_wrong_label_count(self, tmp_path, capsys):
        path = write_instance(tmp_path, '{"n":2,"edges":[[0,1,2]]}')
        code, _, err = run(
            capsys, ["verify", "--instance", path, "--labels", "0", "--lambda", "2"]
        )
        assert code == 2


def test_readme_synopsis_matches_the_parser():
    # the first code block under README's "## CLI" lists every subcommand
    # with all of its flags; a continuation line is indented
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("\n## CLI\n", 1)[1]
    block = section.split("```\n", 2)[1]
    documented = {}
    for line in block.splitlines():
        if line.startswith("ndchan "):
            command = line.split()[1]
            documented[command] = set()
        documented[command] |= set(re.findall(r"--[a-z][a-z-]*", line))
    parser = build_parser()
    [subparsers] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    built = {
        name: {s for a in sub._actions for s in a.option_strings} - {"-h", "--help"}
        for name, sub in subparsers.choices.items()
    }
    assert documented == built
