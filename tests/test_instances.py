import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from ndchan import emit_instance, emit_result, parse_instance
from ndchan.errors import InstanceFormatError


class TestParseJson:
    def test_weighted_edge(self):
        inst = parse_instance('{"n":2,"edges":[[0,1,5]]}')
        assert inst.n == 2
        assert inst.edges == ((0, 1, 5),)

    def test_default_weight(self):
        inst = parse_instance('{"n":3,"edges":[[0,1],[1,2,2]]}')
        assert inst.edges == ((0, 1, 1), (1, 2, 2))

    def test_optional_fields(self):
        inst = parse_instance('{"n":2,"edges":[[0,1]],"lambda":4,"p":[2,1]}')
        assert inst.span == 4
        assert inst.constraints == (2, 1)

    def test_self_loop_rejected(self):
        with pytest.raises(InstanceFormatError, match="self-loop"):
            parse_instance('{"n":2,"edges":[[0,0,1]]}')

    def test_duplicate_rejected(self):
        with pytest.raises(InstanceFormatError, match="duplicate"):
            parse_instance('{"n":2,"edges":[[0,1],[1,0]]}')

    def test_out_of_range_rejected(self):
        with pytest.raises(InstanceFormatError, match="range"):
            parse_instance('{"n":2,"edges":[[0,5]]}')

    def test_unknown_field_rejected(self):
        with pytest.raises(InstanceFormatError, match="unknown field"):
            parse_instance('{"n":1,"edges":[],"lamda":3}')

    def test_invalid_json(self):
        with pytest.raises(InstanceFormatError, match="invalid JSON"):
            parse_instance("{n:")

    def test_missing_n(self):
        with pytest.raises(InstanceFormatError, match="'n'"):
            parse_instance('{"edges":[]}')

    def test_bad_weight(self):
        with pytest.raises(InstanceFormatError, match="weight"):
            parse_instance('{"n":2,"edges":[[0,1,0]]}')

    def test_empty_input(self):
        with pytest.raises(InstanceFormatError, match="empty"):
            parse_instance("   ")


class TestParseDimacs:
    def test_basic(self):
        text = "c a triangle\np edge 3 3\ne 1 2 2\ne 2 3 2\ne 1 3 2\n"
        inst = parse_instance(text)
        assert inst.n == 3
        assert inst.edges == ((0, 1, 2), (0, 2, 2), (1, 2, 2))

    def test_default_weight(self):
        inst = parse_instance("p edge 2 1\ne 1 2\n")
        assert inst.edges == ((0, 1, 1),)

    def test_edge_before_problem_line(self):
        with pytest.raises(InstanceFormatError, match="problem line"):
            parse_instance("e 1 2\np edge 2 1\n")

    def test_count_mismatch(self):
        with pytest.raises(InstanceFormatError, match="declares"):
            parse_instance("p edge 2 2\ne 1 2\n")

    def test_unknown_line(self):
        with pytest.raises(InstanceFormatError, match="unknown line"):
            parse_instance("p edge 2 1\nx 1 2\ne 1 2\n")

    def test_bad_token_reports_line(self):
        with pytest.raises(InstanceFormatError, match="line 2"):
            parse_instance("p edge 2 1\ne 1 q\n")

    def test_missing_problem_line(self):
        with pytest.raises(InstanceFormatError, match="missing problem line"):
            parse_instance("c nothing here\n")


class TestRoundTrip:
    def test_fixed_example(self):
        text = '{"n":4,"edges":[[0,1,2],[2,3]],"lambda":3}'
        once = parse_instance(text)
        again = parse_instance(emit_instance(once))
        assert once == again

    @given(st.integers(0, 6), st.floats(0, 1), st.integers(0, 9999))
    @settings(max_examples=50, deadline=None)
    def test_random_instances(self, n, prob, seed):
        rng = random.Random(seed)
        edges = [
            [u, v, rng.randint(1, 4)]
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < prob
        ]
        payload = {"n": n, "edges": edges}
        if rng.random() < 0.5:
            payload["lambda"] = rng.randint(0, 9)
        if rng.random() < 0.5:
            payload["p"] = [rng.randint(1, 3) for _ in range(rng.randint(1, 3))]
        once = parse_instance(json.dumps(payload))
        assert parse_instance(emit_instance(once)) == once


class TestEmitResult:
    def test_infeasible_schema(self):
        text = emit_result(False, 3, None, {"nd": 2, "solve_ms": 7})
        payload = json.loads(text)
        assert payload == {
            "feasible": False,
            "lambda": 3,
            "labels": None,
            "stats": {"nd": 2, "types": 0, "digraph_nodes": 0, "cuts_added": 0, "solve_ms": 7},
        }

    def test_feasible_labels(self):
        payload = json.loads(emit_result(True, 5, (0, 5), {}))
        assert payload["labels"] in ([0, 5], [5, 0])

    def test_minimize_adds_lambda_min(self):
        payload = json.loads(emit_result(True, 4, (0, 4), {}, minimized_span=4))
        assert payload["lambda_min"] == 4

    def test_graph_helpers(self):
        inst = parse_instance('{"n":2,"edges":[[0,1,5]]}')
        assert inst.graph().edges == frozenset({(0, 1)})
        assert inst.weighted_graph().weights == {(0, 1): 5}
