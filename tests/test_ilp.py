import itertools
import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from ndchan import (
    Constraint,
    IlpModel,
    add_constraint,
    check_solution,
    solve_feasibility,
)
from ndchan.errors import GuardExceeded
from ndchan.ilp import (
    EQ,
    LE,
    refute_by_certificate,
    relaxation_point,
)


def box_enumerate(model):
    """Independent oracle: scan the whole bound box for a satisfying point."""
    ranges = [range(ub + 1) for ub in model.upper_bounds]
    for point in itertools.product(*ranges):
        ok = True
        for c in model.constraints:
            total = sum(coef * point[var] for var, coef in c.terms)
            if c.relation == EQ and total != c.rhs:
                ok = False
                break
            if c.relation == LE and total > c.rhs:
                ok = False
                break
        if ok:
            return point
    return None


def random_model(rng, max_vars=6, max_ub=4, max_cons=5):
    nvar = rng.randint(1, max_vars)
    ubs = tuple(rng.randint(0, max_ub) for _ in range(nvar))
    cons = []
    for _ in range(rng.randint(0, max_cons)):
        terms = [
            (j, rng.randint(-3, 3))
            for j in range(nvar)
            if rng.random() < 0.6
        ]
        cons.append(
            Constraint.build(terms, rng.choice((EQ, LE)), rng.randint(-4, 8))
        )
    return IlpModel(nvar, ubs, tuple(cons))


class TestConstraint:
    def test_merges_and_drops_zero_terms(self):
        c = Constraint.build([(0, 1), (0, -1), (1, 2)], LE, 3)
        assert c.terms == ((1, 2),)

    def test_rejects_unknown_relation(self):
        with pytest.raises(ValueError):
            Constraint(((0, 1),), ">=", 0)

    def test_model_rejects_foreign_variables(self):
        with pytest.raises(ValueError):
            IlpModel(1, (1,), (Constraint.build([(3, 1)], LE, 0),))


class TestSolveFeasibility:
    def test_simple_equality(self):
        model = IlpModel(
            2,
            (2, 2),
            (
                Constraint.build([(0, 1), (1, 1)], EQ, 2),
                Constraint.build([(0, 1)], LE, 1),
            ),
        )
        solution = solve_feasibility(model)
        assert solution is not None
        assert check_solution(model, solution)

    def test_contradiction(self):
        model = IlpModel(
            1,
            (5,),
            (
                Constraint.build([(0, 1)], EQ, 3),
                Constraint.build([(0, 1)], LE, 2),
            ),
        )
        assert solve_feasibility(model) is None

    def test_negative_upper_bound_is_infeasible(self):
        assert solve_feasibility(IlpModel(1, (-1,))) is None

    def test_no_variables(self):
        assert solve_feasibility(IlpModel(0, ())) == ()

    def test_values_go_largest_first(self):
        assert solve_feasibility(IlpModel(2, (3, 1))) == (3, 1)

    def test_deterministic(self):
        rng = random.Random(3)
        for _ in range(20):
            model = random_model(rng)
            first = solve_feasibility(model)
            second = solve_feasibility(model)
            assert first == second

    def test_node_guard_raises(self):
        # a model with a large search space and a tiny budget
        cons = (Constraint.build([(j, 1) for j in range(8)], EQ, 12),
                Constraint.build([(j, (-1) ** j * 2) for j in range(8)], EQ, 1))
        model = IlpModel(8, (4,) * 8, cons)
        with pytest.raises(GuardExceeded):
            solve_feasibility(model, max_nodes=1)

    @given(st.integers(0, 99999))
    @settings(max_examples=150, deadline=None)
    def test_agrees_with_box_enumeration(self, seed):
        model = random_model(random.Random(seed))
        expected = box_enumerate(model)
        got = solve_feasibility(model)
        assert (got is None) == (expected is None)
        if got is not None:
            assert check_solution(model, got)

    @given(st.integers(0, 99999))
    @settings(max_examples=60, deadline=None)
    def test_search_options_do_not_change_the_answer(self, seed):
        rng = random.Random(seed)
        model = random_model(rng)
        baseline = solve_feasibility(model) is not None
        got = solve_feasibility(
            model, selector=lambda lo, hi: next((j for j in range(len(lo)) if hi[j] > lo[j]), None)
        )
        assert (got is not None) == baseline
        if got is not None:
            assert check_solution(model, got)


class TestAddConstraint:
    def test_tightening_can_make_infeasible(self):
        model = IlpModel(1, (5,), (Constraint.build([(0, 1)], EQ, 1),))
        assert solve_feasibility(model) is not None
        tightened = add_constraint(model, Constraint.build([(0, 1)], LE, 0))
        assert solve_feasibility(tightened) is None

    def test_trivial_constraint_keeps_solutions(self):
        model = IlpModel(2, (3, 3), (Constraint.build([(0, 1), (1, 1)], EQ, 4),))
        extended = add_constraint(model, Constraint.build([], LE, 1))
        assert solve_feasibility(model) == solve_feasibility(extended)

    def test_returns_new_model(self):
        model = IlpModel(1, (1,))
        extended = add_constraint(model, Constraint.build([(0, 1)], LE, 0))
        assert len(model.constraints) == 0
        assert len(extended.constraints) == 1

    @given(st.integers(0, 9999))
    @settings(max_examples=60, deadline=None)
    def test_never_turns_infeasible_into_feasible(self, seed):
        rng = random.Random(seed)
        model = random_model(rng)
        if solve_feasibility(model) is not None:
            return
        extra = Constraint.build(
            [(j, rng.randint(-2, 2)) for j in range(model.var_count)],
            rng.choice((EQ, LE)),
            rng.randint(-3, 6),
        )
        assert solve_feasibility(add_constraint(model, extra)) is None


class TestCheckSolution:
    def test_rejects_wrong_length(self):
        assert not check_solution(IlpModel(2, (1, 1)), (0,))

    def test_rejects_bound_violation(self):
        assert not check_solution(IlpModel(1, (1,)), (2,))

    def test_accepts_valid(self):
        model = IlpModel(2, (2, 2), (Constraint.build([(0, 1), (1, -1)], LE, 0),))
        assert check_solution(model, (1, 2))


class TestRelaxationTools:
    def test_certificate_on_plainly_infeasible_model(self):
        pytest.importorskip("scipy")
        model = IlpModel(
            2, (2, 2), (Constraint.build([(0, 1), (1, 1)], EQ, 9),)
        )
        assert refute_by_certificate(model)

    def test_certificate_declines_on_feasible_model(self):
        model = IlpModel(2, (2, 2), (Constraint.build([(0, 1), (1, 1)], EQ, 3),))
        assert not refute_by_certificate(model)

    def test_certificate_solves_one_lp(self, monkeypatch):
        # the multipliers are boxed, so the Farkas LP is bounded and one
        # solve settles both a refutation and a decline
        scipy_optimize = pytest.importorskip("scipy.optimize")
        solves = []
        linprog = scipy_optimize.linprog

        def counted(*args, **kwargs):
            solves.append(1)
            return linprog(*args, **kwargs)

        monkeypatch.setattr(scipy_optimize, "linprog", counted)
        for rhs, refuted in ((9, True), (3, False)):
            model = IlpModel(2, (2, 2), (Constraint.build([(0, 1), (1, 1)], EQ, rhs),))
            solves.clear()
            assert refute_by_certificate(model) is refuted
            assert len(solves) == 1

    def test_relaxation_point_satisfies_bounds(self):
        pytest.importorskip("scipy")
        model = IlpModel(2, (2, 2), (Constraint.build([(0, 1), (1, 1)], EQ, 3),))
        point = relaxation_point(model)
        assert point is not None
        assert all(-1e-9 <= v <= 2 + 1e-9 for v in point)

    def test_no_fast_extra_leaves_no_lp(self, request):
        if not request.config.getoption("--no-fast-extra"):
            pytest.skip("checks the --no-fast-extra configuration")
        model = IlpModel(2, (2, 2), (Constraint.build([(0, 1), (1, 1)], EQ, 9),))
        assert relaxation_point(model) is None
        assert not refute_by_certificate(model)

    def test_certificate_memory_follows_the_terms(self):
        # 3,000 variables at most 1 in 30 blocks of 100, each block summing
        # to at most 100, and the total asked to be 3,001: the certificate
        # proves it infeasible without a dense matrix on the way.  A dense
        # Farkas system is 3,000 x (31 + 2 * 3,000) floats, 145 MB
        pytest.importorskip("scipy")
        n = 3000
        blocks = [Constraint.build([(j, 1) for j in range(b, b + 100)], LE, 100) for b in range(0, n, 100)]
        total = Constraint.build([(j, 1) for j in range(n)], EQ, n + 1)
        model = IlpModel(n, (1,) * n, tuple(blocks) + (total,))
        dense = n * (len(model.constraints) + 2 * n) * 8
        relaxation_point(IlpModel(1, (1,), (Constraint.build([(0, 1)], EQ, 1),)))  # scipy's imports
        tracemalloc.start()
        try:
            assert refute_by_certificate(model)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < dense / 20, peak

    @given(st.integers(0, 9999))
    @settings(max_examples=60, deadline=None)
    def test_certificate_never_contradicts_a_solution(self, seed):
        model = random_model(random.Random(seed))
        if solve_feasibility(model) is not None:
            assert not refute_by_certificate(model)
