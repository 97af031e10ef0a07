"""Transport solvers: cost construction, exact/entropic solves, oracle agreement."""

import functools
import itertools
import sys
import threading
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
from numpy.testing import assert_allclose
from scipy.optimize import linprog
from scipy.optimize._highspy import _core as highs

from iwot import data, ot
from iwot.errors import DegenerateInputError, NumericalError
from iwot.ot import (
    cosine_cost,
    cosine_cost_grad,
    coupling_cost,
    solve_exact,
    solve_sinkhorn,
    validate_coupling,
    write_matrix_csv,
)
from iwot.reference import permutation_transport, vertex_transport


def random_marginal(rng, n):
    raw = rng.uniform(0.1, 1.0, size=n)
    return raw / raw.sum()


class TestCosineCost:
    def test_identical_unit_vectors_cost_zero(self):
        u = np.array([[1.0, 0.0], [0.0, 1.0]])
        cost = cosine_cost(u, u)
        assert_allclose(np.diag(cost), [0.0, 0.0], atol=1e-15)

    def test_orthogonal_cost_one_antipodal_cost_two(self):
        u = np.array([[1.0, 0.0]])
        v = np.array([[0.0, 1.0], [-1.0, 0.0]])
        cost = cosine_cost(u, v)
        assert_allclose(cost, [[1.0, 2.0]], atol=1e-15)

    def test_hand_value_45_degrees(self):
        cost = cosine_cost(np.array([[1.0, 0.0]]), np.array([[1.0, 1.0]]))
        assert_allclose(cost[0, 0], 1.0 - 1.0 / np.sqrt(2.0), rtol=0, atol=1e-15)

    def test_scale_invariance(self):
        rng = np.random.default_rng(0)
        u = rng.normal(size=(4, 6))
        v = rng.normal(size=(5, 6))
        assert_allclose(cosine_cost(3.0 * u, 0.25 * v), cosine_cost(u, v), atol=1e-12)

    def test_range_stays_in_zero_two(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            u = rng.normal(size=(6, 4))
            v = rng.normal(size=(7, 4))
            cost = cosine_cost(u, v)
            assert cost.min() >= 0.0 and cost.max() <= 2.0

    def test_zero_norm_row_rejected(self):
        u = np.array([[0.0, 0.0], [1.0, 0.0]])
        v = np.array([[1.0, 1.0]])
        with pytest.raises(DegenerateInputError):
            cosine_cost(u, v)
        with pytest.raises(DegenerateInputError):
            cosine_cost(v, u)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            cosine_cost(np.ones((2, 3)), np.ones((2, 4)))
        # The gradient shares the forward pass's input checks.
        for a, b, upstream in (
            (np.ones(3), np.ones((2, 3)), np.ones((3, 2))),
            (np.ones((2, 3)), np.ones((2, 4)), np.ones((2, 2))),
        ):
            with pytest.raises(ValueError, match="feature batches must be 2-D with equal width"):
                cosine_cost_grad(a, b, upstream)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        u = rng.normal(size=(3, 4))
        v = rng.normal(size=(2, 4))
        upstream = rng.normal(size=(3, 2))

        def objective():
            return float((cosine_cost(u, v) * upstream).sum())

        grad_u, grad_v = cosine_cost_grad(u, v, upstream)
        h = 1e-6
        for arr, grad in ((u, grad_u), (v, grad_v)):
            fd = np.zeros_like(arr)
            it = np.nditer(arr, flags=["multi_index"])
            while not it.finished:
                idx = it.multi_index
                orig = arr[idx]
                arr[idx] = orig + h
                up = objective()
                arr[idx] = orig - h
                down = objective()
                arr[idx] = orig
                fd[idx] = (up - down) / (2 * h)
                it.iternext()
            assert_allclose(grad, fd, rtol=1e-6, atol=1e-9)


class TestSolveExact:
    def test_diagonal_optimum(self):
        cost = np.array([[0.0, 1.0], [1.0, 0.0]])
        u = np.array([0.5, 0.5])
        plan = solve_exact(cost, u, u)
        assert_allclose(plan, [[0.5, 0.0], [0.0, 0.5]], atol=1e-9)
        assert_allclose(coupling_cost(plan, cost), 0.0, atol=1e-12)

    def test_antidiagonal_optimum(self):
        # enumerating both permutation couplings: diag costs 0.3, anti 0.2
        cost = np.array([[0.2, 0.1], [0.3, 0.4]])
        u = np.array([0.5, 0.5])
        plan = solve_exact(cost, u, u)
        assert_allclose(plan, [[0.0, 0.5], [0.5, 0.0]], atol=1e-9)
        assert_allclose(coupling_cost(plan, cost), 0.2, atol=1e-12)

    def test_general_marginals_single_free_variable(self):
        cost = np.array([[0.0, 1.0], [1.0, 0.0]])
        plan = solve_exact(cost, np.array([0.7, 0.3]), np.array([0.5, 0.5]))
        assert_allclose(plan, [[0.5, 0.2], [0.0, 0.3]], atol=1e-9)
        assert_allclose(coupling_cost(plan, cost), 0.2, atol=1e-12)

    def test_invalid_marginals_rejected(self):
        cost = np.zeros((2, 2))
        with pytest.raises(ValueError):
            solve_exact(cost, np.array([0.6, 0.6]), np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            solve_exact(cost, np.array([-0.5, 1.5]), np.array([0.5, 0.5]))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            solve_exact(np.zeros((2, 3)), np.full(2, 0.5), np.full(2, 0.5))

    def test_zero_marginal_rows_are_exactly_zero(self):
        rng = np.random.default_rng(2)
        cost = rng.uniform(0, 2, (4, 3))
        p1 = np.array([0.5, 0.0, 0.3, 0.2])
        p2 = np.array([0.4, 0.0, 0.6])
        plan = solve_exact(cost, p1, p2)
        assert (plan[1] == 0.0).all()
        assert (plan[:, 1] == 0.0).all()
        assert validate_coupling(plan, p1, p2, tol=1e-8).passed

    def test_marginal_feasibility_on_random_instances(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            m, n = rng.integers(2, 9, size=2)
            cost = rng.uniform(0, 2, (m, n))
            p1, p2 = random_marginal(rng, m), random_marginal(rng, n)
            plan = solve_exact(cost, p1, p2)
            report = validate_coupling(plan, p1, p2, tol=1e-8)
            assert report.passed, report

    def test_objective_bounds(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            n = rng.integers(2, 7)
            cost = rng.uniform(0, 2, (n, n))
            plan = solve_exact(cost, random_marginal(rng, n), random_marginal(rng, n))
            value = coupling_cost(plan, cost)
            assert -1e-12 <= value <= cost.max() + 1e-12


def lp_oracle_value(cost, p1, p2):
    """Optimal value of the transportation LP with every marginal constraint."""
    m, n = cost.shape
    a_eq = sp.vstack([sp.kron(sp.eye(m), np.ones((1, n))), sp.kron(np.ones((1, m)), sp.eye(n))])
    result = linprog(
        cost.ravel(), A_eq=a_eq, b_eq=np.concatenate([p1, p2]), bounds=(0, None), method="highs"
    )
    assert result.success, result.message
    return result.fun


@pytest.fixture()
def exact_routes(monkeypatch):
    """Record which backend each `solve_exact` call reaches: "assignment" once,
    or "lp" once per HiGHS pass."""
    routes = []
    real_lp, real_assignment = ot._solve_lp, ot.linear_sum_assignment

    def lp(*args, **kwargs):
        routes.append("lp")
        return real_lp(*args, **kwargs)

    def assignment(*args, **kwargs):
        routes.append("assignment")
        return real_assignment(*args, **kwargs)

    monkeypatch.setattr(ot, "_solve_lp", lp)
    monkeypatch.setattr(ot, "linear_sum_assignment", assignment)
    return routes


class TestAssignmentPath:
    @pytest.mark.parametrize("n", [4, 64, 256])
    def test_matches_lp_oracle_with_exact_marginals(self, exact_routes, n):
        rng = np.random.default_rng(n)
        cost = rng.uniform(0, 2, (n, n))
        u = np.full(n, 1.0 / n)
        plan = solve_exact(cost, u, u)
        assert exact_routes == ["assignment"]
        assert_allclose(coupling_cost(plan, cost), lp_oracle_value(cost, u, u), rtol=0, atol=1e-12)
        assert np.isin(plan, [0.0, 1.0 / n]).all()
        assert (plan.sum(axis=1) == u).all() and (plan.sum(axis=0) == u).all()

    def test_equal_masses_after_removing_zero_atoms(self, exact_routes):
        # square and uniform once the zero-mass atoms are gone: still an assignment
        cost = np.array([[0.9, 0.1], [0.5, 0.5], [0.2, 0.8]])
        p1 = np.array([0.5, 0.0, 0.5])
        p2 = np.array([0.5, 0.5])
        plan = solve_exact(cost, p1, p2)
        assert exact_routes == ["assignment"]
        assert_allclose(plan, [[0.0, 0.5], [0.0, 0.0], [0.5, 0.0]], rtol=0, atol=0)

    @pytest.mark.parametrize(
        "p1, p2",
        [
            # non-square, both uniform
            (np.full(4, 0.25), np.full(5, 0.2)),
            # square, masses unequal
            (np.array([0.4, 0.2, 0.2, 0.2]), np.full(4, 0.25)),
            # square as given; p1 is uniform only once its zero atom is gone,
            # which leaves a 3x4 problem
            (np.array([1.0, 1.0, 0.0, 1.0]) / 3.0, np.full(4, 0.25)),
        ],
    )
    def test_other_problems_stay_on_the_lp(self, exact_routes, p1, p2):
        rng = np.random.default_rng(21)
        cost = rng.uniform(0, 2, (p1.size, p2.size))
        plan = solve_exact(cost, p1, p2)
        assert exact_routes == ["lp"]
        assert validate_coupling(plan, p1, p2, tol=1e-8).passed
        assert_allclose(coupling_cost(plan, cost), lp_oracle_value(cost, p1, p2), rtol=0, atol=1e-9)


def linprog_plan(cost, p1, p2):
    """The plan of the transportation LP as `scipy.optimize.linprog` solves it
    with HiGHS, presolve off, on the same constraints `solve_exact` builds."""
    m, n = cost.shape
    a_eq = sp.vstack(
        [
            sp.kron(sp.eye(m), np.ones((1, n))),
            sp.kron(np.ones((1, m)), sp.eye(n), format="csr")[:-1],
        ]
    )
    result = linprog(
        cost.ravel(),
        A_eq=a_eq,
        b_eq=np.concatenate([p1, p2[:-1]]),
        bounds=(0, None),
        method="highs",
        options={"presolve": False},
    )
    assert result.success, result.message
    return np.where(result.x < 0, 0.0, result.x).reshape(m, n)


class TestLPPath:
    @pytest.mark.parametrize("n", [24, 64, 256])
    def test_plan_matches_linprog_on_learned_marginals(self, exact_routes, n):
        # The same vertex as linprog: the same support, and entries that
        # differ only by HiGHS's round-off, which depends on the columns the
        # LP was solved with (measured: at most 6.25 ulps of 1/n on these
        # seeds, bit-equal at n = 24 and 64).
        for seed in range(12):
            rng = np.random.default_rng([n, seed])
            cost = rng.uniform(0, 2, (n, n))
            p1, p2 = random_marginal(rng, n), random_marginal(rng, n)
            exact_routes.clear()
            plan = solve_exact(cost, p1, p2)
            assert set(exact_routes) == {"lp"}
            expected = linprog_plan(cost, p1, p2)
            assert ((plan > 0) == (expected > 0)).all()
            assert_allclose(plan, expected, rtol=0, atol=16 * np.spacing(1.0 / n))
            assert abs(coupling_cost(plan, cost) - coupling_cost(expected, cost)) <= 1e-15

    def test_plan_equals_linprog_with_a_zero_mass_atom(self, exact_routes):
        rng = np.random.default_rng(31)
        cost = rng.uniform(0, 2, (12, 9))
        p1, p2 = random_marginal(rng, 12), random_marginal(rng, 9)
        p1[4] = 0.0
        p1 /= p1.sum()
        plan = solve_exact(cost, p1, p2)
        assert exact_routes == ["lp"]
        rows = p1 > 0
        expected = np.zeros_like(cost)
        expected[rows] = linprog_plan(cost[rows], p1[rows], p2)
        # The same vertex; its entries depend on the pivot path only by
        # round-off (measured 2.8e-17 from linprog's cold, steepest-edge one).
        assert ((plan > 0) == (expected > 0)).all()
        assert_allclose(plan, expected, rtol=0, atol=1e-15)
        assert (plan[4] == 0.0).all()

    @pytest.mark.parametrize(
        "fault",
        [
            lambda run, model: (highs.HighsStatus.kError, model),
            lambda run, model: (run, highs.HighsModelStatus.kIterationLimit),
            lambda run, model: (run, highs.HighsModelStatus.kInfeasible),
        ],
        ids=["run-error", "iteration-limit", "infeasible"],
    )
    def test_failed_solve_raises_numerical_error(self, monkeypatch, fault):
        real_lp = ot._solve_lp
        passes = []

        def failing(solver):
            run_status, model_status, solution, info = real_lp(solver)
            passes.append(solver.getNumCol())
            if len(passes) == fail_on:
                return (*fault(run_status, model_status), solution, info)
            return run_status, model_status, solution, info

        monkeypatch.setattr(ot, "_solve_lp", failing)
        monkeypatch.setattr(ot, "_SHORTLIST", 1)
        rng = np.random.default_rng(32)
        instances = [
            # the first pass fails
            (1, rng.uniform(0, 2, (5, 6)), random_marginal(rng, 5), random_marginal(rng, 6)),
            # the re-solve after pricing added columns fails
            (2, *heavy_row_instance()),
        ]
        for fail_on, cost, p1, p2 in instances:
            passes.clear()
            with pytest.raises(NumericalError, match="exact transport LP failed"):
                solve_exact(cost, p1, p2)
            assert len(passes) == fail_on
        assert passes[1] > passes[0]


def heavy_row_instance(n=64):
    """One source atom of mass 0.5 against a uniform target: that row must
    spread over at least n/2 columns. With `_SHORTLIST` monkeypatched to 1,
    the first LP lists only a few of them, so pricing must add arcs and the
    LP is solved again."""
    rng = np.random.default_rng(41)
    p1 = np.full(n, 0.5 / (n - 1))
    p1[7] = 0.5
    return rng.uniform(0, 2, (n, n)), p1, np.full(n, 1.0 / n)


class TestShortlistPricing:
    def test_optimum_needs_arcs_outside_the_shortlist(self, monkeypatch, exact_routes):
        monkeypatch.setattr(ot, "_SHORTLIST", 1)
        cost, p1, p2 = heavy_row_instance()
        plan = solve_exact(cost, p1, p2)
        assert len(exact_routes) > 1  # pricing added arcs and re-solved
        assert (plan[7] > 0).sum() > ot._SHORTLIST
        assert (plan.ravel()[~ot._shortlist(cost, p1, p2)[0]] > 0).any()
        assert validate_coupling(plan, p1, p2, tol=1e-8).passed
        assert_allclose(coupling_cost(plan, cost), lp_oracle_value(cost, p1, p2), rtol=0, atol=1e-9)

    def test_infeasible_re_solve_runs_again_cold(self, monkeypatch):
        # A warm re-solve can end a few 1e-8 off a marginal (seen on one of
        # 300 training LPs); the pass is then run again without its basis.
        real_lp = ot._solve_lp
        passes = []

        def reporting_infeasible(solver):
            run_status, model_status, solution, info = real_lp(solver)
            passes.append((solver.getNumCol(), info.simplex_iteration_count))
            if len(passes) == 2:
                info = SimpleNamespace(max_primal_infeasibility=3.6e-8)
            return run_status, model_status, solution, info

        monkeypatch.setattr(ot, "_SHORTLIST", 1)
        cost, p1, p2 = heavy_row_instance()
        expected = solve_exact(cost, p1, p2)
        monkeypatch.setattr(ot, "_solve_lp", reporting_infeasible)
        plan = solve_exact(cost, p1, p2)
        assert passes[2][0] == passes[1][0] > passes[0][0]
        assert passes[2][1] > 0
        assert_allclose(plan, expected, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("shape", [(1, 30), (30, 1), (20, 30), (30, 20)])
    def test_pricing_from_a_one_arc_shortlist(self, monkeypatch, exact_routes, shape):
        # With one listed arc per row and column, the staircase alone keeps
        # the first LP feasible and pricing must find most of the optimum.
        monkeypatch.setattr(ot, "_SHORTLIST", 1)
        rng = np.random.default_rng(sum(shape))
        cost = rng.uniform(0, 2, shape)
        p1, p2 = random_marginal(rng, shape[0]), random_marginal(rng, shape[1])
        listed = ot._shortlist(cost, p1, p2)[0].reshape(shape)
        assert listed[0, 0] and listed[-1, -1]
        assert listed.sum() <= 2 * sum(shape) - 1
        plan = solve_exact(cost, p1, p2)
        assert validate_coupling(plan, p1, p2, tol=1e-8).passed
        assert_allclose(coupling_cost(plan, cost), lp_oracle_value(cost, p1, p2), rtol=0, atol=1e-9)
        if min(shape) > 1:
            assert len(exact_routes) > 1

    @pytest.mark.parametrize("shape", [(5, 40), (40, 5)])
    def test_rectangular_problems_with_a_short_side(self, exact_routes, shape):
        rng = np.random.default_rng(shape[0])
        cost = rng.uniform(0, 2, shape)
        p1, p2 = random_marginal(rng, shape[0]), random_marginal(rng, shape[1])
        plan = solve_exact(cost, p1, p2)
        assert set(exact_routes) == {"lp"}
        assert validate_coupling(plan, p1, p2, tol=1e-8).passed
        assert_allclose(coupling_cost(plan, cost), lp_oracle_value(cost, p1, p2), rtol=0, atol=1e-9)

    def test_zero_mass_atom_and_tiny_marginal_entry(self):
        rng = np.random.default_rng(43)
        cost = rng.uniform(0, 2, (30, 40))
        p1, p2 = random_marginal(rng, 30), random_marginal(rng, 40)
        p1[3] = 0.0
        p1[11] = 1e-9
        p1 /= p1.sum()
        p2[25] = 1e-9
        p2 /= p2.sum()
        plan = solve_exact(cost, p1, p2)
        assert (plan[3] == 0.0).all()
        assert validate_coupling(plan, p1, p2, tol=1e-8).passed
        assert_allclose(plan[11].sum(), p1[11], rtol=0, atol=1e-12)
        assert_allclose(plan[:, 25].sum(), p2[25], rtol=0, atol=1e-12)
        assert_allclose(coupling_cost(plan, cost), lp_oracle_value(cost, p1, p2), rtol=0, atol=1e-9)

    @pytest.mark.parametrize("n, count", [(24, 6), (64, 4), (256, 1)])
    def test_learned_marginals_on_cosine_costs_match_the_oracle(self, n, count):
        # training's problems: a learned marginal against uniform, or two
        # learned marginals, on the cosine cost of low-dimensional features
        rng = np.random.default_rng(n + 2)
        for index in range(count):
            cost = cosine_cost(rng.normal(size=(n, 8)), rng.normal(size=(n, 8)) + 0.5)
            p1 = random_marginal(rng, n)
            p2 = random_marginal(rng, n) if index % 2 else np.full(n, 1.0 / n)
            plan = solve_exact(cost, p1, p2)
            assert validate_coupling(plan, p1, p2, tol=1e-8).passed
            value = lp_oracle_value(cost, p1, p2)
            assert_allclose(coupling_cost(plan, cost), value, rtol=0, atol=1e-9)


def learned_cosine_instance(n, seed, learned_target):
    rng = np.random.default_rng(seed)
    cost = cosine_cost(rng.normal(size=(n, 8)), rng.normal(size=(n, 8)) + 0.5)
    p1 = random_marginal(rng, n)
    p2 = random_marginal(rng, n) if learned_target else np.full(n, 1.0 / n)
    return cost, p1, p2


class TestShortlistRanking:
    @pytest.mark.parametrize("scale, shift", [(0.5, -1.0), (3.0, 0.25), (1e3, 7.0), (1e-6, 0.0)])
    def test_scaled_and_shifted_cost_lists_the_same_arcs(self, scale, shift):
        cost, p1, p2 = learned_cosine_instance(64, 61, learned_target=True)
        listed = ot._shortlist(cost, p1, p2)[0]
        assert (ot._shortlist(scale * cost + shift, p1, p2)[0] == listed).all()

    def test_constant_cost(self, exact_routes):
        rng = np.random.default_rng(62)
        cost = np.full((20, 30), 0.7)
        p1, p2 = random_marginal(rng, 20), random_marginal(rng, 30)
        with np.errstate(all="raise"):
            listed = ot._shortlist(cost, p1, p2)[0]
        assert listed.reshape(cost.shape).sum(axis=1).min() >= ot._SHORTLIST
        plan = solve_exact(cost, p1, p2)
        assert exact_routes == ["lp"]
        assert validate_coupling(plan, p1, p2, tol=1e-8).passed
        assert_allclose(coupling_cost(plan, cost), 0.7, rtol=0, atol=1e-12)

    def test_tiny_and_zero_masses_on_both_sides(self):
        cost, p1, p2 = learned_cosine_instance(64, 63, learned_target=True)
        p1[[2, 17, 40]] = 1e-9
        p1[5] = 0.0
        p2[[0, 33, 63]] = 1e-9
        p2[9] = 0.0
        p1 /= p1.sum()
        p2 /= p2.sum()
        plan = solve_exact(cost, p1, p2)
        assert (plan[5] == 0.0).all() and (plan[:, 9] == 0.0).all()
        assert validate_coupling(plan, p1, p2, tol=1e-8).passed
        assert_allclose(coupling_cost(plan, cost), lp_oracle_value(cost, p1, p2), rtol=0, atol=1e-9)

    @pytest.mark.parametrize("side", [0, 1], ids=["p1", "p2"])
    @pytest.mark.parametrize("mass", [1e-320, 5e-324])
    def test_subnormal_mass_ranks_without_floating_point_errors(self, mass, side):
        # The ranking floors the masses at `_representable_mass`, so no kernel
        # row empties and no potential turns non-finite; the LP keeps the true
        # masses.
        rng = np.random.default_rng(64)
        cost = cosine_cost(rng.normal(size=(30, 8)), rng.normal(size=(20, 8)))
        p1, p2 = np.full(30, 1.0 / 30), np.full(20, 1.0 / 20)
        tiny = p1 if side == 0 else p2
        tiny[:] = 1.0 / (tiny.size - 1)
        tiny[3] = mass
        with np.errstate(all="raise"):
            plan = solve_exact(cost, p1, p2)
        assert validate_coupling(plan, p1, p2, tol=1e-12).passed
        assert_allclose(coupling_cost(plan, cost), lp_oracle_value(cost, p1, p2), rtol=0, atol=1e-9)

    @pytest.mark.parametrize(
        "n, learned_target, arcs, passes",
        # ranked by raw cost, 16 arcs per row and column listed 1,398 and
        # 6,017 arcs, and the 256x256 LP took 2 passes
        [(64, False, 744, 1), (256, True, 3141, 1)],
    )
    def test_listed_arcs_and_passes_on_learned_marginals(
        self, exact_routes, n, learned_target, arcs, passes
    ):
        cost, p1, p2 = learned_cosine_instance(n, n + 3, learned_target)
        assert ot._shortlist(cost, p1, p2)[0].sum() == arcs
        plan = solve_exact(cost, p1, p2)
        assert len(exact_routes) == passes
        assert_allclose(coupling_cost(plan, cost), lp_oracle_value(cost, p1, p2), rtol=0, atol=1e-9)


class TestTreeStart:
    @pytest.mark.parametrize("shape", [(1, 7), (7, 1), (5, 40), (40, 5), (64, 64)])
    def test_tree_spans_every_row_and_column_with_listed_arcs(self, shape):
        rng = np.random.default_rng(sum(shape))
        cost = rng.uniform(0, 2, shape)
        p1, p2 = random_marginal(rng, shape[0]), random_marginal(rng, shape[1])
        listed, tree = ot._shortlist(cost, p1, p2)
        assert not (tree & ~listed).any()
        rows, cols = np.divmod(np.flatnonzero(tree), shape[1])
        assert rows.size == sum(shape) - 1
        # m + n - 1 arcs that join every row and column are a tree: spread
        # the least node label along the arcs until it reaches every node.
        label = np.arange(sum(shape))
        for _ in range(sum(shape)):
            low = np.minimum(label[rows], label[cols + shape[0]])
            np.minimum.at(label, rows, low)
            np.minimum.at(label, cols + shape[0], low)
        assert (label == 0).all()

    @pytest.mark.parametrize("n, learned_target", [(64, False), (256, True)])
    def test_plan_equals_a_cold_solve_in_under_half_the_iterations(
        self, monkeypatch, n, learned_target
    ):
        # A cold solve is the same model with no starting basis.
        real_lp = ot._solve_lp
        iterations = []

        def counting(solver):
            out = real_lp(solver)
            iterations.append(out[3].simplex_iteration_count)
            return out

        class Cold(highs._Highs):
            def setBasis(self, basis):
                return highs.HighsStatus.kOk

        monkeypatch.setattr(ot, "_solve_lp", counting)
        cost, p1, p2 = learned_cosine_instance(n, n + 3, learned_target)
        plan = solve_exact(cost, p1, p2)
        started = sum(iterations)
        iterations.clear()
        cold = Cold()
        cold.passOptions(ot._solver().getOptions())
        monkeypatch.setattr(ot, "_solver", lambda: cold)
        cold_plan = solve_exact(cost, p1, p2)
        assert_allclose(plan, cold_plan, rtol=0, atol=1e-15)
        assert started < sum(iterations) / 5


class TestOracleAgreement:
    def test_exact_matches_permutation_enumeration(self):
        rng = np.random.default_rng(10)
        for _ in range(30):
            n = rng.integers(2, 7)
            cost = rng.uniform(0, 2, (n, n))
            u = np.full(n, 1.0 / n)
            value = coupling_cost(solve_exact(cost, u, u), cost)
            assert_allclose(value, permutation_transport(cost), rtol=0, atol=1e-8)

    def test_exact_matches_vertex_enumeration(self, exact_routes):
        rng = np.random.default_rng(11)
        for _ in range(30):
            m, n = rng.integers(2, 5, size=2)
            cost = rng.uniform(0, 2, (m, n))
            p1, p2 = random_marginal(rng, m), random_marginal(rng, n)
            value = coupling_cost(solve_exact(cost, p1, p2), cost)
            assert_allclose(value, vertex_transport(cost, p1, p2), rtol=0, atol=1e-6)
        assert exact_routes == ["lp"] * 30

    def test_oracles_agree_with_each_other(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            n = rng.integers(2, 5)
            cost = rng.uniform(0, 2, (n, n))
            u = np.full(n, 1.0 / n)
            assert_allclose(
                permutation_transport(cost), vertex_transport(cost, u, u), atol=1e-9
            )

    def test_vertex_oracle_hand_case(self):
        cost = np.array([[0.0, 1.0], [1.0, 0.0]])
        value = vertex_transport(cost, np.array([0.7, 0.3]), np.array([0.5, 0.5]))
        assert_allclose(value, 0.2, atol=1e-12)

    def test_permutation_oracle_hand_case(self):
        cost = np.array([[0.2, 0.1], [0.3, 0.4]])
        assert_allclose(permutation_transport(cost), 0.2, atol=1e-15)

    def test_oracle_size_guards(self):
        with pytest.raises(ValueError):
            permutation_transport(np.zeros((9, 9)))
        with pytest.raises(ValueError):
            vertex_transport(np.zeros((5, 5)), np.full(5, 0.2), np.full(5, 0.2))


class TestInputsUntouched:
    @pytest.mark.parametrize("case", ["full_support", "zero_mass_atom", "negative_cost"])
    @pytest.mark.parametrize("solve", [solve_exact, solve_sinkhorn], ids=["exact", "sinkhorn"])
    def test_solvers_leave_cost_and_marginals_alone(self, solve, case):
        # With every atom holding mass the solvers work on the caller's arrays
        # themselves, not on copies; none of them may be written to, and the
        # plan must not share their memory.
        rng = np.random.default_rng(26)
        cost = cosine_cost(rng.normal(size=(12, 4)), rng.normal(size=(10, 4)))
        p1, p2 = random_marginal(rng, 12), random_marginal(rng, 10)
        if case == "zero_mass_atom":
            p1[3] = 0.0
            p1 /= p1.sum()
        elif case == "negative_cost":
            cost[2, 5] = -0.5
        inputs = (cost, p1, p2)
        before = [array.tobytes() for array in inputs]
        plan = solve(cost, p1, p2)
        plan = getattr(plan, "coupling", plan)
        assert [array.tobytes() for array in inputs] == before
        assert not any(np.shares_memory(plan, array) for array in inputs)
        assert validate_coupling(plan, p1, p2, tol=1e-9).passed


class TestThreadSafety:
    def test_concurrent_exact_solves_match_sequential_plans(self):
        # `wasserstein_gap` runs two exact solves at once: an assignment beside
        # an LP, or two HiGHS runs. Both compiled solvers release the GIL, so
        # this guards that they stay safe to run side by side.
        problems = []
        uniform = np.full(64, 1.0 / 64)
        for seed in range(8):
            problems.append(learned_cosine_instance(24, 2600 + seed, learned_target=True))
            problems.append(learned_cosine_instance(64, 2610 + seed, learned_target=seed % 2 == 0))
            cost, _, _ = learned_cosine_instance(64, 2620 + seed, learned_target=False)
            problems.append((cost, uniform, uniform))
        expected = [solve_exact(*problem).tobytes() for problem in problems]
        barrier = threading.Barrier(2)
        plans = [[], []]

        def solve_all(index):
            barrier.wait()
            order = problems if index == 0 else problems[::-1]
            plans[index] = [solve_exact(*problem).tobytes() for problem in order]

        threads = [threading.Thread(target=solve_all, args=(index,)) for index in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
            assert not thread.is_alive()
        assert plans[0] == expected
        assert plans[1] == expected[::-1]

    def test_threads_solve_on_their_own_instances_and_match_serial_plans(self):
        # Four threads on two cores, switching often, each solving 24, 64 and
        # 256 LPs in its own order on its own HiGHS instance.
        problems = []
        for seed in range(3):
            problems.append(learned_cosine_instance(24, 2700 + seed, learned_target=True))
            problems.append(learned_cosine_instance(64, 2710 + seed, learned_target=seed != 1))
        problems.append(learned_cosine_instance(256, 2720, learned_target=True))
        expected = [solve_exact(*problem).tobytes() for problem in problems]
        workers = 4
        barrier = threading.Barrier(workers)
        plans, instances = [None] * workers, [None] * workers

        def solve_all(index):
            barrier.wait()
            order = problems[index:] + problems[:index]
            plans[index] = [solve_exact(*problem).tobytes() for problem in order]
            instances[index] = ot._solver()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=solve_all, args=(i,)) for i in range(workers)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120.0)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        for index in range(workers):
            assert plans[index] == expected[index:] + expected[:index]
        assert len({id(solver) for solver in instances + [ot._solver()]}) == workers + 1

    @pytest.mark.parametrize("failing_pass", [1, 2])
    def test_a_failed_solve_leaves_the_next_one_on_its_thread_unchanged(
        self, monkeypatch, failing_pass
    ):
        # The instance is reused, so a solve that raised with a model, a basis
        # and columns from pricing still loaded must not reach the next one.
        heavy = heavy_row_instance()
        others = [learned_cosine_instance(n, 2730 + n, learned_target=True) for n in (24, 64)]
        monkeypatch.setattr(ot, "_SHORTLIST", 1)
        expected = [solve_exact(*problem).tobytes() for problem in [heavy, *others]]
        solver = ot._solver()
        real_lp = ot._solve_lp
        passes = []

        def infeasible_once(solver):
            run_status, model_status, solution, info = real_lp(solver)
            passes.append(solver.getNumCol())
            if len(passes) == failing_pass:
                model_status = highs.HighsModelStatus.kInfeasible
            return run_status, model_status, solution, info

        monkeypatch.setattr(ot, "_solve_lp", infeasible_once)
        with pytest.raises(NumericalError, match="model status kInfeasible"):
            solve_exact(*heavy)
        assert len(passes) == failing_pass
        monkeypatch.setattr(ot, "_solve_lp", real_lp)
        assert [solve_exact(*problem).tobytes() for problem in [heavy, *others]] == expected
        assert ot._solver() is solver
        assert solver.getOptionValue("primal_feasibility_tolerance")[1] == 1e-10


class TestSolveSinkhorn:
    def test_zero_cost_gives_outer_product(self):
        p1 = np.array([0.3, 0.7])
        p2 = np.array([0.25, 0.25, 0.5])
        result = solve_sinkhorn(np.zeros((2, 3)), p1, p2, reg=0.1)
        assert result.converged
        assert_allclose(result.coupling, np.outer(p1, p2), atol=1e-9)

    def test_small_reg_approaches_exact_optimum(self):
        cost = np.array([[0.2, 0.1], [0.3, 0.4]])
        u = np.array([0.5, 0.5])
        result = solve_sinkhorn(cost, u, u, reg=1e-3, tol=1e-8, max_iter=20000)
        assert result.converged
        assert abs(coupling_cost(result.coupling, cost) - 0.2) <= 1e-3

    def test_marginal_violation_below_tol_on_random_instances(self):
        rng = np.random.default_rng(20)
        for _ in range(10):
            cost = rng.uniform(0, 2, (8, 8))
            p1, p2 = random_marginal(rng, 8), random_marginal(rng, 8)
            result = solve_sinkhorn(cost, p1, p2, reg=0.05, tol=1e-6)
            assert result.converged
            report = validate_coupling(result.coupling, p1, p2, tol=1e-6)
            assert report.passed, report
            assert result.marginal_error <= 1e-6

    def test_objective_non_increasing_as_reg_decreases(self):
        rng = np.random.default_rng(21)
        cost = rng.uniform(0, 2, (5, 5))
        p1, p2 = random_marginal(rng, 5), random_marginal(rng, 5)
        values = []
        for reg in (0.5, 0.2, 0.1, 0.05, 0.02, 0.01):
            result = solve_sinkhorn(cost, p1, p2, reg=reg, tol=1e-9, max_iter=20000)
            values.append(coupling_cost(result.coupling, cost))
        diffs = np.diff(values)
        assert (diffs <= 1e-6).all(), values
        exact = coupling_cost(solve_exact(cost, p1, p2), cost)
        assert values[-1] >= exact - 1e-9
        assert values[-1] - exact < values[0] - exact + 1e-12

    def test_non_convergence_is_reported_not_raised(self, stage_paths):
        rng = np.random.default_rng(22)
        cost = rng.uniform(0, 2, (6, 6))
        u, zeros = np.full(6, 1.0 / 6), np.zeros(6)
        # At level 1e-4 every exponent starts below -600, so the stage
        # re-centres first; its whole budget goes to scaling passes, and the
        # residual of its plan is still measured.
        for max_iter in (3, 1):
            stage_paths.clear()
            f, g, iterations, error = ot._sinkhorn_stage(
                cost, 1e-4, u, u, zeros, zeros, 1e-12, max_iter, 1.0
            )
            assert stage_paths == [["recentre", "scaling"]]
            assert iterations == max_iter
            plan = np.exp((f[:, None] + g - cost) / 1e-4)
            residual = max(np.abs(plan.sum(axis=1) - u).max(), np.abs(plan.sum(axis=0) - u).max())
            assert 1e-12 < error and np.isfinite(error)
            assert_allclose(error, residual, rtol=1e-9)
        # One iteration per stage leaves the annealed solve unconverged; with
        # potentials carried in cost units, 2 already reach the plan exactly.
        result = solve_sinkhorn(cost, u, u, reg=1e-4, tol=1e-12, max_iter=1)
        assert not result.converged
        assert np.isfinite(result.marginal_error)

    def test_invalid_reg_rejected(self):
        for reg in (0.0, -1.0, np.nan, np.inf):
            with pytest.raises(ValueError):
                solve_sinkhorn(np.zeros((2, 2)), np.full(2, 0.5), np.full(2, 0.5), reg=reg)

    def test_invalid_tol_rejected(self):
        for tol in (-1e-6, np.nan, np.inf):
            with pytest.raises(ValueError):
                solve_sinkhorn(np.zeros((2, 2)), np.full(2, 0.5), np.full(2, 0.5), tol=tol)

    def test_negative_cost_solved_as_its_shift(self):
        # exp(-cost/reg) would overflow here; shifting the cost to a minimum of
        # 0 changes no entropic plan and keeps every kernel exponent <= 0.
        rng = np.random.default_rng(24)
        cost = rng.uniform(-2.0, -1.0, (5, 6))
        p1, p2 = random_marginal(rng, 5), random_marginal(rng, 6)
        result = solve_sinkhorn(cost, p1, p2, reg=1e-3)
        shifted = solve_sinkhorn(cost - cost.min(), p1, p2, reg=1e-3)
        assert np.isfinite(result.marginal_error)
        assert (result.coupling == shifted.coupling).all()

    def test_zero_marginal_entries_give_zero_rows(self):
        rng = np.random.default_rng(23)
        cost = rng.uniform(0, 2, (3, 3))
        p1 = np.array([0.5, 0.0, 0.5])
        p2 = np.full(3, 1.0 / 3)
        result = solve_sinkhorn(cost, p1, p2, reg=0.05)
        assert (result.coupling[1] == 0.0).all()

    @pytest.mark.parametrize("side", [0, 1], ids=["p1", "p2"])
    @pytest.mark.parametrize("mass", [1e-308, 1e-310, 1e-320, 1e-150])
    def test_tiny_mass_atom(self, mass, side):
        # At most sqrt(64 e^-708), about 1.5e-153, an atom is too light for the
        # truncated kernel and comes back as a zero row or column; a heavier
        # one is solved. Either way the plan holds both marginals.
        rng = np.random.default_rng(25)
        cost = cosine_cost(rng.normal(size=(64, 8)), rng.normal(size=(64, 8)))
        tiny, uniform = np.full(64, 1.0 / 63), np.full(64, 1.0 / 64)
        tiny[7] = mass
        p1, p2 = (tiny, uniform) if side == 0 else (uniform, tiny)
        result = solve_sinkhorn(cost, p1, p2, reg=0.05)
        assert result.converged
        assert validate_coupling(result.coupling, p1, p2, tol=1e-12).passed
        atom = np.take(result.coupling, 7, axis=side)
        if mass < 1e-153:
            assert (atom == 0.0).all()
        else:
            assert atom.sum() > 0.0

    @pytest.mark.parametrize(
        "m, n, seed", [(2, 8, 33), (2, 8, 35), (4, 56, 23), (4, 56, 31), (8, 2, 189)]
    )
    def test_tiny_mass_atom_on_the_annealed_path(self, m, n, seed):
        # One atom of 10^U(-140, -100) on the shorter side, well above the
        # ~1e-153 floor, against uniform, at reg 1e-3: each of these raised
        # NumericalError when every annealed stage started from half the
        # previous potentials. The light atom is kept and both marginals hold.
        rng = np.random.default_rng(seed)
        cost = cosine_cost(rng.normal(size=(m, 8)), rng.normal(size=(n, 8)))
        light = np.ones(min(m, n))
        light[0] = 10.0 ** rng.uniform(-140.0, -100.0)
        light /= light.sum()
        uniform = np.full(max(m, n), 1.0 / max(m, n))
        p1, p2 = (light, uniform) if m < n else (uniform, light)
        result = solve_sinkhorn(cost, p1, p2, reg=1e-3)
        assert np.isfinite(result.marginal_error)
        assert validate_coupling(result.coupling, p1, p2, tol=1e-12).passed
        assert np.take(result.coupling, 0, axis=int(m > n)).sum() > 0.0


def anneal_levels(cost, reg):
    """The regularization levels `solve_sinkhorn` walks: one level when the
    cost is within `_ONE_STAGE_SCALE` times reg."""
    level, levels = float(cost.max()), []
    if level <= ot._ONE_STAGE_SCALE * reg:
        return [reg]
    while level > 2.0 * reg:
        levels.append(level)
        level /= 2.0
    return levels + [reg]


def learned_marginal(rng, n):
    # Sigmoid outputs of a weight head, normalized: non-uniform, all positive.
    raw = 1.0 / (1.0 + np.exp(-rng.normal(0.0, 2.0, n)))
    return raw / raw.sum()


def lse(matrix, axis):
    """log(sum(exp(matrix))) along `axis`, shifted by its peak. Terms below
    the peak by more than -_EXP_FLOOR are dropped: they are under half an
    ulp of the sum, and their subnormal exponentials are slow."""
    peak = matrix.max(axis=axis, keepdims=True)
    shifted = matrix - peak
    np.putmask(shifted, shifted < ot._EXP_FLOOR, -np.inf)
    return np.log(np.exp(shifted).sum(axis=axis)) + peak.squeeze(axis)


def recentred(kernel, f, g):
    """Level-scaled potentials shifted as `_sinkhorn_stage` shifts them when
    an exponent of kernel + f + g starts below `_RECENTRE_BELOW`: f by each
    row's largest exponent, then g by each column's."""
    if (kernel + f[:, None] + g).min() < ot._RECENTRE_BELOW:
        f = f - (kernel + f[:, None] + g).max(axis=1)
        g = g - (kernel + f[:, None] + g).max(axis=0)
    return f, g


def log_domain_stage(kernel, log_p1, log_p2, p1, p2, f, g, tol, max_iter, omega=1.0):
    """Reference for one stage: log-sum-exp dual updates, safe for any
    exponent range, with the marginal error checked where `_sinkhorn_stage`
    checks it. Every iteration after the first is over-relaxed,
    f <- (1 - omega) f + omega (log p1 - lse_rows(kernel + g)) and likewise g,
    until the error rises from one check to the next; omega is 1 from then on.
    Returns the potentials, the iteration count, the error and the last omega."""
    iterations = 0
    error = np.inf
    while iterations < max_iter:
        for _ in range(min(ot._CHECK_EVERY, max_iter - iterations)):
            weight = omega if iterations else 1.0
            f = (1.0 - weight) * f + weight * (log_p1 - lse(kernel + g[None, :], 1))
            g = (1.0 - weight) * g + weight * (log_p2 - lse(kernel + f[:, None], 0))
            iterations += 1
        log_plan = kernel + f[:, None] + g[None, :]
        row_err = np.abs(np.exp(lse(log_plan, 1)) - p1).max()
        col_err = np.abs(np.exp(lse(log_plan, 0)) - p2).max()
        if max(row_err, col_err) > error:
            omega = 1.0
        error = max(row_err, col_err)
        if error <= tol:
            break
    return f, g, iterations, error, omega


def tight_reference(cost, p1, p2, reg, tol=1e-12, max_steps=200):
    """<P, C> of the entropic plan at `reg`, its marginals within `tol`.

    300 log-domain Sinkhorn iterations, then Newton steps on the dual
    (Brauer, Clason, Lorenz & Wirth 2017) with the last potential fixed. The
    Hessian [[diag(P 1), P], [P^T, diag(P^T 1)]] is nearly singular where
    plan entries underflow, so each step adds a ridge of 1e-4 times the
    marginal error; the step is then halved until the dual gain, summed as
    <t d, p> - sum P (exp(t (d_i + d_j)) - 1) to avoid cancellation, meets
    Armijo's rule. Sinkhorn alone is no reference at reg 1e-3: on uniform
    64x64 cosine problems `solve_sinkhorn` still misses the marginals by
    1e-7 to 2e-7 after 200,000 iterations."""
    kernel = -cost / reg
    m, n = cost.shape
    start = np.zeros(m), np.zeros(n)
    f, g = log_domain_stage(kernel, np.log(p1), np.log(p2), p1, p2, *start, 0.0, 300)[:2]
    for _ in range(max_steps):
        plan = np.exp(kernel + f[:, None] + g[None, :])
        rows, cols = plan.sum(axis=1), plan.sum(axis=0)
        error = max(np.abs(rows - p1).max(), np.abs(cols - p2).max())
        if error <= tol:
            return coupling_cost(plan, cost)
        gradient = np.concatenate([p1 - rows, (p2 - cols)[:-1]])
        hessian = np.block([[np.diag(rows), plan[:, :-1]], [plan[:, :-1].T, np.diag(cols[:-1])]])
        hessian[np.diag_indices_from(hessian)] += 1e-4 * error
        step = np.linalg.solve(hessian, gradient)
        df, dg = step[:m], np.append(step[m:], 0.0)
        t = 1.0
        while True:
            with np.errstate(over="ignore", invalid="ignore"):
                gain = t * (df @ p1 + dg @ p2) - (plan * np.expm1(t * (df[:, None] + dg))).sum()
            if gain >= 1e-4 * t * (gradient @ step):
                break
            t /= 2.0
            assert t > 1e-20, "line search stalled at marginal error %g" % error
        f, g = f + t * df, g + t * dg
    raise AssertionError("Newton polish stopped at marginal error %g" % error)


@pytest.fixture()
def stage_paths(monkeypatch):
    """Per `_sinkhorn_stage` call, what it ran, in order: "recentre" if an
    exponent (f + g - cost) / level starts below `_RECENTRE_BELOW`, which
    makes the stage re-centre its potentials, then "scaling" for each kernel
    build of the scaling loop."""
    stages = []
    real_stage, real_kernel = ot._sinkhorn_stage, ot._absorbed_kernel

    def stage(cost, level, p1, p2, f, g, *args):
        low = ((f[:, None] + g - cost) / level).min() < ot._RECENTRE_BELOW
        stages.append(["recentre"] if low else [])
        return real_stage(cost, level, p1, p2, f, g, *args)

    def kernel(absorbed):
        stages[-1].append("scaling")
        return real_kernel(absorbed)

    monkeypatch.setattr(ot, "_sinkhorn_stage", stage)
    monkeypatch.setattr(ot, "_absorbed_kernel", kernel)
    return stages


class TestSinkhornStages:
    def compare_with_log_domain(self, cost, p1, p2, levels, tol=1e-6, max_iter=1000, omega=1.0):
        """Run every stage by `_sinkhorn_stage` and by the log-domain reference
        from the same potentials, re-centred as the stage re-centres them;
        return the largest differences of the level-scaled potentials (those
        in cost units over the level) and of the plans, and the reference's
        last omega."""
        log_p1, log_p2 = np.log(p1), np.log(p2)
        f, g = np.zeros(p1.size), np.zeros(p2.size)  # in cost units
        worst_potential = worst_plan = 0.0
        for index, level in enumerate(levels):
            last = index == len(levels) - 1
            stage_tol = tol if last else max(tol, 1e-3)
            budget = max_iter if last else min(max_iter, 200)
            kernel = -cost / level
            start = recentred(kernel, f / level, g / level)
            ref = log_domain_stage(kernel, log_p1, log_p2, p1, p2, *start, stage_tol, budget, omega)
            got = ot._sinkhorn_stage(cost, level, p1, p2, f, g, stage_tol, budget, omega)
            assert got[2] == ref[2], "iteration counts differ at level %g" % level
            assert (got[3] <= stage_tol) == (ref[3] <= stage_tol)
            worst_potential = max(
                worst_potential,
                np.abs(got[0] / level - ref[0]).max(),
                np.abs(got[1] / level - ref[1]).max(),
            )
            plan_ref = np.exp(kernel + ref[0][:, None] + ref[1][None, :])
            plan_got = np.exp((got[0][:, None] + got[1] - cost) / level)
            worst_plan = max(worst_plan, np.abs(plan_got - plan_ref).max())
            f, g = level * ref[0], level * ref[1]  # on to the next level unchanged
        return worst_potential, worst_plan, ref[4]

    def test_scaling_matches_log_domain_at_training_reg(self, stage_paths):
        # At reg 0.05 a cosine cost (at most 2) is within _ONE_STAGE_SCALE * reg:
        # one over-relaxed stage, which must follow the over-relaxed reference;
        # the plain stage is checked on the same problems.
        rng = np.random.default_rng(30)
        for m, n in ((64, 64), (64, 48), (16, 64)):
            cost = cosine_cost(rng.normal(size=(m, 16)), rng.normal(size=(n, 16)))
            p1, p2 = learned_marginal(rng, m), learned_marginal(rng, n)
            assert anneal_levels(cost, 0.05) == [0.05]
            for omega in (1.5, 1.75, 1.0):
                worst_potential, worst_plan, _ = self.compare_with_log_domain(
                    cost, p1, p2, [0.05], omega=omega
                )
                assert worst_potential <= 1e-12
                assert worst_plan <= 1e-12
        # At the training reg no stage needs the log domain or an absorption.
        assert stage_paths and all(paths == ["scaling"] for paths in stage_paths)

    def test_stage_schedule_follows_the_cost_scale(self, monkeypatch):
        # One stage over-relaxed by 2 / (1 + sqrt(reg / cost.max())) while
        # cost.max() <= _ONE_STAGE_SCALE * reg; above that, the annealed plain
        # schedule.
        calls = []
        real_stage = ot._sinkhorn_stage

        def stage(cost, level, *args):
            calls.append((level, args[-1]))
            return real_stage(cost, level, *args)

        monkeypatch.setattr(ot, "_sinkhorn_stage", stage)
        rng = np.random.default_rng(34)
        base = rng.uniform(0.0, 1.0, (12, 10))
        p1, p2 = learned_marginal(rng, 12), learned_marginal(rng, 10)
        for top, reg in ((1.0, 1.0 / 64), (1.0, 0.999 / 64), (2.0, 1e-3)):
            cost = base * (top / base.max())
            calls.clear()
            solve_sinkhorn(cost, p1, p2, reg=reg)
            levels = [level for level, _ in calls]
            assert levels == anneal_levels(cost, reg)
            near_scale = top <= ot._ONE_STAGE_SCALE * reg
            omega = 2.0 / (1.0 + np.sqrt(reg / cost.max())) if near_scale else 1.0
            assert [stage_omega for _, stage_omega in calls] == [omega] * len(levels)

    def test_annealed_stages_start_from_potentials_in_cost_units(self, monkeypatch):
        # The potentials are in cost units at every level, so each stage
        # receives the f, g the last one returned, unchanged; the first one
        # starts from zeros.
        calls = []
        real_stage = ot._sinkhorn_stage

        def stage(cost, level, p1, p2, f, g, *args):
            result = real_stage(cost, level, p1, p2, f, g, *args)
            calls.append((level, f, g, result[0], result[1]))
            return result

        monkeypatch.setattr(ot, "_sinkhorn_stage", stage)
        rng = np.random.default_rng(39)
        cost = cosine_cost(rng.normal(size=(24, 8)), rng.normal(size=(20, 8)))
        solve_sinkhorn(cost, learned_marginal(rng, 24), learned_marginal(rng, 20), reg=1e-3)
        assert [call[0] for call in calls] == anneal_levels(cost, 1e-3)
        assert len(calls) > 2 and not calls[0][1].any() and not calls[0][2].any()
        for previous, current in zip(calls, calls[1:]):
            assert (current[1] == previous[3]).all() and (current[2] == previous[4]).all()

    def test_sharp_reg_values_near_tight_reference(self):
        # Uniform 64x64 cosine problems at reg 1e-3 with the default budget:
        # the Newton finish brings every solve to tol, and the mean distance
        # of its <P, C> from a reference polished to marginal error 1e-12
        # stays below 1e-6 (about 1e-7). Without the finish every solve
        # stopped at max_iter, 8.7e-5 from the reference on average.
        rng = np.random.default_rng(40)
        uniform = np.full(64, 1.0 / 64)
        gaps = []
        for _ in range(8):
            cost = cosine_cost(rng.normal(size=(64, 8)), rng.normal(size=(64, 8)))
            result = solve_sinkhorn(cost, uniform, uniform, reg=1e-3)
            assert result.converged
            reference = tight_reference(cost, uniform, uniform, 1e-3)
            gaps.append(abs(coupling_cost(result.coupling, cost) - reference))
        assert np.mean(gaps) <= 1e-6

    def test_safeguard_drops_to_plain_iterations(self):
        # At omega 1.95 the marginal error rises at a check of every one of
        # these problems; the stage then runs plain iterations, as the
        # reference does, and still converges.
        rng = np.random.default_rng(35)
        for _ in range(3):
            cost = cosine_cost(rng.normal(size=(64, 8)), rng.normal(size=(64, 8)))
            p1, p2 = learned_marginal(rng, 64), np.full(64, 1.0 / 64)
            worst_potential, worst_plan, last_omega = self.compare_with_log_domain(
                cost, p1, p2, [0.05], omega=1.95
            )
            assert last_omega == 1.0
            assert worst_potential <= 1e-12 and worst_plan <= 1e-12
            result = solve_sinkhorn(cost, p1, p2, reg=0.05)
            assert result.converged and result.marginal_error <= 1e-6

    @pytest.mark.parametrize("kind", ["cross", "intra"])
    def test_over_relaxed_values_near_tight_reference(self, kind):
        # Learned weights against uniform, across domains or within one
        # (self-cost): each training-reg solve converges, and its <P, C> is
        # within 1e-4 of a plain solve to tol 1e-12.
        rng = np.random.default_rng(36 if kind == "cross" else 37)
        for _ in range(20):
            features = rng.normal(size=(64, 8))
            other = features if kind == "intra" else rng.normal(size=(64, 8))
            cost = cosine_cost(features, other)
            p1, p2 = learned_marginal(rng, 64), np.full(64, 1.0 / 64)
            result = solve_sinkhorn(cost, p1, p2, reg=0.05)
            assert result.converged
            f, g, _, error = ot._sinkhorn_stage(
                cost, 0.05, p1, p2, np.zeros(64), np.zeros(64), 1e-12, 100000, 1.0
            )
            assert error <= 1e-12
            reference = coupling_cost(np.exp((f[:, None] + g - cost) / 0.05), cost)
            assert abs(coupling_cost(result.coupling, cost) - reference) <= 1e-4

    @pytest.mark.parametrize("kind", ["zero", "constant", "below_reg"])
    def test_weight_at_its_edge(self, kind, monkeypatch):
        # c_ij = a_i + b_j has the outer product as its entropic plan, and the
        # first (plain) iteration reaches it. A zero cost, and one whose
        # largest entry is below reg, get weight 1 (the unclamped formula
        # divides by zero on the first and gives a weight below 1 on the
        # second); a constant cost above reg gets the formula's weight.
        omegas = []
        real_stage = ot._sinkhorn_stage

        def stage(*args):
            omegas.append(args[-1])
            return real_stage(*args)

        monkeypatch.setattr(ot, "_sinkhorn_stage", stage)
        rng = np.random.default_rng(38)
        p1, p2 = learned_marginal(rng, 12), learned_marginal(rng, 9)
        a, b = rng.uniform(0.0, 0.02, 12), rng.uniform(0.0, 0.02, 9)
        cost, omega = {
            "zero": (np.zeros((12, 9)), 1.0),
            "constant": (np.ones((12, 9)), 2.0 / (1.0 + np.sqrt(0.05))),
            "below_reg": (a[:, None] + b[None, :], 1.0),
        }[kind]
        with np.errstate(all="raise"):
            result = solve_sinkhorn(cost, p1, p2, reg=0.05)
        assert omegas == [omega]
        assert result.converged and result.iterations == ot._CHECK_EVERY
        assert_allclose(result.coupling, np.outer(p1, p2), rtol=1e-12, atol=0)

    def test_over_relaxation_cuts_iterations_on_clustered_problems(self):
        # Cross-domain and intra-domain (self-cost) problems on batches of the
        # generated class clusters, learned weights against uniform, as in
        # training: the one-stage solves take at most 0.3 times the iterations
        # of plain stages in total (0.23 here; 0.35 at a fixed weight of 1.5).
        # Cross problems alone prefer a smaller weight; the intra ones carry
        # the gain.
        split, shift = data.LabelSplit(4, 3, 0), data.ShiftSpec(0.5, (0.5,), 0.3)
        over_relaxed = plain = 0
        for seed in range(20):
            source, target = data.generate_pair(split, 64, 64, 8, seed, shift=shift)
            rng = np.random.default_rng(seed)
            for other in (target.features, source.features):
                cost = cosine_cost(source.features, other)
                p1, p2 = learned_marginal(rng, 64), np.full(64, 1.0 / 64)
                over_relaxed += solve_sinkhorn(cost, p1, p2, reg=0.05).iterations
                plain += ot._sinkhorn_stage(
                    cost, 0.05, p1, p2, np.zeros(64), np.zeros(64), 1e-6, 1000, 1.0
                )[2]
        assert over_relaxed <= 0.3 * plain

    def test_absorption_keeps_iterates_and_marginals(self, stage_paths):
        # Atoms of mass ~1e-60 push their scalings below 1/_SCALING_BOUND
        # within the first check interval of a one-stage solve, long before
        # it converges, so the potentials are absorbed and the kernel rebuilt.
        rng = np.random.default_rng(31)
        cost = cosine_cost(rng.normal(size=(32, 8)), rng.normal(size=(32, 8)))
        p1, p2 = learned_marginal(rng, 32), learned_marginal(rng, 32)
        p1[:4] = 1e-60 * rng.uniform(0.5, 2.0, 4)
        p2[-3:] = 1e-60 * rng.uniform(0.5, 2.0, 3)
        p1, p2 = p1 / p1.sum(), p2 / p2.sum()
        for omega in (1.5, 1.75, 1.0):
            stage_paths.clear()
            worst_potential, worst_plan, _ = self.compare_with_log_domain(
                cost, p1, p2, [0.05], omega=omega
            )
            assert any(paths.count("scaling") > 1 for paths in stage_paths)
            assert all("recentre" not in paths for paths in stage_paths)
            assert worst_potential <= 1e-12 and worst_plan <= 1e-12
        result = solve_sinkhorn(cost, p1, p2, reg=0.05)
        assert result.converged and result.marginal_error <= 1e-6
        assert validate_coupling(result.coupling, p1, p2, tol=1e-15).passed

    def test_small_reg_stages_run_only_scaling_iterations(self, stage_paths):
        # At reg 1e-3 the last annealing stages, and an unannealed stage whose
        # cost row is >= 0.7 everywhere (every exponent in it starting below
        # -700), re-centre their potentials first; everything else is the
        # scaling loop, with the reference's iteration counts and plans.
        rng = np.random.default_rng(32)
        hot_row = rng.uniform(0.0, 2.0, (6, 6))
        hot_row[2] = rng.uniform(0.7, 2.0, 6)
        cases = [
            (rng.uniform(0.0, 2.0, (4, 4)), True),
            (cosine_cost(rng.normal(size=(64, 16)), rng.normal(size=(64, 16))), True),
            (hot_row, False),
        ]
        for cost, anneal in cases:
            p1, p2 = learned_marginal(rng, cost.shape[0]), learned_marginal(rng, cost.shape[1])
            levels = anneal_levels(cost, 1e-3) if anneal else [1e-3]
            stage_paths.clear()
            _, worst_plan, _ = self.compare_with_log_domain(cost, p1, p2, levels)
            assert worst_plan <= 1e-12
            assert len(stage_paths) == len(levels)
            for paths in stage_paths:
                runs = paths[1:] if paths[0] == "recentre" else paths
                assert runs and set(runs) == {"scaling"}
            assert stage_paths[-1][0] == "recentre"

    def test_recentring_puts_an_exponent_of_zero_in_every_row_and_column(self, monkeypatch):
        # A stage whose exponents start below _RECENTRE_BELOW shifts f by each
        # row's largest and then g by each column's, so the first kernel it
        # builds has a largest exponent of 0 in every row and column: at
        # level 1e-4 from zero potentials, and in every re-centred stage of an
        # annealed solve with an atom of ~1e-107 at reg 1e-3.
        starts = []  # per stage: [whether it re-centres, the exponents of each build]
        real_stage, real_kernel = ot._sinkhorn_stage, ot._absorbed_kernel

        def stage(cost, level, p1, p2, f, g, *args):
            starts.append([((f[:, None] + g - cost) / level).min() < ot._RECENTRE_BELOW])
            return real_stage(cost, level, p1, p2, f, g, *args)

        def kernel(absorbed):
            starts[-1].append(absorbed.copy())
            return real_kernel(absorbed)

        monkeypatch.setattr(ot, "_sinkhorn_stage", stage)
        monkeypatch.setattr(ot, "_absorbed_kernel", kernel)
        rng = np.random.default_rng(22)
        cost = rng.uniform(0, 2, (6, 6))
        u, zeros = np.full(6, 1.0 / 6), np.zeros(6)
        ot._sinkhorn_stage(cost, 1e-4, u, u, zeros, zeros, 1e-12, 5, 1.0)
        assert len(starts) == 1 and starts[0][0]
        rng = np.random.default_rng(33)
        cost = cosine_cost(rng.normal(size=(2, 8)), rng.normal(size=(8, 8)))
        light = np.array([10.0 ** rng.uniform(-140.0, -100.0), 1.0])
        solve_sinkhorn(cost, light / light.sum(), np.full(8, 0.125), reg=1e-3)
        recentred = [builds[1] for builds in starts if builds[0]]
        assert len(recentred) > 2
        for exponents in recentred:
            assert np.abs(exponents.max(axis=1)).max() <= 1e-12
            assert np.abs(exponents.max(axis=0)).max() <= 1e-12


@pytest.fixture()
def finish_calls(monkeypatch):
    """The (tol, newton steps) of every `_newton_finish` call, in order."""
    calls = []
    real_finish = ot._newton_finish

    def finish(*args):
        result = real_finish(*args)
        calls.append((args[-1], result[3]))
        return result

    monkeypatch.setattr(ot, "_newton_finish", finish)
    return calls


class TestNewtonFinish:
    def test_csda_cross_problems_converge_near_tight_reference(self, finish_calls):
        # Source against target batches of the CSDA benchmark's data at reg
        # 1e-3 and the default budget: every solve runs the finish, converges,
        # and lands within 1e-6 of the reference.
        split, shift = data.LabelSplit(4, 0, 0), data.ShiftSpec(0.5, (0.5,), 0.3)
        uniform = np.full(64, 1.0 / 64)
        for seed in range(12):
            source, target = data.generate_pair(split, 64, 64, 8, 500 + seed, shift=shift)
            cost = cosine_cost(source.features, target.features)
            result = solve_sinkhorn(cost, uniform, uniform, reg=1e-3)
            assert result.converged and result.newton_steps > 0
            reference = tight_reference(cost, uniform, uniform, 1e-3)
            assert abs(coupling_cost(result.coupling, cost) - reference) <= 1e-6
        assert len(finish_calls) == 12

    @pytest.mark.parametrize("shape", [(9, 6), (6, 9), (7, 7)])
    def test_schur_step_equals_the_full_hessian_solve(self, shape):
        # Without a ridge, the complement on the smaller side gives the step of
        # the full (m + n - 1) system with the last g fixed, up to the shift
        # (1, -1) the dual is invariant to, so every df_i + dg_j agrees.
        rng = np.random.default_rng(41)
        m, n = shape
        plan = rng.uniform(0.01, 1.0, shape) / (m * n)
        p1, p2 = random_marginal(rng, m), random_marginal(rng, n)
        rows, cols = plan.sum(axis=1), plan.sum(axis=0)
        hessian = np.block([[np.diag(rows), plan[:, :-1]], [plan[:, :-1].T, np.diag(cols[:-1])]])
        step = np.linalg.solve(hessian, np.concatenate([p1 - rows, (p2 - cols)[:-1]]))
        full = step[:m, None] + np.append(step[m:], 0.0)
        df, dg = ot._newton_direction(plan, p1, p2, 0.0)
        assert_allclose(df[:, None] + dg, full, rtol=0, atol=1e-10 * np.abs(full).max())

    def test_failed_linear_solve_falls_back_to_scaling(self, monkeypatch, finish_calls):
        # A linear solve that returns NaN stalls the line search at its first
        # step; the stage goes on with scaling passes for the rest of
        # max_iter, as many as a solve without the finish runs, and ends about
        # as near its marginals (within 5%; the kernel is rebuilt at other
        # points). Its plan holds the marginals, and `converged` is honest.
        rng = np.random.default_rng(42)
        for m, n in ((64, 64), (40, 64), (64, 24)):
            cost = cosine_cost(rng.normal(size=(m, 8)), rng.normal(size=(n, 8)))
            p1, p2 = learned_marginal(rng, m), learned_marginal(rng, n)
            with monkeypatch.context() as patch:
                patch.setattr(ot, "_NEWTON_STEPS", 10**9)  # no room: the finish is skipped
                scaling = solve_sinkhorn(cost, p1, p2, reg=1e-3)
            with monkeypatch.context() as patch:
                patch.setattr(ot.np.linalg, "solve", lambda matrix, rhs: np.full_like(rhs, np.nan))
                result = solve_sinkhorn(cost, p1, p2, reg=1e-3)
            assert result.newton_steps == 0 and result.iterations == scaling.iterations
            assert result.marginal_error <= 1.05 * scaling.marginal_error
            assert validate_coupling(result.coupling, p1, p2, tol=1e-12).passed
            assert result.converged == (result.marginal_error <= 1e-6)
        assert [steps for _, steps in finish_calls] == [0, 0, 0]

    def test_finish_runs_only_on_the_annealed_path_within_budget(self, finish_calls):
        # A cost within _ONE_STAGE_SCALE * reg takes the one-stage path, and a
        # max_iter too small for _NEWTON_STEPS steps keeps the scaling stages;
        # neither runs the finish.
        rng = np.random.default_rng(43)
        cost = cosine_cost(rng.normal(size=(64, 8)), rng.normal(size=(64, 8)))
        p1, p2 = learned_marginal(rng, 64), np.full(64, 1.0 / 64)
        edge = cost.max() / ot._ONE_STAGE_SCALE
        budget = ot._NEWTON_AFTER + ot._NEWTON_STEPS * 64 // 4
        for reg, max_iter in ((0.05, 1000), (edge, 1000), (1e-3, 1), (1e-3, budget - 1)):
            result = solve_sinkhorn(cost, p1, p2, reg=reg, max_iter=max_iter)
            assert result.newton_steps == 0
        assert finish_calls == []
        result = solve_sinkhorn(cost, p1, p2, reg=1e-3, max_iter=budget)
        assert result.converged and result.newton_steps > 0
        assert finish_calls == [(1e-6, result.newton_steps)]


def tiny_mass_marginal(rng, n):
    """A random marginal with one atom of 10^U(-140, -100), or of 1e-300."""
    p = random_marginal(rng, n)
    p[rng.integers(n)] = 1e-300 if rng.random() < 0.25 else 10.0 ** rng.uniform(-140.0, -100.0)
    return p / p.sum()


def tied_marginal(rng, n):
    """Masses of one or two equal units, normalized, so that atoms tie."""
    units = rng.integers(1, 3, n).astype(float)
    return units / units.sum()


def zero_holding_marginal(rng, n):
    """A random marginal with zero mass on a random proper subset of its atoms."""
    p = random_marginal(rng, n)
    p[rng.permutation(n)[: rng.integers(n)]] = 0.0
    return p / p.sum()


SWEEP_MARGINALS = {
    "uniform": lambda rng, n: np.full(n, 1.0 / n),
    "random": random_marginal,
    "zero-holding": zero_holding_marginal,
    "one-hot": lambda rng, n: np.eye(n)[rng.integers(n)],
    "tied": tied_marginal,
    "tiny-mass": tiny_mass_marginal,
}
SWEEP_COSTS = {
    "uniform": lambda rng, m, n: rng.uniform(0.0, 2.0, (m, n)),
    "constant": lambda rng, m, n: np.full((m, n), rng.uniform(0.0, 2.0)),
    "integer-tie": lambda rng, m, n: rng.integers(0, 3, (m, n)).astype(float),
    "negative": lambda rng, m, n: rng.uniform(-2.0, 1.0, (m, n)),
    "cosine": lambda rng, m, n: cosine_cost(rng.normal(size=(m, 4)), rng.normal(size=(n, 4))),
}
SWEEP_SOLVERS = {
    "exact": solve_exact,
    "sinkhorn-0.05": functools.partial(solve_sinkhorn, reg=0.05),
    "sinkhorn-1e-3": functools.partial(solve_sinkhorn, reg=1e-3),
}


# Cost scales the exact solver is also swept at: HiGHS itself fails near 1e19.
SWEEP_EXACT_SCALES = (1e18, 1e20, 1e300)


def contract_violations(name, cost, p1, p2, optimum, scale=1.0):
    """How one solve breaks the solvers' contract, as a list of strings: its
    plan must be nonnegative and on both marginals, and for the exact solver
    no costlier than `optimum`, the value of `linprog_plan`'s. The solver is
    handed the cost times `scale`, which changes no optimal plan, and judged
    on the cost itself. The solvers document exceptions only for a failed
    HiGHS run and, in the entropic solver, for a reg below the cost's largest
    entry times the machine epsilon; neither is a cause these inputs can
    give, so any exception breaks the contract."""
    try:
        result = SWEEP_SOLVERS[name](cost * scale, p1, p2)
    except Exception as exc:
        return ["%s: %s" % (type(exc).__name__, exc)]
    plan = getattr(result, "coupling", result)
    if plan.shape != cost.shape or not np.isfinite(plan).all() or (plan < 0.0).any():
        return ["plan is not a finite nonnegative %dx%d matrix" % cost.shape]
    problems = []
    report = validate_coupling(plan, p1, p2, tol=1e-12)
    if not report.passed:
        problems.append("off its marginals: %r" % report)
    if name == "exact":
        excess = coupling_cost(plan, cost) - optimum
        if excess > 1e-10:
            problems.append("costs %.3g more than linprog's plan" % excess)
    elif not np.isfinite(result.marginal_error) or result.converged != (
        result.marginal_error <= 1e-6
    ):
        problems.append("error %r, converged %r" % (result.marginal_error, result.converged))
    return problems


def test_solver_contract_sweep():
    # Every cost kind against every pair of marginal kinds, twice, at seeded
    # shapes of 1 to 11 atoms per side, the exact solver also at huge cost
    # scales; each case lists what it breaks.
    rng = np.random.default_rng(60)
    problems = []
    for cost_kind, kind1, kind2, _ in itertools.product(
        SWEEP_COSTS, SWEEP_MARGINALS, SWEEP_MARGINALS, range(2)
    ):
        m, n = rng.integers(1, 12, 2)
        cost = SWEEP_COSTS[cost_kind](rng, m, n)
        p1, p2 = SWEEP_MARGINALS[kind1](rng, m), SWEEP_MARGINALS[kind2](rng, n)
        optimum = coupling_cost(linprog_plan(cost, p1, p2), cost)
        runs = [(name, 1.0) for name in SWEEP_SOLVERS]
        for name, scale in runs + [("exact", scale) for scale in SWEEP_EXACT_SCALES]:
            label = "%s, %s cost x %g, %s x %s marginals, %dx%d: " % (
                name, cost_kind, scale, kind1, kind2, m, n
            )
            found = contract_violations(name, cost, p1, p2, optimum, scale)
            problems += [label + problem for problem in found]
    assert problems == []


class TestCouplingCost:
    def test_zero_cost_matrix(self):
        assert coupling_cost(np.full((2, 2), 0.25), np.zeros((2, 2))) == 0.0

    def test_diagonal_coupling_off_diagonal_cost(self):
        plan = np.diag([0.5, 0.5])
        cost = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert coupling_cost(plan, cost) == 0.0

    def test_hand_sum(self):
        plan = np.array([[0.0, 0.5], [0.5, 0.0]])
        cost = np.array([[0.2, 0.1], [0.3, 0.4]])
        assert_allclose(coupling_cost(plan, cost), 0.2, atol=1e-15)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            coupling_cost(np.zeros((2, 2)), np.zeros((2, 3)))


class TestValidateCoupling:
    def test_outer_product_deviation_near_zero(self):
        rng = np.random.default_rng(30)
        p1, p2 = random_marginal(rng, 4), random_marginal(rng, 5)
        report = validate_coupling(np.outer(p1, p2), p1, p2, tol=1e-12)
        assert report.passed

    def test_perturbed_entry_detected(self):
        p = np.full(2, 0.5)
        plan = np.diag([0.5, 0.5])
        plan[0, 1] += 1e-3
        report = validate_coupling(plan, p, p, tol=1e-8)
        assert not report.passed
        assert report.max_row_dev >= 1e-3 or report.max_col_dev >= 1e-3

    def test_negative_entry_detected(self):
        p = np.full(2, 0.5)
        plan = np.array([[0.6, -0.1], [-0.1, 0.6]])
        report = validate_coupling(plan, p, p, tol=1e-8)
        assert report.min_entry <= -0.1 + 1e-12
        assert not report.passed


class TestMatrixCsv:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(40)
        matrix = rng.normal(size=(3, 4))
        path = tmp_path / "matrix.csv"
        write_matrix_csv(path, matrix)
        loaded = np.loadtxt(path, delimiter=",")
        assert (loaded == matrix).all()
