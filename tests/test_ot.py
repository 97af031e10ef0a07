"""Transport solvers: cost construction, exact/entropic solves, oracle agreement."""

import numpy as np
import pytest
import scipy.sparse as sp
from numpy.testing import assert_allclose
from scipy.optimize import linprog
from scipy.optimize._highspy import _core as highs

from iwot import ot
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
    """Record which backend each `solve_exact` call reaches: "lp" or "assignment"."""
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
    @pytest.mark.parametrize("n", [64, 256])
    def test_plan_equals_linprog_on_learned_marginals(self, exact_routes, n):
        rng = np.random.default_rng(n + 1)
        cost = rng.uniform(0, 2, (n, n))
        p1, p2 = random_marginal(rng, n), random_marginal(rng, n)
        plan = solve_exact(cost, p1, p2)
        assert exact_routes == ["lp"]
        assert (plan == linprog_plan(cost, p1, p2)).all()

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
        assert (plan == expected).all()
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

        def failing(lp):
            run_status, model_status, x = real_lp(lp)
            return (*fault(run_status, model_status), x)

        monkeypatch.setattr(ot, "_solve_lp", failing)
        rng = np.random.default_rng(32)
        with pytest.raises(NumericalError, match="exact transport LP failed"):
            solve_exact(rng.uniform(0, 2, (5, 6)), random_marginal(rng, 5), random_marginal(rng, 6))


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

    def test_non_convergence_is_reported_not_raised(self):
        rng = np.random.default_rng(22)
        cost = rng.uniform(0, 2, (6, 6))
        u = np.full(6, 1.0 / 6)
        # At max_iter=1 the re-centring iteration (every exponent starts below
        # -600 at reg 1e-4) uses the whole budget; its residual is still measured.
        for max_iter in (3, 1):
            result = solve_sinkhorn(
                cost, u, u, reg=1e-4, tol=1e-12, max_iter=max_iter, anneal=False
            )
            assert not result.converged
            assert result.iterations == max_iter
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
        for anneal in (True, False):
            result = solve_sinkhorn(cost, p1, p2, reg=1e-3, anneal=anneal)
            shifted = solve_sinkhorn(cost - cost.min(), p1, p2, reg=1e-3, anneal=anneal)
            assert np.isfinite(result.marginal_error)
            assert (result.coupling == shifted.coupling).all()

    def test_zero_marginal_entries_give_zero_rows(self):
        rng = np.random.default_rng(23)
        cost = rng.uniform(0, 2, (3, 3))
        p1 = np.array([0.5, 0.0, 0.5])
        p2 = np.full(3, 1.0 / 3)
        result = solve_sinkhorn(cost, p1, p2, reg=0.05)
        assert (result.coupling[1] == 0.0).all()


def anneal_levels(cost, reg):
    """The regularization levels `solve_sinkhorn` walks with `anneal` on."""
    level, levels = float(cost.max()), []
    while level > 2.0 * reg:
        levels.append(level)
        level /= 2.0
    return levels + [reg]


def learned_marginal(rng, n):
    # Sigmoid outputs of a weight head, normalized: non-uniform, all positive.
    raw = 1.0 / (1.0 + np.exp(-rng.normal(0.0, 2.0, n)))
    return raw / raw.sum()


# Taken before any test can replace them with recording wrappers.
LSE_ROWS, LSE_COLS = ot._lse_rows, ot._lse_cols


def log_domain_stage(kernel, log_p1, log_p2, p1, p2, f, g, tol, max_iter, check_every=5):
    """Reference for one stage: plain log-sum-exp dual updates, safe for any
    exponent range, with the marginal error checked where `_sinkhorn_stage`
    checks it."""
    iterations = 0
    error = np.inf
    while iterations < max_iter:
        for _ in range(min(check_every, max_iter - iterations)):
            f = log_p1 - LSE_ROWS(kernel + g[None, :])
            g = log_p2 - LSE_COLS(kernel + f[:, None])
            iterations += 1
        log_plan = kernel + f[:, None] + g[None, :]
        row_err = np.abs(np.exp(LSE_ROWS(log_plan)) - p1).max()
        col_err = np.abs(np.exp(LSE_COLS(log_plan)) - p2).max()
        error = max(row_err, col_err)
        if error <= tol:
            break
    return f, g, iterations, error


@pytest.fixture()
def stage_paths(monkeypatch):
    """Per `_sinkhorn_stage` call, what it ran, in order: "recentre" for the
    log-domain re-centring iteration, "scaling" for each scaling-loop run."""
    stages = []
    real_stage = ot._sinkhorn_stage

    def stage(*args, **kwargs):
        stages.append([])
        return real_stage(*args, **kwargs)

    monkeypatch.setattr(ot, "_sinkhorn_stage", stage)
    for name, label in (("_scaling_iterations", "scaling"), ("_lse_rows", "recentre")):
        real = getattr(ot, name)

        def wrapper(*args, _real=real, _label=label):
            stages[-1].append(_label)
            return _real(*args)

        monkeypatch.setattr(ot, name, wrapper)
    return stages


class TestSinkhornStages:
    def compare_with_log_domain(self, cost, p1, p2, levels, tol=1e-6, max_iter=1000):
        """Run every stage by `_sinkhorn_stage` and by the log-domain reference
        from the same potentials; return the largest differences."""
        log_p1, log_p2 = np.log(p1), np.log(p2)
        f, g = np.zeros(p1.size), np.zeros(p2.size)
        worst_potential = worst_plan = 0.0
        for index, level in enumerate(levels):
            last = index == len(levels) - 1
            stage_tol = tol if last else max(tol, 1e-3)
            budget = max_iter if last else min(max_iter, 200)
            kernel = -cost / level
            ref = log_domain_stage(kernel, log_p1, log_p2, p1, p2, f, g, stage_tol, budget)
            got = ot._sinkhorn_stage(kernel, log_p1, log_p2, f, g, stage_tol, budget)
            assert got[2] == ref[2], "iteration counts differ at level %g" % level
            assert (got[3] <= stage_tol) == (ref[3] <= stage_tol)
            worst_potential = max(
                worst_potential, np.abs(got[0] - ref[0]).max(), np.abs(got[1] - ref[1]).max()
            )
            plan_ref = np.exp(kernel + ref[0][:, None] + ref[1][None, :])
            plan_got = np.exp(kernel + got[0][:, None] + got[1][None, :])
            worst_plan = max(worst_plan, np.abs(plan_got - plan_ref).max())
            f, g = ref[0], ref[1]
        return worst_potential, worst_plan

    def test_scaling_matches_log_domain_at_training_reg(self, stage_paths):
        rng = np.random.default_rng(30)
        for m, n in ((64, 64), (64, 48), (16, 64)):
            cost = cosine_cost(rng.normal(size=(m, 16)), rng.normal(size=(n, 16)))
            p1, p2 = learned_marginal(rng, m), learned_marginal(rng, n)
            worst_potential, worst_plan = self.compare_with_log_domain(
                cost, p1, p2, anneal_levels(cost, 0.05)
            )
            assert worst_potential <= 1e-12
            assert worst_plan <= 1e-12
        # At the training reg no stage needs the log domain or an absorption.
        assert stage_paths and all(paths == ["scaling"] for paths in stage_paths)

    def test_absorption_keeps_iterates_and_marginals(self, stage_paths):
        # Atoms of mass ~1e-60 push their scalings below 1/_SCALING_BOUND
        # within the first check interval of an unannealed solve, long before
        # it converges, so the potentials are absorbed and the kernel rebuilt.
        rng = np.random.default_rng(31)
        cost = cosine_cost(rng.normal(size=(32, 8)), rng.normal(size=(32, 8)))
        p1, p2 = learned_marginal(rng, 32), learned_marginal(rng, 32)
        p1[:4] = 1e-60 * rng.uniform(0.5, 2.0, 4)
        p2[-3:] = 1e-60 * rng.uniform(0.5, 2.0, 3)
        p1, p2 = p1 / p1.sum(), p2 / p2.sum()
        worst_potential, worst_plan = self.compare_with_log_domain(cost, p1, p2, [0.05])
        assert any(paths.count("scaling") > 1 for paths in stage_paths)
        assert all("recentre" not in paths for paths in stage_paths)
        assert worst_potential <= 1e-12 and worst_plan <= 1e-12
        result = solve_sinkhorn(cost, p1, p2, reg=0.05, anneal=False)
        assert result.converged and result.marginal_error <= 1e-6
        assert validate_coupling(result.coupling, p1, p2, tol=1e-15).passed

    def test_small_reg_stages_run_only_scaling_iterations(self, stage_paths):
        # At reg 1e-3 the last annealing stages, and an unannealed stage whose
        # cost row is >= 0.7 everywhere (every exponent in it starting below
        # -700), begin with one re-centring iteration; everything else is the
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
            _, worst_plan = self.compare_with_log_domain(cost, p1, p2, levels)
            assert worst_plan <= 1e-12
            assert len(stage_paths) == len(levels)
            for paths in stage_paths:
                runs = paths[1:] if paths[0] == "recentre" else paths
                assert runs and set(runs) == {"scaling"}
            assert stage_paths[-1][0] == "recentre"

    def test_lse_flush_leaves_sums_unchanged(self):
        # Entries 708-745 below their row/column peak have subnormal or zero
        # exponentials; the flushed helpers must match the plain formula.
        rng = np.random.default_rng(33)
        matrix = rng.uniform(-40.0, 5.0, (40, 30))
        matrix[rng.random((40, 30)) < 0.5] -= 705.0
        for axis, helper in ((1, ot._lse_rows), (0, ot._lse_cols)):
            peak = matrix.max(axis=axis, keepdims=True)
            deficit = peak - matrix
            assert ((deficit > 708.0) & (deficit < 745.0)).any()
            plain = np.log(np.exp(matrix - peak).sum(axis=axis)) + peak.squeeze(axis)
            assert_allclose(helper(matrix), plain, rtol=1e-15, atol=0.0)


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
