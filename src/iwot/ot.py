"""Discrete optimal transport over couplings with arbitrary marginals.

Two solvers share one contract: given a cost matrix and probability vectors
p1, p2, find the coupling (a matrix with row sums p1 and column sums p2)
minimizing the Frobenius inner product with the cost.

`solve_exact` returns a vertex of the transport polytope. A square problem
whose masses are all equal is an assignment problem (every vertex is a
permutation matrix times the common mass, Birkhoff-von Neumann), so it is
solved by `scipy.optimize.linear_sum_assignment` and its marginals hold
exactly; every other problem is the transportation linear program, built
here as a column-wise HiGHS model and handed straight to HiGHS's dual simplex
(presolve and output off), whose marginals hold to HiGHS's primal
feasibility tolerance, 1e-7.

`solve_sinkhorn` is an entropic solver written here directly: Sinkhorn dual
iterations, optionally warm-started through a geometric regularization
schedule so that very small final regularization stays cheap. Every level
runs one loop of stabilized scaling (Schmitzer 2019): matrix-vector scalings
of a kernel with the dual potentials absorbed. Where that kernel would
underflow, as at the last levels of a reg around 1e-3, the level starts with
one log-sum-exp iteration that re-centres the potentials, after which the
underflowing entries are truncated to zero. Atoms with zero marginal mass are
removed before either solver runs and restored as zero rows/columns.

Cosine dissimilarity (1 - cosine similarity, range [0, 2]) is the cost used
throughout the package; its gradient with respect to both feature sets is
provided here so loss code can chain through it.
"""

import functools

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.optimize._highspy import _core as highs

from .errors import DegenerateInputError, NumericalError
from .fileio import atomic_write_text, format_float

PROB_ATOL = 1e-9


def check_prob_vector(p, name="marginal"):
    """Validate and return a probability vector: 1-D, nonnegative, sums to 1."""
    p = np.asarray(p, dtype=np.float64)
    if p.ndim != 1 or p.size == 0:
        raise ValueError("%s must be a nonempty 1-D array" % name)
    if not np.isfinite(p).all():
        raise ValueError("%s contains non-finite entries" % name)
    if p.min() < -PROB_ATOL:
        raise ValueError("%s has negative entries" % name)
    total = p.sum()
    if abs(total - 1.0) > PROB_ATOL * max(1, p.size):
        raise ValueError("%s sums to %.17g, not 1" % (name, total))
    return np.maximum(p, 0.0)


def _check_problem(cost, p1, p2):
    cost = np.asarray(cost, dtype=np.float64)
    if cost.ndim != 2:
        raise ValueError("cost must be a 2-D matrix")
    if not np.isfinite(cost).all():
        raise ValueError("cost contains non-finite entries")
    p1 = check_prob_vector(p1, "p1")
    p2 = check_prob_vector(p2, "p2")
    if cost.shape != (p1.size, p2.size):
        raise ValueError(
            "cost shape %r does not match marginal sizes (%d, %d)"
            % (cost.shape, p1.size, p2.size)
        )
    return cost, p1, p2


def cosine_cost(features_a, features_b):
    """Pairwise cosine dissimilarity matrix between two feature batches.

    Entry (i, j) is 1 - cos(a_i, b_j), which lies in [0, 2]. Rows with zero
    norm have no direction, so they are rejected.
    """
    a = np.asarray(features_a, dtype=np.float64)
    b = np.asarray(features_b, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1]:
        raise ValueError("feature batches must be 2-D with equal width")
    norm_a = np.linalg.norm(a, axis=1)
    norm_b = np.linalg.norm(b, axis=1)
    if (norm_a == 0).any() or (norm_b == 0).any():
        raise DegenerateInputError("zero-norm feature row has no cosine direction")
    sim = (a / norm_a[:, None]) @ (b / norm_b[:, None]).T
    return np.clip(1.0 - sim, 0.0, 2.0)


def cosine_cost_grad(features_a, features_b, upstream):
    """Chain an upstream gradient through `cosine_cost`.

    Given d(loss)/d(cost) as `upstream`, returns (d(loss)/d(features_a),
    d(loss)/d(features_b)). The clip in the forward pass only binds at exact
    rounding boundaries and is treated as the identity here.
    """
    a = np.asarray(features_a, dtype=np.float64)
    b = np.asarray(features_b, dtype=np.float64)
    upstream = np.asarray(upstream, dtype=np.float64)
    if upstream.shape != (a.shape[0], b.shape[0]):
        raise ValueError("upstream gradient shape must match the cost matrix")
    norm_a = np.linalg.norm(a, axis=1)
    norm_b = np.linalg.norm(b, axis=1)
    if (norm_a == 0).any() or (norm_b == 0).any():
        raise DegenerateInputError("zero-norm feature row has no cosine direction")
    unit_a = a / norm_a[:, None]
    unit_b = b / norm_b[:, None]
    # cost = 1 - unit_a @ unit_b.T, so d(cost)/d(sim) = -1.
    g_unit_a = -upstream @ unit_b
    g_unit_b = -upstream.T @ unit_a
    # Through the normalization: project out the radial component, scale by 1/norm.
    grad_a = (g_unit_a - (g_unit_a * unit_a).sum(axis=1, keepdims=True) * unit_a)
    grad_a /= norm_a[:, None]
    grad_b = (g_unit_b - (g_unit_b * unit_b).sum(axis=1, keepdims=True) * unit_b)
    grad_b /= norm_b[:, None]
    return grad_a, grad_b


def coupling_cost(coupling, cost):
    """Frobenius inner product <coupling, cost>: the transport objective."""
    coupling = np.asarray(coupling, dtype=np.float64)
    cost = np.asarray(cost, dtype=np.float64)
    if coupling.shape != cost.shape:
        raise ValueError("coupling and cost shapes differ")
    return float((coupling * cost).sum())


class CouplingReport:
    """Feasibility summary for a would-be coupling."""

    def __init__(self, max_row_dev, max_col_dev, min_entry, tol):
        self.max_row_dev = float(max_row_dev)
        self.max_col_dev = float(max_col_dev)
        self.min_entry = float(min_entry)
        self.tol = float(tol)

    @property
    def passed(self):
        return (
            self.max_row_dev <= self.tol
            and self.max_col_dev <= self.tol
            and self.min_entry >= -self.tol
        )

    def __repr__(self):
        return (
            "CouplingReport(max_row_dev=%.3e, max_col_dev=%.3e, min_entry=%.3e, passed=%s)"
            % (self.max_row_dev, self.max_col_dev, self.min_entry, self.passed)
        )


def validate_coupling(coupling, p1, p2, tol=1e-8):
    """Measure how far `coupling` is from the polytope with marginals p1, p2."""
    coupling = np.asarray(coupling, dtype=np.float64)
    p1 = np.asarray(p1, dtype=np.float64)
    p2 = np.asarray(p2, dtype=np.float64)
    if coupling.shape != (p1.size, p2.size):
        raise ValueError("coupling shape does not match the marginals")
    row_dev = np.abs(coupling.sum(axis=1) - p1).max()
    col_dev = np.abs(coupling.sum(axis=0) - p2).max()
    return CouplingReport(row_dev, col_dev, coupling.min(), tol)


def _reduce_support(cost, p1, p2):
    rows = p1 > 0
    cols = p2 > 0
    if not rows.any() or not cols.any():
        raise DegenerateInputError("a marginal has empty support")
    return cost[np.ix_(rows, cols)], p1[rows], p2[cols], rows, cols


def _restore_support(plan, rows, cols):
    full = np.zeros((rows.size, cols.size))
    full[np.ix_(rows, cols)] = plan
    return full


@functools.lru_cache(maxsize=4)
def _transport_matrix(m, n):
    """Column-wise equality constraints of the m x n transportation LP.

    Column i*n + j (plan entry (i, j)) has a one in row-sum constraint i and
    in column-sum constraint m + j. The last column-sum constraint is implied
    by the others (both marginals sum to 1); dropping it keeps the system
    full-rank, which stops the solver from declaring spurious infeasibility
    when some marginal entries sit near its feasibility tolerance. The matrix
    depends only on the shape and is copied into each model, so the matrices
    of the last four shapes are kept.
    """
    index = np.empty((m, n, 2), dtype=np.int32)
    index[:, :, 0] = np.arange(m)[:, None]
    index[:, :, 1] = np.arange(m, m + n)
    index = index.ravel()
    index = index[index != m + n - 1]
    # Every column holds two entries except column i*n + n - 1 of each row i,
    # whose second entry sat in the dropped constraint.
    col = np.arange(m * n + 1)
    matrix = highs.HighsSparseMatrix()
    matrix.format_ = highs.MatrixFormat.kColwise
    matrix.num_col_ = m * n
    matrix.num_row_ = m + n - 1
    matrix.start_ = (2 * col - col // n).astype(np.int32)
    matrix.index_ = index
    matrix.value_ = np.ones(index.size)
    return matrix


def _solve_lp(lp):
    """Run HiGHS's dual simplex on `lp`, presolve and output off.

    Presolve finds nothing to remove in a transportation LP. Returns the
    status of the run, the model status and the column values; the values
    mean something only if the run did not fail and the model status is
    optimal.
    """
    options = highs.HighsOptions()
    options.presolve = "off"
    options.output_flag = False
    options.log_to_console = False
    options.simplex_strategy = highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual
    solver = highs._Highs()
    solver.passOptions(options)
    solver.passModel(lp)
    run_status = solver.run()
    return run_status, solver.getModelStatus(), solver.getSolution().col_value


def solve_exact(cost, p1, p2):
    """Minimum-cost coupling: an optimal vertex of the transportation polytope.

    After atoms with zero mass are removed, a square problem whose row and
    column masses all equal one value is solved as an assignment: each matched
    pair carries that mass, so every marginal holds exactly. Any other problem
    is the transportation LP, handed to HiGHS as a prebuilt column-wise model
    and solved by its dual simplex without presolve; its plan holds the
    marginals within HiGHS's primal feasibility tolerance, 1e-7, in every row
    and column (usually far closer; negative round-off entries are zeroed).
    A failed HiGHS run or a model status other than optimal raises
    NumericalError rather than returning a partial answer.
    """
    cost, p1, p2 = _check_problem(cost, p1, p2)
    active_cost, ap1, ap2, rows, cols = _reduce_support(cost, p1, p2)
    m, n = active_cost.shape
    mass = ap1[0]
    if m == n and (ap1 == mass).all() and (ap2 == mass).all():
        plan = np.zeros((m, n))
        plan[linear_sum_assignment(active_cost)] = mass
        return _restore_support(plan, rows, cols)
    # Row-sum constraints then column-sum constraints (the last one dropped)
    # on the vectorized plan, every entry nonnegative.
    bounds = np.concatenate([ap1, ap2[:-1]])
    lp = highs.HighsLp()
    lp.num_col_ = m * n
    lp.num_row_ = m + n - 1
    lp.col_cost_ = active_cost.ravel()
    lp.col_lower_ = np.zeros(m * n)
    lp.col_upper_ = np.full(m * n, highs.kHighsInf)
    lp.row_lower_ = bounds
    lp.row_upper_ = bounds
    lp.a_matrix_ = _transport_matrix(m, n)
    run_status, model_status, x = _solve_lp(lp)
    if run_status == highs.HighsStatus.kError:
        raise NumericalError("exact transport LP failed: the HiGHS run returned an error")
    if model_status != highs.HighsModelStatus.kOptimal:
        raise NumericalError("exact transport LP failed: HiGHS model status %s" % model_status.name)
    x = np.asarray(x)
    plan = np.where(x < 0, 0.0, x).reshape(m, n)
    return _restore_support(plan, rows, cols)


class SinkhornResult:
    """Entropic solver output: the plan plus convergence diagnostics."""

    def __init__(self, coupling, converged, iterations, marginal_error):
        self.coupling = coupling
        self.converged = bool(converged)
        self.iterations = int(iterations)
        self.marginal_error = float(marginal_error)


# np.exp of an argument below this is a subnormal double, which is slow. In
# the log-sum-exp helpers such a term (after the peak shift) is below half an
# ulp of the sum; in a scaling kernel it becomes an exact zero, the kernel
# truncation of stabilized scaling (Schmitzer 2019).
_EXP_FLOOR = -708.0
# A stage re-centres its potentials first if an absorbed exponent starts below
# this; the margin above _EXP_FLOOR covers scalings up to _SCALING_BOUND.
_RECENTRE_BELOW = -600.0
_SCALING_BOUND = 1e50


def _lse_rows(matrix):
    # logsumexp over axis=1, hand-rolled: scipy's version dominates runtime
    # at mini-batch sizes through per-call overhead.
    peak = matrix.max(axis=1)
    shifted = matrix - peak[:, None]
    np.putmask(shifted, shifted < _EXP_FLOOR, -np.inf)
    out = np.log(np.exp(shifted, out=shifted).sum(axis=1))
    out += peak
    return out


def _lse_cols(matrix):
    peak = matrix.max(axis=0)
    shifted = matrix - peak[None, :]
    np.putmask(shifted, shifted < _EXP_FLOOR, -np.inf)
    out = np.log(np.exp(shifted, out=shifted).sum(axis=0))
    out += peak
    return out


def _scaling_iterations(absorbed, p1, p2, f, g, tol, iterations, max_iter, check_every):
    """Sinkhorn passes as matrix-vector scalings of the absorbed kernel.

    With K = exp(absorbed), absorbed = kernel + f + g (overwritten here), the
    potentials are f + log u and g + log v; each pass is u = p1 / (K v),
    v = p2 / (K^T u), and the plan is u K v, so no exp runs inside the loop.
    Counting on from the stage's `iterations` (< max_iter), the marginal error
    is checked at each multiple of `check_every` and at `max_iter`. Stops
    early, at a check, when u or v leaves [1/_SCALING_BOUND, _SCALING_BOUND],
    so that the caller can absorb them into the potentials and rebuild K.
    """
    if absorbed.min() < _EXP_FLOOR:
        np.putmask(absorbed, absorbed < _EXP_FLOOR, -np.inf)
    kernel = np.exp(absorbed, out=absorbed)
    kv = kernel.sum(axis=1)
    while True:
        for _ in range(min(check_every - iterations % check_every, max_iter - iterations)):
            u = p1 / kv
            ktu = u @ kernel
            v = p2 / ktu
            kv = kernel @ v
            iterations += 1
        row_err = np.abs(u * kv - p1).max()
        col_err = np.abs(v * ktu - p2).max()
        error = max(row_err, col_err)
        if error <= tol or iterations >= max_iter:
            break
        if max(u.max(), v.max()) > _SCALING_BOUND or min(u.min(), v.min()) < 1.0 / _SCALING_BOUND:
            break
    return f + np.log(u), g + np.log(v), iterations, error


def _sinkhorn_stage(kernel, log_p1, log_p2, f, g, tol, max_iter, check_every=5):
    """Sinkhorn iterations at one regularization level (kernel = -cost/level).

    One loop serves every level: scaling passes on the kernel with the
    potentials absorbed, re-absorbed when the scalings leave their bounds. If
    an absorbed exponent starts below _RECENTRE_BELOW, the stage's first
    iteration is instead one log-domain update, which re-centres f and g.
    After any full iteration the absorbed exponents are the log of the plan:
    for a nonnegative cost all are <= 0, and each row's largest is
    >= log(p1_i * min p2 / n), so truncating those below _EXP_FLOOR empties
    no row. This holds at every re-absorption, and the next stage (level / 2)
    starts from log(plan) - cost/level <= 0, so nothing else is tested. The
    marginal error is checked every `check_every` iterations of the stage,
    the re-centring one included, and when the budget runs out.
    """
    p1 = np.exp(log_p1)
    p2 = np.exp(log_p2)
    absorbed = kernel + f[:, None] + g[None, :]
    iterations = 0
    if absorbed.min() < _RECENTRE_BELOW:
        f = log_p1 - _lse_rows(kernel + g[None, :])
        g = log_p2 - _lse_cols(kernel + f[:, None])
        absorbed = kernel + f[:, None] + g[None, :]
        iterations = 1
        if max_iter == 1:  # the re-centring used the whole budget
            plan = np.exp(absorbed)
            return f, g, 1, max(abs(plan.sum(axis=1) - p1).max(), abs(plan.sum(axis=0) - p2).max())
    while True:
        f, g, iterations, error = _scaling_iterations(
            absorbed, p1, p2, f, g, tol, iterations, max_iter, check_every
        )
        if error <= tol or iterations >= max_iter:
            return f, g, iterations, error
        absorbed = kernel + f[:, None] + g[None, :]


def _round_to_polytope(plan, p1, p2):
    """Project a near-feasible plan onto the coupling polytope.

    Overfull rows and columns are scaled down, never up, so entries stay
    nonnegative; the remaining deficit is patched with a rank-one correction
    whose row and column sums equal the deficits exactly. The objective moves
    by at most the pre-projection marginal error times the cost range.
    """
    row = plan.sum(axis=1)
    plan = plan * np.where(row > p1, p1 / np.where(row > 0, row, 1.0), 1.0)[:, None]
    col = plan.sum(axis=0)
    plan = plan * np.where(col > p2, p2 / np.where(col > 0, col, 1.0), 1.0)[None, :]
    deficit_r = np.maximum(p1 - plan.sum(axis=1), 0.0)
    deficit_c = np.maximum(p2 - plan.sum(axis=0), 0.0)
    total = deficit_r.sum()
    if total > 0:
        plan = plan + np.outer(deficit_r, deficit_c) / total
    return plan


def solve_sinkhorn(cost, p1, p2, reg=0.05, tol=1e-6, max_iter=1000, anneal=True):
    """Entropy-regularized coupling via Sinkhorn dual iterations.

    Every regularization level runs one scaling loop on the kernel with the
    dual potentials absorbed, after one log-domain re-centring iteration where
    that kernel would underflow (see `_sinkhorn_stage`). A cost with negative
    entries is shifted to a minimum of 0, which changes no entropic plan. With
    `anneal` on, the solver walks a geometric schedule of regularization
    levels from the cost scale down to `reg` (positive and finite), carrying
    the dual potentials across levels; this keeps small `reg` values from
    needing tens of thousands of iterations. The returned plan is projected
    onto the coupling polytope, so its marginals hold to machine precision
    wherever the iteration stopped; `marginal_error` reports the finite
    pre-projection dual residual and `converged` whether it reached `tol`
    (nonnegative and finite) within the budget.
    """
    cost, p1, p2 = _check_problem(cost, p1, p2)
    if not (np.isfinite(reg) and reg > 0):
        raise ValueError("reg must be positive and finite")
    if not (np.isfinite(tol) and tol >= 0):
        raise ValueError("tol must be nonnegative and finite")
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    active_cost, ap1, ap2, rows, cols = _reduce_support(cost, p1, p2)
    active_cost = active_cost - min(active_cost.min(), 0.0)
    log_p1 = np.log(ap1)
    log_p2 = np.log(ap2)
    f = np.zeros(ap1.size)
    g = np.zeros(ap2.size)

    schedule = []
    if anneal:
        level = float(active_cost.max())
        while level > reg * 2.0:
            schedule.append(level)
            level /= 2.0
    schedule.append(float(reg))

    total_iterations = 0
    error = np.inf
    for stage_index, level in enumerate(schedule):
        last = stage_index == len(schedule) - 1
        stage_tol = tol if last else max(tol, 1e-3)
        stage_budget = max_iter if last else min(max_iter, 200)
        f, g, used, error = _sinkhorn_stage(
            -active_cost / level, log_p1, log_p2, f, g, stage_tol, stage_budget
        )
        total_iterations += used

    log_plan = -active_cost / schedule[-1] + f[:, None] + g[None, :]
    plan = np.exp(log_plan)
    if not np.isfinite(plan).all():
        raise NumericalError("entropic solver produced non-finite plan entries")
    plan = _round_to_polytope(plan, ap1, ap2)
    return SinkhornResult(
        _restore_support(plan, rows, cols),
        converged=error <= tol,
        iterations=total_iterations,
        marginal_error=error,
    )


def write_matrix_csv(path, matrix):
    """Dump a matrix as CSV with round-trip-exact floats, one row per line."""
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2:
        raise ValueError("matrix must be 2-D")
    lines = [",".join(format_float(x) for x in row) for row in matrix]
    atomic_write_text(path, "\n".join(lines) + "\n")
