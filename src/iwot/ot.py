"""Discrete optimal transport over couplings with arbitrary marginals.

Two solvers share one contract: given a cost matrix and probability vectors
p1, p2, find the coupling (a matrix with row sums p1 and column sums p2)
minimizing the Frobenius inner product with the cost.

`solve_exact` returns a vertex of the transport polytope. A square problem
whose masses are all equal is an assignment problem (every vertex is a
permutation matrix times the common mass, Birkhoff-von Neumann), so it is
solved by SciPy's `linear_sum_assignment` and its marginals hold
exactly. Every other problem is the transportation linear program, solved by
the shortlist method: HiGHS's dual simplex solves it on each row's and
column's 8 arcs of least reduced cost under the duals of a short entropic
solve annealed by eps-scaling, plus a north-west-corner staircase. Its first
pass starts from the spanning tree of the listed arcs of least reduced cost,
a basis near the optimum, and prices with Devex edge weights, which unlike
steepest edge cost nothing to set up for a basis other than the slack one.
The row duals price every other arc, and arcs priced below -1e-9 are added
and the LP re-solved until none is left, so the plan is optimal for the full
LP. HiGHS's primal feasibility tolerance sits at its floor, 1e-10, so the
marginals hold to round-off on this path too. Each thread keeps one HiGHS
instance, made with its options on its first LP and cleared before each one.

`solve_sinkhorn` is an entropic solver written here directly: each stage is
one loop of stabilized scaling (Schmitzer 2019), matrix-vector scalings of a
kernel with the dual potentials absorbed, rebuilt when the scalings leave
their bounds; the potentials are in cost units throughout. Where the cost is
within 64 times the regularization, as for cosine costs at reg 0.05, it runs
one stage at that regularization, over-relaxed by 2 / (1 + sqrt(reg / max C))
after its first iteration and plain from the first check at which the
marginal error rises. A sharper regularization is reached through a
geometric schedule of plain stages, each warm-started from the last one's
potentials, so that it stays cheap; where the kernel would underflow, as at
the last levels of a reg around 1e-3, a stage first shifts the potentials by
each row's and then each column's largest exponent, after which the
underflowing entries are truncated to zero; its last stage ends in Newton
steps on the dual. Atoms with zero mass (for Sinkhorn, also those too light
for the truncated kernel) are removed first and restored as zero rows/columns.

Both compiled solvers, SciPy's assignment module `_lsap` and HiGHS's
`_highspy._core`, are loaded straight from their extension files under their
real names, because running the `scipy.optimize` package `__init__` would
import linalg, sparse, fft and special and cost most of the CLI's start-up;
not even the `scipy` package `__init__` runs.

Cosine dissimilarity (1 - cosine similarity, range [0, 2]) is the cost used
throughout the package; its gradient with respect to both feature sets is
provided here so loss code can chain through it.
"""

import importlib.machinery
import importlib.util
import os
import threading
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError, NumericalError
from .fileio import atomic_write_text, format_float

PROB_ATOL = 1e-9


def _scipy_extension(name):
    """Load SciPy's compiled module `name` without running its packages' `__init__`.

    It runs under its dotted name, to which CPython keys loaded extensions, so
    an `import` of the same name, before or after, yields the same module.
    """
    root = importlib.util.find_spec("scipy").submodule_search_locations[0]
    directory = os.path.join(root, *name.split(".")[1:-1])
    spec = importlib.machinery.PathFinder.find_spec(name, [directory])
    if spec is None:
        import scipy  # only here: its `__init__` costs about 15 ms
        raise ImportError("%s is not in SciPy %s" % (name, scipy.__version__))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


linear_sum_assignment = _scipy_extension("scipy.optimize._lsap").linear_sum_assignment
highs = _scipy_extension("scipy.optimize._highspy._core")


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


def _unit_rows(features_a, features_b):
    """The unit rows and row norms of two 2-D feature batches of equal width.

    Rows with zero norm have no direction, so they are rejected.
    """
    a = np.asarray(features_a, dtype=np.float64)
    b = np.asarray(features_b, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1]:
        raise ValueError("feature batches must be 2-D with equal width")
    norm_a = np.linalg.norm(a, axis=1)
    norm_b = np.linalg.norm(b, axis=1)
    if (norm_a == 0).any() or (norm_b == 0).any():
        raise DegenerateInputError("zero-norm feature row has no cosine direction")
    return a / norm_a[:, None], norm_a, b / norm_b[:, None], norm_b


def cosine_cost(features_a, features_b):
    """Pairwise cosine dissimilarity matrix between two feature batches.

    Entry (i, j) is 1 - cos(a_i, b_j), which lies in [0, 2]. Rows with zero
    norm have no direction, so they are rejected.
    """
    unit_a, _, unit_b, _ = _unit_rows(features_a, features_b)
    return np.clip(1.0 - unit_a @ unit_b.T, 0.0, 2.0)


def cosine_cost_grad(features_a, features_b, upstream):
    """Chain an upstream gradient through `cosine_cost`.

    Given d(loss)/d(cost) as `upstream`, returns (d(loss)/d(features_a),
    d(loss)/d(features_b)). The clip in the forward pass only binds at exact
    rounding boundaries and is treated as the identity here.
    """
    unit_a, norm_a, unit_b, norm_b = _unit_rows(features_a, features_b)
    upstream = np.asarray(upstream, dtype=np.float64)
    if upstream.shape != (norm_a.size, norm_b.size):
        raise ValueError("upstream gradient shape must match the cost matrix")
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


@dataclass
class CouplingReport:
    """Feasibility summary for a would-be coupling."""

    max_row_dev: float
    max_col_dev: float
    min_entry: float
    tol: float

    @property
    def passed(self):
        return (
            self.max_row_dev <= self.tol
            and self.max_col_dev <= self.tol
            and self.min_entry >= -self.tol
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
    return CouplingReport(float(row_dev), float(col_dev), float(coupling.min()), float(tol))


def _reduce_support(cost, p1, p2):
    """The problem on the atoms with mass; the arrays themselves if all have it."""
    rows = p1 > 0
    cols = p2 > 0
    if rows.all() and cols.all():
        return cost, p1, p2, rows, cols
    if not rows.any() or not cols.any():
        raise DegenerateInputError("a marginal has empty support")
    return cost[np.ix_(rows, cols)], p1[rows], p2[cols], rows, cols


def _restore_support(plan, rows, cols):
    if plan.shape == (rows.size, cols.size):
        return plan
    full = np.zeros((rows.size, cols.size))
    full[np.ix_(rows, cols)] = plan
    return full


# Arcs per row and column in the first LP; arcs join at reduced cost < -tol.
_SHORTLIST = 8
_PRICING_TOL = 1e-9
# The ranking's potentials: plain Sinkhorn iterations at each eps = the cost
# range / scale, as (iterations, scale), each level warm-started from the last.
_RANK_SCHEDULE = ((30, 40.0), (10, 80.0), (10, 160.0), (10, 320.0))


def _shortlist(cost, p1, p2):
    """Flat masks of the arcs the restricted transportation LP starts with,
    and of the spanning tree among them that its first pass starts from.

    Each row's and each column's _SHORTLIST arcs of least reduced cost
    c_ij - f_i - g_j (all of them on a shorter side), with f, g from
    `_sinkhorn_stage` over the eps-scaling schedule _RANK_SCHEDULE, from the
    cost range / 40 down to the range / 320 (0.00625 on cosine costs; eps is 1
    on a constant cost), each level warm-started from the last one's
    potentials, on masses floored as in `solve_sinkhorn` so that no kernel row
    empties; plus the north-west-corner staircase of m + n - 1
    arcs from (0, 0) to (m-1, n-1), which carries a feasible plan: it steps
    down where a row's cumulative mass runs out before the column's, and
    right otherwise. The staircase joins every row and column, so Kruskal's
    algorithm over the listed arcs, taken in order of reduced cost, finds a
    tree of m + n - 1 of them.
    """
    m, n = cost.shape
    floor = np.sqrt(max(m, n) * np.exp(_EXP_FLOOR))  # as in solve_sinkhorn
    floored = np.maximum(p1, floor), np.maximum(p2, floor)
    f, g = np.zeros(m), np.zeros(n)
    shifted, spread = cost - cost.min(), np.ptp(cost)
    for iterations, scale in _RANK_SCHEDULE:
        eps = spread / scale or 1.0
        f, g, _, _ = _sinkhorn_stage(shifted, eps, *floored, f, g, 0.0, iterations, 1.0)
    reduced = shifted - f[:, None] - g
    listed = np.zeros((m, n), dtype=bool)
    k_row, k_col = min(_SHORTLIST, n), min(_SHORTLIST, m)
    listed[np.arange(m)[:, None], np.argpartition(reduced, k_row - 1, axis=1)[:, :k_row]] = True
    listed[np.argpartition(reduced, k_col - 1, axis=0)[:k_col], np.arange(n)] = True
    breaks = np.concatenate([np.cumsum(p1)[:-1], np.cumsum(p2)[:-1]])
    down = np.argsort(breaks, kind="stable") < m - 1
    listed[np.append(0, np.cumsum(down)), np.append(0, np.cumsum(~down))] = True
    listed = listed.ravel()
    arcs = np.flatnonzero(listed)
    arcs = arcs[np.argsort(reduced.ravel()[arcs], kind="stable")]
    tree = np.zeros(m * n, dtype=bool)
    # Union-find over rows 0..m-1 and columns m..m+n-1, with path halving.
    parent = list(range(m + n))
    joins = m + n - 1
    for arc, i, j in zip(arcs.tolist(), (arcs // n).tolist(), (arcs % n + m).tolist()):
        while parent[i] != i:
            parent[i] = i = parent[parent[i]]
        while parent[j] != j:
            parent[j] = j = parent[parent[j]]
        if i != j:
            parent[i] = j
            tree[arc] = True
            joins -= 1
            if not joins:
                break
    return listed, tree


def _add_arcs(solver, arcs, cost):
    """Add plan entries `arcs` (flat indices i*n + j) to the LP as columns.

    Column (i, j) has a one in row-sum constraint i and in column-sum
    constraint m + j, unless j is the last column: that constraint is implied
    by the others, and leaving it out keeps the system full-rank, so HiGHS
    declares no spurious infeasibility when marginal entries sit near its
    feasibility tolerance.
    """
    m, n = cost.shape
    i, j = np.divmod(arcs, n)
    index = np.stack([i, j + m], axis=1, dtype=np.int32).ravel()
    index = index[index != m + n - 1]
    start = np.append(0, np.cumsum(2 - (j[:-1] == n - 1))).astype(np.int32)
    size = arcs.size
    solver.addCols(size, cost.ravel()[arcs], np.zeros(size), np.full(size, highs.kHighsInf),
                   index.size, start, index, np.ones(index.size))


_local = threading.local()  # one HiGHS instance per thread: wasserstein_gap solves on two


def _solver():
    """This thread's HiGHS instance, made with `solve_exact`'s options on first use."""
    if not hasattr(_local, "solver"):
        options = highs.HighsOptions()
        options.presolve = "off"  # it finds nothing to remove in a transportation LP
        options.output_flag = False
        options.log_to_console = False
        options.simplex_strategy = highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual
        # HiGHS's floor (it rejects less). At the default 1e-7 it can stop at a
        # basis holding an entry of -1e-8; zeroing it moved the marginals.
        options.primal_feasibility_tolerance = 1e-10
        options.simplex_dual_edge_weight_strategy = (
            highs.simplex_constants.SimplexEdgeWeightStrategy.kSimplexEdgeWeightStrategyDevex
        )
        _local.solver = highs._Highs()
        _local.solver.passOptions(options)
    return _local.solver


def _solve_lp(solver):
    """Run HiGHS on the model in `solver`: every pass of every LP solve.

    Returns (run status, model status, solution); the solution's column values
    and row duals hold only if the run did not fail and the model is optimal.
    """
    run_status = solver.run()
    return run_status, solver.getModelStatus(), solver.getSolution()


def solve_exact(cost, p1, p2):
    """Minimum-cost coupling: an optimal vertex of the transportation polytope.

    After atoms with zero mass are removed, a square problem whose row and
    column masses all equal one value is solved as an assignment: each matched
    pair carries that mass, so every marginal holds exactly. Any other problem
    is the transportation LP, solved by the shortlist method (Gottschlich &
    Schuhmacher 2014): this thread's HiGHS instance (`_solver`; options set
    once, model cleared per solve) runs dual simplex, presolve and output off,
    on the arcs `_shortlist` ranks by eps-scaled entropic dual estimates
    (Schmitzer, J. Math. Imaging Vis. 2016 and SIAM J. Sci. Comput. 2019).
    The first pass starts from `_shortlist`'s spanning tree, loaded as an
    alien basis, and every pass prices with Devex dual edge weights (Huangfu
    & Hall 2018); with that ranking they take a tenth to a seventh of the
    simplex iterations of a cold steepest-edge start. Every unlisted arc
    (i, j) is priced with the row duals as c_ij - u_i - v_j (v is 0 for the
    dropped column), arcs below -1e-9 join the same model, and it is solved
    again from the last pass's basis until none is left, so the plan is
    optimal for the full LP. HiGHS's primal feasibility tolerance is 1e-10,
    its floor, so the plan holds the marginals to round-off (any negative
    round-off entry is zeroed). HiGHS fails near cost 1e19, so a cost above 2
    is first scaled exactly into [0.5, 1). A failed HiGHS run or a model
    status other than optimal, on any pass, raises NumericalError rather than
    returning a partial answer.
    """
    cost, p1, p2 = _check_problem(cost, p1, p2)
    active_cost, ap1, ap2, rows, cols = _reduce_support(cost, p1, p2)
    m, n = active_cost.shape
    mass = ap1[0]
    if m == n and (ap1 == mass).all() and (ap2 == mass).all():
        plan = np.zeros((m, n))
        plan[linear_sum_assignment(active_cost)] = mass
        return _restore_support(plan, rows, cols)
    top = np.abs(active_cost).max()
    if top > 2.0:
        active_cost = np.ldexp(active_cost, -np.frexp(top)[1])
    solver = _solver()
    solver.clearModel()
    # Row-sum constraints then column-sum constraints (the last one dropped).
    bounds = np.concatenate([ap1, ap2[:-1]])
    solver.addRows(bounds.size, bounds, bounds, 0, np.zeros(bounds.size, np.int32), [], [])
    listed, tree = _shortlist(active_cost, ap1, ap2)
    arcs = np.flatnonzero(listed)
    _add_arcs(solver, arcs, active_cost)
    # The first pass starts from the tree: with the last column constraint
    # dropped, its m + n - 1 arcs are one basic variable per row.
    basis = highs.HighsBasis()
    basis.alien = True
    col_status = [highs.HighsBasisStatus.kLower] * arcs.size
    for basic in np.flatnonzero(tree[arcs]).tolist():
        col_status[basic] = highs.HighsBasisStatus.kBasic
    basis.col_status = col_status
    basis.row_status = [highs.HighsBasisStatus.kLower] * bounds.size
    solver.setBasis(basis)
    while True:
        run_status, status, solution = _solve_lp(solver)
        if run_status == highs.HighsStatus.kError:
            raise NumericalError("exact transport LP failed: the HiGHS run returned an error")
        if status != highs.HighsModelStatus.kOptimal:
            raise NumericalError("exact transport LP failed: HiGHS model status %s" % status.name)
        duals = np.asarray(solution.row_dual)
        reduced = active_cost - duals[:m, None]
        reduced[:, :-1] -= duals[m:]
        new = np.flatnonzero(reduced.ravel() < -_PRICING_TOL)
        new = new[~listed[new]]
        if not new.size:
            break
        listed[new] = True
        arcs = np.concatenate([arcs, new])
        _add_arcs(solver, new, active_cost)
    x = np.asarray(solution.col_value)
    plan = np.zeros(m * n)
    plan[arcs] = np.where(x < 0, 0.0, x)
    return _restore_support(plan.reshape(m, n), rows, cols)


@dataclass
class SinkhornResult:
    """Entropic solver output: the plan plus convergence diagnostics.

    `iterations` is the number of scaling passes summed over all stages
    (perfbench reports it as `iters_total`), `newton_steps` those of the
    annealed path's Newton finish; `marginal_error` is the largest marginal
    residual before the projection, and `converged` whether it is within `tol`.
    """

    coupling: np.ndarray
    converged: bool
    iterations: int
    marginal_error: float
    newton_steps: int


# np.exp of an argument below this is a subnormal double, which is slow; in
# a scaling kernel it becomes an exact zero, the kernel truncation of
# stabilized scaling (Schmitzer 2019).
_EXP_FLOOR = -708.0
# A stage re-centres its potentials first if an exponent starts below this;
# the margin above _EXP_FLOOR covers scalings up to _SCALING_BOUND.
_RECENTRE_BELOW = -600.0
_SCALING_BOUND = 1e50
# A cost whose largest entry is at most this many times reg is solved in one
# stage at reg, over-relaxed: there annealing saves few iterations and each of
# its stages rebuilds the kernel. The weight is the SOR optimum 2 / (1 +
# sqrt(1 - eta)) for a contraction rate eta (Thibault, Chizat, Dossal &
# Papadakis, "Overrelaxed Sinkhorn-Knopp"; Lehmann, von Renesse, Sambale &
# Uschmajew, Optim. Lett. 2022), taking 1 - eta as reg / max C; like the best
# fixed weight on training solves it falls as reg grows.
_ONE_STAGE_SCALE = 64.0
# A stage checks its marginal error every this many iterations.
_CHECK_EVERY = 5
# The annealed last stage's scaling passes before Newton steps, and their cap.
_NEWTON_AFTER, _NEWTON_STEPS = 50, 30


def _absorbed_kernel(absorbed):
    """exp(absorbed) in place, exponents below _EXP_FLOOR truncated to zero."""
    if absorbed.min() < _EXP_FLOOR:
        np.putmask(absorbed, absorbed < _EXP_FLOOR, -np.inf)
    return np.exp(absorbed, out=absorbed)


def _sinkhorn_stage(cost, level, p1, p2, f, g, tol, max_iter, omega):
    """Sinkhorn iterations at one regularization level on a nonnegative cost.

    One loop serves every level: matrix-vector scalings of K = exp((f + g -
    cost) / level), the kernel with the potentials (in cost units) absorbed,
    so no exp runs inside it. The potentials are f + level log u and g +
    level log v from u = v = 1, and the plan is u K v. The first pass is plain,
    u = p1 / (K v), v = p2 / (K^T u); every later one is over-relaxed,
    u = u^(1 - omega) (p1 / (K v))^omega and likewise v (omega 1 is the plain
    pass). The marginal error is checked every _CHECK_EVERY passes and when
    the budget runs out; once it rises from one check to the next, omega is 1
    for the rest of the stage. When u or v has left [1/_SCALING_BOUND,
    _SCALING_BOUND] at a check, they are absorbed into f and g and K is
    rebuilt.

    If an exponent starts below _RECENTRE_BELOW, f first drops by level times
    each row's largest exponent, then g by level times each column's: every
    row and column then holds an exponent of 0 (to round-off), so truncation
    empties none.
    Returns the potentials, the number of scaling passes and the last error.
    """
    m = p1.size
    marginals = np.concatenate([p1, p2])
    absorbed = (f[:, None] + g - cost) / level
    if absorbed.min() < _RECENTRE_BELOW:
        f = f - level * absorbed.max(axis=1)
        absorbed = (f[:, None] + g - cost) / level
        g = g - level * absorbed.max(axis=0)
        absorbed = (f[:, None] + g - cost) / level
    iterations = 0
    error = np.inf
    # u and v share one buffer, as do their residuals: one reduction per bound.
    residual = np.empty(marginals.size)
    while True:
        scaled = _absorbed_kernel(absorbed)
        uv = np.ones(marginals.size)
        u, v = uv[:m], uv[m:]
        kv = scaled.sum(axis=1)
        while True:
            for _ in range(min(_CHECK_EVERY, max_iter - iterations)):
                if iterations and omega != 1.0:
                    ratio = p1 / (u * kv)
                    u *= ratio**omega
                    ktu = u @ scaled
                    ratio = p2 / (v * ktu)
                    v *= ratio**omega
                else:
                    np.divide(p1, kv, out=u)
                    ktu = u @ scaled
                    np.divide(p2, ktu, out=v)
                kv = scaled @ v
                iterations += 1
            np.multiply(u, kv, out=residual[:m])
            np.multiply(v, ktu, out=residual[m:])
            residual -= marginals
            previous, error = error, np.abs(residual, out=residual).max()
            if error > previous:
                omega = 1.0
            if error <= tol or iterations >= max_iter:
                return f + level * np.log(u), g + level * np.log(v), iterations, error
            if uv.max() > _SCALING_BOUND or uv.min() < 1.0 / _SCALING_BOUND:
                break
        f = f + level * np.log(u)
        g = g + level * np.log(v)
        absorbed = (f[:, None] + g - cost) / level


def _newton_direction(plan, p1, p2, ridge):
    """The Newton step on the entropic dual at `plan`, in units of reg, via the
    Schur complement on the smaller side (here g's; r = P 1, c = P^T 1):
    (diag(c + ridge) - P^T diag(1/r) P) dg = p2 - c - P^T ((p1 - r) / r), last
    dg 0 (the Hessian is singular along (1, -1)), and df = (p1 - r - P dg) / r."""
    if plan.shape[0] < plan.shape[1]:
        return _newton_direction(plan.T, p2, p1, ridge)[::-1]
    rows, cols = plan.sum(axis=1), plan.sum(axis=0)
    row_step = (p1 - rows) / rows
    kept = plan[:, :-1]
    schur = np.diag(cols[:-1] + ridge) - (kept.T / rows) @ kept
    dg = np.append(np.linalg.solve(schur, (p2 - cols)[:-1] - row_step @ kept), 0.0)
    return row_step - (plan @ dg) / rows, dg


def _newton_finish(cost, reg, p1, p2, f, g, tol):
    """Up to _NEWTON_STEPS Sinkhorn-Newton steps (Brauer, Clason, Lorenz & Wirth
    2017) from cost-unit potentials until the marginal error is at most `tol`.
    Each `_newton_direction` (ridge 1e-4 times the error) is halved, up to 40
    times, until the dual gain t (df p1 + dg p2) - sum P expm1(t (df_i + dg_j))
    meets Armijo's rule at 1e-4; a stalled search or a non-finite potential
    ends it. Returns the last finite potentials, their error and the steps."""
    for steps in range(_NEWTON_STEPS + 1):
        plan = _absorbed_kernel((f[:, None] + g - cost) / reg)
        rows, cols = p1 - plan.sum(axis=1), p2 - plan.sum(axis=0)
        error = max(np.abs(rows).max(), np.abs(cols).max())
        if error <= tol or steps == _NEWTON_STEPS:
            break
        df, dg = _newton_direction(plan, p1, p2, 1e-4 * error)
        slope, linear = df @ rows + dg @ cols, df @ p1 + dg @ p2
        for t in 0.5 ** np.arange(40.0):
            if t * linear - (plan * np.expm1(t * (df[:, None] + dg))).sum() >= 1e-4 * t * slope:
                break
        else:
            break
        step_f, step_g = f + reg * t * df, g + reg * t * dg
        if not (np.isfinite(step_f).all() and np.isfinite(step_g).all()):
            break
        f, g = step_f, step_g
    return f, g, error, steps


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


def solve_sinkhorn(cost, p1, p2, reg=0.05, tol=1e-6, max_iter=1000):
    """Entropy-regularized coupling via Sinkhorn dual iterations.

    A cost with negative entries is shifted to a minimum of 0, which changes
    no entropic plan. If the shifted cost is at most `_ONE_STAGE_SCALE` times
    `reg` (positive and finite), one stage runs at `reg`, over-relaxed with
    weight 2 / (1 + sqrt(reg / max(C.max(), reg))), 1 for a cost within `reg`.
    Otherwise the solver walks a geometric schedule of plain stages, halving
    the regularization from the cost scale down to `reg`, each stage starting
    from the dual potentials (in cost units) the last one returned, which
    keeps small `reg` values from needing tens of thousands of iterations.
    Every stage is one scaling loop on the kernel with the potentials
    absorbed, re-centred first where that kernel would underflow (see
    `_sinkhorn_stage`). If `_NEWTON_STEPS` Newton steps, at about min(m, n) / 4
    passes each, fit in `max_iter` after `_NEWTON_AFTER` passes, that schedule's
    last stage runs those passes, then `_newton_finish`, then, while above `tol`,
    the passes left. The returned plan is projected onto the coupling polytope,
    so its marginals hold to machine precision wherever the iteration stopped;
    `marginal_error` reports the finite pre-projection dual residual and
    `converged` whether it reached `tol` (nonnegative and finite) within the
    budget. Below the shifted cost's largest entry times the machine epsilon the
    kernel exponents are spaced more than 1 apart, so no plan can be formed: the
    schedule stops before its first level there. That, and a non-finite plan (a
    stage that leaves a potential non-finite also ends the schedule), raise
    NumericalError.

    Atoms of mass at most sqrt(max(m, n) e^_EXP_FLOOR), about 1e-153, come back
    as zero rows or columns: after a full pass the plan's largest entry in row
    i is at least p1_i * min p2 / n, and the kernel rebuilt from it keeps that
    entry only while it is at least e^_EXP_FLOOR, and column j likewise, which
    any two kept atoms satisfy; an emptied row divides by zero.
    """
    cost, p1, p2 = _check_problem(cost, p1, p2)
    if not (np.isfinite(reg) and reg > 0):
        raise ValueError("reg must be positive and finite")
    if not (np.isfinite(tol) and tol >= 0):
        raise ValueError("tol must be nonnegative and finite")
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    floor = np.sqrt(max(cost.shape) * np.exp(_EXP_FLOOR))
    p1, p2 = np.where(p1 > floor, p1, 0.0), np.where(p2 > floor, p2, 0.0)
    active_cost, ap1, ap2, rows, cols = _reduce_support(cost, p1, p2)
    if active_cost.min() < 0.0:
        active_cost = active_cost - active_cost.min()
    f = np.zeros(ap1.size)
    g = np.zeros(ap2.size)

    top = float(active_cost.max())
    near_scale = top <= _ONE_STAGE_SCALE * reg
    omega = 2.0 / (1.0 + np.sqrt(reg / max(top, reg))) if near_scale else 1.0
    schedule = []
    if not near_scale:
        level = top
        while level > reg * 2.0:
            schedule.append(level)
            level /= 2.0
    schedule.append(float(reg))

    rest = max_iter - _NEWTON_AFTER
    finish = not near_scale and _NEWTON_STEPS * min(active_cost.shape) <= 4 * rest
    total_iterations = newton_steps = 0
    error = np.inf
    # A stage that empties a kernel row divides by zero; the resulting
    # non-finite plan is reported below as a NumericalError.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for stage_index, level in enumerate(schedule):
            if level < top * np.finfo(float).eps:
                # Exponents -cost/level here are spaced more than 1 apart, so
                # no plan can be formed at this level or any sharper one.
                raise NumericalError("entropic solver produced non-finite plan entries")
            last = stage_index == len(schedule) - 1
            stage_tol = tol if last else max(tol, 1e-3)
            stage_budget = (_NEWTON_AFTER if finish else max_iter) if last else min(max_iter, 200)
            problem = active_cost, level, ap1, ap2
            f, g, used, error = _sinkhorn_stage(*problem, f, g, stage_tol, stage_budget, omega)
            total_iterations += used
            if not (np.isfinite(f).all() and np.isfinite(g).all()):
                break
            if last and finish and error > tol:
                f, g, error, newton_steps = _newton_finish(*problem, f, g, tol)
                if error > tol:
                    f, g, used, error = _sinkhorn_stage(*problem, f, g, tol, rest, omega)
                    total_iterations += used
        plan = np.exp((f[:, None] + g - active_cost) / schedule[-1])
    if not np.isfinite(plan).all():
        raise NumericalError("entropic solver produced non-finite plan entries")
    plan = _round_to_polytope(plan, ap1, ap2)
    return SinkhornResult(
        _restore_support(plan, rows, cols),
        converged=bool(error <= tol),
        iterations=total_iterations,
        marginal_error=float(error),
        newton_steps=newton_steps,
    )


def write_matrix_csv(path, matrix):
    """Dump a matrix as CSV with round-trip-exact floats, one row per line."""
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2:
        raise ValueError("matrix must be 2-D")
    lines = [",".join(format_float(x) for x in row) for row in matrix]
    atomic_write_text(path, "\n".join(lines) + "\n")
