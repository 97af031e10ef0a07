"""Solve one small transport problem three ways and compare.

Builds a random cost matrix, solves it with the exact route (an assignment
here, since the problem is square with uniform marginals; the weighted
re-solve at the end is an LP), the entropic route, and the brute-force
permutation oracle, then prints the three objectives side by side.
"""

import numpy as np

from iwot import ot, reference

rng = np.random.default_rng(0)
n = 5
cost = rng.uniform(0.0, 2.0, size=(n, n))
uniform = np.full(n, 1.0 / n)

exact_plan = ot.solve_exact(cost, uniform, uniform)
exact_value = ot.coupling_cost(exact_plan, cost)
oracle_value = reference.permutation_transport(cost)

entropic = ot.solve_sinkhorn(cost, uniform, uniform, reg=1e-3)
entropic_value = ot.coupling_cost(entropic.coupling, cost)
check = ot.validate_coupling(entropic.coupling, uniform, uniform, tol=1e-6)

print("exact objective         %.10f" % exact_value)
print("permutation oracle      %.10f" % oracle_value)
print("entropic (reg 1e-3)     %.10f" % entropic_value)
print("entropic plan feasible  %s (max marginal error %.2e)"
      % (check.passed, max(check.max_row_dev, check.max_col_dev)))
print()

print("exact coupling (rows = source atoms):")
for row in exact_plan:
    print("  " + " ".join("%.3f" % (v if abs(v) >= 5e-4 else 0.0) for v in row))
print()

# Each source atom's conditional cost under the uniform plan says how
# expensive it is to transport. Downweighting the costly atoms and
# re-solving lowers the objective; this is the signal the weight head
# trains against.
conditional = (exact_plan * cost).sum(axis=1) / uniform
weights = np.exp(-2.0 * conditional)
weights /= weights.sum()
weighted_value = ot.coupling_cost(ot.solve_exact(cost, weights, uniform), cost)
print("per-atom conditional cost   " + " ".join("%.3f" % r for r in conditional))
print("uniform-marginal objective  %.6f" % exact_value)
print("weighted-marginal objective %.6f" % weighted_value)
