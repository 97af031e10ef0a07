"""Loss terms built on transport plans, and their hand-derived gradients.

The training objective is

    classification + beta * transport + eta * separation + epsilon * intra

where `transport` is the cross-domain transport value under cosine cost with
per-setting marginals, `separation` pushes cut pairs apart and kept pairs
together after thresholding the plan at the batch transport value, and
`intra` is a within-domain transport value from learned instance weights to
the uniform distribution. Instance weights enter as marginals: the raw
sigmoid outputs of the weight head are normalized over the batch to a
probability vector.

`transport_step` runs the transport side of one adaptation step: it takes
the weight head's raw outputs, normalizes them into the plan's marginals,
solves and scores the terms the plan uses, and returns one TransportStep;
`loss_backward` returns that step's (features, raw) gradient pairs.

Gradients use a frozen-plan scheme. Each solved plan is treated as a constant
of the current step: the feature gradient flows through the cost matrix
entries the plans touch, and the marginal gradient of a transport value keeps
the per-row conditional transport distribution (the scaling structure of the
final solver iteration) fixed, which leaves the conditional expected cost of
each atom. Both routes are chained through cosine normalization and batch
weight normalization in closed form.
"""

from dataclasses import dataclass

import numpy as np

from . import ot
from .errors import ConfigError, DegenerateInputError


def normalize_weights(raw):
    """Normalize nonnegative raw weights into a probability vector over the batch."""
    raw = np.asarray(raw, dtype=np.float64)
    if raw.ndim != 1 or raw.size == 0:
        raise ValueError("raw weights must be a nonempty 1-D array")
    if not np.isfinite(raw).all():
        raise ValueError("raw weights contain non-finite entries")
    if (raw < 0).any():
        raise ValueError("raw weights must be nonnegative")
    total = raw.sum()
    if total <= 0:
        raise DegenerateInputError("all raw weights are zero; no marginal can be formed")
    return raw / total


@dataclass
class TransportTerm:
    """A solved transport term: its value, plan, cost matrix, and solver status."""

    value: float
    coupling: np.ndarray
    cost: np.ndarray
    converged: bool


def _term(cost, p1, p2, solver="exact", **options):
    # Solve p1 -> p2 under `cost`; `options` (reg, tol, max_iter) go to Sinkhorn.
    if solver == "exact":
        coupling, converged = ot.solve_exact(cost, p1, p2), True
    elif solver == "sinkhorn":
        result = ot.solve_sinkhorn(cost, p1, p2, **options)
        coupling, converged = result.coupling, result.converged
    else:
        raise ConfigError("unknown solver %r (expected 'exact' or 'sinkhorn')" % (solver,))
    return TransportTerm(ot.coupling_cost(coupling, cost), coupling, cost, converged)


def wot_loss(source_features, target_features, source_marginal, target_marginal, **solve):
    """Cross-domain transport term: solve for a plan under cosine cost, score it.

    The value is the Frobenius inner product of the plan with the cost, i.e.
    the batch transport cost. Marginals are whatever the caller's setting
    dictates (uniform or normalized instance weights). `solve` picks the
    solver (exact by default, or sinkhorn with reg, tol and max_iter).
    """
    cost = ot.cosine_cost(source_features, target_features)
    return _term(cost, source_marginal, target_marginal, **solve)


def partial_coupling(coupling, cost, threshold):
    """Zero out plan entries whose pair cost exceeds the threshold.

    The threshold is the batch transport value; pairs exactly at it are kept.
    """
    coupling = np.asarray(coupling, dtype=np.float64)
    cost = np.asarray(cost, dtype=np.float64)
    if coupling.shape != cost.shape:
        raise ValueError("coupling and cost shapes differ")
    return np.where(cost <= threshold, coupling, 0.0)


def sa_loss(coupling, partial, cost):
    """Separation term over kept and cut plan mass.

    Cut mass (in the plan but not its thresholded version) enters through
    delta = 1 - exp(-(coupling - partial)), weighted by how far the pair is
    from maximal cosine distance; kept mass is weighted by its cost directly:

        sum(delta * (2 - cost)) + sum(partial * cost)
    """
    coupling = np.asarray(coupling, dtype=np.float64)
    partial = np.asarray(partial, dtype=np.float64)
    cost = np.asarray(cost, dtype=np.float64)
    if not (coupling.shape == partial.shape == cost.shape):
        raise ValueError("coupling, partial and cost shapes differ")
    if (partial > coupling + 1e-12).any():
        raise ValueError("partial plan exceeds the full plan somewhere")
    delta = 1.0 - np.exp(-(coupling - partial))
    return float((delta * (2.0 - cost)).sum() + (partial * cost).sum())


def iot_loss(features, marginal, **solve):
    """Within-domain transport from the learned-weight marginal to uniform.

    The cost is cosine dissimilarity of the batch against itself, and the
    value grows as weight concentrates. With the exact solver it is zero
    exactly when the learned marginal is already uniform (mass can stay on
    the diagonal). With the entropic solver it is not, because the plan
    spreads mass off the diagonal: at reg 0.05 it measured 0.032-0.035 at
    uniform weights on 64-point PDA training batches, a third to two fifths
    of its value at the learned weights. `solve` is as for wot_loss.
    """
    features = np.asarray(features, dtype=np.float64)
    n = features.shape[0]
    return _term(ot.cosine_cost(features, features), marginal, np.full(n, 1.0 / n), **solve)


def total_loss(classification, transport, separation, intra, plan):
    """Combine the four terms with the plan's coefficients.

    Inactive terms should be passed as 0.0; their coefficients are zero in a
    well-formed plan anyway.
    """
    for name, value in (
        ("classification", classification),
        ("transport", transport),
        ("separation", separation),
        ("intra", intra),
    ):
        if not np.isfinite(value):
            raise ValueError("%s term is not finite" % name)
    return float(
        classification + plan.beta * transport + plan.eta * separation + plan.epsilon * intra
    )


@dataclass
class TransportStep:
    """The transport side of one adaptation step: its inputs and solved terms.

    `features` and `weights` (raw head outputs) are (source, target) pairs; a
    side whose weights the plan never uses holds None. `partial` and `iot` are None, and
    `separation` is 0.0, when the plan turns their term off.
    """

    features: tuple
    weights: tuple
    wot: TransportTerm
    partial: np.ndarray | None
    separation: float
    iot: TransportTerm | None

    @property
    def converged(self):
        return self.wot.converged and (self.iot is None or self.iot.converged)


def transport_step(plan, source_features, target_features, weights, **solve):
    """Solve and score the transport terms the plan asks for on one batch pair.

    `weights` holds each side's raw weight-head outputs, a 1-D float64 array
    (or None), source first; each side the plan weights is normalized once.
    A side whose marginal the plan learns transports that marginal, the other
    side is uniform; the intra-domain term, if any, scores `plan.iot_side`
    from it. `solve` (solver, reg, tol, max_iter) goes to wot_loss and iot_loss.
    """
    features = (source_features, target_features)
    weights = tuple(w if need else None for w, need in zip(weights, plan.weighted))
    normalized = [None if w is None else normalize_weights(w) for w in weights]
    marginals = [
        p if learned else np.full(len(f), 1.0 / len(f))
        for f, p, learned in zip(features, normalized, plan.learned)
    ]
    wot = wot_loss(*features, *marginals, **solve)
    partial, separation, iot = None, 0.0, None
    if plan.use_sa:
        partial = partial_coupling(wot.coupling, wot.cost, wot.value)
        separation = sa_loss(wot.coupling, partial, wot.cost)
    side = plan.iot_side
    if side is not None:
        iot = iot_loss(features[side], normalized[side], **solve)
    return TransportStep(features, weights, wot, partial, separation, iot)


def _conditional_cost_rows(coupling, cost, marginal):
    # Expected pair cost per unit of row mass; zero-mass rows get zero gradient.
    totals = (coupling * cost).sum(axis=1)
    out = np.zeros_like(marginal)
    nz = marginal > 0
    out[nz] = totals[nz] / marginal[nz]
    return out


def _through_normalization(grad, normalized, total):
    # Chain d(loss)/d(normalized) through normalized = raw / total, total = sum(raw).
    return (grad - float(grad @ normalized)) / total


def loss_backward(plan, step):
    """Gradients of beta*transport + eta*separation + epsilon*intra at a TransportStep.

    Returns `(features, raw)`, each a (source, target) pair. `features` covers
    the transport, separation and intra terms (the classification path is
    backpropagated separately by the caller). `raw` holds the gradient wrt
    each side's raw sigmoid weights in `step.weights`, None on a side whose
    weights the plan never uses. Every plan of the step is a frozen constant.
    """
    features = [np.asarray(f, dtype=np.float64) for f in step.features]
    coupling, cost, partial = step.wot.coupling, step.wot.cost, step.partial
    upstream = plan.beta * coupling
    if plan.use_sa:
        delta = 1.0 - np.exp(-(coupling - partial))
        upstream = upstream + plan.eta * (partial - delta)
    grads = list(ot.cosine_cost_grad(*features, upstream))

    # Each side's rows of the cross-domain plan: the plan itself for the
    # source, its transpose for the target.
    rows = ((coupling, cost), (coupling.T, cost.T))
    raw = [None, None]
    for side, learned in enumerate(plan.learned):
        intra = side == plan.iot_side
        if intra:
            left, right = ot.cosine_cost_grad(
                features[side], features[side], plan.epsilon * step.iot.coupling
            )
            grads[side] = grads[side] + left + right
        weights = step.weights[side]
        if weights is None:
            continue
        # The operations of normalize_weights, so the marginal is the same bits.
        total = weights.sum()
        normalized = weights / total
        grad_norm = np.zeros_like(normalized)
        if learned:
            grad_norm += plan.beta * _conditional_cost_rows(*rows[side], normalized)
        if intra:
            grad_norm += plan.epsilon * _conditional_cost_rows(
                step.iot.coupling, step.iot.cost, normalized
            )
        raw[side] = _through_normalization(grad_norm, normalized, total)
    return tuple(grads), tuple(raw)
