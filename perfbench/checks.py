"""Correctness checks on what a benchmark round produced.

Every check compares program output against a property or against a
computation made here with plain NumPy/SciPy, never against a stored copy of
an earlier output. A failed check raises CheckError with a one-line reason.
The checks run after the timed spans of a round have closed.
"""

import json
import math
import os

import numpy as np

HISTORY_FIELDS = ("classification", "transport", "separation", "intra", "total")
PLAN_MARGINAL_TOL = 1e-8
# HiGHS holds equality constraints to its primal feasibility tolerance, 1e-7;
# twice that bounds the exact-solver misses that are counted, not failed.
EXACT_MARGINAL_SLACK = 2e-7
PLAN_NEGATIVE_TOL = 1e-12
EXACT_OPTIMUM_TOL = 1e-9
ENTROPIC_BELOW_OPTIMUM_TOL = 1e-12
RECOMBINATION_RTOL = 1e-12
ACCURACY_TOL = 1e-12


class CheckError(Exception):
    """A round's output broke one of the benchmark's correctness checks."""


def require(condition, message):
    if not condition:
        raise CheckError(message)


# -- training history -------------------------------------------------------


def check_history(rows, epochs, warmup_epochs, steps_per_epoch, coefficients):
    """Row count, finiteness, the loss recombination identity, pure warm-up rows.

    `rows` are dicts with the history CSV's columns; `coefficients` is
    (beta, eta, epsilon) of the setting plan.
    """
    beta, eta, epsilon = coefficients
    expected = epochs * steps_per_epoch
    require(len(rows) == expected, "history has %d rows, expected %d" % (len(rows), expected))
    for row in rows:
        step = row["step"]
        values = [row[name] for name in HISTORY_FIELDS]
        require(all(math.isfinite(v) for v in values), "history step %d has a non-finite value" % step)
        recombined = (
            row["classification"]
            + beta * row["transport"]
            + eta * row["separation"]
            + epsilon * row["intra"]
        )
        require(
            abs(row["total"] - recombined) <= RECOMBINATION_RTOL * abs(row["total"]),
            "history step %d: total %.17g != recombined %.17g" % (step, row["total"], recombined),
        )
        if row["epoch"] < warmup_epochs:
            require(
                _pure_classification(row),
                "history step %d is a warm-up step but not pure classification" % step,
            )


def _pure_classification(row):
    """True when a history row carries only the classification loss."""
    return (
        row["transport"] == 0.0
        and row["separation"] == 0.0
        and row["intra"] == 0.0
        and row["total"] == row["classification"]
    )


def read_history_csv(path):
    """Parse a history CSV into row dicts, independently of the library's reader."""
    with open(path, "r", encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    header = lines[0].split(",")
    rows = []
    for line in lines[1:]:
        fields = dict(zip(header, line.split(",")))
        row = {name: float(fields[name]) for name in HISTORY_FIELDS}
        row["step"] = int(fields["step"])
        row["epoch"] = int(fields["epoch"])
        row["converged"] = fields["converged"] == "1"
        rows.append(row)
    return rows


def read_dataset_file(path):
    """(features, labels) of an iwot dataset file, parsed here rather than by iwot."""
    with open(path, "r", encoding="utf-8") as handle:
        body = handle.read().splitlines()[6:]
    table = np.array([line.split(" ") for line in body], dtype=np.float64)
    return table[:, 1:], table[:, 0].astype(np.int64)


def step_counts(rows, warmup_epochs):
    """(adaptation, supervised, fallback) step counts of one history.

    A post-warm-up row that is pure classification is a step whose transport
    attempt fell back to supervision; warm-up and fallback rows are both
    supervised steps.
    """
    warmup = fallback = 0
    for row in rows:
        if row["epoch"] < warmup_epochs:
            warmup += 1
        elif _pure_classification(row):
            fallback += 1
    adapt = len(rows) - warmup - fallback
    return adapt, warmup + fallback, fallback


# -- model parameters and the benchmark's own forward pass -----------------


def networks_from_checkpoint(path):
    """{name: {"activations": [...], "layers": [(W, b), ...]}} read from checkpoint JSON."""
    with open(path, "r", encoding="utf-8") as handle:
        doc = json.load(handle)
    networks = {}
    for name, entry in doc["networks"].items():
        layers = []
        for layer in entry["layers"]:
            weight = np.asarray(layer["weight"], dtype=np.float64).reshape(layer["rows"], layer["cols"])
            layers.append((weight, np.asarray(layer["bias"], dtype=np.float64)))
        networks[name] = {"activations": list(entry["activations"]), "layers": layers}
    return networks


def check_params_finite(networks):
    for name, net in networks.items():
        for index, (weight, bias) in enumerate(net["layers"]):
            require(
                np.isfinite(weight).all() and np.isfinite(bias).all(),
                "network %r layer %d has non-finite parameters" % (name, index),
            )


def _sigmoid(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


_ACTIVATIONS = {"relu": lambda z: np.maximum(z, 0.0), "sigmoid": _sigmoid, "identity": lambda z: z}


def forward(net, x):
    out = np.asarray(x, dtype=np.float64)
    for (weight, bias), activation in zip(net["layers"], net["activations"]):
        out = _ACTIVATIONS[activation](out @ weight + bias)
    return out


def predict(networks, x, open_set):
    """(labels, instance weights): argmax class, or -1 where an open-set weight is <= 0.5."""
    feats = forward(networks["feature"], x)
    labels = forward(networks["classifier"], feats).argmax(axis=1)
    weights = forward(networks["weight"], feats)[:, 0]
    if open_set:
        labels = np.where(weights > 0.5, labels, -1)
    return labels, weights


# -- accuracy and method properties ----------------------------------------


def recompute_accuracy(predicted, true_labels, n_common):
    """(common_acc, unknown_acc) from predictions, labels outside [0, n_common) being unknown."""
    predicted = np.asarray(predicted)
    true_labels = np.asarray(true_labels)
    per_class = [
        np.mean(predicted[true_labels == c] == c) for c in range(n_common) if (true_labels == c).any()
    ]
    unknown = (true_labels < 0) | (true_labels >= n_common)
    common_acc = float(np.mean(per_class)) if per_class else None
    unknown_acc = float(np.mean(predicted[unknown] == -1)) if unknown.any() else None
    return common_acc, unknown_acc


def check_accuracy(report, predicted, true_labels, n_common):
    """The report's common/unknown accuracy equals the recomputed one."""
    common_acc, unknown_acc = recompute_accuracy(predicted, true_labels, n_common)
    for key, expected in (("common_acc", common_acc), ("unknown_acc", unknown_acc)):
        got = report[key]
        if expected is None or got is None:
            require(
                expected is None and got is None,
                "report %s is %r, expected %r" % (key, got, expected),
            )
        else:
            require(
                abs(got - expected) <= ACCURACY_TOL,
                "report %s is %.17g, recomputed %.17g" % (key, got, expected),
            )
    return common_acc


def group_means(weights, labels, common, private):
    """[mean weight of common-class samples, mean weight of private-class samples]."""
    weights = np.asarray(weights)
    labels = np.asarray(labels)
    return [float(weights[np.isin(labels, group)].mean()) for group in (common, private)]


def check_method_properties(n_common, rounds):
    """The method's expected effect, pooled over a run's rounds.

    Each round gives its common accuracy and, per domain with private
    classes, [common, private] mean instance weights. Pooled over the run,
    common classes must outweigh private ones, and with no private classes
    at all (CSDA) accuracy must be at least twice chance. Pooling matters
    for PDA: a single training can still weight the source-private classes
    about as high as the common ones, or higher.
    """
    for domain in ("source", "target"):
        groups = [r[domain] for r in rounds if domain in r]
        if groups:
            on_common, on_private = (float(np.mean(g)) for g in zip(*groups))
            require(
                on_common > on_private,
                "%s common classes have mean weight %.4f, not above private classes' %.4f"
                % (domain, on_common, on_private),
            )
    if not any("source" in r or "target" in r for r in rounds):
        accuracy = float(np.mean([r["common_acc"] for r in rounds]))
        chance = 1.0 / n_common
        require(
            accuracy >= 2.0 * chance,
            "accuracy %.4f is not well above chance %.4f" % (accuracy, chance),
        )


# -- transport plans --------------------------------------------------------


class MarginalMiss(CheckError):
    """A plan's row or column sums differ from its marginals by more than 1e-8."""

    def __init__(self, message, deviation):
        super().__init__(message)
        self.deviation = deviation


def _is_uniform(p1, p2):
    return (p1 == p1[0]).all() and (p2 == p2[0]).all()


def assignment_optimum(cost):
    """Optimal uniform-marginal transport value of a square cost via linear_sum_assignment."""
    from scipy.optimize import linear_sum_assignment

    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].sum()) / cost.shape[0]


def check_plan(solver, cost, p1, p2, plan):
    """No entry below -1e-12, the optimality bound on uniform squares, marginals within 1e-8.

    An exact plan on a uniform-marginal square cost must cost the assignment
    optimum within 1e-9; an entropic plan may not cost less than it. A
    marginal miss raises MarginalMiss, after every other check has passed.
    """
    cost, p1, p2, plan = (np.asarray(a, dtype=np.float64) for a in (cost, p1, p2, plan))
    require(
        plan.min() >= -PLAN_NEGATIVE_TOL,
        "%s plan has an entry %.3e below zero" % (solver, plan.min()),
    )
    if plan.shape[0] == plan.shape[1] and _is_uniform(p1, p2):
        optimum = assignment_optimum(cost)
        value = float((plan * cost).sum())
        if solver == "exact":
            require(
                abs(value - optimum) <= EXACT_OPTIMUM_TOL,
                "exact plan costs %.17g, assignment optimum is %.17g" % (value, optimum),
            )
        else:
            require(
                value >= optimum - ENTROPIC_BELOW_OPTIMUM_TOL,
                "entropic plan costs %.17g, below the assignment optimum %.17g" % (value, optimum),
            )
    row_dev = np.abs(plan.sum(axis=1) - p1).max()
    col_dev = np.abs(plan.sum(axis=0) - p2).max()
    if row_dev > PLAN_MARGINAL_TOL or col_dev > PLAN_MARGINAL_TOL:
        raise MarginalMiss(
            "%s plan %dx%d misses its marginals by %.3e (rows) / %.3e (cols)"
            % (solver, plan.shape[0], plan.shape[1], row_dev, col_dev),
            max(row_dev, col_dev),
        )


def check_plans(records):
    """Check every recorded (solver, cost, p1, p2, plan); returns (checked, exact misses).

    `solve_exact` promises marginals within 1e-8, but HiGHS holds equality
    constraints only to its own primal feasibility tolerance (1e-7), and
    a few learned-marginal LPs per thousand miss by up to ~1e-7. A miss of an
    exact plan on non-uniform marginals that stays within
    EXACT_MARGINAL_SLACK is counted and reported rather than failed; every
    other miss fails.
    """
    misses = 0
    for solver, cost, p1, p2, plan in records:
        try:
            check_plan(solver, cost, p1, p2, plan)
        except MarginalMiss as miss:
            if (
                solver != "exact"
                or _is_uniform(np.asarray(p1), np.asarray(p2))
                or miss.deviation > EXACT_MARGINAL_SLACK
            ):
                raise
            misses += 1
    return len(records), misses


# -- command-line runs ------------------------------------------------------


def check_manifest_outputs(out_dir, command):
    """Every output that manifest_<command>.json names exists in its directory."""
    path = os.path.join(out_dir, "manifest_%s.json" % command.replace("-", ""))
    require(os.path.exists(path), "%s wrote no manifest" % command)
    with open(path, "r", encoding="utf-8") as handle:
        outputs = json.load(handle)["outputs"]
    missing = [name for name in outputs if not os.path.exists(os.path.join(out_dir, name))]
    require(not missing, "%s manifest names missing outputs %s" % (command, missing))
