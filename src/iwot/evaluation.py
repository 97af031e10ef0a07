"""Inference with unknown-class rejection, and the evaluation metrics.

A trained model classifies a sample by thresholding its instance weight:
weight above 0.5 means the sample looks like it belongs to the source label
set, so the classifier's argmax is returned; otherwise the sample is rejected
as unknown (label -1). Settings whose target holds no extra classes (PDA,
CSDA) bypass the threshold and always classify.

Metrics are per-class: each common class contributes its own accuracy, their
mean is the common accuracy, and rejected-vs-not accuracy over true unknowns
is the unknown accuracy. The harmonic mean of those two is the open-set
summary score; the per-class mean with the unknown bucket counted as one
extra class is also reported, with and without that bucket.

The domain-gap diagnostic solves exact transport between feature clouds with
uniform marginals, then again with learned-weight marginals on the sides the
setting learns, so the effect of instance weighting is directly visible. A
setting that learns neither side (CSDA) reuses the uniform value as the
learned one. With equally many points on both sides the uniform solve is an
assignment, and its marginals hold exactly. The uniform solve runs in a worker
thread beside the learned one (both solvers release the GIL); its error wins.
"""

import json
import logging
import threading
from dataclasses import asdict, dataclass

import numpy as np

from . import ot
from .errors import NumericalError
from .fileio import atomic_write_text, format_float
from .losses import normalize_weights

log = logging.getLogger(__name__)

UNKNOWN = -1
WEIGHT_THRESHOLD = 0.5


def predict_batch(model, features, open_set):
    """Labels, weights and logits for a feature matrix in one pass."""
    if not model.has_finite_params():
        raise NumericalError("model parameters are not finite")
    feats = model.features(features)
    logits = model.class_logits(feats)
    weights = model.instance_weights(feats)
    labels = logits.argmax(axis=1)
    if open_set:
        labels = np.where(weights > WEIGHT_THRESHOLD, labels, UNKNOWN)
    return labels.astype(np.int64), weights, logits


def h_score(common_acc, unknown_acc):
    """Harmonic mean of common-class and unknown-class accuracy.

    Zero if either side is zero; both inputs must lie in [0, 1].
    """
    for name, value in (("common_acc", common_acc), ("unknown_acc", unknown_acc)):
        if not 0.0 <= value <= 1.0:
            raise ValueError("%s must lie in [0, 1], got %r" % (name, value))
    if common_acc + unknown_acc == 0.0:
        return 0.0
    return 2.0 * common_acc * unknown_acc / (common_acc + unknown_acc)


@dataclass
class EvalReport:
    """Aggregate metrics of one evaluation pass."""

    n_common: int
    n_evaluated: int
    per_class_acc: dict
    common_acc: float | None
    unknown_acc: float | None
    h_score: float | None
    os_mean: float | None
    os_star: float | None
    wasserstein_uniform: float | None = None
    wasserstein_learned: float | None = None

    def to_dict(self):
        doc = asdict(self)
        doc["per_class_acc"] = {str(k): v for k, v in sorted(self.per_class_acc.items())}
        return doc

    def save_json(self, path):
        atomic_write_text(path, json.dumps(self.to_dict(), indent=1) + "\n")

    def save_csv(self, path):
        rows = ["metric,value"]
        for key, value in self.to_dict().items():
            if isinstance(value, dict):
                for label, acc in value.items():
                    rows.append("class_%s_acc,%s" % (label, format_float(acc)))
            elif isinstance(value, float):
                rows.append("%s,%s" % (key, format_float(value)))
            else:
                rows.append("%s,%s" % (key, "" if value is None else value))
        atomic_write_text(path, "\n".join(rows) + "\n")


def score_predictions(predicted, true_labels, n_common):
    """Per-class metrics from already-computed predictions.

    True labels outside [0, n_common) (including the -1 marker) count as the
    unknown class; a prediction is correct on them exactly when it is -1.
    Common classes with no samples are left out of the averages with a log
    note.
    """
    predicted = np.asarray(predicted, dtype=np.int64)
    true_labels = np.asarray(true_labels, dtype=np.int64)
    if predicted.shape != true_labels.shape or predicted.ndim != 1:
        raise ValueError("predicted and true labels must be aligned 1-D arrays")
    if n_common < 1:
        raise ValueError("n_common must be at least 1")
    merged = np.where((true_labels >= 0) & (true_labels < n_common), true_labels, UNKNOWN)

    per_class = {}
    for c in range(n_common):
        mask = merged == c
        if not mask.any():
            log.info("class %d has no evaluation samples; excluded from averages", c)
            continue
        per_class[c] = float((predicted[mask] == c).mean())

    unknown_mask = merged == UNKNOWN
    unknown_acc = float((predicted[unknown_mask] == UNKNOWN).mean()) if unknown_mask.any() else None

    common_acc = sum(per_class.values()) / len(per_class) if per_class else None
    if common_acc is not None and unknown_acc is not None:
        score = h_score(common_acc, unknown_acc)
        os_mean = (sum(per_class.values()) + unknown_acc) / (len(per_class) + 1)
    else:
        score = None
        os_mean = common_acc
    return EvalReport(
        n_common=n_common,
        n_evaluated=int(predicted.size),
        per_class_acc=per_class,
        common_acc=common_acc,
        unknown_acc=unknown_acc,
        h_score=score,
        os_mean=os_mean,
        os_star=common_acc,
    )


def wasserstein_gap(features_a, features_b, raw_weights_a=None, raw_weights_b=None):
    """Exact transport values between two feature clouds, uniform vs learned.

    Returns (uniform_value, learned_value): the first with uniform marginals
    on both sides, the second with each side's raw weights normalized into its
    marginal (sides passed as None stay uniform). With both sides None the
    two values are one solve. Otherwise a worker thread, joined on every path,
    solves the uniform problem, and its error wins over this thread's.
    """
    a = np.asarray(features_a, dtype=np.float64)
    b = np.asarray(features_b, dtype=np.float64)
    cost = ot.cosine_cost(a, b)
    uniform_a = np.full(a.shape[0], 1.0 / a.shape[0])
    uniform_b = np.full(b.shape[0], 1.0 / b.shape[0])

    def value(marginal_a, marginal_b):
        return ot.coupling_cost(ot.solve_exact(cost, marginal_a, marginal_b), cost)
    if raw_weights_a is None and raw_weights_b is None:
        return (value(uniform_a, uniform_b),) * 2
    uniform = []

    def solve_uniform():
        try:
            uniform.append(value(uniform_a, uniform_b))
        except BaseException as exc:
            uniform.append(exc)
    worker = threading.Thread(target=solve_uniform)
    worker.start()
    try:
        marginal_a = normalize_weights(raw_weights_a) if raw_weights_a is not None else uniform_a
        marginal_b = normalize_weights(raw_weights_b) if raw_weights_b is not None else uniform_b
        learned_value = value(marginal_a, marginal_b)
    finally:
        worker.join()
        if isinstance(uniform[0], BaseException):
            raise uniform[0]
    return uniform[0], learned_value


def evaluate(model, target, plan, source=None):
    """Score a model on a labeled target set; optionally add the domain-gap diagnostic.

    The diagnostic needs the source dataset. It subsamples each domain to at
    most 256 points, drawn without replacement by one generator seeded with 0
    (source first), so the subsample is fixed; runs them through the feature
    net; and solves exact transport with uniform and with learned marginals
    per the plan.
    """
    if target.labels is None:
        raise ValueError("evaluation needs target labels")
    predicted, _, _ = predict_batch(model, target.features, plan.rejects_unknowns)
    report = score_predictions(predicted, target.labels, target.split.n_common)

    if source is not None:
        rng = np.random.default_rng(0)
        feats, weights = [], []
        for dataset, learned in zip((source, target), plan.learned):
            idx = rng.choice(dataset.n, size=min(256, dataset.n), replace=False)
            feats.append(model.features(dataset.features[idx]))
            weights.append(model.instance_weights(feats[-1]) if learned else None)
        report.wasserstein_uniform, report.wasserstein_learned = wasserstein_gap(*feats, *weights)
    return report
