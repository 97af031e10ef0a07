"""Mini-batch training: alternate transport solves with SGD on the networks.

Each optimization step samples one batch per domain, solves the transport
plans the setting asks for on the current features, and then updates all
networks by backpropagating the frozen-plan gradients. Target labels are
stripped before the loop starts, so nothing downstream can touch them.

Per-step loss terms land in a TrainHistory whose CSV round-trips exactly
(header `step,epoch,classification,transport,separation,intra,total,converged`,
floats written as %.17g). A step whose batch is numerically degenerate (for
example a zero-norm feature row) falls back to a supervised step, with a
warning, and is recorded as one. A step whose activations, loss or updated
parameters are not finite (the run diverged, say from too large a learning
rate) raises NumericalError naming the step; so do solver hard failures.
"""

import logging
import math
from dataclasses import dataclass, field, fields

import numpy as np

from . import losses
from .data import DomainDataset
from .errors import ConfigError, DataFormatError, DegenerateInputError, NumericalError
from .fileio import atomic_write_text, format_float
from .nets import Mlp, SgdMomentum, cross_entropy
from .settings import LEARNED

log = logging.getLogger(__name__)

HISTORY_HEADER = "step,epoch,classification,transport,separation,intra,total,converged"


@dataclass
class TrainConfig:
    """Knobs for one training run; defaults are the desk-scale baseline."""

    epochs: int = 30
    warmup_epochs: int = 10
    batch_size: int = 64
    learning_rate: float = 1e-3
    momentum: float = 0.9
    weight_decay: float = 5e-3
    weight_lr_scale: float = 32.0
    solver: str = "sinkhorn"
    sinkhorn_reg: float = 0.05
    sinkhorn_tol: float = 1e-6
    sinkhorn_max_iter: int = 1000
    hidden_dim: int = 64
    feature_dim: int = 16
    seed: int = 0

    def __post_init__(self):
        for item in fields(self):
            if item.type is float and not math.isfinite(getattr(self, item.name)):
                raise ConfigError("%s must be finite" % item.name)
        if self.epochs < 1:
            raise ConfigError("epochs must be at least 1")
        if self.warmup_epochs < 0:
            raise ConfigError("warmup_epochs must be nonnegative")
        if self.warmup_epochs > self.epochs:
            raise ConfigError("warmup_epochs cannot exceed epochs")
        if self.batch_size < 2:
            raise ConfigError("batch_size must be at least 2")
        if self.learning_rate <= 0:
            raise ConfigError("learning_rate must be positive")
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigError("momentum must be in [0, 1)")
        if self.weight_decay < 0:
            raise ConfigError("weight_decay must be nonnegative")
        if self.weight_lr_scale <= 0:
            raise ConfigError("weight_lr_scale must be positive")
        if self.solver not in ("exact", "sinkhorn"):
            raise ConfigError("solver must be 'exact' or 'sinkhorn'")
        if self.sinkhorn_reg <= 0:
            raise ConfigError("sinkhorn_reg must be positive")
        if self.sinkhorn_tol < 0:
            raise ConfigError("sinkhorn_tol must be nonnegative")
        if self.sinkhorn_max_iter < 1:
            raise ConfigError("sinkhorn_max_iter must be at least 1")
        if self.hidden_dim < 1 or self.feature_dim < 1:
            raise ConfigError("network widths must be positive")


@dataclass
class StepRecord:
    """Loss terms of one completed optimization step."""

    step: int
    epoch: int
    classification: float
    transport: float
    separation: float
    intra: float
    total: float
    converged: bool


@dataclass
class TrainHistory:
    records: list = field(default_factory=list)

    def append(self, record):
        self.records.append(record)

    def __len__(self):
        return len(self.records)

    def save_csv(self, path):
        lines = [HISTORY_HEADER]
        for r in self.records:
            lines.append(
                "%d,%d,%s,%s,%s,%s,%s,%d"
                % (
                    r.step,
                    r.epoch,
                    format_float(r.classification),
                    format_float(r.transport),
                    format_float(r.separation),
                    format_float(r.intra),
                    format_float(r.total),
                    1 if r.converged else 0,
                )
            )
        atomic_write_text(path, "\n".join(lines) + "\n")


def load_history_csv(path):
    """Parse a history CSV written by TrainHistory.save_csv."""
    with open(path, "r", encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    if not lines or lines[0] != HISTORY_HEADER:
        raise DataFormatError("history CSV has an unexpected header")
    history = TrainHistory()
    for i, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != 8:
            raise DataFormatError("history line %d: expected 8 fields" % i)
        try:
            history.append(
                StepRecord(
                    step=int(parts[0]),
                    epoch=int(parts[1]),
                    classification=float(parts[2]),
                    transport=float(parts[3]),
                    separation=float(parts[4]),
                    intra=float(parts[5]),
                    total=float(parts[6]),
                    converged=bool(int(parts[7])),
                )
            )
        except ValueError as exc:
            raise DataFormatError("history line %d: %s" % (i, exc)) from exc
    return history


class EpochSampler:
    """Without-replacement mini-batch indices under a per-epoch shuffle.

    Each epoch is a fresh permutation of all indices, handed out in
    consecutive chunks; the final chunk of an epoch may be short.
    """

    def __init__(self, n, rng):
        if n < 1:
            raise ConfigError("cannot sample from an empty dataset")
        self.n = n
        self.rng = rng
        self._order = rng.permutation(n)
        self._cursor = 0

    def take(self, batch_size):
        if batch_size < 1:
            raise ConfigError("batch_size must be at least 1")
        if self._cursor >= self.n:
            self._order = self.rng.permutation(self.n)
            self._cursor = 0
        chunk = self._order[self._cursor : self._cursor + batch_size]
        self._cursor += len(chunk)
        return chunk


@dataclass
class TrainedModel:
    """The three trained networks, bundled for inference and checkpointing."""

    feature_net: Mlp
    classifier_net: Mlp
    weight_net: Mlp

    @property
    def n_classes(self):
        return self.classifier_net.output_dim

    def features(self, x):
        return self.feature_net.forward(np.asarray(x, dtype=np.float64))[0]

    def class_logits(self, feats):
        return self.classifier_net.forward(feats)[0]

    def instance_weights(self, feats):
        return self.weight_net.forward(feats)[0][:, 0]

    def has_finite_params(self):
        return (
            self.feature_net.has_finite_params()
            and self.classifier_net.has_finite_params()
            and self.weight_net.has_finite_params()
        )


def build_model(input_dim, n_classes, config, rng):
    """Fresh networks: ReLU feature extractor, linear classifier, sigmoid weight head."""
    feature = Mlp.init(
        [input_dim, config.hidden_dim, config.hidden_dim, config.feature_dim],
        ["relu", "relu", "identity"],
        rng,
    )
    classifier = Mlp.init([config.feature_dim, n_classes], ["identity"], rng)
    weight = Mlp.init([config.feature_dim, 1], ["sigmoid"], rng)
    return TrainedModel(feature, classifier, weight)


def _add_grads(a, b):
    return [(dw1 + dw2, db1 + db2) for (dw1, db1), (dw2, db2) in zip(a, b)]


# A diverging run overflows. The step functions run with NumPy's overflow
# warnings off because _check_finite reports the first non-finite value as a
# NumericalError naming the step; the warnings would only repeat it.
_QUIET_OVERFLOW = np.errstate(over="ignore", invalid="ignore")


def _check_finite(step, name, value):
    if not np.isfinite(value).all():
        raise NumericalError("training diverged at step %d: %s is not finite" % (step, name))


def _solver_kwargs(config):
    return dict(
        solver=config.solver,
        reg=config.sinkhorn_reg,
        tol=config.sinkhorn_tol,
        max_iter=config.sinkhorn_max_iter,
    )


def train(source, target, plan, config=None):
    """Train the adaptation model; returns (TrainedModel, TrainHistory).

    `source` must carry labels; any labels on `target` are discarded before
    the first step. The plan decides which marginals come from the weight
    head and which extra loss terms run. The first `warmup_epochs` epochs are
    plain supervised source training, so transport plans are solved on
    features that already separate source classes; without the warm-up an
    early wrong-class matching can lock in and undo the adaptation.
    """
    if config is None:
        config = TrainConfig()
    if not isinstance(source, DomainDataset) or not isinstance(target, DomainDataset):
        raise TypeError("source and target must be DomainDataset instances")
    if source.labels is None:
        raise ValueError("source dataset must carry labels")
    if source.dim != target.dim:
        raise ConfigError("source and target dimensionalities differ")
    if config.batch_size > min(source.n, target.n):
        raise ConfigError(
            "batch_size %d exceeds the smaller dataset (%d samples)"
            % (config.batch_size, min(source.n, target.n))
        )
    target = target.without_labels()

    n_classes = source.split.n_source_classes
    if source.labels.min() < 0 or source.labels.max() >= n_classes:
        raise ValueError("source labels fall outside the source label set")

    rng = np.random.default_rng(np.random.SeedSequence(config.seed))
    model = build_model(source.dim, n_classes, config, rng)
    feature_opt = SgdMomentum(
        model.feature_net, config.learning_rate, config.momentum, config.weight_decay
    )
    classifier_opt = SgdMomentum(
        model.classifier_net, config.learning_rate, config.momentum, config.weight_decay
    )
    weight_opt = SgdMomentum(
        model.weight_net,
        config.learning_rate * config.weight_lr_scale,
        config.momentum,
        config.weight_decay,
    )

    source_sampler = EpochSampler(source.n, rng)
    target_sampler = EpochSampler(target.n, rng)
    steps_per_epoch = math.ceil(source.n / config.batch_size)
    # With every term weight at zero no loss gradient leaves the classifier
    # path, so the cross-domain solve would be dead work; skip it entirely.
    transport_active = (
        plan.beta > 0
        or (plan.use_sa and plan.eta > 0)
        or (plan.use_iot and plan.epsilon > 0)
    )
    needs_weights = transport_active and (
        plan.needs_source_weights or plan.needs_target_weights
    )
    solver_kwargs = _solver_kwargs(config)

    history = TrainHistory()
    step = 0
    for epoch in range(config.epochs):
        in_warmup = epoch < config.warmup_epochs
        for _ in range(steps_per_epoch):
            idx_s = source_sampler.take(config.batch_size)
            batch_x = source.features[idx_s]
            batch_y = source.labels[idx_s]
            try:
                if (transport_active or needs_weights) and not in_warmup:
                    idx_t = target_sampler.take(config.batch_size)
                    record = _adaptation_step(
                        model, plan, config, solver_kwargs,
                        batch_x, batch_y, target.features[idx_t],
                        feature_opt, classifier_opt, weight_opt,
                        step, epoch,
                    )
                else:
                    record = _supervised_step(
                        model, batch_x, batch_y, feature_opt, classifier_opt, step, epoch
                    )
            except DegenerateInputError as exc:
                # A degenerate batch (collapsed features, all-zero weights)
                # cannot support a transport solve, but supervision must not
                # stop: the classification gradient is what pulls the
                # features back apart. Raised before any optimizer update,
                # so degrading to a supervised step is safe.
                log.warning("transport degenerate at step %d, supervised fallback: %s", step, exc)
                record = _supervised_step(
                    model, batch_x, batch_y, feature_opt, classifier_opt, step, epoch
                )
            _check_finite(step, "the total loss", record.total)
            if not model.has_finite_params():
                raise NumericalError(
                    "training diverged at step %d: network parameters are not finite" % step
                )
            history.append(record)
            step += 1
        epoch_records = history.records[-steps_per_epoch:]
        if epoch_records:
            log.info(
                "epoch %d: mean total %.6f over %d steps",
                epoch,
                sum(r.total for r in epoch_records) / len(epoch_records),
                len(epoch_records),
            )
    return model, history


@_QUIET_OVERFLOW
def _supervised_step(model, batch_x, batch_y, feature_opt, classifier_opt, step, epoch):
    feats, trace_f = model.feature_net.forward(batch_x)
    logits, trace_c = model.classifier_net.forward(feats)
    l_c, dlogits = cross_entropy(logits, batch_y)
    grads_c, dfeats = model.classifier_net.backward(trace_c, dlogits)
    grads_f, _ = model.feature_net.backward(trace_f, dfeats)
    classifier_opt.step(grads_c)
    feature_opt.step(grads_f)
    return StepRecord(step, epoch, l_c, 0.0, 0.0, 0.0, l_c, True)


@_QUIET_OVERFLOW
def _adaptation_step(
    model, plan, config, solver_kwargs,
    batch_x, batch_y, target_x,
    feature_opt, classifier_opt, weight_opt,
    step, epoch,
):
    feats_s, trace_s = model.feature_net.forward(batch_x)
    feats_t, trace_t = model.feature_net.forward(target_x)
    logits, trace_c = model.classifier_net.forward(feats_s)
    l_c, dlogits = cross_entropy(logits, batch_y)
    # Checked before any term that rejects non-finite input: the loss covers
    # the source features and the logits.
    _check_finite(step, "the classification loss", l_c)
    _check_finite(step, "the target features", feats_t)

    weights_s = weights_t = None
    trace_ws = trace_wt = None
    if plan.needs_source_weights:
        raw_s, trace_ws = model.weight_net.forward(feats_s)
        _check_finite(step, "a source instance weight", raw_s)
        weights_s = losses.normalize_weights(raw_s[:, 0])
    if plan.needs_target_weights:
        raw_t, trace_wt = model.weight_net.forward(feats_t)
        _check_finite(step, "a target instance weight", raw_t)
        weights_t = losses.normalize_weights(raw_t[:, 0])

    marginal_s = (
        weights_s.normalized
        if plan.source_marginal == LEARNED
        else np.full(len(batch_x), 1.0 / len(batch_x))
    )
    marginal_t = (
        weights_t.normalized
        if plan.target_marginal == LEARNED
        else np.full(len(target_x), 1.0 / len(target_x))
    )

    wot = losses.wot_loss(feats_s, feats_t, marginal_s, marginal_t, **solver_kwargs)
    converged = wot.converged

    partial = None
    l_sa = 0.0
    if plan.use_sa:
        partial = losses.partial_coupling(wot.coupling, wot.cost, wot.value)
        l_sa = losses.sa_loss(wot.coupling, partial, wot.cost)

    iot = None
    l_iot = 0.0
    if plan.use_iot:
        iot_feats = feats_s if plan.iot_domain == "source" else feats_t
        iot_weights = weights_s if plan.iot_domain == "source" else weights_t
        iot = losses.iot_loss(iot_feats, iot_weights.normalized, **solver_kwargs)
        l_iot = iot.value
        converged = converged and iot.converged

    total = losses.total_loss(l_c, wot.value, l_sa, l_iot, plan)

    grads = losses.loss_backward(
        plan,
        feats_s,
        feats_t,
        wot.coupling,
        wot.cost,
        partial=partial,
        source_weights=weights_s,
        target_weights=weights_t,
        iot_coupling=None if iot is None else iot.coupling,
        iot_cost=None if iot is None else iot.cost,
    )

    grads_c, dfeats_cls = model.classifier_net.backward(trace_c, dlogits)
    upstream_s = dfeats_cls + grads.source_features
    upstream_t = grads.target_features

    weight_grads = None
    if grads.source_raw is not None:
        weight_grads, dfeats_w = model.weight_net.backward(trace_ws, grads.source_raw[:, None])
        upstream_s = upstream_s + dfeats_w
    if grads.target_raw is not None:
        wg_t, dfeats_w = model.weight_net.backward(trace_wt, grads.target_raw[:, None])
        weight_grads = wg_t if weight_grads is None else _add_grads(weight_grads, wg_t)
        upstream_t = upstream_t + dfeats_w

    grads_f_s, _ = model.feature_net.backward(trace_s, upstream_s)
    grads_f_t, _ = model.feature_net.backward(trace_t, upstream_t)

    classifier_opt.step(grads_c)
    feature_opt.step(_add_grads(grads_f_s, grads_f_t))
    if weight_grads is not None:
        weight_opt.step(weight_grads)

    return StepRecord(step, epoch, l_c, wot.value, l_sa, l_iot, total, converged)
