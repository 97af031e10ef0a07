"""Mini-batch training: alternate transport solves with SGD on the networks.

Each step samples a source batch and, after the warm-up, a target batch. One
step function trains the classification loss alone without a target batch;
with one, it first runs the transport side (`losses.transport_step`) and
then backpropagates the frozen-plan gradients into all networks. Target
labels are stripped before the loop starts, so nothing can touch them.

Per-step loss terms land in a TrainHistory, saved as a CSV with the header
`step,epoch,classification,transport,separation,intra,total,converged` and
round-trip-exact floats (%.17g). A step whose batch is numerically degenerate
(for example a zero-norm feature row) falls back to a classification-only step
and is recorded as one; the run ends with one warning that counts these
steps. A step whose activations, loss or updated parameters are not finite
(the run diverged, say from too large a learning rate) raises NumericalError
naming the step; so do solver hard failures.
"""

import functools
import logging
import math
from dataclasses import dataclass, field, fields

import numpy as np

from . import losses
from .data import DomainDataset, check_array_size
from .errors import ConfigError, DegenerateInputError, NumericalError
from .fileio import atomic_write_text, format_float
from .nets import Mlp, SgdMomentum, cross_entropy
from .settings import SIDES

log = logging.getLogger(__name__)

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
        if self.weight_lr_scale <= 0 or self.learning_rate * self.weight_lr_scale <= 0:
            raise ConfigError("weight_lr_scale and learning_rate * weight_lr_scale must be > 0")
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
        if self.seed < 0:
            raise ConfigError("seed must be nonnegative, got %d" % self.seed)


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


# The CSV columns are StepRecord's fields in order, each written by its type.
HISTORY_HEADER = ",".join(item.name for item in fields(StepRecord))
_FORMAT = {
    int: lambda value: "%d" % value,
    float: format_float,
    bool: lambda value: "1" if value else "0",
}


@dataclass
class TrainHistory:
    records: list = field(default_factory=list)

    def append(self, record):
        self.records.append(record)

    def __len__(self):
        return len(self.records)

    def save_csv(self, path):
        columns = fields(StepRecord)
        lines = [HISTORY_HEADER]
        for record in self.records:
            cells = (_FORMAT[item.type](getattr(record, item.name)) for item in columns)
            lines.append(",".join(cells))
        atomic_write_text(path, "\n".join(lines) + "\n")


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
    widths = [input_dim, config.hidden_dim, config.hidden_dim, config.feature_dim]
    for fan_in, fan_out in zip(widths, widths[1:] + [n_classes]):
        check_array_size("a weight matrix", fan_in, fan_out)
    feature = Mlp.init(widths, ["relu", "relu", "identity"], rng)
    classifier = Mlp.init([config.feature_dim, n_classes], ["identity"], rng)
    weight = Mlp.init([config.feature_dim, 1], ["sigmoid"], rng)
    return TrainedModel(feature, classifier, weight)


# A diverging run overflows. The step functions run with NumPy's overflow
# warnings off because _check_finite reports the first non-finite value as a
# NumericalError naming the step; the warnings would only repeat it.
_QUIET_OVERFLOW = np.errstate(over="ignore", invalid="ignore")


def _check_finite(step, name, value):
    if not np.isfinite(value).all():
        raise NumericalError("training diverged at step %d: %s is not finite" % (step, name))


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
    # Feature extractor, classifier, weight head; the head's rate is scaled.
    optimizers = tuple(
        SgdMomentum(net, config.learning_rate * scale, config.momentum, config.weight_decay)
        for net, scale in (
            (model.feature_net, 1.0),
            (model.classifier_net, 1.0),
            (model.weight_net, config.weight_lr_scale),
        )
    )

    source_sampler = EpochSampler(source.n, rng)
    target_sampler = EpochSampler(target.n, rng)
    steps_per_epoch = math.ceil(source.n / config.batch_size)
    # With every term weight at zero no loss gradient leaves the classifier
    # path, so the cross-domain solve would be dead work; skip it entirely.
    transport_active = (
        plan.beta > 0
        or (plan.use_sa and plan.eta > 0)
        or (plan.iot_side is not None and plan.epsilon > 0)
    )

    history = TrainHistory()
    step = fallbacks = 0
    for epoch in range(config.epochs):
        in_warmup = epoch < config.warmup_epochs
        for _ in range(steps_per_epoch):
            idx_s = source_sampler.take(config.batch_size)
            batch = source.features[idx_s], source.labels[idx_s]
            target_x = None
            if transport_active and not in_warmup:
                target_x = target.features[target_sampler.take(config.batch_size)]
            try:
                record = _step(model, plan, config, optimizers, batch, target_x, step, epoch)
            except DegenerateInputError as exc:
                # A degenerate batch (collapsed features, all-zero weights)
                # cannot support a transport solve, but supervision must not
                # stop: the classification gradient is what pulls the
                # features back apart. Raised before any optimizer update,
                # so degrading to a classification-only step is safe.
                log.info("transport degenerate at step %d, supervised fallback: %s", step, exc)
                fallbacks += 1
                record = _step(model, plan, config, optimizers, batch, None, step, epoch)
            _check_finite(step, "the total loss", record.total)
            if not model.has_finite_params():
                raise NumericalError(
                    "training diverged at step %d: network parameters are not finite" % step
                )
            history.append(record)
            step += 1
        epoch_records = history.records[-steps_per_epoch:]
        log.info(
            "epoch %d: mean total %.6f over %d steps",
            epoch,
            sum(r.total for r in epoch_records) / len(epoch_records),
            len(epoch_records),
        )
    if fallbacks:
        log.warning(
            "%d of %d steps fell back to supervision on a degenerate batch", fallbacks, step
        )
    return model, history


@_QUIET_OVERFLOW
def _step(model, plan, config, optimizers, batch, target_x, step, epoch):
    """One SGD step on a labeled source batch, adapting to `target_x` unless it is None.

    With `target_x` None only the classification loss is trained. Otherwise
    the transport side runs first: everything that can raise
    DegenerateInputError (weight normalization, the solves) comes before the
    first optimizer update.
    """
    batch_x, batch_y = batch
    batches = (batch_x,) if target_x is None else (batch_x, target_x)
    feats, traces = zip(*(model.feature_net.forward(x) for x in batches))
    logits, trace_c = model.classifier_net.forward(feats[0])
    l_c, dlogits = cross_entropy(logits, batch_y)
    grads_c, dfeats_cls = model.classifier_net.backward(trace_c, dlogits)
    upstream = [dfeats_cls]
    weight_grads = []
    terms, total, converged = (0.0, 0.0, 0.0), l_c, True
    if target_x is not None:
        # Checked before any term that rejects non-finite input: the loss
        # covers the source features and the logits.
        _check_finite(step, "the classification loss", l_c)
        _check_finite(step, "the target features", feats[1])
        weights, weight_traces = [None, None], [None, None]
        for side, name in enumerate(SIDES):
            if plan.weighted[side]:
                raw, weight_traces[side] = model.weight_net.forward(feats[side])
                _check_finite(step, "a %s instance weight" % name, raw)
                weights[side] = raw[:, 0]
        transport = losses.transport_step(
            plan, *feats, weights, solver=config.solver, reg=config.sinkhorn_reg,
            tol=config.sinkhorn_tol, max_iter=config.sinkhorn_max_iter,
        )
        intra = 0.0 if transport.iot is None else transport.iot.value
        terms = (transport.wot.value, transport.separation, intra)
        total = losses.total_loss(l_c, *terms, plan)
        converged = transport.converged
        (dfeats_s, dfeats_t), raw_grads = losses.loss_backward(plan, transport)
        upstream = [dfeats_cls + dfeats_s, dfeats_t]
        for side, raw_grad in enumerate(raw_grads):
            if raw_grad is not None:
                wg, dfeats_w = model.weight_net.backward(weight_traces[side], raw_grad[:, None])
                weight_grads.append(wg)
                upstream[side] = upstream[side] + dfeats_w

    feature_grads = [model.feature_net.backward(t, u)[0] for t, u in zip(traces, upstream)]
    feature_opt, classifier_opt, weight_opt = optimizers
    classifier_opt.step(grads_c)
    feature_opt.step(functools.reduce(np.add, feature_grads))
    if weight_grads:
        weight_opt.step(functools.reduce(np.add, weight_grads))
    return StepRecord(step, epoch, l_c, *terms, total, converged)
