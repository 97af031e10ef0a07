"""Training loop: sampling, determinism, the unsupervised contract, history."""

import copy
import dataclasses
import logging
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from iwot import losses, nets, ot
from iwot.data import LabelSplit, ShiftSpec, generate_pair
from iwot.errors import ConfigError, NumericalError
from iwot.nets import SgdMomentum, cross_entropy
from iwot.settings import plan_for_setting
from iwot.training import (
    EpochSampler,
    StepRecord,
    TrainConfig,
    _step,
    build_model,
    train,
)
from test_losses import frozen_objective, frozen_rows_objective

HEADER = "step,epoch,classification,transport,separation,intra,total,converged"


def small_pair(seed=0, split=None, n=96, dim=8):
    split = split or LabelSplit(3, 1, 0)
    shift = ShiftSpec(rotation=0.5, translation=(0.8,), noise_std=0.2)
    return generate_pair(split, n, n, dim, seed=seed, shift=shift)


def quick_config(**overrides):
    base = dict(
        epochs=2,
        warmup_epochs=1,
        batch_size=32,
        learning_rate=1e-3,
        seed=0,
        solver="sinkhorn",
    )
    base.update(overrides)
    return TrainConfig(**base)


class TestEpochSampler:
    def test_full_batch_is_permutation(self):
        sampler = EpochSampler(10, np.random.default_rng(0))
        batch = sampler.take(10)
        assert sorted(batch.tolist()) == list(range(10))

    def test_epoch_covers_every_index_once(self):
        sampler = EpochSampler(17, np.random.default_rng(1))
        seen = []
        while len(seen) < 17:
            seen.extend(sampler.take(5).tolist())
        assert sorted(seen) == list(range(17))

    def test_batches_distinct_within_epoch(self):
        sampler = EpochSampler(50, np.random.default_rng(2))
        a = sampler.take(20)
        b = sampler.take(20)
        assert len(set(a.tolist()) & set(b.tolist())) == 0

    def test_indices_in_range_across_epochs(self):
        sampler = EpochSampler(7, np.random.default_rng(3))
        for _ in range(10):
            batch = sampler.take(3)
            assert batch.min() >= 0 and batch.max() < 7

    def test_empty_dataset_rejected(self):
        with pytest.raises(ConfigError):
            EpochSampler(0, np.random.default_rng(0))

    def test_bad_batch_size_rejected(self):
        sampler = EpochSampler(5, np.random.default_rng(0))
        with pytest.raises(ConfigError):
            sampler.take(0)


class TestTrainConfig:
    def test_batch_size_floor(self):
        with pytest.raises(ConfigError):
            TrainConfig(batch_size=1)

    def test_epoch_floor(self):
        with pytest.raises(ConfigError):
            TrainConfig(epochs=0)

    def test_warmup_cannot_exceed_epochs(self):
        with pytest.raises(ConfigError):
            TrainConfig(epochs=3, warmup_epochs=4)

    def test_weight_head_rate_must_not_underflow(self):
        # 1e-320 * 1e-10 is 0.0; the optimizer would reject it as exit 1.
        with pytest.raises(ConfigError, match="weight_lr_scale"):
            TrainConfig(learning_rate=1e-320, weight_lr_scale=1e-10)

    def test_unknown_solver_rejected(self):
        with pytest.raises(ConfigError):
            TrainConfig(solver="bfgs")

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError, match="seed"):
            TrainConfig(seed=-1)
        assert TrainConfig(seed=0).seed == 0

    @pytest.mark.parametrize("name", [
        "learning_rate", "momentum", "weight_decay", "weight_lr_scale", "sinkhorn_reg",
        "sinkhorn_tol",
    ])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_float_rejected(self, name, value):
        with pytest.raises(ConfigError, match=name):
            TrainConfig(**{name: value})


class TestTrainContract:
    def test_batch_size_larger_than_dataset_rejected(self):
        source, target = small_pair(n=40)
        with pytest.raises(ConfigError):
            train(source, target, plan_for_setting("pda"), quick_config(batch_size=64))

    def test_source_without_labels_rejected(self):
        source, target = small_pair()
        with pytest.raises(ValueError):
            train(source.without_labels(), target, plan_for_setting("pda"), quick_config())

    def test_dimension_mismatch_rejected(self):
        source, _ = small_pair(dim=8)
        _, target = small_pair(dim=9, split=LabelSplit(3, 1, 0))
        with pytest.raises(ConfigError):
            train(source, target, plan_for_setting("pda"), quick_config())

    @pytest.mark.parametrize("width", ["hidden_dim", "feature_dim"])
    def test_unindexable_width_fails_before_allocating(self, monkeypatch, width):
        def glorot_uniform(fan_in, fan_out, rng):
            pytest.fail("allocating a %d x %d weight matrix" % (fan_in, fan_out))

        monkeypatch.setattr(nets, "glorot_uniform", glorot_uniform)
        source, target = small_pair()
        with pytest.raises(ConfigError, match="^a weight matrix of .* than NumPy can index$"):
            train(source, target, plan_for_setting("pda"), quick_config(**{width: 10**20}))

    def test_target_labels_never_influence_training(self):
        # identical runs on true target labels and on poisoned ones
        source, target = small_pair()
        poisoned_labels = (target.labels + 1) % target.split.n_total
        from iwot.data import DomainDataset

        poisoned = DomainDataset(
            target.features, poisoned_labels, target.split, "target", target.seed
        )
        cfg = quick_config()
        model_a, hist_a = train(source, target, plan_for_setting("pda"), cfg)
        model_b, hist_b = train(source, poisoned, plan_for_setting("pda"), cfg)
        assert len(hist_a) == len(hist_b)
        for ra, rb in zip(hist_a.records, hist_b.records):
            assert ra.total == rb.total
        for mat_a, mat_b in zip(model_a.feature_net.weights, model_b.feature_net.weights):
            assert (mat_a == mat_b).all()

    def test_identical_seeds_identical_histories(self):
        source, target = small_pair()
        cfg = quick_config(epochs=3, warmup_epochs=1)
        _, hist_a = train(source, target, plan_for_setting("pda"), cfg)
        _, hist_b = train(source, target, plan_for_setting("pda"), cfg)
        assert [r.total for r in hist_a.records] == [r.total for r in hist_b.records]

    def test_different_seed_changes_history(self):
        source, target = small_pair()
        _, hist_a = train(source, target, plan_for_setting("pda"), quick_config(seed=0))
        _, hist_b = train(source, target, plan_for_setting("pda"), quick_config(seed=1))
        assert [r.total for r in hist_a.records] != [r.total for r in hist_b.records]


class TestHistoryContents:
    def test_recombination_identity_every_step(self):
        source, target = small_pair()
        plan = plan_for_setting("pda")
        _, hist = train(source, target, plan, quick_config(epochs=3, warmup_epochs=1))
        assert len(hist) > 0
        for r in hist.records:
            recombined = (
                r.classification
                + plan.beta * r.transport
                + plan.eta * r.separation
                + plan.epsilon * r.intra
            )
            assert abs(r.total - recombined) <= 1e-10

    def test_steps_and_epochs_consecutive(self):
        source, target = small_pair(n=96)
        cfg = quick_config(epochs=2, warmup_epochs=0, batch_size=32)
        _, hist = train(source, target, plan_for_setting("csda"), cfg)
        assert [r.step for r in hist.records] == list(range(6))
        assert [r.epoch for r in hist.records] == [0, 0, 0, 1, 1, 1]

    def test_warmup_steps_are_pure_classification(self):
        source, target = small_pair()
        cfg = quick_config(epochs=2, warmup_epochs=1, batch_size=32)
        _, hist = train(source, target, plan_for_setting("pda"), cfg)
        warmup = [r for r in hist.records if r.epoch == 0]
        active = [r for r in hist.records if r.epoch == 1]
        assert all(r.transport == 0.0 and r.separation == 0.0 and r.intra == 0.0 for r in warmup)
        assert any(r.transport != 0.0 for r in active)

    def test_source_only_plan_never_solves_transport(self):
        source, target = small_pair()
        plan = plan_for_setting("pda", beta=0.0, eta=0.0, epsilon=0.0)
        _, hist = train(source, target, plan, quick_config(epochs=2, warmup_epochs=0))
        assert all(r.transport == 0.0 for r in hist.records)
        assert all(r.total == r.classification for r in hist.records)

    def test_csv_round_trip(self, tmp_path):
        source, target = small_pair()
        _, hist = train(source, target, plan_for_setting("pda"), quick_config())
        path = tmp_path / "history.csv"
        hist.save_csv(path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == HEADER
        # Each cell parsed by its field's type: floats must come back bit-equal.
        parse = {int: int, float: float, bool: lambda raw: bool(int(raw))}
        columns = dataclasses.fields(StepRecord)
        loaded = [
            StepRecord(*(parse[item.type](cell) for item, cell in zip(columns, line.split(","))))
            for line in lines[1:]
        ]
        assert loaded == hist.records

    def test_degenerate_transport_falls_back_to_supervision(self, caplog):
        # all-zero inputs pass through zero-initialized biases and dead relus,
        # so the first adaptation step sees exactly-zero features and cannot
        # form a cosine cost; it must degrade to a supervised step instead of
        # dropping the batch, and the bias update it applies un-degenerates
        # the features for the steps after it
        from iwot.data import DomainDataset

        split = LabelSplit(2, 1, 0)
        rng = np.random.default_rng(0)
        labels_s = rng.permutation(np.repeat(np.arange(3), 32))
        labels_t = rng.permutation(np.repeat(np.arange(2), 48))
        source = DomainDataset(np.zeros((96, 4)), labels_s, split, "source", 0)
        target = DomainDataset(np.zeros((96, 4)), None, split, "target", 0)
        cfg = quick_config(epochs=2, warmup_epochs=0, batch_size=32)
        _, hist = train(source, target, plan_for_setting("pda"), cfg)
        assert len(hist) == 6
        first = hist.records[0]
        assert first.transport == 0.0 and first.total == first.classification
        assert any(r.transport != 0.0 for r in hist.records[1:])
        # one warning for the run, so the CLI's stderr stays one line
        warned = [r.getMessage() for r in caplog.records if r.levelno >= logging.WARNING]
        assert warned == ["1 of 6 steps fell back to supervision on a degenerate batch"]


class TestLayerSites:
    def test_each_loss_site_is_looked_up_once_per_adaptation_step(self, monkeypatch):
        # perfbench's tracer records per-layer spans by replacing these
        # attributes of iwot.losses; a call that bypasses the module attribute
        # (a local binding, say) would silently read as zero time.
        calls = {}

        def counting(name, original):
            def wrapper(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return original(*args, **kwargs)

            return wrapper

        names = ("wot_loss", "partial_coupling", "sa_loss", "iot_loss", "loss_backward")
        for name in names:
            monkeypatch.setattr(losses, name, counting(name, getattr(losses, name)))
        source, target = small_pair()
        cfg = quick_config(epochs=3, warmup_epochs=1, batch_size=32)
        _, hist = train(source, target, plan_for_setting("pda"), cfg)
        adapted = [r for r in hist.records if r.transport != 0.0]
        assert len(adapted) == 6
        assert calls == {name: len(adapted) for name in names}


def step_objective(model, plan, step, batch, target_x):
    """The objective one `_step` descends, with the step's plans frozen: the
    classification loss, the transport side at the model's features, and the
    frozen-rows weight objective at the model's raw weights."""
    feats = [model.features(x) for x in (batch[0], target_x)]
    value = cross_entropy(model.class_logits(feats[0]), batch[1])[0]
    value += frozen_objective(plan, dataclasses.replace(step, features=tuple(feats)))
    if any(plan.weighted):
        # A side without weights keeps a constant placeholder marginal.
        raw = [np.ones(len(f)) if w is None else model.instance_weights(f)
               for f, w in zip(feats, step.weights)]
        base = [np.ones(len(f)) if w is None else w
                for f, w in zip(feats, step.weights)]
        value += frozen_rows_objective(plan, *raw, *base, step.wot, step.iot)
    return value


class TestStepGradients:
    @pytest.mark.parametrize("solver", ["exact", "sinkhorn"])
    @pytest.mark.parametrize("setting", ["pda", "osda", "unida", "csda"])
    def test_every_parameter_gradient_matches_central_differences(
        self, monkeypatch, setting, solver
    ):
        # One adaptation step with plain SGD: the gradient each optimizer
        # receives must be that of `step_objective`. This pins how `_step`
        # wires the terms: the classifier's feature gradient on the source
        # batch only, each weighted side's weight-head gradient into that
        # side's features, and the two batches' feature-net gradients summed.
        rng = np.random.default_rng(7)
        cfg = TrainConfig(hidden_dim=6, feature_dim=4, momentum=0.0, weight_decay=0.0,
                          solver=solver)
        plan = plan_for_setting(setting)
        model = build_model(5, 3, cfg, rng)
        names = ("feature", "classifier", "weight")

        def networks(m):
            return m.feature_net, m.classifier_net, m.weight_net

        # Nonzero biases, so that no feature row is all zeros and every bias
        # gradient is exercised.
        for net in networks(model):
            for b in net.biases:
                b[...] = rng.uniform(0.1, 0.5, b.shape)
        batch = rng.normal(size=(8, 5)), rng.integers(0, 3, 8)
        target_x = rng.normal(size=(9, 5))
        before = copy.deepcopy(model)
        received = {}
        optimizers = []
        for name, net in zip(names, networks(model)):
            optimizer = SgdMomentum(net, cfg.learning_rate, cfg.momentum, cfg.weight_decay)

            def recording(grads, name=name, real=optimizer.step):
                received[name] = grads
                real(grads)

            optimizer.step = recording
            optimizers.append(optimizer)
        steps = []
        real_transport_step = losses.transport_step

        def capturing(*args, **kwargs):
            steps.append(real_transport_step(*args, **kwargs))
            return steps[-1]

        monkeypatch.setattr(losses, "transport_step", capturing)
        _step(model, plan, cfg, optimizers, batch, target_x, 0, 0)
        (step,) = steps
        assert ("weight" in received) == any(plan.weighted)

        # At h = 1e-5 the worst array was 3.5e-7 off; dropping the weight
        # head's feature gradient puts the feature net 5e-4 to 1e-3 off.
        h = 1e-5
        checked = 0
        for name, net in zip(names, networks(before)):
            grads = received.get(name)
            if grads is not None:
                grads = net.views(grads)
            for layer, arrays in enumerate(zip(net.weights, net.biases)):
                for kind, array in enumerate(arrays):
                    fd = np.zeros_like(array)
                    for index in np.ndindex(array.shape):
                        original = array[index]
                        values = []
                        for delta in (h, -h):
                            array[index] = original + delta
                            values.append(step_objective(before, plan, step, batch, target_x))
                        array[index] = original
                        fd[index] = (values[0] - values[1]) / (2 * h)
                    if grads is None:
                        assert (fd == 0).all(), (name, layer, kind)
                        continue
                    error = np.abs(grads[kind][layer] - fd).max() / np.abs(fd).max()
                    assert error <= 1e-5, (name, layer, kind, error)
                    checked += 1
        assert checked == (10 if any(plan.weighted) else 8)


class TestTrainingBehavior:
    def test_source_only_reaches_high_source_accuracy(self):
        source, target = small_pair(n=240)
        plan = plan_for_setting("pda", beta=0.0, eta=0.0, epsilon=0.0)
        cfg = quick_config(epochs=40, warmup_epochs=0, batch_size=48, learning_rate=3e-3)
        model, _ = train(source, target, plan, cfg)
        logits = model.class_logits(model.features(source.features))
        acc = float((logits.argmax(axis=1) == source.labels).mean())
        assert acc > 0.95

    def test_loss_trend_decreases(self):
        source, target = small_pair(n=240)
        cfg = quick_config(epochs=30, warmup_epochs=5, batch_size=48, learning_rate=3e-3)
        _, hist = train(source, target, plan_for_setting("pda"), cfg)
        totals = [r.total for r in hist.records]
        tenth = max(1, len(totals) // 10)
        assert float(np.median(totals[-tenth:])) < float(np.median(totals[:tenth]))

    def test_divergence_raises_numerical_error_naming_the_step(self):
        # At this learning rate the activations overflow within a few steps.
        source, target = small_pair()
        cfg = quick_config(epochs=3, learning_rate=50.0)
        for setting in ("pda", "unida"):
            with pytest.raises(NumericalError, match=r"diverged at step \d+"):
                train(source, target, plan_for_setting(setting), cfg)

    def test_trained_model_params_finite(self):
        source, target = small_pair()
        model, _ = train(source, target, plan_for_setting("unida"), quick_config())
        assert model.has_finite_params()

    def test_exact_solver_route_runs(self):
        source, target = small_pair(n=64)
        cfg = quick_config(epochs=2, warmup_epochs=1, batch_size=32, solver="exact")
        _, hist = train(source, target, plan_for_setting("pda"), cfg)
        active = [r for r in hist.records if r.epoch == 1]
        assert all(r.converged for r in active)

    def test_exact_plans_hold_their_marginals_through_training(self, monkeypatch):
        # UniDA with the exact solver on the benchmark's data shape. At
        # HiGHS's default primal tolerance, LP 31 of this training stopped at
        # a basis holding an entry of -3e-8, and zeroing it left the plan
        # 3.05e-8 off its marginals.
        real_solve = ot.solve_exact
        errors = []

        def checked(cost, p1, p2):
            plan = real_solve(cost, p1, p2)
            errors.append(max(abs(plan.sum(axis=1) - p1).max(), abs(plan.sum(axis=0) - p2).max()))
            return plan

        monkeypatch.setattr(ot, "solve_exact", checked)
        shift = ShiftSpec(rotation=0.5, translation=(0.5,), noise_std=0.3)
        source, target = generate_pair(LabelSplit(3, 2, 2), 600, 600, 8, seed=9901, shift=shift)
        cfg = TrainConfig(epochs=14, warmup_epochs=10, batch_size=64, solver="exact", seed=0)
        train(source, target, plan_for_setting("unida", beta=0.3), cfg)
        assert len(errors) == 40
        assert max(errors) <= 1e-12
