"""Training loop: sampling, determinism, the unsupervised contract, history."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from iwot.data import LabelSplit, ShiftSpec, generate_pair
from iwot.errors import ConfigError, NumericalError
from iwot.settings import plan_for_setting
from iwot.training import (
    EpochSampler,
    TrainConfig,
    load_history_csv,
    train,
)


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

    def test_unknown_solver_rejected(self):
        with pytest.raises(ConfigError):
            TrainConfig(solver="bfgs")

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
        loaded = load_history_csv(path)
        assert len(loaded) == len(hist)
        for ra, rb in zip(hist.records, loaded.records):
            assert ra.step == rb.step and ra.epoch == rb.epoch
            assert ra.total == rb.total and ra.converged == rb.converged

    def test_degenerate_transport_falls_back_to_supervision(self):
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
