"""Inference thresholding and metric computation against hand-built cases."""

import json
import sys
import threading

import numpy as np
import pytest
from numpy.testing import assert_allclose

from iwot import ot
from iwot.data import LabelSplit, ShiftSpec, generate_pair
from iwot.evaluation import (
    EvalReport,
    evaluate,
    h_score,
    predict_batch,
    score_predictions,
    wasserstein_gap,
)
from iwot.errors import NumericalError
from iwot.losses import normalize_weights
from iwot.settings import plan_for_setting
from iwot.training import TrainConfig, train


def tiny_model(seed=0, split=None):
    split = split or LabelSplit(2, 0, 1)
    shift = ShiftSpec(rotation=0.3, translation=(0.5,), noise_std=0.1)
    source, target = generate_pair(split, 60, 60, 4, seed=seed, shift=shift)
    cfg = TrainConfig(epochs=2, warmup_epochs=1, batch_size=20, seed=seed)
    model, _ = train(source, target, plan_for_setting("osda"), cfg)
    return model, source, target


class TestHScore:
    def test_zero_on_either_side(self):
        assert h_score(0.0, 0.9) == 0.0
        assert h_score(0.9, 0.0) == 0.0
        assert h_score(0.0, 0.0) == 0.0

    def test_equal_inputs_fixed_point(self):
        assert_allclose(h_score(0.7, 0.7), 0.7, atol=1e-15)

    def test_hand_value(self):
        assert_allclose(h_score(0.8, 0.6), 0.6857142857142857, rtol=0, atol=1e-15)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            h_score(1.2, 0.5)
        with pytest.raises(ValueError):
            h_score(0.5, -0.1)


class TestScorePredictions:
    def test_hand_built_six_sample_case(self):
        # class 0: predictions (0, 0, 1) -> 2/3; class 1: (1, 0) -> 1/2;
        # unknowns: (-1,) -> 1. common = (2/3 + 1/2)/2 = 7/12,
        # H = 2*(7/12)*1/(7/12+1) = 14/19, OS = (2/3 + 1/2 + 1)/3 = 13/18.
        true_labels = [0, 0, 0, 1, 1, 5]
        predicted = [0, 0, 1, 1, 0, -1]
        report = score_predictions(predicted, true_labels, n_common=2)
        assert_allclose(report.per_class_acc[0], 2.0 / 3.0, atol=1e-15)
        assert_allclose(report.per_class_acc[1], 0.5, atol=1e-15)
        assert_allclose(report.common_acc, 7.0 / 12.0, atol=1e-15)
        assert report.unknown_acc == 1.0
        assert_allclose(report.h_score, 14.0 / 19.0, atol=1e-15)
        assert_allclose(report.os_mean, 13.0 / 18.0, atol=1e-15)
        assert_allclose(report.os_star, 7.0 / 12.0, atol=1e-15)

    def test_unknown_marker_and_private_labels_both_count_unknown(self):
        report = score_predictions([-1, -1], [-1, 7], n_common=2)
        assert report.unknown_acc == 1.0

    def test_all_rejected_gives_zero_common_and_h(self):
        report = score_predictions([-1, -1, -1], [0, 1, 3], n_common=2)
        assert report.common_acc == 0.0
        assert report.h_score == 0.0

    def test_perfect_predictions(self):
        report = score_predictions([0, 1, -1], [0, 1, 9], n_common=2)
        assert report.common_acc == 1.0
        assert report.unknown_acc == 1.0
        assert report.h_score == 1.0
        assert report.os_mean == 1.0

    def test_no_unknown_samples_pda_style(self):
        report = score_predictions([0, 1, 1], [0, 1, 1], n_common=2)
        assert report.unknown_acc is None
        assert report.h_score is None
        assert report.common_acc == 1.0
        assert report.os_mean == 1.0

    def test_empty_class_excluded(self):
        report = score_predictions([0, 0], [0, 0], n_common=3)
        assert set(report.per_class_acc) == {0}
        assert report.common_acc == 1.0

    def test_bounds_on_random_inputs(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = int(rng.integers(4, 40))
            true_labels = rng.integers(-1, 5, size=n)
            predicted = rng.integers(-1, 5, size=n)
            report = score_predictions(predicted, true_labels, n_common=3)
            for value in (report.common_acc, report.unknown_acc, report.h_score):
                if value is not None:
                    assert 0.0 <= value <= 1.0

    def test_misaligned_shapes_rejected(self):
        with pytest.raises(ValueError):
            score_predictions([0, 1], [0], n_common=1)


class TestInference:
    def test_rejection_rule_per_setting(self):
        assert plan_for_setting("unida").rejects_unknowns
        assert plan_for_setting("osda").rejects_unknowns
        assert not plan_for_setting("pda").rejects_unknowns
        assert not plan_for_setting("csda").rejects_unknowns

    def test_label_weight_consistency_open_set(self):
        model, _, target = tiny_model()
        labels, weights, logits = predict_batch(model, target.features, open_set=True)
        kept = labels >= 0
        assert (kept == (weights > 0.5)).all()
        assert (labels[kept] == logits[kept].argmax(axis=1)).all()

    def test_closed_set_never_rejects(self):
        model, _, target = tiny_model()
        labels, _, _ = predict_batch(model, target.features, open_set=False)
        assert (labels >= 0).all()

    def test_nan_parameters_rejected(self):
        from iwot.errors import NumericalError

        model, _, target = tiny_model()
        model.feature_net.weights[0][0, 0] = np.nan
        with pytest.raises(NumericalError):
            predict_batch(model, target.features, open_set=True)


class TestWassersteinGap:
    def test_identical_features_both_zero(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(8, 5))
        uniform_value, learned_value = wasserstein_gap(x, x)
        assert abs(uniform_value) <= 1e-9
        assert abs(learned_value) <= 1e-9

    def test_uniform_sides_match_classical_transport(self):
        from iwot import ot

        rng = np.random.default_rng(2)
        a = rng.normal(size=(6, 4))
        b = rng.normal(size=(7, 4))
        uniform_value, learned_value = wasserstein_gap(a, b)
        cost = ot.cosine_cost(a, b)
        expected = ot.coupling_cost(
            ot.solve_exact(cost, np.full(6, 1 / 6), np.full(7, 1 / 7)), cost
        )
        assert_allclose(uniform_value, expected, atol=1e-12)
        assert_allclose(learned_value, expected, atol=1e-12)

    def test_learned_weights_change_the_learned_side_only(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(5, 4))
        b = rng.normal(size=(5, 4))
        raw = rng.uniform(0.1, 0.9, size=5)
        uniform_value, learned_value = wasserstein_gap(a, b, raw_weights_a=raw)
        baseline_uniform, _ = wasserstein_gap(a, b)
        assert_allclose(uniform_value, baseline_uniform, atol=1e-12)
        assert learned_value != uniform_value


def is_uniform(marginal):
    return bool((marginal == marginal[0]).all())


class TestConcurrentGap:
    """The uniform solve runs in a worker thread beside the learned one."""

    @pytest.mark.parametrize(
        "m, n, learned",
        [(48, 48, "a"), (48, 48, "ab"), (40, 52, "b"), (40, 52, "ab")],
        ids=["square-source", "square-both", "rect-target", "rect-both"],
    )
    def test_values_equal_sequential_solves(self, m, n, learned):
        # Square: an assignment beside an LP; non-square: two HiGHS runs.
        rng = np.random.default_rng(25)
        a, b = rng.normal(size=(m, 6)), rng.normal(size=(n, 6)) + 0.3
        raw_a = rng.uniform(0.05, 0.95, m) if "a" in learned else None
        raw_b = rng.uniform(0.05, 0.95, n) if "b" in learned else None
        cost = ot.cosine_cost(a, b)
        uniform_a, uniform_b = np.full(m, 1.0 / m), np.full(n, 1.0 / n)
        marginal_a = normalize_weights(raw_a) if raw_a is not None else uniform_a
        marginal_b = normalize_weights(raw_b) if raw_b is not None else uniform_b
        expected = (
            ot.coupling_cost(ot.solve_exact(cost, uniform_a, uniform_b), cost),
            ot.coupling_cost(ot.solve_exact(cost, marginal_a, marginal_b), cost),
        )
        before = threading.active_count()
        assert wasserstein_gap(a, b, raw_a, raw_b) == expected
        assert threading.active_count() == before

    def test_concurrent_callers_get_their_own_values(self):
        # Three callers at once run six threads on fewer cores, with a short
        # switch interval; each call must still return its own pair.
        rng = np.random.default_rng(28)
        problems = [
            (rng.normal(size=(20, 5)), rng.normal(size=(20 + k, 5)), rng.uniform(0.1, 0.9, 20))
            for k in range(3)
        ]
        expected = [wasserstein_gap(a, b, raw) for a, b, raw in problems]
        results = [None] * len(problems)

        def call(index):
            for _ in range(10):
                results[index] = wasserstein_gap(*problems[index])
                if results[index] != expected[index]:
                    return

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=call, args=(k,)) for k in range(len(problems))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert results == expected

    @pytest.mark.parametrize(
        "failing, message",
        [("uniform", "uniform solve failed"), ("learned", "learned solve failed"),
         ("both", "uniform solve failed")],
    )
    def test_solve_errors_surface_as_before(self, monkeypatch, failing, message):
        # Sequentially the uniform solve ran first, so its error wins. With
        # both failing, the uniform failure waits until the learned one has
        # raised: the winner is chosen by role, not by which fails first.
        learned_failed = threading.Event()
        original = ot.solve_exact

        def failing_solve(cost, p1, p2):
            uniform = is_uniform(p1) and is_uniform(p2)
            if uniform and failing in ("uniform", "both"):
                if failing == "both":
                    learned_failed.wait(5.0)
                raise NumericalError("uniform solve failed")
            if not uniform and failing in ("learned", "both"):
                learned_failed.set()
                raise NumericalError("learned solve failed")
            return original(cost, p1, p2)

        monkeypatch.setattr(ot, "solve_exact", failing_solve)
        rng = np.random.default_rng(26)
        a, b = rng.normal(size=(20, 5)), rng.normal(size=(20, 5))
        before = threading.active_count()
        with pytest.raises(NumericalError) as caught:
            wasserstein_gap(a, b, raw_weights_a=rng.uniform(0.1, 0.9, 20))
        assert type(caught.value) is NumericalError
        assert str(caught.value) == message
        assert threading.active_count() == before
        if failing == "both":
            assert learned_failed.is_set()

    @pytest.mark.parametrize("learned", [False, True])
    def test_which_thread_solves_what(self, monkeypatch, learned):
        # A learned side puts the uniform solve on a worker thread; with none,
        # the one uniform solve stays on the caller's thread.
        calls = []
        original = ot.solve_exact

        def recording_solve(cost, p1, p2):
            calls.append((is_uniform(p1) and is_uniform(p2), threading.current_thread()))
            return original(cost, p1, p2)

        monkeypatch.setattr(ot, "solve_exact", recording_solve)
        rng = np.random.default_rng(27)
        raw = rng.uniform(0.1, 0.9, 11) if learned else None
        uniform_value, learned_value = wasserstein_gap(
            rng.normal(size=(9, 4)), rng.normal(size=(11, 4)), raw_weights_b=raw
        )
        caller = threading.current_thread()
        if learned:
            solved_by = dict(calls)
            assert len(calls) == 2
            assert solved_by[False] is caller
            assert solved_by[True] is not caller
        else:
            assert uniform_value == learned_value
            assert calls == [(True, caller)]


class TestEvaluateEndToEnd:
    def test_report_fields_and_gap(self):
        model, source, target = tiny_model()
        plan = plan_for_setting("osda")
        report = evaluate(model, target, plan, source=source)
        assert report.n_evaluated == target.n
        assert report.common_acc is not None and 0.0 <= report.common_acc <= 1.0
        assert report.wasserstein_uniform is not None
        assert report.wasserstein_learned is not None

    def test_gap_skipped_without_source(self):
        model, _, target = tiny_model()
        report = evaluate(model, target, plan_for_setting("osda"))
        assert report.wasserstein_uniform is None

    def test_label_free_target_rejected(self):
        model, _, target = tiny_model()
        with pytest.raises(ValueError):
            evaluate(model, target.without_labels(), plan_for_setting("osda"))

    def test_report_json_and_csv_round_trip(self, tmp_path):
        model, source, target = tiny_model()
        report = evaluate(model, target, plan_for_setting("osda"), source=source)
        json_path = tmp_path / "report.json"
        report.save_json(json_path)
        loaded = json.loads(json_path.read_text())
        assert loaded["common_acc"] == report.common_acc
        assert loaded["n_evaluated"] == report.n_evaluated
        csv_path = tmp_path / "report.csv"
        report.save_csv(csv_path)
        lines = csv_path.read_text().strip().split("\n")
        assert lines[0] == "metric,value"
        keys = {line.split(",")[0] for line in lines[1:]}
        assert "common_acc" in keys and "h_score" in keys
