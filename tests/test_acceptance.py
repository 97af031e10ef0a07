"""Acceptance gate: twelve behavioral criteria, one pass/fail line each.

Each test prints a single summary line so the suite output doubles as the
acceptance report. Tolerances and budgets are part of the assertions.
"""

import time

import numpy as np
import pytest

from iwot import ot, reference
from iwot.data import LabelSplit, ShiftSpec, generate_pair
from iwot.evaluation import evaluate, h_score, score_predictions
from iwot.losses import (
    iot_loss,
    loss_backward,
    partial_coupling,
    sa_loss,
    total_loss,
    transport_step,
    wot_loss,
)
from iwot.nets import cross_entropy
from iwot.settings import plan_for_setting
from iwot.training import TrainConfig, train


def report(index, name, passed, detail):
    print("\n[criterion %2d] %s: %s (%s)" % (index, name, "PASS" if passed else "FAIL", detail))
    assert passed


def criterion1_suite():
    rng = np.random.default_rng(42)
    suite = []
    for i in range(200):
        n = 2 + i % 5
        suite.append(rng.uniform(0.0, 2.0, size=(n, n)))
    return suite


class TestSolverOracles:
    def test_criterion_1_exact_matches_permutation_oracle(self):
        t0 = time.time()
        max_gap = 0.0
        for cost in criterion1_suite():
            n = cost.shape[0]
            uniform = np.full(n, 1.0 / n)
            plan = ot.solve_exact(cost, uniform, uniform)
            gap = abs(ot.coupling_cost(plan, cost) - reference.permutation_transport(cost))
            max_gap = max(max_gap, gap)
        elapsed = time.time() - t0
        report(
            1,
            "exact solver vs permutation oracle (200 instances)",
            max_gap <= 1e-8 and elapsed < 10.0,
            "max gap %.2e, %.1fs" % (max_gap, elapsed),
        )

    def test_criterion_2_exact_matches_vertex_oracle(self):
        rng = np.random.default_rng(7)
        max_gap = 0.0
        for _ in range(50):
            cost = rng.uniform(0.0, 2.0, size=(3, 3))
            raw = rng.uniform(0.1, 1.0, size=6)
            p1 = raw[:3] / raw[:3].sum()
            p2 = raw[3:] / raw[3:].sum()
            plan = ot.solve_exact(cost, p1, p2)
            gap = abs(ot.coupling_cost(plan, cost) - reference.vertex_transport(cost, p1, p2))
            max_gap = max(max_gap, gap)
        report(
            2,
            "exact solver vs polytope-vertex oracle (50 general-marginal instances)",
            max_gap <= 1e-6,
            "max gap %.2e" % max_gap,
        )

    def test_criterion_3_entropic_fidelity(self):
        max_marginal = 0.0
        max_obj_gap = 0.0
        for cost in criterion1_suite():
            n = cost.shape[0]
            uniform = np.full(n, 1.0 / n)
            exact_value = ot.coupling_cost(ot.solve_exact(cost, uniform, uniform), cost)
            result = ot.solve_sinkhorn(cost, uniform, uniform, reg=1e-3, max_iter=20000)
            row_dev = np.abs(result.coupling.sum(axis=1) - uniform).max()
            col_dev = np.abs(result.coupling.sum(axis=0) - uniform).max()
            max_marginal = max(max_marginal, row_dev, col_dev)
            max_obj_gap = max(
                max_obj_gap, abs(ot.coupling_cost(result.coupling, cost) - exact_value)
            )
        report(
            3,
            "entropic solver fidelity at reg 1e-3",
            max_marginal <= 1e-6 and max_obj_gap <= 1e-3,
            "max marginal violation %.2e, max objective gap %.2e" % (max_marginal, max_obj_gap),
        )


def transport_objective(plan, step):
    """Every transport-side term at the step's features, all couplings held constant."""
    feats_s, feats_t = step.features
    coupling, partial = step.wot.coupling, step.partial
    cost = ot.cosine_cost(feats_s, feats_t)
    value = plan.beta * float((coupling * cost).sum())
    if plan.use_sa:
        delta = 1.0 - np.exp(-(coupling - partial))
        value += plan.eta * float((delta * (2.0 - cost)).sum() + (partial * cost).sum())
    if plan.iot_side is not None:
        domain = step.features[plan.iot_side]
        iot_cost = ot.cosine_cost(domain, domain)
        value += plan.epsilon * float((step.iot.coupling * iot_cost).sum())
    return value


def finite_difference(objective, arr, h=1e-6):
    fd = np.zeros_like(arr)
    it = np.nditer(arr, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = arr[idx]
        arr[idx] = orig + h
        up = objective()
        arr[idx] = orig - h
        down = objective()
        arr[idx] = orig
        fd[idx] = (up - down) / (2 * h)
        it.iternext()
    return fd


class TestLossContracts:
    def test_criterion_4_gradients_match_finite_differences(self):
        rng = np.random.default_rng(11)
        worst = 0.0

        # classification head
        logits = rng.normal(size=(6, 4))
        labels = rng.integers(0, 4, size=6)
        _, grad = cross_entropy(logits, labels)
        fd = finite_difference(lambda: cross_entropy(logits, labels)[0], logits)
        worst = max(worst, np.abs(grad - fd).max() / max(np.abs(fd).max(), 1e-8))

        # transport terms under every setting, couplings frozen
        for setting, seed in (("pda", 0), ("osda", 1), ("unida", 2), ("csda", 3)):
            plan = plan_for_setting(setting)
            rng = np.random.default_rng(seed)
            fs = rng.normal(size=(5, 6))
            ft = rng.normal(size=(4, 6))
            weights = (rng.uniform(0.2, 0.9, 5), rng.uniform(0.2, 0.9, 4))
            step = transport_step(plan, fs, ft, weights, solver="exact")
            features, _ = loss_backward(plan, step)
            for grad, feats in zip(features, step.features):
                fd = finite_difference(lambda: transport_objective(plan, step), feats)
                worst = max(worst, np.abs(grad - fd).max() / max(np.abs(fd).max(), 1e-8))
        report(
            4,
            "loss gradients vs central finite differences",
            worst <= 1e-4,
            "worst relative error %.2e" % worst,
        )

    def test_criterion_5_loss_identities(self):
        rng = np.random.default_rng(13)

        # constant cost makes the kept coupling equal the full coupling
        xs = np.tile(rng.normal(size=(1, 4)), (5, 1))
        xt = np.tile(rng.normal(size=(1, 4)), (6, 1))
        u5, u6 = np.full(5, 0.2), np.full(6, 1.0 / 6)
        wot = wot_loss(xs, xt, u5, u6, solver="exact")
        partial = partial_coupling(wot.coupling, wot.cost, wot.value)
        sa = sa_loss(wot.coupling, partial, wot.cost)
        sa_gap = abs(sa - wot.value)

        # uniform intra-domain weights transport a marginal onto itself
        pts = rng.normal(size=(6, 4))
        iot_val = iot_loss(pts, np.full(6, 1.0 / 6), solver="exact").value

        # logged total recombines from the logged components
        split = LabelSplit(3, 1, 0)
        source, target = generate_pair(
            split, 90, 90, 8, 3, ShiftSpec(rotation=0.4, translation=(0.5,), noise_std=0.2)
        )
        plan = plan_for_setting("pda")
        _, history = train(
            source,
            target.without_labels(),
            plan,
            TrainConfig(epochs=3, warmup_epochs=1, batch_size=30, seed=3),
        )
        recomb_gap = max(
            abs(
                r.total
                - (
                    r.classification
                    + plan.beta * r.transport
                    + plan.eta * r.separation
                    + plan.epsilon * r.intra
                )
            )
            for r in history.records
        )
        report(
            5,
            "loss identities (alignment collapse, uniform intra, logged recombination)",
            sa_gap <= 1e-10 and abs(iot_val) <= 1e-10 and recomb_gap <= 1e-10,
            "alignment gap %.1e, intra value %.1e, recombination gap %.1e"
            % (sa_gap, iot_val, recomb_gap),
        )

    def test_criterion_6_setting_table_conformance(self):
        rng = np.random.default_rng(17)
        checked = 0
        ok = True
        for _ in range(1000):
            setting = ("unida", "pda", "osda", "csda")[rng.integers(0, 4)]
            beta, eta, epsilon = rng.uniform(0.0, 2.0, size=3)
            plan = plan_for_setting(setting, beta=beta, eta=eta, epsilon=epsilon)
            if setting == "unida":
                ok &= plan.learned == (True, True)
                ok &= plan.use_sa and plan.iot_side is None and plan.epsilon == 0.0
                ok &= plan.beta == beta and plan.eta == eta
            elif setting == "pda":
                ok &= plan.learned == (True, False)
                ok &= plan.use_sa and plan.iot_side == 1
                ok &= plan.beta == beta and plan.eta == eta and plan.epsilon == epsilon
            elif setting == "osda":
                ok &= plan.learned == (False, True)
                ok &= plan.use_sa and plan.iot_side == 0
                ok &= plan.beta == beta and plan.eta == eta and plan.epsilon == epsilon
            else:
                ok &= plan.learned == (False, False)
                ok &= not plan.use_sa and plan.iot_side is None
                ok &= plan.eta == 0.0 and plan.epsilon == 0.0 and plan.beta == beta
            for side in (0, 1):
                ok &= plan.weighted[side] == (plan.learned[side] or plan.iot_side == side)
            checked += 1
        report(
            6,
            "setting table conformance (randomized property sweep)",
            ok and checked == 1000,
            "%d cases" % checked,
        )


def rank_auc(high_group, low_group):
    """Probability that a random high-group value outranks a low-group one."""
    high = np.asarray(high_group)
    low = np.asarray(low_group)
    wins = 0.0
    for value in high:
        wins += (value > low).sum() + 0.5 * (value == low).sum()
    return wins / (len(high) * len(low))


MODERATE_SHIFT = ShiftSpec(rotation=0.5, translation=(0.5,), noise_std=0.3)


class TestTrainedBehavior:
    @pytest.mark.slow
    def test_criterion_7_weight_separation(self):
        split = LabelSplit(4, 3, 0)
        aucs, ordered, worst_time = [], True, 0.0
        for seed in range(5):
            t0 = time.time()
            source, target = generate_pair(split, 600, 600, 8, seed, MODERATE_SHIFT)
            model, _ = train(
                source,
                target.without_labels(),
                plan_for_setting("pda"),
                TrainConfig(epochs=60, warmup_epochs=10, seed=seed),
            )
            weights = model.instance_weights(model.features(source.features))
            common = weights[source.labels < split.n_common]
            private = weights[source.labels >= split.n_common]
            aucs.append(rank_auc(common, private))
            ordered &= common.mean() > private.mean()
            worst_time = max(worst_time, time.time() - t0)
        mean_auc = float(np.mean(aucs))
        report(
            7,
            "downweighting of source-private classes (5 seeds)",
            mean_auc >= 0.85 and min(aucs) >= 0.85 and ordered and worst_time < 300.0,
            "auc mean %.3f min %.3f, means ordered %s, slowest seed %.0fs"
            % (mean_auc, min(aucs), ordered, worst_time),
        )

    def test_criterion_8_learned_marginals_never_cost_more(self):
        split = LabelSplit(3, 2, 2)
        ok_count = 0
        margin = np.inf
        for seed in range(5):
            source, target = generate_pair(split, 600, 600, 8, seed, MODERATE_SHIFT)
            plan = plan_for_setting("unida")
            model, _ = train(
                source,
                target.without_labels(),
                plan,
                TrainConfig(epochs=40, warmup_epochs=10, seed=seed),
            )
            result = evaluate(model, target, plan, source=source)
            if result.wasserstein_learned <= result.wasserstein_uniform + 1e-8:
                ok_count += 1
            margin = min(margin, result.wasserstein_uniform - result.wasserstein_learned)
        report(
            8,
            "learned-marginal transport value below uniform (5 seeds)",
            ok_count == 5,
            "%d/5 seeds, smallest margin %.3e" % (ok_count, margin),
        )

    @pytest.mark.slow
    def test_criterion_9_adaptation_benefit(self):
        # the rotation damages the two common classes most; the raised
        # separation coefficient keeps cluster matching from flipping
        split = LabelSplit(2, 3, 0)
        shift = ShiftSpec(rotation=0.7, translation=(0.5,), noise_std=0.3)
        t0 = time.time()
        benefits = []
        for seed in range(5):
            source, target = generate_pair(split, 600, 600, 8, seed, shift)
            config = TrainConfig(epochs=120, warmup_epochs=20, seed=seed)
            ablation = plan_for_setting("pda", beta=0.0, eta=0.0, epsilon=0.0)
            base_model, _ = train(source, target.without_labels(), ablation, config)
            base_acc = evaluate(base_model, target, ablation).common_acc
            plan = plan_for_setting("pda", beta=0.3, eta=0.6)
            model, _ = train(source, target.without_labels(), plan, config)
            acc = evaluate(model, target, plan).common_acc
            benefits.append(100.0 * (acc - base_acc))
        elapsed = time.time() - t0
        mean_benefit = float(np.mean(benefits))
        report(
            9,
            "end-to-end adaptation benefit over source-only ablation (5 seeds)",
            mean_benefit >= 5.0 and elapsed < 600.0,
            "mean %+.1f points (per seed %s), %.0fs"
            % (mean_benefit, ", ".join("%+.1f" % b for b in benefits), elapsed),
        )

    @pytest.mark.slow
    def test_criterion_10_open_set_h_score(self):
        split = LabelSplit(3, 0, 2)
        scores = []
        for seed in range(5):
            source, target = generate_pair(split, 600, 600, 8, seed, MODERATE_SHIFT)
            plan = plan_for_setting("osda")
            model, _ = train(
                source,
                target.without_labels(),
                plan,
                TrainConfig(epochs=60, warmup_epochs=10, seed=seed),
            )
            scores.append(evaluate(model, target, plan).h_score)
        mean_h = float(np.mean(scores))
        report(
            10,
            "open-set unknown detection H-score (5 seeds)",
            mean_h >= 0.7,
            "mean H %.3f (per seed %s)" % (mean_h, ", ".join("%.3f" % s for s in scores)),
        )


class TestMetricAndScaling:
    def test_criterion_11_metric_hand_values(self):
        ok = True
        # 6 evaluated target samples, 2 common classes, third class unknown
        scores = score_predictions(
            predicted=np.array([0, 0, 1, 1, 0, -1]),
            true_labels=np.array([0, 0, 0, 1, 1, 5]),
            n_common=2,
        )
        ok &= abs(scores.per_class_acc[0] - 2.0 / 3.0) <= 1e-12
        ok &= abs(scores.per_class_acc[1] - 1.0 / 2.0) <= 1e-12
        ok &= abs(scores.common_acc - 7.0 / 12.0) <= 1e-12
        ok &= abs(scores.unknown_acc - 1.0) <= 1e-12
        ok &= abs(scores.h_score - 14.0 / 19.0) <= 1e-12
        ok &= abs(scores.os_mean - (2.0 / 3.0 + 1.0 / 2.0 + 1.0) / 3.0) <= 1e-12
        ok &= abs(scores.os_star - 7.0 / 12.0) <= 1e-12
        ok &= abs(h_score(0.6, 0.8) - 2 * 0.6 * 0.8 / 1.4) <= 1e-12
        ok &= h_score(0.0, 1.0) == 0.0
        report(11, "evaluation metrics vs hand-computed confusion tables", ok, "exact to 1e-12")

    def test_criterion_12_per_iteration_quadratic_scaling(self):
        rng = np.random.default_rng(23)
        iters = 50
        medians = {}
        for n in (64, 128, 256):
            cost = rng.uniform(0.0, 2.0, size=(n, n))
            uniform = np.full(n, 1.0 / n)
            samples = []
            for _ in range(7):
                t0 = time.perf_counter()
                ot.solve_sinkhorn(cost, uniform, uniform, reg=0.05, tol=1e-300, max_iter=iters)
                samples.append((time.perf_counter() - t0) / iters)
            medians[n] = float(np.median(samples))
        c = medians[64] / 64**2
        ok = all(medians[n] <= 2.0 * c * n**2 for n in (128, 256))
        report(
            12,
            "per-iteration solver time fits quadratic growth",
            ok,
            "per-iter medians "
            + ", ".join("n=%d %.1fus (budget %.1fus)" % (n, medians[n] * 1e6, 2.0 * c * n**2 * 1e6)
                        for n in (64, 128, 256)),
        )
