"""Loss terms: frozen hand values, identities, and finite-difference gradients."""

import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose

from iwot import ot
from iwot.errors import DegenerateInputError
from iwot.losses import (
    TransportStep,
    TransportTerm,
    iot_loss,
    loss_backward,
    normalize_weights,
    partial_coupling,
    sa_loss,
    total_loss,
    transport_step,
    wot_loss,
)
from iwot.settings import plan_for_setting


def random_marginal(rng, n):
    raw = rng.uniform(0.1, 1.0, size=n)
    return raw / raw.sum()


class TestNormalizeWeights:
    def test_equal_raw_gives_uniform(self):
        out = normalize_weights(np.full(5, 0.3))
        assert_allclose(out, np.full(5, 0.2), atol=1e-15)

    def test_already_normalized_unchanged(self):
        out = normalize_weights(np.array([0.8, 0.2]))
        assert_allclose(out, [0.8, 0.2], atol=1e-15)

    def test_hand_division(self):
        out = normalize_weights(np.array([0.9, 0.6, 0.3]))
        assert_allclose(out, [0.5, 1.0 / 3.0, 1.0 / 6.0], atol=1e-15)

    def test_order_preserved_and_sums_to_one(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            raw = rng.uniform(0.01, 1.0, size=rng.integers(2, 30))
            out = normalize_weights(raw)
            assert_allclose(out.sum(), 1.0, atol=1e-12)
            assert (np.argsort(out) == np.argsort(raw)).all()

    def test_all_zero_rejected(self):
        with pytest.raises(DegenerateInputError):
            normalize_weights(np.zeros(3))

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            normalize_weights(np.array([0.5, -0.1]))


class TestWotLoss:
    def test_identical_point_sets_cost_zero(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(6, 4))
        u = np.full(6, 1.0 / 6)
        term = wot_loss(x, x, u, u, solver="exact")
        assert_allclose(term.value, 0.0, atol=1e-9)

    def test_matches_exact_solver_on_cosine_cost(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            xs = rng.normal(size=(5, 3))
            xt = rng.normal(size=(7, 3))
            p_s = random_marginal(rng, 5)
            p_t = random_marginal(rng, 7)
            term = wot_loss(xs, xt, p_s, p_t, solver="exact")
            cost = ot.cosine_cost(xs, xt)
            expected = ot.coupling_cost(ot.solve_exact(cost, p_s, p_t), cost)
            assert_allclose(term.value, expected, atol=1e-12)
            assert ot.validate_coupling(term.coupling, p_s, p_t, tol=1e-8).passed

    def test_uniform_marginals_reduce_to_classical_transport(self):
        rng = np.random.default_rng(3)
        xs = rng.normal(size=(4, 3))
        xt = rng.normal(size=(4, 3))
        u = np.full(4, 0.25)
        term = wot_loss(xs, xt, u, u, solver="exact")
        from iwot.reference import permutation_transport

        assert_allclose(term.value, permutation_transport(ot.cosine_cost(xs, xt)), atol=1e-8)

    def test_sinkhorn_route_close_to_exact(self):
        rng = np.random.default_rng(4)
        xs = rng.normal(size=(6, 3))
        xt = rng.normal(size=(6, 3))
        u = np.full(6, 1.0 / 6)
        exact = wot_loss(xs, xt, u, u, solver="exact")
        entropic = wot_loss(xs, xt, u, u, solver="sinkhorn", reg=1e-3, tol=1e-6, max_iter=20000)
        assert ot.validate_coupling(entropic.coupling, u, u, tol=1e-6).passed
        assert abs(entropic.value - exact.value) <= 1e-3

    def test_unknown_solver_rejected(self):
        from iwot.errors import ConfigError

        u = np.full(2, 0.5)
        with pytest.raises(ConfigError):
            wot_loss(np.eye(2), np.eye(2), u, u, solver="simplex")


class TestPartialCoupling:
    def test_constant_cost_at_threshold_keeps_everything(self):
        coupling = np.array([[0.25, 0.25], [0.25, 0.25]])
        cost = np.full((2, 2), 0.7)
        assert (partial_coupling(coupling, cost, 0.7) == coupling).all()

    def test_above_threshold_cut(self):
        coupling = np.full((2, 2), 0.25)
        cost = np.array([[0.1, 0.9], [0.9, 0.1]])
        partial = partial_coupling(coupling, cost, 0.5)
        assert_allclose(partial, [[0.25, 0.0], [0.0, 0.25]], atol=0)

    def test_hand_case(self):
        coupling = np.array([[0.0, 0.5], [0.5, 0.0]])
        cost = np.array([[0.2, 0.1], [0.3, 0.4]])
        partial = partial_coupling(coupling, cost, 0.2)
        assert_allclose(partial, [[0.0, 0.5], [0.0, 0.0]], atol=0)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            partial_coupling(np.zeros((2, 2)), np.zeros((2, 3)), 0.5)


class TestSaLoss:
    def test_nothing_cut_equals_transport_value(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            coupling = rng.uniform(0, 0.3, (3, 4))
            cost = rng.uniform(0, 2, (3, 4))
            value = sa_loss(coupling, coupling, cost)
            assert abs(value - float((coupling * cost).sum())) <= 1e-10

    def test_everything_cut_formula_collapse(self):
        rng = np.random.default_rng(6)
        coupling = rng.uniform(0, 0.3, (3, 3))
        cost = rng.uniform(0, 2, (3, 3))
        value = sa_loss(coupling, np.zeros_like(coupling), cost)
        expected = ((1.0 - np.exp(-coupling)) * (2.0 - cost)).sum()
        assert_allclose(value, expected, rtol=0, atol=1e-12)

    def test_frozen_hand_value(self):
        coupling = np.array([[0.0, 0.5], [0.5, 0.0]])
        cost = np.array([[0.2, 0.1], [0.3, 0.4]])
        partial = partial_coupling(coupling, cost, 0.2)
        assert_allclose(sa_loss(coupling, partial, cost), 0.7188978784885232, rtol=0, atol=1e-15)

    def test_nonnegative_on_random_inputs(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            coupling = rng.uniform(0, 0.5, (4, 4))
            cost = rng.uniform(0, 2, (4, 4))
            partial = partial_coupling(coupling, cost, float(rng.uniform(0, 2)))
            assert sa_loss(coupling, partial, cost) >= 0.0

    def test_partial_exceeding_coupling_rejected(self):
        coupling = np.full((2, 2), 0.25)
        partial = np.full((2, 2), 0.3)
        with pytest.raises(ValueError):
            sa_loss(coupling, partial, np.zeros((2, 2)))


class TestIotLoss:
    def test_uniform_weights_distinct_points_zero(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(5, 3))
        term = iot_loss(x, np.full(5, 0.2), solver="exact")
        assert_allclose(term.value, 0.0, atol=1e-10)

    def test_two_point_excess_mass_hand_case(self):
        # orthogonal points: off-diagonal cosine cost is exactly 1
        x = np.array([[1.0, 0.0], [0.0, 1.0]])
        term = iot_loss(x, np.array([0.8, 0.2]), solver="exact")
        assert_allclose(term.value, 0.3, atol=1e-9)
        # 60 degrees apart: off-diagonal cost 0.5, same excess mass
        x = np.array([[1.0, 0.0], [0.5, np.sqrt(3.0) / 2.0]])
        term = iot_loss(x, np.array([0.8, 0.2]), solver="exact")
        assert_allclose(term.value, 0.15, atol=1e-9)

    def test_nonnegative_and_zero_only_at_uniform(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(3, 4))
        for _ in range(10):
            marginal = random_marginal(rng, 3)
            value = iot_loss(x, marginal, solver="exact").value
            assert value >= -1e-12
            if np.abs(marginal - 1.0 / 3.0).max() > 1e-3:
                assert value > 0.0

    def test_strictly_increasing_away_from_uniform(self):
        x = np.array([[1.0, 0.0], [0.0, 1.0]])
        values = []
        for t in (0.0, 0.1, 0.2, 0.3):
            term = iot_loss(x, np.array([0.5 + t, 0.5 - t]), solver="exact")
            values.append(term.value)
        assert all(b > a + 1e-9 for a, b in zip(values, values[1:]))


class TestTotalLoss:
    def test_zero_coefficients_give_classification_only(self):
        plan = plan_for_setting("pda", beta=0.0, eta=0.0, epsilon=0.0)
        assert total_loss(0.83, 5.0, 7.0, 9.0, plan) == 0.83

    def test_default_coefficients_on_unit_losses(self):
        plan = plan_for_setting("pda")
        assert_allclose(total_loss(1.0, 1.0, 1.0, 1.0, plan), 1.45, rtol=0, atol=1e-15)

    def test_unida_forces_intra_term_off(self):
        plan = plan_for_setting("unida", epsilon=0.7)
        assert plan.epsilon == 0.0
        assert_allclose(total_loss(1.0, 1.0, 1.0, 1.0, plan), 1.4, atol=1e-15)

    def test_non_finite_term_rejected(self):
        plan = plan_for_setting("pda")
        with pytest.raises(ValueError):
            total_loss(np.nan, 0.0, 0.0, 0.0, plan)
        with pytest.raises(ValueError):
            total_loss(0.0, np.inf, 0.0, 0.0, plan)


def frozen_objective(plan, step):
    """The transport-side objective at the step's features, all plans held constant."""
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


def fd_feature_grads(plan, step, h=1e-6):
    grads = []
    for arr in step.features:
        fd = np.zeros_like(arr)
        it = np.nditer(arr, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            orig = arr[idx]
            arr[idx] = orig + h
            up = frozen_objective(plan, step)
            arr[idx] = orig - h
            down = frozen_objective(plan, step)
            arr[idx] = orig
            fd[idx] = (up - down) / (2 * h)
            it.iternext()
        grads.append(fd)
    return grads


def frozen_rows_objective(plan, raw_s, raw_t, base_s, base_t, wot, iot):
    """beta*transport + epsilon*intra with each plan's conditional rows frozen.

    A learned side's marginal moves to normalize_weights(raw); every plan row
    (column, for the target side of the cross-domain plan) keeps its shape
    and is rescaled to its atom's new mass, and the value is that plan's cost.
    """
    p_s = normalize_weights(raw_s)
    p_t = normalize_weights(raw_t)
    coupling = wot.coupling
    if plan.learned[0]:
        coupling = coupling * (p_s / normalize_weights(base_s))[:, None]
    if plan.learned[1]:
        coupling = coupling * (p_t / normalize_weights(base_t))[None, :]
    value = plan.beta * ot.coupling_cost(coupling, wot.cost)
    if plan.iot_side is not None:
        marginal, base = ((p_s, base_s), (p_t, base_t))[plan.iot_side]
        iot_coupling = iot.coupling * (marginal / normalize_weights(base))[:, None]
        value += plan.epsilon * ot.coupling_cost(iot_coupling, iot.cost)
    return value


class TestLossBackward:
    def setup_case(self, setting, seed, n_s=5, n_t=4, dim=6):
        rng = np.random.default_rng(seed)
        plan = plan_for_setting(setting)
        feats_s = rng.normal(size=(n_s, dim))
        feats_t = rng.normal(size=(n_t, dim))
        weights = (rng.uniform(0.2, 0.9, n_s), rng.uniform(0.2, 0.9, n_t))
        return plan, transport_step(plan, feats_s, feats_t, weights, solver="exact"), weights

    def check_feature_fd(self, setting, seed):
        plan, step, _ = self.setup_case(setting, seed)
        features, _ = loss_backward(plan, step)
        for grad, fd in zip(features, fd_feature_grads(plan, step)):
            assert np.abs(grad - fd).max() / max(np.abs(fd).max(), 1e-8) <= 1e-4

    def test_feature_gradients_match_fd_pda(self):
        for seed in (0, 1, 2):
            self.check_feature_fd("pda", seed)

    def test_feature_gradients_match_fd_osda(self):
        for seed in (3, 4):
            self.check_feature_fd("osda", seed)

    def test_feature_gradients_match_fd_unida(self):
        for seed in (5, 6):
            self.check_feature_fd("unida", seed)

    def test_feature_gradients_match_fd_csda(self):
        for seed in (7, 8):
            self.check_feature_fd("csda", seed)

    def test_step_keeps_only_the_weights_the_plan_uses(self):
        for setting in ("pda", "osda", "unida", "csda"):
            plan, step, weights = self.setup_case(setting, 14)
            needed = plan.weighted
            assert step.weights == tuple(w if n else None for w, n in zip(weights, needed))
            _, raw = loss_backward(plan, step)
            assert [g is not None for g in raw] == list(needed)

    @pytest.mark.parametrize("setting, seed", [("pda", 11), ("osda", 12), ("unida", 13)])
    def test_raw_weight_gradients_match_fd_of_frozen_rows(self, setting, seed):
        plan, step, (ws, wt) = self.setup_case(setting, seed, n_s=12, n_t=10)
        _, raw_grads = loss_backward(plan, step)
        h = 1e-6
        checked = 0
        for weights, grad in zip((ws, wt), raw_grads):
            if grad is None:
                continue
            fd = np.zeros_like(weights)
            for i in range(weights.size):
                values = []
                for delta in (h, -h):
                    raw = weights.copy()
                    raw[i] += delta
                    raw_s, raw_t = (raw, wt) if weights is ws else (ws, raw)
                    values.append(
                        frozen_rows_objective(plan, raw_s, raw_t, ws, wt, step.wot, step.iot)
                    )
                fd[i] = (values[0] - values[1]) / (2 * h)
            assert np.abs(fd).max() > 1e-4
            assert np.abs(grad - fd).max() / np.abs(fd).max() <= 1e-6
            checked += 1
        assert checked == 2

    def test_zero_couplings_give_zero_gradients(self):
        plan, step, _ = self.setup_case("pda", 9)
        zero = np.zeros_like(step.wot.coupling)
        step = dataclasses.replace(
            step,
            wot=dataclasses.replace(step.wot, coupling=zero),
            partial=np.zeros_like(zero),
            iot=dataclasses.replace(step.iot, coupling=np.zeros_like(step.iot.coupling)),
        )
        features, raw = loss_backward(plan, step)
        for grad in features + raw:
            assert (grad == 0).all()

    def test_single_pair_equals_analytic_cosine_gradient(self):
        u = np.array([[0.8, -0.4, 1.1]])
        v = np.array([[0.2, 0.9, -0.5]])
        plan = plan_for_setting("csda", beta=1.0)
        cost = ot.cosine_cost(u, v)
        wot = TransportTerm(float(cost[0, 0]), np.array([[1.0]]), cost, True)
        features, raw = loss_backward(
            plan, TransportStep((u, v), (None, None), wot, None, 0.0, None)
        )
        nu, nv = np.linalg.norm(u[0]), np.linalg.norm(v[0])
        uhat, vhat = u[0] / nu, v[0] / nv
        cos = float(uhat @ vhat)
        assert_allclose(features[0][0], (cos * uhat - vhat) / nu, atol=1e-12)
        assert_allclose(features[1][0], (cos * vhat - uhat) / nv, atol=1e-12)
        assert raw == (None, None)

    def test_weight_gradient_zero_for_constant_conditional_cost(self):
        # uniform plan over a constant cost: every atom has the same expected
        # cost, and normalization cancels any constant gradient exactly
        plan = plan_for_setting("pda", epsilon=0.0)
        n = 4
        coupling = np.full((n, n), 1.0 / n**2)
        cost = np.full((n, n), 0.7)
        weights = (np.full(n, 0.5), np.full(n, 0.5))
        step = TransportStep(
            (np.eye(n), np.eye(n)),
            weights,
            TransportTerm(0.7, coupling, cost, True),
            partial_coupling(coupling, cost, 0.7),
            0.0,
            TransportTerm(0.0, np.zeros((n, n)), np.zeros((n, n)), True),
        )
        _, raw = loss_backward(plan, step)
        assert_allclose(raw[0], np.zeros(n), atol=1e-15)

    def test_weight_gradient_prefers_cheap_atoms(self):
        # the atom with lower conditional transport cost gets the smaller
        # (more negative after centering) raw gradient, so gradient descent
        # raises its weight relative to the expensive atom
        plan = plan_for_setting("pda", beta=1.0, eta=0.0, epsilon=0.0)
        fs = np.array([[1.0, 0.0], [0.0, 1.0]])
        ft = np.array([[1.0, 0.1], [-1.0, 0.3]])
        ws = np.array([0.5, 0.5])
        wt = np.array([0.5, 0.5])
        step = transport_step(plan, fs, ft, (ws, wt), solver="exact")
        cond = (step.wot.coupling * step.wot.cost).sum(axis=1) / normalize_weights(ws)
        source_raw = loss_backward(plan, step)[1][0]
        assert source_raw[np.argmin(cond)] < source_raw[np.argmax(cond)]
