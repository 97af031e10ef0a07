"""Per-setting plans: marginal sources, active terms, and forced overrides."""

from dataclasses import fields

import numpy as np
import pytest

from iwot.errors import ConfigError
from iwot.settings import (
    DEFAULT_BETA,
    DEFAULT_EPSILON,
    DEFAULT_ETA,
    Setting,
    SettingPlan,
    parse_setting,
    plan_for_setting,
)


class TestParseSetting:
    def test_canonical_names(self):
        assert parse_setting("unida") is Setting.UNIDA
        assert parse_setting("pda") is Setting.PDA
        assert parse_setting("osda") is Setting.OSDA
        assert parse_setting("csda") is Setting.CSDA

    def test_case_and_whitespace_insensitive(self):
        assert parse_setting("UniDA") is Setting.UNIDA
        assert parse_setting("  PDA ") is Setting.PDA

    def test_enum_passthrough(self):
        assert parse_setting(Setting.OSDA) is Setting.OSDA

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigError):
            parse_setting("open-set")


class TestPlanRows:
    def test_pda_row_with_defaults(self):
        plan = plan_for_setting("pda")
        assert plan.learned == (True, False)
        assert plan.use_sa and plan.iot_side is not None
        assert plan.iot_side == 1
        assert (plan.beta, plan.eta, plan.epsilon) == (0.1, 0.3, 0.05)
        assert (DEFAULT_BETA, DEFAULT_ETA, DEFAULT_EPSILON) == (0.1, 0.3, 0.05)

    def test_osda_row(self):
        plan = plan_for_setting("osda")
        assert plan.learned == (False, True)
        assert plan.use_sa and plan.iot_side is not None
        assert plan.iot_side == 0

    def test_unida_row(self):
        plan = plan_for_setting("unida")
        assert plan.learned == (True, True)
        assert plan.use_sa and plan.iot_side is None
        assert plan.epsilon == 0.0

    def test_csda_row(self):
        plan = plan_for_setting("csda")
        assert plan.learned == (False, False)
        assert not plan.use_sa and plan.iot_side is None
        assert plan.eta == 0.0 and plan.epsilon == 0.0

    def test_unida_requested_epsilon_overridden(self):
        plan = plan_for_setting("unida", epsilon=0.05)
        assert plan.epsilon == 0.0

    def test_csda_requested_eta_epsilon_overridden(self):
        plan = plan_for_setting("csda", eta=0.4, epsilon=0.2)
        assert plan.eta == 0.0 and plan.epsilon == 0.0


class TestWeightNeeds:
    def test_pda_needs_both_weight_passes(self):
        plan = plan_for_setting("pda")
        assert plan.weighted[0]  # learned source marginal
        assert plan.weighted[1]  # intra term runs on the target side

    def test_osda_needs_both_weight_passes(self):
        plan = plan_for_setting("osda")
        assert plan.weighted[0]  # intra term runs on the source side
        assert plan.weighted[1]  # learned target marginal

    def test_unida_needs_both_csda_needs_none(self):
        unida = plan_for_setting("unida")
        assert unida.weighted == (True, True)
        csda = plan_for_setting("csda")
        assert csda.weighted == (False, False)


class TestTable:
    def test_plan_holds_the_setting_and_three_coefficients(self):
        names = [item.name for item in fields(SettingPlan)]
        assert names == ["setting", "beta", "eta", "epsilon"]

    def test_forced_override_is_logged_once_per_nonzero_request(self, caplog):
        with caplog.at_level("INFO", logger="iwot.settings"):
            plan_for_setting("csda", eta=0.4, epsilon=0.2)
            plan_for_setting("unida", epsilon=0.0)
            plan_for_setting("pda")
        assert [r.getMessage() for r in caplog.records] == [
            "csda has no separation term; overriding eta=0.4 to 0",
            "csda has no intra-domain term; overriding epsilon=0.2 to 0",
        ]


class TestInvariantSweep:
    def test_row_invariants_hold_for_random_hyperparameters(self):
        rng = np.random.default_rng(0)
        settings = ("unida", "pda", "osda", "csda")
        for i in range(1000):
            name = settings[i % 4]
            beta = float(rng.uniform(0, 5))
            eta = float(rng.uniform(0, 5))
            epsilon = float(rng.uniform(0, 5))
            plan = plan_for_setting(name, beta=beta, eta=eta, epsilon=epsilon)
            assert plan.beta == beta
            if plan.setting is Setting.CSDA:
                assert plan.learned == (False, False)
                assert not plan.use_sa and plan.iot_side is None
                assert plan.eta == 0.0 and plan.epsilon == 0.0
            elif plan.setting is Setting.UNIDA:
                assert plan.learned == (True, True)
                assert plan.iot_side is None and plan.epsilon == 0.0
                assert plan.eta == eta
            elif plan.setting is Setting.PDA:
                assert plan.learned == (True, False)
                assert plan.iot_side == 1
                assert plan.eta == eta and plan.epsilon == epsilon
            else:
                assert plan.learned == (False, True)
                assert plan.iot_side == 0
                assert plan.eta == eta and plan.epsilon == epsilon

    def test_negative_hyperparameters_rejected(self):
        for kwargs in (
            {"beta": -0.1},
            {"eta": -1.0},
            {"epsilon": -0.01},
            {"beta": np.inf},
            {"eta": np.inf},
            {"epsilon": np.inf},
        ):
            with pytest.raises(ConfigError):
                plan_for_setting("pda", **kwargs)

    def test_non_numeric_hyperparameters_rejected(self):
        with pytest.raises(ConfigError):
            plan_for_setting("pda", beta="0.1")


class TestCsdaReduction:
    def test_csda_transport_equals_uniform_marginal_transport(self):
        from iwot import ot
        from iwot.losses import wot_loss

        rng = np.random.default_rng(1)
        xs = rng.normal(size=(5, 4))
        xt = rng.normal(size=(6, 4))
        plan = plan_for_setting("csda")
        u_s = np.full(5, 0.2)
        u_t = np.full(6, 1.0 / 6)
        assert plan.learned == (False, False)
        term = wot_loss(xs, xt, u_s, u_t, solver="exact")
        cost = ot.cosine_cost(xs, xt)
        expected = ot.coupling_cost(ot.solve_exact(cost, u_s, u_t), cost)
        assert abs(term.value - expected) <= 1e-12
