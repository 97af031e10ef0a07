"""Per-setting training plans.

Four label-space relationships between source and target are supported, each
named by its standard acronym: UniDA (both domains hold private classes), PDA
(target classes are a subset of the source's), OSDA (source classes are a
subset of the target's), and CSDA (identical label sets). One plan object
captures everything that changes across them: which side of the cross-domain
transport uses learned instance weights as its marginal, whether the
separation and intra-domain terms are active, which domain the intra-domain
term scores, and the loss coefficients.
"""

import logging
import math
from dataclasses import dataclass
from enum import Enum

from .errors import ConfigError

log = logging.getLogger(__name__)

DEFAULT_BETA = 0.1
DEFAULT_ETA = 0.3
DEFAULT_EPSILON = 0.05

LEARNED = "learned"
UNIFORM = "uniform"


class Setting(Enum):
    UNIDA = "unida"
    PDA = "pda"
    OSDA = "osda"
    CSDA = "csda"


def parse_setting(name):
    """Map a case-insensitive setting name to its enum member."""
    if isinstance(name, Setting):
        return name
    try:
        return Setting(str(name).strip().lower())
    except ValueError:
        valid = ", ".join(s.value for s in Setting)
        raise ConfigError("unknown setting %r (expected one of: %s)" % (name, valid)) from None


@dataclass(frozen=True)
class SettingPlan:
    """Which loss terms run, with what weights, and which marginals are learned."""

    setting: Setting
    source_marginal: str
    target_marginal: str
    use_sa: bool
    use_iot: bool
    iot_domain: str  # "source", "target", or "none"
    beta: float
    eta: float
    epsilon: float

    @property
    def needs_source_weights(self):
        """True when source instance weights feed any marginal of this plan."""
        return self.source_marginal == LEARNED or (self.use_iot and self.iot_domain == "source")

    @property
    def needs_target_weights(self):
        """True when target instance weights feed any marginal of this plan."""
        return self.target_marginal == LEARNED or (self.use_iot and self.iot_domain == "target")


def plan_for_setting(setting, beta=DEFAULT_BETA, eta=DEFAULT_ETA, epsilon=DEFAULT_EPSILON):
    """Build the training plan for a setting, applying its forced overrides.

    UniDA keeps no intra-domain term, so a nonzero epsilon is forced to zero;
    CSDA runs only classification plus transport alignment, so eta and epsilon
    are forced to zero. Forced overrides of a nonzero request are logged.
    """
    setting = parse_setting(setting)
    for name, value in (("beta", beta), ("eta", eta), ("epsilon", epsilon)):
        if not isinstance(value, (int, float)) or not 0 <= value < math.inf:
            raise ConfigError("%s must be a finite nonnegative number, got %r" % (name, value))
    beta, eta, epsilon = float(beta), float(eta), float(epsilon)

    if setting is Setting.UNIDA:
        if epsilon != 0.0:
            log.info("UniDA has no intra-domain term; overriding epsilon=%g to 0", epsilon)
            epsilon = 0.0
        return SettingPlan(setting, LEARNED, LEARNED, True, False, "none", beta, eta, epsilon)
    if setting is Setting.PDA:
        return SettingPlan(setting, LEARNED, UNIFORM, True, True, "target", beta, eta, epsilon)
    if setting is Setting.OSDA:
        return SettingPlan(setting, UNIFORM, LEARNED, True, True, "source", beta, eta, epsilon)
    # CSDA: matched label sets need no separation or intra-domain shaping.
    if eta != 0.0:
        log.info("CSDA uses no separation term; overriding eta=%g to 0", eta)
    if epsilon != 0.0:
        log.info("CSDA uses no intra-domain term; overriding epsilon=%g to 0", epsilon)
    return SettingPlan(setting, UNIFORM, UNIFORM, False, False, "none", beta, 0.0, 0.0)
