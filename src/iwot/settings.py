"""The four label-space settings and the training plan each one implies.

The settings differ only in which domains hold private classes (You et al.,
Universal Domain Adaptation, CVPR 2019). `PRIVATE` records that as a
(source, target) pair: UniDA both, PDA the source only, OSDA the target only,
CSDA neither. Every per-setting rule is read off the pair. A side with private
classes is *learned*: its cross-domain marginal is the normalized instance
weights, the other side's is uniform. The separation term runs when any side
is learned; when exactly one is, the intra-domain term scores the other
side's weights. Inference may reject unknowns when the target is learned, and
a label split fits a setting when its private classes sit on exactly the
setting's sides. A SettingPlan holds the setting and the three loss
coefficients, and answers these rules per side (0 source, 1 target).
"""

import logging
import math
from dataclasses import dataclass, replace
from enum import Enum

from .errors import ConfigError

log = logging.getLogger(__name__)

DEFAULT_BETA = 0.1
DEFAULT_ETA = 0.3
DEFAULT_EPSILON = 0.05


class Setting(Enum):
    UNIDA = "unida"
    PDA = "pda"
    OSDA = "osda"
    CSDA = "csda"


# The two sides of every (source, target) pair, in order.
SIDES = ("source", "target")

# Whether the (source, target) domain holds private classes.
PRIVATE = {
    Setting.UNIDA: (True, True),
    Setting.PDA: (True, False),
    Setting.OSDA: (False, True),
    Setting.CSDA: (False, False),
}


def parse_setting(name):
    """Map a case-insensitive setting name to its enum member."""
    if isinstance(name, Setting):
        return name
    try:
        return Setting(str(name).strip().lower())
    except ValueError:
        valid = ", ".join(s.value for s in Setting)
        raise ConfigError("unknown setting %r (expected one of: %s)" % (name, valid)) from None


def check_split_for_setting(split, setting):
    """Reject a label split whose private classes sit on other sides than the setting's."""
    setting = parse_setting(setting)
    if (split.n_source_private > 0, split.n_target_private > 0) != PRIVATE[setting]:
        needs = ", ".join("%s-private classes: %s" % (side, "yes" if private else "no")
                          for side, private in zip(SIDES, PRIVATE[setting]))
        raise ConfigError("%s needs %s; got split %s" % (setting.value, needs, split))


@dataclass(frozen=True)
class SettingPlan:
    """A setting and its loss coefficients; the setting decides the rest."""

    setting: Setting
    beta: float
    eta: float
    epsilon: float

    @property
    def learned(self):
        """Per side: whether its cross-domain marginal is learned instance weights."""
        return PRIVATE[self.setting]

    @property
    def iot_side(self):
        """The side the intra-domain term scores, or None when the plan has no such term."""
        return self.learned.index(False) if sum(self.learned) == 1 else None

    @property
    def use_sa(self):
        """Whether the separation term runs."""
        return any(self.learned)

    @property
    def weighted(self):
        """Per side: whether any marginal of the plan uses that side's instance weights."""
        return tuple(learned or side == self.iot_side for side, learned in enumerate(self.learned))

    @property
    def rejects_unknowns(self):
        """Whether inference under this plan may emit the unknown label."""
        return self.learned[1]


def plan_for_setting(setting, beta=DEFAULT_BETA, eta=DEFAULT_ETA, epsilon=DEFAULT_EPSILON):
    """Build the training plan for a setting, forcing the coefficients of absent terms to 0.

    A setting that learns no side has no separation term (eta is forced to 0),
    and one that does not learn exactly one side has no intra-domain term
    (epsilon is forced to 0). Forcing a nonzero request is logged.
    """
    setting = parse_setting(setting)
    for name, value in (("beta", beta), ("eta", eta), ("epsilon", epsilon)):
        if not isinstance(value, (int, float)) or not 0 <= value < math.inf:
            raise ConfigError("%s must be a finite nonnegative number, got %r" % (name, value))
    plan = SettingPlan(setting, float(beta), float(eta), float(epsilon))
    for name, term, absent in (("eta", "separation", not plan.use_sa),
                               ("epsilon", "intra-domain", plan.iot_side is None)):
        if absent:
            if getattr(plan, name) != 0.0:
                log.info("%s has no %s term; overriding %s=%g to 0",
                         setting.value, term, name, getattr(plan, name))
            plan = replace(plan, **{name: 0.0})
    return plan
