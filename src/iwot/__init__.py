"""Instance-weighted optimal transport for unsupervised domain adaptation.

The package trains a small feature extractor, classifier and instance-weight
head so that a labeled source domain aligns with an unlabeled target domain
under cosine-cost optimal transport. Learned instance weights serve as
transport marginals, which lets one objective cover four label-space
relationships (UniDA, PDA, OSDA, CSDA) by switching which marginals are
learned and which auxiliary losses run.

Layer map: `ot` and `reference` solve and certify transport problems;
`losses` builds the training objective and its hand-derived gradients;
`nets` is the no-autograd network stack; `settings` encodes the per-setting
plans; `data` synthesizes and serializes dataset pairs; `train`, `evaluate`
and `cli` wire everything into runs.
"""

from .data import DomainDataset, LabelSplit, ShiftSpec, generate_pair, load_dataset, save_dataset
from .errors import ConfigError, DataFormatError, DegenerateInputError, NumericalError
from .evaluation import EvalReport, evaluate, h_score, score_predictions
from .losses import (
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
from .nets import Mlp, SgdMomentum, cross_entropy, load_checkpoint, save_checkpoint
from .ot import (
    CouplingReport,
    SinkhornResult,
    cosine_cost,
    coupling_cost,
    solve_exact,
    solve_sinkhorn,
    validate_coupling,
)
from .settings import Setting, SettingPlan, parse_setting, plan_for_setting
from .training import TrainConfig, TrainHistory, TrainedModel, train

__version__ = "0.1.0"
