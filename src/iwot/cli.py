"""Command-line entry points: generate, train, eval, ot-check.

A run is configured by an INI file with three sections. Each section's keys
are the fields of the dataclasses named here; a field without a default is a
required key:

    [experiment]  ExperimentSpec: setting (unida|pda|osda|csda), seed, beta,
                  eta, epsilon
    [data]        LabelSplit, DataSize and ShiftSpec (translation is a single
                  value or a comma list)
    [train]       TrainConfig, except seed, which lives only in [experiment]

Unknown sections or keys are rejected with the offending name. `--seed`
overrides the configured seed; both must be nonnegative. Every subcommand
writes its outputs atomically and then a manifest (manifest_<command>.json)
into the output directory recording command, inputs, seed and those outputs,
so every file a manifest names exists whatever the exit code: a command that
fails writes no manifest.

Exit codes: 0 success, 2 configuration error (a size too large to allocate
included), 3 I/O or file-format error, 4 numerical failure.
"""

import argparse
import configparser
import json
import logging
import os
import sys
import time
from dataclasses import MISSING, astuple, dataclass, fields, replace

import numpy as np

from . import ot, reference
from .data import (
    DomainDataset,
    LabelSplit,
    ShiftSpec,
    generate_pair,
    load_dataset,
    save_dataset,
)
from .errors import ConfigError, DataFormatError, DegenerateInputError, NumericalError
from .evaluation import evaluate
from .fileio import atomic_write_text, read_text
from .nets import load_checkpoint, save_checkpoint
from .settings import (
    DEFAULT_BETA,
    DEFAULT_EPSILON,
    DEFAULT_ETA,
    check_split_for_setting,
    parse_setting,
    plan_for_setting,
)
from .training import TrainConfig, TrainedModel, train

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_NUMERIC = 4

SOURCE_FILE = "source.txt"
TARGET_FILE = "target.txt"
CHECKPOINT_FILE = "checkpoint.json"
HISTORY_FILE = "history.csv"
REPORT_JSON = "report.json"
REPORT_CSV = "report.csv"


@dataclass(frozen=True)
class ExperimentSpec:
    """The [experiment] section: the setting, its loss weights and the run's seed."""

    setting: str
    seed: int = 0
    beta: float = DEFAULT_BETA
    eta: float = DEFAULT_ETA
    epsilon: float = DEFAULT_EPSILON


@dataclass(frozen=True)
class DataSize:
    """The [data] keys beside the label split and the shift: width and sample counts."""

    dim: int = 8
    n_source: int = 600
    n_target: int = 600


# Each section's keys are the fields of its dataclasses.
_SECTIONS = {
    "experiment": (ExperimentSpec,),
    "data": (LabelSplit, DataSize, ShiftSpec),
    "train": (TrainConfig,),
}
# Field types whose constructor does not parse their INI text: a comma list.
_CASTS = {tuple: lambda raw: tuple(float(part) for part in raw.split(","))}


def _keys(cls):
    """The fields of `cls` read from the INI file; TrainConfig's seed is [experiment]'s."""
    return [item for item in fields(cls) if not (cls is TrainConfig and item.name == "seed")]


def _load_ini(path):
    if not os.path.exists(path):
        raise OSError("config file %s does not exist" % path)
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(read_text(path, ConfigError), source=path)
    except configparser.Error as exc:
        raise ConfigError("config file %s is not valid INI: %s" % (path, exc)) from exc
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigError("unknown config section [%s]" % section)
        known = {item.name for cls in _SECTIONS[section] for item in _keys(cls)}
        for key in parser[section]:
            if key not in known:
                raise ConfigError("unknown config key [%s] %s" % (section, key))
    return parser


def _build(parser, section, cls, **preset):
    """`cls` from its keys in `section`: a field without a default is required."""
    values = dict(preset)
    for item in _keys(cls):
        if not parser.has_option(section, item.name):
            if item.default is MISSING:
                raise ConfigError("[%s] %s is required" % (section, item.name))
            continue
        raw = parser.get(section, item.name)
        try:
            values[item.name] = _CASTS.get(item.type, item.type)(raw)
        except (ValueError, TypeError):
            raise ConfigError("[%s] %s: cannot parse %r" % (section, item.name, raw)) from None
    return cls(**values)


class ExperimentConfig:
    """Typed view of one INI file: setting plan inputs, data recipe, train knobs."""

    def __init__(self, parser):
        experiment = _build(parser, "experiment", ExperimentSpec)
        self.setting = parse_setting(experiment.setting)
        self.split = _build(parser, "data", LabelSplit)
        self.size = _build(parser, "data", DataSize)
        self.shift = _build(parser, "data", ShiftSpec)
        self.train = _build(parser, "train", TrainConfig, seed=experiment.seed)
        self.plan = plan_for_setting(
            self.setting, experiment.beta, experiment.eta, experiment.epsilon
        )


def _load_experiment(path):
    """The typed config of an INI file and a snapshot of its raw sections."""
    parser = _load_ini(path)
    snapshot = {section: dict(parser.items(section)) for section in parser.sections()}
    return ExperimentConfig(parser), snapshot


def _apply_seed_override(config, args):
    if args.seed is not None:
        config.train = replace(config.train, seed=args.seed)


def _write_manifest(out_dir, command, seed, inputs, outputs, settings):
    doc = {
        "format": "iwot-manifest",
        "version": 1,
        "command": command,
        "created_unix": time.time(),
        "seed": seed,
        "inputs": inputs,
        "outputs": outputs,
        "settings": settings,
    }
    path = os.path.join(out_dir, "manifest_%s.json" % command.replace("-", ""))
    atomic_write_text(path, json.dumps(doc, indent=1) + "\n")
    return path


def cmd_generate(args):
    config, snapshot = _load_experiment(args.config)
    _apply_seed_override(config, args)
    check_split_for_setting(config.split, config.setting)
    source, target = generate_pair(
        config.split,
        config.size.n_source,
        config.size.n_target,
        config.size.dim,
        config.train.seed,
        shift=config.shift,
    )
    os.makedirs(args.out, exist_ok=True)
    save_dataset(os.path.join(args.out, SOURCE_FILE), source)
    save_dataset(os.path.join(args.out, TARGET_FILE), target)
    _write_manifest(
        args.out,
        "generate",
        config.train.seed,
        inputs=[os.path.abspath(args.config)],
        outputs=[SOURCE_FILE, TARGET_FILE],
        settings=snapshot,
    )
    print("wrote %s (%d samples) and %s (%d samples) to %s"
          % (SOURCE_FILE, source.n, TARGET_FILE, target.n, args.out))
    return EXIT_OK


def cmd_train(args):
    config, snapshot = _load_experiment(args.config)
    _apply_seed_override(config, args)
    data_dir = args.data if args.data is not None else args.out
    source_path = os.path.join(data_dir, SOURCE_FILE)
    target_path = os.path.join(data_dir, TARGET_FILE)
    source = load_dataset(source_path)
    target = load_dataset(target_path)
    if source.role != "source" or target.role != "target":
        raise DataFormatError("dataset roles do not match their file names")
    if source.split != config.split or target.split != config.split:
        raise ConfigError("dataset label split does not match the configured split")
    check_split_for_setting(config.split, config.setting)

    model, history = train(source, target, config.plan, config.train)
    meta = {
        "setting": config.setting.value,
        "beta": config.plan.beta,
        "eta": config.plan.eta,
        "epsilon": config.plan.epsilon,
        "split": list(astuple(config.split)),
        "input_dim": source.dim,
        "seed": config.train.seed,
    }
    os.makedirs(args.out, exist_ok=True)
    save_checkpoint(
        os.path.join(args.out, CHECKPOINT_FILE),
        {
            "feature": model.feature_net,
            "classifier": model.classifier_net,
            "weight": model.weight_net,
        },
        meta,
    )
    history.save_csv(os.path.join(args.out, HISTORY_FILE))
    _write_manifest(
        args.out,
        "train",
        config.train.seed,
        inputs=[os.path.abspath(p) for p in (args.config, source_path, target_path)],
        outputs=[CHECKPOINT_FILE, HISTORY_FILE],
        settings=snapshot,
    )
    print("trained %d steps; final total loss %.6f" % (len(history), history.records[-1].total))
    print("wrote %s and %s to %s" % (CHECKPOINT_FILE, HISTORY_FILE, args.out))
    return EXIT_OK


def _model_from_checkpoint(path):
    networks, meta = load_checkpoint(path)
    for name in ("feature", "classifier", "weight"):
        if name not in networks:
            raise DataFormatError("checkpoint is missing the %r network" % name)
    for key in ("setting", "beta", "eta", "epsilon", "split", "input_dim"):
        if key not in meta:
            raise DataFormatError("checkpoint metadata is missing %r" % key)
    split = meta["split"]
    if not (
        isinstance(split, list)
        and len(split) == 3
        and all(type(count) is int and count >= 0 for count in split)
    ):
        raise DataFormatError("checkpoint metadata 'split' is not three class counts: %r" % (split,))
    input_dim = meta["input_dim"]
    if type(input_dim) is not int or input_dim != networks["feature"].input_dim:
        raise DataFormatError(
            "checkpoint metadata 'input_dim' %r is not the feature network's input width %d"
            % (input_dim, networks["feature"].input_dim)
        )
    feature_width = networks["feature"].output_dim
    for name, classes in (("classifier", split[0] + split[1]), ("weight", 1)):
        net = networks[name]
        if (net.input_dim, net.output_dim) != (feature_width, classes):
            raise DataFormatError(
                "checkpoint network %r maps %d inputs to %d outputs, expected %d to %d"
                % (name, net.input_dim, net.output_dim, feature_width, classes)
            )
    model = TrainedModel(networks["feature"], networks["classifier"], networks["weight"])
    try:
        plan = plan_for_setting(meta["setting"], meta["beta"], meta["eta"], meta["epsilon"])
        check_split_for_setting(LabelSplit(*split), plan.setting)
    except ConfigError as exc:
        raise DataFormatError("checkpoint metadata: %s" % exc) from None
    return model, plan, meta


def cmd_eval(args):
    model, plan, meta = _model_from_checkpoint(args.checkpoint)
    target = load_dataset(args.data)
    if target.role != "target":
        raise ConfigError("eval expects a target-role dataset, got %r" % target.role)
    if target.dim != model.feature_net.input_dim:
        raise ConfigError(
            "dataset dimension %d does not match the checkpoint's input width %d"
            % (target.dim, model.feature_net.input_dim)
        )
    split = list(astuple(target.split))
    if meta["split"] != split:
        raise ConfigError(
            "dataset split %r does not match the checkpoint's split %r" % (split, meta["split"])
        )
    source = None
    inputs = [os.path.abspath(args.checkpoint), os.path.abspath(args.data)]
    if args.source is not None:
        source = load_dataset(args.source)
        if source.dim != target.dim:
            raise ConfigError("source and target dataset dimensionalities differ")
        inputs.append(os.path.abspath(args.source))

    report = evaluate(model, target, plan, source=source)
    os.makedirs(args.out, exist_ok=True)
    report.save_json(os.path.join(args.out, REPORT_JSON))
    report.save_csv(os.path.join(args.out, REPORT_CSV))
    _write_manifest(
        args.out,
        "eval",
        meta.get("seed"),
        inputs=inputs,
        outputs=[REPORT_JSON, REPORT_CSV],
        settings={"setting": meta["setting"]},
    )
    for key, value in report.to_dict().items():
        if isinstance(value, dict):  # the per-class accuracies
            continue
        print("%s: %s" % (key, "n/a" if value is None else value))
    return EXIT_OK


def cmd_ot_check(args):
    if args.size < 2 or args.size > 6:
        raise ConfigError("--size must be between 2 and 6")
    if args.instances < 1:
        raise ConfigError("--instances must be at least 1")
    if not (np.isfinite(args.reg) and args.reg > 0):
        raise ConfigError("--reg must be positive and finite")
    if args.seed < 0:
        raise ConfigError("--seed must be nonnegative, got %d" % args.seed)
    rng = np.random.default_rng(args.seed)
    n = args.size
    uniform = np.full(n, 1.0 / n)
    vertex_ok = n * n <= 20

    max_perm_gap = 0.0
    max_vertex_gap = 0.0
    max_entropic_gap = 0.0
    max_marginal_err = 0.0
    converged = 0
    for _ in range(args.instances):
        cost = rng.uniform(0.0, 2.0, size=(n, n))
        exact_plan = ot.solve_exact(cost, uniform, uniform)
        exact_value = ot.coupling_cost(exact_plan, cost)
        max_perm_gap = max(
            max_perm_gap, abs(exact_value - reference.permutation_transport(cost))
        )
        if vertex_ok:
            raw = rng.uniform(0.1, 1.0, size=2 * n)
            p1, p2 = raw[:n] / raw[:n].sum(), raw[n:] / raw[n:].sum()
            general_plan = ot.solve_exact(cost, p1, p2)
            max_vertex_gap = max(
                max_vertex_gap,
                abs(
                    ot.coupling_cost(general_plan, cost)
                    - reference.vertex_transport(cost, p1, p2)
                ),
            )
        entropic = ot.solve_sinkhorn(cost, uniform, uniform, reg=args.reg, max_iter=20000)
        converged += entropic.converged
        max_entropic_gap = max(
            max_entropic_gap, abs(ot.coupling_cost(entropic.coupling, cost) - exact_value)
        )
        # Feasibility is judged on the returned coupling, which the solver
        # projects onto the polytope; marginal_error reports the raw iterate.
        check = ot.validate_coupling(entropic.coupling, uniform, uniform)
        max_marginal_err = max(max_marginal_err, check.max_row_dev, check.max_col_dev)
        last = (cost, exact_plan, entropic.coupling)

    perm_pass = max_perm_gap <= 1e-8
    vertex_pass = (not vertex_ok) or max_vertex_gap <= 1e-6
    entropic_tol = max(1e-3, 2.0 * args.reg)
    entropic_pass = max_entropic_gap <= entropic_tol and max_marginal_err <= 1e-6
    print(
        "exact vs permutation oracle: max gap %.3e over %d instances [%s]"
        % (max_perm_gap, args.instances, "OK" if perm_pass else "FAIL")
    )
    if vertex_ok:
        print(
            "exact vs vertex oracle (general marginals): max gap %.3e [%s]"
            % (max_vertex_gap, "OK" if vertex_pass else "FAIL")
        )
    print(
        "entropic (reg=%g) vs exact: max objective gap %.3e (tol %.1e), "
        "max marginal error %.3e, converged %d/%d [%s]"
        % (args.reg, max_entropic_gap, entropic_tol, max_marginal_err, converged,
           args.instances, "OK" if entropic_pass else "FAIL")
    )

    if args.out is not None:
        os.makedirs(args.out, exist_ok=True)
        cost, exact_plan, entropic_plan = last
        ot.write_matrix_csv(os.path.join(args.out, "cost.csv"), cost)
        ot.write_matrix_csv(os.path.join(args.out, "coupling_exact.csv"), exact_plan)
        ot.write_matrix_csv(os.path.join(args.out, "coupling_entropic.csv"), entropic_plan)
        _write_manifest(
            args.out,
            "ot-check",
            args.seed,
            inputs=[],
            outputs=["cost.csv", "coupling_exact.csv", "coupling_entropic.csv"],
            settings={"size": n, "instances": args.instances, "reg": args.reg},
        )

    if perm_pass and vertex_pass and entropic_pass:
        print("ot-check: PASS")
        return EXIT_OK
    print("ot-check: FAIL")
    return EXIT_NUMERIC


def build_parser():
    parser = argparse.ArgumentParser(
        prog="iwot",
        description="Instance-weighted transport for unsupervised domain adaptation.",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="log progress to stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="synthesize a source/target dataset pair")
    gen.add_argument("--config", required=True, help="experiment INI file")
    gen.add_argument("--out", required=True, help="output directory")
    gen.add_argument("--seed", type=int, default=None, help="override the configured seed")
    gen.set_defaults(func=cmd_generate)

    tr = sub.add_parser("train", help="train the adaptation model on generated data")
    tr.add_argument("--config", required=True, help="experiment INI file")
    tr.add_argument("--out", required=True, help="output directory")
    tr.add_argument(
        "--data", default=None, help="directory holding source.txt/target.txt (default: --out)"
    )
    tr.add_argument("--seed", type=int, default=None, help="override the configured seed")
    tr.set_defaults(func=cmd_train)

    ev = sub.add_parser("eval", help="score a checkpoint on a labeled target dataset")
    ev.add_argument("--checkpoint", required=True, help="checkpoint.json from train")
    ev.add_argument("--data", required=True, help="target dataset file")
    ev.add_argument(
        "--source", default=None, help="source dataset file (enables the domain-gap diagnostic)"
    )
    ev.add_argument("--out", required=True, help="output directory")
    ev.set_defaults(func=cmd_eval)

    oc = sub.add_parser("ot-check", help="compare the transport solvers against enumeration")
    oc.add_argument("--size", type=int, default=4, help="instance size n (2..6)")
    oc.add_argument("--instances", type=int, default=20, help="number of random instances")
    oc.add_argument("--seed", type=int, default=0, help="RNG seed for the instances")
    oc.add_argument("--reg", type=float, default=1e-3, help="entropic regularization")
    oc.add_argument("--out", default=None, help="optional directory for CSV dumps")
    oc.set_defaults(func=cmd_ot_check)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except ConfigError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as exc:
        # A configured size too large to allocate; NumPy's message names the array.
        detail = str(exc) or "allocation failed"
        print("config error: out of memory: %s" % detail, file=sys.stderr)
        return EXIT_CONFIG
    except (DataFormatError, OSError) as exc:
        print("input/output error: %s" % exc, file=sys.stderr)
        return EXIT_IO
    except (NumericalError, DegenerateInputError) as exc:
        print("numerical error: %s" % exc, file=sys.stderr)
        return EXIT_NUMERIC


def console_main():
    sys.exit(main())


if __name__ == "__main__":
    console_main()
