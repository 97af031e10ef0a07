"""Command-line entry points: generate, train, eval, ot-check.

A run is configured by an INI file with three sections:

    [experiment]  setting (unida|pda|osda|csda), seed, beta, eta, epsilon
    [data]        n_common, n_source_private, n_target_private (required),
                  dim, n_source, n_target, spread, rotation, translation
                  (single value or comma list), noise_std
    [train]       epochs, warmup_epochs, batch_size, learning_rate, momentum,
                  weight_decay, weight_lr_scale, solver (exact|sinkhorn),
                  sinkhorn_reg, sinkhorn_tol, sinkhorn_max_iter, hidden_dim,
                  feature_dim

Unknown sections or keys are rejected with the offending name. `--seed`
overrides the configured seed. Every subcommand writes its outputs
atomically and then a manifest (manifest_<command>.json) into the output
directory recording command, inputs, seed and those outputs, so every file a
manifest names exists whatever the exit code: a command that fails writes no
manifest.

Exit codes: 0 success, 2 configuration error, 3 I/O or file-format error,
4 numerical failure.
"""

import argparse
import configparser
import json
import logging
import os
import sys
import time

import numpy as np

from . import ot, reference
from .data import (
    DomainDataset,
    LabelSplit,
    ShiftSpec,
    check_split_for_setting,
    generate_pair,
    load_dataset,
    save_dataset,
)
from .errors import ConfigError, DataFormatError, DegenerateInputError, NumericalError
from .evaluation import evaluate
from .fileio import atomic_write_text
from .nets import load_checkpoint, save_checkpoint
from .settings import (
    DEFAULT_BETA,
    DEFAULT_EPSILON,
    DEFAULT_ETA,
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

_REQUIRED = object()

_KNOWN_KEYS = {
    "experiment": {"setting", "seed", "beta", "eta", "epsilon"},
    "data": {
        "dim",
        "n_source",
        "n_target",
        "n_common",
        "n_source_private",
        "n_target_private",
        "spread",
        "rotation",
        "translation",
        "noise_std",
    },
    "train": {
        "epochs",
        "warmup_epochs",
        "batch_size",
        "learning_rate",
        "momentum",
        "weight_decay",
        "weight_lr_scale",
        "solver",
        "sinkhorn_reg",
        "sinkhorn_tol",
        "sinkhorn_max_iter",
        "hidden_dim",
        "feature_dim",
    },
}


def _load_ini(path):
    if not os.path.exists(path):
        raise OSError("config file %s does not exist" % path)
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path, "r", encoding="utf-8") as handle:
            parser.read_file(handle)
    except configparser.Error as exc:
        raise ConfigError("config file %s is not valid INI: %s" % (path, exc)) from exc
    for section in parser.sections():
        if section not in _KNOWN_KEYS:
            raise ConfigError("unknown config section [%s]" % section)
        for key in parser[section]:
            if key not in _KNOWN_KEYS[section]:
                raise ConfigError("unknown config key [%s] %s" % (section, key))
    return parser


def _get(parser, section, key, cast, default=_REQUIRED):
    if not parser.has_option(section, key):
        if default is _REQUIRED:
            raise ConfigError("[%s] %s is required" % (section, key))
        return default
    raw = parser.get(section, key)
    try:
        return cast(raw)
    except (ValueError, TypeError):
        raise ConfigError("[%s] %s: cannot parse %r" % (section, key, raw)) from None


def _parse_translation(raw):
    return tuple(float(part) for part in raw.split(","))


class ExperimentConfig:
    """Typed view of one INI file: setting plan inputs, data recipe, train knobs."""

    def __init__(self, parser):
        self.setting = parse_setting(_get(parser, "experiment", "setting", str))
        self.seed = _get(parser, "experiment", "seed", int, 0)
        self.beta = _get(parser, "experiment", "beta", float, DEFAULT_BETA)
        self.eta = _get(parser, "experiment", "eta", float, DEFAULT_ETA)
        self.epsilon = _get(parser, "experiment", "epsilon", float, DEFAULT_EPSILON)

        self.split = LabelSplit(
            _get(parser, "data", "n_common", int),
            _get(parser, "data", "n_source_private", int),
            _get(parser, "data", "n_target_private", int),
        )
        self.dim = _get(parser, "data", "dim", int, 8)
        self.n_source = _get(parser, "data", "n_source", int, 600)
        self.n_target = _get(parser, "data", "n_target", int, 600)
        self.shift = ShiftSpec(
            rotation=_get(parser, "data", "rotation", float, ShiftSpec.rotation),
            translation=_get(parser, "data", "translation", _parse_translation, ShiftSpec.translation),
            noise_std=_get(parser, "data", "noise_std", float, ShiftSpec.noise_std),
            spread=_get(parser, "data", "spread", float, ShiftSpec.spread),
        )

        self.train = TrainConfig(
            epochs=_get(parser, "train", "epochs", int, TrainConfig.epochs),
            warmup_epochs=_get(
                parser, "train", "warmup_epochs", int, TrainConfig.warmup_epochs
            ),
            batch_size=_get(parser, "train", "batch_size", int, TrainConfig.batch_size),
            learning_rate=_get(
                parser, "train", "learning_rate", float, TrainConfig.learning_rate
            ),
            momentum=_get(parser, "train", "momentum", float, TrainConfig.momentum),
            weight_decay=_get(parser, "train", "weight_decay", float, TrainConfig.weight_decay),
            weight_lr_scale=_get(
                parser, "train", "weight_lr_scale", float, TrainConfig.weight_lr_scale
            ),
            solver=_get(parser, "train", "solver", str, TrainConfig.solver),
            sinkhorn_reg=_get(parser, "train", "sinkhorn_reg", float, TrainConfig.sinkhorn_reg),
            sinkhorn_tol=_get(parser, "train", "sinkhorn_tol", float, TrainConfig.sinkhorn_tol),
            sinkhorn_max_iter=_get(
                parser, "train", "sinkhorn_max_iter", int, TrainConfig.sinkhorn_max_iter
            ),
            hidden_dim=_get(parser, "train", "hidden_dim", int, TrainConfig.hidden_dim),
            feature_dim=_get(parser, "train", "feature_dim", int, TrainConfig.feature_dim),
            seed=_get(parser, "experiment", "seed", int, 0),
        )
        self.plan = plan_for_setting(self.setting, self.beta, self.eta, self.epsilon)

    def snapshot(self, parser):
        return {section: dict(parser.items(section)) for section in parser.sections()}


def _load_experiment(path):
    parser = _load_ini(path)
    config = ExperimentConfig(parser)
    return config, config.snapshot(parser)


def _apply_seed_override(config, args):
    if args.seed is not None:
        config.seed = args.seed
        config.train.seed = args.seed


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


def _ensure_out_dir(path):
    os.makedirs(path, exist_ok=True)


def cmd_generate(args):
    config, snapshot = _load_experiment(args.config)
    _apply_seed_override(config, args)
    check_split_for_setting(config.split, config.setting)
    source, target = generate_pair(
        config.split,
        config.n_source,
        config.n_target,
        config.dim,
        config.seed,
        shift=config.shift,
    )
    _ensure_out_dir(args.out)
    save_dataset(os.path.join(args.out, SOURCE_FILE), source)
    save_dataset(os.path.join(args.out, TARGET_FILE), target)
    _write_manifest(
        args.out,
        "generate",
        config.seed,
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
        "split": [
            config.split.n_common,
            config.split.n_source_private,
            config.split.n_target_private,
        ],
        "input_dim": source.dim,
        "seed": config.seed,
    }
    _ensure_out_dir(args.out)
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
        config.seed,
        inputs=[os.path.abspath(p) for p in (args.config, source_path, target_path)],
        outputs=[CHECKPOINT_FILE, HISTORY_FILE],
        settings=snapshot,
    )
    last = history.records[-1] if history.records else None
    if last is not None:
        print("trained %d steps; final total loss %.6f" % (len(history), last.total))
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
    feature_width = networks["feature"].output_dim
    for name, classes in (("classifier", split[0] + split[1]), ("weight", 1)):
        net = networks[name]
        if (net.input_dim, net.output_dim) != (feature_width, classes):
            raise DataFormatError(
                "checkpoint network %r maps %d inputs to %d outputs, expected %d to %d"
                % (name, net.input_dim, net.output_dim, feature_width, classes)
            )
    model = TrainedModel(networks["feature"], networks["classifier"], networks["weight"])
    plan = plan_for_setting(meta["setting"], meta["beta"], meta["eta"], meta["epsilon"])
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
    split = [target.split.n_common, target.split.n_source_private, target.split.n_target_private]
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
    _ensure_out_dir(args.out)
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
        if key == "per_class_acc":
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
    rng = np.random.default_rng(args.seed)
    n = args.size
    uniform = np.full(n, 1.0 / n)
    vertex_ok = n * n <= 20

    max_perm_gap = 0.0
    max_vertex_gap = 0.0
    max_entropic_gap = 0.0
    max_marginal_err = 0.0
    last = None
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
        max_entropic_gap = max(
            max_entropic_gap, abs(ot.coupling_cost(entropic.coupling, cost) - exact_value)
        )
        # Feasibility is judged on the returned coupling, which the solver
        # projects onto the polytope; marginal_error reports the raw iterate.
        row_dev = np.abs(entropic.coupling.sum(axis=1) - uniform).max()
        col_dev = np.abs(entropic.coupling.sum(axis=0) - uniform).max()
        max_marginal_err = max(max_marginal_err, row_dev, col_dev)
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
        "max marginal error %.3e [%s]"
        % (args.reg, max_entropic_gap, entropic_tol, max_marginal_err,
           "OK" if entropic_pass else "FAIL")
    )

    if args.out is not None:
        _ensure_out_dir(args.out)
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
