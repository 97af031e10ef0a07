"""The CLI failure contract, swept over config values and corrupted input files.

The config sweep sets one key of the INI schema (`cli._SECTIONS`) to one
extreme value and runs the command that reads it: `generate` for
[experiment] and [data], `train` on a tiny pre-generated pair for [train].
The file sweep corrupts the bytes of a tiny `source.txt` (run through
`train`), `target.txt` and `checkpoint.json` (both run through `eval`),
and replaces single checkpoint entries with values of the wrong JSON type.
Whatever the input, the run must end in a documented exit code (0, 2, 3 or
4), write at most one line to stderr (log warnings and Python warnings count
as lines, as the CLI would print them), and leave no manifest when it fails.
An exception that escapes `main` would be exit 1; each sweep lists every
violating case.
"""

import json
import logging
import os
import shutil
import warnings

import pytest

from iwot import cli
from iwot.cli import main

EXTREMES = ["0", "-1", "nan", "inf", "-inf", "1e308", str(10**20), str(2**60), "", "abc"]
# A huge loop count is valid and would only run long, so these keys get only
# non-positive, non-finite or non-numeric values.
LOOP_COUNTS = {"epochs", "warmup_epochs", "sinkhorn_max_iter"}
LOOP_EXTREMES = ["0", "-1", "nan", "inf", "-inf", "", "abc"]

BASE = {
    "experiment": {"setting": "pda", "seed": "0"},
    "data": {
        "n_common": "2",
        "n_source_private": "1",
        "n_target_private": "0",
        "dim": "4",
        "n_source": "12",
        "n_target": "12",
    },
    "train": {"epochs": "2", "warmup_epochs": "1", "batch_size": "6"},
}


def config_text(section, key, value):
    sections = {name: dict(keys) for name, keys in BASE.items()}
    sections[section][key] = value
    return "".join(
        "[%s]\n%s\n" % (name, "".join("%s = %s\n" % item for item in keys.items()))
        for name, keys in sections.items()
    )


def cases(section):
    for cls in cli._SECTIONS[section]:
        for item in cli._keys(cls):
            values = LOOP_EXTREMES if item.name in LOOP_COUNTS else EXTREMES
            for value in values:
                yield item.name, value


def run_case(capfd, caplog, argv, out, label):
    """Violations of the failure contract by one CLI run, as a list of strings."""
    caplog.clear()
    capfd.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            code = main(argv)
        except Exception as exc:  # escaping main, the CLI would exit 1
            code = "1, %s: %s" % (type(exc).__name__, exc)
    err_lines = capfd.readouterr().err.splitlines()
    logged = [r for r in caplog.records if r.levelno >= logging.WARNING]
    warned = {(w.category, str(w.message), w.filename, w.lineno) for w in caught}
    problems = []
    if code not in (0, 2, 3, 4):
        problems.append("exit %s" % (code,))
    if len(err_lines) + len(logged) + len(warned) > 1:
        problems.append(
            "stderr %r, log %r, warnings %r"
            % (err_lines, [r.getMessage() for r in logged], sorted(str(w) for w in warned))
        )
    if code != 0 and out.exists() and any(n.startswith("manifest_") for n in os.listdir(out)):
        problems.append("manifest written on exit %d" % code)
    return ["%s: %s" % (label, p) for p in problems]


def run_config_case(tmp_path, capfd, caplog, command, section, key, value, data_dir=None):
    """Violations by `command` run on BASE with one key set to `value`."""
    case = "%s-%s-%d" % (section, key, EXTREMES.index(value))
    config = tmp_path / (case + ".ini")
    config.write_text(config_text(section, key, value), encoding="utf-8")
    out = tmp_path / case
    argv = [command, "--config", str(config), "--out", str(out)]
    if data_dir is not None:
        argv += ["--data", data_dir]
    return run_case(capfd, caplog, argv, out, "[%s] %s = %r" % (section, key, value))


@pytest.mark.parametrize("section", ["experiment", "data"])
def test_generate_failure_contract(tmp_path, capfd, caplog, section):
    problems = []
    for key, value in cases(section):
        problems += run_config_case(tmp_path, capfd, caplog, "generate", section, key, value)
    assert problems == []


def test_train_failure_contract(tmp_path, capfd, caplog):
    base = tmp_path / "base.ini"
    base.write_text(config_text("experiment", "seed", "0"), encoding="utf-8")
    data_dir = str(tmp_path / "data")
    assert main(["generate", "--config", str(base), "--out", data_dir]) == 0
    problems = []
    for key, value in cases("train"):
        problems += run_config_case(
            tmp_path, capfd, caplog, "train", "train", key, value, data_dir
        )
    assert problems == []


def byte_corruptions(data):
    """(name, corrupted bytes) at ten fixed offsets: header bytes and spread body bytes."""
    n = len(data)
    offsets = [0, 9, 20, 31, 45] + [n * k // 5 for k in range(1, 5)] + [n - 1]
    for i in offsets:
        start = data.rfind(b"\n", 0, i) + 1
        end = data.find(b"\n", i) + 1 or n
        yield "0xff@%d" % i, data[:i] + b"\xff" + data[i + 1 :]
        yield "nul@%d" % i, data[:i] + b"\x00" + data[i + 1 :]
        yield "delete@%d" % i, data[:i] + data[i + 1 :]
        yield "truncate@%d" % i, data[:i]
        yield "dup-line@%d" % i, data[:end] + data[start:end] + data[end:]


def set_first(layer, key, value):
    """A change to a network's JSON: entry 0 of `key` in layer `layer` set to `value`."""
    return lambda net: net["layers"][layer][key].__setitem__(0, value)


# One entry of one network replaced: an activation that is not a list, and
# values numpy would convert (null to NaN, "1.0" and true to 1.0, 3.7 rows to
# 3) but that are not the JSON numbers and integers a checkpoint holds.
CHECKPOINT_ENTRIES = {
    "activations=5": ("feature", lambda net: net.update(activations=5)),
    "activations=None": ("feature", lambda net: net.update(activations=None)),
    "layers[0].weight[0]=null": ("feature", set_first(0, "weight", None)),
    "layers[0].bias[0]=null": ("classifier", set_first(0, "bias", None)),
    "layers[0].weight[0]='1.0'": ("weight", set_first(0, "weight", "1.0")),
    "layers[1].weight[0]=true": ("feature", set_first(1, "weight", True)),
    # truncated to an int, 0.7 more rows would still match the weight count
    "layers[0].rows+0.7": (
        "classifier", lambda net: net["layers"][0].update(rows=net["layers"][0]["rows"] + 0.7)
    ),
}


def trained_tiny_run(tmp_path):
    """(config path, run directory holding a tiny pair and its trained checkpoint)."""
    base = tmp_path / "base.ini"
    base.write_text(config_text("experiment", "seed", "0"), encoding="utf-8")
    run_dir = tmp_path / "run"
    assert main(["generate", "--config", str(base), "--out", str(run_dir)]) == 0
    assert main(["train", "--config", str(base), "--out", str(run_dir)]) == 0
    return base, run_dir


def checkpoint_variants(run_dir):
    """(label, network, checkpoint bytes) for each of `CHECKPOINT_ENTRIES`."""
    text = (run_dir / "checkpoint.json").read_text(encoding="utf-8")
    for label, (network, corrupt) in CHECKPOINT_ENTRIES.items():
        checkpoint = json.loads(text)
        corrupt(checkpoint["networks"][network])
        yield label, network, json.dumps(checkpoint).encode()


def eval_argv(data_dir):
    return ["eval", "--checkpoint", str(data_dir / "checkpoint.json"),
            "--data", str(data_dir / "target.txt")]


def test_corrupt_file_failure_contract(tmp_path, capfd, caplog):
    base, run_dir = trained_tiny_run(tmp_path)
    corruptions = {
        name: list(byte_corruptions((run_dir / name).read_bytes()))
        for name in ("source.txt", "target.txt", "checkpoint.json")
    }
    corruptions["checkpoint.json"] += [
        (label, data) for label, _, data in checkpoint_variants(run_dir)
    ]
    problems = []
    for name, variants in corruptions.items():
        for i, (label, data) in enumerate(variants):
            case = tmp_path / ("%s-%d" % (name, i))
            shutil.copytree(run_dir, case / "data")
            (case / "data" / name).write_bytes(data)
            out = case / "out"
            if name == "source.txt":
                argv = ["train", "--config", str(base), "--data", str(case / "data")]
            else:
                argv = eval_argv(case / "data")
            argv += ["--out", str(out)]
            problems += run_case(capfd, caplog, argv, out, "%s %s" % (name, label))
    assert problems == []


def test_checkpoint_entry_of_wrong_json_type_is_format_error(tmp_path, capfd):
    _, run_dir = trained_tiny_run(tmp_path)
    wrong = []
    for label, network, data in checkpoint_variants(run_dir):
        (run_dir / "checkpoint.json").write_bytes(data)
        capfd.readouterr()
        out = tmp_path / label
        code = main(eval_argv(run_dir) + ["--out", str(out)])
        err = capfd.readouterr().err
        if code != 3 or err.count("\n") != 1 or repr(network) not in err or out.exists():
            wrong.append((label, code, err))
    assert wrong == []


def test_nan_checkpoint_weight_stays_numerical_error(tmp_path, capfd):
    _, run_dir = trained_tiny_run(tmp_path)
    checkpoint = json.loads((run_dir / "checkpoint.json").read_text(encoding="utf-8"))
    checkpoint["networks"]["feature"]["layers"][0]["weight"][0] = float("nan")
    (run_dir / "checkpoint.json").write_text(json.dumps(checkpoint), encoding="utf-8")
    assert "NaN" in (run_dir / "checkpoint.json").read_text(encoding="utf-8")
    capfd.readouterr()
    assert main(eval_argv(run_dir) + ["--out", str(tmp_path / "out")]) == 4
    assert capfd.readouterr().err == "numerical error: model parameters are not finite\n"
