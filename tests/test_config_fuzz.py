"""The CLI failure contract, swept over every config key and a set of extreme values.

Each case sets one key of the INI schema (`cli._SECTIONS`) to one extreme
value and runs the command that reads it: `generate` for [experiment] and
[data], `train` on a tiny pre-generated pair for [train]. Whatever the value,
the run must end in a documented exit code (0, 2, 3 or 4), write at most one
line to stderr (log warnings and Python warnings count as lines, as the CLI
would print them), and leave no manifest when it fails. An exception that
escapes `main` would be exit 1; the sweep lists every violating case.
"""

import logging
import os
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


def run_case(tmp_path, capfd, caplog, command, section, key, value, data_dir=None):
    """Violations of the failure contract by one run, as a list of strings."""
    case = "%s-%s-%d" % (section, key, EXTREMES.index(value))
    config = tmp_path / (case + ".ini")
    config.write_text(config_text(section, key, value), encoding="utf-8")
    out = tmp_path / case
    argv = [command, "--config", str(config), "--out", str(out)]
    if data_dir is not None:
        argv += ["--data", data_dir]
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
    return ["[%s] %s = %r: %s" % (section, key, value, p) for p in problems]


@pytest.mark.parametrize("section", ["experiment", "data"])
def test_generate_failure_contract(tmp_path, capfd, caplog, section):
    problems = []
    for key, value in cases(section):
        problems += run_case(tmp_path, capfd, caplog, "generate", section, key, value)
    assert problems == []


def test_train_failure_contract(tmp_path, capfd, caplog):
    base = tmp_path / "base.ini"
    base.write_text(config_text("experiment", "seed", "0"), encoding="utf-8")
    data_dir = str(tmp_path / "data")
    assert main(["generate", "--config", str(base), "--out", data_dir]) == 0
    problems = []
    for key, value in cases("train"):
        problems += run_case(tmp_path, capfd, caplog, "train", "train", key, value, data_dir)
    assert problems == []

