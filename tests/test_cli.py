"""Command-line flows: generate, train, eval, ot-check, exit codes, manifests."""

import csv
import dataclasses
import json
import os
import warnings

import numpy as np
import pytest

from iwot import cli, nets, ot, reference
from iwot.cli import main
from iwot.data import LabelSplit, load_dataset
from iwot.errors import NumericalError
from iwot.training import TrainConfig

BASE_CONFIG = """\
[experiment]
setting = pda
seed = 0
beta = 0.3

[data]
n_common = 2
n_source_private = 1
n_target_private = 0
dim = 8
n_source = 60
n_target = 60
rotation = 0.4
translation = 0.8
noise_std = 0.2

[train]
epochs = 3
warmup_epochs = 1
batch_size = 20
learning_rate = 0.002
"""


def write_config(tmp_path, text=BASE_CONFIG, name="config.ini"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def run(argv):
    return main(argv)


def assert_manifests_complete(out):
    """Every output that a manifest in `out` names exists beside it."""
    for name in os.listdir(out):
        if name.startswith("manifest_"):
            manifest = json.loads(open(os.path.join(out, name)).read())
            for output in manifest["outputs"]:
                assert os.path.exists(os.path.join(out, output)), (name, output)


class TestGenerate:
    def test_writes_datasets_and_manifest(self, tmp_path, capsys):
        config = write_config(tmp_path)
        out = str(tmp_path / "run")
        assert run(["generate", "--config", config, "--out", out]) == 0
        assert os.path.exists(os.path.join(out, "source.txt"))
        assert os.path.exists(os.path.join(out, "target.txt"))
        manifest = json.loads((tmp_path / "run" / "manifest_generate.json").read_text())
        assert manifest["command"] == "generate"
        assert manifest["seed"] == 0
        assert manifest["outputs"] == ["source.txt", "target.txt"]
        source = load_dataset(os.path.join(out, "source.txt"))
        assert source.n == 60
        assert "wrote" in capsys.readouterr().out

    def test_same_seed_byte_identical(self, tmp_path):
        config = write_config(tmp_path)
        out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
        assert run(["generate", "--config", config, "--out", out_a]) == 0
        assert run(["generate", "--config", config, "--out", out_b]) == 0
        for name in ("source.txt", "target.txt"):
            bytes_a = (tmp_path / "a" / name).read_bytes()
            bytes_b = (tmp_path / "b" / name).read_bytes()
            assert bytes_a == bytes_b

    def test_seed_override_changes_data(self, tmp_path):
        config = write_config(tmp_path)
        out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
        assert run(["generate", "--config", config, "--out", out_a]) == 0
        assert run(["generate", "--config", config, "--out", out_b, "--seed", "5"]) == 0
        assert (tmp_path / "a" / "source.txt").read_bytes() != (
            tmp_path / "b" / "source.txt"
        ).read_bytes()
        manifest = json.loads((tmp_path / "b" / "manifest_generate.json").read_text())
        assert manifest["seed"] == 5

    def test_split_violating_setting_rejected_before_outputs(self, tmp_path, capsys):
        bad = BASE_CONFIG.replace("n_target_private = 0", "n_target_private = 2")
        config = write_config(tmp_path, bad)
        out = str(tmp_path / "run")
        assert run(["generate", "--config", config, "--out", out]) == 2
        assert not os.path.exists(os.path.join(out, "source.txt"))
        assert "config error" in capsys.readouterr().err

    def test_translation_list_of_wrong_length_rejected(self, tmp_path, capsys):
        text = BASE_CONFIG.replace("dim = 8", "dim = 4").replace(
            "translation = 0.8", "translation = 0.8, 0, 1"
        )
        out = tmp_path / "o"
        assert run(["generate", "--config", write_config(tmp_path, text), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "config error: translation has 3 entries but the data has 4 dimensions\n"
        )
        assert not out.exists() or os.listdir(out) == []

    def test_unknown_key_rejected(self, tmp_path, capsys):
        config = write_config(tmp_path, BASE_CONFIG + "\n[data]\n", name="dup.ini")
        # duplicate section is invalid INI
        assert run(["generate", "--config", config, "--out", str(tmp_path / "o")]) == 2
        config = write_config(tmp_path, BASE_CONFIG.replace("rotation", "rotate"))
        assert run(["generate", "--config", config, "--out", str(tmp_path / "o")]) == 2
        assert "rotate" in capsys.readouterr().err

    def test_missing_config_file_is_io_error(self, tmp_path):
        assert run(["generate", "--config", str(tmp_path / "nope.ini"),
                    "--out", str(tmp_path / "o")]) == 3

    def test_dim_below_class_count_rejected(self, tmp_path):
        bad = BASE_CONFIG.replace("dim = 8", "dim = 2")
        config = write_config(tmp_path, bad)
        assert run(["generate", "--config", config, "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize(
        "text, extra",
        [(BASE_CONFIG, ["--seed", "-1"]), (BASE_CONFIG.replace("seed = 0", "seed = -5"), [])],
        ids=["override", "config"],
    )
    def test_negative_seed_rejected(self, tmp_path, capsys, text, extra):
        config = write_config(tmp_path, text)
        out = tmp_path / "o"
        assert run(["generate", "--config", config, "--out", str(out), *extra]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "seed" in err and err.count("\n") == 1
        assert not out.exists() or os.listdir(out) == []

    @pytest.mark.parametrize("key", ["beta", "eta", "epsilon"])
    def test_infinite_hyperparameter_rejected(self, tmp_path, capsys, key):
        line = "%s = inf" % key
        text = BASE_CONFIG.replace("beta = 0.3", line if key == "beta" else "beta = 0.3\n" + line)
        config = write_config(tmp_path, text)
        out = tmp_path / "o"
        assert run(["generate", "--config", config, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == "config error: %s must be a finite nonnegative number, got inf\n" % key
        assert not out.exists()


    @pytest.mark.parametrize(
        "line", ["noise_std = 1e308", "noise_std = 0.2\nspread = 1e300"], ids=["noise", "spread"]
    )
    def test_overflowing_features_rejected(self, tmp_path, capsys, line):
        # Features the loader would reject (inf) or whose squared norms
        # overflow (so every cosine cost is NaN) are never written.
        config = write_config(tmp_path, BASE_CONFIG.replace("noise_std = 0.2", line))
        out = tmp_path / "o"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run(["generate", "--config", config, "--out", str(out)]) == 2
        assert caught == []
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "squared norm" in err and err.count("\n") == 1
        assert not out.exists()

    def test_allocation_failure_is_config_error(self, tmp_path, capsys, monkeypatch):
        message = "Unable to allocate 1.94 TiB for an array with shape (100000000000, 8)"

        def huge(*args, **kwargs):
            raise MemoryError(message)

        monkeypatch.setattr(cli, "generate_pair", huge)
        out = tmp_path / "o"
        assert run(["generate", "--config", write_config(tmp_path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == "config error: out of memory: %s\n" % message
        assert not out.exists()

def train_only(text):
    """BASE_CONFIG with its [train] section replaced by `text`."""
    return BASE_CONFIG.split("[train]")[0] + "[train]\n" + text


def changed_value(item):
    """A valid value for a TrainConfig field that differs from its default."""
    if item.type is str:
        return {"sinkhorn": "exact"}[item.default]
    return item.default + 1 if item.type is int else item.default / 2


class TestConfigSchema:
    @pytest.mark.parametrize(
        "item", [f for f in dataclasses.fields(TrainConfig) if f.name != "seed"],
        ids=lambda f: f.name,
    )
    def test_train_field_reaches_train_config(self, tmp_path, item):
        value = changed_value(item)
        path = write_config(tmp_path, train_only("%s = %s\n" % (item.name, value)))
        config, snapshot = cli._load_experiment(path)
        assert config.train == dataclasses.replace(TrainConfig(), **{item.name: value})
        assert snapshot["train"] == {item.name: str(value)}

    @pytest.mark.parametrize("key", [f.name for f in dataclasses.fields(LabelSplit)])
    def test_split_key_is_required(self, tmp_path, capsys, key):
        text = "\n".join(line for line in BASE_CONFIG.split("\n") if not line.startswith(key))
        config = write_config(tmp_path, text)
        assert run(["generate", "--config", config, "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == "config error: [data] %s is required\n" % key

    def test_non_integer_epochs_cannot_parse(self, tmp_path, capsys):
        config = write_config(tmp_path, BASE_CONFIG.replace("epochs = 3", "epochs = 3.5"))
        assert run(["generate", "--config", config, "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == "config error: [train] epochs: cannot parse '3.5'\n"

    def test_seed_is_not_a_train_key(self, tmp_path, capsys):
        config = write_config(tmp_path, BASE_CONFIG + "seed = 1\n")
        assert run(["generate", "--config", config, "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == "config error: unknown config key [train] seed\n"

    def test_seed_reaches_train_config(self, tmp_path):
        config, _ = cli._load_experiment(
            write_config(tmp_path, BASE_CONFIG.replace("seed = 0", "seed = 7"))
        )
        assert config.train.seed == 7

    def test_translation_comma_list(self, tmp_path):
        text = BASE_CONFIG.replace("translation = 0.8", "translation = 0.8, -0.25,0,1e-3")
        config, _ = cli._load_experiment(write_config(tmp_path, text))
        assert config.shift.translation == (0.8, -0.25, 0.0, 1e-3)


class TestTrainEval:
    @pytest.fixture()
    def generated(self, tmp_path):
        config = write_config(tmp_path)
        out = str(tmp_path / "run")
        assert run(["generate", "--config", config, "--out", out]) == 0
        return config, out

    def test_train_writes_checkpoint_history_manifest(self, generated, capsys):
        config, out = generated
        assert run(["train", "--config", config, "--out", out]) == 0
        assert os.path.exists(os.path.join(out, "checkpoint.json"))
        assert os.path.exists(os.path.join(out, "history.csv"))
        manifest = json.loads(open(os.path.join(out, "manifest_train.json")).read())
        assert manifest["outputs"] == ["checkpoint.json", "history.csv"]
        assert "trained" in capsys.readouterr().out

    def test_history_satisfies_recombination(self, generated):
        config, out = generated
        assert run(["train", "--config", config, "--out", out]) == 0
        with open(os.path.join(out, "history.csv"), encoding="utf-8", newline="") as handle:
            rows = [{k: float(v) for k, v in row.items()} for row in csv.DictReader(handle)]
        assert rows
        beta, eta, epsilon = 0.3, 0.3, 0.05
        for r in rows:
            recombined = (
                r["classification"] + beta * r["transport"] + eta * r["separation"]
                + epsilon * r["intra"]
            )
            assert abs(r["total"] - recombined) <= 1e-10

    @pytest.mark.parametrize("seed_line", ["seed = -5", None], ids=["config", "override"])
    def test_train_negative_seed_rejected(self, generated, tmp_path, capsys, seed_line):
        config, out = generated
        extra = ["--seed", "-1"]
        if seed_line is not None:
            config = write_config(tmp_path, BASE_CONFIG.replace("seed = 0", seed_line), "neg.ini")
            extra = []
        assert run(["train", "--config", config, "--out", out, *extra]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "seed" in err and err.count("\n") == 1
        for name in ("manifest_train.json", "checkpoint.json", "history.csv"):
            assert not os.path.exists(os.path.join(out, name))

    def test_train_infinite_beta_rejected(self, generated, tmp_path, capsys):
        _, out = generated
        config = write_config(tmp_path, BASE_CONFIG.replace("beta = 0.3", "beta = inf"), "inf.ini")
        assert run(["train", "--config", config, "--out", out]) == 2
        assert capsys.readouterr().err == (
            "config error: beta must be a finite nonnegative number, got inf\n"
        )
        for name in ("manifest_train.json", "checkpoint.json", "history.csv"):
            assert not os.path.exists(os.path.join(out, name))

    def test_train_missing_dataset_is_io_error(self, tmp_path, capsys):
        config = write_config(tmp_path)
        out = str(tmp_path / "empty")
        assert run(["train", "--config", config, "--out", out]) == 3
        assert "input/output error" in capsys.readouterr().err

    def test_train_split_mismatch_rejected(self, generated, tmp_path):
        config, out = generated
        other = BASE_CONFIG.replace("n_common = 2", "n_common = 3")
        other_config = write_config(tmp_path, other, name="other.ini")
        assert run(["train", "--config", other_config, "--out", out]) == 2

    def test_diverging_train_is_numerical_error(self, generated, tmp_path, capsys):
        _, out = generated
        diverging = BASE_CONFIG.replace("learning_rate = 0.002", "learning_rate = 50")
        config = write_config(tmp_path, diverging, name="diverging.ini")
        capsys.readouterr()
        assert run(["train", "--config", config, "--out", out]) == 4
        err = capsys.readouterr().err
        assert err.startswith("numerical error: training diverged at step ")
        assert err.count("\n") == 1
        assert not os.path.exists(os.path.join(out, "checkpoint.json"))
        assert not os.path.exists(os.path.join(out, "manifest_train.json"))
        assert_manifests_complete(out)

    def test_tiny_sinkhorn_reg_is_one_line_numerical_error(
        self, generated, tmp_path, capsys, monkeypatch
    ):
        # At reg 1e-300 whole kernel rows underflow; the solve must end in the
        # non-finite-plan error alone, without NumPy's divide-by-zero warning,
        # and stop at the first stage with non-finite potentials instead of
        # walking the ~1000 levels of the schedule down to 1e-300.
        _, out = generated
        config = write_config(tmp_path, BASE_CONFIG + "sinkhorn_reg = 1e-300\n", "tiny.ini")
        stages = []
        real_stage = ot._sinkhorn_stage

        def stage(*args):
            stages.append(args)
            return real_stage(*args)

        monkeypatch.setattr(ot, "_sinkhorn_stage", stage)
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run(["train", "--config", config, "--out", out]) == 4
        assert caught == []
        assert 0 < len(stages) <= 100
        err = capsys.readouterr().err
        assert err == "numerical error: entropic solver produced non-finite plan entries\n"
        for name in ("manifest_train.json", "checkpoint.json", "history.csv"):
            assert not os.path.exists(os.path.join(out, name))

    @pytest.mark.parametrize("classes", [10**8, 10**20])
    def test_huge_split_in_dataset_is_one_line_error(self, generated, capsys, classes):
        config, out = generated
        path = os.path.join(out, "source.txt")
        lines = open(path, encoding="utf-8").read().split("\n")
        lines[3] = "split %d 1 0" % classes
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines))
        capsys.readouterr()
        assert run(["train", "--config", config, "--out", out]) == 2
        err = capsys.readouterr().err
        assert err == "config error: dataset label split does not match the configured split\n"
        for name in ("manifest_train.json", "checkpoint.json", "history.csv"):
            assert not os.path.exists(os.path.join(out, name))

    def test_corrupt_dataset_dim_is_io_error(self, generated, capsys, monkeypatch):
        # A `dim` header of 1e11 over one sample line is a format error on
        # line 7, found before any count x dim allocation is attempted.
        config, out = generated
        path = os.path.join(out, "source.txt")
        lines = open(path, encoding="utf-8").read().split("\n")
        lines[2] = "dim 100000000000"
        lines[5] = "count 1"
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines[:7]) + "\n")
        real_empty = np.empty

        def empty(shape, *args, **kwargs):
            assert np.prod(shape, dtype=float) < 1e8, "allocating %r" % (shape,)
            return real_empty(shape, *args, **kwargs)

        monkeypatch.setattr(np, "empty", empty)
        capsys.readouterr()
        assert run(["train", "--config", config, "--out", out]) == 3
        err = capsys.readouterr().err
        assert err.startswith("input/output error: ") and err.count("\n") == 1
        assert "line 7: expected 100000000001 fields, found 9" in err
        for name in ("manifest_train.json", "checkpoint.json", "history.csv"):
            assert not os.path.exists(os.path.join(out, name))

    def test_train_allocation_failure_is_config_error(self, generated, capsys, monkeypatch):
        _, out = generated
        message = "Unable to allocate 71.1 PiB for an array with shape (100000000, 100000000)"

        def huge(*args, **kwargs):
            raise MemoryError(message)

        monkeypatch.setattr(nets.Mlp, "init", huge)
        capsys.readouterr()
        assert run(["train", "--config", generated[0], "--out", out]) == 2
        assert capsys.readouterr().err == "config error: out of memory: %s\n" % message
        for name in ("manifest_train.json", "checkpoint.json", "history.csv"):
            assert not os.path.exists(os.path.join(out, name))

    def test_eval_reports_and_exit_codes(self, generated, capsys):
        config, out = generated
        assert run(["train", "--config", config, "--out", out]) == 0
        checkpoint = os.path.join(out, "checkpoint.json")
        target = os.path.join(out, "target.txt")
        source = os.path.join(out, "source.txt")
        eval_out = os.path.join(out, "eval")
        code = run(["eval", "--checkpoint", checkpoint, "--data", target,
                    "--source", source, "--out", eval_out])
        assert code == 0
        report = json.loads(open(os.path.join(eval_out, "report.json")).read())
        assert 0.0 <= report["common_acc"] <= 1.0
        assert report["wasserstein_uniform"] is not None
        assert os.path.exists(os.path.join(eval_out, "manifest_eval.json"))
        out_text = capsys.readouterr().out
        assert "common_acc" in out_text
        # The output formats, pinned as literals.
        with open(os.path.join(out, "history.csv"), encoding="utf-8") as handle:
            assert handle.readline() == (
                "step,epoch,classification,transport,separation,intra,total,converged\n"
            )
        assert list(report) == [
            "n_common", "n_evaluated", "per_class_acc", "common_acc", "unknown_acc",
            "h_score", "os_mean", "os_star", "wasserstein_uniform", "wasserstein_learned",
        ]
        assert list(report["per_class_acc"]) == ["0", "1"]
        with open(os.path.join(eval_out, "report.csv"), encoding="utf-8") as handle:
            assert [line.split(",")[0] for line in handle.read().splitlines()] == [
                "metric", "n_common", "n_evaluated", "class_0_acc", "class_1_acc",
                "common_acc", "unknown_acc", "h_score", "os_mean", "os_star",
                "wasserstein_uniform", "wasserstein_learned",
            ]

    def test_eval_gap_solve_failure_is_one_line_numerical_error(
        self, generated, capsys, monkeypatch
    ):
        # The domain-gap diagnostic solves its uniform problem on a worker
        # thread; a failure there still ends the command with exit 4.
        config, out = generated
        assert run(["train", "--config", config, "--out", out]) == 0

        def failing_solve(cost, p1, p2):
            raise NumericalError("exact transport LP failed: the HiGHS run returned an error")

        monkeypatch.setattr(ot, "solve_exact", failing_solve)
        capsys.readouterr()
        eval_out = os.path.join(out, "eval")
        code = run(["eval", "--checkpoint", os.path.join(out, "checkpoint.json"),
                    "--data", os.path.join(out, "target.txt"),
                    "--source", os.path.join(out, "source.txt"), "--out", eval_out])
        assert code == 4
        assert capsys.readouterr().err == (
            "numerical error: exact transport LP failed: the HiGHS run returned an error\n"
        )
        assert not os.path.exists(eval_out)

    def test_eval_source_role_file_rejected(self, generated):
        config, out = generated
        assert run(["train", "--config", config, "--out", out]) == 0
        checkpoint = os.path.join(out, "checkpoint.json")
        source = os.path.join(out, "source.txt")
        code = run(["eval", "--checkpoint", checkpoint, "--data", source,
                    "--out", os.path.join(out, "eval")])
        assert code == 2

    def test_eval_corrupt_checkpoint_is_io_error(self, generated, tmp_path):
        config, out = generated
        bad = tmp_path / "bad.json"
        bad.write_text("{}", encoding="utf-8")
        code = run(["eval", "--checkpoint", str(bad),
                    "--data", os.path.join(out, "target.txt"),
                    "--out", os.path.join(out, "eval")])
        assert code == 3

    @pytest.mark.parametrize("key", ["meta", "networks"])
    def test_eval_checkpoint_entry_not_object_is_io_error(self, generated, tmp_path, capsys, key):
        config, out = generated
        assert run(["train", "--config", config, "--out", out]) == 0
        doc = json.loads(open(os.path.join(out, "checkpoint.json")).read())
        doc[key] = None
        bad = tmp_path / "null_entry.json"
        bad.write_text(json.dumps(doc), encoding="utf-8")
        capsys.readouterr()
        eval_out = os.path.join(out, "eval")
        code = run(["eval", "--checkpoint", str(bad),
                    "--data", os.path.join(out, "target.txt"), "--out", eval_out])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("input/output error: ") and repr(key) in err
        assert err.count("\n") == 1
        assert not os.path.exists(eval_out)

    @pytest.mark.parametrize(
        "corrupt, needle",
        [
            (lambda doc: doc["meta"].update(split=5), "'split'"),
            (lambda doc: doc["meta"].update(split=[2, "1", 1]), "'split'"),
            (lambda doc: doc["networks"]["feature"]["layers"][0]["weight"].__setitem__(0, "x"),
             "'feature'"),
            # the entry count still matches rows * cols
            (lambda doc: [layer.update(rows=-layer["rows"], cols=-layer["cols"])
                          for layer in doc["networks"]["weight"]["layers"]], "'weight'"),
            # each network valid alone, but the classifier no longer fits the
            # feature net's output width
            (lambda doc: doc["networks"]["classifier"]["layers"][0].update(
                rows=1, weight=doc["networks"]["classifier"]["layers"][0]["weight"][:3]),
             "'classifier'"),
            (lambda doc: doc["meta"].update(setting="nope"), "'nope'"),
            (lambda doc: doc["meta"].update(beta="x"), "beta"),
            (lambda doc: doc["meta"].update(beta=-1), "beta"),
            (lambda doc: doc["meta"].update(epsilon=float("inf")), "epsilon"),
            (lambda doc: doc["meta"].update(input_dim="x"), "'input_dim'"),
            (lambda doc: doc["meta"].update(input_dim=doc["meta"]["input_dim"] + 1),
             "'input_dim'"),
            (lambda doc: doc["networks"]["feature"].update(activations=5), "'feature'"),
            (lambda doc: doc["networks"]["feature"].update(activations=None), "'feature'"),
            (lambda doc: doc["networks"].pop("weight"), "missing the 'weight' network"),
            (lambda doc: doc["meta"].pop("epsilon"), "missing 'epsilon'"),
            # a PDA run's split (2/1/0) has no target-private classes
            (lambda doc: doc["meta"].update(setting="unida"), "unida needs"),
        ],
        ids=["split-int", "split-string-count", "weight-non-numeric", "negative-shape",
             "networks-mismatched", "setting-unknown", "beta-string", "beta-negative",
             "epsilon-infinite", "input-dim-string", "input-dim-mismatched",
             "activations-int", "activations-null", "weight-network-missing",
             "epsilon-missing", "setting-unfit-for-split"],
    )
    def test_eval_malformed_checkpoint_value_is_io_error(
        self, generated, tmp_path, capsys, corrupt, needle
    ):
        config, out = generated
        assert run(["train", "--config", config, "--out", out]) == 0
        doc = json.loads(open(os.path.join(out, "checkpoint.json")).read())
        corrupt(doc)
        bad = tmp_path / "malformed.json"
        bad.write_text(json.dumps(doc), encoding="utf-8")
        capsys.readouterr()
        eval_out = os.path.join(out, "eval")
        code = run(["eval", "--checkpoint", str(bad),
                    "--data", os.path.join(out, "target.txt"), "--out", eval_out])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("input/output error: ") and needle in err
        assert err.count("\n") == 1
        assert not os.path.exists(eval_out)

    @pytest.mark.parametrize(
        "change, mismatched, message",
        [
            (("dim = 8", "dim = 6"), "--data",
             "dataset dimension 6 does not match the checkpoint's input width 8"),
            (("n_common = 2", "n_common = 3"), "--data",
             "dataset split [3, 1, 0] does not match the checkpoint's split [2, 1, 0]"),
            (("dim = 8", "dim = 6"), "--source",
             "source and target dataset dimensionalities differ"),
        ],
        ids=["data-dim", "data-split", "source-dim"],
    )
    def test_eval_mismatched_input_is_one_line_config_error(
        self, generated, tmp_path, capsys, change, mismatched, message
    ):
        config, out = generated
        assert run(["train", "--config", config, "--out", out]) == 0
        other = str(tmp_path / "other")
        other_config = write_config(tmp_path, BASE_CONFIG.replace(*change), "other.ini")
        assert run(["generate", "--config", other_config, "--out", other]) == 0
        eval_out = os.path.join(out, "eval")
        argv = ["eval", "--checkpoint", os.path.join(out, "checkpoint.json"), "--out", eval_out]
        for flag, name in (("--data", "target.txt"), ("--source", "source.txt")):
            argv += [flag, os.path.join(other if flag == mismatched else out, name)]
        capsys.readouterr()
        assert run(argv) == 2
        assert capsys.readouterr().err == "config error: %s\n" % message
        assert not os.path.exists(eval_out)

    @pytest.mark.parametrize(
        "name, command, code",
        [("config.ini", "generate", 2), ("source.txt", "train", 3),
         ("target.txt", "eval", 3), ("checkpoint.json", "eval", 3)],
    )
    def test_non_utf8_byte_is_one_line_error(self, generated, capsys, name, command, code):
        config, out = generated
        assert run(["train", "--config", config, "--out", out]) == 0
        path = os.path.join(out, name) if name != "config.ini" else config
        with open(path, "r+b") as handle:
            handle.seek(40)
            handle.write(b"\xff")
        capsys.readouterr()
        argv = {
            "generate": ["generate", "--config", config],
            "train": ["train", "--config", config, "--data", out],
            "eval": ["eval", "--checkpoint", os.path.join(out, "checkpoint.json"),
                     "--data", os.path.join(out, "target.txt")],
        }[command]
        new_out = os.path.join(out, "again")
        assert run(argv + ["--out", new_out]) == code
        err = capsys.readouterr().err
        assert path + " is not UTF-8 text" in err and err.count("\n") == 1
        assert not os.path.exists(new_out)


class TestOtCheck:
    def test_passes_and_prints(self, capsys):
        assert run(["ot-check", "--size", "3", "--instances", "5", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "ot-check: PASS" in out
        assert "permutation oracle" in out
        assert "max marginal error" in out and ", converged 5/5 [OK]" in out

    def test_writes_csv_dumps(self, tmp_path):
        out = str(tmp_path / "otc")
        assert run(["ot-check", "--size", "3", "--instances", "2", "--out", out]) == 0
        for name in ("cost.csv", "coupling_exact.csv", "coupling_entropic.csv",
                     "manifest_otcheck.json"):
            assert os.path.exists(os.path.join(out, name))

    def test_bad_size_rejected(self):
        assert run(["ot-check", "--size", "9"]) == 2
        assert run(["ot-check", "--size", "1"]) == 2

    def test_no_instances_rejected(self, capsys):
        assert run(["ot-check", "--instances", "0"]) == 2
        assert capsys.readouterr().err == "config error: --instances must be at least 1\n"

    def test_oracle_disagreement_fails_with_numerical_exit(self, capsys, monkeypatch):
        real = reference.permutation_transport
        monkeypatch.setattr(reference, "permutation_transport", lambda cost: real(cost) + 1.0)
        assert run(["ot-check", "--size", "3", "--instances", "2"]) == 4
        out = capsys.readouterr().out
        assert "permutation oracle: max gap 1.000e+00 over 2 instances [FAIL]" in out
        assert out.endswith("ot-check: FAIL\n")

    def test_bad_reg_rejected(self):
        for reg in ("0", "-1", "nan", "inf"):
            assert run(["ot-check", "--reg", reg]) == 2, reg

    def test_negative_seed_rejected(self, tmp_path, capsys):
        out = tmp_path / "otc"
        assert run(["ot-check", "--seed", "-1", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "config error: --seed must be nonnegative, got -1\n"
        assert not out.exists()
