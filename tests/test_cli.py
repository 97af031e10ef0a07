"""Command-line flows: generate, train, eval, ot-check, exit codes, manifests."""

import json
import os

import pytest

from iwot.cli import main
from iwot.data import load_dataset
from iwot.training import load_history_csv

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
        history = load_history_csv(os.path.join(out, "history.csv"))
        beta, eta, epsilon = 0.3, 0.3, 0.05
        for r in history.records:
            recombined = r.classification + beta * r.transport + eta * r.separation + epsilon * r.intra
            assert abs(r.total - recombined) <= 1e-10

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
        assert os.path.exists(os.path.join(eval_out, "report.csv"))
        assert os.path.exists(os.path.join(eval_out, "manifest_eval.json"))
        out_text = capsys.readouterr().out
        assert "common_acc" in out_text

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
        ],
        ids=["split-int", "split-string-count", "weight-non-numeric", "negative-shape",
             "networks-mismatched"],
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


class TestOtCheck:
    def test_passes_and_prints(self, capsys):
        assert run(["ot-check", "--size", "3", "--instances", "5", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "ot-check: PASS" in out
        assert "permutation oracle" in out

    def test_writes_csv_dumps(self, tmp_path):
        out = str(tmp_path / "otc")
        assert run(["ot-check", "--size", "3", "--instances", "2", "--out", out]) == 0
        for name in ("cost.csv", "coupling_exact.csv", "coupling_entropic.csv",
                     "manifest_otcheck.json"):
            assert os.path.exists(os.path.join(out, name))

    def test_bad_size_rejected(self):
        assert run(["ot-check", "--size", "9"]) == 2
        assert run(["ot-check", "--size", "1"]) == 2

    def test_bad_reg_rejected(self):
        for reg in ("0", "-1", "nan", "inf"):
            assert run(["ot-check", "--reg", reg]) == 2, reg
