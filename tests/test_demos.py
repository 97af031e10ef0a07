"""Every demo script runs to completion, and the CLI walkthrough's config loads."""

import glob
import os
import re
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = sorted(glob.glob(os.path.join(ROOT, "demos", "*.py")))


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("path", DEMOS, ids=os.path.basename)
def test_demo_runs(path, tmp_path):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    result = subprocess.run(
        [sys.executable, path], cwd=tmp_path, env=env, capture_output=True, text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip()


def test_cli_walkthrough_config_loads(tmp_path):
    from iwot import cli

    with open(os.path.join(ROOT, "demos", "cli_walkthrough.sh"), encoding="utf-8") as handle:
        script = handle.read()
    match = re.search(r'cat > "\$OUT/config\.ini" << \'EOF\'\n(.*?)^EOF$', script, re.S | re.M)
    assert match, "demos/cli_walkthrough.sh has no config.ini heredoc"
    path = tmp_path / "config.ini"
    path.write_text(match.group(1), encoding="utf-8")
    config, snapshot = cli._load_experiment(str(path))
    assert config.setting.value == snapshot["experiment"]["setting"]
    assert config.train.epochs == int(snapshot["train"]["epochs"])
