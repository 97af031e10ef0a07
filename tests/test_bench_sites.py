"""The benchmark's trace sites: each one still resolves and is still called.

`perfbench/tracer.py` wraps library functions by module and attribute name,
so a site that was renamed or is no longer called only shows up in a traced
benchmark run. This runs the command line's generate, train and eval on a
tiny PDA Sinkhorn config with every site traced, as `perfbench/tracecli.py`
does, and checks the spans and the solved plans.
"""

import os
import sys

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
sys.path.insert(0, PERFBENCH)

import checks  # noqa: E402
from tracer import CLI_SITES, LIBRARY_SITES, Tracer  # noqa: E402

from iwot import cli  # noqa: E402

CONFIG = """\
[experiment]
setting = pda
seed = 0

[data]
n_common = 2
n_source_private = 1
n_target_private = 0
dim = 4
n_source = 48
n_target = 48

[train]
epochs = 3
warmup_epochs = 1
batch_size = 16
solver = sinkhorn
sinkhorn_reg = 0.05
"""


@pytest.fixture()
def traced():
    tracer = Tracer()
    try:
        tracer.install(LIBRARY_SITES + CLI_SITES)  # raises if a site no longer resolves
        yield tracer
    finally:
        tracer.restore()


def test_every_site_resolves_and_is_called(tmp_path, traced):
    config = tmp_path / "config.ini"
    config.write_text(CONFIG, encoding="utf-8")
    out = str(tmp_path)
    for argv in (
        ["generate", "--config", str(config), "--out", out],
        ["train", "--config", str(config), "--out", out],
        ["eval", "--checkpoint", os.path.join(out, "checkpoint.json"),
         "--data", os.path.join(out, "target.txt"),
         "--source", os.path.join(out, "source.txt"), "--out", os.path.join(out, "eval")],
    ):
        assert cli.main(argv) == 0, argv
    called = {span["name"] for span in traced.spans}
    missing = {site[3] for site in LIBRARY_SITES + CLI_SITES} - called
    assert not missing, "trace sites never called: %s" % sorted(missing)
    checked, _ = checks.check_plans(traced.plan_records())  # raises on a faulty plan
    assert checked > 0
