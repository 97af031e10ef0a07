"""The start-up contract: importing iwot loads SciPy's HiGHS and assignment
extensions without running the `scipy` or `scipy.optimize` package `__init__`,
and they are the very modules `scipy.optimize` uses, whichever is imported
first.

The import checks run in fresh interpreters, since this test process may
already hold `scipy.optimize`.
"""

import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest
import scipy

from iwot import ot

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Source run both here and in the fresh interpreters: the exact solver's plans
# on a learned-marginal 24x24 LP and on a uniform square (the assignment path).
PLANS = """
import numpy as np

def exact_plans(ot):
    rng = np.random.default_rng(24)
    cost = ot.cosine_cost(rng.normal(size=(24, 8)), rng.normal(size=(24, 8)) + 0.5)
    raw = 1.0 / (1.0 + np.exp(-rng.normal(0.0, 2.0, (2, 24))))
    p1, p2 = raw / raw.sum(axis=1, keepdims=True)
    uniform = np.full(24, 1.0 / 24)
    return [ot.solve_exact(cost, p1, p2), ot.solve_exact(cost, uniform, uniform)]
"""


def run_fresh(code):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True,
        text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_import_does_not_load_scipy_optimize():
    run_fresh(
        "import sys\n"
        "import iwot, iwot.cli\n"
        "assert 'scipy.optimize' not in sys.modules, sorted(sys.modules)\n"
        "assert 'scipy' not in sys.modules, sorted(sys.modules)\n"
    )


def test_import_does_not_load_thread_pools():
    # The domain-gap diagnostic uses a bare threading.Thread, which logging
    # has already imported, so start-up stays flat.
    run_fresh(
        "import sys\n"
        "import iwot, iwot.cli\n"
        "assert 'concurrent.futures' not in sys.modules, sorted(sys.modules)\n"
        "assert 'queue' not in sys.modules, sorted(sys.modules)\n"
    )


def test_import_constructs_no_highs_instance():
    # The first exact LP on a thread makes that thread's instance and later
    # ones reuse it; importing builds none, so `iwot generate` pays nothing.
    run_fresh(
        PLANS
        + textwrap.dedent(
            """
            import iwot, iwot.cli
            from iwot import ot
            made = []

            class Counting(ot.highs._Highs):
                def __init__(self):
                    made.append(self)
                    super().__init__()

            ot.highs._Highs = Counting
            exact_plans(ot)
            assert len(made) == 1, made
            exact_plans(ot)
            assert len(made) == 1, made
            """
        )
    )


@pytest.mark.parametrize("first", ["scipy.optimize", "iwot.ot"])
def test_extensions_are_scipy_optimize_own(first):
    second = "iwot.ot" if first == "scipy.optimize" else "scipy.optimize"
    out = run_fresh(
        PLANS
        + textwrap.dedent(
            """
            import importlib
            importlib.import_module(%r)
            importlib.import_module(%r)
            import scipy.optimize
            from iwot import ot
            from scipy.optimize._highspy import _core
            assert ot.highs._Highs is _core._Highs
            assert ot.linear_sum_assignment is scipy.optimize.linear_sum_assignment
            print(*(plan.tobytes().hex() for plan in exact_plans(ot)))
            """
            % (first, second)
        )
    )
    namespace = {}
    exec(PLANS, namespace)
    expected = namespace["exact_plans"](ot)
    assert out.split() == [plan.tobytes().hex() for plan in expected]
    lp, square = expected
    assert 24 < np.count_nonzero(lp) < 48
    assert set(np.unique(square)) == {0.0, 1.0 / 24}


def test_missing_extension_names_module_and_scipy_version():
    with pytest.raises(ImportError) as caught:
        ot._scipy_extension("scipy.optimize._no_such_module")
    message = str(caught.value)
    assert "scipy.optimize._no_such_module" in message
    assert scipy.__version__ in message
